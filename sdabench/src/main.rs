//! `sdabench` — the repository benchmark.
//!
//! ```text
//! sdabench --workload <pipelines|dag|hetero96_net|service_wall>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the per-event-kind traced run and the per-layer
//! micro-loops, and prints the attribution report. Every output is
//! checked before a number is reported. Human-readable lines come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

// Timing with the wall clock is this benchmark's purpose; the workspace's
// determinism bans (clippy.toml) apply to the simulated crates only.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sda_service::logical::run_logical;
use sda_service::wall::{run_wall, WallRunConfig};
use sda_sim::rng::RngFactory;
use sda_system::{
    run_once, run_once_sharded, Metrics, RunConfig, RunResult, SystemConfig, SystemModel,
};

use sdabench::host::{self, RecordedHost};
use sdabench::micro::{self, Measured, Sizes};
use sdabench::reference;
use sdabench::stats::Summary;
use sdabench::traced::{self, run_traced, TracedRun, KINDS, REPORTED};
use sdabench::workloads::{
    exact, Fingerprint, Workload, DEFAULT_SEED, HELD_OUT_SEED, SERVICE_GLOBAL_CAP,
    SERVICE_TIME_SCALE,
};
use sdabench::{END_TO_END, PER_LAYER};

/// The host the committed `BENCHMARK.json` numbers were recorded on.
const RECORDED_HOST: &str = include_str!("../host.txt");

fn recorded_host() -> RecordedHost {
    host::parse_recorded_host(RECORDED_HOST).expect("sdabench/host.txt names every key")
}

/// Set-up repetitions per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Shard count of the sharded engine runs.
const SHARDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sdabench --workload <pipelines|dag|hetero96_net|service_wall> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
    }
}

/// Everything one invocation reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts `n` attempted operations that all failed because of `what`.
    fn fail(&mut self, n: u64, what: &str) {
        self.failed += n;
        eprintln!("CHECK FAILED: {what}");
    }

    /// Checks `got` against `want` (bit-exact renderings of results).
    fn check_exact(&mut self, got: &str, want: &str, what: &str) -> bool {
        self.attempted += 1;
        if got == want {
            true
        } else {
            self.fail(1, what);
            false
        }
    }

    /// Records the median of `samples` as `name`, printing median,
    /// quartiles, maximum and sample count.
    fn set(&mut self, name: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        print_summary(name, &s);
        self.metrics.insert(name, s.median);
    }

    /// Records a throughput at the recorded host's reference speed: each
    /// `(rate, reference rate)` sample is scaled by the recorded
    /// reference rate over the one measured just before it. Prints the
    /// raw wall-clock rates as `<name>_raw`.
    fn set_at_reference(&mut self, name: &'static str, samples: &[(f64, f64)]) {
        let raw: Vec<f64> = samples.iter().map(|&(r, _)| r).collect();
        print_summary(&format!("{name}_raw"), &Summary::of(&raw));
        let scale = recorded_host().reference_events_per_s;
        let scaled: Vec<f64> = samples.iter().map(|&(r, p)| r * scale / p).collect();
        self.set(name, &scaled);
    }
}

fn unit_of(name: &str) -> &'static str {
    let name = name.trim_end_matches("_raw");
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or(match name {
            "peak_rss_mb" => "MB",
            "miss_gap_global_pp" | "miss_gap_local_pp" => "pp",
            "service_cpu_util_cores" => "cores",
            "reference_events_per_s" => "1/s",
            _ => "",
        })
}

fn print_summary(name: &str, s: &Summary) {
    println!(
        "  {name:<44} {:>14.6} {:<6} (q1 {:.6}, q3 {:.6}, max {:.6}, n={})",
        s.median,
        unit_of(name),
        s.q1,
        s.q3,
        s.max,
        s.n
    );
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Post-warm-up tasks that reached a terminal state.
fn terminal_tasks(r: &RunResult) -> u64 {
    r.metrics.local.completed() + r.metrics.global.completed()
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let cfg = w.config();
    let run = w.run_config(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);

    print_metadata(&args, &run);
    let mut report = Report::default();
    check_pinned(w, &cfg, &mut report);

    if args.trace {
        per_layer(w, &cfg, &run, budget, &mut report);
    } else {
        let inputs = w.inputs(args.seed);
        match w {
            Workload::ServiceWall => end_to_end_service(&cfg, &inputs, budget, &mut report),
            _ => end_to_end_simulator(w, &cfg, &inputs, budget, &mut report),
        }
        // Printed, not in the JSON line: on `hetero96_net` the shard
        // threads' allocator arenas make it vary by over 10 % from run
        // to run.
        match host::peak_rss_mb() {
            Some(mb) => print_summary("peak_rss_mb", &Summary::of(&[mb])),
            None => report.fail(1, "cannot read VmHWM from /proc/self/status"),
        }
    }

    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let got: Vec<&str> = report.metrics.keys().copied().collect();
    let mut want = expected.clone();
    want.sort_unstable();
    if got != want {
        eprintln!("internal error: reported metrics {got:?} differ from {want:?}");
        std::process::exit(1);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} (failed {} of {} attempted)",
        report.failed, report.attempted
    );
    print_json(&report, &expected);
}

fn print_metadata(args: &Args, run: &RunConfig) {
    let cores = host::host_cores();
    let model = host::cpu_model();
    println!(
        "sdabench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  host_cores={cores} cpu_model=\"{model}\" rustc=\"{}\"",
        host::rustc_version()
    );
    println!(
        "  horizon: warmup={} duration={} (simulated units)",
        run.warmup, run.duration
    );
    let seeds: Vec<u64> = args
        .workload
        .inputs(args.seed)
        .iter()
        .map(|r| r.seed)
        .collect();
    println!("  input seeds (end-to-end runs): {seeds:?}");
    if args.workload == Workload::ServiceWall {
        println!(
            "  service: time_scale={SERVICE_TIME_SCALE} global_cap={SERVICE_GLOBAL_CAP} warmup_frac=0.1 open-loop"
        );
    }
    let rec = recorded_host();
    if rec.host_cores != cores || rec.cpu_model != model {
        eprintln!(
            "WARNING: this host (host_cores={cores}, cpu_model=\"{model}\") differs from the one \
             that recorded BENCHMARK.json (host_cores={}, cpu_model=\"{}\"); numbers from \
             different hosts are not comparable",
            rec.host_cores, rec.cpu_model
        );
    }
}

/// Checks the pinned fingerprints of the default and held-out seeds.
fn check_pinned(w: Workload, cfg: &SystemConfig, report: &mut Report) {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let run = w.run_config(seed);
        let want = w.pinned(seed).expect("both seeds are pinned");
        report.attempted += 1;
        match run_once(cfg, &run) {
            Ok(r) if Fingerprint::of(&r) == want => {}
            Ok(r) => report.fail(
                1,
                &format!(
                    "{} seed {seed}: fingerprint {:?} differs from pinned {want:?}",
                    w.name(),
                    Fingerprint::of(&r)
                ),
            ),
            Err(e) => report.fail(1, &format!("{} seed {seed}: run failed: {e}", w.name())),
        }
    }
}

/// A run's result with its bit-exact rendering.
struct Reference {
    result: RunResult,
    exact: String,
}

impl Reference {
    fn new(result: RunResult) -> Reference {
        let exact = exact(&result);
        Reference { result, exact }
    }
}

/// Pooled missed-deadline percentages (global, local) over `results`.
fn pooled_miss<'a>(results: impl Iterator<Item = &'a Metrics> + Clone) -> (f64, f64) {
    let pct = |missed: u64, completed: u64| 100.0 * missed as f64 / completed.max(1) as f64;
    let sum = |f: fn(&Metrics) -> u64| results.clone().map(f).sum::<u64>();
    (
        pct(sum(|m| m.global.missed()), sum(|m| m.global.completed())),
        pct(sum(|m| m.local.missed()), sum(|m| m.local.completed())),
    )
}

/// Runs `f` on every input once, checking each result against its
/// reference; returns the round's (seconds, events, terminal tasks), or
/// `None` if any run failed its check.
fn timed_round(
    inputs: &[RunConfig],
    refs: &[Reference],
    what: &str,
    report: &mut Report,
    f: impl Fn(&RunConfig) -> Result<RunResult, String>,
) -> Option<(f64, u64, u64)> {
    let (mut t, mut events, mut tasks, mut ok) = (0.0, 0, 0, true);
    for (run, want) in inputs.iter().zip(refs) {
        let start = Instant::now();
        let r = f(run);
        t += secs(start.elapsed());
        match r {
            Ok(r) => {
                let what = format!("{what} (seed {}) differs from its reference", run.seed);
                ok &= report.check_exact(&exact(&r), &want.exact, &what);
                events += r.events;
                tasks += terminal_tasks(&r);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(1, &format!("{what} (seed {}) failed: {e}", run.seed));
                ok = false;
            }
        }
    }
    ok.then_some((t, events, tasks))
}

/// Times `SETUP_REPS` set-ups; returns the first one's references and
/// checks every later one against them.
fn timed_setups(
    mut f: impl FnMut() -> Option<Vec<RunResult>>,
    report: &mut Report,
) -> Option<Vec<Reference>> {
    let mut times = Vec::new();
    let mut refs: Option<Vec<Reference>> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let out = f();
        times.push(secs(start.elapsed()));
        match (out, &refs) {
            (None, _) => {
                report.attempted += 1;
                report.fail(1, "set-up failed");
            }
            (Some(results), None) => {
                report.attempted += results.len() as u64;
                refs = Some(results.into_iter().map(Reference::new).collect());
            }
            (Some(results), Some(want)) => {
                for (r, w) in results.iter().zip(want) {
                    report.check_exact(
                        &exact(r),
                        &w.exact,
                        "set-up run differs from the first set-up",
                    );
                }
            }
        }
    }
    report.set("setup_s", &times);
    refs
}

/// One set-up of a simulator workload: validation, model construction
/// and the untimed warm-up runs of every input (and one sharded run
/// where the workload shards).
fn setup_simulator(
    w: Workload,
    cfg: &SystemConfig,
    inputs: &[RunConfig],
) -> Option<Vec<RunResult>> {
    cfg.workload.validate().ok()?;
    cfg.network.validate(cfg.workload.nodes).ok()?;
    SystemModel::new(cfg.clone(), &RngFactory::new(inputs[0].seed)).ok()?;
    let warm: Option<Vec<RunResult>> = inputs.iter().map(|run| run_once(cfg, run).ok()).collect();
    if w == Workload::Hetero96Net {
        run_once_sharded(cfg, &inputs[0], SHARDS).ok()?;
    }
    warm
}

fn end_to_end_simulator(
    w: Workload,
    cfg: &SystemConfig,
    inputs: &[RunConfig],
    budget: Duration,
    report: &mut Report,
) {
    let Some(refs) = timed_setups(|| setup_simulator(w, cfg, inputs), report) else {
        return;
    };
    let (mut serial, mut sharded, mut tasks) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + budget;
    while serial.is_empty() || Instant::now() < deadline {
        let host_speed = reference::rate();
        let round = timed_round(inputs, &refs, "serial run", report, |run| {
            run_once(cfg, run).map_err(|e| e.to_string())
        });
        if let Some((t, events, n)) = round {
            serial.push((events as f64 / t, host_speed));
            tasks.push((n as f64 / t, host_speed));
        }
        let round = timed_round(inputs, &refs, "sharded run", report, |run| {
            run_once_sharded(cfg, run, SHARDS).map_err(|e| e.to_string())
        });
        if let Some((t, events, _)) = round {
            sharded.push((events as f64 / t, host_speed));
        }
    }
    let events: u64 = refs.iter().map(|r| r.result.events).sum();
    println!("  events per round of {} inputs: {events}", inputs.len());
    print_reference(&serial);
    report.set_at_reference("events_per_s", &serial);
    report.set_at_reference("sharded2_events_per_s", &sharded);
    report.set_at_reference("tasks_per_s", &tasks);
    let (global, local) = pooled_miss(refs.iter().map(|r| &r.result.metrics));
    report.set("miss_global_pct", &[global]);
    report.set("miss_local_pct", &[local]);
    let per_host = |v: &[(f64, f64)]| Summary::of(&v.iter().map(|s| s.0 / s.1).collect::<Vec<_>>());
    let ratio = per_host(&sharded).median / per_host(&serial).median;
    println!("  sharded2 / serial events_per_s = {ratio:.4} (ROADMAP gate: >= 1.3)");
}

/// Prints the reference simulation's rate over the rounds of `samples`.
fn print_reference(samples: &[(f64, f64)]) {
    let rates: Vec<f64> = samples.iter().map(|&(_, p)| p).collect();
    print_summary("reference_events_per_s", &Summary::of(&rates));
}

fn wall_config(run: &RunConfig, horizon_frac: f64) -> WallRunConfig {
    WallRunConfig {
        warmup: run.warmup,
        duration: (run.warmup + run.duration) * horizon_frac,
        seed: run.seed,
        time_scale: SERVICE_TIME_SCALE,
        max_globals: SERVICE_GLOBAL_CAP,
        offered: None,
        requested: None,
    }
}

/// One set-up of the service workload: validation, the logical-clock
/// reference of every input (checked bit for bit against the
/// simulator), and a short untimed wall-clock warm-up run.
fn setup_service(cfg: &SystemConfig, inputs: &[RunConfig]) -> Option<Vec<RunResult>> {
    cfg.workload.validate().ok()?;
    let mut refs = Vec::new();
    for run in inputs {
        let logical = run_logical(cfg, run).ok()?.result;
        let sim = run_once(cfg, run).ok()?;
        if exact(&logical) != exact(&sim) {
            return None;
        }
        refs.push(logical);
    }
    let warm = run_wall(cfg, &wall_config(&inputs[0], 0.05)).ok()?;
    warm.drained_clean().then_some(refs)
}

fn end_to_end_service(
    cfg: &SystemConfig,
    inputs: &[RunConfig],
    budget: Duration,
    report: &mut Report,
) {
    let Some(refs) = timed_setups(|| setup_service(cfg, inputs), report) else {
        return;
    };
    let (mut tasks, mut cpu_util, mut wall_metrics, mut logical_metrics) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut logical_eps, mut sharded_eps) = (Vec::new(), Vec::new());
    // First, while the process holds no live-run state: the
    // logical-clock engine and the simulator through the sharded entry
    // point (serial fallback at zero lookahead), each checked against
    // the set-up references.
    let start = Instant::now();
    while logical_eps.len() < 5 || start.elapsed() < budget.mul_f64(0.3) {
        let host_speed = reference::rate();
        let round = timed_round(inputs, &refs, "run_logical", report, |run| {
            run_logical(cfg, run)
                .map(|r| r.result)
                .map_err(|e| e.to_string())
        });
        if let Some((t, events, _)) = round {
            logical_eps.push((events as f64 / t, host_speed));
        }
        let round = timed_round(inputs, &refs, "simulator run", report, |run| {
            run_once_sharded(cfg, run, SHARDS).map_err(|e| e.to_string())
        });
        if let Some((t, events, _)) = round {
            sharded_eps.push((events as f64 / t, host_speed));
        }
    }
    // Live runs fill the rest of the budget.
    let mut i = 0;
    while tasks.is_empty() || start.elapsed() < budget {
        let k = i % inputs.len();
        i += 1;
        let cpu0 = host::process_cpu_seconds();
        let r = run_wall(cfg, &wall_config(&inputs[k], 1.0));
        let cpu1 = host::process_cpu_seconds();
        match r {
            Ok(rep) => {
                let submitted = rep.submitted_locals + rep.submitted_globals;
                report.attempted += submitted;
                if !rep.drained_clean() {
                    report.fail(
                        submitted,
                        &format!("unclean drain: {} tasks lost", rep.lost_tasks()),
                    );
                    continue;
                }
                let terminal = rep.terminal_locals + rep.terminal_globals;
                tasks.push(terminal as f64 / rep.wall_seconds);
                if let (Some(a), Some(b)) = (cpu0, cpu1) {
                    cpu_util.push((b - a) / rep.wall_seconds);
                }
                wall_metrics.push(rep.metrics);
                logical_metrics.push(refs[k].result.metrics.clone());
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(1, &format!("run_wall failed: {e}"));
            }
        }
    }
    print_reference(&logical_eps);
    report.set_at_reference("events_per_s", &logical_eps);
    report.set_at_reference("sharded2_events_per_s", &sharded_eps);
    report.set("tasks_per_s", &tasks);
    let (wall_g, wall_l) = pooled_miss(wall_metrics.iter());
    let (logical_g, logical_l) = pooled_miss(logical_metrics.iter());
    report.set("miss_global_pct", &[wall_g]);
    report.set("miss_local_pct", &[wall_l]);
    println!(
        "  logical-clock reference over the same inputs: miss_global {logical_g:.4} %, miss_local {logical_l:.4} %"
    );
    print_summary("miss_gap_global_pp", &Summary::of(&[wall_g - logical_g]));
    print_summary("miss_gap_local_pp", &Summary::of(&[wall_l - logical_l]));
    print_summary("service_cpu_util_cores", &Summary::of(&cpu_util));
}

/// Medians of a set of traced runs.
struct TraceSummary {
    events: u64,
    count: [u64; KINDS.len()],
    local_completions: u64,
    global_completions: u64,
    scheduled: [u64; KINDS.len()],
    ns_per_event: [Summary; KINDS.len()],
    residual_ns_per_event: Summary,
    mean_fel_len: f64,
    traced_s: f64,
    untraced_s: f64,
    mean_queue_len: f64,
}

impl TraceSummary {
    fn overhead(&self) -> f64 {
        self.traced_s / self.untraced_s - 1.0
    }

    fn kind_total_ns(&self, k: usize) -> f64 {
        self.ns_per_event[k].median * self.count[k] as f64
    }
}

/// Alternates traced and untraced runs of `cfg` for `budget`, checking
/// every traced result against `run_once` bit for bit.
fn trace_workload(
    name: &str,
    cfg: &SystemConfig,
    run: &RunConfig,
    budget: Duration,
    report: &mut Report,
) -> Option<TraceSummary> {
    let reference = match run_once(cfg, run) {
        Ok(r) => r,
        Err(e) => {
            report.attempted += 1;
            report.fail(1, &format!("{name}: run failed: {e}"));
            return None;
        }
    };
    let want = exact(&reference);
    let mut traced: Vec<(TracedRun, f64)> = Vec::new();
    let mut untraced = Vec::new();
    let deadline = Instant::now() + budget;
    while traced.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        let t = run_traced(cfg, run);
        let elapsed = secs(start.elapsed());
        match t {
            Ok(t) => {
                if report.check_exact(
                    &exact(&t.result),
                    &want,
                    &format!("{name}: traced run differs from run_once"),
                ) {
                    traced.push((t, elapsed));
                }
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(1, &format!("{name}: traced run failed: {e}"));
            }
        }
        let start = Instant::now();
        let r = run_once(cfg, run);
        let elapsed = secs(start.elapsed());
        if r.is_ok_and(|r| report.check_exact(&exact(&r), &want, &format!("{name}: run differs"))) {
            untraced.push(elapsed);
        }
    }
    let first = &traced.first()?.0.stats;
    let summary = |f: &dyn Fn(&TracedRun, f64) -> f64| {
        Summary::of(&traced.iter().map(|(t, s)| f(t, *s)).collect::<Vec<_>>())
    };
    let ns_per_event = std::array::from_fn(|k| {
        summary(&|t, _| t.stats.handler_ns[k] as f64 / t.stats.count[k].max(1) as f64)
    });
    let q = &reference.node_queue_length;
    Some(TraceSummary {
        events: first.events(),
        count: first.count,
        local_completions: first.local_completions,
        global_completions: first.global_completions,
        scheduled: first.scheduled,
        ns_per_event,
        residual_ns_per_event: summary(&|t, _| t.residual_ns() as f64 / t.stats.events() as f64),
        mean_fel_len: first.mean_fel_len(),
        traced_s: summary(&|_, s| s).median,
        untraced_s: Summary::of(&untraced).median,
        mean_queue_len: q.iter().sum::<f64>() / q.len().max(1) as f64,
    })
}

fn per_layer(
    w: Workload,
    cfg: &SystemConfig,
    run: &RunConfig,
    budget: Duration,
    report: &mut Report,
) {
    let is_service = w == Workload::ServiceWall;
    let is_dag = w == Workload::Dag;
    // Budget shares: traced runs, micro-loops, and the live-service run.
    let trace_share = if is_service { 0.2 } else { 0.45 };
    let Some(ts) = trace_workload(w.name(), cfg, run, budget.mul_f64(trace_share), report) else {
        return;
    };
    // The DAG-vs-flat split compares against `pipelines` at the same seed.
    let pipelines = if is_dag {
        let p = Workload::Pipelines;
        trace_workload(
            p.name(),
            &p.config(),
            &p.run_config(run.seed),
            budget.mul_f64(0.15),
            report,
        )
    } else {
        None
    };

    let sizes = Sizes {
        fel: ts.mean_fel_len.round().max(1.0) as usize,
        ready_queue: ts.mean_queue_len.round().max(1.0) as usize,
    };
    println!(
        "  micro-loop sizes: future-event list {}, ready queue {}",
        sizes.fel, sizes.ready_queue
    );
    let mut loops = micro::all(sizes, run.seed);
    let micro_share = if is_service || is_dag { 0.35 } else { 0.5 };
    let each = budget.mul_f64(micro_share / loops.len() as f64);
    for m in &mut loops {
        let Measured {
            name,
            ns_per_op,
            ops_ok,
        } = micro::measure(m, each);
        report.attempted += 1;
        if !ops_ok {
            report.fail(
                1,
                &format!("{name}: performed a different op count than it divides by"),
            );
        }
        print_summary(name, &ns_per_op);
        report.metrics.insert(name, ns_per_op.median);
    }

    println!(
        "  traced run: {} events, tracing overhead {:.4}",
        ts.events,
        ts.overhead()
    );
    for (k, count, ns) in REPORTED {
        report.set(count, &[ts.count[k] as f64]);
        print_summary(ns, &ts.ns_per_event[k]);
        report.metrics.insert(ns, ts.ns_per_event[k].median);
    }
    let residual = ts.residual_ns_per_event;
    print_summary("sim.engine.residual_ns_per_event", &residual);
    report
        .metrics
        .insert("sim.engine.residual_ns_per_event", residual.median);
    report.set("sim.engine.trace_overhead", &[ts.overhead()]);
    report.set("sim.event_queue.mean_len", &[ts.mean_fel_len]);

    attribution(w, cfg, &ts, &report.metrics);
    if let Some(p) = &pipelines {
        dag_vs_flat(&ts, p, &report.metrics);
    }

    if is_service {
        service_layers(cfg, run, report);
    } else {
        // This workload bypasses the service layer.
        for name in [
            "service.logical.tasks_per_s",
            "service.wall.cpu_us_per_task",
            "service.wall.cpu_util",
        ] {
            report.set(name, &[0.0]);
        }
    }
}

/// Predicted vs measured handler time per event kind: each layer's
/// micro-loop ns/op times the number of calls the traced run implies.
fn attribution(w: Workload, cfg: &SystemConfig, ts: &TraceSummary, cost: &BTreeMap<&str, f64>) {
    let k = |name: &str| cost[name];
    let dag = matches!(cfg.workload.shape, sda_workload::GlobalShape::Dag { .. });
    let networked = !cfg.network.is_zero();
    let (make_global, lifecycle) = if dag {
        (
            "workload.make_global_dag_ns",
            "core.dag_run.lifecycle_ns_per_subtask",
        )
    } else {
        (
            "workload.make_global_flat_ns",
            "core.flat_run.lifecycle_ns_per_subtask",
        )
    };
    let (loc, glob) = (ts.local_completions as f64, ts.global_completions as f64);
    let c = |kind: usize| ts.count[kind] as f64;
    let exp = k("sim.dist.exponential_sample_ns");
    let rq = k("sched.ready_queue.push_pop_ns");
    let record = k("system.metrics.record_ns");
    // Global tasks finish in `service_complete` without a network and in
    // `result_return` with one; global subtasks enter ready queues in
    // `service_complete`/`global_arrival` (attributed to the former)
    // without a network and in `subtask_arrive` with one.
    let finishes = c(traced::GLOBAL_ARRIVAL);
    // A schedule+pop pair costs `schedule_pop`; the schedule half runs
    // in the handler that schedules, the pop half in the engine loop.
    let half_fel = k("sim.event_queue.schedule_pop_ns") / 2.0;
    let predicted = |kind: usize| -> f64 {
        ts.scheduled[kind] as f64 * half_fel
            + match kind {
                traced::LOCAL_ARRIVAL => c(kind) * (k("workload.make_local_ns") + exp),
                traced::GLOBAL_ARRIVAL => c(kind) * (k(make_global) + exp),
                traced::SERVICE_COMPLETE => {
                    let mut ns = loc * (record + rq) + glob * k(lifecycle);
                    if !networked {
                        ns += glob * rq + finishes * record;
                    }
                    ns
                }
                traced::SUBTASK_ARRIVE if networked => glob * rq,
                traced::RESULT_RETURN => c(kind) * record,
                _ => 0.0,
            }
    };
    println!("  attribution ({}): per event kind, ms per run", w.name());
    println!(
        "    {:<18} {:>10} {:>12} {:>12} {:>12}",
        "kind", "events", "measured", "predicted", "unexplained"
    );
    for (kind, _, _) in REPORTED {
        let measured = ts.kind_total_ns(kind) / 1e6;
        let pred = predicted(kind) / 1e6;
        println!(
            "    {:<18} {:>10} {:>12.4} {:>12.4} {:>12.4}",
            KINDS[kind],
            ts.count[kind],
            measured,
            pred,
            measured - pred
        );
    }
    let residual = ts.residual_ns_per_event.median * ts.events as f64 / 1e6;
    let pred = ts.events as f64 * half_fel / 1e6;
    println!(
        "    {:<18} {:>10} {:>12.4} {:>12.4} {:>12.4}",
        "engine residual",
        ts.events,
        residual,
        pred,
        residual - pred
    );
}

/// How the `dag`-vs-`pipelines` run-time gap splits between task
/// construction, `DagRun::finalize`, wave release and the rest.
fn dag_vs_flat(dag: &TraceSummary, flat: &TraceSummary, cost: &BTreeMap<&str, f64>) {
    let k = |name: &str| cost[name];
    let gap = (dag.untraced_s - flat.untraced_s) * 1e9;
    let g_dag = dag.count[traced::GLOBAL_ARRIVAL] as f64;
    let g_flat = flat.count[traced::GLOBAL_ARRIVAL] as f64;
    let finalize = g_dag * k("core.dag_run.finalize_ns");
    let build = g_dag * (k("workload.make_global_dag_ns") - k("core.dag_run.finalize_ns"))
        - g_flat * k("workload.make_global_flat_ns");
    let waves = dag.global_completions as f64 * k("core.dag_run.lifecycle_ns_per_subtask")
        - flat.global_completions as f64 * k("core.flat_run.lifecycle_ns_per_subtask");
    let rest = gap - finalize - build - waves;
    let pct = |x: f64| 100.0 * x / gap;
    println!(
        "  dag vs pipelines: {:.4} ms vs {:.4} ms per run ({:.3}x), gap {:.4} ms",
        dag.untraced_s * 1e3,
        flat.untraced_s * 1e3,
        dag.untraced_s / flat.untraced_s,
        gap / 1e6
    );
    println!(
        "    global tasks {} vs {}, global subtasks {} vs {}, events {} vs {}",
        g_dag, g_flat, dag.global_completions, flat.global_completions, dag.events, flat.events
    );
    for (what, ns) in [
        (
            "task construction (make_global_dag - finalize vs make_global_flat)",
            build,
        ),
        ("DagRun::finalize", finalize),
        ("wave release (DagRun vs FlatRun lifecycle)", waves),
        ("residual (queues, events, everything else)", rest),
    ] {
        println!("    {what:<68} {:>9.4} ms {:>7.1} %", ns / 1e6, pct(ns));
    }
}

/// Service-layer metrics: the logical-clock engine's task rate and the
/// wall-clock runtime's CPU cost, measured from outside the crate.
fn service_layers(cfg: &SystemConfig, run: &RunConfig, report: &mut Report) {
    let want = run_once(cfg, run).map(|r| exact(&r)).unwrap_or_default();
    let mut rates = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let l = run_logical(cfg, run);
        let t = secs(start.elapsed());
        match l {
            Ok(l) => {
                let what = "run_logical differs from the simulator";
                if report.check_exact(&exact(&l.result), &want, what) {
                    rates.push(terminal_tasks(&l.result) as f64 / t);
                }
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(1, &format!("run_logical failed: {e}"));
            }
        }
    }
    report.set("service.logical.tasks_per_s", &rates);
    let wall = wall_config(run, 1.0);
    let cpu0 = host::process_cpu_seconds();
    let r = run_wall(cfg, &wall);
    let cpu1 = host::process_cpu_seconds();
    match (r, cpu0, cpu1) {
        (Ok(rep), Some(a), Some(b)) => {
            let submitted = rep.submitted_locals + rep.submitted_globals;
            report.attempted += submitted;
            if !rep.drained_clean() {
                report.fail(submitted, "unclean drain");
            }
            let terminal = (rep.terminal_locals + rep.terminal_globals).max(1) as f64;
            report.set("service.wall.cpu_us_per_task", &[(b - a) * 1e6 / terminal]);
            report.set("service.wall.cpu_util", &[(b - a) / rep.wall_seconds]);
        }
        (r, _, _) => {
            report.attempted += 1;
            report.fail(
                1,
                &format!("run_wall or /proc/self/stat failed: {:?}", r.err()),
            );
            report.set("service.wall.cpu_us_per_task", &[0.0]);
            report.set("service.wall.cpu_util", &[0.0]);
        }
    }
}

fn print_json(report: &Report, order: &[&str]) {
    let metrics: Vec<String> = order
        .iter()
        .map(|name| {
            let v = report.metrics[name];
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
