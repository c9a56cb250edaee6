//! Drives the wall-clock deadline-assignment service and asserts a
//! clean drain — the live counterpart of the simulation smoke runs.
//!
//! ```text
//! service_drive [--tasks N] [--time-scale S] [--seed SEED]
//!               [--warmup-frac F] [--strategy eqf-ud|ud-ud]
//! ```
//!
//! `--tasks` bounds the global-task count (the run horizon is derived
//! from the configured arrival rate so roughly that many arrive);
//! `--time-scale` sets simulated time units per wall second. After the
//! drain line it prints the runtime's lateness (mean and max of
//! `arrival_lag` and `wake_lateness`, in model units) and a simulator
//! reference: `run_once` at the same seed, warm-up and horizon, with
//! the miss-ratio gaps in percentage points. The reference is paired:
//! the live run streams the simulator's own tasks at that seed (up to
//! the `--tasks` cap), so the gaps compare the same tasks and what they
//! show is the runtime's lateness. Exits nonzero with a structured
//! one-line `error: ...` on any failure, including a drain that loses
//! tasks.

use sda_core::SdaStrategy;
use sda_service::wall::{run_wall, WallRunConfig};
use sda_system::{run_once, RunConfig, SystemConfig};

struct Opts {
    tasks: u64,
    time_scale: f64,
    seed: u64,
    warmup_frac: f64,
    strategy: SdaStrategy,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            tasks: 1_000,
            time_scale: 1_000.0,
            seed: 0x5DA_11FE,
            warmup_frac: 0.0,
            strategy: SdaStrategy::eqf_ud(),
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{what} expects a value"))
                .cloned()
        };
        match flag.as_str() {
            "--tasks" => {
                opts.tasks = value("--tasks")?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?;
                if opts.tasks == 0 {
                    return Err("--tasks must be at least 1".into());
                }
            }
            "--time-scale" => {
                opts.time_scale = value("--time-scale")?
                    .parse()
                    .map_err(|e| format!("--time-scale: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--warmup-frac" => {
                opts.warmup_frac = value("--warmup-frac")?
                    .parse()
                    .map_err(|e| format!("--warmup-frac: {e}"))?;
                if !(0.0..1.0).contains(&opts.warmup_frac) {
                    return Err("--warmup-frac must be in [0, 1)".into());
                }
            }
            "--strategy" => {
                opts.strategy = match value("--strategy")?.as_str() {
                    "eqf-ud" => SdaStrategy::eqf_ud(),
                    "ud-ud" => SdaStrategy::ud_ud(),
                    other => return Err(format!("--strategy: unknown strategy `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn usage() -> ! {
    eprintln!(
        "usage: service_drive [--tasks N] [--time-scale S] [--seed SEED] \
         [--warmup-frac F] [--strategy eqf-ud|ud-ud]"
    );
    std::process::exit(2);
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "service binary entry point: argv is read once into Opts before the service starts"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };

    let config = SystemConfig::ssp_baseline(opts.strategy);
    // Derive the horizon from the configured global arrival rate so
    // about `--tasks` globals arrive before the submitters close.
    let lambda_global = match sda_workload::TaskFactory::new(
        config.workload.clone(),
        &sda_sim::rng::RngFactory::new(opts.seed),
    ) {
        Ok(factory) => factory.rates().lambda_global,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let duration = opts.tasks as f64 / lambda_global;
    let wall = WallRunConfig {
        warmup: opts.warmup_frac * duration,
        duration,
        seed: opts.seed,
        time_scale: opts.time_scale,
        max_globals: opts.tasks,
        offered: None,
        requested: None,
    };

    match run_wall(&config, &wall) {
        Ok(report) => {
            println!(
                "service_drive: drained submitted_locals={} submitted_globals={} \
                 terminal_locals={} terminal_globals={} lost={} \
                 local_miss={:.2}% global_miss={:.2}% missed={} \
                 sim_time={:.1} wall_seconds={:.2}",
                report.submitted_locals,
                report.submitted_globals,
                report.terminal_locals,
                report.terminal_globals,
                report.lost_tasks(),
                report.metrics.local.miss_percent(),
                report.metrics.global.miss_percent(),
                report.metrics.local.missed() + report.metrics.global.missed(),
                report.end_time,
                report.wall_seconds,
            );
            let lag = &report.arrival_lag;
            let late = &report.wake_lateness;
            println!(
                "lateness (model units; 1 unit = {:.0} us wall): arrival_lag mean={:.4} \
                 max={:.4} late_arrivals={} wake_lateness mean={:.4} max={:.4}",
                1e6 / opts.time_scale,
                lag.mean(),
                lag.max(),
                report.late_arrivals,
                late.mean(),
                late.max(),
            );
            if !report.drained_clean() {
                eprintln!(
                    "error: unclean drain: {} submitted tasks never reached a terminal state",
                    report.lost_tasks()
                );
                std::process::exit(1);
            }
            // The logical-clock reference: the simulator at the same
            // seed, warm-up and horizon.
            let run = RunConfig {
                warmup: wall.warmup,
                duration: wall.duration - wall.warmup,
                seed: opts.seed,
                order_fuzz: 0,
            };
            match run_once(&config, &run) {
                Ok(sim) => {
                    let (local, global) = (
                        sim.metrics.local.miss_percent(),
                        sim.metrics.global.miss_percent(),
                    );
                    println!(
                        "simulator reference: local_miss={local:.2}% global_miss={global:.2}% \
                         gap_local={:+.2}pp gap_global={:+.2}pp",
                        report.metrics.local.miss_percent() - local,
                        report.metrics.global.miss_percent() - global,
                    );
                }
                Err(e) => {
                    eprintln!("error: simulator reference: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
