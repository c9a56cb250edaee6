//! Shared experiment machinery: options, parallel sweep execution and
//! table formatting.

use serde::{Deserialize, Serialize};

use sda_system::{parallel_map, run_replications_with_threads, RunConfig, SystemConfig};
use sda_workload::ConfigError;

/// Run-scale options shared by all experiments.
///
/// Parse a flag list with [`ExperimentOpts::parse`]; the recognized
/// flags are documented at the [crate root](crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOpts {
    /// Independent replications per data point.
    pub reps: usize,
    /// Warm-up discarded before measurement (time units).
    pub warmup: f64,
    /// Measured duration per run (time units).
    pub duration: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for data-point parallelism (0 = all cores).
    pub threads: usize,
    /// Directory to write per-metric CSV files into (`--csv DIR`).
    pub csv_dir: Option<std::path::PathBuf>,
    /// Seed for the event-queue order-fuzz harness (`--order-fuzz S`;
    /// 0 = off). Non-zero values apply a seeded permutation to
    /// same-timestamp event ties — metrics must be invariant.
    pub order_fuzz: u64,
    /// Analytic screening (`--screen`): evaluate the closed-form
    /// predictor at every grid point first and skip simulating points
    /// whose predicted miss ratio is decisively uninteresting (outside
    /// [`SCREEN_LO_PCT`]‥[`SCREEN_HI_PCT`]). Skipped cells carry the
    /// analytic value with a `screened` marker; points the predictor
    /// cannot handle (adaptive strategies, non-Poisson arrivals, …) are
    /// always simulated.
    pub screen: bool,
}

/// Lower edge of the "interesting" predicted-miss band (percent): grid
/// points predicted below this are screened out as trivially feasible.
pub const SCREEN_LO_PCT: f64 = 10.0;

/// Upper edge of the "interesting" predicted-miss band (percent): grid
/// points predicted above this are screened out as hopelessly overloaded.
pub const SCREEN_HI_PCT: f64 = 90.0;

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            reps: 3,
            warmup: 2_000.0,
            duration: 30_000.0,
            seed: 0x5DA_0001,
            threads: 0,
            csv_dir: None,
            order_fuzz: 0,
            screen: false,
        }
    }
}

impl ExperimentOpts {
    /// The paper's scale: two independent runs of 10⁶ time units each.
    pub fn full() -> ExperimentOpts {
        ExperimentOpts {
            reps: 2,
            warmup: 10_000.0,
            duration: 1_000_000.0,
            ..ExperimentOpts::default()
        }
    }

    /// A fast setting for CI and smoke tests.
    pub fn quick() -> ExperimentOpts {
        ExperimentOpts {
            reps: 2,
            warmup: 500.0,
            duration: 8_000.0,
            ..ExperimentOpts::default()
        }
    }

    /// The fastest setting that still exercises every code path: one
    /// replication per point, minimal horizon. `--smoke` exists so CI can
    /// run every experiment end to end on every push without burning
    /// minutes on statistical quality.
    pub fn smoke() -> ExperimentOpts {
        ExperimentOpts {
            reps: 1,
            warmup: 200.0,
            duration: 1_500.0,
            ..ExperimentOpts::default()
        }
    }

    /// Parses a flag list, starting from the defaults. An unknown flag,
    /// a missing or unparsable value, or `--reps 0` is an error.
    pub fn parse(args: &[String]) -> Result<ExperimentOpts, String> {
        let mut opts = ExperimentOpts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_of = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--full" => {
                    let f = ExperimentOpts::full();
                    opts.reps = f.reps;
                    opts.warmup = f.warmup;
                    opts.duration = f.duration;
                }
                "--quick" => {
                    let q = ExperimentOpts::quick();
                    opts.reps = q.reps;
                    opts.warmup = q.warmup;
                    opts.duration = q.duration;
                }
                "--smoke" => {
                    let s = ExperimentOpts::smoke();
                    opts.reps = s.reps;
                    opts.warmup = s.warmup;
                    opts.duration = s.duration;
                }
                "--reps" => {
                    opts.reps = value_of("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?;
                }
                "--duration" => {
                    opts.duration = value_of("--duration")?
                        .parse()
                        .map_err(|e| format!("--duration: {e}"))?;
                }
                "--warmup" => {
                    opts.warmup = value_of("--warmup")?
                        .parse()
                        .map_err(|e| format!("--warmup: {e}"))?;
                }
                "--seed" => {
                    opts.seed = value_of("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--threads" => {
                    opts.threads = value_of("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--csv" => {
                    opts.csv_dir = Some(value_of("--csv")?.into());
                }
                "--order-fuzz" => {
                    opts.order_fuzz = value_of("--order-fuzz")?
                        .parse()
                        .map_err(|e| format!("--order-fuzz: {e}"))?;
                }
                "--screen" => {
                    opts.screen = true;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if opts.reps == 0 {
            return Err("--reps must be ≥ 1".to_string());
        }
        Ok(opts)
    }

    /// The per-run configuration implied by these options.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            warmup: self.warmup,
            duration: self.duration,
            seed: self.seed,
            order_fuzz: self.order_fuzz,
        }
    }
}

/// A point estimate with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointStat {
    /// Across-replication mean — or the closed-form analytic value for
    /// a screened point (see [`PointStat::is_screened`]).
    pub mean: f64,
    /// 95% CI half-width (infinite for a single replication; negative
    /// infinity marks an analytically screened point, which has no
    /// sampling error at all).
    pub half_width: f64,
}

impl PointStat {
    fn from_reps(reps: &sda_sim::stats::Replications) -> PointStat {
        match reps.confidence_interval() {
            Some(ci) => PointStat {
                mean: ci.mean,
                half_width: ci.half_width,
            },
            None => PointStat {
                mean: reps.mean(),
                half_width: f64::INFINITY,
            },
        }
    }

    /// An analytically screened point: `mean` is the closed-form
    /// prediction (possibly non-finite for metrics the predictor does
    /// not model), with no replications behind it.
    fn screened(mean: f64) -> PointStat {
        PointStat {
            mean,
            half_width: f64::NEG_INFINITY,
        }
    }

    /// Whether this point was analytically screened rather than
    /// simulated (`--screen`).
    pub fn is_screened(&self) -> bool {
        self.half_width == f64::NEG_INFINITY
    }
}

/// All the statistics collected at one (series, x) data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// `MD_local` in percent.
    pub md_local: PointStat,
    /// `MD_global` in percent.
    pub md_global: PointStat,
    /// Subtask-level virtual-deadline misses in percent.
    pub subtask_miss: PointStat,
    /// Mean node utilization.
    pub utilization: PointStat,
    /// Mean end-to-end global response time.
    pub global_response: PointStat,
    /// Mean local response time.
    pub local_response: PointStat,
    /// Mean hand-off transit time (0 under free communication).
    pub transit: PointStat,
    /// Mean jobs lost to node crashes per replication (locals dropped
    /// on a down node plus in-flight subtask copies). 0 with failures
    /// disabled.
    pub lost: PointStat,
}

/// Which metric of a [`CellStats`] to tabulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `MD_local` (%).
    MdLocal,
    /// `MD_global` (%).
    MdGlobal,
    /// Subtask virtual-deadline misses (%).
    SubtaskMiss,
    /// Mean node utilization.
    Utilization,
    /// Mean global response time.
    GlobalResponse,
    /// Mean local response time.
    LocalResponse,
    /// Mean hand-off transit time.
    Transit,
    /// Mean jobs lost to node crashes per replication.
    Lost,
}

impl Metric {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::MdLocal => "MD_local (%)",
            Metric::MdGlobal => "MD_global (%)",
            Metric::SubtaskMiss => "subtask virtual misses (%)",
            Metric::Utilization => "node utilization",
            Metric::GlobalResponse => "global response time",
            Metric::LocalResponse => "local response time",
            Metric::Transit => "hand-off transit time",
            Metric::Lost => "jobs lost to crashes",
        }
    }

    fn pick(&self, cell: &CellStats) -> PointStat {
        match self {
            Metric::MdLocal => cell.md_local,
            Metric::MdGlobal => cell.md_global,
            Metric::SubtaskMiss => cell.subtask_miss,
            Metric::Utilization => cell.utilization,
            Metric::GlobalResponse => cell.global_response,
            Metric::LocalResponse => cell.local_response,
            Metric::Transit => cell.transit,
            Metric::Lost => cell.lost,
        }
    }
}

/// One series of a sweep: a label plus a function building the
/// [`SystemConfig`] for each x value.
pub struct SeriesSpec {
    /// Display label (e.g. `"EQF"`, `"DIV-1"`).
    pub label: String,
    /// Builds the configuration at a given x.
    pub build: Box<dyn Fn(f64) -> SystemConfig + Send + Sync>,
}

impl SeriesSpec {
    /// Creates a series.
    pub fn new(
        label: impl Into<String>,
        build: impl Fn(f64) -> SystemConfig + Send + Sync + 'static,
    ) -> SeriesSpec {
        SeriesSpec {
            label: label.into(),
            build: Box::new(build),
        }
    }
}

/// The result grid of a sweep: `cells[series][x]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepData {
    /// Name of the experiment (used as the table title).
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// The x values.
    pub xs: Vec<f64>,
    /// Series labels, in order.
    pub series_labels: Vec<String>,
    /// `cells[series_index][x_index]`.
    pub cells: Vec<Vec<CellStats>>,
}

impl SweepData {
    /// Looks up a cell by series label and x value.
    pub fn cell(&self, label: &str, x: f64) -> Option<&CellStats> {
        let si = self.series_labels.iter().position(|l| l == label)?;
        let xi = self.xs.iter().position(|&v| (v - x).abs() < 1e-12)?;
        Some(&self.cells[si][xi])
    }

    /// Formats one metric as an aligned text table (x rows × series
    /// columns), the same layout as the paper's figures.
    pub fn table(&self, metric: Metric) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.title, metric.name()));
        out.push_str(&format!("{:>12}", self.x_label));
        for label in &self.series_labels {
            out.push_str(&format!("  {label:>16}"));
        }
        out.push('\n');
        for (xi, x) in self.xs.iter().enumerate() {
            out.push_str(&format!("{x:>12.3}"));
            for si in 0..self.series_labels.len() {
                let p = metric.pick(&self.cells[si][xi]);
                if p.is_screened() {
                    // Analytic value, marked; same 18-char column width.
                    if p.mean.is_finite() {
                        out.push_str(&format!("  {:>10.2} (scr)", p.mean));
                    } else {
                        out.push_str(&format!("  {:>16}", "(scr)"));
                    }
                } else if p.half_width.is_finite() {
                    out.push_str(&format!("  {:>9.2} ±{:>5.2}", p.mean, p.half_width));
                } else {
                    out.push_str(&format!("  {:>16.2}", p.mean));
                }
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering of one metric (for plotting).
    ///
    /// A single-replication point has no confidence interval; its
    /// half-width is `inf`, which most CSV readers reject as a number —
    /// such cells emit an *empty* half-width field instead. Analytically
    /// screened points (`--screen`) emit the closed-form value (empty if
    /// the predictor does not model this metric) with the literal marker
    /// `screened` in the half-width column.
    pub fn csv(&self, metric: Metric) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for label in &self.series_labels {
            out.push_str(&format!(",{label},{label}_hw"));
        }
        out.push('\n');
        for (xi, x) in self.xs.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for si in 0..self.series_labels.len() {
                let p = metric.pick(&self.cells[si][xi]);
                if p.is_screened() {
                    if p.mean.is_finite() {
                        out.push_str(&format!(",{},screened", p.mean));
                    } else {
                        out.push_str(",,screened");
                    }
                } else if p.half_width.is_finite() {
                    out.push_str(&format!(",{},{}", p.mean, p.half_width));
                } else {
                    out.push_str(&format!(",{},", p.mean));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Collapses a display string into a file-name slug: alphanumerics are
/// lowercased, every run of anything else becomes one `_`, and edge
/// underscores are trimmed.
fn slugify(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Prints the tables for `metrics` and, when `--csv DIR` was given,
/// writes one CSV file per metric into the directory (created if
/// missing). File names are derived from the sweep title.
pub fn emit(data: &SweepData, opts: &ExperimentOpts, metrics: &[Metric]) {
    for m in metrics {
        println!("{}", data.table(*m));
    }
    let Some(dir) = &opts.csv_dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    // Slug over the *whole* title: several sweeps of one experiment share
    // the prefix before the em-dash (e.g. "Ext — delay sensitivity" and
    // "Ext — heterogeneous node speeds"), and a prefix-only slug made
    // the second sweep overwrite the first's CSV files.
    let slug: String = slugify(&data.title);
    for m in metrics {
        let metric_slug = slugify(m.name());
        let path = dir.join(format!("{slug}_{metric_slug}.csv"));
        if let Err(e) = std::fs::write(&path, data.csv(*m)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Runs a full sweep: every `(series, x)` pair is an independent
/// replicated experiment; points are executed in parallel across worker
/// threads.
///
/// With [`ExperimentOpts::screen`] set, each point is first evaluated by
/// the closed-form predictor ([`sda_analytic::predict()`]); points whose
/// predicted miss ratio falls outside [`SCREEN_LO_PCT`]‥[`SCREEN_HI_PCT`]
/// are not simulated and carry the analytic value instead (marked via
/// [`PointStat::is_screened`]). Simulated points keep the exact seed
/// lineage of an unscreened run, so their cells are bit-identical.
///
/// # Errors
///
/// Returns the [`ConfigError`] of the first point whose configuration
/// fails validation, in deterministic point order (independent of
/// worker scheduling). `sda-exp` surfaces this as a one-line
/// `error: …` with exit status 1 instead of a panic backtrace.
pub fn run_sweep(
    title: &str,
    x_label: &str,
    xs: &[f64],
    series: &[SeriesSpec],
    opts: &ExperimentOpts,
) -> Result<SweepData, ConfigError> {
    struct Point {
        si: usize,
        xi: usize,
        config: SystemConfig,
    }
    let mut points = Vec::with_capacity(series.len() * xs.len());
    for (si, s) in series.iter().enumerate() {
        for (xi, &x) in xs.iter().enumerate() {
            points.push(Point {
                si,
                xi,
                config: (s.build)(x),
            });
        }
    }

    let base_run = opts.run_config();
    let results = parallel_map(points.len(), opts.threads, |i| {
        let p = &points[i];
        // Analytic screening: skip simulating points whose predicted miss
        // ratio is decisively outside the interesting band. The decision
        // is pure closed-form — it never consumes randomness — so the
        // seed lineage of every *simulated* point is identical to an
        // unscreened run and contested-region cells match bit for bit.
        if opts.screen {
            if let Ok(pred) = sda_analytic::predict(&p.config) {
                let miss = pred.screen_miss_pct();
                if !(SCREEN_LO_PCT..=SCREEN_HI_PCT).contains(&miss) {
                    return Ok(CellStats {
                        md_local: PointStat::screened(pred.local_miss_pct),
                        md_global: PointStat::screened(pred.global_miss_pct.unwrap_or(f64::NAN)),
                        subtask_miss: PointStat::screened(f64::NAN),
                        utilization: PointStat::screened(pred.mean_utilization),
                        global_response: PointStat::screened(
                            pred.global_response.unwrap_or(f64::NAN),
                        ),
                        local_response: PointStat::screened(pred.local_response),
                        transit: PointStat::screened(p.config.network.expected_hop_delay()),
                        lost: PointStat::screened(0.0),
                    });
                }
            }
            // Predictor out of scope (adaptive strategy, non-Poisson
            // arrivals, failures, …) → simulate.
        }
        // Give every point its own seed lineage so series/x points are
        // statistically independent.
        let run = RunConfig {
            seed: base_run
                .seed
                .wrapping_add((p.si as u64) << 32)
                .wrapping_add(p.xi as u64),
            ..base_run
        };
        // The sweep already saturates the cores with one worker per
        // point; run the replications serially inside each worker
        // instead of nesting a second thread pool (results are
        // thread-count-invariant either way).
        let rep = run_replications_with_threads(&p.config, &run, opts.reps, 1)?;
        Ok(CellStats {
            md_local: PointStat::from_reps(&rep.local_miss_pct),
            md_global: PointStat::from_reps(&rep.global_miss_pct),
            subtask_miss: PointStat::from_reps(&rep.subtask_miss_pct),
            utilization: PointStat::from_reps(&rep.utilization),
            global_response: PointStat::from_reps(&rep.global_response),
            local_response: PointStat::from_reps(&rep.local_response),
            transit: PointStat::from_reps(&rep.transit),
            lost: PointStat::from_reps(&rep.lost),
        })
    });

    // Surface the first failure in deterministic *point* order (not
    // completion order), so the reported error is scheduling-invariant.
    let mut cells = vec![vec![]; series.len()];
    for (p, cell) in points.iter().zip(results) {
        debug_assert_eq!(cells[p.si].len(), p.xi);
        cells[p.si].push(cell?);
    }
    Ok(SweepData {
        title: title.to_string(),
        x_label: x_label.to_string(),
        xs: xs.to_vec(),
        series_labels: series.iter().map(|s| s.label.clone()).collect(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::SdaStrategy;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            reps: 2,
            warmup: 100.0,
            duration: 1_500.0,
            seed: 9,
            threads: 2,
            csv_dir: None,
            order_fuzz: 0,
            screen: false,
        }
    }

    #[test]
    fn parse_flags() {
        let opts = ExperimentOpts::parse(&[
            "--reps".into(),
            "5".into(),
            "--duration".into(),
            "123.0".into(),
            "--seed".into(),
            "77".into(),
        ])
        .unwrap();
        assert_eq!(opts.reps, 5);
        assert_eq!(opts.duration, 123.0);
        assert_eq!(opts.seed, 77);
        assert!(ExperimentOpts::parse(&["--bogus".into()]).is_err());
        assert!(ExperimentOpts::parse(&["--reps".into()]).is_err());
        assert!(ExperimentOpts::parse(&["--reps".into(), "0".into()]).is_err());
        let full = ExperimentOpts::parse(&["--full".into()]).unwrap();
        assert_eq!(full.duration, 1_000_000.0);
        let smoke = ExperimentOpts::parse(&["--smoke".into()]).unwrap();
        assert_eq!(smoke.reps, 1);
        assert!(smoke.duration < ExperimentOpts::quick().duration);
        assert!(!smoke.screen);
        let screened = ExperimentOpts::parse(&["--screen".into()]).unwrap();
        assert!(screened.screen);
    }

    #[test]
    fn invalid_point_fails_the_sweep_with_its_config_error() {
        // A failing point must surface as the sweep's structured error,
        // never as a panicked worker thread. Two points fail here; the
        // reported one is the first in point order, whatever order the
        // workers finish in.
        let build = |load: f64| {
            let mut c = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            c.workload.load = load;
            c
        };
        let series = vec![SeriesSpec::new("EQF", build)];
        let err = run_sweep(
            "bad-load",
            "load",
            &[0.5, -0.25, -0.75],
            &series,
            &tiny_opts(),
        )
        .expect_err("a negative load fails validation");
        assert_eq!(
            err,
            ConfigError::OutOfRange {
                what: "load",
                constraint: "0 < load < 1",
                value: -0.25,
            }
        );
        assert!(
            err.to_string().contains("load"),
            "one-line message lost its context: {err}"
        );
    }

    #[test]
    fn screened_cells_render_with_marker() {
        let sim = PointStat {
            mean: 42.0,
            half_width: 1.5,
        };
        let cell = CellStats {
            md_local: PointStat::screened(3.25),
            md_global: PointStat::screened(f64::NAN),
            subtask_miss: sim,
            utilization: sim,
            global_response: sim,
            local_response: sim,
            transit: sim,
            lost: sim,
        };
        let data = SweepData {
            title: "screen-render".to_string(),
            x_label: "load".to_string(),
            xs: vec![0.5],
            series_labels: vec!["UD".to_string()],
            cells: vec![vec![cell]],
        };
        // Finite analytic value: emitted with the `screened` marker.
        assert_eq!(
            data.csv(Metric::MdLocal),
            "load,UD,UD_hw\n0.5,3.25,screened\n"
        );
        // Metric the predictor does not model: empty value, still marked.
        assert_eq!(data.csv(Metric::MdGlobal), "load,UD,UD_hw\n0.5,,screened\n");
        // Simulated metrics are untouched.
        assert_eq!(data.csv(Metric::Utilization), "load,UD,UD_hw\n0.5,42,1.5\n");
        // Table columns stay 18 characters wide in all three shapes.
        for (metric, needle) in [
            (Metric::MdLocal, "(scr)"),
            (Metric::MdGlobal, "(scr)"),
            (Metric::Utilization, "±"),
        ] {
            let table = data.table(metric);
            assert!(table.contains(needle), "{metric:?}: {table}");
        }
        let row = data.table(Metric::MdLocal);
        let line = row.lines().last().unwrap();
        assert_eq!(line.len(), 12 + 18, "column width changed: {line:?}");
    }

    #[test]
    fn sweep_produces_grid_and_tables() {
        let series = vec![
            SeriesSpec::new("UD", |load| {
                let mut c = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
                c.workload.load = load;
                c
            }),
            SeriesSpec::new("EQF", |load| {
                let mut c = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
                c.workload.load = load;
                c
            }),
        ];
        let data = run_sweep("smoke", "load", &[0.3, 0.5], &series, &tiny_opts()).unwrap();
        assert_eq!(data.cells.len(), 2);
        assert_eq!(data.cells[0].len(), 2);
        assert!(data.cell("UD", 0.5).is_some());
        assert!(data.cell("nope", 0.5).is_none());
        let table = data.table(Metric::MdGlobal);
        assert!(table.contains("MD_global"));
        assert!(table.contains("UD"));
        let csv = data.csv(Metric::MdLocal);
        assert!(csv.lines().count() == 3);
    }

    #[test]
    fn csv_emits_empty_half_width_for_single_replication() {
        // One replication → infinite half-width → the CSV cell must be
        // empty, not "inf" (which numeric CSV readers reject).
        let cell = CellStats {
            md_local: PointStat {
                mean: 12.5,
                half_width: f64::INFINITY,
            },
            md_global: PointStat {
                mean: 1.0,
                half_width: 0.5,
            },
            subtask_miss: PointStat {
                mean: 0.0,
                half_width: f64::INFINITY,
            },
            utilization: PointStat {
                mean: 0.5,
                half_width: 0.1,
            },
            global_response: PointStat {
                mean: 2.0,
                half_width: f64::INFINITY,
            },
            local_response: PointStat {
                mean: 1.0,
                half_width: 0.2,
            },
            transit: PointStat {
                mean: 0.0,
                half_width: f64::INFINITY,
            },
            lost: PointStat {
                mean: 0.0,
                half_width: f64::INFINITY,
            },
        };
        let data = SweepData {
            title: "single-rep".to_string(),
            x_label: "load".to_string(),
            xs: vec![0.5],
            series_labels: vec!["UD".to_string()],
            cells: vec![vec![cell]],
        };
        let csv = data.csv(Metric::MdLocal);
        assert_eq!(csv, "load,UD,UD_hw\n0.5,12.5,\n");
        assert!(!csv.contains("inf"));
        // Finite half-widths still round-trip.
        let csv = data.csv(Metric::MdGlobal);
        assert_eq!(csv, "load,UD,UD_hw\n0.5,1,0.5\n");
    }

    #[test]
    fn emit_writes_csv_files() {
        let series = vec![SeriesSpec::new("UD", |load| {
            let mut c = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
            c.workload.load = load;
            c
        })];
        #[expect(
            clippy::disallowed_methods,
            reason = "test scratch space, not simulation input"
        )]
        let dir = std::env::temp_dir().join(format!("sda-emit-test-{}", std::process::id()));
        let opts = ExperimentOpts {
            csv_dir: Some(dir.clone()),
            ..tiny_opts()
        };
        let data = run_sweep("CSV smoke — test", "load", &[0.3], &series, &opts).unwrap();
        emit(&data, &opts, &[Metric::MdGlobal]);
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("csv dir created")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert!(entries[0].ends_with(".csv"));
        let body = std::fs::read_to_string(dir.join(&entries[0])).unwrap();
        assert!(body.starts_with("load,UD,UD_hw"));
        assert_eq!(body.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slugs_distinguish_sweeps_sharing_a_prefix() {
        // Regression: the slug used to stop at the first em-dash, so
        // every "Ext — …" sweep of one experiment overwrote the previous
        // sweep's CSV files.
        let a = slugify("Ext — burstiness (MMPP arrivals, pipelines)");
        let b = slugify("Ext — overload transients (phased arrivals, pipelines)");
        assert_ne!(a, b);
        assert_eq!(a, "ext_burstiness_mmpp_arrivals_pipelines");
        assert_eq!(slugify("MD_global (%)"), "md_global");
        assert_eq!(slugify("  — "), "");
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let build = |load: f64| {
            let mut c = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
            c.workload.load = load;
            c
        };
        let mk = |threads| {
            let series = vec![SeriesSpec::new("UD", build)];
            let opts = ExperimentOpts {
                threads,
                ..tiny_opts()
            };
            run_sweep("det", "load", &[0.2, 0.4], &series, &opts)
        };
        let a = mk(1);
        let b = mk(4);
        assert_eq!(a, b, "thread count must not affect results");
    }
}
