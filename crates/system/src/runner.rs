//! Single-run and replicated-run harnesses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use sda_sim::rng::RngFactory;
use sda_sim::stats::Replications;
use sda_sim::{Engine, SimTime};
use sda_workload::ConfigError;

use crate::config::SystemConfig;
use crate::metrics::Metrics;
use crate::model::{Event, SystemModel};

/// Run-length parameters for one simulation run.
///
/// The paper uses runs of 10⁶ time units after warm-up with at least 10⁵
/// tasks each; the default here is a faster setting suitable for tests
/// and quick sweeps. Scale `duration` up (and add replications) for
/// paper-grade confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Warm-up transient discarded before statistics collection.
    pub warmup: f64,
    /// Measured duration after warm-up.
    pub duration: f64,
    /// Master seed; every RNG stream derives from it.
    pub seed: u64,
    /// Seed for the deterministic same-timestamp order permutation
    /// (see [`sda_sim::Context::set_order_fuzz`]); `0` (the default)
    /// keeps exact FIFO order. Any non-zero seed is an equally valid
    /// tie-break, so metrics that survive a set of fuzz seeds do not
    /// lean on accidental event ordering.
    #[serde(default)]
    pub order_fuzz: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 1_000.0,
            duration: 50_000.0,
            seed: 0x5DA_5EED,
            order_fuzz: 0,
        }
    }
}

impl RunConfig {
    /// A quick setting for CI and smoke tests.
    pub fn quick(seed: u64) -> RunConfig {
        RunConfig {
            warmup: 500.0,
            duration: 10_000.0,
            seed,
            order_fuzz: 0,
        }
    }

    /// Checks the run length: `warmup` finite and ≥ 0, `duration`
    /// finite and > 0. A NaN horizon would never end the run, and an
    /// empty or negative window would report the warm-up transient (or
    /// nothing) as results.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] naming the first bad field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.warmup.is_finite() && self.warmup >= 0.0) {
            return Err(ConfigError::OutOfRange {
                what: "warmup",
                constraint: "finite and ≥ 0",
                value: self.warmup,
            });
        }
        if !(self.duration.is_finite() && self.duration > 0.0) {
            return Err(ConfigError::OutOfRange {
                what: "duration",
                constraint: "finite and > 0",
                value: self.duration,
            });
        }
        Ok(())
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Task-level metrics (post-warm-up).
    pub metrics: Metrics,
    /// Post-warm-up time-average utilization per node.
    pub node_utilization: Vec<f64>,
    /// Post-warm-up time-average ready-queue length per node.
    pub node_queue_length: Vec<f64>,
    /// Clock value at the end of the run.
    pub end_time: f64,
    /// Events handled.
    pub events: u64,
}

impl RunResult {
    /// Mean utilization across nodes.
    pub fn mean_utilization(&self) -> f64 {
        if self.node_utilization.is_empty() {
            0.0
        } else {
            self.node_utilization.iter().sum::<f64>() / self.node_utilization.len() as f64
        }
    }
}

/// Runs the model once.
///
/// # Errors
///
/// Returns [`ConfigError`] for an invalid run length
/// ([`RunConfig::validate`]) or invalid workload parameters.
pub fn run_once(config: &SystemConfig, run: &RunConfig) -> Result<RunResult, ConfigError> {
    run.validate()?;
    let rng = RngFactory::new(run.seed);
    let model = SystemModel::new(config.clone(), &rng)?;
    let mut engine = Engine::new(model);
    engine.context_mut().set_order_fuzz(run.order_fuzz);
    engine.context_mut().schedule_at(
        SimTime::ZERO,
        Event::Init {
            warmup_end: run.warmup,
        },
    );
    let horizon = SimTime::from(run.warmup + run.duration);
    let report = engine.run_until(horizon);
    let model = engine.model();
    Ok(RunResult {
        metrics: model.metrics().clone(),
        node_utilization: model
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .collect(),
        node_queue_length: model
            .nodes()
            .iter()
            .map(|n| n.mean_queue_length(horizon))
            .collect(),
        end_time: report.end_time.as_f64(),
        events: report.events,
    })
}

/// Runs the model once; `shards` is ignored, so this is exactly
/// [`run_once`].
///
/// The function exists only because the `sdabench` benchmark links it;
/// a later change to the benchmark removes it.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_once_sharded(
    config: &SystemConfig,
    run: &RunConfig,
    _shards: usize,
) -> Result<RunResult, ConfigError> {
    run_once(config, run)
}

/// Summary statistics across independent replications (different seeds,
/// same configuration), as the paper's two-run-per-point methodology —
/// generalized to any replication count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedResult {
    /// `MD_local` (%) per replication.
    pub local_miss_pct: Replications,
    /// `MD_global` (%) per replication.
    pub global_miss_pct: Replications,
    /// Subtask-level virtual-deadline miss (%) per replication.
    pub subtask_miss_pct: Replications,
    /// Mean local response time per replication.
    pub local_response: Replications,
    /// Mean global (end-to-end) response time per replication.
    pub global_response: Replications,
    /// Mean node utilization per replication.
    pub utilization: Replications,
    /// Mean hand-off transit time per replication (0 under
    /// [`NetworkModel::Zero`](crate::NetworkModel::Zero), where no
    /// transit is observed).
    pub transit: Replications,
    /// Work lost to node failures per replication: lost local tasks
    /// plus lost global-subtask copies (0 with failures disabled).
    pub lost: Replications,
    /// The individual runs, for deeper inspection.
    pub runs: Vec<RunResult>,
}

impl ReplicatedResult {
    /// Point estimate of `MD_local` in percent.
    pub fn md_local(&self) -> f64 {
        self.local_miss_pct.mean()
    }

    /// Point estimate of `MD_global` in percent.
    pub fn md_global(&self) -> f64 {
        self.global_miss_pct.mean()
    }
}

/// Runs `replications` independent runs, deriving per-replication seeds
/// from `base.seed`, in parallel across the machine's cores.
///
/// Equivalent to [`run_replications_with_threads`] with `threads = 0`
/// (one worker per available core, capped at the replication count).
/// Results are bit-identical regardless of worker count: each
/// replication's seed lineage depends only on its index, and results
/// are folded in index order.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_replications(
    config: &SystemConfig,
    base: &RunConfig,
    replications: usize,
) -> Result<ReplicatedResult, ConfigError> {
    run_replications_with_threads(config, base, replications, 0)
}

/// The per-replication seed: a pure function of the base seed and the
/// replication index, so execution order and thread count cannot change
/// any run's random streams.
fn replication_seed(base_seed: u64, index: usize) -> u64 {
    RngFactory::new(base_seed)
        .subfactory(index as u64)
        .master_seed()
}

/// [`run_replications`] with an explicit worker count (`0` = all cores).
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_replications_with_threads(
    config: &SystemConfig,
    base: &RunConfig,
    replications: usize,
    threads: usize,
) -> Result<ReplicatedResult, ConfigError> {
    let runs = parallel_map(replications, threads, |r| {
        let run_cfg = RunConfig {
            seed: replication_seed(base.seed, r),
            ..*base
        };
        run_once(config, &run_cfg)
    });
    fold_runs(runs)
}

/// Maps `f` over `0..n` on up to `threads` scoped workers (`0` = one
/// per available core) and returns the results in index order, so the
/// output does not depend on the worker count or on scheduling. With one
/// worker, `f` runs inline on the calling thread.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                results.lock().expect("no poisoned lock")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("no poisoned lock")
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// Folds per-replication results in replication-index order, so the
/// aggregate statistics are independent of completion order.
fn fold_runs(runs: Vec<Result<RunResult, ConfigError>>) -> Result<ReplicatedResult, ConfigError> {
    let mut result = ReplicatedResult {
        local_miss_pct: Replications::new(),
        global_miss_pct: Replications::new(),
        subtask_miss_pct: Replications::new(),
        local_response: Replications::new(),
        global_response: Replications::new(),
        utilization: Replications::new(),
        transit: Replications::new(),
        lost: Replications::new(),
        runs: Vec::with_capacity(runs.len()),
    };
    for run in runs {
        let run = run?;
        result.local_miss_pct.add(run.metrics.local.miss_percent());
        result
            .global_miss_pct
            .add(run.metrics.global.miss_percent());
        result
            .subtask_miss_pct
            .add(run.metrics.subtask_virtual_miss.percent());
        result
            .local_response
            .add(run.metrics.local.response().mean());
        result
            .global_response
            .add(run.metrics.global.response().mean());
        result.utilization.add(run.mean_utilization());
        result.transit.add(run.metrics.transit.mean());
        result
            .lost
            .add((run.metrics.lost_locals + run.metrics.lost_subtasks) as f64);
        result.runs.push(run);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::SdaStrategy;

    #[test]
    fn run_once_reports_sane_results() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = run_once(&cfg, &RunConfig::quick(1)).unwrap();
        assert!(run.metrics.local.completed() > 1_000);
        assert!(run.metrics.global.completed() > 100);
        assert_eq!(run.node_utilization.len(), 6);
        assert!(run.mean_utilization() > 0.3 && run.mean_utilization() < 0.7);
        assert!(run.events > 0);
        assert!((run.end_time - 10_500.0).abs() < 1e-9);
    }

    /// `run_once` on the baseline with this run length must fail with
    /// `message` (an `OutOfRange` rendering).
    fn assert_rejected(warmup: f64, duration: f64, message: &str) {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = RunConfig {
            warmup,
            duration,
            ..RunConfig::quick(1)
        };
        let err = run_once(&cfg, &run).expect_err("degenerate run length");
        assert!(matches!(err, ConfigError::OutOfRange { .. }), "{err:?}");
        assert_eq!(err.to_string(), message);
    }

    #[test]
    fn nan_warmup_is_rejected_instead_of_never_ending() {
        assert_rejected(
            f64::NAN,
            1_500.0,
            "warmup must satisfy finite and ≥ 0, got NaN",
        );
    }

    #[test]
    fn nan_duration_is_rejected_instead_of_never_ending() {
        assert_rejected(
            200.0,
            f64::NAN,
            "duration must satisfy finite and > 0, got NaN",
        );
    }

    #[test]
    fn negative_duration_is_rejected_instead_of_reporting_the_warmup() {
        assert_rejected(200.0, -1.0, "duration must satisfy finite and > 0, got -1");
    }

    #[test]
    fn zero_duration_is_rejected() {
        assert_rejected(200.0, 0.0, "duration must satisfy finite and > 0, got 0");
    }

    #[test]
    fn negative_or_infinite_run_lengths_are_rejected() {
        assert_rejected(-1.0, 1_500.0, "warmup must satisfy finite and ≥ 0, got -1");
        assert_rejected(
            f64::INFINITY,
            1_500.0,
            "warmup must satisfy finite and ≥ 0, got inf",
        );
        assert_rejected(
            200.0,
            f64::INFINITY,
            "duration must satisfy finite and > 0, got inf",
        );
        let zero_warmup = RunConfig {
            warmup: 0.0,
            ..RunConfig::quick(1)
        };
        assert_eq!(zero_warmup.validate(), Ok(()));
    }

    #[test]
    fn replications_differ_but_are_deterministic() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        let base = RunConfig::quick(7);
        let a = run_replications(&cfg, &base, 3).unwrap();
        let b = run_replications(&cfg, &base, 3).unwrap();
        assert_eq!(a.local_miss_pct.values(), b.local_miss_pct.values());
        // Replications must actually differ from each other.
        let vals = a.global_miss_pct.values();
        assert!(vals.windows(2).any(|w| w[0] != w[1]), "{vals:?}");
        assert!(a.global_miss_pct.confidence_interval().is_some());
    }

    #[test]
    fn replications_are_deterministic_across_thread_counts() {
        // Mirrors the experiment harness's
        // `sweep_is_deterministic_across_thread_counts`: worker count
        // must not change any statistic bit.
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let base = RunConfig {
            warmup: 200.0,
            duration: 2_500.0,
            seed: 11,
            order_fuzz: 0,
        };
        let serial = run_replications_with_threads(&cfg, &base, 4, 1).unwrap();
        let par2 = run_replications_with_threads(&cfg, &base, 4, 2).unwrap();
        let par4 = run_replications_with_threads(&cfg, &base, 4, 4).unwrap();
        assert_eq!(serial, par2, "1 vs 2 workers");
        assert_eq!(serial, par4, "1 vs 4 workers");
        // And the default (all cores) matches too.
        let auto = run_replications(&cfg, &base, 4).unwrap();
        assert_eq!(serial, auto, "1 worker vs default");
    }

    #[test]
    fn md_accessors_match_means() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let res = run_replications(&cfg, &RunConfig::quick(3), 2).unwrap();
        assert_eq!(res.md_local(), res.local_miss_pct.mean());
        assert_eq!(res.md_global(), res.global_miss_pct.mean());
        assert_eq!(res.runs.len(), 2);
    }

    #[test]
    fn utilization_spread_tracks_speed_skew() {
        let spread = |r: &RunResult| {
            let max = r.node_utilization.iter().copied().fold(f64::MIN, f64::max);
            let min = r.node_utilization.iter().copied().fold(f64::MAX, f64::min);
            max - min
        };
        let base = RunConfig::quick(9);
        let balanced = run_once(&SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), &base).unwrap();
        let mut skewed_cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        skewed_cfg.workload.node_speeds = Some(vec![0.6, 0.8, 1.0, 1.0, 1.2, 1.4]);
        let skewed = run_once(&skewed_cfg, &base).unwrap();
        assert!(
            spread(&skewed) > spread(&balanced) + 0.1,
            "skewed spread {} must exceed balanced {}",
            spread(&skewed),
            spread(&balanced)
        );
        // Degenerate inputs stay well-defined.
        let empty = RunResult {
            metrics: crate::Metrics::new(),
            node_utilization: vec![],
            node_queue_length: vec![],
            end_time: 0.0,
            events: 0,
        };
        assert_eq!(empty.mean_utilization(), 0.0);
    }

    #[test]
    fn default_run_config_is_reasonable() {
        let d = RunConfig::default();
        assert!(d.warmup > 0.0 && d.duration > d.warmup);
    }
}
