//! Within-run output analysis: one long run cut into batches.
//!
//! The paper's two 10⁶-unit runs per point are classic single-long-run
//! methodology; this module provides the matching batch-means analysis
//! as an alternative to independent replications
//! ([`run_replications`](crate::run_replications)): the measured window
//! is cut into `B` contiguous batches, each batch's miss percentage is
//! one (approximately independent) observation, and a Student-t interval
//! is formed over the batch values.

use serde::{Deserialize, Serialize};

use sda_sim::rng::RngFactory;
use sda_sim::stats::{ConfidenceInterval, Tally};
use sda_sim::{Engine, SimTime};
use sda_workload::ConfigError;

use crate::config::SystemConfig;
use crate::model::{Event, SystemModel};
use crate::runner::RunConfig;

/// Batch-means estimates from one long run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchedResult {
    /// Per-batch `MD_local` percentages.
    pub local_batches: Vec<f64>,
    /// Per-batch `MD_global` percentages.
    pub global_batches: Vec<f64>,
    /// 95% CI over the local batch means (`None` with < 2 usable
    /// batches).
    pub local_ci: Option<ConfidenceInterval>,
    /// 95% CI over the global batch means.
    pub global_ci: Option<ConfidenceInterval>,
}

fn ci_over(batches: &[f64]) -> Option<ConfidenceInterval> {
    if batches.len() < 2 {
        return None;
    }
    let t: Tally = batches.iter().copied().collect();
    Some(ConfidenceInterval::from_moments(
        t.mean(),
        t.std_dev(),
        t.count(),
    ))
}

/// Runs one long simulation of `run.duration` (after warm-up) and
/// analyses it as `num_batches` contiguous batches.
///
/// Batches in which a class completed no tasks contribute no observation
/// for that class (relevant only at extreme `frac_local` values).
///
/// # Errors
///
/// Returns [`ConfigError`] for an invalid run length
/// ([`RunConfig::validate`]) or invalid workload parameters.
///
/// # Panics
///
/// Panics if `num_batches == 0`.
pub fn run_batch_means(
    config: &SystemConfig,
    run: &RunConfig,
    num_batches: usize,
) -> Result<BatchedResult, ConfigError> {
    assert!(num_batches > 0, "need at least one batch");
    run.validate()?;
    let rng = RngFactory::new(run.seed);
    let model = SystemModel::new(config.clone(), &rng)?;
    let mut engine = Engine::new(model);
    engine.context_mut().schedule_at(
        SimTime::ZERO,
        Event::Init {
            warmup_end: run.warmup,
        },
    );
    engine.run_until(SimTime::from(run.warmup));

    let mut local_batches = Vec::with_capacity(num_batches);
    let mut global_batches = Vec::with_capacity(num_batches);
    let (mut l_hits, mut l_total) = (0u64, 0u64);
    let (mut g_hits, mut g_total) = (0u64, 0u64);
    let batch_len = run.duration / num_batches as f64;
    for b in 0..num_batches {
        let horizon = SimTime::from(run.warmup + batch_len * (b + 1) as f64);
        engine.run_until(horizon);
        let m = engine.model().metrics();
        let (lh, lt) = (m.local.missed(), m.local.completed());
        let (gh, gt) = (m.global.missed(), m.global.completed());
        if lt > l_total {
            local_batches.push(100.0 * (lh - l_hits) as f64 / (lt - l_total) as f64);
        }
        if gt > g_total {
            global_batches.push(100.0 * (gh - g_hits) as f64 / (gt - g_total) as f64);
        }
        (l_hits, l_total, g_hits, g_total) = (lh, lt, gh, gt);
    }

    Ok(BatchedResult {
        local_ci: ci_over(&local_batches),
        global_ci: ci_over(&global_batches),
        local_batches,
        global_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_replications, RunConfig};
    use sda_core::SdaStrategy;

    #[test]
    fn batches_partition_the_run() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = RunConfig {
            warmup: 500.0,
            duration: 20_000.0,
            seed: 5,
            order_fuzz: 0,
        };
        let res = run_batch_means(&cfg, &run, 10).unwrap();
        assert_eq!(res.local_batches.len(), 10);
        assert_eq!(res.global_batches.len(), 10);
        assert!(res.local_ci.is_some());
        for &b in res.local_batches.iter().chain(&res.global_batches) {
            assert!((0.0..=100.0).contains(&b));
        }
    }

    #[test]
    fn batch_means_agree_with_replications() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        let run = RunConfig {
            warmup: 1_000.0,
            duration: 40_000.0,
            seed: 6,
            order_fuzz: 0,
        };
        let bm = run_batch_means(&cfg, &run, 16).unwrap();
        let reps = run_replications(&cfg, &run, 3).unwrap();
        let bm_mean = bm.global_ci.unwrap().mean;
        let rep_mean = reps.md_global();
        assert!(
            (bm_mean - rep_mean).abs() < 5.0,
            "batch-means {bm_mean:.1}% vs replications {rep_mean:.1}%"
        );
    }

    #[test]
    fn single_class_workload_yields_one_empty_series() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.workload.frac_local = 1.0;
        let run = RunConfig {
            warmup: 200.0,
            duration: 5_000.0,
            seed: 7,
            order_fuzz: 0,
        };
        let res = run_batch_means(&cfg, &run, 5).unwrap();
        assert!(res.global_batches.is_empty());
        assert!(res.global_ci.is_none());
        assert_eq!(res.local_batches.len(), 5);
    }

    #[test]
    fn degenerate_run_length_is_rejected() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        let run = RunConfig {
            duration: f64::NAN,
            ..RunConfig::quick(1)
        };
        assert!(matches!(
            run_batch_means(&cfg, &run, 4),
            Err(ConfigError::OutOfRange {
                what: "duration",
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn zero_batches_panics() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        let _ = run_batch_means(&cfg, &RunConfig::quick(1), 0);
    }
}
