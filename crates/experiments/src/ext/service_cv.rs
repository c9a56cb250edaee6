//! Beyond the paper — service-time variability.
//!
//! The paper's model is exponential-only (CV² = 1). This study sweeps
//! the squared coefficient of variation of *all* execution times from
//! deterministic (0) through Erlang (< 1), exponential (1) and lognormal
//! (> 1), plus a heavy-tailed Pareto variant, asking whether the
//! UD-vs-EQF conclusion is an artifact of exponential service.
//!
//! Expected: more variability hurts everyone (longer queueing tails),
//! but EQF's advantage persists at every CV² — its slack division
//! depends on predicted *means*, not on the distribution's shape.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::{ConfigError, ServiceVariability};

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// The CV² values swept (0 → deterministic, 0.25 → Erlang-4,
/// 1 → exponential, 4/16 → lognormal).
pub const CV2S: [f64; 5] = [0.0, 0.25, 1.0, 4.0, 16.0];

/// Runs the service-variability sweep at the SSP baseline load (0.5).
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy| {
        move |cv2: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.service = ServiceVariability::from_cv2(cv2);
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(SerialStrategy::UltimateDeadline)),
        SeriesSpec::new("EQF", mk(SerialStrategy::EqualFlexibility)),
    ];
    run_sweep(
        "Ext — service-time variability (CV² of all execution times), load 0.5",
        "CV²",
        &CV2S,
        &series,
        opts,
    )
}

/// Runs the heavy-tail (Pareto) variant: tail index sweep at load 0.5.
pub fn run_pareto(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy| {
        move |alpha: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.service = ServiceVariability::Pareto { alpha };
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(SerialStrategy::UltimateDeadline)),
        SeriesSpec::new("EQF", mk(SerialStrategy::EqualFlexibility)),
    ];
    run_sweep(
        "Ext — heavy-tailed (Pareto) execution times, load 0.5",
        "tail index α",
        &[1.5, 2.0, 2.5, 3.0],
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqf_advantage_survives_every_cv2() {
        let opts = ExperimentOpts {
            seed: 81,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        for &cv2 in &[0.25, 1.0, 4.0] {
            let ud = data.cell("UD", cv2).unwrap().md_global.mean;
            let eqf = data.cell("EQF", cv2).unwrap().md_global.mean;
            assert!(
                eqf < ud,
                "at CV²={cv2}, EQF ({eqf:.1}%) must beat UD ({ud:.1}%)"
            );
        }
        // More variability → more misses under either strategy.
        let low = data.cell("EQF", 0.0).unwrap().md_global.mean;
        let high = data.cell("EQF", 16.0).unwrap().md_global.mean;
        assert!(
            high > low,
            "higher CV² should hurt: {low:.1}% vs {high:.1}%"
        );
    }
}
