//! §4.3 extension — error in the execution-time predictions.
//!
//! `pex = ex · U[1−e, 1+e]` for error level `e`; UD (which ignores
//! predictions entirely) is the reference line. Expected: EQF/ED degrade
//! gracefully as `e` grows and still beat UD at full ±100% noise.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::{ConfigError, PexModel};

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Relative error half-widths, 0 (perfect) to 1 (±100%).
pub const ERRORS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Runs the prediction-error sweep at the SSP baseline load (0.5).
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy| {
        move |error: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.pex = if error == 0.0 {
                PexModel::Perfect
            } else {
                PexModel::Noisy { error }
            };
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(SerialStrategy::UltimateDeadline)),
        SeriesSpec::new("ED", mk(SerialStrategy::EffectiveDeadline)),
        SeriesSpec::new("EQF", mk(SerialStrategy::EqualFlexibility)),
    ];
    run_sweep(
        "Ext — prediction error pex = ex·U[1−e,1+e] (SSP baseline, load 0.5)",
        "error e",
        &ERRORS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqf_beats_ud_even_with_noisy_predictions() {
        let opts = ExperimentOpts {
            seed: 71,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        // UD ignores pex, so its curve is flat up to noise.
        let ud0 = data.cell("UD", 0.0).unwrap().md_global.mean;
        let ud1 = data.cell("UD", 1.0).unwrap().md_global.mean;
        assert!(
            (ud0 - ud1).abs() < 5.0,
            "UD should not react to prediction error: {ud0:.1} vs {ud1:.1}"
        );
        // EQF with ±100% noise still beats UD (the paper's conclusion
        // that results are robust to estimation error).
        let eqf1 = data.cell("EQF", 1.0).unwrap().md_global.mean;
        assert!(
            eqf1 < ud1,
            "noisy EQF ({eqf1:.1}%) should still beat UD ({ud1:.1}%)"
        );
    }
}
