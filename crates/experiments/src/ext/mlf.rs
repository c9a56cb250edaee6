//! §4.3 extension — minimum-laxity-first as the local scheduling
//! algorithm instead of EDF.
//!
//! Expected: the basic conclusions are unchanged — EQF still beats UD
//! for global tasks; MLF mostly reshuffles which *individual* jobs win.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_sched::Policy;
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep.
pub const LOADS: [f64; 3] = [0.3, 0.5, 0.7];

/// Runs the MLF sweep: UD and EQF under MLF, with EDF-EQF as reference.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy, policy: Policy| {
        move |load: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.load = load;
            cfg.policy = policy;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new(
            "UD/MLF",
            mk(SerialStrategy::UltimateDeadline, Policy::MinimumLaxityFirst),
        ),
        SeriesSpec::new(
            "EQF/MLF",
            mk(SerialStrategy::EqualFlexibility, Policy::MinimumLaxityFirst),
        ),
        SeriesSpec::new(
            "EQF/EDF",
            mk(
                SerialStrategy::EqualFlexibility,
                Policy::EarliestDeadlineFirst,
            ),
        ),
    ];
    run_sweep(
        "Ext — minimum-laxity-first local schedulers, SSP baseline",
        "load",
        &LOADS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqf_beats_ud_under_mlf_too() {
        let opts = ExperimentOpts {
            seed: 73,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let ud = data.cell("UD/MLF", 0.5).unwrap().md_global.mean;
        let eqf = data.cell("EQF/MLF", 0.5).unwrap().md_global.mean;
        assert!(eqf < ud, "EQF/MLF ({eqf:.1}%) must beat UD/MLF ({ud:.1}%)");
    }
}
