//! §4.3 extension — varying the number of subtasks `m` of a global
//! task.
//!
//! "The EQF strategy is also superior when global tasks have many
//! subtasks \[6\]" — the UD/EQF gap should widen with `m`.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::{ConfigError, GlobalShape};

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Chain lengths to sweep.
pub const MS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 12.0];

/// Runs the subtask-count sweep at load 0.5: UD vs EQF.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy| {
        move |m: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.shape = GlobalShape::Serial { m: m as usize };
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(SerialStrategy::UltimateDeadline)),
        SeriesSpec::new("EQF", mk(SerialStrategy::EqualFlexibility)),
    ];
    run_sweep(
        "Ext — number of subtasks m (SSP, load 0.5)",
        "m",
        &MS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqf_advantage_grows_with_m() {
        let opts = ExperimentOpts {
            seed: 74,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let gap = |m: f64| {
            let ud = data.cell("UD", m).unwrap().md_global.mean;
            let eqf = data.cell("EQF", m).unwrap().md_global.mean;
            ud - eqf
        };
        // With a single stage the strategies coincide (UD = EQF when
        // m = 1: all slack to the only stage).
        assert!(
            gap(1.0).abs() < 3.0,
            "m=1 gap should vanish: {:.1}",
            gap(1.0)
        );
        // The gap at m = 8 clearly exceeds the m = 1 gap.
        assert!(
            gap(8.0) > gap(1.0) + 3.0,
            "gap should grow with m: m=1 → {:.1}, m=8 → {:.1}",
            gap(1.0),
            gap(8.0)
        );
    }
}
