//! §4.3 extension — global tasks with *different* numbers of subtasks
//! (`m ~ U{1..8}` vs the fixed `m = 4` baseline).
//!
//! Expected: conclusions unchanged; EQF handles mixed task sizes as
//! well as homogeneous ones since it divides each task's own slack.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::{ConfigError, GlobalShape};

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep.
pub const LOADS: [f64; 3] = [0.3, 0.5, 0.7];

/// Runs the heterogeneous-m sweep: UD and EQF with `m ~ U{1..8}`.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy, shape: GlobalShape| {
        move |load: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.load = load;
            cfg.workload.shape = shape;
            cfg
        }
    };
    let mixed = GlobalShape::SerialRandomM { min_m: 1, max_m: 8 };
    let series = vec![
        SeriesSpec::new("UD m~U{1..8}", mk(SerialStrategy::UltimateDeadline, mixed)),
        SeriesSpec::new("EQF m~U{1..8}", mk(SerialStrategy::EqualFlexibility, mixed)),
        SeriesSpec::new(
            "EQF m=4",
            mk(
                SerialStrategy::EqualFlexibility,
                GlobalShape::Serial { m: 4 },
            ),
        ),
    ];
    run_sweep(
        "Ext — heterogeneous subtask counts (m ~ U{1..8})",
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
    fn eqf_still_wins_with_mixed_sizes() {
        let opts = ExperimentOpts {
            seed: 75,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let ud = data.cell("UD m~U{1..8}", 0.5).unwrap().md_global.mean;
        let eqf = data.cell("EQF m~U{1..8}", 0.5).unwrap().md_global.mean;
        assert!(eqf < ud, "EQF ({eqf:.1}%) must beat UD ({ud:.1}%)");
    }
}
