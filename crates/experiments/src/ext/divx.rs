//! §5.3/ref.\[7\] — how to set the `x` of DIV-x.
//!
//! Expected: `MD_global` drops steeply from UD (x→0 behaves like UD) to
//! DIV-1, then flattens — "the difference between DIV-1 and DIV-2 is
//! hardly noticeable, except at very high load"; larger x keeps taxing
//! the locals.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// The x values to sweep (UD is shown as the x = 0.125 asymptote
/// separately).
pub const XS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Load at which the sweep runs (high enough for PSP effects to bite).
pub const LOAD: f64 = 0.7;

/// Runs the DIV-x parameter sweep on the PSP baseline.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series = vec![SeriesSpec::new("DIV-x", |x: f64| {
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::Div { x },
        ));
        cfg.workload.load = LOAD;
        cfg
    })];
    run_sweep(
        "Ext — DIV-x parameter sweep (PSP baseline, load 0.7)",
        "x",
        &XS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_diminish_beyond_x_equals_one() {
        let opts = ExperimentOpts {
            seed: 78,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let md = |x: f64| data.cell("DIV-x", x).unwrap().md_global.mean;
        // Going from 0.25 to 1 helps a lot…
        assert!(
            md(0.25) > md(1.0),
            "x=0.25 ({:.1}%) should be worse than x=1 ({:.1}%)",
            md(0.25),
            md(1.0)
        );
        // …while 1 → 2 changes little (paper: "hardly noticeable").
        let step_small = (md(1.0) - md(2.0)).abs();
        let step_big = md(0.25) - md(1.0);
        assert!(
            step_small < step_big,
            "x 1→2 step {step_small:.1} should be smaller than 0.25→1 step {step_big:.1}"
        );
    }
}
