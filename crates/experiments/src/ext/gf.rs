//! §5.3/ref.\[7\] — the Globals First deep dive.
//!
//! GF is "most outstanding under high load … and when there is a
//! nontrivial population of local tasks": sweep `frac_local` at load
//! 0.7 and compare UD, DIV-1 and GF on both classes.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Fraction-of-local sweep.
pub const FRACS: [f64; 4] = [0.25, 0.5, 0.75, 0.9];

/// Load at which the sweep runs.
pub const LOAD: f64 = 0.7;

/// Runs the GF study on the PSP baseline.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |parallel: ParallelStrategy| {
        move |frac: f64| {
            let mut cfg = SystemConfig::psp_baseline(SdaStrategy::new(
                SerialStrategy::UltimateDeadline,
                parallel,
            ));
            cfg.workload.load = LOAD;
            cfg.workload.frac_local = frac;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(ParallelStrategy::UltimateDeadline)),
        SeriesSpec::new("DIV-1", mk(ParallelStrategy::Div { x: 1.0 })),
        SeriesSpec::new("GF", mk(ParallelStrategy::GlobalsFirst)),
    ];
    run_sweep(
        "Ext — Globals First vs DIV-1 vs UD across frac_local (PSP, load 0.7)",
        "frac_local",
        &FRACS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_shines_with_many_locals() {
        let opts = ExperimentOpts {
            seed: 79,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let gf = data.cell("GF", 0.9).unwrap();
        let ud = data.cell("UD", 0.9).unwrap();
        assert!(
            gf.md_global.mean < ud.md_global.mean,
            "GF ({:.1}%) must beat UD ({:.1}%) for globals",
            gf.md_global.mean,
            ud.md_global.mean
        );
        // GF taxes the locals relative to UD.
        assert!(
            gf.md_local.mean + 0.5 >= ud.md_local.mean,
            "GF locals ({:.1}%) should not beat UD locals ({:.1}%)",
            gf.md_local.mean,
            ud.md_local.mean
        );
    }
}
