//! Figure 4 — performance of UD and DIV-x in the PSP baseline
//! experiment (parallel fans of 4 subtasks on distinct nodes, slack
//! `U[1.25, 5.0]` for both classes), plus the GF strategy §5.3 discusses.
//!
//! Expected shape (paper §5.3):
//! * under UD, global tasks miss ≈3× as often as locals;
//! * DIV-1 pulls the two classes together (mild local penalty);
//! * DIV-2 ≈ DIV-1 except at very high load;
//! * GF further reduces `MD_global` significantly, at local expense.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep; PSP effects dominate at mid-to-high load.
pub const LOADS: [f64; 5] = [0.2, 0.4, 0.6, 0.7, 0.8];

/// Runs the Figure 4 sweep: UD, DIV-1, DIV-2 and GF over [`LOADS`].
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |parallel: ParallelStrategy| {
        move |load: f64| {
            let mut cfg = SystemConfig::psp_baseline(SdaStrategy::new(
                SerialStrategy::UltimateDeadline,
                parallel,
            ));
            cfg.workload.load = load;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(ParallelStrategy::UltimateDeadline)),
        SeriesSpec::new("DIV-1", mk(ParallelStrategy::Div { x: 1.0 })),
        SeriesSpec::new("DIV-2", mk(ParallelStrategy::Div { x: 2.0 })),
        SeriesSpec::new("GF", mk(ParallelStrategy::GlobalsFirst)),
    ];
    run_sweep(
        "Fig 4 — PSP strategies, baseline (parallel m=4, slack U[1.25,5])",
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
    fn fig4_shape_holds_at_reduced_scale() {
        let opts = ExperimentOpts {
            seed: 41,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let at = |label: &str, load: f64| data.cell(label, load).unwrap();

        // UD: globals miss far more than locals at load 0.6.
        let ud = at("UD", 0.6);
        assert!(
            ud.md_global.mean > 1.8 * ud.md_local.mean,
            "UD global ({:.1}%) should be ≫ local ({:.1}%)",
            ud.md_global.mean,
            ud.md_local.mean
        );
        // DIV-1 narrows the gap.
        let div1 = at("DIV-1", 0.6);
        let ud_gap = ud.md_global.mean - ud.md_local.mean;
        let div1_gap = (div1.md_global.mean - div1.md_local.mean).abs();
        assert!(
            div1_gap < ud_gap,
            "DIV-1 gap {div1_gap:.1} should be below UD gap {ud_gap:.1}"
        );
        // DIV-1 reduces global misses vs UD.
        assert!(div1.md_global.mean < ud.md_global.mean);
        // GF reduces MD_global below DIV-1.
        let gf = at("GF", 0.6);
        assert!(
            gf.md_global.mean < div1.md_global.mean + 1.0,
            "GF ({:.1}%) should be at or below DIV-1 ({:.1}%)",
            gf.md_global.mean,
            div1.md_global.mean
        );
        // GF costs locals something.
        assert!(gf.md_local.mean >= ud.md_local.mean - 1.0);
    }
}
