//! Figure 2 — performance of the four SSP strategies in the baseline
//! experiment: (a) local tasks, (b) global tasks, as load varies from
//! 0.1 to 0.5.
//!
//! Expected shape (paper §4.2.1):
//! * (a) the SSP strategy barely affects local tasks (75% of contention
//!   is local–local);
//! * (b) at load 0.5 the ordering is UD ≫ ED ≳ EQS ≈ EQF, with the paper
//!   citing `MD_global(UD) ≈ 40%` vs `MD_local(UD) ≈ 24%`.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// The paper's x axis: load from 0.1 to 0.5.
pub const LOADS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Runs the Figure 2 sweep: all four SSP strategies over [`LOADS`].
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = SerialStrategy::ALL
        .iter()
        .map(|&s| {
            SeriesSpec::new(s.short_name(), move |load| {
                let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                    s,
                    ParallelStrategy::UltimateDeadline,
                ));
                cfg.workload.load = load;
                cfg
            })
        })
        .collect();
    run_sweep(
        "Fig 2 — SSP strategies, baseline (serial m=4, frac_local=0.75)",
        "load",
        &LOADS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Metric;

    #[test]
    fn fig2_shape_holds_at_reduced_scale() {
        let opts = ExperimentOpts {
            seed: 21,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        // (b): at load 0.5, EQF must beat UD for global tasks, clearly.
        let ud = data.cell("UD", 0.5).unwrap().md_global.mean;
        let eqf = data.cell("EQF", 0.5).unwrap().md_global.mean;
        assert!(
            eqf < ud,
            "EQF global miss ({eqf:.1}%) must beat UD ({ud:.1}%)"
        );
        // ED sits between UD and EQF (allow small statistical slop).
        let ed = data.cell("ED", 0.5).unwrap().md_global.mean;
        assert!(
            ed <= ud + 2.0 && ed + 2.0 >= eqf,
            "ED {ed:.1} between {eqf:.1} and {ud:.1}"
        );
        // (a): local misses barely depend on the strategy at load 0.5.
        let ud_l = data.cell("UD", 0.5).unwrap().md_local.mean;
        let eqf_l = data.cell("EQF", 0.5).unwrap().md_local.mean;
        assert!(
            (ud_l - eqf_l).abs() < 6.0,
            "local misses should be strategy-insensitive: {ud_l:.1} vs {eqf_l:.1}"
        );
        // Monotone-ish in load: higher load, more misses (every strategy).
        for label in ["UD", "EQF"] {
            let lo = data.cell(label, 0.1).unwrap().md_global.mean;
            let hi = data.cell(label, 0.5).unwrap().md_global.mean;
            assert!(hi > lo, "{label}: misses should grow with load");
        }
        let table = data.table(Metric::MdGlobal);
        assert!(table.contains("EQF"));
    }
}
