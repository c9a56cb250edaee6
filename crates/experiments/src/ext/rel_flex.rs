//! §4.3 extension — the slack-tightness sweep (`rel_flex`).
//!
//! "The EQF gains are more significant when there is *moderate* slack
//! and load. If slack is too tight … or too loose … the SSP policy
//! cannot make a difference; in the intermediate range EQF wins big."

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Relative flexibility of globals, tight to loose.
pub const REL_FLEX: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 4.0, 16.0];

/// Runs the rel_flex sweep at load 0.5: UD vs EQF.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy| {
        move |rel_flex: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.rel_flex = rel_flex;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(SerialStrategy::UltimateDeadline)),
        SeriesSpec::new("EQF", mk(SerialStrategy::EqualFlexibility)),
    ];
    run_sweep(
        "Ext — global slack tightness (rel_flex), SSP baseline, load 0.5",
        "rel_flex",
        &REL_FLEX,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqf_gain_peaks_at_moderate_slack() {
        let opts = ExperimentOpts {
            seed: 77,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let gain = |rf: f64| {
            data.cell("UD", rf).unwrap().md_global.mean
                - data.cell("EQF", rf).unwrap().md_global.mean
        };
        // Moderate slack gains exceed the very-loose-slack gains.
        assert!(
            gain(1.0) > gain(16.0),
            "moderate gain {:.1} should exceed loose gain {:.1}",
            gain(1.0),
            gain(16.0)
        );
        // Very loose slack: almost nothing to miss under either strategy.
        let eqf_loose = data.cell("EQF", 16.0).unwrap().md_global.mean;
        let ud_loose = data.cell("UD", 16.0).unwrap().md_global.mean;
        assert!(
            eqf_loose < 10.0 && ud_loose < 35.0,
            "loose slack should miss little: EQF {eqf_loose:.1}%, UD {ud_loose:.1}%"
        );
    }

    #[test]
    fn analytic_screen_skips_the_loose_slack_tail_bit_exactly() {
        // The slack-tightness grid spans predicted global miss ratios
        // from ~89% (rel_flex = 0.125) down to ~0.02% (rel_flex = 16):
        // with the [SCREEN_LO_PCT, SCREEN_HI_PCT] band the loose-slack
        // tail (rel_flex ∈ {4, 16}) is screened in both series while
        // the contested region is still simulated.
        let base = ExperimentOpts {
            reps: 2,
            seed: 31,
            ..ExperimentOpts::smoke()
        };
        let unscreened = run(&base).unwrap();
        let screened = run(&ExperimentOpts {
            screen: true,
            ..base
        })
        .unwrap();

        let mut n_screened = 0;
        let mut n_total = 0;
        for (si, label) in screened.series_labels.iter().enumerate() {
            for (xi, &rf) in screened.xs.iter().enumerate() {
                n_total += 1;
                let cell = &screened.cells[si][xi];
                if cell.md_global.is_screened() {
                    n_screened += 1;
                    // Every metric of a screened cell is marked.
                    assert!(cell.utilization.is_screened(), "{label} rf={rf}");
                    assert!(cell.md_local.is_screened(), "{label} rf={rf}");
                } else {
                    // Contested points keep the unscreened seed lineage,
                    // so the whole cell matches bit for bit.
                    assert_eq!(
                        cell, &unscreened.cells[si][xi],
                        "simulated cell diverged at {label} rf={rf}"
                    );
                }
            }
        }
        // The issue's acceptance bar: ≥ 25% of the default grid skipped
        // (here exactly the rel_flex ∈ {4, 16} tail of each series).
        assert!(
            n_screened * 4 >= n_total,
            "screened only {n_screened}/{n_total} points"
        );
        assert!(cellwise_screened(&screened, 4.0) && cellwise_screened(&screened, 16.0));
        // The CSV carries the literal marker for plotting scripts.
        let csv = screened.csv(crate::harness::Metric::MdGlobal);
        assert!(csv.contains(",screened"), "{csv}");
    }

    fn cellwise_screened(data: &SweepData, rf: f64) -> bool {
        ["UD", "EQF"]
            .iter()
            .all(|label| data.cell(label, rf).unwrap().md_global.is_screened())
    }
}
