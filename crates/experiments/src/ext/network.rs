//! Beyond the paper — heterogeneous nodes and communication delays.
//!
//! The paper's model assumes homogeneous nodes and free communication
//! (§3.2) and names both as the obvious generalizations. This experiment
//! opens that axis on the §6 serial-parallel workload (2-stage × 3-branch
//! pipelines, where both strategy families engage):
//!
//! * **delay sensitivity** — `MD` vs the mean of an exponential per-hop
//!   message delay, for the cross product {UD, EQS, EQF} × {DIV-1, GF}.
//!   Slack-dividing serial strategies reserve slack for expected transit
//!   (see `SspInput::comm_after`), so their advantage over UD should
//!   survive — and widen — as delay grows;
//! * **speed skew** — `MD` vs a linear per-node speed ramp `1 ± s`
//!   (mean speed exactly 1, so offered work is unchanged while per-node
//!   utilization spreads apart).

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::{NetworkModel, SystemConfig};
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Mean per-hop delays swept (0 = the paper's free communication, via
/// `NetworkModel::Zero`), in units of the mean subtask service time.
pub const DELAYS: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 1.0];

/// Speed-skew factors swept: node `i` of `k` runs at
/// `1 + s·(2i/(k−1) − 1)`, i.e. a ramp from `1 − s` to `1 + s`.
pub const SKEWS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// The strategy grid: {UD, EQS, EQF} serial × {DIV-1, GF} parallel.
fn strategy_grid() -> Vec<(String, SdaStrategy)> {
    let serials = [
        SerialStrategy::UltimateDeadline,
        SerialStrategy::EqualSlack,
        SerialStrategy::EqualFlexibility,
    ];
    let parallels = [
        ParallelStrategy::div(1.0).expect("1.0 is valid"),
        ParallelStrategy::GlobalsFirst,
    ];
    let mut grid = Vec::new();
    for serial in serials {
        for parallel in parallels {
            let s = SdaStrategy::new(serial, parallel);
            grid.push((format!("{serial}/{parallel}"), s));
        }
    }
    grid
}

/// The linear speed ramp for skew `s` over `k` nodes (mean exactly 1).
pub fn speed_ramp(k: usize, s: f64) -> Vec<f64> {
    if k == 1 {
        return vec![1.0];
    }
    (0..k)
        .map(|i| 1.0 + s * (2.0 * i as f64 / (k - 1) as f64 - 1.0))
        .collect()
}

/// Delay-sensitivity sweep: `MD` vs mean exponential hop delay.
pub fn delay_sensitivity(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |mean_delay: f64| {
                let mut cfg = SystemConfig::combined_baseline(strategy);
                cfg.network = if mean_delay > 0.0 {
                    NetworkModel::Exponential { mean: mean_delay }
                } else {
                    NetworkModel::Zero
                };
                cfg
            })
        })
        .collect();
    run_sweep(
        "Ext — delay sensitivity (pipelines, exponential hop delay)",
        "mean delay",
        &DELAYS,
        &series,
        opts,
    )
}

/// Heterogeneity sweep: `MD` vs node speed skew.
pub fn speed_skew(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |skew: f64| {
                let mut cfg = SystemConfig::combined_baseline(strategy);
                let k = cfg.workload.nodes;
                cfg.workload.node_speeds = if skew > 0.0 {
                    Some(speed_ramp(k, skew))
                } else {
                    None
                };
                cfg
            })
        })
        .collect();
    run_sweep(
        "Ext — heterogeneous node speeds (pipelines, linear ramp)",
        "speed skew",
        &SKEWS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> ExperimentOpts {
        ExperimentOpts {
            seed,
            ..ExperimentOpts::quick()
        }
    }

    #[test]
    fn speed_ramp_has_unit_mean_and_full_spread() {
        for k in [2, 3, 6, 10] {
            for s in [0.0, 0.3, 0.75] {
                let ramp = speed_ramp(k, s);
                assert_eq!(ramp.len(), k);
                let mean = ramp.iter().sum::<f64>() / k as f64;
                assert!((mean - 1.0).abs() < 1e-12, "k={k} s={s} mean={mean}");
                assert!((ramp[0] - (1.0 - s)).abs() < 1e-12);
                assert!((ramp[k - 1] - (1.0 + s)).abs() < 1e-12);
            }
        }
        assert_eq!(speed_ramp(1, 0.5), vec![1.0]);
    }

    #[test]
    fn delays_hurt_and_slack_reservation_helps() {
        let data = delay_sensitivity(&opts(91)).unwrap();
        // Delay raises the global miss ratio for every strategy.
        for label in &data.series_labels {
            let free = data.cell(label, 0.0).unwrap().md_global.mean;
            let slow = data.cell(label, 1.0).unwrap().md_global.mean;
            assert!(
                slow > free,
                "{label}: MD at delay 1.0 ({slow:.1}%) must exceed free ({free:.1}%)"
            );
        }
        // Transit is observed exactly when delays exist.
        let cell = data.cell("EQF/DIV-1", 0.5).unwrap();
        assert!(
            (cell.transit.mean - 0.5).abs() < 0.1,
            "transit mean {} ≉ 0.5",
            cell.transit.mean
        );
        assert_eq!(data.cell("EQF/DIV-1", 0.0).unwrap().transit.mean, 0.0);
        // The comm-aware slack divider keeps beating UD under delay.
        let eqf = data.cell("EQF/DIV-1", 0.5).unwrap().md_global.mean;
        let ud = data.cell("UD/DIV-1", 0.5).unwrap().md_global.mean;
        assert!(
            eqf < ud,
            "EQF ({eqf:.1}%) must beat UD ({ud:.1}%) under delay"
        );
    }

    #[test]
    fn speed_skew_degrades_service() {
        let data = speed_skew(&opts(92)).unwrap();
        // A strongly skewed system misses more than a balanced one: the
        // slow nodes bottleneck (utilization there scales as 1/(1−s)).
        for label in ["EQF/DIV-1", "UD/DIV-1"] {
            let balanced = data.cell(label, 0.0).unwrap().md_global.mean;
            let skewed = data.cell(label, 0.75).unwrap().md_global.mean;
            assert!(
                skewed > balanced,
                "{label}: MD at skew 0.75 ({skewed:.1}%) must exceed balanced ({balanced:.1}%)"
            );
        }
    }
}
