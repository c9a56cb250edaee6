//! Extension: fleet churn — deadline assignment under node failures.
//!
//! The paper's fleet is immortal. This experiment injects exponential
//! node crash/repair churn (per-node MTTF/MTTR, see
//! [`sda_system::FailureModel`]) into the §6 serial-parallel pipelines
//! over a constant-delay network, and asks how much of each strategy's
//! edge survives when nodes actually go down:
//!
//! * **failure rate** — `MD` vs the per-node failure rate `1/MTTF` at a
//!   fixed repair time. Rate 0 is the bit-exact failure-free baseline.
//!   Every crash loses the node's queue and any in-flight hand-offs to
//!   it; the process manager re-dispatches lost subtasks to survivors
//!   and re-decomposes the *remaining* deadline budget, so the sweep
//!   measures how gracefully each strategy absorbs that churn;
//! * **repair time** — `MD` vs MTTR at a fixed failure rate. Longer
//!   outages concentrate the surviving fleet's overload: the same crash
//!   count costs more when each crash removes a node for longer.
//!
//! Strategy grid: {UD, EQS, EQF, ADAPT(EQF)} serial × {DIV-1, GF}
//! parallel — the adaptive wrapper sees crashes only through the
//! miss-ratio feedback it already measures, so any advantage it shows
//! here comes for free.

use sda_core::SdaStrategy;
use sda_system::{FailureModel, NetworkModel, SystemConfig};
use sda_workload::ConfigError;

use crate::ext::burst::strategy_grid;
use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Per-node failure rates swept (`1/MTTF`; 0 = failures disabled, the
/// bit-exact baseline).
pub const FAILURE_RATES: [f64; 4] = [0.0, 0.001, 0.0025, 0.005];

/// Mean repair times swept at the fixed [`MTTR_SWEEP_RATE`].
pub const MTTRS: [f64; 4] = [10.0, 25.0, 50.0, 100.0];

/// Mean time to repair in the failure-rate sweep (time units).
pub const BASE_MTTR: f64 = 40.0;

/// Per-node failure rate in the repair-time sweep (`1/MTTF`).
pub const MTTR_SWEEP_RATE: f64 = 0.0025;

/// The long-run load of every sweep point — moderate, so the measured
/// degradation is attributable to churn rather than baseline
/// saturation.
pub const LOAD: f64 = 0.6;

/// Constant per-hop network delay: positive so re-dispatched hand-offs
/// pay real transit.
pub const HOP_DELAY: f64 = 0.5;

fn churn_config(strategy: SdaStrategy, failure: FailureModel) -> SystemConfig {
    let mut cfg = SystemConfig::combined_baseline(strategy);
    cfg.workload.load = LOAD;
    cfg.network = NetworkModel::Constant { delay: HOP_DELAY };
    cfg.failure = failure;
    cfg
}

/// The failure model at a given per-node failure rate (`None` at 0, so
/// the leftmost sweep point is the bit-exact failure-free baseline).
pub fn failures_at(rate: f64, mttr: f64) -> FailureModel {
    if rate <= 0.0 {
        FailureModel::None
    } else {
        FailureModel::Exponential {
            mttf: 1.0 / rate,
            mttr,
        }
    }
}

/// Failure-rate sweep: `MD` vs per-node failure rate at MTTR
/// [`BASE_MTTR`].
pub fn failure_rate(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |rate: f64| {
                churn_config(strategy, failures_at(rate, BASE_MTTR))
            })
        })
        .collect();
    run_sweep(
        "Ext — fleet churn (failure rate, pipelines)",
        "failure rate",
        &FAILURE_RATES,
        &series,
        opts,
    )
}

/// Repair-time sweep: `MD` vs MTTR at failure rate [`MTTR_SWEEP_RATE`].
pub fn repair_time(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |mttr: f64| {
                churn_config(strategy, failures_at(MTTR_SWEEP_RATE, mttr))
            })
        })
        .collect();
    run_sweep(
        "Ext — fleet churn (repair time, pipelines)",
        "mean time to repair",
        &MTTRS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> ExperimentOpts {
        ExperimentOpts {
            reps: 3,
            duration: 12_000.0,
            seed,
            ..ExperimentOpts::quick()
        }
    }

    #[test]
    fn churn_degrades_md_monotonically_and_loses_work() {
        let data = failure_rate(&opts(81)).unwrap();
        for label in ["UD/DIV-1", "EQF/DIV-1"] {
            let mut prev = f64::NEG_INFINITY;
            for &rate in &FAILURE_RATES {
                let cell = data.cell(label, rate).unwrap();
                let md = cell.md_global.mean;
                assert!(
                    md >= prev - 1.0,
                    "{label}: MD must not improve as the failure rate grows \
                     (rate {rate}: {md:.1}% after {prev:.1}%)"
                );
                prev = md;
            }
            let calm = data.cell(label, 0.0).unwrap();
            let churned = data.cell(label, FAILURE_RATES[3]).unwrap();
            assert!(
                churned.md_global.mean > calm.md_global.mean,
                "{label}: churn must raise MD_global \
                 ({:.1}% vs {:.1}%)",
                churned.md_global.mean,
                calm.md_global.mean
            );
            assert_eq!(calm.lost.mean, 0.0, "{label}: no losses without failures");
            assert!(
                churned.lost.mean > 0.0,
                "{label}: crashes must lose some work"
            );
        }
    }

    #[test]
    fn eqf_keeps_its_edge_under_churn() {
        // The paper's headline — EQF beats UD — must survive a churning
        // fleet: re-decomposition hands every strategy the same residual
        // budgets, so the slack-division advantage carries over.
        let data = failure_rate(&opts(82)).unwrap();
        for &rate in &FAILURE_RATES[1..] {
            let eqf = data.cell("EQF/DIV-1", rate).unwrap().md_global.mean;
            let ud = data.cell("UD/DIV-1", rate).unwrap().md_global.mean;
            assert!(
                eqf < ud,
                "EQF/DIV-1 ({eqf:.1}%) must beat UD/DIV-1 ({ud:.1}%) at failure rate {rate}"
            );
        }
    }

    #[test]
    fn longer_repairs_hurt() {
        let data = repair_time(&opts(83)).unwrap();
        let quick = data.cell("EQF/DIV-1", MTTRS[0]).unwrap().md_global.mean;
        let slow = data.cell("EQF/DIV-1", MTTRS[3]).unwrap().md_global.mean;
        assert!(
            slow > quick,
            "EQF/DIV-1: MD at MTTR {} ({slow:.1}%) must exceed MTTR {} ({quick:.1}%)",
            MTTRS[3],
            MTTRS[0]
        );
    }
}
