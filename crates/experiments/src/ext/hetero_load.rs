//! §4.3 extension — unbalanced nodes: "some of the nodes had higher
//! local task loads than others".
//!
//! One hot node receives 3× the local weight of the others (total local
//! rate preserved). Expected: absolute miss ratios rise (the hot node is
//! a bottleneck for the subtasks routed through it), but the EQF > UD
//! ordering is unchanged.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep.
pub const LOADS: [f64; 3] = [0.3, 0.5, 0.7];

/// Runs the unbalanced-node sweep: UD and EQF with a 3×-hot node 0,
/// plus balanced EQF as reference.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let hot = vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let mk = |serial: SerialStrategy, weights: Option<Vec<f64>>| {
        move |load: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.load = load;
            cfg.workload.local_weights = weights.clone();
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new(
            "UD hot-node",
            mk(SerialStrategy::UltimateDeadline, Some(hot.clone())),
        ),
        SeriesSpec::new(
            "EQF hot-node",
            mk(SerialStrategy::EqualFlexibility, Some(hot)),
        ),
        SeriesSpec::new("EQF balanced", mk(SerialStrategy::EqualFlexibility, None)),
    ];
    run_sweep(
        "Ext — unbalanced local loads (node 0 at 3× weight)",
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
    fn ordering_survives_hot_nodes() {
        let opts = ExperimentOpts {
            seed: 76,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let ud = data.cell("UD hot-node", 0.5).unwrap().md_global.mean;
        let eqf = data.cell("EQF hot-node", 0.5).unwrap().md_global.mean;
        assert!(eqf < ud, "EQF ({eqf:.1}%) must beat UD ({ud:.1}%)");
        // The hot-node system should miss at least as much as balanced.
        let eqf_bal = data.cell("EQF balanced", 0.5).unwrap().md_global.mean;
        assert!(
            eqf + 1.0 >= eqf_bal,
            "hot ({eqf:.1}%) vs balanced ({eqf_bal:.1}%)"
        );
    }
}
