//! Extension: DAG-structured global tasks.
//!
//! The paper's global tasks are serial chains and fans; this experiment
//! opens the precedence-**DAG** axis ([`GlobalShape::Dag`]) and asks
//! whether the slack-division insight survives when "remaining work" is
//! a critical path through an arbitrary fan-out/fan-in graph rather
//! than a stage sum:
//!
//! * **edge density** — `MD` vs the optional-edge probability of random
//!   layered DAGs at fixed depth. Density 0 is a sparse skeleton (near
//!   tree-like, wide waves, little fan-in); density 1 makes consecutive
//!   layers fully connected — the stage-structured limit where the DAG
//!   decomposition is bit-identical to the `FlatRun` pipelines of §6.
//!   More edges mean more fan-in synchronization (a wave waits for its
//!   *last* predecessor) with the same offered work;
//! * **depth** — `MD` vs the number of layers at fixed width and
//!   density. Deeper DAGs give the serial strategies more decomposition
//!   points, exactly like the §4.3 subtask-count sweep did for chains.
//!
//! Strategy grid: {UD, EQS, EQF, ADAPT(EQF)} serial × {DIV-1, GF}
//! parallel — the same grid as the burst study, so the two extension
//! axes are directly comparable.

use sda_core::SdaStrategy;
use sda_system::SystemConfig;
use sda_workload::{ConfigError, GlobalShape, SlackRange};

use crate::ext::burst::strategy_grid;
use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Optional-edge probabilities swept (1.0 = stage-structured limit).
pub const EDGE_DENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// DAG depths (layer counts) swept.
pub const DEPTHS: [f64; 4] = [2.0, 3.0, 5.0, 8.0];

/// Layer width bound of every sweep point (widths drawn `U[1, 3]`).
pub const MAX_WIDTH: usize = 3;

/// The fixed depth of the edge-density sweep.
pub const DENSITY_SWEEP_DEPTH: usize = 4;

/// The fixed edge density of the depth sweep.
pub const DEPTH_SWEEP_DENSITY: f64 = 0.3;

/// The load of every sweep point — high enough that deadline assignment
/// matters, low enough that every point is stable.
pub const LOAD: f64 = 0.65;

/// The system configuration of one sweep point.
pub fn dag_config(strategy: SdaStrategy, depth: usize, edge_density: f64) -> SystemConfig {
    let mut cfg = SystemConfig::ssp_baseline(strategy);
    cfg.workload.load = LOAD;
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.shape = GlobalShape::Dag {
        depth,
        max_width: MAX_WIDTH,
        edge_density,
    };
    cfg
}

/// Edge-density sweep: `MD` vs the optional-edge probability.
pub fn edge_density(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |density: f64| {
                dag_config(strategy, DENSITY_SWEEP_DEPTH, density)
            })
        })
        .collect();
    run_sweep(
        "Ext — DAG edge density",
        "edge density",
        &EDGE_DENSITIES,
        &series,
        opts,
    )
}

/// Depth sweep: `MD` vs the number of DAG layers.
pub fn depth(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |depth: f64| {
                dag_config(strategy, depth as usize, DEPTH_SWEEP_DENSITY)
            })
        })
        .collect();
    run_sweep("Ext — DAG depth", "DAG depth", &DEPTHS, &series, opts)
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
    fn configs_validate_across_the_grid() {
        for (_, strategy) in strategy_grid() {
            for &d in &EDGE_DENSITIES {
                let cfg = dag_config(strategy, DENSITY_SWEEP_DEPTH, d);
                assert!(cfg.workload.validate().is_ok());
            }
            for &d in &DEPTHS {
                let cfg = dag_config(strategy, d as usize, DEPTH_SWEEP_DENSITY);
                assert!(cfg.workload.validate().is_ok());
            }
        }
    }

    #[test]
    fn deadline_assignment_pays_on_dags() {
        let data = edge_density(&opts(81)).unwrap();
        // The slack-division insight survives the DAG generalization:
        // EQF/DIV-1 beats the do-nothing UD/DIV-1 baseline at every
        // density.
        for &d in &EDGE_DENSITIES {
            let ud = data.cell("UD/DIV-1", d).unwrap().md_global.mean;
            let eqf = data.cell("EQF/DIV-1", d).unwrap().md_global.mean;
            assert!(
                eqf < ud,
                "density {d}: EQF ({eqf:.1}%) must beat UD ({ud:.1}%)"
            );
        }
    }

    #[test]
    fn depth_stresses_serial_decomposition() {
        let data = depth(&opts(82)).unwrap();
        // Deeper DAGs are harder end to end for the do-nothing baseline
        // (same effect as the §4.3 chain-length sweep)…
        let shallow = data.cell("UD/DIV-1", 2.0).unwrap().md_global.mean;
        let deep = data.cell("UD/DIV-1", 8.0).unwrap().md_global.mean;
        assert!(
            deep > shallow,
            "UD/DIV-1: MD at depth 8 ({deep:.1}%) must exceed depth 2 ({shallow:.1}%)"
        );
        // …and the gap EQF closes grows with depth.
        let eqf_deep = data.cell("EQF/DIV-1", 8.0).unwrap().md_global.mean;
        assert!(
            eqf_deep < deep,
            "EQF/DIV-1 ({eqf_deep:.1}%) must beat UD/DIV-1 ({deep:.1}%) at depth 8"
        );
    }
}
