//! Property-based tests: the load equation closes for arbitrary valid
//! configurations, and generated tasks respect their declared bounds.

use sda_core::FlatRun;
use sda_sim::rng::{cases, Case, RngFactory};
use sda_workload::{GlobalShape, SlackRange, TaskFactory, WorkloadConfig};

/// A random tree-shaped configuration. Every draw is valid: each fan is
/// cut to fit the nodes.
fn valid_configs(case: &mut Case) -> WorkloadConfig {
    let nodes = case.int(1..10);
    let load = case.f64(0.05..0.95);
    let frac_local = case.f64(0.0..1.0);
    let mean_subtask_ex = case.f64(0.1..3.0);
    let (smin, extra) = (case.f64(0.0..2.0), case.f64(0.0..3.0));
    let rel_flex = case.f64(0.1..4.0);
    let shape_sel = case.int(0..4);
    let m = case.int(1..6);
    let shape = match shape_sel {
        0 => GlobalShape::Serial { m },
        1 => GlobalShape::Parallel { m: m.min(nodes) },
        2 => GlobalShape::SerialRandomM { min_m: 1, max_m: m },
        _ => GlobalShape::SerialParallel {
            stages: m,
            branches: 1 + (m % nodes.min(3)),
        },
    };
    WorkloadConfig {
        nodes,
        load,
        frac_local,
        mean_local_ex: 1.0,
        mean_subtask_ex,
        slack: SlackRange::new(smin, smin + extra),
        rel_flex,
        shape,
        pex: sda_workload::PexModel::Perfect,
        service: sda_workload::ServiceVariability::Exponential,
        local_weights: None,
        node_speeds: None,
        arrivals: sda_workload::ArrivalProcess::Poisson,
    }
}

/// The derived rates reproduce the configured load exactly.
#[test]
fn load_equation_closes() {
    cases("load_equation_closes", 64, |case| {
        let cfg = valid_configs(case);
        let rates = cfg.rates().unwrap();
        assert!((rates.load(cfg.nodes) - cfg.load).abs() < 1e-9);
        // frac_local is also recovered (when there is any work at all).
        let total = rates.local_work_rate + rates.global_work_rate;
        if total > 0.0 {
            assert!((rates.local_work_rate / total - cfg.frac_local).abs() < 1e-9);
        }
    });
}

/// Generated tasks: non-empty with valid times, deadlines after arrival, subtask
/// counts consistent with the shape, and nodes within range.
#[test]
fn generated_tasks_respect_bounds() {
    cases("generated_tasks_respect_bounds", 64, |case| {
        let cfg = valid_configs(case);
        let seed = case.u64();
        let nodes = cfg.nodes;
        let shape = cfg.shape;
        let mut f = TaskFactory::new(cfg, &RngFactory::new(seed)).unwrap();
        let mut run = FlatRun::new();
        for _ in 0..50 {
            f.make_global_flat(3.0, &mut run);
            assert!(run.simple_count() > 0);
            assert!(run.global_deadline() >= 3.0 + run.critical_path_ex() - 1e-9);
            let count = run.simple_count();
            match shape {
                GlobalShape::Serial { m } => assert_eq!(count, m),
                GlobalShape::Parallel { m } => assert_eq!(count, m),
                GlobalShape::SerialRandomM { min_m, max_m } => {
                    assert!((min_m..=max_m).contains(&count))
                }
                GlobalShape::SerialParallel { stages, branches } => {
                    assert_eq!(count, stages * branches)
                }
                // valid_configs() only generates tree shapes; DAG tasks
                // go through make_global_dag (covered in the generator's
                // unit tests), not make_global_flat.
                GlobalShape::Dag { .. } => unreachable!(),
            }
            for s in run.subtasks() {
                assert!(s.node.index() < nodes);
                assert!(s.ex.is_finite() && s.ex >= 0.0 && s.pex.is_finite() && s.pex >= 0.0);
            }
        }
    });
}

/// Interarrival gaps are positive and, on average, close to the
/// configured rate (loose statistical bound).
#[test]
fn interarrival_means_track_rates() {
    cases("interarrival_means_track_rates", 64, |case| {
        let cfg = valid_configs(case);
        let seed = case.u64();
        let rates = cfg.rates().unwrap();
        let mut f = TaskFactory::new(cfg, &RngFactory::new(seed)).unwrap();
        if rates.lambda_global > 0.0 {
            let n = 3_000;
            let mean: f64 = (0..n)
                .map(|_| f.next_global_interarrival().unwrap())
                .sum::<f64>()
                / n as f64;
            let expect = 1.0 / rates.lambda_global;
            assert!(
                (mean - expect).abs() / expect < 0.15,
                "global interarrival mean {mean} vs expected {expect}"
            );
        } else {
            assert!(f.next_global_interarrival().is_none());
        }
    });
}
