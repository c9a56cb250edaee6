//! The live service against the simulator.
//!
//! The service runs the simulator's own [`sda::system::SystemModel`] on
//! an engine whose clock follows the wall clock, booking each submitted
//! task as the model's own arrival event. With wall time taken out,
//! `replay` runs that manager on `run_once`'s own traffic and fires the
//! engine at exactly each booked instant; its metrics must equal
//! `run_once`'s bit for bit, networks and failures included. The
//! wall-clock tests check what remains around the model: which
//! deadline contracts it refuses, and that every submitted task reaches
//! exactly one terminal state before shutdown, recorded once in the
//! model's metrics — including on the abort, ADAPT, DAG, preemption,
//! network and failure paths.

use sda::core::{AdaptiveSlack, SdaStrategy};
use sda::sched::Policy;
use sda::service::wall::{replay, run_wall, WallRunConfig};
use sda::service::{DeadlineContract, ServiceError};
use sda::system::{
    run_once, DownInterval, FailureModel, NetworkModel, OverloadPolicy, RunConfig, SystemConfig,
};
use sda::workload::{GlobalShape, SlackRange};

/// A layered-DAG variant of the ssp baseline.
fn dag(strategy: SdaStrategy) -> SystemConfig {
    let mut cfg = SystemConfig::ssp_baseline(strategy);
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg
}

/// ADAPT(EQF-DIV-1) on layered DAGs at load 0.8 with `AbortTardy` and
/// preemption: every optional path of the manager at once.
fn adapt_dag_abort_preemptive() -> SystemConfig {
    let mut cfg = dag(SdaStrategy::adaptive(
        SdaStrategy::eqf_div1(),
        AdaptiveSlack::default(),
    ));
    cfg.workload.load = 0.8;
    cfg.overload = OverloadPolicy::AbortTardy;
    cfg.preemptive = true;
    cfg
}

#[test]
fn replay_decides_exactly_as_the_simulator() {
    let with = |mut cfg: SystemConfig, edit: fn(&mut SystemConfig)| {
        edit(&mut cfg);
        cfg
    };
    let combined = || SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    let cases = [
        (
            "ssp EQF-UD",
            SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()),
        ),
        (
            "ssp UD-UD",
            SystemConfig::ssp_baseline(SdaStrategy::ud_ud()),
        ),
        (
            "psp UD-DIV-1",
            SystemConfig::psp_baseline(SdaStrategy::ud_div1()),
        ),
        ("combined EQF-DIV-1", combined()),
        (
            "combined FCFS",
            with(combined(), |c| c.policy = Policy::Fcfs),
        ),
        (
            "combined SJF",
            with(combined(), |c| c.policy = Policy::ShortestJobFirst),
        ),
        (
            "combined MLF",
            with(combined(), |c| c.policy = Policy::MinimumLaxityFirst),
        ),
        (
            "preemptive EDF",
            with(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), |c| {
                c.preemptive = true;
                c.workload.load = 0.7;
            }),
        ),
        (
            "AbortTardy",
            with(SystemConfig::ssp_baseline(SdaStrategy::ud_ud()), |c| {
                c.overload = OverloadPolicy::AbortTardy;
                c.workload.load = 0.8;
            }),
        ),
        ("DAG", dag(SdaStrategy::eqf_div1())),
        (
            "ADAPT + DAG + AbortTardy + preemption",
            adapt_dag_abort_preemptive(),
        ),
        (
            "constant network",
            with(combined(), |c| {
                c.network = NetworkModel::Constant { delay: 0.5 }
            }),
        ),
        (
            "exponential network + AbortTardy",
            with(SystemConfig::ssp_baseline(SdaStrategy::ud_ud()), |c| {
                c.network = NetworkModel::Exponential { mean: 0.3 };
                c.overload = OverloadPolicy::AbortTardy;
                c.workload.load = 0.8;
            }),
        ),
        (
            "matrix network + DAG",
            with(dag(SdaStrategy::eqf_div1()), |c| {
                // Per-pair delays from 0 to 0.4 over the nodes and the
                // process manager (the last endpoint).
                let n = c.workload.nodes + 1;
                let delays = (0..n)
                    .map(|i| (0..n).map(|j| ((i + 2 * j) % 5) as f64 * 0.1).collect())
                    .collect();
                c.network = NetworkModel::Matrix { delays };
            }),
        ),
        (
            "exponential churn + constant network",
            with(combined(), |c| {
                c.failure = FailureModel::Exponential {
                    mttf: 400.0,
                    mttr: 60.0,
                };
                c.network = NetworkModel::Constant { delay: 0.25 };
            }),
        ),
        (
            "whole-fleet outage + preemption",
            with(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), |c| {
                let downs = (0..c.workload.nodes)
                    .map(|node| DownInterval {
                        node,
                        from: 1_000.0,
                        until: 1_060.0,
                    })
                    .collect();
                c.failure = FailureModel::Scripted { downs };
                c.preemptive = true;
                c.workload.load = 0.7;
            }),
        ),
    ];
    let run = RunConfig {
        warmup: 100.0,
        duration: 3_000.0,
        seed: 0x5EED,
        order_fuzz: 0,
    };
    for (name, cfg) in &cases {
        let sim = run_once(cfg, &run).expect("simulator run").metrics;
        assert!(
            sim.local.completed() > 0 && sim.global.completed() > 0,
            "{name}: the run must complete tasks of both classes"
        );
        // Each network and failure case must take the path it names.
        assert_eq!(
            sim.transit.count() > 0,
            !cfg.network.is_zero(),
            "{name}: hand-offs must cross the network exactly when it has delays"
        );
        assert_eq!(
            sim.lost_locals + sim.lost_subtasks > 0,
            !cfg.failure.is_none(),
            "{name}: work must be lost exactly when nodes fail"
        );
        let replayed = replay(cfg, &run).expect("replay");
        assert_eq!(
            format!("{replayed:?}"),
            format!("{sim:?}"),
            "{name}: the replay's metrics differ from run_once's"
        );
    }
}

#[test]
fn wall_clock_service_drains_under_a_network_and_churn() {
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.network = NetworkModel::Constant { delay: 0.25 };
    cfg.failure = FailureModel::Exponential {
        mttf: 100.0,
        mttr: 20.0,
    };
    let run = RunConfig {
        warmup: 0.0,
        duration: 200.0,
        seed: 0xC4A2,
        order_fuzz: 0,
    };
    let wall = WallRunConfig {
        max_globals: 50,
        ..WallRunConfig::new(&run, 2_000.0)
    };
    let report = run_wall(&cfg, &wall).expect("wall run");
    assert!(report.submitted_globals > 0, "traffic must actually flow");
    assert!(
        report.drained_clean(),
        "drain lost {} task(s): {report:?}",
        report.lost_tasks()
    );
    let m = &report.metrics;
    assert!(m.transit.count() > 0, "hand-offs must cross the network");
    // Every terminal task is exactly one of completed-with-response,
    // aborted, lost with its node or abandoned.
    assert_eq!(
        m.local.response().count() + m.aborted_locals + m.lost_locals,
        m.local.completed()
    );
    assert_eq!(
        m.global.response().count() + m.aborted_globals + m.abandoned_globals,
        m.global.completed()
    );
}

#[test]
fn wall_clock_service_drains_without_losing_tasks() {
    // A short real-time run at high time compression: every submitted
    // task must reach a terminal state before shutdown. No warm-up, so
    // the statistics never restart mid-run.
    let cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_ud());
    let run = RunConfig {
        warmup: 0.0,
        duration: 200.0,
        seed: 0xD12A,
        order_fuzz: 0,
    };
    let wall = WallRunConfig {
        max_globals: 50,
        ..WallRunConfig::new(&run, 2_000.0)
    };
    let report = run_wall(&cfg, &wall).expect("wall run");
    assert!(report.submitted_globals > 0, "traffic must actually flow");
    assert!(
        report.drained_clean(),
        "graceful shutdown lost {} task(s): {report:?}",
        report.lost_tasks()
    );
    // Every outcome the drain counts is recorded in the metrics exactly
    // once.
    let m = &report.metrics;
    assert_eq!(report.terminal_locals, m.local.completed());
    assert_eq!(report.terminal_globals, m.global.completed());
}

#[test]
fn wall_clock_dag_abort_adapt_preemptive_run_accounts_every_task() {
    let cfg = adapt_dag_abort_preemptive();
    let run = RunConfig {
        warmup: 20.0,
        duration: 200.0,
        seed: 0xDA6,
        order_fuzz: 0,
    };
    let wall = WallRunConfig {
        max_globals: 60,
        ..WallRunConfig::new(&run, 2_000.0)
    };
    let report = run_wall(&cfg, &wall).expect("wall run");
    assert!(report.submitted_globals > 0, "traffic must actually flow");
    assert!(
        report.drained_clean(),
        "drain lost {} task(s): {report:?}",
        report.lost_tasks()
    );
    // Every terminal task is exactly one of completed-with-response,
    // aborted or abandoned.
    let m = &report.metrics;
    assert_eq!(
        m.local.response().count() + m.aborted_locals,
        m.local.completed()
    );
    assert_eq!(
        m.global.response().count() + m.aborted_globals + m.abandoned_globals,
        m.global.completed()
    );
}

#[test]
fn wall_clock_service_rejects_incompatible_deadline_contracts() {
    let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    let run = RunConfig {
        warmup: 0.0,
        duration: 50.0,
        seed: 1,
        order_fuzz: 0,
    };
    let mut wall = WallRunConfig::new(&run, 1_000.0);
    wall.offered = Some(DeadlineContract::new(40.0).unwrap());
    wall.requested = Some(DeadlineContract::new(25.0).unwrap());
    match run_wall(&cfg, &wall) {
        Err(ServiceError::IncompatibleContract { offered, requested }) => {
            assert_eq!(offered, 40.0);
            assert_eq!(requested, 25.0);
        }
        other => panic!("expected contract rejection, got {other:?}"),
    }
}
