//! The live service against the simulator's process manager.
//!
//! The service's decisions come from [`sda::system::ProcessManager`],
//! the type the simulator drives, so the two agree by construction and
//! `run_logical` is `run_once` itself. What remains to check is the
//! wall-clock runtime around that manager: which configurations it
//! refuses, and that every submitted task reaches exactly one terminal
//! state before shutdown, recorded once in the manager's metrics —
//! including on the abort, ADAPT, DAG and preemption paths.

use sda::core::{AdaptiveSlack, SdaStrategy};
use sda::service::wall::{run_wall, WallRunConfig};
use sda::service::{DeadlineContract, ServiceError};
use sda::system::{FailureModel, NetworkModel, OverloadPolicy, RunConfig, SystemConfig};
use sda::workload::{GlobalShape, SlackRange};

#[test]
fn wall_clock_service_rejects_networks_and_failures() {
    let run = RunConfig {
        warmup: 0.0,
        duration: 50.0,
        seed: 1,
        order_fuzz: 0,
    };
    let wall = WallRunConfig::new(&run, 1_000.0);

    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.network = NetworkModel::Constant { delay: 0.5 };
    assert!(matches!(
        run_wall(&cfg, &wall),
        Err(ServiceError::Unsupported(_))
    ));

    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.failure = FailureModel::Exponential {
        mttf: 400.0,
        mttr: 60.0,
    };
    assert!(matches!(
        run_wall(&cfg, &wall),
        Err(ServiceError::Unsupported(_))
    ));
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
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::adaptive(
        SdaStrategy::eqf_div1(),
        AdaptiveSlack::default(),
    ));
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.load = 0.8;
    cfg.overload = OverloadPolicy::AbortTardy;
    cfg.preemptive = true;
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
