//! Randomized whole-system invariant tests: whatever the configuration,
//! certain accounting identities must hold after any run.

use sda_core::{NodeId, ParallelStrategy, SdaStrategy, SerialStrategy, TaskId};
use sda_sched::{Job, Policy};
use sda_sim::rng::{cases, Case};
use sda_sim::SimTime;
use sda_system::{run_once, FailureModel, Node, OverloadPolicy, RunConfig, SystemConfig};
use sda_workload::GlobalShape;

/// A random ssp-baseline system: load, local fraction, shape,
/// strategy, policy, overload policy and preemption.
fn configs(case: &mut Case) -> SystemConfig {
    let load = case.f64(0.1..0.85);
    let frac_local = case.f64(0.0..1.0);
    let shape_sel = case.int(0..3);
    let serial = [
        SerialStrategy::UltimateDeadline,
        SerialStrategy::EffectiveDeadline,
        SerialStrategy::EqualSlack,
        SerialStrategy::EqualFlexibility,
    ][case.int(0..4)];
    let parallel = [
        ParallelStrategy::UltimateDeadline,
        ParallelStrategy::Div { x: 1.0 },
        ParallelStrategy::GlobalsFirst,
    ][case.int(0..3)];
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(serial, parallel));
    cfg.workload.load = load;
    cfg.workload.frac_local = frac_local;
    cfg.workload.shape = match shape_sel {
        0 => GlobalShape::Serial { m: 3 },
        1 => GlobalShape::Parallel { m: 4 },
        _ => GlobalShape::SerialParallel {
            stages: 2,
            branches: 2,
        },
    };
    cfg.policy = Policy::ALL[case.int(0..4)];
    cfg.overload = if case.bool() {
        OverloadPolicy::AbortTardy
    } else {
        OverloadPolicy::NoAbort
    };
    cfg.preemptive = case.bool();
    cfg
}

#[test]
fn accounting_identities_hold() {
    cases("accounting_identities_hold", 24, |case| {
        let cfg = configs(case);
        let seed = case.u64();
        let run = RunConfig {
            warmup: 200.0,
            duration: 3_000.0,
            seed,
            order_fuzz: 0,
        };
        let result = run_once(&cfg, &run).unwrap();
        let m = &result.metrics;

        // Utilizations are physical.
        for &u in &result.node_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
        // Misses never exceed completions.
        assert!(m.local.missed() <= m.local.completed());
        assert!(m.global.missed() <= m.global.completed());
        // Abort counters only move under the abort policy.
        if cfg.overload == OverloadPolicy::NoAbort {
            assert_eq!(m.aborted_locals, 0);
            assert_eq!(m.aborted_globals, 0);
        }
        // Aborts are a subset of misses.
        assert!(m.aborted_globals <= m.global.missed());
        assert!(m.aborted_locals <= m.local.missed());
        // Response times are positive when present.
        if m.local.response().count() > 0 {
            assert!(m.local.response().mean() > 0.0);
            assert!(m.local.response().min() >= 0.0);
        }
        if m.global.response().count() > 0 {
            assert!(m.global.response().mean() > 0.0);
        }
        // With frac_local = 1 no global ever completes, and vice versa.
        if cfg.workload.frac_local >= 1.0 {
            assert_eq!(m.global.completed(), 0);
        }
        if cfg.workload.frac_local <= 0.0 {
            assert_eq!(m.local.completed(), 0);
        }
        // The run is reproducible.
        let again = run_once(&cfg, &run).unwrap();
        assert_eq!(&again, &result);
    });
}

/// The identities survive fleet churn: exponential crash/repair on
/// top of any configuration, with every lost job counted exactly
/// once and the run still bit-reproducible.
#[test]
fn accounting_survives_churn() {
    cases("accounting_survives_churn", 24, |case| {
        let cfg = configs(case);
        let seed = case.u64();
        let mttf = case.f64(150.0..800.0);
        let mttr = case.f64(10.0..120.0);
        let mut cfg = cfg;
        cfg.failure = FailureModel::Exponential { mttf, mttr };
        let run = RunConfig {
            warmup: 200.0,
            duration: 3_000.0,
            seed,
            order_fuzz: 0,
        };
        let result = run_once(&cfg, &run).unwrap();
        let m = &result.metrics;
        // Every job resolves exactly once: response observation, abort,
        // loss or abandonment — never two of them.
        assert_eq!(
            m.global.response().count() as u64 + m.aborted_globals + m.abandoned_globals,
            m.global.completed()
        );
        assert_eq!(
            m.local.response().count() as u64 + m.aborted_locals + m.lost_locals,
            m.local.completed()
        );
        // Re-dispatch only ever reacts to a lost subtask copy (copies
        // lost on already-aborted or abandoned tasks react to nothing).
        assert!(m.redispatches <= m.lost_subtasks);
        for &u in &result.node_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
        let again = run_once(&cfg, &run).unwrap();
        assert_eq!(&again, &result);
    });
}

/// A node crash is a mass cancellation: every queued job plus the
/// in-service one comes back exactly once in service order, the
/// service epoch bumps (staling any in-flight completion handle),
/// and the vacated slab slots are reused verbatim after recovery.
#[test]
fn node_crash_cancels_everything_and_leaks_nothing() {
    cases(
        "node_crash_cancels_everything_and_leaks_nothing",
        24,
        |case| {
            let deadlines = case.vec(1..40, |c| c.f64(1.0..100.0));
            let start_one = case.bool();
            let t0 = SimTime::from(0.0);
            let mut node = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
            for (i, &dl) in deadlines.iter().enumerate() {
                node.enqueue(t0, Job::local(TaskId::new(i as u64), 0.0, 1.0, dl));
            }
            let mut expected = deadlines.len();
            if start_one {
                assert!(node.try_start(t0).is_some());
                expected = deadlines.len(); // one moved from queue to service
            }
            let capacity = node.slab_capacity();
            let epoch = node.service_epoch();
            let mut lost = Vec::new();
            node.fail(SimTime::from(1.0), &mut lost);
            assert_eq!(lost.len(), expected, "all jobs surrendered exactly once");
            assert!(node.is_down());
            assert!(!node.is_busy());
            assert_eq!(node.queue_len(), 0);
            assert!(
                !node.completion_is_current(epoch),
                "stale completion handles must be dead after a crash"
            );
            node.recover(SimTime::from(2.0));
            assert!(!node.is_down());
            for job in lost {
                node.enqueue(SimTime::from(2.0), job);
            }
            assert_eq!(
                node.slab_capacity(),
                capacity,
                "crash-vacated slots must be reused on rejoin"
            );
        },
    );
}
