//! Exercises the `sda` meta-crate's re-exported API surface end to end:
//! everything a downstream user would touch must be reachable from the
//! facade.

use sda::core::{
    Completion, FlatRun, NodeId, ParallelStrategy, SdaStrategy, SerialStrategy, SspInput, TaskRun,
    TaskSpec,
};
use sda::sched::{Job, Policy, ReadyQueue};
use sda::sim::dist::Exponential;
use sda::sim::rng::RngFactory;
use sda::sim::stats::{Replications, Tally};
use sda::sim::SimTime;
use sda::workload::{GlobalShape, TaskFactory, WorkloadConfig};

#[test]
fn facade_covers_the_full_pipeline() {
    // 1. Define a task structure.
    let spec = TaskSpec::serial(vec![
        TaskSpec::simple(NodeId::new(0), 1.0, 1.0),
        TaskSpec::parallel(vec![
            TaskSpec::simple(NodeId::new(1), 2.0, 2.0),
            TaskSpec::simple(NodeId::new(2), 2.0, 2.0),
        ]),
    ]);
    assert!(spec.validate().is_ok());

    // 2. Assign deadlines with the combined strategy.
    let strategy = SdaStrategy::new(
        SerialStrategy::EqualFlexibility,
        ParallelStrategy::div(1.0).unwrap(),
    );
    let mut run = TaskRun::new(&spec, 0.0, 9.0).unwrap();
    let first = run.start(&strategy, 0.0);
    assert_eq!(first.len(), 1);

    // 3. Feed a scheduler queue.
    let mut queue = ReadyQueue::new(Policy::EarliestDeadlineFirst);
    for sub in &first {
        queue.push(Job::global(
            sda::core::TaskId::new(1),
            sub.subtask,
            0.0,
            sub.ex,
            sub.pex,
            sub.deadline,
            sub.priority,
        ));
    }
    let job = queue.pop().unwrap();

    // 4. Complete and advance precedence.
    match run.complete(
        match job.origin {
            sda::sched::JobOrigin::Global { subtask, .. } => subtask,
            _ => unreachable!(),
        },
        &strategy,
        1.0,
    ) {
        Completion::Submitted(next) => assert_eq!(next.len(), 2),
        Completion::Finished => panic!("two parallel branches remain"),
    }
}

#[test]
fn facade_reaches_sim_substrate() {
    let factory = RngFactory::new(5);
    let mut stream = factory.stream("facade");
    let exp = Exponential::with_mean(2.0).unwrap();
    let tally: Tally = (0..1_000).map(|_| exp.sample_with(&mut stream)).collect();
    assert!(tally.mean() > 1.0 && tally.mean() < 3.0);
    assert!(SimTime::from(1.0) < SimTime::from(2.0));
    let reps: Replications = [1.0, 2.0, 3.0].into_iter().collect();
    assert_eq!(reps.mean(), 2.0);
}

#[test]
fn facade_reaches_workload_generator() {
    let cfg = WorkloadConfig {
        shape: GlobalShape::Parallel { m: 3 },
        slack: sda::workload::SlackRange::PSP_BASELINE,
        ..WorkloadConfig::baseline()
    };
    let mut factory = TaskFactory::new(cfg, &RngFactory::new(9)).unwrap();
    let mut task = FlatRun::new();
    factory.make_global_flat(0.0, &mut task);
    // One parallel stage of three branches.
    assert_eq!(task.stage_count(), 1);
    assert_eq!(task.stage(0).len(), 3);
    assert!(task.global_deadline() > 0.0);
}

#[test]
fn ssp_formula_reachable_from_facade() {
    let dl = SerialStrategy::EffectiveDeadline.deadline(&SspInput {
        submit_time: 0.0,
        global_deadline: 10.0,
        pex_current: 1.0,
        pex_remaining_after: &[2.0],
        comm_current: 0.0,
        comm_after: 0.0,
        slack_scale: 1.0,
    });
    assert_eq!(dl, 8.0);
}
