//! Property-based tests for the deadline-assignment strategies.
//!
//! These check the algebraic invariants that the paper's definitions
//! imply, over randomized task shapes and timing parameters.

use sda_core::{
    Completion, NodeId, ParallelStrategy, PspInput, SdaStrategy, SerialStrategy, SspInput,
    Submission, TaskRun, TaskSpec,
};
use sda_sim::rng::{cases, Case};

const EPS: f64 = 1e-7;

/// Per-stage predicted execution times of a 1–11 stage chain.
fn pex_vec(case: &mut Case) -> Vec<f64> {
    case.vec(1..12, |c| c.f64(0.01..10.0))
}

/// EQS assigns every remaining stage the same slack share: the
/// first-stage deadline minus (submit + pex) equals slack/(m-i+1).
#[test]
fn eqs_share_is_total_slack_over_count() {
    cases("eqs_share_is_total_slack_over_count", 256, |case| {
        let pex = pex_vec(case);
        let submit = case.f64(0.0..100.0);
        let slack = case.f64(-5.0..50.0);
        let total_pex: f64 = pex.iter().sum();
        let global_deadline = submit + total_pex + slack;
        let input = SspInput {
            submit_time: submit,
            global_deadline,
            pex_current: pex[0],
            pex_remaining_after: &pex[1..],
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        };
        let dl = SerialStrategy::EqualSlack.deadline(&input);
        let share = dl - submit - pex[0];
        assert!((share - slack / pex.len() as f64).abs() < EPS);
    });
}

/// EQF gives every stage the same *flexibility* (slack share divided
/// by pex), equal to total slack over total pex.
#[test]
fn eqf_equalizes_flexibility() {
    cases("eqf_equalizes_flexibility", 256, |case| {
        let pex = pex_vec(case);
        let submit = case.f64(0.0..100.0);
        let slack = case.f64(-5.0..50.0);
        let total_pex: f64 = pex.iter().sum();
        let global_deadline = submit + total_pex + slack;
        let input = SspInput {
            submit_time: submit,
            global_deadline,
            pex_current: pex[0],
            pex_remaining_after: &pex[1..],
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        };
        let dl = SerialStrategy::EqualFlexibility.deadline(&input);
        let fl = (dl - submit - pex[0]) / pex[0];
        assert!(
            (fl - slack / total_pex).abs() < 1e-6,
            "stage flexibility {fl} vs global {}",
            slack / total_pex
        );
    });
}

/// For non-negative slack, every strategy's first-stage deadline lies
/// in [submit + pex_1, dl(T)], and the orderings EQF ≤ ED ≤ UD,
/// EQS ≤ ED hold.
#[test]
fn ssp_orderings_hold() {
    cases("ssp_orderings_hold", 256, |case| {
        let pex = pex_vec(case);
        let submit = case.f64(0.0..100.0);
        let slack = case.f64(0.0..50.0);
        let total_pex: f64 = pex.iter().sum();
        let global_deadline = submit + total_pex + slack;
        let input = SspInput {
            submit_time: submit,
            global_deadline,
            pex_current: pex[0],
            pex_remaining_after: &pex[1..],
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        };
        let ud = SerialStrategy::UltimateDeadline.deadline(&input);
        let ed = SerialStrategy::EffectiveDeadline.deadline(&input);
        let eqs = SerialStrategy::EqualSlack.deadline(&input);
        let eqf = SerialStrategy::EqualFlexibility.deadline(&input);
        for dl in [ud, ed, eqs, eqf] {
            assert!(
                dl >= submit + pex[0] - EPS,
                "deadline {dl} infeasibly early"
            );
            assert!(dl <= global_deadline + EPS, "deadline {dl} beyond global");
        }
        assert!(eqf <= ed + EPS);
        assert!(eqs <= ed + EPS);
        assert!(ed <= ud + EPS);
    });
}

/// The static plan of EQS/EQF covers the window exactly: consecutive
/// deadlines are non-decreasing and the last one equals dl(T).
#[test]
fn ssp_plan_exhausts_window() {
    cases("ssp_plan_exhausts_window", 256, |case| {
        let pex = pex_vec(case);
        let arrival = case.f64(0.0..100.0);
        let slack = case.f64(0.0..50.0);
        let total_pex: f64 = pex.iter().sum();
        let global_deadline = arrival + total_pex + slack;
        for strategy in [SerialStrategy::EqualSlack, SerialStrategy::EqualFlexibility] {
            let plan = strategy.plan(arrival, global_deadline, &pex);
            assert_eq!(plan.len(), pex.len());
            for w in plan.windows(2) {
                assert!(w[0] <= w[1] + EPS);
            }
            assert!((plan[plan.len() - 1] - global_deadline).abs() < 1e-6);
        }
    });
}

/// DIV-x: deadline strictly after arrival, monotone decreasing in both
/// x and n, and equal to UD when n·x = 1.
#[test]
fn div_x_properties() {
    cases("div_x_properties", 256, |case| {
        let arrival = case.f64(0.0..100.0);
        let window = case.f64(0.01..100.0);
        let n = case.int(1..20);
        let x = case.f64(0.1..10.0);
        let input = PspInput {
            arrival_time: arrival,
            global_deadline: arrival + window,
            branch_count: n,
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        };
        let div = ParallelStrategy::div(x).unwrap();
        let dl = div.deadline(&input);
        assert!(dl > arrival);
        assert!(dl <= arrival + window + EPS || n as f64 * x < 1.0);

        let tighter = ParallelStrategy::div(x * 2.0).unwrap().deadline(&input);
        assert!(tighter < dl);

        let wider_fan = ParallelStrategy::div(x).unwrap().deadline(&PspInput {
            branch_count: n + 1,
            ..input
        });
        assert!(wider_fan < dl);
    });
}

/// Driving a random serial chain through TaskRun with on-time
/// completions keeps every assigned deadline within the global window
/// and finishes after exactly m completions.
#[test]
fn taskrun_serial_chain_lifecycle() {
    cases("taskrun_serial_chain_lifecycle", 256, |case| {
        let pex = pex_vec(case);
        let slack = case.f64(0.0..20.0);
        let spec = TaskSpec::serial(
            pex.iter()
                .enumerate()
                .map(|(i, &p)| TaskSpec::simple(NodeId::new(i as u32 % 6), p, p))
                .collect(),
        );
        let total: f64 = pex.iter().sum();
        let deadline = total + slack;
        let strategy = SdaStrategy::eqf_div1();
        let mut run = TaskRun::new(&spec, 0.0, deadline).unwrap();
        let mut pending = run.start(&strategy, 0.0);
        let mut now = 0.0;
        let mut completions = 0;
        while let Some(sub) = pending.pop() {
            assert!(sub.deadline <= deadline + EPS);
            now += sub.ex; // completes exactly on its execution time
            completions += 1;
            match run.complete(sub.subtask, &strategy, now) {
                Completion::Submitted(next) => pending.extend(next),
                Completion::Finished => break,
            }
        }
        assert_eq!(completions, pex.len());
        let (done, total) = run.progress();
        assert_eq!(done, total);
        // On-time completions with non-negative slack must finish by the
        // deadline.
        assert!(now <= deadline + EPS);
    });
}

/// A flat parallel task under any PSP strategy submits all branches at
/// start with identical deadlines and finishes when the last branch
/// completes.
#[test]
fn taskrun_parallel_fan_lifecycle() {
    cases("taskrun_parallel_fan_lifecycle", 256, |case| {
        let exs = case.vec(1..10, |c| c.f64(0.01..5.0));
        let slack = case.f64(0.0..20.0);
        let x = case.f64(0.5..4.0);
        let spec = TaskSpec::parallel(
            exs.iter()
                .enumerate()
                .map(|(i, &e)| TaskSpec::simple(NodeId::new(i as u32), e, e))
                .collect(),
        );
        let makespan = exs.iter().cloned().fold(0.0, f64::max);
        let deadline = makespan + slack;
        let strategy = SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::div(x).unwrap(),
        );
        let mut run = TaskRun::new(&spec, 0.0, deadline).unwrap();
        let subs: Vec<Submission> = run.start(&strategy, 0.0);
        assert_eq!(subs.len(), exs.len());
        let first_dl = subs[0].deadline;
        assert!(subs.iter().all(|s| (s.deadline - first_dl).abs() < EPS));

        let mut finished = false;
        for (i, sub) in subs.iter().enumerate() {
            let res = run.complete(sub.subtask, &strategy, sub.ex);
            if i + 1 == subs.len() {
                assert_eq!(res, Completion::Finished);
                finished = true;
            } else {
                assert_eq!(res, Completion::Submitted(vec![]));
            }
        }
        assert!(finished);
    });
}

/// Perfect-prediction, zero-queueing execution under EQS/EQF never
/// violates a virtual deadline (each stage completes exactly when its
/// predicted work is done, which is ≤ its assigned deadline when
/// slack ≥ 0).
#[test]
fn on_time_execution_meets_virtual_deadlines() {
    cases("on_time_execution_meets_virtual_deadlines", 256, |case| {
        let pex = pex_vec(case);
        let slack = case.f64(0.0..30.0);
        let spec = TaskSpec::serial(
            pex.iter()
                .map(|&p| TaskSpec::simple(NodeId::new(0), p, p))
                .collect(),
        );
        let total: f64 = pex.iter().sum();
        for serial in [SerialStrategy::EqualSlack, SerialStrategy::EqualFlexibility] {
            let strategy = SdaStrategy::new(serial, ParallelStrategy::UltimateDeadline);
            let mut run = TaskRun::new(&spec, 0.0, total + slack).unwrap();
            let mut pending = run.start(&strategy, 0.0);
            let mut now = 0.0;
            while let Some(sub) = pending.pop() {
                now += sub.ex;
                assert!(
                    now <= sub.deadline + EPS,
                    "virtual deadline violated: finish {now} vs dl {}",
                    sub.deadline
                );
                match run.complete(sub.subtask, &strategy, now) {
                    Completion::Submitted(next) => pending.extend(next),
                    Completion::Finished => break,
                }
            }
        }
    });
}
