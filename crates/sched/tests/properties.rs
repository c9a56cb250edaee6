//! Property-based tests: every discipline is a stable sort by its key,
//! with elevated jobs strictly first.

use sda_core::{PriorityClass, TaskId};
use sda_sched::{Job, Policy, ReadyQueue};
use sda_sim::rng::{cases, Case};

#[derive(Debug, Clone)]
struct JobSpec {
    deadline: f64,
    pex: f64,
    elevated: bool,
}

fn job_specs(case: &mut Case) -> Vec<JobSpec> {
    case.vec(0..150, |c| JobSpec {
        // Quantize so key ties happen and FIFO order is exercised.
        deadline: (c.f64(0.0..100.0) * 2.0).floor() / 2.0,
        pex: (c.f64(0.1..10.0) * 2.0).floor() / 2.0,
        elevated: c.bool(),
    })
}

/// Pops every queued job, in service order.
fn drain(q: &mut ReadyQueue) -> Vec<Job> {
    std::iter::from_fn(|| q.pop()).collect()
}

fn key(policy: Policy, j: &Job) -> f64 {
    match policy {
        Policy::Fcfs => 0.0,
        Policy::EarliestDeadlineFirst => j.deadline,
        Policy::ShortestJobFirst => j.pex,
        Policy::MinimumLaxityFirst => j.deadline - j.pex,
    }
}

/// Pop order equals a stable sort by (class, key, arrival order).
#[test]
fn pop_order_is_stable_key_sort() {
    cases("pop_order_is_stable_key_sort", 256, |case| {
        let specs = job_specs(case);
        let policy_idx = case.int(0..4);
        let policy = Policy::ALL[policy_idx];
        let mut q = ReadyQueue::new(policy);
        let mut reference: Vec<(u8, f64, usize)> = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let mut job = Job::local(TaskId::new(i as u64), i as f64, s.pex, s.deadline);
            job.pex = s.pex;
            if s.elevated {
                job.priority = PriorityClass::Elevated;
            }
            reference.push((u8::from(!s.elevated), key(policy, &job), i));
            q.push(job);
        }
        reference.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let popped: Vec<usize> = drain(&mut q)
            .iter()
            .map(|j| j.enqueue_time as usize)
            .collect();
        let expect: Vec<usize> = reference.iter().map(|r| r.2).collect();
        assert_eq!(popped, expect);
    });
}

/// Interleaving pushes and pops never loses or duplicates a job.
#[test]
fn conservation_under_interleaving() {
    cases("conservation_under_interleaving", 256, |case| {
        let ops = case.vec(0..300, |c| (c.bool(), c.f64(0.0..50.0)));
        let policy_idx = case.int(0..4);
        let mut q = ReadyQueue::new(Policy::ALL[policy_idx]);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for (i, (push, dl)) in ops.iter().enumerate() {
            if *push {
                q.push(Job::local(TaskId::new(i as u64), 0.0, 1.0, *dl));
                pushed += 1;
            } else if q.pop().is_some() {
                popped += 1;
            }
        }
        popped += drain(&mut q).len() as u64;
        assert_eq!(pushed, popped);
        assert!(q.is_empty());
    });
}

/// Mass cancellation (a node crash wiping its queue): `purge_into`
/// returns every queued job exactly once in service order, leaves
/// the queue empty, and vacates every slab slot for verbatim reuse
/// — refilling to the same occupancy never grows the slab.
#[test]
fn purge_returns_all_jobs_and_frees_all_slots() {
    cases("purge_returns_all_jobs_and_frees_all_slots", 256, |case| {
        let specs = job_specs(case);
        let policy_idx = case.int(0..4);
        let policy = Policy::ALL[policy_idx];
        let mut q = ReadyQueue::new(policy);
        let mut twin = ReadyQueue::new(policy);
        for (i, s) in specs.iter().enumerate() {
            let mut job = Job::local(TaskId::new(i as u64), i as f64, s.pex, s.deadline);
            job.pex = s.pex;
            if s.elevated {
                job.priority = PriorityClass::Elevated;
            }
            q.push(job);
            twin.push(job);
        }
        let n = q.len();
        let capacity = q.slab_capacity();
        let mut purged = Vec::new();
        q.purge_into(&mut purged);
        assert_eq!(purged.len(), n, "every queued job purged exactly once");
        assert!(q.is_empty());
        // Service order: identical to what popping would have yielded.
        let drained = drain(&mut twin);
        let purged_ids: Vec<u64> = purged.iter().map(|j| j.enqueue_time as u64).collect();
        let drained_ids: Vec<u64> = drained.iter().map(|j| j.enqueue_time as u64).collect();
        assert_eq!(purged_ids, drained_ids, "purge order is service order");
        // Every slot is back on the free list: refilling to the same
        // occupancy reuses them without growing the slab.
        for job in purged {
            q.push(job);
        }
        assert_eq!(q.slab_capacity(), capacity, "purged slots must be reused");
    });
}

/// An elevated job is never popped after a normal job that was
/// already queued when it arrived.
#[test]
fn elevated_jobs_never_wait_behind_normals() {
    cases("elevated_jobs_never_wait_behind_normals", 256, |case| {
        let specs = job_specs(case);
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        for (i, s) in specs.iter().enumerate() {
            let mut job = Job::local(TaskId::new(i as u64), 0.0, 1.0, s.deadline);
            if s.elevated {
                job.priority = PriorityClass::Elevated;
            }
            q.push(job);
        }
        let order = drain(&mut q);
        let first_normal = order
            .iter()
            .position(|j| j.priority == PriorityClass::Normal);
        if let Some(fn_idx) = first_normal {
            for j in &order[fn_idx..] {
                assert_eq!(
                    j.priority,
                    PriorityClass::Normal,
                    "elevated job after a normal one"
                );
            }
        }
    });
}
