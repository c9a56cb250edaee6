//! # sda-sched — non-preemptive local real-time schedulers
//!
//! Each node of the paper's system model runs its own scheduler over a
//! single server, with **no preemption** and no cross-node coordination
//! (§3.2, §4.1). This crate provides the ready-queue disciplines the
//! paper's experiments use:
//!
//! * **earliest-deadline-first** (the baseline local policy),
//! * **minimum-laxity-first** (§4.3's robustness variant),
//! * FCFS and shortest-job-first for calibration and comparison.
//!
//! All disciplines respect the two-level class priority of the
//! Globals First (GF) strategy: jobs whose
//! [`PriorityClass`](sda_core::PriorityClass) is `Elevated` are served
//! strictly before `Normal` jobs, with the discipline's own order
//! preserved *within* each class (paper §5.1). When no elevated jobs
//! exist — every non-GF experiment — this is exactly the plain
//! discipline.
//!
//! ```
//! use sda_sched::{Job, Policy, ReadyQueue};
//! use sda_core::TaskId;
//!
//! let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
//! q.push(Job::local(TaskId::new(1), 0.0, 1.0, 9.0));
//! q.push(Job::local(TaskId::new(2), 0.0, 1.0, 4.0));
//! assert_eq!(q.pop().unwrap().deadline, 4.0); // earlier deadline first
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod job;
mod queue;

pub use job::{Job, JobOrigin};
pub use queue::{Policy, ReadyQueue};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// The live service (`sda-service`) moves each node's scheduler
    /// state — its [`ReadyQueue`] and the [`Job`]s inside — onto that
    /// node's worker thread, and sends jobs between threads over
    /// channels. Pin the `Send`/`Sync` auto-traits so a future field (an
    /// `Rc`, a raw pointer, a thread-bound cache) can't silently make
    /// node state unshippable and break the wall-clock runtime at a
    /// distance.
    #[test]
    fn scheduler_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Job>();
        assert_send_sync::<JobOrigin>();
        assert_send_sync::<Policy>();
        assert_send_sync::<ReadyQueue>();
    }
}
