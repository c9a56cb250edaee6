//! The unit of work a node's scheduler manages.

use sda_core::{PriorityClass, SubtaskRef, TaskClass, TaskId};

/// Where a job came from: a node-local task, or one subtask of a global
/// task (in which case it carries the reference the process manager needs
/// to advance the task's precedence graph on completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobOrigin {
    /// Generated at this node; lives and dies here.
    Local {
        /// The owning local task.
        task: TaskId,
    },
    /// One simple subtask of a global task.
    Global {
        /// The owning global task.
        task: TaskId,
        /// Which subtask within the task's
        /// [`FlatRun`](sda_core::FlatRun) or [`DagRun`](sda_core::DagRun).
        subtask: SubtaskRef,
    },
}

impl JobOrigin {
    /// The owning task's id, regardless of class.
    pub fn task(&self) -> TaskId {
        match *self {
            JobOrigin::Local { task } | JobOrigin::Global { task, .. } => task,
        }
    }

    /// The task class this origin implies.
    pub fn class(&self) -> TaskClass {
        match self {
            JobOrigin::Local { .. } => TaskClass::Local,
            JobOrigin::Global { .. } => TaskClass::Global,
        }
    }
}

/// One schedulable unit of work at a node.
///
/// `deadline` is the *virtual* deadline assigned by the SDA strategy (for
/// global subtasks) or the natural deadline (for local tasks); the
/// scheduler never sees anything else — that is the whole point of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Origin (local task or global subtask) with owning-task bookkeeping.
    pub origin: JobOrigin,
    /// Scheduling class; `Elevated` under GF.
    pub priority: PriorityClass,
    /// Arrival time at this node's queue.
    pub enqueue_time: f64,
    /// Real service demand (simulation-only knowledge).
    pub service: f64,
    /// Predicted service demand; what MLF/SJF may consult.
    pub pex: f64,
    /// Virtual (or natural) absolute deadline used for ordering.
    pub deadline: f64,
}

impl Job {
    /// Convenience constructor for a local task's job with perfect
    /// prediction and normal priority.
    pub fn local(task: TaskId, enqueue_time: f64, service: f64, deadline: f64) -> Job {
        Job {
            origin: JobOrigin::Local { task },
            priority: PriorityClass::Normal,
            enqueue_time,
            service,
            pex: service,
            deadline,
        }
    }

    /// Convenience constructor for a global subtask's job.
    pub fn global(
        task: TaskId,
        subtask: SubtaskRef,
        enqueue_time: f64,
        service: f64,
        pex: f64,
        deadline: f64,
        priority: PriorityClass,
    ) -> Job {
        Job {
            origin: JobOrigin::Global { task, subtask },
            priority,
            enqueue_time,
            service,
            pex,
            deadline,
        }
    }

    /// The task class of the owning task.
    pub fn class(&self) -> TaskClass {
        self.origin.class()
    }

    /// Laxity at time `now`: `deadline − now − pex`. Negative laxity
    /// means the job cannot (predictedly) finish in time even if started
    /// immediately.
    pub fn laxity(&self, now: f64) -> f64 {
        self.deadline - now - self.pex
    }

    /// Whether the job's deadline has already passed at `now`.
    pub fn is_tardy(&self, now: f64) -> bool {
        now > self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_accessors() {
        let local = JobOrigin::Local {
            task: TaskId::new(7),
        };
        assert_eq!(local.task(), TaskId::new(7));
        assert_eq!(local.class(), TaskClass::Local);
    }

    #[test]
    fn local_constructor_defaults() {
        let j = Job::local(TaskId::new(1), 2.0, 1.5, 9.0);
        assert_eq!(j.class(), TaskClass::Local);
        assert_eq!(j.priority, PriorityClass::Normal);
        assert_eq!(j.pex, 1.5, "perfect prediction by default");
    }

    #[test]
    fn laxity_and_tardiness() {
        let j = Job::local(TaskId::new(1), 0.0, 2.0, 10.0);
        assert_eq!(j.laxity(0.0), 8.0);
        assert_eq!(j.laxity(9.0), -1.0);
        assert!(!j.is_tardy(10.0));
        assert!(j.is_tardy(10.1));
    }
}
