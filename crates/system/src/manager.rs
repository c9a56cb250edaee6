//! The process manager's records: lifecycle traces, the pooled per-task
//! runtime, the generation-stamped slab that holds in-flight global
//! tasks and the miss-pressure estimate that `ADAPT` reads.
//! [`SystemModel`](crate::SystemModel) is the process manager of paper
//! §3.2 and drives all four.

use std::ops::{Index, IndexMut};

use sda_core::{DagRun, DeadlineAssigner, FlatRun, NodeId, Submission, SubtaskRef, TaskId};
use sda_workload::GlobalShape;

/// One record of a traced global task's lifecycle. Enable tracing with
/// [`SystemModel::set_trace_tasks`](crate::SystemModel::set_trace_tasks);
/// traces show exactly which virtual deadlines the strategy assigned and
/// when each precedence step fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A traced global task arrived.
    Arrival {
        /// The task.
        task: TaskId,
        /// Arrival time.
        time: f64,
        /// End-to-end deadline.
        deadline: f64,
    },
    /// A subtask of a traced task was submitted to its node.
    Submitted {
        /// The owning task.
        task: TaskId,
        /// Submission time.
        time: f64,
        /// Destination node.
        node: NodeId,
        /// The assigned virtual deadline.
        deadline: f64,
    },
    /// A subtask of a traced task completed service.
    SubtaskDone {
        /// The owning task.
        task: TaskId,
        /// Completion time.
        time: f64,
        /// The node that served it.
        node: NodeId,
        /// Whether the subtask finished after its virtual deadline.
        virtual_miss: bool,
    },
    /// A traced task finished.
    Finished {
        /// The task.
        task: TaskId,
        /// Completion time.
        time: f64,
        /// Whether the end-to-end deadline was missed.
        missed: bool,
    },
    /// A traced task was killed by the firm-deadline policy.
    Aborted {
        /// The task.
        task: TaskId,
        /// Abort time.
        time: f64,
    },
}

/// The pooled per-task runtime: the stage-structured hot path
/// ([`FlatRun`]) for the paper's tree shapes, or the precedence-DAG
/// runtime ([`DagRun`]) for [`GlobalShape::Dag`] workloads. A slab only
/// ever holds one variant (the shape is fixed per configuration), so a
/// recycled slot's variant — and its grown capacity — is stable across
/// reuse.
#[derive(Debug)]
pub enum PooledRun {
    /// Stage-structured task (serial chains, fans, pipelines of fans).
    Flat(FlatRun),
    /// DAG-structured task (arbitrary fan-out/fan-in).
    Dag(DagRun),
}

// The methods here and on `TaskSlab` are `#[inline]`: the model's
// handlers call them from another module, often another codegen unit,
// where without the hint they stay out-of-line calls that measurably
// slow the simulator's event loop.
impl PooledRun {
    #[inline]
    pub(crate) fn set_expected_comm(&mut self, per_hop: f64) {
        match self {
            PooledRun::Flat(run) => run.set_expected_comm(per_hop),
            PooledRun::Dag(run) => run.set_expected_comm(per_hop),
        }
    }

    #[inline]
    pub(crate) fn set_slack_scale(&mut self, scale: f64) {
        match self {
            PooledRun::Flat(run) => run.set_slack_scale(scale),
            PooledRun::Dag(run) => run.set_slack_scale(scale),
        }
    }

    /// The task's arrival instant.
    #[inline]
    pub fn arrival(&self) -> f64 {
        match self {
            PooledRun::Flat(run) => run.arrival(),
            PooledRun::Dag(run) => run.arrival(),
        }
    }

    #[inline]
    pub(crate) fn global_deadline(&self) -> f64 {
        match self {
            PooledRun::Flat(run) => run.global_deadline(),
            PooledRun::Dag(run) => run.global_deadline(),
        }
    }

    #[inline]
    pub(crate) fn start<A: DeadlineAssigner + ?Sized>(
        &mut self,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        match self {
            PooledRun::Flat(run) => run.start(strategy, now, out),
            PooledRun::Dag(run) => run.start(strategy, now, out),
        }
    }

    #[inline]
    pub(crate) fn complete<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) -> bool {
        match self {
            PooledRun::Flat(run) => run.complete(subtask, strategy, now, out),
            PooledRun::Dag(run) => run.complete(subtask, strategy, now, out),
        }
    }

    #[inline]
    pub(crate) fn reissue<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        match self {
            PooledRun::Flat(run) => run.reissue(subtask, strategy, now, out),
            PooledRun::Dag(run) => run.reissue(subtask, strategy, now, out),
        }
    }
}

/// One slot of the task slab.
///
/// A vacated slot keeps its [`PooledRun`] (and the run keeps its vector
/// capacity), so recycling a slot for the next arriving task allocates
/// nothing.
#[derive(Debug)]
pub(crate) struct TaskSlot {
    /// Bumped on every release; a [`TaskId`] carrying an older
    /// generation no longer resolves to this slot.
    gen: u32,
    /// Whether the slot currently holds an in-flight task.
    live: bool,
    /// The pooled runtime state (retains capacity across reuse).
    pub(crate) run: PooledRun,
    /// Set under the firm-deadline policy when any subtask is discarded;
    /// the task is finished as missed, submits nothing further, and its
    /// in-flight hand-offs are dropped on arrival.
    pub(crate) aborted: bool,
    /// Set when the re-dispatch path gives the task up (retry budget
    /// spent or the whole fleet down). Like `aborted`, the task is a
    /// terminal miss and submits nothing further — but hand-offs already
    /// in flight still *execute* (the abandon decision cannot outrun
    /// work already on the wire); their completions are swallowed.
    pub(crate) abandoned: bool,
    /// Jobs of this task currently queued, in service or in transit.
    pub(crate) outstanding: u32,
    /// How many of this task's subtasks were re-dispatched after a loss
    /// (crashed node or hand-off to a down node).
    pub(crate) retries: u32,
}

/// The generation-stamped slab of in-flight global tasks. A [`TaskId`]
/// packs `(generation, slot)`, so a lookup is O(1) array indexing, and
/// every release bumps the slot's generation, so a stale id misses
/// cleanly.
#[derive(Debug)]
pub(crate) struct TaskSlab {
    /// Whether fresh slots hold a [`DagRun`] rather than a [`FlatRun`].
    dag: bool,
    slots: Vec<TaskSlot>,
    /// Vacant slots available for reuse.
    free: Vec<u32>,
}

impl TaskSlab {
    /// An empty slab for tasks of `shape`.
    pub(crate) fn new(shape: &GlobalShape) -> TaskSlab {
        TaskSlab {
            dag: matches!(shape, GlobalShape::Dag { .. }),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of global tasks in flight.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Claims a (possibly recycled) slot with no jobs outstanding; its
    /// pooled run keeps whatever capacity earlier occupants grew.
    /// Returns the new task's id and its slot.
    #[inline]
    pub(crate) fn acquire(&mut self) -> (TaskId, usize) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX in-flight global tasks");
                self.slots.push(TaskSlot {
                    gen: 0,
                    live: false,
                    run: if self.dag {
                        PooledRun::Dag(DagRun::new())
                    } else {
                        PooledRun::Flat(FlatRun::new())
                    },
                    aborted: false,
                    abandoned: false,
                    outstanding: 0,
                    retries: 0,
                });
                slot
            }
        };
        let entry = &mut self.slots[slot as usize];
        debug_assert!(!entry.live, "free list pointed at a live slot");
        entry.live = true;
        entry.aborted = false;
        entry.abandoned = false;
        entry.outstanding = 0;
        entry.retries = 0;
        let id = TaskId::new((u64::from(entry.gen) << 32) | u64::from(slot));
        (id, slot as usize)
    }

    /// Vacates a slot: bumps its generation (invalidating outstanding
    /// ids) and returns it to the free list. The pooled run stays put for
    /// the next occupant.
    #[inline]
    pub(crate) fn release(&mut self, slot: usize) {
        let entry = &mut self.slots[slot];
        debug_assert!(entry.live, "double release of a task slot");
        entry.live = false;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(slot as u32);
    }

    /// Settles one of `slot`'s jobs that ended without advancing its
    /// task, and vacates the slot once no job is left.
    #[inline]
    pub(crate) fn settle(&mut self, slot: usize) {
        let entry = &mut self.slots[slot];
        entry.outstanding -= 1;
        if entry.outstanding == 0 {
            self.release(slot);
        }
    }

    /// Resolves a global [`TaskId`] to its live slot, `None` if the task
    /// has already finished or aborted (stale id).
    #[inline]
    pub(crate) fn lookup(&self, id: TaskId) -> Option<usize> {
        let raw = id.raw();
        let slot = (raw & u64::from(u32::MAX)) as usize;
        let gen = (raw >> 32) as u32;
        match self.slots.get(slot) {
            Some(entry) if entry.live && entry.gen == gen => Some(slot),
            _ => None,
        }
    }
}

impl Index<usize> for TaskSlab {
    type Output = TaskSlot;

    #[inline]
    fn index(&self, slot: usize) -> &TaskSlot {
        &self.slots[slot]
    }
}

impl IndexMut<usize> for TaskSlab {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut TaskSlot {
        &mut self.slots[slot]
    }
}

/// The windowed miss-ratio estimator feeding the `ADAPT(base)` strategy
/// wrapper (see [`AdaptiveSlack`](sda_core::AdaptiveSlack)).
///
/// An exponentially weighted moving average of the per-completion miss
/// indicator, updated on every terminal task event — local completions
/// and discards, global finishes and aborts — so it tracks *system-wide*
/// deadline pressure. Each update is O(1) with no allocation, making the
/// estimator safe in the allocation-free steady-state loop.
///
/// Weight decays by `1 − ALPHA` per observation, so `ALPHA = 0.02`
/// averages roughly the last 50 completions — long enough to debounce
/// individual misses, short enough to react to an MMPP burst within a
/// fraction of a dwell.
///
/// It is a *control* signal, not a measurement, so it is not part of
/// [`Metrics`](crate::Metrics): the model keeps it beside the strategy
/// that reads it, and the warm-up deletion leaves it running so the
/// control loop does not jump at the warm-up boundary.
#[derive(Debug, Default)]
pub(crate) struct Feedback {
    ewma: f64,
}

impl Feedback {
    /// The smoothing factor (≈ 50-completion window).
    const ALPHA: f64 = 0.02;

    /// Folds one terminal task event into the estimate. O(1), no
    /// allocation.
    #[inline]
    pub(crate) fn observe(&mut self, missed: bool) {
        let x = if missed { 1.0 } else { 0.0 };
        self.ewma += Self::ALPHA * (x - self.ewma);
    }

    /// The current miss pressure in `[0, 1]` (0 before any observation —
    /// a fresh system is presumed calm, so `ADAPT` starts at the
    /// open-loop semantics).
    #[inline]
    pub(crate) fn pressure(&self) -> f64 {
        self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_ewma_tracks_miss_runs() {
        let mut f = Feedback::default();
        assert_eq!(f.pressure(), 0.0, "fresh estimator is calm");
        for _ in 0..500 {
            f.observe(true);
        }
        assert!(
            f.pressure() > 0.99,
            "sustained misses saturate: {}",
            f.pressure()
        );
        for _ in 0..500 {
            f.observe(false);
        }
        assert!(
            f.pressure() < 0.01,
            "sustained hits decay: {}",
            f.pressure()
        );
    }
}
