//! The process manager of paper §3.2: admits global tasks, assigns
//! virtual subtask deadlines through the configured
//! [`DeadlineAssigner`], enforces precedence, and keeps the metrics.
//!
//! [`ProcessManager`] is clock- and transport-agnostic: every operation
//! takes the current time and writes any submission wave to a
//! caller-provided buffer, so the caller decides how hand-offs travel.
//! Its one caller, [`SystemModel`](crate::SystemModel), routes them
//! through its future-event list and network model, both in the
//! simulator and in the live service, which runs that same model on a
//! wall clock.

use std::collections::BTreeSet;

use sda_core::{
    DagRun, DeadlineAssigner, FlatRun, NodeId, SdaStrategy, Submission, SubtaskRef, TaskId,
};
use sda_sched::{Job, JobOrigin};
use sda_workload::GlobalShape;

use crate::config::SystemConfig;
use crate::metrics::Metrics;

/// How many times a global task's lost subtask is re-dispatched before
/// the process manager gives the task up as
/// [`abandoned`](crate::Metrics::abandoned_globals). Counted per task,
/// not per subtask, so a task repeatedly caught on crashing nodes
/// terminates.
const MAX_REDISPATCH: u32 = 3;

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
/// runtime ([`DagRun`]) for [`GlobalShape::Dag`] workloads. A manager
/// only ever uses one variant (the shape is fixed per configuration),
/// so a recycled slot's variant — and its grown capacity — is stable
/// across reuse. Admission hands the slot's run to the caller to fill
/// with the arriving task.
#[derive(Debug)]
pub enum PooledRun {
    /// Stage-structured task (serial chains, fans, pipelines of fans).
    Flat(FlatRun),
    /// DAG-structured task (arbitrary fan-out/fan-in).
    Dag(DagRun),
}

impl PooledRun {
    #[inline]
    fn set_expected_comm(&mut self, per_hop: f64) {
        match self {
            PooledRun::Flat(run) => run.set_expected_comm(per_hop),
            PooledRun::Dag(run) => run.set_expected_comm(per_hop),
        }
    }

    #[inline]
    fn set_slack_scale(&mut self, scale: f64) {
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
    fn global_deadline(&self) -> f64 {
        match self {
            PooledRun::Flat(run) => run.global_deadline(),
            PooledRun::Dag(run) => run.global_deadline(),
        }
    }

    #[inline]
    fn start<A: DeadlineAssigner + ?Sized>(
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
    fn complete<A: DeadlineAssigner + ?Sized>(
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
    fn reissue<A: DeadlineAssigner + ?Sized>(
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

/// One slot of the process manager's task slab.
///
/// A vacated slot keeps its [`PooledRun`] (and the run keeps its vector
/// capacity), so recycling a slot for the next arriving task allocates
/// nothing. The generation stamp makes stale [`TaskId`]s miss cleanly:
/// a task id packs `(generation, slot)`, and every release bumps the
/// slot's generation.
#[derive(Debug)]
struct TaskSlot {
    /// Bumped on every release; a [`TaskId`] carrying an older
    /// generation no longer resolves to this slot.
    gen: u32,
    /// Whether the slot currently holds an in-flight task.
    live: bool,
    /// The pooled runtime state (retains capacity across reuse).
    run: PooledRun,
    /// Set under the firm-deadline policy when any subtask is discarded;
    /// the task is finished as missed, submits nothing further, and its
    /// in-flight hand-offs are dropped on arrival.
    aborted: bool,
    /// Set when the re-dispatch path gives the task up (retry budget
    /// spent or the whole fleet down). Like `aborted`, the task is a
    /// terminal miss and submits nothing further — but hand-offs already
    /// in flight still *execute* (the abandon decision cannot outrun
    /// work already on the wire); their completions are swallowed here.
    abandoned: bool,
    /// Jobs of this task currently queued, in service or in transit.
    outstanding: u32,
    /// How many of this task's subtasks were re-dispatched after a loss
    /// (crashed node or hand-off to a down node); capped at
    /// [`MAX_REDISPATCH`], beyond which the task is abandoned.
    retries: u32,
}

/// Packs a slab position into a [`TaskId`]: generation above, slot below.
#[inline]
fn global_task_id(gen: u32, slot: u32) -> TaskId {
    TaskId::new((u64::from(gen) << 32) | u64::from(slot))
}

/// What a global subtask's completion led to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubtaskOutcome {
    /// The task's last subtask finished. The result is on its way to the
    /// process manager; call [`ProcessManager::finish`] when it arrives.
    Finished,
    /// The task continues: the follow-up wave was written to the
    /// caller's buffer and is already counted as outstanding.
    Progressed,
    /// The task was already aborted or abandoned; the completion was
    /// swallowed.
    Swallowed,
}

/// The paper's process manager: a generation-stamped slab of in-flight
/// global tasks, the deadline-assignment strategy, the ADAPT feedback
/// read points and the run's [`Metrics`].
///
/// A runtime calls [`admit`](ProcessManager::admit) on a global arrival,
/// [`local_done`](ProcessManager::local_done) and
/// [`subtask_done`](ProcessManager::subtask_done) on completions,
/// [`finish`](ProcessManager::finish) when a finished task's result
/// reaches the manager, [`job_discarded`](ProcessManager::job_discarded)
/// on admission-policy discards and
/// [`reset_metrics`](ProcessManager::reset_metrics) at the end of
/// warm-up. The returned outcomes tell the runtime what to deliver next.
#[derive(Debug)]
pub(crate) struct ProcessManager {
    strategy: SdaStrategy,
    /// Expected per-hop transit time, stamped onto every admitted run so
    /// deadline assignment reserves slack for communication.
    hop_comm: f64,
    /// Whether the configured shape is [`GlobalShape::Dag`] — selects
    /// which [`PooledRun`] variant fresh slots are built with.
    dag_tasks: bool,
    /// Generation-stamped slab of in-flight global tasks; [`TaskId`]s
    /// index it directly.
    tasks: Vec<TaskSlot>,
    /// Vacant slab slots available for reuse.
    task_free: Vec<u32>,
    /// Number of live slots in `tasks`.
    in_flight: usize,
    /// Id counter for local tasks (globals get slab-derived ids).
    next_local_id: u64,
    metrics: Metrics,
    /// How many more global tasks may start tracing.
    trace_budget: u64,
    /// Ids of global tasks currently being traced.
    trace_ids: BTreeSet<u64>,
    trace: Vec<TraceEvent>,
}

// The per-event methods here and on `PooledRun` are `#[inline]`: the
// simulator's handlers call them from another module, often another
// codegen unit, where without the hint they stay out-of-line calls that
// measurably slow the simulator's event loop.
impl ProcessManager {
    /// An empty manager for `config`'s strategy, task shape and network
    /// model.
    pub fn new(config: &SystemConfig) -> ProcessManager {
        ProcessManager {
            strategy: config.strategy,
            hop_comm: config.network.expected_hop_delay(),
            dag_tasks: matches!(config.workload.shape, GlobalShape::Dag { .. }),
            tasks: Vec::new(),
            task_free: Vec::new(),
            in_flight: 0,
            next_local_id: 0,
            metrics: Metrics::new(),
            trace_budget: 0,
            trace_ids: BTreeSet::new(),
            trace: Vec::new(),
        }
    }

    /// Collected metrics (so far).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of global tasks currently in flight.
    pub fn tasks_in_flight(&self) -> usize {
        self.in_flight
    }

    /// Warm-up deletion: every metric restarts; the ADAPT feedback
    /// estimator is control state and survives.
    pub(crate) fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Enables lifecycle tracing for the next `n` global tasks to arrive.
    pub(crate) fn set_trace_tasks(&mut self, n: u64) {
        self.trace_budget = n;
    }

    /// The recorded trace events, in occurrence order.
    pub(crate) fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    #[inline]
    fn traced(&self, task: TaskId) -> bool {
        !self.trace_ids.is_empty() && self.trace_ids.contains(&task.raw())
    }

    /// Records that a subtask of `task` reached its node at `time`.
    #[inline]
    pub(crate) fn note_submitted(&mut self, task: TaskId, time: f64, sub: &Submission) {
        if self.traced(task) {
            self.trace.push(TraceEvent::Submitted {
                task,
                time,
                node: sub.node,
                deadline: sub.deadline,
            });
        }
    }

    /// Records one hand-off's transit time.
    #[inline]
    pub(crate) fn record_transit(&mut self, delay: f64) {
        self.metrics.transit.add(delay);
    }

    /// A fresh id for a local task.
    #[inline]
    pub(crate) fn fresh_local_id(&mut self) -> TaskId {
        let id = TaskId::new(self.next_local_id);
        self.next_local_id += 1;
        id
    }

    /// The slack-share multiplier an `ADAPT(base)` strategy applies at
    /// the next stage activation: the live miss-pressure estimate mapped
    /// through the wrapper's gain/floor. Exactly `1.0` (the bit-identical
    /// neutral element) for open-loop strategies.
    #[inline]
    fn adapt_scale(&self) -> f64 {
        match self.strategy.adapt {
            Some(adapt) => adapt.scale(self.metrics.feedback.pressure()),
            None => 1.0,
        }
    }

    /// Claims a (possibly recycled) task slot; its pooled run keeps
    /// whatever capacity earlier occupants grew.
    #[inline]
    fn acquire_task_slot(&mut self) -> u32 {
        let slot = match self.task_free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.tasks.len())
                    .expect("more than u32::MAX in-flight global tasks");
                self.tasks.push(TaskSlot {
                    gen: 0,
                    live: false,
                    run: if self.dag_tasks {
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
        let entry = &mut self.tasks[slot as usize];
        debug_assert!(!entry.live, "free list pointed at a live slot");
        entry.live = true;
        entry.aborted = false;
        entry.abandoned = false;
        entry.outstanding = 0;
        entry.retries = 0;
        self.in_flight += 1;
        slot
    }

    /// Vacates a slot: bumps its generation (invalidating outstanding
    /// ids) and returns it to the free list. The pooled run stays put for
    /// the next occupant.
    #[inline]
    fn release_task_slot(&mut self, slot: usize) {
        let entry = &mut self.tasks[slot];
        debug_assert!(entry.live, "double release of a task slot");
        entry.live = false;
        entry.gen = entry.gen.wrapping_add(1);
        self.task_free.push(slot as u32);
        self.in_flight -= 1;
    }

    /// Resolves a global [`TaskId`] to its live slab slot, `None` if the
    /// task has already finished or aborted (stale id).
    #[inline]
    fn lookup_task(&self, id: TaskId) -> Option<usize> {
        let raw = id.raw();
        let slot = (raw & u64::from(u32::MAX)) as usize;
        let gen = (raw >> 32) as u32;
        match self.tasks.get(slot) {
            Some(entry) if entry.live && entry.gen == gen => Some(slot),
            _ => None,
        }
    }

    /// Admits a global task arriving at `now`: claims a slot, lets
    /// `fill` write the task into the slot's pooled run, stamps the
    /// expected communication and the ADAPT slack scale, and writes the
    /// strategy's initial submission wave to `out` (cleared first). The
    /// wave's jobs count as outstanding from here on.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        now: f64,
        fill: impl FnOnce(&mut PooledRun),
        out: &mut Vec<Submission>,
    ) -> TaskId {
        let scale = self.adapt_scale();
        let slot = self.acquire_task_slot();
        let entry = &mut self.tasks[slot as usize];
        fill(&mut entry.run);
        entry.run.set_expected_comm(self.hop_comm);
        entry.run.set_slack_scale(scale);
        let id = global_task_id(entry.gen, slot);
        if self.trace_budget > 0 {
            self.trace_budget -= 1;
            self.trace_ids.insert(id.raw());
            self.trace.push(TraceEvent::Arrival {
                task: id,
                time: now,
                deadline: self.tasks[slot as usize].run.global_deadline(),
            });
        }
        out.clear();
        let entry = &mut self.tasks[slot as usize];
        entry.run.start(&self.strategy, now, out);
        entry.outstanding = out.len() as u32;
        id
    }

    /// Accounts a local job completed at `now`.
    #[inline]
    pub(crate) fn local_done(&mut self, job: &Job, now: f64) {
        self.metrics
            .local
            .record(job.enqueue_time, job.deadline, now);
        self.metrics.feedback.observe(now > job.deadline);
    }

    /// Accounts a local task lost to a down node: a terminal miss with
    /// no response observation.
    #[inline]
    pub(crate) fn local_lost(&mut self) {
        self.metrics.local.record_aborted();
        self.metrics.lost_locals += 1;
        self.metrics.feedback.observe(true);
    }

    /// Accounts a global subtask that completed service at `node` at
    /// `now`. On [`SubtaskOutcome::Progressed`] the follow-up wave is in
    /// `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `job` is a local job.
    #[inline]
    pub(crate) fn subtask_done(
        &mut self,
        job: &Job,
        node: NodeId,
        now: f64,
        out: &mut Vec<Submission>,
    ) -> SubtaskOutcome {
        let JobOrigin::Global { task, subtask } = job.origin else {
            panic!("subtask_done on a local job");
        };
        let virtual_miss = now > job.deadline;
        self.metrics.subtask_virtual_miss.record(virtual_miss);
        if self.traced(task) {
            self.trace.push(TraceEvent::SubtaskDone {
                task,
                time: now,
                node,
                virtual_miss,
            });
        }
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "completion for unknown task {task}");
            return SubtaskOutcome::Swallowed;
        };
        let scale = self.adapt_scale();
        let entry = &mut self.tasks[slot];
        entry.outstanding -= 1;
        if entry.aborted || entry.abandoned {
            if entry.outstanding == 0 {
                self.release_task_slot(slot);
            }
            return SubtaskOutcome::Swallowed;
        }
        // Refresh the feedback stamp so the *next* stage's deadline
        // reflects the current miss pressure, not the pressure at the
        // task's arrival.
        entry.run.set_slack_scale(scale);
        out.clear();
        if entry.run.complete(subtask, &self.strategy, now, out) {
            SubtaskOutcome::Finished
        } else {
            entry.outstanding += out.len() as u32;
            SubtaskOutcome::Progressed
        }
    }

    /// Records a finished global task at `now` — its completion time at
    /// the process manager — and vacates its slot.
    #[inline]
    pub fn finish(&mut self, task: TaskId, now: f64) {
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "result for unknown task {task}");
            return;
        };
        let run = &self.tasks[slot].run;
        let (arrival, deadline) = (run.arrival(), run.global_deadline());
        let missed = now > deadline;
        self.metrics.global.record(arrival, deadline, now);
        self.metrics.feedback.observe(missed);
        self.release_task_slot(slot);
        if self.traced(task) {
            self.trace.push(TraceEvent::Finished {
                task,
                time: now,
                missed,
            });
        }
    }

    /// Accounts a job the firm-deadline policy discarded at `now`. The
    /// first discard of a global task aborts it.
    #[inline]
    pub(crate) fn job_discarded(&mut self, now: f64, job: &Job) {
        match job.origin {
            JobOrigin::Local { .. } => {
                self.metrics.local.record_aborted();
                self.metrics.aborted_locals += 1;
                self.metrics.feedback.observe(true);
            }
            JobOrigin::Global { task, .. } => {
                self.metrics.subtask_virtual_miss.record(true);
                let traced = self.traced(task);
                let Some(slot) = self.lookup_task(task) else {
                    return;
                };
                let entry = &mut self.tasks[slot];
                entry.outstanding -= 1;
                let outstanding = entry.outstanding;
                if !entry.aborted && !entry.abandoned {
                    entry.aborted = true;
                    self.metrics.global.record_aborted();
                    self.metrics.aborted_globals += 1;
                    self.metrics.feedback.observe(true);
                    if traced {
                        self.trace.push(TraceEvent::Aborted { task, time: now });
                    }
                }
                if outstanding == 0 {
                    self.release_task_slot(slot);
                }
            }
        }
    }

    /// A hand-off of `task` reaches its node: returns whether it is
    /// still to be delivered. A hand-off of a task aborted while it was
    /// in flight is dropped here.
    #[inline]
    pub(crate) fn handoff_arrives(&mut self, task: TaskId) -> bool {
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "hand-off for unknown task {task}");
            return false;
        };
        let entry = &mut self.tasks[slot];
        if !entry.aborted {
            return true;
        }
        entry.outstanding -= 1;
        if entry.outstanding == 0 {
            self.release_task_slot(slot);
        }
        false
    }

    /// Recovery path for one lost global-subtask copy at `now`: counts
    /// the loss, re-decomposes the *remaining* deadline budget over the
    /// residual precedence structure — through the same
    /// [`DeadlineAssigner`] interface the strategy uses everywhere else,
    /// so UD/ED/EQS/EQF/DIV-x/GF/ADAPT all shape the recovery window —
    /// and writes the replacement submission to `out`, re-placed by
    /// `relocate`. Given the original node, `relocate` returns the
    /// replacement node and the ratio of the original node's speed to
    /// the replacement's, or `None` when no node is up. Returns whether
    /// a replacement was written; once the task's retry budget
    /// ([`MAX_REDISPATCH`]) is spent, or `relocate` finds no node, the
    /// task is abandoned instead.
    pub(crate) fn reissue(
        &mut self,
        task: TaskId,
        subtask: SubtaskRef,
        now: f64,
        relocate: impl FnOnce(NodeId) -> Option<(NodeId, f64)>,
        out: &mut Vec<Submission>,
    ) -> bool {
        self.metrics.lost_subtasks += 1;
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "loss for unknown task {task}");
            return false;
        };
        let traced = self.traced(task);
        let scale = self.adapt_scale();
        let entry = &mut self.tasks[slot];
        entry.outstanding -= 1;
        if entry.aborted || entry.abandoned {
            if entry.outstanding == 0 {
                self.release_task_slot(slot);
            }
            return false;
        }
        if entry.retries >= MAX_REDISPATCH {
            self.abandon(now, slot, task, traced);
            return false;
        }
        entry.retries += 1;
        entry.run.set_slack_scale(scale);
        out.clear();
        entry.run.reissue(subtask, &self.strategy, now, out);
        debug_assert_eq!(out.len(), 1, "reissue yields one submission");
        let Some((target, ratio)) = relocate(out[0].node) else {
            self.abandon(now, slot, task, traced);
            return false;
        };
        // The run stores demands in the original node's service units;
        // re-express them for the replacement node's speed.
        let sub = &mut out[0];
        sub.node = target;
        sub.ex *= ratio;
        sub.pex *= ratio;
        self.tasks[slot].outstanding += 1;
        self.metrics.redispatches += 1;
        true
    }

    /// Terminal give-up for a task whose lost work cannot be re-placed:
    /// a miss with no response observation (like a firm-deadline abort),
    /// counted separately as
    /// [`abandoned`](crate::Metrics::abandoned_globals). Unlike an
    /// abort, hand-offs of the task already in flight still deliver and
    /// execute — the give-up decision cannot outrun work on the wire —
    /// and their completions are swallowed by
    /// [`ProcessManager::subtask_done`]. The caller has already settled
    /// the lost copy's `outstanding` decrement.
    fn abandon(&mut self, now: f64, slot: usize, task: TaskId, traced: bool) {
        let entry = &mut self.tasks[slot];
        debug_assert!(
            !entry.aborted && !entry.abandoned,
            "abandon of an already-dead task"
        );
        entry.abandoned = true;
        let outstanding = entry.outstanding;
        self.metrics.global.record_aborted();
        self.metrics.abandoned_globals += 1;
        self.metrics.feedback.observe(true);
        if traced {
            self.trace.push(TraceEvent::Aborted { task, time: now });
        }
        if outstanding == 0 {
            self.release_task_slot(slot);
        }
    }
}
