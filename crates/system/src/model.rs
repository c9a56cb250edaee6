//! The executable system model: the process manager of paper §3.2
//! (admission, virtual-deadline assignment, precedence, recovery) with
//! the events, arrivals, dispatching, network and failure timeline
//! around it.
//!
//! The steady-state loop is allocation-free: global tasks live in a
//! generation-stamped [`TaskSlab`] of pooled runs, with no per-arrival
//! `TaskSpec`/`TaskRun` allocation and no `HashMap` lookups (a [`TaskId`]
//! carries its slot index, so submit/complete/abort are O(1) array
//! indexing); submissions and admission discards go through reusable
//! buffers, and jobs stay resident in each node's queue slab across
//! dispatch and preemption. Every completion asks its task's run for the
//! next submittable wave — a serial hand-off, a fan-out, or (for DAGs)
//! an arbitrary fan-in that releases only when its last predecessor
//! finishes — and every hand-off crosses the
//! [`NetworkModel`](crate::NetworkModel) like any other.

use std::collections::BTreeSet;

use sda_core::{NodeId, Submission, SubtaskRef, TaskId};
use sda_sched::{Job, JobOrigin};
use sda_sim::rng::{RngFactory, Stream};
use sda_sim::{Context, SimTime, Simulation};
use sda_workload::{ConfigError, LocalTask, TaskFactory};

use crate::config::SystemConfig;
use crate::failure::FailureTimeline;
use crate::manager::{Feedback, PooledRun, TaskSlab, TraceEvent};
use crate::metrics::Metrics;
use crate::node::Node;

/// How many times a global task's lost subtask is re-dispatched before
/// the task is given up as
/// [`abandoned`](crate::Metrics::abandoned_globals). Counted per task,
/// not per subtask, so a task repeatedly caught on crashing nodes
/// terminates.
const MAX_REDISPATCH: u32 = 3;

/// Simulation events of the system model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Schedules the initial arrivals and the end-of-warm-up marker; must
    /// fire exactly once at the start of the run.
    Init {
        /// When the warm-up transient ends and statistics restart.
        warmup_end: f64,
    },
    /// A local task arrives at `node` (per-node Poisson stream).
    LocalArrival {
        /// The generating (and executing) node.
        node: NodeId,
    },
    /// A global task arrives (system-wide Poisson stream) and is handed
    /// to the process manager.
    GlobalArrival,
    /// The job in service at `node` completes — *if* `epoch` still names
    /// the current service start. Preemption never cancels completion
    /// events; it leaves them in the future-event list to be recognized
    /// as stale here (see [`Node::service_epoch`]).
    ServiceComplete {
        /// The node whose server finished.
        node: NodeId,
        /// The node's service epoch when this completion was scheduled.
        epoch: u64,
    },
    /// A global subtask hand-off reaches its destination node after
    /// transit through the network. Only scheduled under a non-zero
    /// [`NetworkModel`](crate::NetworkModel); with free communication
    /// hand-offs are delivered inline and this event never occurs.
    SubtaskArrive {
        /// The owning global task.
        task: TaskId,
        /// The submission in flight (destination node, virtual deadline,
        /// service demand).
        sub: Submission,
    },
    /// The result of a finished global task reaches the process manager
    /// after transit; the task's completion time (for metrics and the
    /// end-to-end deadline check) is this arrival, not the last
    /// subtask's service completion. Only scheduled under a non-zero
    /// network model.
    ResultReturn {
        /// The finished task.
        task: TaskId,
    },
    /// Node `node` crashes: its queued and in-service jobs are lost, and
    /// hand-offs in flight toward it are lost on arrival. Scheduled from
    /// the [`FailureModel`](crate::FailureModel) timeline; carries the
    /// repair time so the matching [`Event::NodeUp`] is scheduled without
    /// re-querying the timeline.
    NodeDown {
        /// The crashing node.
        node: NodeId,
        /// When the node comes back up.
        up_at: f64,
    },
    /// Node `node` finishes repair and rejoins with empty queues.
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
    /// Warm-up ends: all statistics restart.
    EndWarmup,
}

/// The distributed system of paper §3.2 as a discrete-event model:
/// `k` nodes with independent schedulers, per-node local arrivals, a
/// global arrival stream, the process manager that admits each global
/// task, assigns its virtual deadlines and enforces precedence, and the
/// network and failure models between them.
///
/// Drive it with an [`Engine`](sda_sim::Engine); see
/// [`run_once`](crate::run_once) for the canonical harness. A runtime
/// that generates its own traffic wraps it in a [`Simulation`] that
/// handles [`Event::Init`] with [`SystemModel::start_timeline`] and each
/// arrival with [`SystemModel::arrive_local`] or
/// [`SystemModel::arrive_global`], and passes every other event on.
#[derive(Debug)]
pub struct SystemModel {
    config: SystemConfig,
    factory: TaskFactory,
    nodes: Vec<Node>,
    /// The in-flight global tasks.
    tasks: TaskSlab,
    /// Expected per-hop transit time, stamped onto every admitted run so
    /// deadline assignment reserves slack for communication.
    hop_comm: f64,
    /// The miss-pressure estimate an `ADAPT(base)` strategy reads.
    feedback: Feedback,
    metrics: Metrics,
    /// Id counter for local tasks (globals get slab-derived ids).
    next_local_id: u64,
    /// How many more global tasks may start tracing.
    trace_budget: u64,
    /// Ids of global tasks currently being traced.
    trace_ids: BTreeSet<u64>,
    trace: Vec<TraceEvent>,
    /// Reusable submission buffer (arrival waves and completion
    /// follow-ups; uses never nest).
    sub_buf: Vec<Submission>,
    /// Transit delay of each buffered submission, parallel to `sub_buf`
    /// (all zero under free communication; a positive entry means the
    /// hand-off is in flight as a [`Event::SubtaskArrive`]).
    delay_buf: Vec<f64>,
    /// Reusable buffer for admission-policy discards.
    discard_buf: Vec<Job>,
    /// Reusable buffer for jobs lost to a node crash.
    lost_buf: Vec<Job>,
    /// Hand-offs that reached a down node during
    /// [`SystemModel::submit_buffered`]; their re-dispatch is deferred to
    /// [`SystemModel::flush_lost_handoffs`] because `sub_buf` (which
    /// re-dispatching reuses) is still being iterated at detection time.
    lost_handoffs: Vec<(TaskId, SubtaskRef)>,
    /// The per-node failure/repair timeline, consumed via `next_outage`
    /// to schedule [`Event::NodeDown`]/[`Event::NodeUp`].
    timeline: FailureTimeline,
    /// RNG stream of the network-delay model (only `Exponential` draws
    /// from it, so deterministic models perturb nothing).
    net_rng: Stream,
    /// When a live runtime observed the events now firing (see
    /// [`SystemModel::observe`]); 0 in the simulator.
    observed: f64,
}

impl SystemModel {
    /// Builds the model: validates the workload and derives all RNG
    /// streams from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid workload parameters.
    pub fn new(config: SystemConfig, rng: &RngFactory) -> Result<SystemModel, ConfigError> {
        config.network.validate(config.workload.nodes)?;
        config.failure.validate(config.workload.nodes)?;
        let timeline = FailureTimeline::new(&config.failure, config.workload.nodes, rng);
        let factory = TaskFactory::new(config.workload.clone(), rng)?;
        let nodes = (0..config.workload.nodes)
            .map(|i| Node::new(NodeId::new(i as u32), config.policy))
            .collect();
        let net_rng = rng.stream("system.network");
        Ok(SystemModel {
            tasks: TaskSlab::new(&config.workload.shape),
            hop_comm: config.network.expected_hop_delay(),
            config,
            factory,
            nodes,
            feedback: Feedback::default(),
            metrics: Metrics::new(),
            next_local_id: 0,
            trace_budget: 0,
            trace_ids: BTreeSet::new(),
            trace: Vec::new(),
            sub_buf: Vec::new(),
            delay_buf: Vec::new(),
            discard_buf: Vec::new(),
            lost_buf: Vec::new(),
            lost_handoffs: Vec::new(),
            timeline,
            net_rng,
            observed: 0.0,
        })
    }

    /// Enables lifecycle tracing for the next `n` global tasks to
    /// arrive (call before running). Tracing is off by default and costs
    /// nothing when off.
    pub fn set_trace_tasks(&mut self, n: u64) {
        self.trace_budget = n;
    }

    /// The recorded trace events, in occurrence order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Collected metrics (so far).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The nodes, for utilization/queue-length inspection.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of global tasks currently in flight.
    pub fn tasks_in_flight(&self) -> usize {
        self.tasks.live()
    }

    /// Sets the observed time: when a live runtime woke to fire the
    /// events now due, which may be later than their own instants.
    /// Completions, discards, finishes and reissues are recorded, and
    /// next-stage deadlines assigned, at the later of the two; nodes stay
    /// on event time, so a late wake-up never compounds through a busy
    /// period. The simulator never calls it, so there the two are one.
    pub fn observe(&mut self, now: f64) {
        self.observed = now;
    }

    /// The time an outcome is recorded at (see [`SystemModel::observe`]).
    #[inline]
    fn stamp(&self, ctx: &Context<Event>) -> f64 {
        self.observed.max(ctx.now().as_f64())
    }

    #[inline]
    fn traced(&self, task: TaskId) -> bool {
        !self.trace_ids.is_empty() && self.trace_ids.contains(&task.raw())
    }

    /// The slack-share multiplier an `ADAPT(base)` strategy applies at
    /// the next stage activation: the live miss-pressure estimate mapped
    /// through the wrapper's gain/floor. Exactly `1.0` (the bit-identical
    /// neutral element) for open-loop strategies.
    #[inline]
    fn adapt_scale(&self) -> f64 {
        match self.config.strategy.adapt {
            Some(adapt) => adapt.scale(self.feedback.pressure()),
            None => 1.0,
        }
    }

    /// Books every node's first outage from the failure timeline and
    /// the end of the warm-up (none at `warmup_end` 0). [`Event::Init`]
    /// does this after starting the model's own arrival streams; a
    /// runtime that feeds arrivals in through
    /// [`SystemModel::arrive_local`] and [`SystemModel::arrive_global`]
    /// calls it instead.
    pub fn start_timeline(&mut self, ctx: &mut Context<Event>, warmup_end: f64) {
        for i in 0..self.config.workload.nodes {
            if let Some((down, up)) = self.timeline.next_outage(i) {
                ctx.schedule_fast_in(
                    down,
                    Event::NodeDown {
                        node: NodeId::new(i as u32),
                        up_at: up,
                    },
                );
            }
        }
        if warmup_end > 0.0 {
            ctx.schedule_fast_in(warmup_end, Event::EndWarmup);
        }
    }

    fn schedule_next_local(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        if let Some(gap) = self.factory.next_local_interarrival(node) {
            ctx.schedule_fast_in(gap, Event::LocalArrival { node });
        }
    }

    fn schedule_next_global(&mut self, ctx: &mut Context<Event>) {
        if let Some(gap) = self.factory.next_global_interarrival() {
            ctx.schedule_fast_in(gap, Event::GlobalArrival);
        }
    }

    fn handle_local_arrival(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        let task = self.factory.make_local(node, ctx.now().as_f64());
        let queued = self.enqueue_local(ctx.now(), &task);
        // The stream runs on while the node is down, so its draws stay
        // aligned with a failure-free run. Booking the next arrival
        // between the enqueue and the dispatch is about 10 ns per local
        // arrival faster on `pipelines` than booking it first
        // (`sdabench --trace 1`).
        self.schedule_next_local(ctx, node);
        if queued {
            self.dispatch(ctx, node);
        }
    }

    /// A local task reaches its node at `ctx.now()`. Its response and
    /// deadline verdict count from its generated arrival instant.
    pub fn arrive_local(&mut self, ctx: &mut Context<Event>, task: LocalTask) {
        if self.enqueue_local(ctx.now(), &task) {
            self.dispatch(ctx, task.node);
        }
    }

    /// Enqueues `task` at its node at `now`, or accounts it lost if the
    /// node is down; returns whether it was enqueued.
    #[inline]
    fn enqueue_local(&mut self, now: SimTime, task: &LocalTask) -> bool {
        let node = &mut self.nodes[task.node.index()];
        if node.is_down() {
            // The host is down; its users' submissions go nowhere.
            self.lose_local();
            return false;
        }
        let id = TaskId::new(self.next_local_id);
        self.next_local_id += 1;
        let job = Job::local(id, task.attrs.arrival, task.attrs.ex, task.attrs.deadline);
        node.enqueue(now, job);
        true
    }

    fn handle_global_arrival(&mut self, ctx: &mut Context<Event>) {
        self.schedule_next_global(ctx);
        let now = ctx.now().as_f64();
        let (id, slot) = self.tasks.acquire();
        match &mut self.tasks[slot].run {
            PooledRun::Flat(run) => self.factory.make_global_flat(now, run),
            PooledRun::Dag(run) => self.factory.make_global_dag(now, run),
        }
        self.admit(ctx, id, slot);
    }

    /// A global task generated outside the model reaches the process
    /// manager at `ctx.now()`: it is admitted, and its virtual deadlines
    /// assigned, at its generated arrival instant, and its initial wave
    /// leaves at once.
    pub fn arrive_global(&mut self, ctx: &mut Context<Event>, run: PooledRun) {
        let (id, slot) = self.tasks.acquire();
        self.tasks[slot].run = run;
        self.admit(ctx, id, slot);
    }

    /// Admits the task just put into `slot` at its arrival instant:
    /// stamps the expected communication and the ADAPT slack scale,
    /// assigns the initial wave's deadlines and sends the wave out. Its
    /// jobs count as outstanding from here on.
    #[inline]
    fn admit(&mut self, ctx: &mut Context<Event>, id: TaskId, slot: usize) {
        let scale = self.adapt_scale();
        let run = &mut self.tasks[slot].run;
        let now = run.arrival();
        run.set_expected_comm(self.hop_comm);
        run.set_slack_scale(scale);
        if self.trace_budget > 0 {
            self.trace_budget -= 1;
            self.trace_ids.insert(id.raw());
            self.trace.push(TraceEvent::Arrival {
                task: id,
                time: now,
                deadline: self.tasks[slot].run.global_deadline(),
            });
        }
        self.sub_buf.clear();
        let entry = &mut self.tasks[slot];
        entry
            .run
            .start(&self.config.strategy, now, &mut self.sub_buf);
        entry.outstanding = self.sub_buf.len() as u32;
        self.send_wave(ctx, id, None);
    }

    /// Sends the wave in `sub_buf` out as hand-offs of `task` from
    /// `from` (`None` = the process manager) and dispatches every node
    /// it reached.
    fn send_wave(&mut self, ctx: &mut Context<Event>, task: TaskId, from: Option<NodeId>) {
        self.submit_buffered(ctx, task, from);
        self.dispatch_buffered(ctx);
        self.flush_lost_handoffs(ctx);
    }

    /// Delivers one hand-off: enqueues the submission as a job of `task`
    /// at its node (used inline under free communication, and from
    /// [`Event::SubtaskArrive`] when the hand-off crossed the network).
    fn deliver(&mut self, now: SimTime, task: TaskId, sub: Submission) {
        let t = now.as_f64();
        let job = Job::global(
            task,
            sub.subtask,
            t,
            sub.ex,
            sub.pex,
            sub.deadline,
            sub.priority,
        );
        self.nodes[sub.node.index()].enqueue(now, job);
        if self.traced(task) {
            self.trace.push(TraceEvent::Submitted {
                task,
                time: t,
                node: sub.node,
                deadline: sub.deadline,
            });
        }
    }

    /// Samples one hand-off's transit time from the network model.
    #[inline]
    fn hop_delay(&mut self, from: Option<NodeId>, to: Option<NodeId>) -> f64 {
        self.config
            .network
            .sample_delay(from, to, &mut self.net_rng)
    }

    /// Routes the submissions waiting in `sub_buf` as hand-offs of
    /// `task` departing from `from` (`None` = the process manager):
    /// zero-delay hand-offs are enqueued immediately, delayed ones are
    /// scheduled as [`Event::SubtaskArrive`]. Both buffers are left
    /// intact for [`SystemModel::dispatch_buffered`].
    fn submit_buffered(&mut self, ctx: &mut Context<Event>, task: TaskId, from: Option<NodeId>) {
        let record = !self.config.network.is_zero();
        self.delay_buf.clear();
        for i in 0..self.sub_buf.len() {
            let sub = self.sub_buf[i];
            let delay = self.hop_delay(from, Some(sub.node));
            if record {
                self.metrics.transit.add(delay);
            }
            if delay > 0.0 {
                self.delay_buf.push(delay);
                ctx.schedule_fast_in(delay, Event::SubtaskArrive { task, sub });
            } else if self.nodes[sub.node.index()].is_down() {
                // Zero-delay hand-off to a dead node: lost. Re-dispatch
                // is deferred (`sub_buf` is being iterated right now) and
                // the infinite pseudo-delay keeps `dispatch_buffered`
                // away from the down node.
                self.delay_buf.push(f64::INFINITY);
                self.lost_handoffs.push((task, sub.subtask));
            } else {
                self.delay_buf.push(0.0);
                self.deliver(ctx.now(), task, sub);
            }
        }
    }

    /// Dispatches each node that received a zero-delay hand-off in
    /// [`SystemModel::submit_buffered`], in submission order — the same
    /// order the collect-then-dispatch path used. Nodes whose hand-off
    /// is still in flight are dispatched when it arrives.
    fn dispatch_buffered(&mut self, ctx: &mut Context<Event>) {
        for i in 0..self.sub_buf.len() {
            if self.delay_buf[i] > 0.0 {
                continue;
            }
            let node = self.sub_buf[i].node;
            self.dispatch(ctx, node);
        }
    }

    /// Re-dispatches the hand-offs that [`SystemModel::submit_buffered`]
    /// found addressed to a down node. Must run after
    /// [`SystemModel::dispatch_buffered`]: re-dispatching reuses
    /// `sub_buf`, which the submit/dispatch pair iterates.
    fn flush_lost_handoffs(&mut self, ctx: &mut Context<Event>) {
        while let Some((task, subtask)) = self.lost_handoffs.pop() {
            self.redispatch(ctx, task, subtask);
        }
    }

    /// A hand-off scheduled by [`SystemModel::submit_buffered`] arrives
    /// at its destination node.
    fn handle_subtask_arrive(&mut self, ctx: &mut Context<Event>, task: TaskId, sub: Submission) {
        let Some(slot) = self.tasks.lookup(task) else {
            debug_assert!(false, "hand-off for unknown task {task}");
            return;
        };
        if self.tasks[slot].aborted {
            // The task was killed while this hand-off was in flight; the
            // subtask is dropped on arrival.
            self.tasks.settle(slot);
            return;
        }
        if self.nodes[sub.node.index()].is_down() {
            // The destination died while the hand-off was in transit:
            // the work is lost on arrival.
            self.redispatch(ctx, task, sub.subtask);
            return;
        }
        self.deliver(ctx.now(), task, sub);
        self.dispatch(ctx, sub.node);
    }

    fn handle_service_complete(&mut self, ctx: &mut Context<Event>, node: NodeId, epoch: u64) {
        if !self.nodes[node.index()].completion_is_current(epoch) {
            // The job this completion belonged to was preempted after the
            // event was scheduled; the rescheduled completion (with the
            // job's new epoch) is elsewhere in the event list.
            return;
        }
        let job = self.nodes[node.index()].finish_service(ctx.now());
        self.on_job_done(ctx, job, node);
        self.dispatch(ctx, node);
    }

    /// Accounts a job that completed service at `node`. A global
    /// subtask's completion asks its task's run for the next wave, which
    /// leaves at once; the last one sends the result back to the process
    /// manager. A completion of an aborted or abandoned task is
    /// swallowed.
    fn on_job_done(&mut self, ctx: &mut Context<Event>, job: Job, node: NodeId) {
        let now = self.stamp(ctx);
        let JobOrigin::Global { task, subtask } = job.origin else {
            self.metrics
                .local
                .record(job.enqueue_time, job.deadline, now);
            self.feedback.observe(now > job.deadline);
            return;
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
        let Some(slot) = self.tasks.lookup(task) else {
            debug_assert!(false, "completion for unknown task {task}");
            return;
        };
        let scale = self.adapt_scale();
        let entry = &mut self.tasks[slot];
        if entry.aborted || entry.abandoned {
            self.tasks.settle(slot);
            return;
        }
        entry.outstanding -= 1;
        // Refresh the feedback stamp so the *next* stage's deadline
        // reflects the current miss pressure, not the pressure at the
        // task's arrival.
        entry.run.set_slack_scale(scale);
        self.sub_buf.clear();
        if !entry
            .run
            .complete(subtask, &self.config.strategy, now, &mut self.sub_buf)
        {
            // Follow-up hand-offs travel from the node whose completion
            // released them (serial forwarding; for a fan-in, the
            // last-finishing branch's node).
            entry.outstanding += self.sub_buf.len() as u32;
            self.send_wave(ctx, task, Some(node));
            return;
        }
        // The result travels node → process manager; the task finishes
        // (for the end-to-end deadline check) when it arrives there.
        let ret = if self.config.network.is_zero() {
            0.0
        } else {
            let d = self.hop_delay(Some(node), None);
            self.metrics.transit.add(d);
            d
        };
        if ret > 0.0 {
            ctx.schedule_fast_in(ret, Event::ResultReturn { task });
        } else {
            self.finish(task, now);
        }
    }

    /// Records a finished global task at `now` — its completion time at
    /// the process manager — and vacates its slot.
    #[inline]
    fn finish(&mut self, task: TaskId, now: f64) {
        let Some(slot) = self.tasks.lookup(task) else {
            debug_assert!(false, "result for unknown task {task}");
            return;
        };
        let run = &self.tasks[slot].run;
        let (arrival, deadline) = (run.arrival(), run.global_deadline());
        let missed = now > deadline;
        self.metrics.global.record(arrival, deadline, now);
        self.feedback.observe(missed);
        self.tasks.release(slot);
        if self.traced(task) {
            self.trace.push(TraceEvent::Finished {
                task,
                time: now,
                missed,
            });
        }
    }

    /// Accounts a local task lost to a down node: a terminal miss with
    /// no response observation.
    #[inline]
    fn lose_local(&mut self) {
        self.metrics.local.record_aborted();
        self.metrics.lost_locals += 1;
        self.feedback.observe(true);
    }

    /// Accounts a job the firm-deadline policy discarded at `now`. The
    /// first discard of a global task aborts it.
    #[inline]
    fn discard(&mut self, now: f64, job: &Job) {
        let JobOrigin::Global { task, .. } = job.origin else {
            self.metrics.local.record_aborted();
            self.metrics.aborted_locals += 1;
            self.feedback.observe(true);
            return;
        };
        self.metrics.subtask_virtual_miss.record(true);
        let Some(slot) = self.tasks.lookup(task) else {
            return;
        };
        let entry = &mut self.tasks[slot];
        if !entry.aborted && !entry.abandoned {
            entry.aborted = true;
            self.metrics.global.record_aborted();
            self.metrics.aborted_globals += 1;
            self.feedback.observe(true);
            if self.traced(task) {
                self.trace.push(TraceEvent::Aborted { task, time: now });
            }
        }
        self.tasks.settle(slot);
    }

    /// Accounts for one job lost to a node crash: a local task is a
    /// terminal miss (its node's users see nothing back); a global
    /// subtask enters the re-dispatch path.
    fn on_job_lost(&mut self, ctx: &mut Context<Event>, job: Job) {
        match job.origin {
            JobOrigin::Local { .. } => self.lose_local(),
            JobOrigin::Global { task, subtask } => self.redispatch(ctx, task, subtask),
        }
    }

    /// Recovery path for one lost global-subtask copy: counts the loss,
    /// re-decomposes the *remaining* deadline budget over the residual
    /// precedence structure — through the same
    /// [`DeadlineAssigner`](sda_core::DeadlineAssigner) interface the
    /// strategy uses everywhere else, so UD/ED/EQS/EQF/DIV-x/GF/ADAPT all
    /// shape the recovery window — and re-submits the copy, manager-routed,
    /// to the nearest surviving node. Once the task's retry budget
    /// ([`MAX_REDISPATCH`]) is spent, or no node is up, the task is
    /// abandoned instead.
    fn redispatch(&mut self, ctx: &mut Context<Event>, task: TaskId, subtask: SubtaskRef) {
        let now = self.stamp(ctx);
        self.metrics.lost_subtasks += 1;
        let Some(slot) = self.tasks.lookup(task) else {
            debug_assert!(false, "loss for unknown task {task}");
            return;
        };
        let scale = self.adapt_scale();
        let entry = &mut self.tasks[slot];
        if entry.aborted || entry.abandoned {
            self.tasks.settle(slot);
            return;
        }
        entry.outstanding -= 1;
        if entry.retries >= MAX_REDISPATCH {
            self.abandon(now, slot, task);
            return;
        }
        entry.retries += 1;
        entry.run.set_slack_scale(scale);
        self.sub_buf.clear();
        entry
            .run
            .reissue(subtask, &self.config.strategy, now, &mut self.sub_buf);
        debug_assert_eq!(self.sub_buf.len(), 1, "reissue yields one submission");
        let orig = self.sub_buf[0].node;
        let Some(target) = pick_live(&self.nodes, orig) else {
            self.abandon(now, slot, task);
            return;
        };
        // The run stores demands in the original node's service units;
        // re-express them for the replacement node's speed.
        let speeds = self.factory.node_speeds();
        let ratio = speeds[orig.index()] / speeds[target.index()];
        let sub = &mut self.sub_buf[0];
        sub.node = target;
        sub.ex *= ratio;
        sub.pex *= ratio;
        self.tasks[slot].outstanding += 1;
        self.metrics.redispatches += 1;
        // The replacement hand-off is manager-routed, like the initial
        // fan-out. The target is live, so it cannot re-enter the lost
        // path at this instant (other casualties of the same delivery
        // batch may still be queued behind us in `lost_handoffs`).
        let pending = self.lost_handoffs.len();
        self.submit_buffered(ctx, task, None);
        self.dispatch_buffered(ctx);
        debug_assert_eq!(
            self.lost_handoffs.len(),
            pending,
            "re-dispatch to a live node lost"
        );
    }

    /// Terminal give-up for a task whose lost work cannot be re-placed:
    /// a miss with no response observation (like a firm-deadline abort),
    /// counted separately as
    /// [`abandoned`](crate::Metrics::abandoned_globals). Unlike an
    /// abort, hand-offs of the task already in flight still deliver and
    /// execute — the give-up decision cannot outrun work on the wire —
    /// and their completions are swallowed. The caller has already
    /// settled the lost copy's `outstanding` decrement.
    fn abandon(&mut self, now: f64, slot: usize, task: TaskId) {
        let entry = &mut self.tasks[slot];
        debug_assert!(
            !entry.aborted && !entry.abandoned,
            "abandon of an already-dead task"
        );
        entry.abandoned = true;
        let outstanding = entry.outstanding;
        self.metrics.global.record_aborted();
        self.metrics.abandoned_globals += 1;
        self.feedback.observe(true);
        if self.traced(task) {
            self.trace.push(TraceEvent::Aborted { task, time: now });
        }
        if outstanding == 0 {
            self.tasks.release(slot);
        }
    }

    /// [`Event::NodeDown`]: crashes `node`, losing its queued and
    /// in-service jobs, and books the matching [`Event::NodeUp`].
    fn handle_node_down(&mut self, ctx: &mut Context<Event>, node: NodeId, up_at: f64) {
        let now = ctx.now();
        let mut lost = std::mem::take(&mut self.lost_buf);
        lost.clear();
        self.nodes[node.index()].fail(now, &mut lost);
        for job in lost.drain(..) {
            self.on_job_lost(ctx, job);
        }
        self.lost_buf = lost;
        ctx.schedule_fast_in(up_at - now.as_f64(), Event::NodeUp { node });
    }

    /// [`Event::NodeUp`]: the node rejoins with empty queues, and the
    /// timeline's next outage (if any) is booked.
    fn handle_node_up(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        let now = ctx.now();
        self.nodes[node.index()].recover(now);
        if let Some((down, up)) = self.timeline.next_outage(node.index()) {
            ctx.schedule_fast_in(down - now.as_f64(), Event::NodeDown { node, up_at: up });
        }
    }

    /// One dispatch round at `node` (see [`Node::dispatch`]): discards
    /// are accounted in discard order, then the started job's
    /// completion is scheduled.
    fn dispatch(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        let started = self.nodes[node.index()].dispatch(
            ctx.now(),
            self.config.preemptive,
            self.config.overload,
            &mut self.discard_buf,
        );
        let now = self.stamp(ctx);
        for i in 0..self.discard_buf.len() {
            let job = self.discard_buf[i];
            self.discard(now, &job);
        }
        self.discard_buf.clear();
        if let Some(job) = started {
            let epoch = self.nodes[node.index()].service_epoch();
            ctx.schedule_fast_in(job.service, Event::ServiceComplete { node, epoch });
        }
    }
}

/// The nearest live node at or above `from` (wrapping), `None` when the
/// whole fleet is down.
fn pick_live(nodes: &[Node], from: NodeId) -> Option<NodeId> {
    let n = nodes.len();
    (0..n)
        .map(|k| (from.index() + k) % n)
        .find(|&i| !nodes[i].is_down())
        .map(|i| NodeId::new(i as u32))
}

impl Simulation for SystemModel {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<Event>, event: Event) {
        match event {
            Event::Init { warmup_end } => {
                let nodes: Vec<NodeId> = self.nodes.iter().map(Node::id).collect();
                for node in nodes {
                    self.schedule_next_local(ctx, node);
                }
                self.schedule_next_global(ctx);
                self.start_timeline(ctx, warmup_end);
            }
            Event::LocalArrival { node } => self.handle_local_arrival(ctx, node),
            Event::GlobalArrival => self.handle_global_arrival(ctx),
            Event::ServiceComplete { node, epoch } => {
                self.handle_service_complete(ctx, node, epoch)
            }
            Event::SubtaskArrive { task, sub } => self.handle_subtask_arrive(ctx, task, sub),
            Event::ResultReturn { task } => {
                let now = self.stamp(ctx);
                self.finish(task, now);
            }
            Event::NodeDown { node, up_at } => self.handle_node_down(ctx, node, up_at),
            Event::NodeUp { node } => self.handle_node_up(ctx, node),
            Event::EndWarmup => {
                // Every statistic restarts; the ADAPT feedback is control
                // state and runs on.
                self.metrics.reset();
                for node in &mut self.nodes {
                    node.reset_stats(ctx.now());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverloadPolicy;
    use sda_core::SdaStrategy;
    use sda_sim::{Engine, SimTime};

    fn engine(config: SystemConfig, seed: u64) -> Engine<SystemModel> {
        let model = SystemModel::new(config, &RngFactory::new(seed)).unwrap();
        let mut e = Engine::new(model);
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 100.0 });
        e
    }

    #[test]
    fn baseline_run_completes_tasks() {
        let mut e = engine(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), 1);
        e.run_until(SimTime::from(2_000.0));
        let m = e.model().metrics();
        assert!(m.local.completed() > 500, "locals: {}", m.local.completed());
        assert!(
            m.global.completed() > 100,
            "globals: {}",
            m.global.completed()
        );
        assert!(m.local.response().mean() > 0.0);
    }

    #[test]
    fn utilization_approaches_configured_load() {
        let mut e = engine(SystemConfig::ssp_baseline(SdaStrategy::ud_ud()), 2);
        let horizon = SimTime::from(20_000.0);
        e.run_until(horizon);
        let model = e.model();
        let mean_util: f64 = model
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .sum::<f64>()
            / model.nodes().len() as f64;
        assert!(
            (mean_util - 0.5).abs() < 0.03,
            "utilization {mean_util} should be near load 0.5"
        );
    }

    /// The model with every arrival after `stop` dropped, so both
    /// arrival streams end there.
    struct Draining {
        model: SystemModel,
        stop: f64,
    }

    impl Simulation for Draining {
        type Event = Event;

        fn handle(&mut self, ctx: &mut Context<Event>, event: Event) {
            let arrival = matches!(event, Event::LocalArrival { .. } | Event::GlobalArrival);
            if !arrival || ctx.now().as_f64() <= self.stop {
                self.model.handle(ctx, event);
            }
        }
    }

    /// Runs `cfg` at `seed` to `t`, stops the arrival streams there and
    /// runs on to `2t`: by then every global task must have left the
    /// slab and every node must be idle and empty. Returns the metrics
    /// at `t`.
    fn run_and_drain(cfg: SystemConfig, seed: u64, t: f64) -> Metrics {
        let model = SystemModel::new(cfg, &RngFactory::new(seed)).unwrap();
        let mut e = Engine::new(Draining { model, stop: t });
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 100.0 });
        e.run_until(SimTime::from(t));
        let metrics = e.model().model.metrics().clone();
        e.run_until(SimTime::from(2.0 * t));
        let model = &e.model().model;
        assert_eq!(model.tasks_in_flight(), 0, "tasks left in the slab");
        assert!(
            model
                .nodes()
                .iter()
                .all(|n| !n.is_busy() && n.queue_len() == 0),
            "a node still holds work after the drain"
        );
        metrics
    }

    #[test]
    fn no_tasks_leak() {
        let m = run_and_drain(
            SystemConfig::psp_baseline(SdaStrategy::ud_div1()),
            3,
            5_000.0,
        );
        assert!(m.global.completed() > 500);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = engine(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), seed);
            e.run_until(SimTime::from(3_000.0));
            let m = e.model().metrics();
            (
                m.local.completed(),
                m.global.completed(),
                m.local.miss_percent(),
                m.global.miss_percent(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn abort_tardy_discards_and_counts() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.overload = OverloadPolicy::AbortTardy;
        // Push load high enough that some jobs are tardy at dispatch.
        cfg.workload.load = 0.9;
        let mut e = engine(cfg, 4);
        e.run_until(SimTime::from(5_000.0));
        let m = e.model().metrics();
        assert!(
            m.aborted_locals + m.aborted_globals > 0,
            "at load 0.9 with tight slack, some aborts must occur"
        );
        // Aborted tasks count as misses.
        assert!(m.global.miss_ratio() > 0.0);
    }

    #[test]
    fn warmup_resets_statistics() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let model = SystemModel::new(cfg, &RngFactory::new(5)).unwrap();
        let mut e = Engine::new(model);
        e.context_mut().schedule_at(
            SimTime::ZERO,
            Event::Init {
                warmup_end: 1_000.0,
            },
        );
        e.run_until(SimTime::from(999.0));
        assert!(e.model().metrics().local.completed() > 0);
        e.run_until(SimTime::from(1_000.5));
        // Just past warm-up: counters were cleared at exactly t=1000.
        let after = e.model().metrics().local.completed();
        assert!(after < 10, "warm-up reset failed: {after} completions");
        // An end of warm-up fired on its own clears every statistic, but
        // the ADAPT feedback is control state and runs on.
        let t = SimTime::from(1_500.0);
        e.run_until(t);
        let pressure = e.model().feedback.pressure();
        assert!(pressure > 0.0);
        e.context_mut().schedule_at(t, Event::EndWarmup);
        e.run_until(t);
        assert_eq!(*e.model().metrics(), Metrics::default());
        assert_eq!(e.model().feedback.pressure(), pressure);
    }

    #[test]
    fn preemptive_edf_runs_and_preempts() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.preemptive = true;
        cfg.workload.load = 0.7;
        let mut e = engine(cfg.clone(), 14);
        // Without failures every service start ends in a completion or a
        // preemption, or is still running; `served` restarts at the
        // warm-up, so count from a point past it.
        let unfinished_starts = |e: &Engine<SystemModel>| -> i64 {
            e.model()
                .nodes()
                .iter()
                .map(|n| n.service_epoch() as i64 - n.served() as i64 - i64::from(n.is_busy()))
                .sum()
        };
        e.run_until(SimTime::from(200.0));
        let before = unfinished_starts(&e);
        e.run_until(SimTime::from(5_000.0));
        assert!(
            unfinished_starts(&e) > before,
            "busy preemptive system must preempt"
        );
        let m = e.model().metrics();
        assert!(m.local.completed() > 1_000);

        // Work conservation: same total completions as non-preemptive,
        // up to boundary effects.
        cfg.preemptive = false;
        let mut e2 = engine(cfg, 14);
        e2.run_until(SimTime::from(5_000.0));
        let a = m.local.completed() as f64 + e.model().metrics().global.completed() as f64;
        let b = e2.model().metrics().local.completed() as f64
            + e2.model().metrics().global.completed() as f64;
        assert!(
            (a - b).abs() / b < 0.02,
            "work conservation: {a} vs {b} completions"
        );
    }

    #[test]
    fn trace_captures_complete_lifecycles() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let model = SystemModel::new(cfg, &RngFactory::new(12)).unwrap();
        let mut e = Engine::new(model);
        e.model_mut().set_trace_tasks(u64::MAX); // trace everything briefly
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 0.0 });
        e.run_until(SimTime::from(300.0));
        let trace = e.model().trace();
        assert!(!trace.is_empty());

        // Pick the first task that finished and check its event sequence.
        let finished_task = trace
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Finished { task, .. } => Some(*task),
                _ => None,
            })
            .expect("some task finishes within 300 units");
        let events: Vec<&TraceEvent> = trace
            .iter()
            .filter(|ev| match ev {
                TraceEvent::Arrival { task, .. }
                | TraceEvent::Submitted { task, .. }
                | TraceEvent::SubtaskDone { task, .. }
                | TraceEvent::Finished { task, .. }
                | TraceEvent::Aborted { task, .. } => *task == finished_task,
            })
            .collect();
        assert!(matches!(events[0], TraceEvent::Arrival { .. }));
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::Finished { .. }
        ));
        // Serial m=4 task: 4 submissions and 4 completions, alternating.
        let submits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Submitted { .. }))
            .count();
        let dones = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SubtaskDone { .. }))
            .count();
        assert_eq!(submits, 4);
        assert_eq!(dones, 4);
        // Times are monotone.
        let times: Vec<f64> = events
            .iter()
            .map(|ev| match ev {
                TraceEvent::Arrival { time, .. }
                | TraceEvent::Submitted { time, .. }
                | TraceEvent::SubtaskDone { time, .. }
                | TraceEvent::Finished { time, .. }
                | TraceEvent::Aborted { time, .. } => *time,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let model = SystemModel::new(cfg, &RngFactory::new(13)).unwrap();
        let mut e = Engine::new(model);
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 0.0 });
        e.run_until(SimTime::from(200.0));
        assert!(e.model().trace().is_empty());
    }

    #[test]
    fn constant_delays_stretch_global_response() {
        use crate::config::NetworkModel;
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut free = engine(cfg.clone(), 21);
        free.run_until(SimTime::from(6_000.0));

        cfg.network = NetworkModel::Constant { delay: 0.25 };
        let mut net = engine(cfg, 21);
        net.run_until(SimTime::from(6_000.0));

        let mf = free.model().metrics();
        let mn = net.model().metrics();
        assert!(mn.global.completed() > 100);
        // A serial m=4 task pays 5 hops of 0.25 = 1.25 extra end to end.
        let extra = mn.global.response().mean() - mf.global.response().mean();
        assert!(
            extra > 1.0,
            "delays must stretch the end-to-end response (got +{extra:.3})"
        );
        // Every hand-off was recorded: 5 per completed task (4 subtask
        // hops + 1 result return), modulo tasks still in flight.
        assert!(mn.transit.count() >= 5 * mn.global.completed());
        assert_eq!(mn.transit.mean(), 0.25);
        // Free communication records no transit observations.
        assert_eq!(mf.transit.count(), 0);
        // Locals never cross the network.
        assert_eq!(
            mf.local.completed(),
            mn.local.completed(),
            "local stream must be untouched by the network model"
        );
    }

    #[test]
    fn exponential_delays_average_the_configured_mean() {
        use crate::config::NetworkModel;
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::eqf_div1());
        cfg.network = NetworkModel::Exponential { mean: 0.5 };
        let mut e = engine(cfg, 22);
        e.run_until(SimTime::from(8_000.0));
        let m = e.model().metrics();
        assert!(m.global.completed() > 300);
        assert!(m.transit.count() > 1_000);
        assert!(
            (m.transit.mean() - 0.5).abs() < 0.05,
            "transit mean {} should be near 0.5",
            m.transit.mean()
        );
        assert!(m.transit.min() >= 0.0);
    }

    #[test]
    fn delayed_tasks_do_not_leak_in_flight_slots() {
        use crate::config::NetworkModel;
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_div1());
        cfg.network = NetworkModel::Exponential { mean: 0.4 };
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        let m = run_and_drain(cfg, 23, 8_000.0);
        assert!(m.aborted_globals > 0, "high load must abort something");
        assert!(m.global.completed() > 500);
    }

    #[test]
    fn aborted_tasks_counted_in_miss_but_not_in_response() {
        // Model-level regression for the documented ClassMetrics
        // semantics under AbortTardy: every terminal global is either a
        // completion (one response observation) or an abort (none).
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        let mut e = engine(cfg, 24);
        e.run_until(SimTime::from(6_000.0));
        let m = e.model().metrics();
        assert!(m.aborted_globals > 0 && m.aborted_locals > 0);
        assert_eq!(
            m.global.response().count() + m.aborted_globals,
            m.global.completed(),
            "terminal = completed-with-response + aborted"
        );
        assert_eq!(
            m.local.response().count() + m.aborted_locals,
            m.local.completed()
        );
        // Aborts are all misses.
        assert!(m.global.missed() >= m.aborted_globals);
        assert!(m.local.missed() >= m.aborted_locals);
    }

    #[test]
    fn node_speeds_skew_utilization() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.workload.node_speeds = Some(vec![0.5, 1.0, 1.0, 1.0, 1.0, 2.0]);
        let mut e = engine(cfg, 25);
        let horizon = SimTime::from(20_000.0);
        e.run_until(horizon);
        let utils: Vec<f64> = e
            .model()
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .collect();
        // The half-speed node serves the same arrival stream at twice the
        // service time; the double-speed node at half.
        assert!(
            utils[0] > 1.5 * utils[1],
            "slow node {} vs normal {}",
            utils[0],
            utils[1]
        );
        assert!(
            utils[5] < 0.75 * utils[1],
            "fast node {} vs normal {}",
            utils[5],
            utils[1]
        );
        assert!(e.model().metrics().global.completed() > 100);
    }

    #[test]
    fn feedback_pressure_tracks_load() {
        let mut calm = engine(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), 31);
        calm.run_until(SimTime::from(5_000.0));
        let calm_p = calm.model().feedback.pressure();
        assert!((0.0..=1.0).contains(&calm_p));

        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.workload.load = 0.95;
        let mut hot = engine(cfg, 31);
        hot.run_until(SimTime::from(5_000.0));
        let hot_p = hot.model().feedback.pressure();
        assert!(
            hot_p > calm_p + 0.2,
            "pressure at load 0.95 ({hot_p:.2}) must clearly exceed load 0.5 ({calm_p:.2})"
        );
    }

    #[test]
    fn adaptive_strategy_changes_assignment_and_stays_sound() {
        use sda_core::AdaptiveSlack;
        let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
        cfg.workload.load = 0.85;
        let mut base = engine(cfg.clone(), 32);
        base.run_until(SimTime::from(6_000.0));

        cfg.strategy = SdaStrategy::adaptive(SdaStrategy::eqf_div1(), AdaptiveSlack::default());
        let mut adaptive = engine(cfg, 32);
        adaptive.run_until(SimTime::from(6_000.0));

        let mb = base.model().metrics();
        let ma = adaptive.model().metrics();
        // Same arrival streams (same seed), different assignment: the
        // closed loop must actually change behavior…
        assert_ne!(
            mb.global.response().mean().to_bits(),
            ma.global.response().mean().to_bits(),
            "ADAPT must not be a no-op at high load"
        );
        // …without breaking the lifecycle: everything still completes.
        assert!(ma.global.completed() > 500);
        assert!(adaptive.model().tasks_in_flight() < 200);
        // The loop promotes globals when pressure is high: their miss
        // ratio must not get worse.
        assert!(
            ma.global.miss_ratio() <= mb.global.miss_ratio() + 1e-9,
            "adaptive global miss {} vs static {}",
            ma.global.miss_ratio(),
            mb.global.miss_ratio()
        );
    }

    #[test]
    fn zero_gain_adapt_is_bit_identical_to_base() {
        use sda_core::AdaptiveSlack;
        let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
        cfg.workload.load = 0.8;
        let mut base = engine(cfg.clone(), 33);
        base.run_until(SimTime::from(4_000.0));
        // Gain 0 keeps the scale pinned at exactly 1.0, which multiplies
        // every slack share by the IEEE-754 neutral element.
        cfg.strategy = SdaStrategy::adaptive(
            SdaStrategy::eqf_div1(),
            AdaptiveSlack::new(0.0, 1.0).unwrap(),
        );
        let mut wrapped = engine(cfg, 33);
        wrapped.run_until(SimTime::from(4_000.0));
        let mb = base.model().metrics();
        let mw = wrapped.model().metrics();
        assert_eq!(mb.global.completed(), mw.global.completed());
        assert_eq!(
            mb.global.response().mean().to_bits(),
            mw.global.response().mean().to_bits()
        );
        assert_eq!(
            mb.local.response().mean().to_bits(),
            mw.local.response().mean().to_bits()
        );
    }

    #[test]
    fn mmpp_arrivals_run_through_the_full_model() {
        use sda_workload::ArrivalProcess;
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.workload.arrivals = ArrivalProcess::Mmpp2 {
            burst_ratio: 6.0,
            dwell_quiet: 200.0,
            dwell_burst: 60.0,
        };
        let mut bursty = engine(cfg, 34);
        let horizon = SimTime::from(30_000.0);
        bursty.run_until(horizon);
        let m = bursty.model().metrics();
        assert!(m.local.completed() > 10_000);
        assert!(m.global.completed() > 1_000);
        // The long-run utilization still matches the configured load —
        // burstiness redistributes arrivals, it does not add work.
        let util: f64 = bursty
            .model()
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .sum::<f64>()
            / 6.0;
        assert!(
            (util - 0.5).abs() < 0.05,
            "MMPP long-run utilization {util} should stay near load 0.5"
        );
    }

    /// A DAG baseline for the system-level tests: 4 layers, width ≤ 3,
    /// moderate cross-layer density, PSP slack range.
    fn dag_baseline(strategy: SdaStrategy) -> SystemConfig {
        use sda_workload::{GlobalShape, SlackRange};
        let mut cfg = SystemConfig::ssp_baseline(strategy);
        cfg.workload.shape = GlobalShape::Dag {
            depth: 4,
            max_width: 3,
            edge_density: 0.4,
        };
        cfg.workload.slack = SlackRange::PSP_BASELINE;
        cfg
    }

    #[test]
    fn dag_workload_runs_and_completes_tasks() {
        let mut e = engine(dag_baseline(SdaStrategy::eqf_div1()), 40);
        e.run_until(SimTime::from(5_000.0));
        let m = e.model().metrics();
        assert!(
            m.local.completed() > 1_000,
            "locals: {}",
            m.local.completed()
        );
        assert!(
            m.global.completed() > 300,
            "globals: {}",
            m.global.completed()
        );
        assert!(m.global.response().mean() > 0.0);
        // In-flight population stays bounded: fan-ins all resolve.
        assert!(e.model().tasks_in_flight() < 200);
    }

    #[test]
    fn dag_workload_is_deterministic_given_seed() {
        let run = |seed| {
            let mut e = engine(dag_baseline(SdaStrategy::eqf_div1()), seed);
            e.run_until(SimTime::from(3_000.0));
            let m = e.model().metrics();
            (
                m.local.completed(),
                m.global.completed(),
                m.global.miss_percent().to_bits(),
                m.global.response().mean().to_bits(),
            )
        };
        assert_eq!(run(41), run(41));
        assert_ne!(run(41), run(42));
    }

    #[test]
    fn dag_workload_with_delays_and_abort_tardy_does_not_leak() {
        use crate::config::NetworkModel;
        let mut cfg = dag_baseline(SdaStrategy::ud_div1());
        cfg.network = NetworkModel::Exponential { mean: 0.3 };
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        // Every aborted or delayed hand-off is accounted: the slab
        // drains even with fan-ins whose branches die mid-flight.
        let m = run_and_drain(cfg, 42, 8_000.0);
        assert!(m.aborted_globals > 0, "high load must abort something");
        assert!(m.global.completed() > 200);
        // Transit observations cover every hand-off of completed tasks
        // (initial fan-out + internal edges + result return).
        assert!(m.transit.count() > m.global.completed());
    }

    #[test]
    fn dag_deadline_strategies_differentiate() {
        // The slack-division insight survives on DAGs: EQF/DIV-1 must
        // beat the do-nothing UD-UD baseline for globals at high load.
        let mut cfg = dag_baseline(SdaStrategy::ud_ud());
        cfg.workload.load = 0.8;
        let mut ud = engine(cfg.clone(), 43);
        ud.run_until(SimTime::from(8_000.0));
        let ud_miss = ud.model().metrics().global.miss_percent();

        cfg.strategy = SdaStrategy::eqf_div1();
        let mut eqf = engine(cfg, 43);
        eqf.run_until(SimTime::from(8_000.0));
        let eqf_miss = eqf.model().metrics().global.miss_percent();
        assert!(
            eqf_miss < ud_miss,
            "EQF-DIV1 ({eqf_miss:.2}%) should beat UD-UD ({ud_miss:.2}%) on DAGs"
        );
    }

    #[test]
    fn globals_first_elevates_subtasks_over_locals() {
        // With GF, global subtasks should rarely wait behind locals; the
        // end-to-end global miss rate must be far below UD's at the same
        // seed and load.
        use sda_core::{ParallelStrategy, SerialStrategy};
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_ud());
        cfg.workload.load = 0.8;
        let mut e_ud = engine(cfg.clone(), 6);
        e_ud.run_until(SimTime::from(8_000.0));
        let ud_miss = e_ud.model().metrics().global.miss_percent();

        cfg.strategy = SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::GlobalsFirst,
        );
        let mut e_gf = engine(cfg, 6);
        e_gf.run_until(SimTime::from(8_000.0));
        let gf_miss = e_gf.model().metrics().global.miss_percent();
        assert!(
            gf_miss < ud_miss,
            "GF ({gf_miss:.2}%) should beat UD ({ud_miss:.2}%) for globals"
        );
    }

    mod churn {
        use super::*;
        use crate::config::NetworkModel;
        use crate::failure::{DownInterval, FailureModel};

        fn down(node: usize, from: f64, until: f64) -> DownInterval {
            DownInterval { node, from, until }
        }

        #[test]
        fn empty_scripted_trace_is_bit_identical_to_no_failures() {
            let run = |failure: FailureModel| {
                let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
                cfg.failure = failure;
                let mut e = engine(cfg, 50);
                e.run_until(SimTime::from(3_000.0));
                let m = e.model().metrics();
                (
                    m.local.completed(),
                    m.global.completed(),
                    m.global.response().mean().to_bits(),
                )
            };
            assert_eq!(
                run(FailureModel::None),
                run(FailureModel::Scripted { downs: Vec::new() })
            );
        }

        #[test]
        fn scripted_outage_loses_work_and_recovers() {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            cfg.failure = FailureModel::Scripted {
                downs: vec![down(0, 300.0, 600.0), down(2, 450.0, 500.0)],
            };
            let mut e = engine(cfg, 51);
            e.run_until(SimTime::from(3_000.0));
            let m = e.model().metrics();
            // Locals kept arriving at the dead hosts and were lost…
            assert!(m.lost_locals > 10, "lost locals: {}", m.lost_locals);
            // …global subtasks caught on node 0/2 were lost and re-placed.
            assert!(m.lost_subtasks > 0, "lost subtasks: {}", m.lost_subtasks);
            assert!(m.redispatches > 0);
            assert!(m.redispatches <= m.lost_subtasks);
            // The fleet heals: tasks keep completing after the outage.
            assert!(m.global.completed() > 300);
            assert!(e.model().tasks_in_flight() < 200);
            // Terminal accounting: every terminal local/global is exactly
            // one of completion-with-response, abort, loss, abandonment.
            assert_eq!(
                m.local.response().count() + m.aborted_locals + m.lost_locals,
                m.local.completed()
            );
            assert_eq!(
                m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                m.global.completed()
            );
            // Both nodes are back up at the end.
            assert!(e.model().nodes().iter().all(|n| !n.is_down()));
        }

        #[test]
        fn whole_fleet_outage_abandons_tasks() {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            let downs = (0..cfg.workload.nodes)
                .map(|i| down(i, 200.0, 260.0))
                .collect();
            cfg.failure = FailureModel::Scripted { downs };
            let mut e = engine(cfg, 52);
            e.run_until(SimTime::from(1_500.0));
            let m = e.model().metrics();
            // Globals arriving while every node is down have nowhere to
            // go: their fan-out is lost and the task abandoned.
            assert!(
                m.abandoned_globals > 0,
                "abandoned: {}",
                m.abandoned_globals
            );
            assert!(e.model().tasks_in_flight() < 100);
            assert_eq!(
                m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                m.global.completed()
            );
        }

        #[test]
        fn exponential_churn_keeps_the_model_sound() {
            let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
            cfg.failure = FailureModel::Exponential {
                mttf: 400.0,
                mttr: 60.0,
            };
            cfg.network = NetworkModel::Constant { delay: 0.25 };
            let mut e = engine(cfg, 53);
            e.run_until(SimTime::from(10_000.0));
            let m = e.model().metrics();
            assert!(m.lost_locals > 0);
            assert!(m.lost_subtasks > 0);
            assert!(m.redispatches > 0);
            assert!(m.global.completed() > 500);
            assert!(e.model().tasks_in_flight() < 200, "slab leak under churn");
            assert_eq!(
                m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                m.global.completed()
            );
        }

        #[test]
        fn redispatched_work_lands_on_surviving_nodes() {
            // One node down for most of the run: its subtasks must be
            // served elsewhere, so globals still complete and the dead
            // node accrues no service time while down.
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            cfg.failure = FailureModel::Scripted {
                downs: vec![down(1, 150.0, 4_900.0)],
            };
            let mut e = engine(cfg, 54);
            let horizon = SimTime::from(5_000.0);
            e.run_until(horizon);
            let m = e.model().metrics();
            assert!(m.redispatches > 50, "redispatches: {}", m.redispatches);
            assert!(m.global.completed() > 500);
            let utils: Vec<f64> = e
                .model()
                .nodes()
                .iter()
                .map(|n| n.utilization(horizon))
                .collect();
            // Node 1 served ~nothing; its wrap-around neighbour 2 absorbed
            // the re-dispatched share on top of its own.
            assert!(utils[1] < 0.10, "dead node utilization {}", utils[1]);
            assert!(utils[2] > utils[1]);
        }

        #[test]
        fn churn_with_abort_tardy_leaks_no_slots() {
            let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_div1());
            cfg.overload = OverloadPolicy::AbortTardy;
            cfg.workload.load = 0.9;
            cfg.network = NetworkModel::Exponential { mean: 0.3 };
            cfg.failure = FailureModel::Exponential {
                mttf: 250.0,
                mttr: 40.0,
            };
            let mut e = engine(cfg, 55);
            e.run_until(SimTime::from(8_000.0));
            let m = e.model().metrics();
            assert!(m.aborted_globals > 0);
            assert!(m.lost_subtasks > 0);
            assert!(
                e.model().tasks_in_flight() < 300,
                "{} tasks in flight under churn + aborts — leak?",
                e.model().tasks_in_flight()
            );
        }
    }
}
