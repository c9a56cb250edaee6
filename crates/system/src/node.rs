//! A processing node: one single-job server plus its ready queue.
//! Non-preemptive by default (the paper's model); the preemption hooks
//! ([`Node::should_preempt`], [`Node::preempt`]) support the preemptive
//! ablation study.
//!
//! Completion events are validated, not cancelled: every service start
//! bumps the node's *service epoch*, and the `ServiceComplete` event
//! scheduled for that start carries the epoch it belongs to. A completion
//! arriving with a stale epoch (its job was preempted) is simply ignored
//! by the model — preemption never reaches back into the future-event
//! list, which keeps the whole simulation on the handle-free fast path.

use sda_core::NodeId;
use sda_sched::{Job, Policy, ReadyQueue};
use sda_sim::stats::TimeWeighted;
use sda_sim::SimTime;

use crate::config::OverloadPolicy;

/// The in-service job stays resident in the ready queue's job slab; the
/// node only tracks which slot it occupies and when it started.
#[derive(Debug)]
struct InService {
    slot: u32,
    started: SimTime,
}

/// One node of the distributed system: an independent server with its own
/// scheduler (paper §3.2). The simulation model drives it; the node only
/// owns local state (queue, busy server, utilization accounting).
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    queue: ReadyQueue,
    in_service: Option<InService>,
    /// Monotone count of service starts; see [`Node::service_epoch`].
    service_epoch: u64,
    /// Whether the node has crashed (see [`Node::fail`]). A down node
    /// accepts no jobs; hand-offs addressed to it are lost.
    down: bool,
    utilization: TimeWeighted,
    queue_length: TimeWeighted,
    served: u64,
}

impl Node {
    /// A new idle node with an empty queue under `policy`.
    pub fn new(id: NodeId, policy: Policy) -> Node {
        Node {
            id,
            queue: ReadyQueue::new(policy),
            in_service: None,
            service_epoch: 0,
            down: false,
            utilization: TimeWeighted::new(SimTime::ZERO, 0.0),
            queue_length: TimeWeighted::new(SimTime::ZERO, 0.0),
            served: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the server is currently serving a job.
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Whether the node has crashed and not yet been repaired.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Crashes the node at `now`: the in-service job (if any) and every
    /// queued job are moved into `lost` in service order and their slab
    /// slots vacated (the freed slots are recycled verbatim on rejoin —
    /// no slab growth, no leaked slots). The service epoch is bumped so
    /// the completion event already scheduled for the in-service job can
    /// never resurrect it, even across a later repair.
    ///
    /// # Panics
    ///
    /// Panics if the node is already down.
    pub fn fail(&mut self, now: SimTime, lost: &mut Vec<Job>) {
        assert!(!self.down, "fail on a node that is already down");
        self.down = true;
        if let Some(cur) = self.in_service.take() {
            self.utilization.update(now, 0.0);
            lost.push(self.queue.release(cur.slot));
        }
        // Stale-completion safety net: the epoch moves even though the
        // `in_service.is_some()` half of `completion_is_current` already
        // rejects the orphaned completion.
        self.service_epoch += 1;
        self.queue.purge_into(lost);
        self.queue_length.update(now, 0.0);
    }

    /// Repairs the node at `now`: it rejoins with an empty queue and an
    /// idle server (crash semantics — nothing survives the outage).
    ///
    /// # Panics
    ///
    /// Panics if the node is not down.
    pub fn recover(&mut self, now: SimTime) {
        assert!(self.down, "recover on a node that is up");
        debug_assert!(self.in_service.is_none() && self.queue.is_empty());
        self.down = false;
        // Both time-weighted stats are already integrating zero; touch
        // them anyway so the repair instant appears as a sample point.
        self.utilization.update(now, 0.0);
        self.queue_length.update(now, 0.0);
    }

    /// The job in service, if any.
    pub fn current(&self) -> Option<&Job> {
        self.in_service.as_ref().map(|s| self.queue.job(s.slot))
    }

    /// The current service epoch: incremented every time a job starts
    /// service. A `ServiceComplete` event stamped with epoch `e` is valid
    /// iff the server is busy and `service_epoch() == e` — each epoch
    /// names exactly one service start, and exactly one completion event
    /// is scheduled per start.
    pub fn service_epoch(&self) -> u64 {
        self.service_epoch
    }

    /// Whether a completion event stamped with `epoch` refers to the job
    /// currently in service (as opposed to one preempted since).
    pub fn completion_is_current(&self, epoch: u64) -> bool {
        self.in_service.is_some() && self.service_epoch == epoch
    }

    /// Whether the queue head would be served strictly before the job in
    /// service under the node's discipline — i.e. whether a preemptive
    /// server would switch now.
    pub(crate) fn should_preempt(&self) -> bool {
        match (self.in_service.as_ref(), self.queue.peek()) {
            (Some(cur), Some(head)) => self.queue.policy().beats(head, self.queue.job(cur.slot)),
            _ => false,
        }
    }

    /// Stops the in-service job at `now`, reducing its remaining service
    /// (and prediction) by the time already received, and returns it for
    /// the caller to re-enqueue. The completion event already scheduled
    /// for this job is *not* cancelled — it carries the now-stale epoch
    /// and will be ignored when it fires.
    ///
    /// # Panics
    ///
    /// Panics if the server is idle.
    pub fn preempt(&mut self, now: SimTime) -> Job {
        let cur = self.in_service.take().expect("preempt on an idle server");
        let elapsed = now - cur.started;
        let job = self.queue.job_mut(cur.slot);
        job.service = (job.service - elapsed).max(0.0);
        job.pex = (job.pex - elapsed).max(0.0);
        self.utilization.update(now, 0.0);
        self.queue.release(cur.slot)
    }

    /// Preempts the in-service job at `now` and re-enqueues it in place:
    /// remaining service and prediction are burned down inside the job
    /// slab, and only the slot index re-enters the heap (with a fresh
    /// FIFO sequence, exactly as a pop-adjust-push round trip would get).
    /// Equivalent to `let j = preempt(now); enqueue(now, j);` without
    /// moving the payload.
    ///
    /// # Panics
    ///
    /// Panics if the server is idle.
    pub(crate) fn preempt_requeue(&mut self, now: SimTime) {
        let cur = self.in_service.take().expect("preempt on an idle server");
        let elapsed = now - cur.started;
        let job = self.queue.job_mut(cur.slot);
        job.service = (job.service - elapsed).max(0.0);
        job.pex = (job.pex - elapsed).max(0.0);
        self.utilization.update(now, 0.0);
        self.queue.requeue(cur.slot);
        self.queue_length.update(now, self.queue.len() as f64);
    }

    /// Queued jobs (not counting the one in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Job-slab slots ever grown at this node (occupied + free) — lets
    /// tests prove crash cancellation recycles slots instead of leaking.
    pub fn slab_capacity(&self) -> usize {
        self.queue.slab_capacity()
    }

    /// Jobs completely served since the last reset.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Enqueues a job at `now`.
    ///
    /// The caller must route around down nodes ([`Node::is_down`]) — a
    /// crashed node accepts nothing.
    pub fn enqueue(&mut self, now: SimTime, job: Job) {
        debug_assert!(!self.down, "enqueue on a down node");
        self.queue.push(job);
        self.queue_length.update(now, self.queue.len() as f64);
    }

    fn start(&mut self, now: SimTime, slot: u32) {
        self.queue_length.update(now, self.queue.len() as f64);
        self.utilization.update(now, 1.0);
        self.service_epoch += 1;
        self.in_service = Some(InService { slot, started: now });
    }

    /// If the server is idle, pops the next job (per the discipline) and
    /// marks the server busy; the job itself stays resident in the queue
    /// slab. Returns a copy of the started job so the caller can schedule
    /// its completion (stamped with the new [`Node::service_epoch`]).
    /// Does nothing when busy or empty.
    pub fn try_start(&mut self, now: SimTime) -> Option<Job> {
        debug_assert!(!self.down, "try_start on a down node");
        if self.in_service.is_some() {
            return None;
        }
        let slot = self.queue.pop_slot()?;
        self.start(now, slot);
        Some(*self.queue.job(slot))
    }

    /// Like [`Node::try_start`] but discards queued jobs failing
    /// `admit` (the firm-deadline overload policy) instead of serving
    /// them; discarded jobs are appended to the caller-provided
    /// `discarded` buffer (not cleared first), so the hot path reuses
    /// one buffer instead of allocating per dispatch.
    pub(crate) fn try_start_with_admission(
        &mut self,
        now: SimTime,
        mut admit: impl FnMut(&Job) -> bool,
        discarded: &mut Vec<Job>,
    ) -> Option<Job> {
        if self.in_service.is_some() {
            return None;
        }
        while let Some(slot) = self.queue.pop_slot() {
            if admit(self.queue.job(slot)) {
                self.start(now, slot);
                return Some(*self.queue.job(slot));
            }
            discarded.push(self.queue.release(slot));
        }
        self.queue_length.update(now, self.queue.len() as f64);
        None
    }

    /// One dispatch round at `now`: in preemptive mode the running job is
    /// first preempted and requeued when the queue head outranks it; then
    /// an idle server starts the next job under the overload policy.
    /// Jobs discarded by [`OverloadPolicy::AbortTardy`] are appended to
    /// `discards` in discard order. Returns the started job, whose
    /// completion the caller books under the new
    /// [`Node::service_epoch`]; the job it preempted keeps its old,
    /// now stale, completion.
    #[inline]
    pub fn dispatch(
        &mut self,
        now: SimTime,
        preemptive: bool,
        overload: OverloadPolicy,
        discards: &mut Vec<Job>,
    ) -> Option<Job> {
        if preemptive && self.should_preempt() {
            self.preempt_requeue(now);
        }
        match overload {
            OverloadPolicy::NoAbort => self.try_start(now),
            OverloadPolicy::AbortTardy => {
                let t = now.as_f64();
                self.try_start_with_admission(now, |j| !j.is_tardy(t), discards)
            }
        }
    }

    /// Marks the in-service job finished at `now`, vacating its slab slot
    /// and returning it.
    ///
    /// # Panics
    ///
    /// Panics if the server was idle — a completion event without a job
    /// in service indicates a model bug (stale completions must be
    /// filtered with [`Node::completion_is_current`] first).
    pub(crate) fn finish_service(&mut self, now: SimTime) -> Job {
        let cur = self
            .in_service
            .take()
            .expect("finish_service on an idle server");
        self.utilization.update(now, 0.0);
        self.served += 1;
        self.queue.release(cur.slot)
    }

    /// Time-average server utilization since the last reset.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.utilization.time_average(now)
    }

    /// Time-average queue length since the last reset.
    pub fn mean_queue_length(&self, now: SimTime) -> f64 {
        self.queue_length.time_average(now)
    }

    /// Restarts the node's statistics at `now` (warm-up deletion); the
    /// queue and server state are preserved.
    pub(crate) fn reset_stats(&mut self, now: SimTime) {
        self.utilization.reset(now);
        self.queue_length.reset(now);
        self.served = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::TaskId;

    fn t(x: f64) -> SimTime {
        SimTime::from(x)
    }

    fn job(deadline: f64, service: f64) -> Job {
        Job::local(TaskId::new(0), 0.0, service, deadline)
    }

    #[test]
    fn idle_node_starts_earliest_deadline() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(9.0, 1.0));
        n.enqueue(t(0.0), job(3.0, 1.0));
        let started = n.try_start(t(0.0)).unwrap();
        assert_eq!(started.deadline, 3.0);
        assert!(n.is_busy());
        assert!(n.try_start(t(0.0)).is_none(), "busy server refuses");
        let done = n.finish_service(t(1.0));
        assert_eq!(done.deadline, 3.0);
        assert_eq!(n.served(), 1);
        assert!(!n.is_busy());
    }

    #[test]
    fn utilization_integrates_busy_time() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        n.enqueue(t(0.0), job(9.0, 2.0));
        n.try_start(t(0.0));
        n.finish_service(t(2.0));
        // Busy on [0,2), idle on [2,4) → 50%.
        assert!((n.utilization(t(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn admission_discards_tardy_jobs() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(1.0, 1.0)); // will be tardy at t=5
        n.enqueue(t(0.0), job(2.0, 1.0)); // also tardy
        n.enqueue(t(0.0), job(9.0, 1.0)); // fine
        let now = t(5.0);
        let mut discarded = Vec::new();
        let started =
            n.try_start_with_admission(now, |j| !j.is_tardy(now.as_f64()), &mut discarded);
        assert_eq!(started.unwrap().deadline, 9.0);
        assert_eq!(discarded.len(), 2);
        assert_eq!(n.queue_len(), 0);
    }

    #[test]
    fn admission_with_all_tardy_leaves_idle() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(1.0, 1.0));
        let now = t(5.0);
        let mut discarded = Vec::new();
        let started =
            n.try_start_with_admission(now, |j| !j.is_tardy(now.as_f64()), &mut discarded);
        assert!(started.is_none());
        assert_eq!(discarded.len(), 1);
        assert!(!n.is_busy());
    }

    #[test]
    fn preemption_reduces_remaining_service() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(9.0, 4.0));
        n.try_start(t(0.0));
        assert!(!n.should_preempt(), "empty queue never preempts");
        // A tighter job arrives at t=1.
        n.enqueue(t(1.0), job(3.0, 1.0));
        assert!(n.should_preempt());
        let preempted = n.preempt(t(1.0));
        assert_eq!(preempted.deadline, 9.0);
        assert!(
            (preempted.service - 3.0).abs() < 1e-12,
            "1 of 4 units served"
        );
        assert!(!n.is_busy());
        // Re-enqueue and continue: tighter job runs first.
        n.enqueue(t(1.0), preempted);
        assert_eq!(n.try_start(t(1.0)).unwrap().deadline, 3.0);
    }

    #[test]
    fn preempt_requeue_equals_preempt_plus_enqueue() {
        let drive = |requeue_in_place: bool| {
            let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
            n.enqueue(t(0.0), job(9.0, 4.0));
            n.try_start(t(0.0));
            n.enqueue(t(1.0), job(3.0, 1.0));
            if requeue_in_place {
                n.preempt_requeue(t(1.0));
            } else {
                let j = n.preempt(t(1.0));
                n.enqueue(t(1.0), j);
            }
            // The tighter job starts; the preempted one follows with its
            // remaining 3 units of service.
            let first = n.try_start(t(1.0)).unwrap();
            n.finish_service(t(2.0));
            let second = n.try_start(t(2.0)).unwrap();
            (
                first.deadline,
                second.deadline,
                second.service,
                n.service_epoch(),
                n.utilization(t(2.0)).to_bits(),
                n.mean_queue_length(t(2.0)).to_bits(),
            )
        };
        assert_eq!(drive(true), drive(false));
        let got = drive(true);
        assert_eq!((got.0, got.1, got.2, got.3), (3.0, 9.0, 3.0, 3));
    }

    #[test]
    fn epochs_invalidate_preempted_completions() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(9.0, 4.0));
        n.try_start(t(0.0));
        let first_epoch = n.service_epoch();
        assert!(n.completion_is_current(first_epoch));

        n.enqueue(t(1.0), job(3.0, 1.0));
        let preempted = n.preempt(t(1.0));
        assert!(
            !n.completion_is_current(first_epoch),
            "idle server: the old completion is stale"
        );
        n.enqueue(t(1.0), preempted);
        n.try_start(t(1.0));
        let second_epoch = n.service_epoch();
        assert!(second_epoch > first_epoch, "every start bumps the epoch");
        assert!(
            !n.completion_is_current(first_epoch),
            "completion for the preempted start stays stale forever"
        );
        assert!(n.completion_is_current(second_epoch));
    }

    #[test]
    fn equal_deadlines_do_not_preempt() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(5.0, 2.0));
        n.try_start(t(0.0));
        n.enqueue(t(0.0), job(5.0, 2.0));
        assert!(!n.should_preempt(), "FIFO ties never preempt");
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn finish_on_idle_panics() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        n.finish_service(t(1.0));
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        n.enqueue(t(0.0), job(9.0, 1.0));
        n.try_start(t(0.0));
        n.finish_service(t(1.0));
        n.reset_stats(t(1.0));
        assert_eq!(n.served(), 0);
        assert_eq!(n.utilization(t(2.0)), 0.0);
    }

    #[test]
    fn fail_loses_everything_and_recycles_slots() {
        let mut n = Node::new(NodeId::new(0), Policy::EarliestDeadlineFirst);
        n.enqueue(t(0.0), job(9.0, 2.0));
        n.enqueue(t(0.0), job(3.0, 1.0));
        n.enqueue(t(0.0), job(5.0, 1.0));
        n.try_start(t(0.0)); // serves the dl-3 job
        let epoch = n.service_epoch();
        assert!(!n.is_down());

        let mut lost = Vec::new();
        n.fail(t(1.0), &mut lost);
        assert!(n.is_down());
        assert!(!n.is_busy());
        assert_eq!(n.queue_len(), 0);
        // In-service job first, then the queue in service order.
        assert_eq!(lost.len(), 3);
        assert_eq!(lost[0].deadline, 3.0);
        assert_eq!(lost[1].deadline, 5.0);
        assert_eq!(lost[2].deadline, 9.0);
        assert!(
            !n.completion_is_current(epoch),
            "the orphaned completion is stale"
        );

        n.recover(t(4.0));
        assert!(!n.is_down());
        // Rejoining reuses the freed slab slots verbatim.
        n.enqueue(t(4.0), job(7.0, 1.0));
        n.enqueue(t(4.0), job(8.0, 1.0));
        n.enqueue(t(4.0), job(9.0, 1.0));
        assert_eq!(n.slab_capacity(), 3);
        assert_eq!(n.try_start(t(4.0)).unwrap().deadline, 7.0);
    }

    #[test]
    fn fail_on_an_idle_empty_node_loses_nothing() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        let mut lost = Vec::new();
        n.fail(t(1.0), &mut lost);
        assert!(lost.is_empty());
        n.recover(t(2.0));
        assert!(!n.is_down());
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        let mut lost = Vec::new();
        n.fail(t(1.0), &mut lost);
        n.fail(t(2.0), &mut lost);
    }

    #[test]
    #[should_panic(expected = "node that is up")]
    fn recover_on_an_up_node_panics() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        n.recover(t(1.0));
    }

    #[test]
    fn queue_length_time_average() {
        let mut n = Node::new(NodeId::new(0), Policy::Fcfs);
        n.enqueue(t(0.0), job(9.0, 1.0));
        n.enqueue(t(0.0), job(9.0, 1.0));
        // 2 queued on [0,2), then one starts (1 queued) on [2,4).
        n.try_start(t(2.0));
        assert!((n.mean_queue_length(t(4.0)) - 1.5).abs() < 1e-12);
    }
}
