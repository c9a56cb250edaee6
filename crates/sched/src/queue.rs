//! Ready-queue disciplines.

use std::fmt;

use serde::{Deserialize, Serialize};

use sda_core::PriorityClass;
use sda_sim::pq::{key_from_f64, MinHeap};

use crate::job::Job;

/// The scheduling discipline a node applies to its ready queue.
///
/// All disciplines here are *non-preemptive* and reduce to a static
/// per-job key (ties broken FIFO):
///
/// | Policy | Key | Notes |
/// |---|---|---|
/// | `Fcfs` | enqueue order | calibration baseline (M/M/1 theory applies) |
/// | `EarliestDeadlineFirst` | `deadline` | the paper's default local policy |
/// | `ShortestJobFirst` | `pex` | size-based comparison point |
/// | `MinimumLaxityFirst` | `deadline − pex` | laxity at dispatch: since every queued job's laxity decreases at the same rate, ordering by laxity at any instant equals ordering by this static key |
///
/// Why MLF's key is static: non-preemptive MLF picks, at dispatch time
/// `t`, the job minimizing `dl − t − pex`. The `−t` term is common to all
/// candidates, so the argmin is the job minimizing `dl − pex` — which
/// never changes while jobs wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// First come, first served.
    Fcfs,
    /// Earliest (virtual) deadline first — the paper's baseline.
    EarliestDeadlineFirst,
    /// Shortest predicted job first.
    ShortestJobFirst,
    /// Minimum laxity (`dl − now − pex`) first, evaluated at dispatch.
    MinimumLaxityFirst,
}

impl Policy {
    /// All disciplines, for sweeps.
    pub const ALL: [Policy; 4] = [
        Policy::Fcfs,
        Policy::EarliestDeadlineFirst,
        Policy::ShortestJobFirst,
        Policy::MinimumLaxityFirst,
    ];

    /// Short display name (`FCFS`, `EDF`, `SJF`, `MLF`).
    pub fn short_name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "FCFS",
            Policy::EarliestDeadlineFirst => "EDF",
            Policy::ShortestJobFirst => "SJF",
            Policy::MinimumLaxityFirst => "MLF",
        }
    }

    /// The static ordering key the discipline assigns to a job (smaller
    /// pops first within a priority class). Exposed so preemption logic
    /// can compare an in-service job against a queued candidate.
    pub(crate) fn sort_key(&self, job: &Job) -> f64 {
        match self {
            Policy::Fcfs => 0.0, // sequence number alone decides
            Policy::EarliestDeadlineFirst => job.deadline,
            Policy::ShortestJobFirst => job.pex,
            Policy::MinimumLaxityFirst => job.deadline - job.pex,
        }
    }

    /// Whether `candidate` would be served strictly before `incumbent`
    /// under this discipline (elevated class first, then the key;
    /// FIFO ties do **not** preempt).
    pub fn beats(&self, candidate: &Job, incumbent: &Job) -> bool {
        let rank = |j: &Job| match j.priority {
            sda_core::PriorityClass::Elevated => 0u8,
            sda_core::PriorityClass::Normal => 1u8,
        };
        (rank(candidate), self.sort_key(candidate)) < (rank(incumbent), self.sort_key(incumbent))
    }

    fn key(&self, job: &Job) -> f64 {
        self.sort_key(job)
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Packs the full service order — class rank (1 bit), discipline key
/// (64 order-preserving float bits), FIFO sequence (63 bits) — into one
/// `u128` so the heap compares a single integer per sift step. The heap
/// sifts only `(key, slot)` records over the [`Job`] slab; whole jobs
/// never move after being enqueued.
#[inline]
fn pack_key(class_rank: u8, key: f64, seq: u64) -> u128 {
    debug_assert!(seq < (1 << 63), "ready-queue sequence overflow");
    (u128::from(class_rank) << 127) | (u128::from(key_from_f64(key)) << 63) | u128::from(seq)
}

/// A node's ready queue: a heap of packed `(class, key, seq)` keys over
/// a [`Job`] slab, under a [`Policy`], serving `Elevated` jobs strictly
/// before `Normal` ones and breaking ties FIFO.
///
/// Jobs can stay *slab-resident* across their whole node lifetime:
/// [`ReadyQueue::pop_slot`] hands out the slot index of the next job
/// without moving the payload, [`ReadyQueue::job_mut`] mutates it in
/// place (e.g. to burn down remaining service on preemption),
/// [`ReadyQueue::requeue`] re-enters a checked-out slot under a fresh
/// FIFO sequence, and [`ReadyQueue::release`] finally vacates the slot.
/// Dispatch and preemption therefore move indices, not owned `Job`
/// payloads.
///
/// # Examples
///
/// ```
/// use sda_sched::{Job, Policy, ReadyQueue};
/// use sda_core::TaskId;
///
/// let mut q = ReadyQueue::new(Policy::MinimumLaxityFirst);
/// // laxity keys: 9−3 = 6 vs 8−1 = 7 → the first job pops first.
/// let tight = Job::local(TaskId::new(1), 0.0, 3.0, 9.0);
/// let loose = Job::local(TaskId::new(2), 0.0, 1.0, 8.0);
/// q.push(loose);
/// q.push(tight);
/// assert_eq!(q.pop().unwrap().deadline, 9.0);
/// ```
pub struct ReadyQueue {
    policy: Policy,
    heap: MinHeap<u32>,
    /// Slab of queued jobs; the heap payload indexes into it. A slot is
    /// `None` exactly while it sits on the free list.
    slots: Vec<Option<Job>>,
    /// Vacant slab slots available for reuse.
    free: Vec<u32>,
    seq: u64,
}

impl ReadyQueue {
    /// An empty queue under `policy`.
    pub fn new(policy: Policy) -> ReadyQueue {
        ReadyQueue {
            policy,
            heap: MinHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// The discipline in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    #[inline]
    fn heap_key(&self, job: &Job) -> u128 {
        let class_rank = match job.priority {
            PriorityClass::Elevated => 0,
            PriorityClass::Normal => 1,
        };
        pack_key(class_rank, self.policy.key(job), self.seq)
    }

    /// Enqueues a job.
    pub fn push(&mut self, job: Job) {
        let key = self.heap_key(&job);
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(job);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX queued jobs");
                self.slots.push(Some(job));
                slot
            }
        };
        self.heap.push(key, slot);
    }

    /// Removes and returns the next job to serve.
    pub fn pop(&mut self) -> Option<Job> {
        let slot = self.pop_slot()?;
        Some(self.release(slot))
    }

    /// Removes the next heap entry and returns its *slot index*, leaving
    /// the job slab-resident (checked out: not in the heap, not on the
    /// free list). The caller later either [`ReadyQueue::release`]s the
    /// slot or [`ReadyQueue::requeue`]s it.
    pub fn pop_slot(&mut self) -> Option<u32> {
        let (_, slot) = self.heap.pop()?;
        debug_assert!(self.slots[slot as usize].is_some());
        Some(slot)
    }

    /// The job parked in a checked-out slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn job(&self, slot: u32) -> &Job {
        self.slots[slot as usize]
            .as_ref()
            .expect("job() on a vacant slot")
    }

    /// Mutable access to a checked-out slot's job — e.g. to burn down
    /// remaining service before a preemption requeue.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn job_mut(&mut self, slot: u32) -> &mut Job {
        self.slots[slot as usize]
            .as_mut()
            .expect("job_mut() on a vacant slot")
    }

    /// Re-enters a checked-out slot into the heap under a fresh FIFO
    /// sequence, re-reading the (possibly mutated) job's ordering key.
    /// Exactly equivalent to popping the job and pushing it back, minus
    /// the payload round trip.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn requeue(&mut self, slot: u32) {
        let key = self.heap_key(self.job(slot));
        self.seq += 1;
        self.heap.push(key, slot);
    }

    /// Vacates a checked-out slot, returning the job that occupied it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn release(&mut self, slot: u32) -> Job {
        let job = self.slots[slot as usize]
            .take()
            .expect("release() on a vacant slot");
        self.free.push(slot);
        job
    }

    /// The job that would be served next, without removing it.
    pub fn peek(&self) -> Option<&Job> {
        let (_, &slot) = self.heap.peek()?;
        self.slots[slot as usize].as_ref()
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of slab slots ever grown (occupied + free). Exposed so
    /// tests can prove mass cancellation recycles slots instead of
    /// growing the slab.
    pub fn slab_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Mass cancellation: moves every queued job into `out` (service
    /// order) and vacates its slab slot. The slab and heap keep their
    /// capacity and every vacated slot lands on the free list, so a node
    /// failure that wipes the queue allocates nothing once `out` has
    /// capacity — and the freed slots are reused verbatim when the node
    /// rejoins.
    pub fn purge_into(&mut self, out: &mut Vec<Job>) {
        while let Some(slot) = self.pop_slot() {
            out.push(self.release(slot));
        }
    }
}

impl fmt::Debug for ReadyQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadyQueue")
            .field("policy", &self.policy)
            .field("len", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::{SubtaskRef, TaskId};

    fn job(deadline: f64, pex: f64) -> Job {
        let mut j = Job::local(TaskId::new(0), 0.0, pex, deadline);
        j.pex = pex;
        j
    }

    /// Pops every queued job, in service order.
    fn drain(q: &mut ReadyQueue) -> Vec<Job> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        q.push(job(5.0, 1.0));
        q.push(job(2.0, 1.0));
        q.push(job(8.0, 1.0));
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.deadline).collect();
        assert_eq!(order, vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let mut q = ReadyQueue::new(Policy::Fcfs);
        q.push(job(5.0, 1.0));
        q.push(job(2.0, 1.0));
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.deadline).collect();
        assert_eq!(order, vec![5.0, 2.0]);
    }

    #[test]
    fn sjf_orders_by_pex() {
        let mut q = ReadyQueue::new(Policy::ShortestJobFirst);
        q.push(job(1.0, 3.0));
        q.push(job(2.0, 1.0));
        q.push(job(3.0, 2.0));
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.pex).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mlf_orders_by_static_laxity_key() {
        let mut q = ReadyQueue::new(Policy::MinimumLaxityFirst);
        q.push(job(9.0, 3.0)); // key 6
        q.push(job(8.0, 1.0)); // key 7
        q.push(job(7.0, 2.5)); // key 4.5
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.deadline).collect();
        assert_eq!(order, vec![7.0, 9.0, 8.0]);
    }

    #[test]
    fn ties_break_fifo_for_determinism() {
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        for i in 0..10 {
            let mut j = job(5.0, 1.0);
            j.enqueue_time = f64::from(i);
            q.push(j);
        }
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.enqueue_time).collect();
        assert_eq!(order, (0..10).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn elevated_jobs_always_first_with_edf_within_class() {
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        q.push(job(1.0, 1.0)); // normal, earliest deadline overall
        let mut g1 = Job::global(
            TaskId::new(9),
            subtask_ref(),
            0.0,
            1.0,
            1.0,
            50.0,
            PriorityClass::Elevated,
        );
        let mut g2 = g1;
        g1.deadline = 50.0;
        g2.deadline = 40.0;
        q.push(g1);
        q.push(g2);
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.deadline).collect();
        // Elevated first (EDF within: 40 before 50), then the local.
        assert_eq!(order, vec![40.0, 50.0, 1.0]);
    }

    fn subtask_ref() -> SubtaskRef {
        // Obtain a real SubtaskRef by running a tiny TaskRun.
        use sda_core::{NodeId, SdaStrategy, TaskRun, TaskSpec};
        let spec = TaskSpec::simple(NodeId::new(0), 1.0, 1.0);
        let mut run = TaskRun::new(&spec, 0.0, 1.0).unwrap();
        run.start(&SdaStrategy::ud_ud(), 0.0)[0].subtask
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        q.push(job(3.0, 1.0));
        q.push(job(1.0, 1.0));
        assert_eq!(q.peek().unwrap().deadline, 1.0);
        assert_eq!(q.pop().unwrap().deadline, 1.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn policy_metadata() {
        assert_eq!(Policy::ALL.len(), 4);
        assert_eq!(Policy::EarliestDeadlineFirst.to_string(), "EDF");
        assert_eq!(Policy::MinimumLaxityFirst.short_name(), "MLF");
    }

    #[test]
    fn debug_shows_policy_and_len() {
        let q = ReadyQueue::new(Policy::Fcfs);
        let s = format!("{q:?}");
        assert!(s.contains("Fcfs"));
    }

    #[test]
    fn beats_respects_key_and_class() {
        let p = Policy::EarliestDeadlineFirst;
        let early = job(2.0, 1.0);
        let late = job(8.0, 1.0);
        assert!(p.beats(&early, &late));
        assert!(!p.beats(&late, &early));
        assert!(!p.beats(&early, &early), "ties do not preempt");
        let mut elevated = job(50.0, 1.0);
        elevated.priority = PriorityClass::Elevated;
        assert!(p.beats(&elevated, &early), "class outranks deadline");
        assert_eq!(p.sort_key(&early), 2.0);
        assert_eq!(Policy::MinimumLaxityFirst.sort_key(&early), 1.0);
    }

    #[test]
    fn slot_api_keeps_job_resident_across_checkout() {
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        q.push(job(5.0, 2.0));
        q.push(job(3.0, 1.0));
        let slot = q.pop_slot().unwrap();
        assert_eq!(q.job(slot).deadline, 3.0);
        assert_eq!(q.len(), 1, "checked-out job is not queued");
        // Mutate in place (preemption burns down remaining service).
        q.job_mut(slot).service = 0.25;
        q.requeue(slot);
        assert_eq!(q.len(), 2);
        // Still earliest deadline; payload reflects the mutation.
        let j = q.pop().unwrap();
        assert_eq!(j.deadline, 3.0);
        assert_eq!(j.service, 0.25);
        assert_eq!(q.pop().unwrap().deadline, 5.0);
    }

    #[test]
    fn requeue_assigns_fresh_fifo_sequence() {
        // A requeued job ties with a later push on key → FIFO falls back
        // to sequence, and the requeue must count as the newest arrival.
        let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        let mut a = job(5.0, 1.0);
        a.enqueue_time = 0.0;
        q.push(a);
        let slot = q.pop_slot().unwrap();
        let mut b = job(5.0, 1.0);
        b.enqueue_time = 1.0;
        q.push(b);
        q.requeue(slot); // same deadline, newer sequence → behind b
        let order: Vec<f64> = drain(&mut q).iter().map(|j| j.enqueue_time).collect();
        assert_eq!(order, vec![1.0, 0.0]);
    }

    #[test]
    fn slot_release_matches_pop() {
        let mut q = ReadyQueue::new(Policy::ShortestJobFirst);
        q.push(job(1.0, 2.0));
        let slot = q.pop_slot().unwrap();
        let released = q.release(slot);
        assert_eq!(released.pex, 2.0);
        assert!(q.is_empty());
        // The slot is reusable.
        q.push(job(2.0, 3.0));
        assert_eq!(q.pop().unwrap().pex, 3.0);
    }

    #[test]
    fn mlf_equals_edf_when_pex_uniform() {
        // With identical pex, dl − pex ordering equals dl ordering.
        let mut mlf = ReadyQueue::new(Policy::MinimumLaxityFirst);
        let mut edf = ReadyQueue::new(Policy::EarliestDeadlineFirst);
        for dl in [5.0, 1.0, 3.0, 2.0, 4.0] {
            mlf.push(job(dl, 1.0));
            edf.push(job(dl, 1.0));
        }
        let a: Vec<f64> = drain(&mut mlf).iter().map(|j| j.deadline).collect();
        let b: Vec<f64> = drain(&mut edf).iter().map(|j| j.deadline).collect();
        assert_eq!(a, b);
    }
}
