//! The future-event list: a slab-backed priority queue with
//! generation-stamped O(1) cancellation and a handle-free fast path.
//!
//! Two scheduling paths share one heap:
//!
//! * [`EventQueue::schedule`] — for events that may later be cancelled.
//!   The payload lives in a slab slot stamped with a generation counter;
//!   the returned [`EventHandle`] encodes `(slot, generation)`.
//!   Cancellation bumps the slot's generation — O(1), no tombstone set —
//!   and the heap entry is skipped lazily when it surfaces.
//! * [`EventQueue::schedule_fast`] — for events that are never cancelled
//!   (the overwhelming majority in a simulation: arrivals, timers,
//!   non-preemptible completions). The payload travels inline in the heap
//!   entry: no slot, no generation, no handle, no bookkeeping of any kind
//!   beyond the heap push itself.
//!
//! Both paths order by `(time, sequence)`, so simultaneous events fire in
//! FIFO order regardless of which path scheduled them — the property that
//! makes the whole simulation deterministic. The pair is packed into one
//! `u128` ([`pq::key_from_f64`] bits above the sequence number) so the
//! underlying [`pq::MinHeap`] compares a single integer per sift step.
//!
//! Pops are deferred ([`pq::MinHeap::pop_deferred`]): a pop leaves the
//! heap *unsettled*, its root not yet sifted down, because the engine
//! usually schedules a successor right after it pops an event (in
//! `sdabench`, a push follows 81 % of event pops on `hetero96_net` and
//! 97 % on `pipelines` and `dag`), and that push settles the heap with
//! the one sift-down both need. A pop or bounded pop that finds the
//! heap unsettled settles it first. Every key is unique (the sequence
//! number, or under order fuzz its bijective scramble, fills the low 64
//! bits), so the pop order is the key order with or without deferral.

use std::fmt;

use crate::pq::{self, MinHeap};
use crate::time::SimTime;

/// Opaque handle to a cancellable scheduled event.
///
/// A handle names one specific scheduling: cancelling an already-fired or
/// already-cancelled event is a no-op (the slot's generation has moved
/// on). Handles from [`EventQueue::schedule_fast`] don't exist — that is
/// the point of the fast path.
///
/// Generations are 64-bit, so a slot would need 2⁶⁴ reuses before a
/// stale handle could alias a live event — out of reach for any run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    slot: u32,
    generation: u64,
}

impl EventHandle {
    #[inline]
    fn new(slot: u32, generation: u64) -> EventHandle {
        EventHandle { slot, generation }
    }

    #[inline]
    fn slot(self) -> u32 {
        self.slot
    }

    #[inline]
    fn generation(self) -> u64 {
        self.generation
    }
}

/// An event extracted from the queue: its firing time plus the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The simulation time at which the event fires.
    pub time: SimTime,
    /// The model-defined payload.
    pub event: E,
}

/// Where a heap entry's payload lives.
enum Payload<E> {
    /// Never-cancellable payload carried in the heap entry itself.
    Inline(E),
    /// Cancellable payload parked in `slots[slot]`, valid only while the
    /// slot's generation still equals `generation`.
    Slotted { slot: u32, generation: u64 },
}

/// Packs `(time, seq)` into the heap key: time bits (order-preserving)
/// above, insertion sequence below, so simultaneous events fire in FIFO
/// order — the property that makes the whole simulation deterministic.
#[inline]
fn pack_key(time: SimTime, seq: u64) -> u128 {
    (u128::from(pq::key_from_f64(time.as_f64())) << 64) | u128::from(seq)
}

/// Seeded bijective scramble of the FIFO sequence (a splitmix64-style
/// finalizer: add, xor-shift, odd multiplies). Being a bijection on
/// `u64`, scrambled sequences stay unique — no two heap keys ever
/// collide — while the *order* of simultaneous events becomes a seeded
/// pseudo-random permutation. Time order is untouched: the scramble
/// only fills the low 64 bits of the packed key.
#[inline]
fn scramble_seq(seq: u64, seed: u64) -> u64 {
    let mut z = seq.wrapping_add(seed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn time_of_key(key: u128) -> SimTime {
    SimTime::new(pq::f64_from_key((key >> 64) as u64))
}

/// One slab slot for a cancellable event's payload.
struct Slot<E> {
    /// Bumped every time the slot's payload is consumed (fired or
    /// cancelled); heap entries carrying an older generation are stale.
    /// 64-bit so it never wraps into an ABA aliasing in practice.
    generation: u64,
    event: Option<E>,
}

/// A future-event list: a priority queue of `(time, payload)` pairs with
/// deterministic FIFO ordering among simultaneous events, O(1)
/// cancellation, and a zero-bookkeeping path for never-cancelled events.
///
/// # Examples
///
/// ```
/// use sda_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_fast(SimTime::from(2.0), "late");
/// let h = q.schedule(SimTime::from(1.0), "early");
/// q.schedule_fast(SimTime::from(1.0), "early-2nd");
/// q.cancel(h);
/// assert_eq!(q.pop().unwrap().event, "early-2nd");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: MinHeap<Payload<E>>,
    /// Slab of cancellable payloads, indexed by [`EventHandle::slot`].
    slots: Vec<Slot<E>>,
    /// Indices of vacant slab slots available for reuse.
    free: Vec<u32>,
    next_seq: u64,
    /// Pending (scheduled, not yet fired or cancelled) events.
    live: usize,
    /// Order-fuzz seed: 0 = exact FIFO among simultaneous events (the
    /// default); non-zero scrambles the sequence bits of every key
    /// through [`scramble_seq`], turning same-timestamp order into a
    /// seeded permutation.
    fuzz: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: MinHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            fuzz: 0,
        }
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The sequence bits the next event's key will carry: the raw FIFO
    /// sequence by default, a seeded bijective scramble of it under
    /// order fuzz.
    #[inline]
    fn key_seq(&mut self) -> u64 {
        let seq = self.next_seq();
        if self.fuzz == 0 {
            seq
        } else {
            scramble_seq(seq, self.fuzz)
        }
    }

    /// Sets the order-fuzz seed. `0` (the default) keeps the documented
    /// FIFO order among simultaneous events; any other value replaces
    /// that tie order with a seeded pseudo-random permutation (still
    /// fully deterministic for a given seed, and never affecting the
    /// time order). A model whose observable behavior is tie-order
    /// independent — as a discrete-event simulation over continuous
    /// distributions should be — produces identical results under every
    /// seed, which is exactly what fuzz harnesses assert.
    ///
    /// Affects only events scheduled *after* the call; set it before
    /// scheduling anything for a whole-run permutation.
    pub fn set_order_fuzz(&mut self, seed: u64) {
        self.fuzz = seed;
    }

    /// The active order-fuzz seed (0 = exact FIFO).
    pub fn order_fuzz(&self) -> u64 {
        self.fuzz
    }

    /// Schedules `event` to fire at `time`. Returns a handle usable with
    /// [`EventQueue::cancel`].
    ///
    /// Prefer [`EventQueue::schedule_fast`] for events that will never be
    /// cancelled; it skips the slab entirely.
    ///
    /// Nothing outside this crate's tests schedules a cancellable event
    /// but the `sdabench` benchmark's `schedule_cancel_ns` loop; a later
    /// change to the benchmark removes this path.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.event.is_none(), "free list pointed at a full slot");
                s.event = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX simultaneous cancellable events");
                self.slots.push(Slot {
                    generation: 0,
                    event: Some(event),
                });
                slot
            }
        };
        let generation = self.slots[slot as usize].generation;
        let seq = self.key_seq();
        self.heap
            .push(pack_key(time, seq), Payload::Slotted { slot, generation });
        self.live += 1;
        EventHandle::new(slot, generation)
    }

    /// Schedules `event` at `time` with no way to cancel it — the
    /// hot path. The payload rides inline in the heap entry: no slab
    /// traffic, no handle, no per-event bookkeeping.
    pub fn schedule_fast(&mut self, time: SimTime, event: E) {
        let seq = self.key_seq();
        self.heap.push(pack_key(time, seq), Payload::Inline(event));
        self.live += 1;
    }

    /// Cancels a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending (and is now cancelled), `false` if it had
    /// already fired or been cancelled.
    ///
    /// Like [`EventQueue::schedule`], it stays only for the `sdabench`
    /// benchmark's `schedule_cancel_ns` loop; a later change to the
    /// benchmark removes it.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot() as usize) else {
            return false;
        };
        if slot.generation != handle.generation() || slot.event.is_none() {
            return false;
        }
        slot.event = None;
        slot.generation += 1;
        self.free.push(handle.slot());
        self.live -= 1;
        true
    }

    /// Consumes the payload a surfaced heap entry refers to, or `None`
    /// if the entry is stale (its event was cancelled).
    #[inline]
    fn claim(&mut self, payload: Payload<E>) -> Option<E> {
        match payload {
            Payload::Inline(event) => Some(event),
            Payload::Slotted { slot, generation } => {
                let s = &mut self.slots[slot as usize];
                if s.generation != generation {
                    return None;
                }
                let event = s.event.take().expect("live generation with empty slot");
                s.generation += 1;
                self.free.push(slot);
                Some(event)
            }
        }
    }

    /// Removes and returns the earliest pending event, skipping stale
    /// (cancelled) entries. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        while let Some((key, payload)) = self.heap.pop_deferred() {
            if let Some(event) = self.claim(payload) {
                self.live -= 1;
                return Some(ScheduledEvent {
                    time: time_of_key(key),
                    event,
                });
            }
        }
        None
    }

    /// Pops the earliest pending event only if it fires at or before
    /// `horizon` — the one-heap-access fast path for
    /// [`Engine::run_until`](crate::Engine::run_until) loops.
    // Inlined so every event loop keeps its pop inside the loop,
    // whichever codegen unit the loop lands in. Without the hint the
    // loop's machine code followed the crate's codegen-unit split, and
    // one such split ran the simulator measurably slower.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let horizon_key = pq::key_from_f64(horizon.as_f64());
        loop {
            let (key, _) = self.heap.peek()?;
            if (key >> 64) as u64 > horizon_key {
                return None;
            }
            let (key, payload) = self.heap.pop_deferred().expect("peeked entry exists");
            if let Some(event) = self.claim(payload) {
                self.live -= 1;
                return Some(ScheduledEvent {
                    time: time_of_key(key),
                    event,
                });
            }
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop stale entries from the top so the peeked time is live.
        while let Some((key, payload)) = self.heap.peek() {
            match *payload {
                Payload::Inline(_) => return Some(time_of_key(key)),
                Payload::Slotted { slot, generation } => {
                    if self.slots[slot as usize].generation == generation {
                        return Some(time_of_key(key));
                    }
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Capacity currently committed to the cancellable-event slab.
    pub fn slab_capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.live)
            .field("scheduled_total", &self.next_seq)
            .field("slab_capacity", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from(3.0), 3);
        q.schedule(SimTime::from(1.0), 1);
        q.schedule(SimTime::from(2.0), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn fast_and_slow_paths_share_fifo_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            if i % 2 == 0 {
                q.schedule_fast(SimTime::from(1.0), i);
            } else {
                q.schedule(SimTime::from(1.0), i);
            }
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn cancellation_skips_events_and_tracks_len() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from(1.0), "a");
        q.schedule(SimTime::from(2.0), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_unknown_handle_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle::new(42, 0)));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from(1.0), "a");
        assert_eq!(q.pop().unwrap().event, "a");
        assert!(!q.cancel(h), "handle to a fired event is dead");
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_handles() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from(1.0), 1);
        assert!(q.cancel(h1));
        // The slot is reused with a fresh generation.
        let h2 = q.schedule(SimTime::from(2.0), 2);
        assert!(!q.cancel(h1), "stale handle must not hit the reused slot");
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(!q.cancel(h2));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from(1.0), "a");
        q.schedule(SimTime::from(5.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from(5.0)));
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn slab_only_grows_with_concurrent_cancellables() {
        let mut q = EventQueue::new();
        for i in 0..1_000 {
            let h = q.schedule(SimTime::from(f64::from(i)), i);
            q.cancel(h);
        }
        assert_eq!(q.slab_capacity(), 1, "cancel frees the slot for reuse");
        for i in 0..1_000 {
            q.schedule_fast(SimTime::from(f64::from(i)), i);
        }
        assert_eq!(q.slab_capacity(), 1, "fast path never touches the slab");
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn order_fuzz_permutes_only_same_timestamp_order() {
        // Two timestamps, many events each: fuzz must keep the time
        // order exact, deliver every event exactly once, and actually
        // permute the equal-time order for some seed.
        let run = |fuzz: u64| -> Vec<i32> {
            let mut q = EventQueue::new();
            q.set_order_fuzz(fuzz);
            for i in 0..32 {
                q.schedule_fast(SimTime::from(1.0), i);
                q.schedule_fast(SimTime::from(2.0), 100 + i);
            }
            let mut out = Vec::new();
            while let Some(ev) = q.pop() {
                out.push(ev.event);
            }
            out
        };
        let fifo = run(0);
        assert_eq!(fifo, (0..32).chain(100..132).collect::<Vec<_>>());
        let mut any_permuted = false;
        for seed in 1..=8u64 {
            let fuzzed = run(seed);
            // Same multiset, and all t=1 events still precede all t=2.
            let mut sorted = fuzzed.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, fifo, "seed {seed} lost or duplicated events");
            assert!(
                fuzzed[..32].iter().all(|&e| e < 100),
                "seed {seed} let a t=2 event jump the time order"
            );
            if fuzzed != fifo {
                any_permuted = true;
            }
            // Determinism: the same seed replays the same permutation.
            assert_eq!(fuzzed, run(seed), "seed {seed} is not deterministic");
        }
        assert!(any_permuted, "no seed permuted the tie order");
    }

    #[test]
    fn order_fuzz_zero_is_identity_and_scramble_is_bijective() {
        assert_eq!(EventQueue::<u8>::new().order_fuzz(), 0);
        // Injectivity spot-check over a window of sequences.
        let mut seen: Vec<u64> = (0..4096).map(|s| scramble_seq(s, 0xF722)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096, "scramble collided within a window");
    }

    #[test]
    fn order_fuzz_preserves_cancellation_semantics() {
        let mut q = EventQueue::new();
        q.set_order_fuzz(0xDEAD);
        let handles: Vec<_> = (0..16).map(|i| q.schedule(SimTime::from(1.0), i)).collect();
        for h in handles.iter().step_by(2) {
            assert!(q.cancel(*h));
        }
        let mut survivors = Vec::new();
        while let Some(ev) = q.pop() {
            survivors.push(ev.event);
        }
        survivors.sort_unstable();
        assert_eq!(
            survivors,
            (0..16).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
        for h in handles {
            assert!(!q.cancel(h), "all handles dead after drain");
        }
    }
}
