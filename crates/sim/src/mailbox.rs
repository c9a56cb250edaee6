//! Fixed-capacity single-producer/single-consumer mailboxes.
//!
//! A [`Mailbox`] carries timestamped hand-offs between exactly one
//! producer thread and one consumer thread. Transfers happen in batches
//! at synchronization points — the producer fills the box, a barrier
//! orders the hand-off, and the consumer drains it — so the lock below
//! is uncontended in practice. The crate forbids `unsafe`, which rules
//! out a lock-free ring; a `Mutex<VecDeque>` with batch drains gives the
//! same amortized zero-allocation behavior once warm (the deque is
//! pre-reserved to `capacity` and never grows past it).
//!
//! Capacity is a hard bound: [`Mailbox::push`] reports failure instead
//! of reallocating, so a producer that outpaces its consumer surfaces
//! immediately as a sizing error rather than silently degrading the
//! allocation-free guarantee.
//!
//! No simulator path uses this module. It stays only for the
//! `sdabench` micro-benchmark of push/drain cost, and goes when that
//! benchmark drops the measurement.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A bounded SPSC channel drained in batches at synchronization points.
///
/// # Examples
///
/// ```
/// use sda_sim::mailbox::Mailbox;
///
/// let m: Mailbox<u32> = Mailbox::with_capacity(4);
/// assert!(m.push(1));
/// assert!(m.push(2));
/// let mut out = Vec::new();
/// m.drain_into(&mut out);
/// assert_eq!(out, [1, 2]);
/// ```
pub struct Mailbox<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> Mailbox<T> {
    /// Creates a mailbox that holds at most `capacity` pending items,
    /// with all storage reserved up front.
    pub fn with_capacity(capacity: usize) -> Mailbox<T> {
        Mailbox {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// The fixed capacity this mailbox was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `item`, or returns `false` (dropping nothing already
    /// queued, returning `item` ownership to the allocator) when the
    /// mailbox is full. Callers treat a full mailbox as a capacity-sizing
    /// bug, not a flow-control signal.
    #[must_use]
    pub fn push(&self, item: T) -> bool {
        let mut q = self.inner.lock().expect("mailbox lock poisoned");
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(item);
        true
    }

    /// Moves every pending item into `out` (preserving FIFO order) under
    /// a single lock acquisition, leaving the mailbox empty.
    pub fn drain_into(&self, out: &mut Vec<T>) {
        let mut q = self.inner.lock().expect("mailbox lock poisoned");
        out.extend(q.drain(..));
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("mailbox lock poisoned").len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_preserve_fifo_order() {
        let m = Mailbox::with_capacity(8);
        for i in 0..5 {
            assert!(m.push(i));
        }
        assert_eq!(m.len(), 5);
        let mut out = Vec::new();
        m.drain_into(&mut out);
        assert_eq!(out, [0, 1, 2, 3, 4]);
        assert!(m.is_empty());
    }

    #[test]
    fn push_fails_at_capacity_without_losing_queued_items() {
        let m = Mailbox::with_capacity(2);
        assert!(m.push('a'));
        assert!(m.push('b'));
        assert!(!m.push('c'), "third push must report a full mailbox");
        let mut out = Vec::new();
        m.drain_into(&mut out);
        assert_eq!(out, ['a', 'b']);
        // Drained capacity is available again.
        assert!(m.push('d'));
    }

    #[test]
    fn drain_appends_to_existing_contents() {
        let m = Mailbox::with_capacity(4);
        assert!(m.push(10));
        let mut out = vec![99];
        m.drain_into(&mut out);
        assert_eq!(out, [99, 10]);
    }

    #[test]
    fn crosses_threads() {
        let m = std::sync::Arc::new(Mailbox::with_capacity(64));
        let producer = std::sync::Arc::clone(&m);
        let handle = std::thread::spawn(move || {
            for i in 0..10 {
                assert!(producer.push(i));
            }
        });
        handle.join().unwrap();
        let mut out = Vec::new();
        m.drain_into(&mut out);
        assert_eq!(out.len(), 10);
    }
}
