//! A 4-ary min-heap over packed `u128` keys — the priority-queue
//! primitive under both the future-event list and the schedulers'
//! ready queues.
//!
//! Three properties make it faster than `BinaryHeap<Reverse<T>>` for
//! simulation workloads:
//!
//! * **one integer compare per step** — the composite ordering key
//!   (time/priority, then insertion sequence) is pre-packed into a single
//!   `u128` via the order-preserving float-bits mapping of
//!   [`key_from_f64`], instead of a chained `Ord` implementation
//!   branching through two or three fields;
//! * **4-ary layout** — half the tree depth of a binary heap, and the
//!   four children of a node share cache lines, so sift-downs touch
//!   fewer lines;
//! * **branch-free child pick** — which of four children is smallest
//!   depends on the data, so a branch on it mispredicts often. A full
//!   family is reduced by a tournament of
//!   [`std::hint::select_unpredictable`] selects, which compile to
//!   conditional moves; only a partial last family (one to three
//!   children) keeps a loop. `select_unpredictable` needs Rust 1.88 or
//!   later.
//!
//! # Deferred pops
//!
//! [`MinHeap::pop_deferred`] removes the minimum but leaves the heap
//! *unsettled*: the last entry moves into the root and is not sifted
//! down, so the root may be larger than its children while every other
//! entry is still in heap order. The next [`MinHeap::push`] puts the new
//! entry in the root, appends the displaced entry back at the end, where
//! the pop took it from, and sifts the new entry down once: a pop and a
//! push cost one sift instead of two. A [`MinHeap::pop`] on an
//! unsettled heap first settles it with the sift the pop skipped;
//! [`MinHeap::peek`] settles nothing, since the minimum of an unsettled
//! heap is its root or one of the root's children.
//!
//! Deferral pays where a push usually follows a pop, as in an event loop
//! that schedules an event's successor while it handles the event: the
//! [`EventQueue`](crate::EventQueue) pops this way. A ready queue pops
//! to start service and pushes only when a later job arrives, so it
//! uses the eager [`MinHeap::pop`].
//!
//! # Keys must be unique
//!
//! Ties on the full 128-bit key pop in unspecified order, and deferral
//! changes the heap's shape, so which of two equal keys pops first may
//! differ between the two pop styles. Callers make keys unique by
//! packing a sequence number (or a bijective scramble of one) into the
//! low bits; then the pop order is the key order, whatever the shape.

use std::hint::select_unpredictable;

/// Maps an `f64` to a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order.
#[inline]
pub fn key_from_f64(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        // Negative (or negative NaN): flip all bits so bigger magnitude
        // sorts smaller.
        !b
    } else {
        // Positive: set the top bit so positives sort above negatives.
        b | (1 << 63)
    }
}

/// Inverse of [`key_from_f64`].
#[inline]
pub(crate) fn f64_from_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// A 4-ary min-heap of `(u128 key, payload)` pairs.
#[derive(Debug, Clone)]
pub struct MinHeap<P> {
    entries: Vec<(u128, P)>,
    /// Whether a [`MinHeap::pop_deferred`] left the heap unsettled: the
    /// root may be larger than a child; every other entry is in order.
    unsettled: bool,
}

impl<P> MinHeap<P> {
    /// An empty heap.
    pub fn new() -> MinHeap<P> {
        MinHeap {
            entries: Vec::new(),
            unsettled: false,
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum entry, if any. On an unsettled heap that is the root
    /// or one of its up to four children; the heap is left as it is.
    #[inline]
    pub fn peek(&self) -> Option<(u128, &P)> {
        let candidates = self.entries.len().min(if self.unsettled { 5 } else { 1 });
        let (k, p) = self.entries[..candidates].iter().min_by_key(|(k, _)| *k)?;
        Some((*k, p))
    }

    /// Inserts an entry. On an unsettled heap the entry takes the
    /// root's place, the displaced root goes back to the end, and one
    /// sift-down from the root settles the heap.
    pub fn push(&mut self, key: u128, payload: P) {
        if self.unsettled {
            self.unsettled = false;
            let displaced = std::mem::replace(&mut self.entries[0], (key, payload));
            self.entries.push(displaced);
            self.sift_down(0);
        } else {
            self.entries.push((key, payload));
            self.sift_up(self.entries.len() - 1);
        }
    }

    /// Removes and returns the minimum entry, leaving the heap settled.
    pub fn pop(&mut self) -> Option<(u128, P)> {
        let out = self.pop_deferred();
        self.settle();
        out
    }

    /// Removes and returns the minimum entry and leaves the heap
    /// unsettled, for the next [`MinHeap::push`] to settle (see the
    /// [module docs](self)).
    pub fn pop_deferred(&mut self) -> Option<(u128, P)> {
        self.settle();
        if self.entries.is_empty() {
            return None;
        }
        let out = self.entries.swap_remove(0);
        self.unsettled = self.entries.len() > 1;
        Some(out)
    }

    #[inline]
    fn settle(&mut self) {
        if self.unsettled {
            self.unsettled = false;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.entries[i].0;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.entries[parent].0 <= key {
                break;
            }
            self.entries.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.entries[i].0;
        let n = self.entries.len();
        loop {
            let first = 4 * i + 1;
            let (child, child_key) = if first + 4 <= n {
                let family = &self.entries[first..first + 4];
                smallest_of_four([family[0].0, family[1].0, family[2].0, family[3].0], first)
            } else if first < n {
                let mut min = (first, self.entries[first].0);
                for c in first + 1..n {
                    if self.entries[c].0 < min.1 {
                        min = (c, self.entries[c].0);
                    }
                }
                min
            } else {
                return;
            };
            if key <= child_key {
                return;
            }
            self.entries.swap(i, child);
            i = child;
        }
    }
}

/// The heap index and key of the smallest of four sibling keys, the
/// first at heap index `first`: two pairwise selects, then one between
/// their winners, all without a data-dependent branch. Ties go to the
/// leftmost sibling.
#[inline]
fn smallest_of_four([a, b, c, d]: [u128; 4], first: usize) -> (usize, u128) {
    let left = select_unpredictable(b < a, (first + 1, b), (first, a));
    let right = select_unpredictable(d < c, (first + 3, d), (first + 2, c));
    select_unpredictable(right.1 < left.1, right, left)
}

impl<P> Default for MinHeap<P> {
    fn default() -> Self {
        MinHeap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_key_mapping_is_order_preserving_and_invertible() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            0.25,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                key_from_f64(w[0]) <= key_from_f64(w[1]),
                "order broken between {} and {}",
                w[0],
                w[1]
            );
        }
        for &v in &values {
            assert_eq!(f64_from_key(key_from_f64(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn pops_ascending_under_adversarial_input() {
        let mut h = MinHeap::new();
        // Pseudo-random insertion order via a small LCG.
        let mut x: u64 = 12345;
        let mut keys = Vec::new();
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            keys.push(x);
            h.push(u128::from(x), x);
        }
        keys.sort_unstable();
        for expect in keys {
            let (k, p) = h.pop().unwrap();
            assert_eq!(k, u128::from(expect));
            assert_eq!(p, expect);
        }
        assert!(h.pop().is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn interleaved_push_pop_maintains_invariant() {
        let mut h = MinHeap::new();
        let mut x: u64 = 7;
        let mut last_popped = 0u128;
        let mut pending = 0usize;
        for round in 0..5_000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            // Keys grow with round so pops never go backwards (as in a
            // simulation, where scheduling into the past is impossible).
            let key = u128::from(round) << 32 | u128::from(x & 0xFFFF_FFFF);
            h.push(key, ());
            pending += 1;
            if x.is_multiple_of(3) {
                let (k, ()) = h.pop().unwrap();
                assert!(k >= last_popped, "heap went backwards");
                last_popped = k;
                pending -= 1;
            }
        }
        assert_eq!(h.len(), pending);
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = MinHeap::new();
        h.push(5, "five");
        h.push(1, "one");
        h.push(3, "three");
        assert_eq!(h.peek(), Some((1, &"one")));
        assert_eq!(h.pop(), Some((1, "one")));
        assert_eq!(h.peek(), Some((3, &"three")));
    }
}
