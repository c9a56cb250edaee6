//! Property-based tests for the simulation substrate.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sda_sim::dist::{Erlang, Exponential, Uniform};
use sda_sim::pq::MinHeap;
use sda_sim::rng::RngFactory;
use sda_sim::stats::{Ratio, Tally};
use sda_sim::{EventQueue, SimTime};

proptest! {
    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing time order, with FIFO order among equal times —
    /// i.e. it is a stable sort of the input by time.
    #[test]
    fn event_queue_is_stable_time_sort(times in prop::collection::vec(0.0f64..100.0, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            // Quantize times so duplicates actually occur.
            q.schedule(SimTime::from((t * 4.0).floor() / 4.0), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time, ev.event));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation_is_exact(
        n in 1usize..100,
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..n).map(|i| q.schedule(SimTime::from(i as f64), i)).collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if cancel_mask[i] {
                prop_assert!(q.cancel(*h));
            } else {
                expect.push(i);
            }
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev.event);
        }
        prop_assert_eq!(got, expect);
    }

    /// The slab queue matches a naive reference model under arbitrary
    /// interleavings of both scheduling paths, cancellation and popping:
    /// pops come in (time, insertion) order, exactly the non-cancelled
    /// events come out, cancel is idempotent, and stale generations
    /// (fired or cancelled handles, including after slot reuse) never
    /// cancel anything.
    #[test]
    fn slab_queue_matches_reference_model(
        ops in prop::collection::vec((0u8..5, 0.0f64..64.0, any::<u64>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        // Reference: (time, seq, id) of still-pending events, plus the
        // clock floor pops must never go below.
        let mut pending: Vec<(f64, usize, usize)> = Vec::new();
        let mut handles = Vec::new();
        let mut dead_handles = Vec::new();
        let mut id = 0usize;
        let mut popped_total = 0usize;
        for (op, t, pick) in ops {
            // Quantize times so equal-time FIFO ordering is exercised.
            let t = (t * 2.0).floor() / 2.0;
            match op {
                0 => {
                    let h = q.schedule(SimTime::from(t), id);
                    handles.push((h, id));
                    pending.push((t, id, id));
                    id += 1;
                }
                1 => {
                    q.schedule_fast(SimTime::from(t), id);
                    pending.push((t, id, id));
                    id += 1;
                }
                2 if !handles.is_empty() => {
                    let k = (pick as usize) % handles.len();
                    let (h, hid) = handles.swap_remove(k);
                    let was_pending = pending.iter().any(|&(_, _, i)| i == hid);
                    prop_assert_eq!(q.cancel(h), was_pending, "cancel({hid})");
                    prop_assert!(!q.cancel(h), "cancel must be idempotent");
                    pending.retain(|&(_, _, i)| i != hid);
                    dead_handles.push(h);
                }
                4 => {
                    // Between deferred pops and cancels, the peek sees
                    // the earliest event still pending.
                    let expect = pending.iter().map(|&(t, _, _)| t).min_by(f64::total_cmp);
                    prop_assert_eq!(q.peek_time(), expect.map(SimTime::from));
                }
                _ => {
                    pending.sort_by(|a, b| {
                        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
                    });
                    let expect = if pending.is_empty() {
                        None
                    } else {
                        Some(pending.remove(0))
                    };
                    match (q.pop(), expect) {
                        (None, None) => {}
                        (Some(got), Some((et, _, eid))) => {
                            prop_assert_eq!(got.event, eid);
                            prop_assert_eq!(got.time, SimTime::from(et));
                            // A popped cancellable event's handle is dead.
                            if let Some(k) = handles.iter().position(|&(_, i)| i == eid) {
                                let (h, _) = handles.swap_remove(k);
                                prop_assert!(!q.cancel(h), "fired handle is dead");
                                dead_handles.push(h);
                            }
                            popped_total += 1;
                        }
                        (got, expect) => {
                            prop_assert!(false, "pop mismatch: got {got:?}, expected {expect:?}");
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
        // Every dead handle stays dead even after heavy slot reuse.
        for h in dead_handles {
            prop_assert!(!q.cancel(h), "stale generation resurrected");
        }
        // Drain: the remainder comes out in reference order.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (et, _, eid) in pending {
            let got = q.pop().expect("queue drained early");
            prop_assert_eq!(got.event, eid);
            prop_assert_eq!(got.time, SimTime::from(et));
            popped_total += 1;
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(popped_total <= id);
    }

    /// `pop_at_or_before(h)` returns exactly the events `pop` would,
    /// stopping at the horizon, for arbitrary schedules and horizons.
    #[test]
    fn pop_at_or_before_agrees_with_pop(
        times in prop::collection::vec(0.0f64..100.0, 0..150),
        horizon in 0.0f64..120.0,
    ) {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            let t = (t * 4.0).floor() / 4.0;
            if i % 3 == 0 {
                a.schedule(SimTime::from(t), i);
                b.schedule(SimTime::from(t), i);
            } else {
                a.schedule_fast(SimTime::from(t), i);
                b.schedule_fast(SimTime::from(t), i);
            }
        }
        let h = SimTime::from(horizon);
        loop {
            let via_bounded = a.pop_at_or_before(h);
            let expected = match b.peek_time() {
                Some(t) if t <= h => b.pop(),
                _ => None,
            };
            prop_assert_eq!(&via_bounded, &expected);
            if via_bounded.is_none() {
                break;
            }
        }
        // The bounded pop left everything beyond the horizon untouched.
        prop_assert_eq!(a.len(), b.len());
    }

    /// `MinHeap` pops what a sorted reference does under random
    /// interleavings of push, eager pop, deferred pop and peek (which on
    /// a heap a deferred pop left unsettled must look past the root), at
    /// sizes 0–300. Keys are unique, as every caller's are: random high
    /// bits above a sequence number. The drain pushes after every
    /// deferred pop, so a push meets the heap a deferred pop left at
    /// every size below the fill, and sift-downs meet last families of
    /// every size from one to four children.
    #[test]
    fn min_heap_matches_sorted_reference(
        prefill in 0usize..301,
        ops in prop::collection::vec((0u8..6, any::<u64>()), 0..300),
        seed in any::<u64>(),
    ) {
        let mut heap = MinHeap::new();
        let mut reference = BTreeMap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut MinHeap<u64>, reference: &mut BTreeMap<u128, u64>, draw: u64| {
            seq += 1;
            let key = (u128::from(draw >> 40) << 64) | u128::from(seq);
            heap.push(key, seq);
            reference.insert(key, seq);
        };
        let mut x = seed;
        let mut draw = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x
        };
        for _ in 0..prefill {
            push(&mut heap, &mut reference, draw());
        }
        for (op, d) in ops {
            match op {
                0 | 1 => push(&mut heap, &mut reference, d),
                2 => prop_assert_eq!(heap.pop(), reference.pop_first()),
                3 => prop_assert_eq!(heap.pop_deferred(), reference.pop_first()),
                4 => prop_assert_eq!(
                    heap.peek().map(|(k, &p)| (k, p)),
                    reference.first_key_value().map(|(&k, &p)| (k, p))
                ),
                _ => {
                    prop_assert_eq!(heap.pop_deferred(), reference.pop_first());
                    push(&mut heap, &mut reference, d);
                }
            }
            prop_assert_eq!(heap.len(), reference.len());
            prop_assert_eq!(heap.is_empty(), reference.is_empty());
        }
        while !reference.is_empty() {
            prop_assert_eq!(heap.pop_deferred(), reference.pop_first());
            push(&mut heap, &mut reference, draw());
            prop_assert_eq!(heap.pop_deferred(), reference.pop_first());
            prop_assert_eq!(heap.len(), reference.len());
        }
        prop_assert!(heap.peek().is_none());
        prop_assert!(heap.pop().is_none());
    }

    /// Welford tally matches the naive two-pass computation.
    #[test]
    fn tally_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 2..300)) {
        let t: Tally = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((t.mean() - mean).abs() < 1e-6);
        prop_assert!((t.variance() - var).abs() < 1e-4 * var.max(1.0));
        prop_assert_eq!(t.count(), xs.len() as u64);
    }

    /// Uniform samples stay in range; exponential and Erlang samples are
    /// non-negative, for arbitrary parameters and seeds.
    #[test]
    fn distribution_supports(seed in any::<u64>(), lo in -5.0f64..5.0, width in 0.0f64..10.0, mean in 0.01f64..100.0) {
        let mut rng = RngFactory::new(seed).stream("support");
        let u = Uniform::new(lo, lo + width).unwrap();
        let e = Exponential::with_mean(mean).unwrap();
        let g = Erlang::new(3, mean).unwrap();
        for _ in 0..100 {
            let x = u.sample_with(&mut rng);
            prop_assert!(x >= lo - 1e-12 && x <= lo + width + 1e-12);
            prop_assert!(e.sample_with(&mut rng) >= 0.0);
            prop_assert!(g.sample_with(&mut rng) >= 0.0);
        }
    }

    /// Ratio counts every record; percent stays within [0, 100].
    #[test]
    fn ratio_counts_and_bounds(hits in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut r = Ratio::new();
        for &h in &hits {
            r.record(h);
        }
        prop_assert_eq!(r.denominator(), hits.len() as u64);
        prop_assert_eq!(r.numerator(), hits.iter().filter(|&&h| h).count() as u64);
        prop_assert!((0.0..=100.0).contains(&r.percent()));
    }

    /// Named RNG streams never collide for distinct labels (statistical:
    /// first outputs differ for a few hundred label pairs).
    #[test]
    fn rng_streams_distinct(seed in any::<u64>(), a in 0usize..500, b in 0usize..500) {
        prop_assume!(a != b);
        let f = RngFactory::new(seed);
        let mut sa = f.stream_indexed("lbl", a);
        let mut sb = f.stream_indexed("lbl", b);
        use rand::RngCore;
        prop_assert_ne!(sa.next_u64(), sb.next_u64());
    }
}
