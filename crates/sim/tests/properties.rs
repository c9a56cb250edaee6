//! Property-based tests for the simulation substrate.

use std::collections::BTreeMap;

use sda_sim::dist::{Erlang, Exponential, Uniform};
use sda_sim::pq::MinHeap;
use sda_sim::rng::{cases, RngFactory};
use sda_sim::stats::{Ratio, Tally};
use sda_sim::{EventQueue, SimTime};

/// The event queue pops every scheduled event exactly once, in
/// non-decreasing time order, with FIFO order among equal times —
/// i.e. it is a stable sort of the input by time.
#[test]
fn event_queue_is_stable_time_sort() {
    cases("event_queue_is_stable_time_sort", 256, |case| {
        let times = case.vec(0..200, |c| c.f64(0.0..100.0));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            // Quantize times so duplicates actually occur.
            q.schedule(SimTime::from((t * 4.0).floor() / 4.0), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time, ev.event));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    });
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn event_queue_cancellation_is_exact() {
    cases("event_queue_cancellation_is_exact", 256, |case| {
        let n = case.int(1..100);
        let cancel_mask: Vec<bool> = (0..100).map(|_| case.bool()).collect();
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..n)
            .map(|i| q.schedule(SimTime::from(i as f64), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if cancel_mask[i] {
                assert!(q.cancel(*h));
            } else {
                expect.push(i);
            }
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev.event);
        }
        assert_eq!(got, expect);
    });
}

/// The slab queue matches a naive reference model under arbitrary
/// interleavings of both scheduling paths, cancellation and popping:
/// pops come in (time, insertion) order, exactly the non-cancelled
/// events come out, cancel is idempotent, and stale generations
/// (fired or cancelled handles, including after slot reuse) never
/// cancel anything.
#[test]
fn slab_queue_matches_reference_model() {
    cases("slab_queue_matches_reference_model", 256, |case| {
        let ops = case.vec(1..400, |c| (c.int(0..5), c.f64(0.0..64.0), c.u64()));
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
                    assert_eq!(q.cancel(h), was_pending, "cancel({hid})");
                    assert!(!q.cancel(h), "cancel must be idempotent");
                    pending.retain(|&(_, _, i)| i != hid);
                    dead_handles.push(h);
                }
                4 => {
                    // Between deferred pops and cancels, the peek sees
                    // the earliest event still pending.
                    let expect = pending.iter().map(|&(t, _, _)| t).min_by(f64::total_cmp);
                    assert_eq!(q.peek_time(), expect.map(SimTime::from));
                }
                _ => {
                    pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let expect = if pending.is_empty() {
                        None
                    } else {
                        Some(pending.remove(0))
                    };
                    match (q.pop(), expect) {
                        (None, None) => {}
                        (Some(got), Some((et, _, eid))) => {
                            assert_eq!(got.event, eid);
                            assert_eq!(got.time, SimTime::from(et));
                            // A popped cancellable event's handle is dead.
                            if let Some(k) = handles.iter().position(|&(_, i)| i == eid) {
                                let (h, _) = handles.swap_remove(k);
                                assert!(!q.cancel(h), "fired handle is dead");
                                dead_handles.push(h);
                            }
                            popped_total += 1;
                        }
                        (got, expect) => {
                            panic!("pop mismatch: got {got:?}, expected {expect:?}");
                        }
                    }
                }
            }
            assert_eq!(q.len(), pending.len());
        }
        // Every dead handle stays dead even after heavy slot reuse.
        for h in dead_handles {
            assert!(!q.cancel(h), "stale generation resurrected");
        }
        // Drain: the remainder comes out in reference order.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (et, _, eid) in pending {
            let got = q.pop().expect("queue drained early");
            assert_eq!(got.event, eid);
            assert_eq!(got.time, SimTime::from(et));
            popped_total += 1;
        }
        assert!(q.pop().is_none());
        assert!(popped_total <= id);
    });
}

/// `pop_at_or_before(h)` returns exactly the events `pop` would,
/// stopping at the horizon, for arbitrary schedules and horizons.
#[test]
fn pop_at_or_before_agrees_with_pop() {
    cases("pop_at_or_before_agrees_with_pop", 256, |case| {
        let times = case.vec(0..150, |c| c.f64(0.0..100.0));
        let horizon = case.f64(0.0..120.0);
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
            assert_eq!(&via_bounded, &expected);
            if via_bounded.is_none() {
                break;
            }
        }
        // The bounded pop left everything beyond the horizon untouched.
        assert_eq!(a.len(), b.len());
    });
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
fn min_heap_matches_sorted_reference() {
    cases("min_heap_matches_sorted_reference", 256, |case| {
        let prefill = case.int(0..301);
        let ops = case.vec(0..300, |c| (c.int(0..6), c.u64()));
        let seed = case.u64();
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
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x
        };
        for _ in 0..prefill {
            push(&mut heap, &mut reference, draw());
        }
        for (op, d) in ops {
            match op {
                0 | 1 => push(&mut heap, &mut reference, d),
                2 => assert_eq!(heap.pop(), reference.pop_first()),
                3 => assert_eq!(heap.pop_deferred(), reference.pop_first()),
                4 => assert_eq!(
                    heap.peek().map(|(k, &p)| (k, p)),
                    reference.first_key_value().map(|(&k, &p)| (k, p))
                ),
                _ => {
                    assert_eq!(heap.pop_deferred(), reference.pop_first());
                    push(&mut heap, &mut reference, d);
                }
            }
            assert_eq!(heap.len(), reference.len());
            assert_eq!(heap.is_empty(), reference.is_empty());
        }
        while !reference.is_empty() {
            assert_eq!(heap.pop_deferred(), reference.pop_first());
            push(&mut heap, &mut reference, draw());
            assert_eq!(heap.pop_deferred(), reference.pop_first());
            assert_eq!(heap.len(), reference.len());
        }
        assert!(heap.peek().is_none());
        assert!(heap.pop().is_none());
    });
}

/// Welford tally matches the naive two-pass computation.
#[test]
fn tally_matches_two_pass() {
    cases("tally_matches_two_pass", 256, |case| {
        let xs = case.vec(2..300, |c| c.f64(-1e3..1e3));
        let t: Tally = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((t.mean() - mean).abs() < 1e-6);
        assert!((t.variance() - var).abs() < 1e-4 * var.max(1.0));
        assert_eq!(t.count(), xs.len() as u64);
    });
}

/// Uniform samples stay in range; exponential and Erlang samples are
/// non-negative, for arbitrary parameters and seeds.
#[test]
fn distribution_supports() {
    cases("distribution_supports", 256, |case| {
        let seed = case.u64();
        let lo = case.f64(-5.0..5.0);
        let width = case.f64(0.0..10.0);
        let mean = case.f64(0.01..100.0);
        let mut rng = RngFactory::new(seed).stream("support");
        let u = Uniform::new(lo, lo + width).unwrap();
        let e = Exponential::with_mean(mean).unwrap();
        let g = Erlang::new(3, mean).unwrap();
        for _ in 0..100 {
            let x = u.sample_with(&mut rng);
            assert!(x >= lo - 1e-12 && x <= lo + width + 1e-12);
            assert!(e.sample_with(&mut rng) >= 0.0);
            assert!(g.sample_with(&mut rng) >= 0.0);
        }
    });
}

/// Ratio counts every record; percent stays within [0, 100].
#[test]
fn ratio_counts_and_bounds() {
    cases("ratio_counts_and_bounds", 256, |case| {
        let hits = case.vec(0..200, |c| c.bool());
        let mut r = Ratio::new();
        for &h in &hits {
            r.record(h);
        }
        assert_eq!(r.denominator(), hits.len() as u64);
        assert_eq!(r.numerator(), hits.iter().filter(|&&h| h).count() as u64);
        assert!((0.0..=100.0).contains(&r.percent()));
    });
}

/// Named RNG streams never collide for distinct labels (statistical:
/// first outputs differ for a few hundred label pairs).
#[test]
fn rng_streams_distinct() {
    cases("rng_streams_distinct", 256, |case| {
        let seed = case.u64();
        let a = case.int(0..500);
        // Any label but `a`, uniformly.
        let b = (a + case.int(1..500)) % 500;
        let f = RngFactory::new(seed);
        let mut sa = f.stream_indexed("lbl", a);
        let mut sb = f.stream_indexed("lbl", b);
        use rand::RngCore;
        assert_ne!(sa.next_u64(), sb.next_u64());
    });
}
