//! A fixed reference simulation that uses none of the workspace's code:
//! six EDF servers fed by Poisson arrivals, on `std` binary heaps. Its
//! event rate moves with the host's speed and with contention from
//! other tenants, never with a change to the program under test, so the
//! benchmark divides throughputs by it (see `README.md`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Servers in the reference system.
const SERVERS: usize = 6;
/// Events per probe.
const EVENTS: u64 = 40_000;

/// An `f64` ordered by its bits (all values here are non-negative).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u64);

impl Key {
    fn of(x: f64) -> Key {
        Key(x.to_bits())
    }
}

/// Events per second of one fixed-length reference run.
pub fn rate() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut unit = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    // Future-event list: (time, server, is_completion).
    let mut fel: BinaryHeap<Reverse<(Key, usize, bool)>> = BinaryHeap::new();
    let mut queues: Vec<BinaryHeap<Reverse<Key>>> = vec![BinaryHeap::new(); SERVERS];
    let mut busy = [false; SERVERS];
    let (mut met, mut missed) = (0u64, 0u64);
    for s in 0..SERVERS {
        fel.push(Reverse((Key::of(-unit().ln()), s, false)));
    }
    let start = Instant::now();
    for _ in 0..EVENTS {
        let Some(Reverse((Key(bits), s, done))) = fel.pop() else {
            break;
        };
        let now = f64::from_bits(bits);
        if done {
            busy[s] = false;
        } else {
            let deadline = now + 1.0 - 2.0 * unit().ln();
            queues[s].push(Reverse(Key::of(deadline)));
            fel.push(Reverse((Key::of(now - unit().ln() / 0.9), s, false)));
        }
        if !busy[s] {
            if let Some(Reverse(Key(dl))) = queues[s].pop() {
                busy[s] = true;
                let finish = now - unit().ln();
                if finish > f64::from_bits(dl) {
                    missed += 1;
                } else {
                    met += 1;
                }
                fel.push(Reverse((Key::of(finish), s, true)));
            }
        }
    }
    black_box((met, missed));
    EVENTS as f64 / start.elapsed().as_secs_f64()
}
