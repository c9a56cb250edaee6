//! Deterministic, named random-number streams.
//!
//! Simulation studies need *independent* random streams per stochastic
//! component (arrivals, service times, slack draws, node choices, …) so
//! that changing one component's consumption pattern does not perturb the
//! others — the classic "common random numbers" variance-reduction setup.
//! DeNet provided this via numbered streams; here streams are *named*:
//!
//! ```
//! use sda_sim::rng::RngFactory;
//! use rand::Rng;
//!
//! let factory = RngFactory::new(42);
//! let mut arrivals = factory.stream("arrivals.global");
//! let mut service = factory.stream("service.node0");
//! let a: f64 = arrivals.gen();
//! let s: f64 = service.gen();
//! assert_ne!(a, s);
//!
//! // Streams are a pure function of (master seed, label):
//! let again: f64 = RngFactory::new(42).stream("arrivals.global").gen();
//! assert_eq!(a, again);
//! ```
//!
//! [`cases`] runs a randomized test's cases, each drawn from a stream of
//! its own.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. It is implemented here rather than
//! pulled from `rand_xoshiro` to keep the dependency set minimal and the
//! stream-derivation auditable; `rand`'s `StdRng` is documented as *not*
//! stable across versions, which would silently break reproducibility.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64: a tiny 64-bit PRNG used to expand seeds.
///
/// Passes through every 64-bit state exactly once; good enough for seeding
/// but not used directly for variates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — the workhorse generator behind every [`RngFactory`]
/// stream. 256 bits of state, period 2²⁵⁶ − 1, excellent statistical
/// quality for simulation use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the generator by expanding `seed` through SplitMix64, per the
    /// algorithm authors' recommendation.
    pub(crate) fn from_u64_seed(seed: u64) -> Xoshiro256StarStar {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is the one forbidden state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl RngCore for Xoshiro256StarStar {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Xoshiro256StarStar {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0, 0, 0, 0] {
            return Xoshiro256StarStar::from_u64_seed(0);
        }
        Xoshiro256StarStar { s }
    }

    fn seed_from_u64(state: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::from_u64_seed(state)
    }
}

/// The stream type handed out by [`RngFactory::stream`].
pub type Stream = Xoshiro256StarStar;

/// Derives independent, reproducible random streams from a master seed and
/// a string label. See the [module docs](self) for an example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master_seed: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl RngFactory {
    /// Creates a factory rooted at `master_seed`.
    pub fn new(master_seed: u64) -> RngFactory {
        RngFactory { master_seed }
    }

    /// The master seed this factory derives from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Returns the generator for stream `label`. The result depends only on
    /// `(master_seed, label)`, never on the order or number of other
    /// streams created.
    pub fn stream(&self, label: &str) -> Stream {
        self.derive(label)
    }

    /// Convenience for per-entity streams: `stream_indexed("service", 3)`
    /// is `stream("service.3")` without the allocation in the caller.
    pub fn stream_indexed(&self, label: &str, index: usize) -> Stream {
        self.derive(&format!("{label}.{index}"))
    }

    /// The one derivation behind [`RngFactory::stream`] and
    /// [`RngFactory::stream_indexed`].
    fn derive(&self, label: &str) -> Stream {
        // Mix the label hash and master seed through SplitMix64 twice so
        // structurally similar labels ("node.1"/"node.2") land far apart.
        let mut sm = SplitMix64::new(self.master_seed ^ fnv1a(label.as_bytes()));
        let _ = sm.next_u64();
        let derived = sm.next_u64();
        Xoshiro256StarStar::from_u64_seed(derived)
    }

    /// Derives a sub-factory, e.g. one per replication. Sub-factories with
    /// different indices produce unrelated streams for the same labels.
    pub fn subfactory(&self, index: u64) -> RngFactory {
        let mut sm = SplitMix64::new(self.master_seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        let _ = sm.next_u64();
        RngFactory {
            master_seed: sm.next_u64(),
        }
    }
}

/// Runs `body` on `n` seeded random cases: the case runner behind the
/// workspace's randomized tests.
///
/// Case `i` draws from a stream that depends only on `(name, i)`, so
/// every run sees the same cases and a failing case redraws alone. A
/// panic in case `i` is re-raised as `"{name}: case {i} failed: {msg}"`.
///
/// ```
/// use sda_sim::rng::cases;
///
/// cases("sum_is_commutative", 64, |case| {
///     let (a, b) = (case.f64(-1.0..1.0), case.f64(-1.0..1.0));
///     assert_eq!(a + b, b + a);
/// });
/// ```
pub fn cases(name: &str, n: usize, mut body: impl FnMut(&mut Case)) {
    let factory = RngFactory::new(fnv1a(name.as_bytes()));
    for i in 0..n {
        let mut case = Case(factory.stream_indexed("case", i));
        let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| body(&mut case))) else {
            continue;
        };
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("(a panic with no message)");
        panic!("{name}: case {i} failed: {msg}");
    }
}

/// The draws of one [`cases`] case.
#[derive(Debug)]
pub struct Case(Stream);

impl Case {
    /// 64 uniformly random bits.
    pub fn u64(&mut self) -> u64 {
        self.0.next()
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.0.next() >> 63 == 1
    }

    /// Uniform in `[range.start, range.end)`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.0.next() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// Uniform in `range`, which must not be empty.
    pub fn int(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + (self.0.next() % (range.end - range.start) as u64) as usize
    }

    /// A vector whose length is drawn from `len`, then each element from
    /// `draw`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut draw: impl FnMut(&mut Case) -> T) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| draw(self)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn xoshiro_reference_vector() {
        // Reference: seeding xoshiro256** with state {1,2,3,4} must produce
        // the sequence published with the algorithm.
        let mut rng = Xoshiro256StarStar { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs of SplitMix64 with seed 0 (widely published).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let f = RngFactory::new(7);
        let mut a1 = f.stream("a");
        let mut a2 = f.stream("a");
        let mut b = f.stream("b");
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn different_master_seeds_differ() {
        let mut a = RngFactory::new(1).stream("s");
        let mut b = RngFactory::new(2).stream("s");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn subfactories_are_independent() {
        let f = RngFactory::new(99);
        let mut r0 = f.subfactory(0).stream("x");
        let mut r1 = f.subfactory(1).stream("x");
        assert_ne!(r0.next_u64(), r1.next_u64());
        // Deterministic too.
        let mut r0b = RngFactory::new(99).subfactory(0).stream("x");
        let mut r0c = f.subfactory(0).stream("x");
        assert_eq!(r0c.next_u64(), r0b.next_u64());
    }

    #[test]
    fn stream_indexed_matches_manual_label() {
        let f = RngFactory::new(5);
        let mut a = f.stream_indexed("node", 3);
        let mut b = f.derive("node.3");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = Xoshiro256StarStar::from_u64_seed(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }

    #[test]
    fn uniform_floats_are_in_unit_interval() {
        let mut rng = RngFactory::new(3).stream("u");
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn mean_of_uniform_is_about_half() {
        let mut rng = RngFactory::new(11).stream("mean");
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn seedable_from_seed_roundtrip() {
        let seed = [7u8; 32];
        let mut a = Xoshiro256StarStar::from_seed(seed);
        let mut b = Xoshiro256StarStar::from_seed(seed);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "planted: case 3 failed: planted failure")]
    fn a_failing_case_names_its_test_and_case_number() {
        let mut seen = 0;
        cases("planted", 8, |_| {
            seen += 1;
            assert!(seen < 4, "planted failure");
        });
    }

    #[test]
    fn one_name_redraws_its_cases_and_two_names_differ() {
        let draws = |name: &str| {
            let mut out = Vec::new();
            cases(name, 16, |case| out.push(case.u64()));
            out
        };
        let one = draws("one");
        assert_eq!(one, draws("one"));
        assert_ne!(one, draws("two"));
        let mut distinct = one.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), one.len(), "cases of one name differ");
    }

    #[test]
    fn zero_seed_state_guarded() {
        let mut z = Xoshiro256StarStar::from_seed([0u8; 32]);
        // Must not be stuck at zero.
        assert_ne!(z.next_u64() | z.next_u64() | z.next_u64(), 0);
    }
}
