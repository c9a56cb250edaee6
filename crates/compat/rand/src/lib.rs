//! Offline stand-in for the `rand` trait surface this workspace uses.
//!
//! The simulation implements its own generators (xoshiro256** seeded via
//! SplitMix64, in `sda-sim`) precisely so reproducibility never depends on
//! an external crate's algorithm; all it needs from `rand` are the trait
//! *names*: [`RngCore`], [`SeedableRng`] and the [`Rng::gen`] extension.
//! This stub provides exactly those.
//!
//! Its value mappings are pinned by the workspace's golden fingerprints,
//! and they match rand 0.8 only in part. `gen::<f64>()` and
//! `gen::<f32>()` use the same high-bit uniform mappings as rand's
//! `Standard` distribution, but three mappings differ:
//!
//! * [`Rng::gen_range`] on integers is `start + next_u64() % span`;
//!   rand 0.8 samples by widening multiply with rejection, drawing
//!   `next_u32()` for ranges of 32-bit and smaller types;
//! * `gen::<bool>()` is the low bit of `next_u64()`; rand takes the sign
//!   bit of `next_u32()`;
//! * the default [`SeedableRng::seed_from_u64`] expands the seed with
//!   SplitMix64; rand_core 0.6 uses PCG32.
//!
//! Replacing the stub with the real crate would therefore change every
//! stream drawn through `gen_range` (`workload.node_pick` and
//! `workload.shape`) and move the goldens. No code in the workspace
//! draws a `bool` or relies on the default `seed_from_u64` (`sda-sim`'s
//! generator overrides it).

#![forbid(unsafe_code)]

use core::fmt;

/// Error type for [`RngCore::try_fill_bytes`]; never produced by the
/// deterministic generators in this workspace.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator failure")
    }
}

impl std::error::Error for Error {}

/// Core uniform bit source, mirroring `rand::RngCore`.
pub trait RngCore {
    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniformly random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        R::next_u32(self)
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        R::next_u64(self)
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        R::fill_bytes(self, dest)
    }
    #[inline]
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        R::try_fill_bytes(self, dest)
    }
}

/// Seedable generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The fixed-size seed accepted by [`SeedableRng::from_seed`].
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Constructs the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with SplitMix64 (rand_core 0.6
    /// uses PCG32 here).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Types samplable uniformly from raw generator bits — the subset of
/// rand's `Standard` distribution this workspace consumes.
pub trait StandardSample: Sized {
    /// Draws one uniformly distributed value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` from the high 53 bits, exactly as rand 0.8.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        (rng.next_u64() >> 11) as f64 * SCALE
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` from the high 24 bits.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        const SCALE: f32 = 1.0 / ((1u32 << 24) as f32);
        (rng.next_u32() >> 8) as f32 * SCALE
    }
}

impl StandardSample for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    /// The low bit of `next_u64()` (rand 0.8 takes the sign bit of
    /// `next_u32()`).
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`], mirroring `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return start + rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, u16, u8);

/// Convenience extension over [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws one value of `T` from the standard uniform distribution.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws one value uniformly from `range`, as `start + next_u64() %
    /// span` (not rand 0.8's mapping; see the crate docs).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
