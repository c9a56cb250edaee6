//! Streaming sample statistics.

use serde::{Deserialize, Serialize};

/// A streaming tally of observations: count, mean, variance (Welford's
/// numerically stable one-pass algorithm), min, max and sum.
///
/// # Examples
///
/// ```
/// use sda_sim::stats::Tally;
///
/// let mut t = Tally::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     t.add(x);
/// }
/// assert_eq!(t.count(), 4);
/// assert_eq!(t.mean(), 2.5);
/// assert!((t.variance() - 5.0 / 3.0).abs() < 1e-12);
/// assert_eq!(t.min(), 1.0);
/// assert_eq!(t.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Tally {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n − 1` denominator); `0.0` for fewer than
    /// two observations.
    ///
    /// Clamped at zero: Welford's `m2` is nonnegative in exact
    /// arithmetic, but catastrophic cancellation on extreme-magnitude
    /// streams (heavy-traffic sojourn outliers near ρ → 1) can drive it
    /// to a tiny negative, which would surface as NaN from
    /// [`std_dev`](Tally::std_dev).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl Default for Tally {
    fn default() -> Self {
        Tally::new()
    }
}

impl Extend<f64> for Tally {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Tally {
        let mut t = Tally::new();
        t.extend(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tally_is_sane() {
        let t = Tally::new();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.std_dev(), 0.0);
    }

    #[test]
    fn single_observation() {
        let t: Tally = [7.0].into_iter().collect();
        assert_eq!(t.mean(), 7.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), 7.0);
        assert_eq!(t.max(), 7.0);
    }

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let t: Tally = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((t.mean() - mean).abs() < 1e-10);
        assert!((t.variance() - var).abs() < 1e-10);
    }

    #[test]
    fn numerical_stability_with_large_offsets() {
        // Welford should not lose the variance of small deviations around a
        // huge mean.
        let t: Tally = (0..1000).map(|i| 1.0e9 + f64::from(i % 2)).collect();
        assert!((t.variance() - 0.2503).abs() < 0.01, "var={}", t.variance());
    }

    #[test]
    fn extreme_value_streams_never_yield_nan_or_negative_variance() {
        // Heavy-traffic sojourn streams mix moderate values with huge
        // outliers across many orders of magnitude; the variance must
        // stay finite-or-infinite and nonnegative, never NaN.
        let streams: [&[f64]; 4] = [
            &[1.0, 1.0e12, 2.0, 3.0e15, 4.0],
            &[1.0e300, 1.0e300, 1.0e300],
            &[5.0e-320, 1.0e-300, 2.0e-310],
            &[0.0, 1.0e-30, 1.0e30, 7.3],
        ];
        for xs in streams {
            let t: Tally = xs.iter().copied().collect();
            assert!(!t.variance().is_nan(), "NaN variance for {xs:?}");
            assert!(t.variance() >= 0.0, "negative variance for {xs:?}");
            assert!(!t.std_dev().is_nan(), "NaN std_dev for {xs:?}");
        }
    }

    #[test]
    fn identical_huge_observations_have_zero_variance() {
        // The catastrophic-cancellation case the clamp guards: identical
        // huge values can leave m2 a tiny negative in floating point.
        for &v in &[1.0e15, 1.0e100, 1.0e300, 9.007199254740993e15] {
            let t: Tally = std::iter::repeat_n(v, 1000).collect();
            assert!(t.variance() >= 0.0, "negative variance at {v}");
            assert!(!t.std_dev().is_nan(), "NaN std_dev at {v}");
        }
    }
}
