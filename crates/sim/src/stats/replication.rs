//! Across-replication output analysis.

use serde::{Deserialize, Serialize};

use super::ci::ConfidenceInterval;
use super::tally::Tally;

/// Collects one summary value per independent replication and reports the
/// across-replication mean with a 95% Student-t confidence interval.
///
/// The paper generates each data point from two independent runs; this
/// generalizes to any replication count (more replications → tighter,
/// better-calibrated intervals).
///
/// # Examples
///
/// ```
/// use sda_sim::stats::Replications;
///
/// let mut reps = Replications::new();
/// for miss_pct in [39.2, 40.6, 40.1, 39.9] {
///     reps.add(miss_pct);
/// }
/// let ci = reps.confidence_interval().unwrap();
/// assert!(ci.contains(40.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replications {
    values: Vec<f64>,
}

impl Replications {
    /// An empty collection.
    pub fn new() -> Replications {
        Replications { values: Vec::new() }
    }

    /// Records the summary value of one replication.
    pub fn add(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of replications recorded.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// The recorded per-replication values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Across-replication mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.tally().mean()
    }

    /// 95% confidence interval; `None` with fewer than two replications.
    pub fn confidence_interval(&self) -> Option<ConfidenceInterval> {
        if self.values.len() < 2 {
            return None;
        }
        let t = self.tally();
        Some(ConfidenceInterval::from_moments(
            t.mean(),
            t.std_dev(),
            t.count(),
        ))
    }

    fn tally(&self) -> Tally {
        self.values.iter().copied().collect()
    }
}

impl Default for Replications {
    fn default() -> Self {
        Replications::new()
    }
}

impl Extend<f64> for Replications {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

impl FromIterator<f64> for Replications {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Replications {
        Replications {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        let mut r = Replications::new();
        assert_eq!(r.mean(), 0.0);
        assert!(r.confidence_interval().is_none());
        r.add(5.0);
        assert_eq!(r.mean(), 5.0);
        assert!(r.confidence_interval().is_none());
    }

    #[test]
    fn two_reps_give_wide_interval() {
        let r: Replications = [10.0, 12.0].into_iter().collect();
        let ci = r.confidence_interval().unwrap();
        assert_eq!(ci.mean, 11.0);
        // df = 1 → t = 12.706; hw = 12.706 · sd/√2 = 12.706 · 1.4142/1.4142 ≈ 12.7
        assert!((ci.half_width - 12.706).abs() < 0.01);
    }

    #[test]
    fn many_reps_tighten_interval() {
        let wide: Replications = (0..2).map(|i| 10.0 + f64::from(i)).collect();
        let tight: Replications = (0..30).map(|i| 10.0 + f64::from(i % 2)).collect();
        let hw_wide = wide.confidence_interval().unwrap().half_width;
        let hw_tight = tight.confidence_interval().unwrap().half_width;
        assert!(hw_tight < hw_wide);
    }

    #[test]
    fn values_accessible() {
        let r: Replications = [1.0, 2.0].into_iter().collect();
        assert_eq!(r.values(), &[1.0, 2.0]);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn extreme_replication_values_never_produce_nan_intervals() {
        // Heavy-traffic (ρ → 1) runs can report enormous per-replication
        // response means; the across-replication interval must stay
        // NaN-free and its half-width nonnegative (via the Tally
        // variance clamp).
        let cases: [&[f64]; 4] = [
            &[1.0e12, 1.0e12, 1.0e12],
            &[1.0e300, 1.0e300],
            &[3.7, 1.0e15, 2.2, 8.0e14],
            &[0.0, 0.0, 0.0, 0.0],
        ];
        for vs in cases {
            let r: Replications = vs.iter().copied().collect();
            assert!(!r.mean().is_nan());
            let ci = r.confidence_interval().unwrap();
            assert!(!ci.mean.is_nan());
            assert!(
                !ci.half_width.is_nan() && ci.half_width >= 0.0,
                "bad half-width {} for {vs:?}",
                ci.half_width
            );
        }
    }
}
