//! Ratio (proportion) counters.

use serde::{Deserialize, Serialize};

/// Counts events and "hits" among them, reporting the hit fraction —
/// the natural representation of a **missed-deadline ratio**.
///
/// # Examples
///
/// ```
/// use sda_sim::stats::Ratio;
///
/// let mut md = Ratio::new();
/// md.record(true);  // missed
/// md.record(false); // met
/// md.record(false); // met
/// assert_eq!(md.numerator(), 1);
/// assert_eq!(md.denominator(), 3);
/// assert!((md.fraction() - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// An empty ratio (0/0).
    pub fn new() -> Ratio {
        Ratio::default()
    }

    /// Records one event; `hit` says whether it counts in the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// The numerator (hit count).
    pub fn numerator(&self) -> u64 {
        self.hits
    }

    /// The denominator (event count).
    pub fn denominator(&self) -> u64 {
        self.total
    }

    /// The hit fraction in `[0, 1]`; `0.0` when no events were recorded.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// The hit fraction as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        100.0 * self.fraction()
    }

    /// Whether any events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Resets both counters to zero (warm-up handling).
    pub fn reset(&mut self) {
        *self = Ratio::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ratio_is_zero() {
        let r = Ratio::new();
        assert!(r.is_empty());
        assert_eq!(r.fraction(), 0.0);
        assert_eq!(r.percent(), 0.0);
    }

    #[test]
    fn counts_and_percent() {
        let mut r = Ratio::new();
        for i in 0..10 {
            r.record(i < 4);
        }
        assert_eq!(r.numerator(), 4);
        assert_eq!(r.denominator(), 10);
        assert_eq!(r.percent(), 40.0);
    }

    #[test]
    fn reset_clears() {
        let mut r = Ratio::new();
        r.record(true);
        r.reset();
        assert!(r.is_empty());
    }
}
