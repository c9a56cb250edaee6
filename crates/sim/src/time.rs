//! Simulation clock values.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point on the simulation clock, in abstract model time units.
///
/// The paper relativizes all times to the mean execution time of a local
/// task (`μ_local = 1`), so a `SimTime` of `1.0` is "one mean local service
/// time". `SimTime` wraps an `f64` but provides a *total* order (via
/// [`f64::total_cmp`]), which lets it key the future-event list.
///
/// Invariants: a `SimTime` is never NaN. Constructors debug-assert this and
/// arithmetic preserves it for finite inputs.
///
/// # Examples
///
/// ```
/// use sda_sim::SimTime;
///
/// let t = SimTime::ZERO + 2.5;
/// assert_eq!(t.as_f64(), 2.5);
/// assert!(t < SimTime::INFINITY);
/// assert_eq!(t - SimTime::from(1.0), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every finite time; useful as a sentinel.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Creates a time value from raw model units.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `t` is NaN.
    #[inline]
    pub fn new(t: f64) -> SimTime {
        debug_assert!(!t.is_nan(), "SimTime must not be NaN");
        SimTime(t)
    }

    /// Returns the raw model-time value.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns `true` if this time is finite (not the `INFINITY` sentinel).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<f64> for SimTime {
    #[inline]
    fn from(t: f64) -> SimTime {
        SimTime::new(t)
    }
}

impl From<SimTime> for f64 {
    #[inline]
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, dt: f64) -> SimTime {
        SimTime::new(self.0 + dt)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, dt: f64) {
        self.0 += dt;
        debug_assert!(!self.0.is_nan());
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl Sub<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, dt: f64) -> SimTime {
        SimTime::new(self.0 - dt)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_matches_f64() {
        let a = SimTime::from(1.0);
        let b = SimTime::from(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(a < SimTime::INFINITY);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from(3.0) + 1.5;
        assert_eq!(t.as_f64(), 4.5);
        assert_eq!(t - SimTime::from(4.0), 0.5);
        assert_eq!((t - 0.5).as_f64(), 4.0);
        let mut u = SimTime::ZERO;
        u += 2.0;
        assert_eq!(u.as_f64(), 2.0);
    }

    #[test]
    fn min_and_max() {
        let a = SimTime::from(1.0);
        let b = SimTime::from(5.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn default_is_zero_and_infinity_not_finite() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert!(SimTime::ZERO.is_finite());
        assert!(!SimTime::INFINITY.is_finite());
    }

    #[test]
    fn display_formats_value() {
        assert_eq!(SimTime::from(1.25).to_string(), "t=1.250000");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn nan_rejected_in_debug() {
        let _ = SimTime::new(f64::NAN);
    }
}
