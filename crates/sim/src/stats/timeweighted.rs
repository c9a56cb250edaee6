//! Time-weighted statistics for piecewise-constant signals.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Integrates a piecewise-constant signal over simulation time, yielding
/// its time average — used for server utilization and queue lengths.
///
/// Call [`TimeWeighted::update`] *before* changing the signal's value; the
/// old value is integrated up to the given instant.
///
/// # Examples
///
/// ```
/// use sda_sim::stats::TimeWeighted;
/// use sda_sim::SimTime;
///
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.update(SimTime::from(4.0), 1.0);  // signal was 0.0 on [0, 4)
/// u.update(SimTime::from(10.0), 0.0); // signal was 1.0 on [4, 10)
/// assert_eq!(u.time_average(SimTime::from(10.0)), 0.6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: SimTime,
    last_update: SimTime,
    value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts tracking at time `start` with the signal at `initial`.
    pub fn new(start: SimTime, initial: f64) -> TimeWeighted {
        TimeWeighted {
            start,
            last_update: start,
            value: initial,
            integral: 0.0,
        }
    }

    /// Integrates the current value up to `now`, then switches the signal
    /// to `new_value`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update (in debug builds).
    pub fn update(&mut self, now: SimTime, new_value: f64) {
        debug_assert!(now >= self.last_update, "time went backwards");
        self.integral += self.value * (now - self.last_update);
        self.last_update = now;
        self.value = new_value;
    }

    /// The current signal value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The integral of the signal from the start through `now`.
    pub(crate) fn integral(&self, now: SimTime) -> f64 {
        self.integral + self.value * (now - self.last_update)
    }

    /// The time average of the signal over `[start, now]`; `0.0` if no time
    /// has elapsed.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let elapsed = now - self.start;
        if elapsed <= 0.0 {
            0.0
        } else {
            self.integral(now) / elapsed
        }
    }

    /// Restarts the statistic at `now`, keeping the current signal value —
    /// used to discard the warm-up transient.
    pub fn reset(&mut self, now: SimTime) {
        self.start = now;
        self.last_update = now;
        self.integral = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_average_is_value() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 2.0);
        u.update(SimTime::from(5.0), 2.0);
        assert_eq!(u.time_average(SimTime::from(5.0)), 2.0);
    }

    #[test]
    fn square_wave_average() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
        u.update(SimTime::from(1.0), 1.0);
        u.update(SimTime::from(2.0), 0.0);
        u.update(SimTime::from(3.0), 1.0);
        u.update(SimTime::from(4.0), 0.0);
        assert_eq!(u.time_average(SimTime::from(4.0)), 0.5);
    }

    #[test]
    fn average_extends_current_value_to_now() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
        u.update(SimTime::from(2.0), 3.0);
        // Signal is 3.0 on [2, 6): integral = 0·2 + 3·4 = 12 over 6 units.
        assert_eq!(u.time_average(SimTime::from(6.0)), 2.0);
    }

    #[test]
    fn zero_elapsed_time_average_is_zero() {
        let u = TimeWeighted::new(SimTime::from(3.0), 5.0);
        assert_eq!(u.time_average(SimTime::from(3.0)), 0.0);
    }

    #[test]
    fn reset_discards_history_but_keeps_value() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 1.0);
        u.update(SimTime::from(10.0), 4.0);
        u.reset(SimTime::from(10.0));
        assert_eq!(u.value(), 4.0);
        assert_eq!(u.integral(SimTime::from(10.0)), 0.0);
        assert_eq!(u.time_average(SimTime::from(12.0)), 4.0);
    }
}
