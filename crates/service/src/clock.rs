//! The wall clock the live runtime's threads share, measured in
//! simulated time units.

use std::time::Duration;

/// How far short of its target a wait stops sleeping in the OS and
/// starts yielding. Measured with `service_drive` at 200 µs per model
/// unit on a shared two-core host: without a margin, wake-ups land
/// 40–55 µs late on average; 50 µs cuts that to 3–6 µs for about 0.3
/// more cores of yielding; 100 µs gains 2 µs more but doubles the CPU,
/// and the miss-ratio gap to the simulator grew.
const SPIN_MARGIN: Duration = Duration::from_micros(50);

/// Wall time, linearly mapped to simulated time units.
///
/// `time_scale` simulated time units elapse per wall-clock second, so a
/// run that simulates 10 000 units at `time_scale = 1000` takes ten
/// real seconds. The clock's zero, the service start, lies a given wall
/// delay after construction, and the clock is monotone: `now` never
/// decreases, and `sleep_until(t)` returns with `now() >= t`.
#[derive(Debug, Clone)]
pub struct WallClock {
    #[expect(
        clippy::disallowed_types,
        reason = "WallClock is the audited wall-time boundary: the one place real time enters the live service"
    )]
    created: std::time::Instant,
    /// Wall seconds from `created` to the clock's zero.
    anchor: f64,
    scale: f64,
}

impl WallClock {
    /// A wall clock with `time_scale` simulated time units per
    /// wall-clock second, whose zero lies `lead` of wall time after now
    /// (`Duration::ZERO` starts it now). It reads `0.0` until its zero,
    /// so a wait for an instant near zero lasts about `lead`, however
    /// early it starts.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadParameter`](crate::ServiceError) if
    /// `time_scale` is not finite and positive.
    pub fn new(time_scale: f64, lead: Duration) -> Result<WallClock, crate::ServiceError> {
        if !time_scale.is_finite() || time_scale <= 0.0 {
            return Err(crate::ServiceError::BadParameter {
                what: "time_scale",
                value: time_scale,
            });
        }
        Ok(WallClock {
            #[expect(
                clippy::disallowed_types,
                reason = "WallClock is the audited wall-time boundary: the one place real time enters the live service"
            )]
            created: std::time::Instant::now(),
            anchor: lead.as_secs_f64(),
            scale: time_scale,
        })
    }

    /// Simulated time units per wall-clock second.
    pub fn time_scale(&self) -> f64 {
        self.scale
    }

    /// Wall seconds since the clock's zero; negative before it.
    fn since_zero(&self) -> f64 {
        self.created.elapsed().as_secs_f64() - self.anchor
    }

    /// The current time, in simulated time units since the clock's zero
    /// (`0.0` before it).
    pub fn now(&self) -> f64 {
        self.since_zero().max(0.0) * self.scale
    }

    /// The part of a wait for simulated time `t` to spend blocked in
    /// the OS: the wall time until a margin of about 50 µs before `t`
    /// (zero once inside that margin or past `t`). Block for this long —
    /// in a sleep, or in a channel receive that may end early — and
    /// finish with [`WallClock::sleep_until`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub(crate) fn coarse_until(&self, t: f64) -> Duration {
        assert!(!t.is_nan(), "sleep target must not be NaN");
        let dt = t / self.scale - self.since_zero();
        if dt <= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(dt).saturating_sub(SPIN_MARGIN)
        }
    }

    /// Blocks until the clock reads at least `t`: an OS sleep to the
    /// margin of [`WallClock::coarse_until`] short of `t`, then
    /// `yield_now` until `t`, so an OS wake-up that overshoots by less
    /// than the margin still lands on time. A target the clock has
    /// passed returns immediately — sleeping never moves time
    /// backwards. Before the zero the wait counts wall time as negative
    /// clock time, although [`WallClock::now`] reads `0.0` there: it
    /// returns when that negative reading reaches `t`, so any `t >= 0.0`
    /// waits at least until the zero.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub(crate) fn sleep_until(&self, t: f64) {
        loop {
            let coarse = self.coarse_until(t);
            if !coarse.is_zero() {
                std::thread::sleep(coarse);
            } else if self.since_zero() * self.scale >= t {
                return;
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_real_time_scaled() {
        let c = WallClock::new(1000.0, Duration::ZERO).unwrap();
        let before = c.now();
        c.sleep_until(before + 20.0); // 20 sim units = 20 ms wall
        let after = c.now();
        assert!(after >= before + 20.0, "slept {before} -> {after}");
    }

    #[test]
    fn anchored_clock_reads_zero_before_its_anchor_and_never_decreases() {
        let reference = WallClock::new(1000.0, Duration::ZERO).unwrap();
        let c = WallClock::new(1000.0, Duration::from_millis(20)).unwrap();
        // `c` was made after `reference`, so a reading of `c` taken
        // while the reference still reads under 10 units (10 ms) comes
        // before `c`'s 20 ms anchor. Read `c` first: a stall between
        // the two reads can then only end the loop.
        loop {
            let t = c.now();
            if reference.now() >= 10.0 {
                break;
            }
            assert_eq!(t, 0.0);
        }
        c.sleep_until(0.0);
        assert!(
            reference.now() >= 20.0,
            "sleep_until(0.0) returned before the anchor"
        );
        let mut last = c.now();
        while last < 5.0 {
            let t = c.now();
            assert!(t >= last, "clock went backwards: {last} -> {t}");
            last = t;
        }
    }

    #[test]
    fn wall_clock_rejects_bad_time_scale() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(WallClock::new(bad, Duration::ZERO).is_err());
        }
        assert!(WallClock::new(0.0, Duration::from_millis(1)).is_err());
    }
}
