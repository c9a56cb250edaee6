//! Feedback-adaptive deadline assignment — the `ADAPT(base)` wrapper.
//!
//! The paper's strategies are *open-loop*: the slack a subtask receives
//! depends only on the task's own state. Under transient overload
//! (bursty or phased arrivals) that leaves performance on the table —
//! when queues are long, early stages burn slack waiting and the
//! remaining stages inherit deficits ("the poor get poorer", §4.2.2).
//! "Adaptive Fixed Priority End-To-End Imprecise Scheduling" (see
//! PAPERS.md) argues end-to-end slack policies should react to observed
//! load; `ADAPT(base)` closes the loop:
//!
//! 1. the system maintains a **windowed miss-ratio estimate** — an EWMA
//!    over task completions, O(1) per completion, no allocation (kept
//!    by `sda_system`'s `SystemModel`);
//! 2. at every stage activation the estimate is mapped through
//!    [`AdaptiveSlack::scale`] to a slack multiplier in `[floor, 1]`;
//! 3. the multiplier rides into the base strategy through
//!    [`SspInput::slack_scale`](crate::SspInput) /
//!    [`PspInput::slack_scale`](crate::PspInput), where the
//!    slack-dividing rules (EQS, EQF, EQF-AS, DIV-x) shrink the share
//!    they hand the current stage — *positive* shares only, so a
//!    behind-schedule stage keeps its full open-loop urgency; UD, ED
//!    and GF are unaffected.
//!
//! The effect is a dynamic version of EQF-AS's slack hold-back: while
//! the observed miss ratio is high, early stages get tighter virtual
//! deadlines, which promotes global subtasks over local tasks in every
//! node's EDF queue exactly when the system is behind; when the system
//! is calm the multiplier returns to 1 and the base strategy's paper
//! semantics resume. Because the feedback only ever *rescales the slack
//! share*, a disabled wrapper (`scale = 1`) is bit-identical to the
//! base strategy.

use serde::{Deserialize, Serialize};

use crate::error::SpecError;

/// Configuration of the `ADAPT(base)` feedback loop: how strongly the
/// observed miss pressure shrinks slack shares, and how far it may go.
///
/// `scale(p) = clamp(1 − gain · p, floor, 1)` for pressure `p ∈ [0, 1]`.
///
/// ```
/// use sda_core::AdaptiveSlack;
///
/// let a = AdaptiveSlack::new(1.0, 0.25)?;
/// assert_eq!(a.scale(0.0), 1.0);      // calm system: paper semantics
/// assert_eq!(a.scale(0.5), 0.5);      // half the completions missing
/// assert_eq!(a.scale(1.0), 0.25);     // saturated: clamped at the floor
/// # Ok::<(), sda_core::SpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSlack {
    /// Feedback gain `g ≥ 0`: how aggressively pressure shrinks the
    /// slack share. 0 disables the loop (always scale 1).
    pub gain: f64,
    /// Lower clamp on the scale, in `[0, 1]` — prevents the loop from
    /// collapsing virtual deadlines to the infeasible `submit + pex`.
    pub floor: f64,
}

impl AdaptiveSlack {
    /// Constructs the wrapper configuration, validating `gain ≥ 0`
    /// (finite) and `0 ≤ floor ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidTime`] naming the bad parameter.
    pub fn new(gain: f64, floor: f64) -> Result<AdaptiveSlack, SpecError> {
        if !(gain.is_finite() && gain >= 0.0) {
            return Err(SpecError::InvalidTime {
                what: "adaptive slack gain",
                value: gain,
            });
        }
        if !(floor.is_finite() && (0.0..=1.0).contains(&floor)) {
            return Err(SpecError::InvalidTime {
                what: "adaptive slack floor",
                value: floor,
            });
        }
        Ok(AdaptiveSlack { gain, floor })
    }

    /// Maps the observed miss pressure (a windowed miss ratio in
    /// `[0, 1]`) to the slack multiplier threaded through
    /// [`SspInput::slack_scale`](crate::SspInput). Out-of-range
    /// pressures are clamped first, so a transient estimator glitch can
    /// never invert the loop.
    #[inline]
    pub fn scale(&self, pressure: f64) -> f64 {
        let p = pressure.clamp(0.0, 1.0);
        (1.0 - self.gain * p).clamp(self.floor, 1.0)
    }
}

impl Default for AdaptiveSlack {
    /// Gain 1, floor 0.25 — under total overload early stages keep a
    /// quarter of their paper-formula slack share.
    fn default() -> Self {
        AdaptiveSlack {
            gain: 1.0,
            floor: 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_monotone_and_clamped() {
        let a = AdaptiveSlack::default();
        assert_eq!(a.scale(0.0), 1.0);
        assert_eq!(a.scale(-3.0), 1.0, "negative pressure clamps to calm");
        assert_eq!(a.scale(2.0), 0.25, "pressure clamps to 1 before mapping");
        let mut last = 1.0;
        for i in 0..=10 {
            let s = a.scale(f64::from(i) / 10.0);
            assert!(s <= last + 1e-15);
            assert!((0.25..=1.0).contains(&s));
            last = s;
        }
    }

    #[test]
    fn zero_gain_disables_the_loop() {
        let a = AdaptiveSlack::new(0.0, 0.5).unwrap();
        for p in [0.0, 0.3, 1.0] {
            assert_eq!(a.scale(p), 1.0);
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(AdaptiveSlack::new(-1.0, 0.5).is_err());
        assert!(AdaptiveSlack::new(f64::NAN, 0.5).is_err());
        assert!(AdaptiveSlack::new(1.0, -0.1).is_err());
        assert!(AdaptiveSlack::new(1.0, 1.5).is_err());
        assert!(AdaptiveSlack::new(2.0, 0.0).is_ok());
    }
}
