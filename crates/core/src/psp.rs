//! The parallel subtask problem (PSP): strategies for
//! `T = [T1 ∥ T2 ∥ … ∥ Tn]` (paper §5).
//!
//! All branches are submitted together when the task (or the parallel
//! group inside a larger task) activates; the group finishes when the
//! *last* branch finishes, so a single tardy branch makes the whole task
//! tardy — the miss probability is amplified by the fan-out.

use serde::{Deserialize, Serialize};

use crate::ids::PriorityClass;

/// Everything a PSP strategy may look at when a parallel group activates.
///
/// The `comm_*` fields carry *expected* inter-node transit times for a
/// network with message delays (the paper's network is delay-free); both
/// zero recovers the paper's formulas bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PspInput {
    /// Activation time of the group — `ar(T)` for a top-level parallel
    /// task.
    pub arrival_time: f64,
    /// The group's (virtual) end-to-end deadline `dl(T)`.
    pub global_deadline: f64,
    /// Number of parallel branches `n`.
    pub branch_count: usize,
    /// Expected communication delay of the fan-out hand-offs currently in
    /// flight to the branch nodes. `0.0` in a delay-free network.
    pub comm_current: f64,
    /// Expected communication delay after the group completes (e.g. the
    /// result return of a top-level parallel task). For a group embedded
    /// in a larger task this is `0.0` — downstream transit is already
    /// reserved by the serial decomposition that produced the group's
    /// window.
    pub comm_after: f64,
    /// Multiplier applied to the per-branch window share DIV-x carves
    /// out. `1.0` is neutral (the paper's eq. (1) bit-exactly); the
    /// feedback-adaptive `ADAPT(base)` wrapper drives it below 1 under
    /// observed overload, pulling branch deadlines even earlier. Only a
    /// *positive* window share is scaled — a group activated past its
    /// window (negative share) keeps the open-loop deadline, since
    /// damping a negative share would push the deadline later and demote
    /// the group. UD and GF keep the group deadline and ignore it.
    pub slack_scale: f64,
}

impl PspInput {
    /// The window `dl(T) − ar(T)` available to the group.
    pub fn window(&self) -> f64 {
        self.global_deadline - self.arrival_time
    }

    /// The window net of expected communication:
    /// `dl(T) − ar(T) − comm_current − comm_after` — what is actually
    /// available for queueing and execution at the branch nodes.
    pub(crate) fn net_window(&self) -> f64 {
        self.window() - self.comm_current - self.comm_after
    }
}

/// The PSP strategies of paper §5.1.
///
/// | Strategy | `dl(Ti)` | Priority class |
/// |---|---|---|
/// | [`UltimateDeadline`](ParallelStrategy::UltimateDeadline) | `dl(T)` | normal |
/// | [`Div { x }`](ParallelStrategy::Div) | `ar(T) + [dl(T) − ar(T)]/(n·x)` | normal |
/// | [`GlobalsFirst`](ParallelStrategy::GlobalsFirst) | `dl(T)` | elevated |
///
/// DIV-x pulls virtual deadlines earlier as the fan-out `n` grows — "the
/// amount of priority promotion grows with the number of subtasks … it
/// adjusts automatically to the need". GF goes further: subtasks of
/// global tasks are always served before local tasks, with EDF order
/// preserved within each class.
///
/// # Examples
///
/// ```
/// use sda_core::{ParallelStrategy, PspInput};
///
/// let input = PspInput {
///     arrival_time: 10.0,
///     global_deadline: 22.0,
///     branch_count: 4,
///     comm_current: 0.0,
///     comm_after: 0.0,
///     slack_scale: 1.0,
/// };
/// assert_eq!(ParallelStrategy::UltimateDeadline.deadline(&input), 22.0);
/// // DIV-1: 10 + 12/4 = 13; DIV-2: 10 + 12/8 = 11.5
/// assert_eq!(ParallelStrategy::div(1.0)?.deadline(&input), 13.0);
/// assert_eq!(ParallelStrategy::div(2.0)?.deadline(&input), 11.5);
/// # Ok::<(), sda_core::SpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ParallelStrategy {
    /// **UD** — branches inherit the group deadline and compete fairly
    /// with local tasks (the baseline that loses ≈3× more global
    /// deadlines than local ones in Fig. 4).
    UltimateDeadline,
    /// **DIV-x** — divide the group's window by `n·x`. Larger `x` means
    /// earlier virtual deadlines and higher effective priority.
    Div {
        /// The aggressiveness multiplier `x > 0` (paper uses 1 and 2).
        x: f64,
    },
    /// **GF** — keep the natural deadline but serve subtasks of global
    /// tasks strictly before local tasks. Not applicable to components
    /// that discard past-deadline work (paper §5.3).
    GlobalsFirst,
}

impl ParallelStrategy {
    /// Constructs DIV-x, validating `x > 0` and finite.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidTime`](crate::SpecError) if `x` is not
    /// positive and finite.
    pub fn div(x: f64) -> Result<ParallelStrategy, crate::SpecError> {
        if x.is_finite() && x > 0.0 {
            Ok(ParallelStrategy::Div { x })
        } else {
            Err(crate::SpecError::InvalidTime {
                what: "DIV-x multiplier",
                value: x,
            })
        }
    }

    /// Short name as used in the paper (`UD`, `DIV-1`, `DIV-2.5`, `GF`).
    pub fn short_name(&self) -> String {
        match self {
            ParallelStrategy::UltimateDeadline => "UD".to_string(),
            ParallelStrategy::Div { x } => {
                if (x - x.round()).abs() < 1e-9 {
                    format!("DIV-{}", x.round() as i64)
                } else {
                    format!("DIV-{x}")
                }
            }
            ParallelStrategy::GlobalsFirst => "GF".to_string(),
        }
    }

    /// The virtual deadline assigned to every branch of the group.
    ///
    /// Under communication delays DIV-x shifts the deadline past the
    /// in-flight fan-out hop and divides only the window net of expected
    /// transit (`ar + comm_current + net_window/(n·x)`); UD and GF keep
    /// the group deadline unchanged. With zero `comm` terms this is
    /// bit-exactly the paper's eq. (1).
    ///
    /// Note the DIV-x deadline is always later than the activation time
    /// (for a positive window), so a branch may still lose to a local task
    /// with an early enough deadline — the observation that motivates GF.
    pub fn deadline(&self, input: &PspInput) -> f64 {
        match self {
            ParallelStrategy::UltimateDeadline | ParallelStrategy::GlobalsFirst => {
                input.global_deadline
            }
            ParallelStrategy::Div { x } => {
                input.arrival_time
                    + input.comm_current
                    + crate::ssp::scale_share(
                        input.slack_scale,
                        input.net_window() / (input.branch_count as f64 * x),
                    )
            }
        }
    }

    /// The priority class branches carry: `Elevated` for GF, `Normal`
    /// otherwise.
    pub(crate) fn priority_class(&self) -> PriorityClass {
        match self {
            ParallelStrategy::GlobalsFirst => PriorityClass::Elevated,
            _ => PriorityClass::Normal,
        }
    }
}

impl std::fmt::Display for ParallelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn input(ar: f64, dl: f64, n: usize) -> PspInput {
        PspInput {
            arrival_time: ar,
            global_deadline: dl,
            branch_count: n,
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        }
    }

    #[test]
    fn window_is_relative_deadline() {
        assert_eq!(input(2.0, 10.0, 4).window(), 8.0);
    }

    #[test]
    fn ud_and_gf_keep_global_deadline() {
        let i = input(0.0, 10.0, 4);
        assert_eq!(ParallelStrategy::UltimateDeadline.deadline(&i), 10.0);
        assert_eq!(ParallelStrategy::GlobalsFirst.deadline(&i), 10.0);
    }

    #[test]
    fn div_x_formula_matches_paper_eq_1() {
        // dl(Ti) = [dl(T) − ar(T)]/(n·x) + ar(T)
        let i = input(5.0, 25.0, 4);
        let div1 = ParallelStrategy::div(1.0).unwrap();
        assert!((div1.deadline(&i) - 10.0).abs() < EPS);
        let div2 = ParallelStrategy::div(2.0).unwrap();
        assert!((div2.deadline(&i) - 7.5).abs() < EPS);
    }

    #[test]
    fn div_deadline_never_before_arrival() {
        // "…the virtual deadlines assigned to the subtasks are, however
        // big x is, later than the tasks' arrival time."
        let i = input(100.0, 200.0, 10);
        let div = ParallelStrategy::div(1e6).unwrap();
        assert!(div.deadline(&i) > 100.0);
    }

    #[test]
    fn div_monotone_in_x_and_n() {
        let i4 = input(0.0, 12.0, 4);
        let i6 = input(0.0, 12.0, 6);
        let d1 = ParallelStrategy::div(1.0).unwrap().deadline(&i4);
        let d2 = ParallelStrategy::div(2.0).unwrap().deadline(&i4);
        assert!(d2 < d1, "larger x → earlier deadline");
        let d1_n6 = ParallelStrategy::div(1.0).unwrap().deadline(&i6);
        assert!(d1_n6 < d1, "more branches → earlier deadline");
    }

    #[test]
    fn comm_terms_shift_and_shrink_div_windows() {
        // Fan-out hop d = 1 in flight, result return d = 1 ahead.
        let i = PspInput {
            arrival_time: 5.0,
            global_deadline: 25.0,
            branch_count: 4,
            comm_current: 1.0,
            comm_after: 1.0,
            slack_scale: 1.0,
        };
        assert_eq!(i.window(), 20.0);
        assert_eq!(i.net_window(), 18.0);
        // DIV-1: 5 + 1 + 18/4 = 10.5 (delay-free value was 10).
        let div1 = ParallelStrategy::div(1.0).unwrap();
        assert!((div1.deadline(&i) - 10.5).abs() < EPS);
        // UD and GF ignore the comm terms.
        assert_eq!(ParallelStrategy::UltimateDeadline.deadline(&i), 25.0);
        assert_eq!(ParallelStrategy::GlobalsFirst.deadline(&i), 25.0);
    }

    #[test]
    fn zero_comm_div_is_bit_identical_to_eq_1() {
        let i = input(5.0, 25.0, 4);
        let div1 = ParallelStrategy::div(1.0).unwrap();
        let paper: f64 = 5.0 + 20.0 / 4.0;
        assert_eq!(div1.deadline(&i).to_bits(), paper.to_bits());
    }

    #[test]
    fn slack_scale_shrinks_div_share_only() {
        let mut i = input(5.0, 25.0, 4);
        i.slack_scale = 0.5;
        // DIV-1: 5 + 0.5·(20/4) = 7.5 instead of 10.
        let div1 = ParallelStrategy::div(1.0).unwrap();
        assert!((div1.deadline(&i) - 7.5).abs() < EPS);
        // UD and GF ignore the scale.
        assert_eq!(ParallelStrategy::UltimateDeadline.deadline(&i), 25.0);
        assert_eq!(ParallelStrategy::GlobalsFirst.deadline(&i), 25.0);
        // Scale 1 reproduces eq. (1) bit-exactly.
        i.slack_scale = 1.0;
        assert_eq!(div1.deadline(&i).to_bits(), (5.0 + 20.0 / 4.0f64).to_bits());
        // A group activated past its window (negative share) is not
        // damped — scaling would move the branch deadline later.
        let mut late = input(30.0, 25.0, 4);
        late.slack_scale = 0.25;
        let mut late_base = late;
        late_base.slack_scale = 1.0;
        assert!(late.net_window() < 0.0);
        assert_eq!(
            div1.deadline(&late).to_bits(),
            div1.deadline(&late_base).to_bits(),
            "negative window shares must pass through unscaled"
        );
    }

    #[test]
    fn div_validation() {
        assert!(ParallelStrategy::div(0.0).is_err());
        assert!(ParallelStrategy::div(-1.0).is_err());
        assert!(ParallelStrategy::div(f64::NAN).is_err());
        assert!(ParallelStrategy::div(0.5).is_ok());
    }

    #[test]
    fn priority_classes() {
        assert_eq!(
            ParallelStrategy::GlobalsFirst.priority_class(),
            PriorityClass::Elevated
        );
        assert_eq!(
            ParallelStrategy::UltimateDeadline.priority_class(),
            PriorityClass::Normal
        );
        assert_eq!(
            ParallelStrategy::div(1.0).unwrap().priority_class(),
            PriorityClass::Normal
        );
    }

    #[test]
    fn names() {
        assert_eq!(ParallelStrategy::UltimateDeadline.short_name(), "UD");
        assert_eq!(ParallelStrategy::div(1.0).unwrap().short_name(), "DIV-1");
        assert_eq!(ParallelStrategy::div(2.5).unwrap().short_name(), "DIV-2.5");
        assert_eq!(ParallelStrategy::GlobalsFirst.to_string(), "GF");
    }
}
