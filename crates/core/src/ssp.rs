//! The serial subtask problem (SSP): strategies for `T = [T1 T2 … Tm]`
//! (paper §4).
//!
//! An SSP strategy determines the virtual deadline `dl(Ti)` **at the time
//! `Ti` is submitted** — i.e. when `T_{i−1}` completes. Slack left over by
//! early-finishing stages is therefore inherited automatically, and slack
//! "stolen" by tardy stages shrinks what follows ("the rich get richer,
//! the poor get poorer", §4.2.2).

use serde::{Deserialize, Serialize};

/// Everything an SSP strategy may look at when subtask `Ti` is submitted.
///
/// With `m` subtasks total and `Ti` the current one, the remaining
/// predicted work is `pex(Ti) + Σ pex_remaining_after`.
///
/// The paper's network is delay-free; the `comm_*` fields generalize the
/// inputs to a system with inter-node message delays. Both are expected
/// (not sampled) transit times — strategies *reserve* slack for them, the
/// realized delays show up through inheritance at the next submission.
/// Set both to `0.0` to recover the paper's formulas exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SspInput<'a> {
    /// Submission time of the current subtask — `ar(Ti)`. For `i = 1`
    /// this is the global task's arrival; otherwise `T_{i−1}`'s
    /// completion time.
    pub submit_time: f64,
    /// The global task's end-to-end deadline `dl(T)`.
    pub global_deadline: f64,
    /// Predicted execution time of the current subtask, `pex(Ti)`.
    pub pex_current: f64,
    /// Predicted execution times of the subtasks after the current one,
    /// `pex(T_{i+1}), …, pex(T_m)`.
    pub pex_remaining_after: &'a [f64],
    /// Expected communication delay between this submission and the
    /// start of `Ti`'s window at its node — the hand-off currently in
    /// flight. `0.0` in a delay-free network.
    pub comm_current: f64,
    /// Expected communication delay still to be paid *after* `Ti`
    /// completes: the remaining inter-stage hand-offs plus the final
    /// result return to the process manager. `0.0` in a delay-free
    /// network.
    pub comm_after: f64,
    /// Multiplier applied to the slack *share* a slack-dividing strategy
    /// (EQS, EQF, EQF-AS) hands the current subtask. `1.0` is neutral
    /// and reproduces the paper's formulas bit-exactly; the
    /// feedback-adaptive `ADAPT(base)` wrapper drives it below 1 under
    /// observed overload, tightening early-stage deadlines so global
    /// subtasks outrank local tasks while the system is behind. Only a
    /// *positive* share is scaled: a task already behind schedule has a
    /// negative share, which stays untouched — damping it would move the
    /// deadline *later*, demoting exactly the tasks the loop means to
    /// promote. UD and ED have no explicit slack share and ignore the
    /// multiplier entirely.
    pub slack_scale: f64,
}

impl SspInput<'_> {
    /// `Σ_{j>i} pex(Tj)` — predicted work strictly after the current
    /// subtask.
    pub(crate) fn pex_after(&self) -> f64 {
        self.pex_remaining_after.iter().sum()
    }

    /// `Σ_{j≥i} pex(Tj)` — predicted work including the current subtask.
    pub(crate) fn pex_including(&self) -> f64 {
        self.pex_current + self.pex_after()
    }

    /// Number of unfinished subtasks including the current one
    /// (`m − i + 1`).
    pub fn remaining_count(&self) -> usize {
        1 + self.pex_remaining_after.len()
    }

    /// Total remaining slack at submission:
    /// `dl(T) − ar(Ti) − Σ_{j≥i} pex(Tj) − E[remaining communication]`.
    /// May be negative if the task is already behind.
    pub fn remaining_slack(&self) -> f64 {
        self.global_deadline
            - self.submit_time
            - self.pex_including()
            - self.comm_current
            - self.comm_after
    }
}

/// Applies a feedback slack multiplier to a slack share: positive shares
/// shrink by `scale`, non-positive shares pass through unchanged (a
/// behind-schedule share must stay as urgent as the open-loop formula
/// made it — damping it would *demote* the task). At `scale = 1.0` this
/// is the IEEE-754 identity on every input, so disabled feedback is
/// bit-exact.
#[inline]
pub(crate) fn scale_share(scale: f64, share: f64) -> f64 {
    if share > 0.0 {
        scale * share
    } else {
        share
    }
}

/// The four SSP strategies of paper §4 (definitions (1)–(4)).
///
/// | Strategy | Needs `pex`? | Formula for `dl(Ti)` |
/// |---|---|---|
/// | [`UltimateDeadline`](SerialStrategy::UltimateDeadline) | no | `dl(T)` |
/// | [`EffectiveDeadline`](SerialStrategy::EffectiveDeadline) | yes | `dl(T) − Σ_{j>i} pex(Tj)` |
/// | [`EqualSlack`](SerialStrategy::EqualSlack) | yes | `ar(Ti) + pex(Ti) + slack/(m−i+1)` |
/// | [`EqualFlexibility`](SerialStrategy::EqualFlexibility) | yes | `ar(Ti) + pex(Ti) + slack·pex(Ti)/Σ_{j≥i} pex(Tj)` |
///
/// where `slack = dl(T) − ar(Ti) − Σ_{j≥i} pex(Tj)` is the total remaining
/// slack at submission time.
///
/// # Examples
///
/// Reproducing the formulas on a 3-stage task (`pex = [2, 3, 5]`,
/// arrival 0, deadline 20 → slack 10):
///
/// ```
/// use sda_core::{SerialStrategy, SspInput};
///
/// let input = SspInput {
///     submit_time: 0.0,
///     global_deadline: 20.0,
///     pex_current: 2.0,
///     pex_remaining_after: &[3.0, 5.0],
///     comm_current: 0.0,
///     comm_after: 0.0,
///     slack_scale: 1.0,
/// };
/// assert_eq!(SerialStrategy::UltimateDeadline.deadline(&input), 20.0);
/// assert_eq!(SerialStrategy::EffectiveDeadline.deadline(&input), 12.0);
/// // EQS: 0 + 2 + 10/3
/// assert!((SerialStrategy::EqualSlack.deadline(&input) - (2.0 + 10.0 / 3.0)).abs() < 1e-12);
/// // EQF: 0 + 2 + 10·(2/10)
/// assert_eq!(SerialStrategy::EqualFlexibility.deadline(&input), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SerialStrategy {
    /// **UD** — every subtask inherits the global deadline. Needs no
    /// execution-time estimates, but hands all slack to early stages.
    UltimateDeadline,
    /// **ED** — global deadline minus the predicted work still to come
    /// after this subtask. The "latest possible start of the rest".
    EffectiveDeadline,
    /// **EQS** — divides the total remaining slack *equally* among the
    /// remaining subtasks.
    EqualSlack,
    /// **EQF** — divides the total remaining slack *in proportion to
    /// predicted execution times*, equalizing subtask flexibility
    /// (`sl/ex`). The paper's best-performing serial strategy.
    EqualFlexibility,
    /// **EQF-AS** — the paper's §7 future-work idea, implemented here:
    /// EQF with `artificial_stages` phantom stages appended, each
    /// carrying the mean remaining predicted execution time.
    ///
    /// The phantom stages hold back part of the slack from every real
    /// stage (the share becomes `pex_i / (Σ pex + a·mean_pex)`), which
    /// damps the slack variability that makes "the poor get poorer":
    /// tight tasks no longer hand early stages slack they cannot afford
    /// to lose. Slack reserved by phantoms is *not* lost — it returns
    /// through inheritance, because every later submission recomputes
    /// from the true remaining window. With `artificial_stages = 0` this
    /// is exactly EQF.
    EqualFlexibilityArtificial {
        /// Number of phantom stages `a ≥ 0` appended to the remaining
        /// chain.
        artificial_stages: u32,
    },
}

impl SerialStrategy {
    /// All four strategies, in the paper's presentation order.
    pub const ALL: [SerialStrategy; 4] = [
        SerialStrategy::UltimateDeadline,
        SerialStrategy::EffectiveDeadline,
        SerialStrategy::EqualSlack,
        SerialStrategy::EqualFlexibility,
    ];

    /// Short name as used in the paper's figures (`UD`, `ED`, `EQS`,
    /// `EQF`) or `EQF-AS<a>` for the artificial-stage extension.
    pub fn short_name(&self) -> String {
        match self {
            SerialStrategy::UltimateDeadline => "UD".to_string(),
            SerialStrategy::EffectiveDeadline => "ED".to_string(),
            SerialStrategy::EqualSlack => "EQS".to_string(),
            SerialStrategy::EqualFlexibility => "EQF".to_string(),
            SerialStrategy::EqualFlexibilityArtificial { artificial_stages } => {
                format!("EQF-AS{artificial_stages}")
            }
        }
    }

    /// Computes the virtual deadline `dl(Ti)` for the subtask described by
    /// `input`, per the paper's definitions (1)–(4), generalized to a
    /// network with expected communication delays:
    ///
    /// * UD ignores communication entirely (unchanged semantics — it uses
    ///   no estimates of any kind);
    /// * ED additionally subtracts the expected communication *after* the
    ///   current subtask (`dl(T) − Σ_{j>i} pex(Tj) − comm_after`);
    /// * EQS/EQF place the deadline after the in-flight hand-off
    ///   (`ar(Ti) + comm_current + pex(Ti) + share`) and divide only the
    ///   slack left once all expected transit is reserved (see
    ///   [`SspInput::remaining_slack`]).
    ///
    /// With both `comm` fields zero and `slack_scale = 1` this reduces
    /// bit-exactly to the paper's formulas (`1.0 · x` and `x ± 0.0` are
    /// IEEE-754 identities).
    ///
    /// Degenerate case: if every remaining `pex` is zero, EQF's
    /// proportional share is undefined (0/0); it falls back to EQS's equal
    /// division, which remains well-defined.
    pub fn deadline(&self, input: &SspInput<'_>) -> f64 {
        match self {
            SerialStrategy::UltimateDeadline => input.global_deadline,
            SerialStrategy::EffectiveDeadline => {
                input.global_deadline - input.pex_after() - input.comm_after
            }
            SerialStrategy::EqualSlack => {
                input.submit_time
                    + input.comm_current
                    + input.pex_current
                    + scale_share(
                        input.slack_scale,
                        input.remaining_slack() / input.remaining_count() as f64,
                    )
            }
            SerialStrategy::EqualFlexibility => {
                let total_pex = input.pex_including();
                if total_pex <= 0.0 {
                    // 0/0 share; divide slack equally instead.
                    return SerialStrategy::EqualSlack.deadline(input);
                }
                input.submit_time
                    + input.comm_current
                    + input.pex_current
                    + scale_share(
                        input.slack_scale,
                        input.remaining_slack() * (input.pex_current / total_pex),
                    )
            }
            SerialStrategy::EqualFlexibilityArtificial { artificial_stages } => {
                let total_pex = input.pex_including();
                if total_pex <= 0.0 {
                    return SerialStrategy::EqualSlack.deadline(input);
                }
                // Phantom stages carry the mean remaining pex, inflating
                // the denominator so each real stage's share shrinks.
                let mean_pex = total_pex / input.remaining_count() as f64;
                let inflated = total_pex + f64::from(*artificial_stages) * mean_pex;
                input.submit_time
                    + input.comm_current
                    + input.pex_current
                    + scale_share(
                        input.slack_scale,
                        input.remaining_slack() * (input.pex_current / inflated),
                    )
            }
        }
    }

    /// Plans deadlines for *all* stages ahead of time, assuming each stage
    /// completes exactly at its predicted time (`ar(T_{i+1}) = dl(Ti)`
    /// does **not** hold; we assume completion at the assigned share).
    ///
    /// This static schedule is what the dynamic rule produces when every
    /// prediction is perfect and no queueing occurs; it is exposed for
    /// planning tools, tests and examples. The dynamic path — recomputing
    /// at every completion — is [`SerialStrategy::deadline`].
    ///
    /// Returns one virtual deadline per stage; the last equals the global
    /// deadline for EQS/EQF/ED+last-stage and UD trivially.
    pub fn plan(&self, arrival: f64, global_deadline: f64, pex: &[f64]) -> Vec<f64> {
        let mut deadlines = Vec::with_capacity(pex.len());
        let mut submit = arrival;
        for (i, &p) in pex.iter().enumerate() {
            // Planning assumes the paper's delay-free network.
            let input = SspInput {
                submit_time: submit,
                global_deadline,
                pex_current: p,
                pex_remaining_after: &pex[i + 1..],
                comm_current: 0.0,
                comm_after: 0.0,
                slack_scale: 1.0,
            };
            let dl = self.deadline(&input);
            // The next stage is submitted when this one completes; in the
            // plan we assume completion exactly at the stage deadline for
            // slack-dividing strategies, and at submit + pex for UD/ED
            // (which do not define a per-stage slack share).
            submit = match self {
                SerialStrategy::EqualSlack
                | SerialStrategy::EqualFlexibility
                | SerialStrategy::EqualFlexibilityArtificial { .. } => dl,
                SerialStrategy::UltimateDeadline | SerialStrategy::EffectiveDeadline => submit + p,
            };
            deadlines.push(dl);
        }
        deadlines
    }
}

impl std::fmt::Display for SerialStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn input<'a>(submit: f64, dl: f64, pex_cur: f64, rest: &'a [f64]) -> SspInput<'a> {
        SspInput {
            submit_time: submit,
            global_deadline: dl,
            pex_current: pex_cur,
            pex_remaining_after: rest,
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        }
    }

    #[test]
    fn input_accessors() {
        let i = input(1.0, 10.0, 2.0, &[3.0, 4.0]);
        assert_eq!(i.pex_after(), 7.0);
        assert_eq!(i.pex_including(), 9.0);
        assert_eq!(i.remaining_count(), 3);
        assert_eq!(i.remaining_slack(), 0.0);
    }

    #[test]
    fn ud_ignores_everything_but_global_deadline() {
        let i = input(5.0, 42.0, 2.0, &[100.0]);
        assert_eq!(SerialStrategy::UltimateDeadline.deadline(&i), 42.0);
    }

    #[test]
    fn ed_subtracts_following_pex() {
        let i = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        assert_eq!(SerialStrategy::EffectiveDeadline.deadline(&i), 12.0);
        // Last stage: ED = UD.
        let last = input(15.0, 20.0, 5.0, &[]);
        assert_eq!(SerialStrategy::EffectiveDeadline.deadline(&last), 20.0);
    }

    #[test]
    fn eqs_divides_slack_equally() {
        // slack = 20 - 0 - 10 = 10, three stages → 10/3 each.
        let i = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        let dl = SerialStrategy::EqualSlack.deadline(&i);
        assert!((dl - (2.0 + 10.0 / 3.0)).abs() < EPS);
    }

    #[test]
    fn eqf_divides_slack_proportionally() {
        let i = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        let dl = SerialStrategy::EqualFlexibility.deadline(&i);
        assert!((dl - (2.0 + 10.0 * 0.2)).abs() < EPS);
        // The assigned flexibility is slack_share / pex = (10·0.2)/2 = 1.0
        // for every stage: check stage 2 at its planned submission.
        let i2 = input(4.0, 20.0, 3.0, &[5.0]);
        let dl2 = SerialStrategy::EqualFlexibility.deadline(&i2);
        // remaining slack = 20-4-8 = 8; share = 8·3/8 = 3; dl = 4+3+3 = 10
        // flexibility = 3/3 = 1.0 — equal, as the name promises.
        assert!((dl2 - 10.0).abs() < EPS);
    }

    #[test]
    fn last_stage_gets_global_deadline_under_eqs_eqf() {
        // With one remaining subtask, both EQS and EQF must assign exactly
        // dl(T): all remaining slack goes to it.
        let i = input(7.0, 20.0, 4.0, &[]);
        assert!((SerialStrategy::EqualSlack.deadline(&i) - 20.0).abs() < EPS);
        assert!((SerialStrategy::EqualFlexibility.deadline(&i) - 20.0).abs() < EPS);
    }

    #[test]
    fn negative_slack_pulls_deadlines_before_feasible_completion() {
        // Task is already late: submit 18, dl 20, work 9 → slack −7.
        let i = input(18.0, 20.0, 2.0, &[3.0, 4.0]);
        let eqs = SerialStrategy::EqualSlack.deadline(&i);
        assert!(eqs < 18.0 + 2.0, "deadline tighter than pex is allowed");
        let eqf = SerialStrategy::EqualFlexibility.deadline(&i);
        assert!(eqf < 18.0 + 2.0);
    }

    #[test]
    fn zero_pex_fallback_for_eqf() {
        let i = input(0.0, 10.0, 0.0, &[0.0, 0.0]);
        let eqf = SerialStrategy::EqualFlexibility.deadline(&i);
        let eqs = SerialStrategy::EqualSlack.deadline(&i);
        assert_eq!(eqf, eqs);
        assert!((eqs - 10.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn ud_dominates_ed_dominates_eqf_at_first_stage() {
        // With positive slack and positive following work, the first-stage
        // deadline satisfies EQF/EQS < ED < UD.
        let i = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        let ud = SerialStrategy::UltimateDeadline.deadline(&i);
        let ed = SerialStrategy::EffectiveDeadline.deadline(&i);
        let eqs = SerialStrategy::EqualSlack.deadline(&i);
        let eqf = SerialStrategy::EqualFlexibility.deadline(&i);
        assert!(eqf < ed && ed < ud);
        assert!(eqs < ed);
    }

    #[test]
    fn plan_last_deadline_is_global_for_slack_dividers() {
        let pex = [2.0, 3.0, 5.0];
        for s in [SerialStrategy::EqualSlack, SerialStrategy::EqualFlexibility] {
            let plan = s.plan(0.0, 20.0, &pex);
            assert_eq!(plan.len(), 3);
            assert!(
                (plan[2] - 20.0).abs() < EPS,
                "{s}: last planned deadline should exhaust the window, got {:?}",
                plan
            );
            // Monotone non-decreasing.
            assert!(plan.windows(2).all(|w| w[0] <= w[1] + EPS));
        }
    }

    #[test]
    fn plan_eqf_equalizes_flexibility() {
        let pex = [2.0, 3.0, 5.0];
        let plan = SerialStrategy::EqualFlexibility.plan(0.0, 20.0, &pex);
        // Slack per stage divided by pex should be constant (= total
        // slack / total pex = 10/10 = 1).
        let mut start = 0.0;
        for (i, &dl) in plan.iter().enumerate() {
            let fl = (dl - start - pex[i]) / pex[i];
            assert!((fl - 1.0).abs() < EPS, "stage {i} flexibility {fl}");
            start = dl;
        }
    }

    #[test]
    fn plan_ud_is_constant() {
        let plan = SerialStrategy::UltimateDeadline.plan(0.0, 9.0, &[1.0, 1.0]);
        assert_eq!(plan, vec![9.0, 9.0]);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(SerialStrategy::ALL.len(), 4);
        let names: Vec<String> = SerialStrategy::ALL.iter().map(|s| s.short_name()).collect();
        assert_eq!(names, vec!["UD", "ED", "EQS", "EQF"]);
        assert_eq!(SerialStrategy::EqualFlexibility.to_string(), "EQF");
        assert_eq!(
            SerialStrategy::EqualFlexibilityArtificial {
                artificial_stages: 2
            }
            .to_string(),
            "EQF-AS2"
        );
    }

    #[test]
    fn eqf_as_zero_phantoms_equals_eqf() {
        let i = input(3.0, 25.0, 2.0, &[3.0, 5.0]);
        let eqf = SerialStrategy::EqualFlexibility.deadline(&i);
        let as0 = SerialStrategy::EqualFlexibilityArtificial {
            artificial_stages: 0,
        }
        .deadline(&i);
        assert!((eqf - as0).abs() < EPS);
    }

    #[test]
    fn eqf_as_holds_back_slack() {
        // Phantom stages shrink the early share: AS2 < AS1 < EQF when
        // slack is positive.
        let i = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        let eqf = SerialStrategy::EqualFlexibility.deadline(&i);
        let as1 = SerialStrategy::EqualFlexibilityArtificial {
            artificial_stages: 1,
        }
        .deadline(&i);
        let as2 = SerialStrategy::EqualFlexibilityArtificial {
            artificial_stages: 2,
        }
        .deadline(&i);
        assert!(as2 < as1 && as1 < eqf, "{as2} < {as1} < {eqf}");
        // Still feasible: never earlier than submit + pex for positive slack.
        assert!(as2 >= 0.0 + 2.0 - EPS);
        // Exact value check: mean remaining pex = 10/3; inflated total
        // = 10 + 10/3; share = 10·(2/(40/3)) = 1.5 → dl = 3.5.
        assert!((as1 - 3.5).abs() < EPS, "got {as1}");
    }

    #[test]
    fn eqf_as_last_stage_keeps_reserve() {
        // With one real stage remaining and one phantom, the stage gets
        // half the remaining slack instead of all of it.
        let i = input(10.0, 20.0, 4.0, &[]);
        let as1 = SerialStrategy::EqualFlexibilityArtificial {
            artificial_stages: 1,
        }
        .deadline(&i);
        // slack = 6; share = 6·(4/8) = 3 → dl = 17.
        assert!((as1 - 17.0).abs() < EPS, "got {as1}");
    }

    #[test]
    fn comm_terms_reserve_slack_for_transit() {
        // 3 stages, pex [2, 3, 5], dl 24, one hop in flight (d = 1) and
        // three hops still ahead (2 hand-offs + result return, d = 1
        // each): divisible slack = 24 − 0 − 10 − 1 − 3 = 10, the same 10
        // the delay-free case had at dl 20.
        let comm = SspInput {
            submit_time: 0.0,
            global_deadline: 24.0,
            pex_current: 2.0,
            pex_remaining_after: &[3.0, 5.0],
            comm_current: 1.0,
            comm_after: 3.0,
            slack_scale: 1.0,
        };
        assert!((comm.remaining_slack() - 10.0).abs() < EPS);
        // UD ignores communication entirely.
        assert_eq!(SerialStrategy::UltimateDeadline.deadline(&comm), 24.0);
        // ED backs off by the downstream work *and* downstream transit.
        assert_eq!(SerialStrategy::EffectiveDeadline.deadline(&comm), 13.0);
        // EQS/EQF shift by the in-flight hop and divide the net slack:
        // the delay-free values (2 + 10/3 and 4.0) each move up by 1.
        let eqs = SerialStrategy::EqualSlack.deadline(&comm);
        assert!((eqs - (1.0 + 2.0 + 10.0 / 3.0)).abs() < EPS);
        let eqf = SerialStrategy::EqualFlexibility.deadline(&comm);
        assert!((eqf - 5.0).abs() < EPS);
    }

    #[test]
    fn zero_comm_is_bit_identical_to_the_paper_formulas() {
        let no_comm = input(3.0, 25.0, 2.0, &[3.0, 5.0]);
        for s in [
            SerialStrategy::UltimateDeadline,
            SerialStrategy::EffectiveDeadline,
            SerialStrategy::EqualSlack,
            SerialStrategy::EqualFlexibility,
            SerialStrategy::EqualFlexibilityArtificial {
                artificial_stages: 2,
            },
        ] {
            // Hand-computed paper values (comm-free formulas).
            let expected: f64 = match s {
                SerialStrategy::UltimateDeadline => 25.0,
                SerialStrategy::EffectiveDeadline => 25.0 - 8.0,
                SerialStrategy::EqualSlack => 3.0 + 2.0 + 12.0 / 3.0,
                SerialStrategy::EqualFlexibility => 3.0 + 2.0 + 12.0 * 0.2,
                SerialStrategy::EqualFlexibilityArtificial { .. } => {
                    3.0 + 2.0 + 12.0 * (2.0 / (10.0 + 2.0 * (10.0 / 3.0)))
                }
            };
            assert_eq!(
                s.deadline(&no_comm).to_bits(),
                expected.to_bits(),
                "{s} with zero comm must reproduce the paper formula bit-exactly"
            );
        }
    }

    #[test]
    fn slack_scale_shrinks_only_the_slack_share() {
        // pex [2, 3, 5], dl 20, slack 10. At scale 0.5 the EQS share
        // halves (10/3 → 5/3) and EQF's 2.0 → 1.0; UD/ED are untouched.
        let mut i = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        i.slack_scale = 0.5;
        assert_eq!(SerialStrategy::UltimateDeadline.deadline(&i), 20.0);
        assert_eq!(SerialStrategy::EffectiveDeadline.deadline(&i), 12.0);
        let eqs = SerialStrategy::EqualSlack.deadline(&i);
        assert!((eqs - (2.0 + 5.0 / 3.0)).abs() < EPS, "{eqs}");
        let eqf = SerialStrategy::EqualFlexibility.deadline(&i);
        assert!((eqf - 3.0).abs() < EPS, "{eqf}");
        // A behind-schedule stage (negative remaining slack) is NOT
        // damped: scaling a negative share would move the deadline
        // *later*, demoting the task the loop means to promote.
        let mut late = input(18.0, 20.0, 2.0, &[3.0, 4.0]);
        late.slack_scale = 0.25;
        let mut late_base = late;
        late_base.slack_scale = 1.0;
        for s in [SerialStrategy::EqualSlack, SerialStrategy::EqualFlexibility] {
            assert!(late.remaining_slack() < 0.0);
            assert_eq!(
                s.deadline(&late).to_bits(),
                s.deadline(&late_base).to_bits(),
                "{s}: negative shares must pass through unscaled"
            );
        }
        // Scale 1 is the exact paper formula, bit for bit.
        let mut one = i;
        one.slack_scale = 1.0;
        let base = input(0.0, 20.0, 2.0, &[3.0, 5.0]);
        for s in [
            SerialStrategy::EqualSlack,
            SerialStrategy::EqualFlexibility,
            SerialStrategy::EqualFlexibilityArtificial {
                artificial_stages: 2,
            },
        ] {
            assert_eq!(s.deadline(&one).to_bits(), s.deadline(&base).to_bits());
        }
    }

    #[test]
    fn eqf_as_zero_pex_falls_back_to_eqs() {
        let i = input(0.0, 9.0, 0.0, &[0.0, 0.0]);
        let as2 = SerialStrategy::EqualFlexibilityArtificial {
            artificial_stages: 2,
        }
        .deadline(&i);
        assert!((as2 - 3.0).abs() < EPS);
    }
}
