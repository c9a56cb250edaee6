//! The combined SSP + PSP assigner for serial-parallel trees (paper §6).
//!
//! A global deadline is broken into virtual deadlines with the SSP
//! strategy at serial levels and the PSP strategy at parallel levels. When
//! a *complex* subtask activates, the virtual deadline it received is
//! recursively decomposed for its own children — at activation time, so
//! slack inheritance works across the whole tree.
//!
//! [`TaskRun`] is the runtime state of one in-flight global task: the
//! process manager drives it with [`TaskRun::start`] and
//! [`TaskRun::complete`], and it answers with newly submittable simple
//! subtasks, each carrying its assigned virtual deadline.

use serde::{Deserialize, Serialize};

use crate::adapt::AdaptiveSlack;
use crate::error::SpecError;
use crate::ids::{NodeId, PriorityClass};
use crate::psp::{ParallelStrategy, PspInput};
use crate::spec::TaskSpec;
use crate::ssp::{SerialStrategy, SspInput};
use crate::strategy::DeadlineAssigner;

/// A complete SDA strategy: one rule for serial levels, one for parallel
/// levels. The paper evaluates the four combinations UD-UD, UD-DIV1,
/// EQF-UD and EQF-DIV1 in §6.
///
/// The optional [`adapt`](SdaStrategy::adapt) wrapper turns the strategy
/// into `ADAPT(base)`: the simulator then feeds its windowed miss-ratio
/// estimate through [`AdaptiveSlack::scale`] into the
/// `slack_scale` input of every deadline computation (see
/// [`SspInput`](crate::SspInput)), shrinking slack shares under observed
/// overload. `None` (the default) is the paper's open-loop behavior,
/// bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdaStrategy {
    /// Strategy applied among the children of serial compositions.
    pub serial: SerialStrategy,
    /// Strategy applied among the children of parallel compositions.
    pub parallel: ParallelStrategy,
    /// Feedback-adaptive slack scaling (`ADAPT(base)`); `None` = the
    /// paper's open-loop strategies.
    pub adapt: Option<AdaptiveSlack>,
}

impl SdaStrategy {
    /// Combines a serial and a parallel strategy (open-loop, no
    /// adaptation).
    pub fn new(serial: SerialStrategy, parallel: ParallelStrategy) -> SdaStrategy {
        SdaStrategy {
            serial,
            parallel,
            adapt: None,
        }
    }

    /// Wraps `base` into `ADAPT(base)` with the given feedback
    /// configuration.
    pub fn adaptive(base: SdaStrategy, adapt: AdaptiveSlack) -> SdaStrategy {
        SdaStrategy {
            adapt: Some(adapt),
            ..base
        }
    }

    /// Whether this strategy closes the feedback loop.
    pub fn is_adaptive(&self) -> bool {
        self.adapt.is_some()
    }

    /// UD-UD: the do-nothing baseline of §6.
    pub fn ud_ud() -> SdaStrategy {
        SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::UltimateDeadline,
        )
    }

    /// UD-DIV1: PSP correction only.
    pub fn ud_div1() -> SdaStrategy {
        SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::Div { x: 1.0 },
        )
    }

    /// EQF-UD: SSP correction only.
    pub fn eqf_ud() -> SdaStrategy {
        SdaStrategy::new(
            SerialStrategy::EqualFlexibility,
            ParallelStrategy::UltimateDeadline,
        )
    }

    /// EQF-DIV1: both corrections — the paper's recommended combination.
    pub fn eqf_div1() -> SdaStrategy {
        SdaStrategy::new(
            SerialStrategy::EqualFlexibility,
            ParallelStrategy::Div { x: 1.0 },
        )
    }

    /// Compact name like `EQF-DIV1`, matching the paper's §6 labels;
    /// adaptive strategies render as `ADAPT(EQF-DIV1)`.
    pub fn short_name(&self) -> String {
        let base = format!(
            "{}-{}",
            self.serial.short_name(),
            self.parallel.short_name().replace('-', "")
        );
        if self.adapt.is_some() {
            format!("ADAPT({base})")
        } else {
            base
        }
    }
}

impl std::fmt::Display for SdaStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.short_name())
    }
}

/// Opaque reference to a simple subtask inside a [`TaskRun`],
/// [`FlatRun`](crate::FlatRun) or [`DagRun`](crate::DagRun).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubtaskRef(pub(crate) usize);

impl SubtaskRef {
    /// The runtime's internal index for this subtask. For
    /// [`FlatRun`](crate::FlatRun) this is the position in
    /// [`subtasks()`](crate::FlatRun::subtasks); for
    /// [`DagRun`](crate::DagRun) it is the node index returned by
    /// [`push_node`](crate::DagRun::push_node). Useful for external
    /// bookkeeping (tracing, property tests); pass the ref itself back
    /// to `complete`.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A simple subtask ready for submission to its node, with its assigned
/// virtual deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Submission {
    /// Which subtask this is; pass back to [`TaskRun::complete`].
    pub subtask: SubtaskRef,
    /// The node that must execute it.
    pub node: NodeId,
    /// Real execution time (the simulator's service demand; a real
    /// deployment would not know this).
    pub ex: f64,
    /// Predicted execution time.
    pub pex: f64,
    /// The assigned virtual deadline.
    pub deadline: f64,
    /// Scheduling class (elevated under Globals First).
    pub priority: PriorityClass,
}

/// Result of reporting a subtask completion.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// Zero or more successor subtasks became submittable. An empty vector
    /// means the task is still waiting on other in-flight branches.
    Submitted(Vec<Submission>),
    /// The whole global task just finished.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Pending,
    Active,
    Done,
}

#[derive(Debug, Clone)]
enum Kind {
    Simple {
        node: NodeId,
        ex: f64,
        pex: f64,
    },
    Serial {
        children: Vec<usize>,
        next: usize,
    },
    Parallel {
        children: Vec<usize>,
        remaining: usize,
    },
}

#[derive(Debug, Clone)]
struct RtNode {
    kind: Kind,
    parent: Option<usize>,
    state: State,
    /// The virtual window deadline assigned at activation.
    window_deadline: f64,
    /// Aggregate pex of the subtree (serial: sum; parallel: max).
    pex_agg: f64,
}

/// Runtime state of one in-flight global task: tracks which subtasks are
/// active, assigns virtual deadlines at activation time, and enforces the
/// serial-parallel precedence constraints.
///
/// See the [crate-level example](crate) for typical use. Drive it with:
///
/// 1. [`TaskRun::start`] once, at the task's arrival — returns the first
///    wave of submissions;
/// 2. [`TaskRun::complete`] for every finished subtask — returns follow-up
///    submissions or [`Completion::Finished`].
#[derive(Debug, Clone)]
pub struct TaskRun {
    arena: Vec<RtNode>,
    root: usize,
    arrival: f64,
    deadline: f64,
    started: bool,
    completed_simple: usize,
    total_simple: usize,
}

impl TaskRun {
    /// Builds the runtime state for `spec`, arriving at `arrival` with
    /// end-to-end deadline `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec fails [`TaskSpec::validate`].
    pub fn new(spec: &TaskSpec, arrival: f64, deadline: f64) -> Result<TaskRun, SpecError> {
        spec.validate()?;
        let mut arena = Vec::with_capacity(spec.simple_count() * 2);
        let root = Self::build(spec, None, &mut arena);
        let total_simple = spec.simple_count();
        Ok(TaskRun {
            arena,
            root,
            arrival,
            deadline,
            started: false,
            completed_simple: 0,
            total_simple,
        })
    }

    fn build(spec: &TaskSpec, parent: Option<usize>, arena: &mut Vec<RtNode>) -> usize {
        let idx = arena.len();
        arena.push(RtNode {
            kind: Kind::Simple {
                node: NodeId::new(0),
                ex: 0.0,
                pex: 0.0,
            },
            parent,
            state: State::Pending,
            window_deadline: f64::NAN,
            pex_agg: spec.aggregate_pex(),
        });
        let kind = match spec {
            TaskSpec::Simple(s) => Kind::Simple {
                node: s.node,
                ex: s.ex,
                pex: s.pex,
            },
            TaskSpec::Serial(children) => {
                let ids = children
                    .iter()
                    .map(|c| Self::build(c, Some(idx), arena))
                    .collect();
                Kind::Serial {
                    children: ids,
                    next: 0,
                }
            }
            TaskSpec::Parallel(children) => {
                let ids: Vec<usize> = children
                    .iter()
                    .map(|c| Self::build(c, Some(idx), arena))
                    .collect();
                let n = ids.len();
                Kind::Parallel {
                    children: ids,
                    remaining: n,
                }
            }
        };
        arena[idx].kind = kind;
        idx
    }

    /// The task's arrival time.
    pub fn arrival(&self) -> f64 {
        self.arrival
    }

    /// The end-to-end deadline.
    pub fn global_deadline(&self) -> f64 {
        self.deadline
    }

    /// `(completed, total)` simple-subtask counts.
    pub fn progress(&self) -> (usize, usize) {
        (self.completed_simple, self.total_simple)
    }

    /// Activates the task at `now`, returning the first submittable wave.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self, strategy: &dyn DeadlineAssigner, now: f64) -> Vec<Submission> {
        assert!(!self.started, "TaskRun::start called twice");
        self.started = true;
        let mut out = Vec::new();
        self.activate(self.root, strategy, now, self.deadline, &mut out);
        out
    }

    /// Reports that `subtask` finished at `now`; returns follow-up
    /// submissions, or [`Completion::Finished`] when the task is done.
    ///
    /// # Panics
    ///
    /// Panics if `subtask` is not currently active (double completion or a
    /// completion for a never-submitted subtask) or if the run never
    /// started.
    pub fn complete(
        &mut self,
        subtask: SubtaskRef,
        strategy: &dyn DeadlineAssigner,
        now: f64,
    ) -> Completion {
        assert!(self.started, "TaskRun::complete before start");
        let idx = subtask.0;
        assert!(
            matches!(self.arena[idx].kind, Kind::Simple { .. })
                && self.arena[idx].state == State::Active,
            "completion for a subtask that is not active: {subtask:?}"
        );
        self.arena[idx].state = State::Done;
        self.completed_simple += 1;

        let mut out = Vec::new();
        let mut cur = idx;
        loop {
            let Some(parent) = self.arena[cur].parent else {
                return Completion::Finished;
            };
            match &mut self.arena[parent].kind {
                Kind::Serial { children, next } => {
                    *next += 1;
                    if *next < children.len() {
                        let child = children[*next];
                        let window = self.arena[parent].window_deadline;
                        let sub_dl =
                            self.serial_child_deadline(parent, child, strategy, now, window);
                        self.activate(child, strategy, now, sub_dl, &mut out);
                        return Completion::Submitted(out);
                    }
                    self.arena[parent].state = State::Done;
                    cur = parent;
                }
                Kind::Parallel { remaining, .. } => {
                    *remaining -= 1;
                    if *remaining > 0 {
                        return Completion::Submitted(out);
                    }
                    self.arena[parent].state = State::Done;
                    cur = parent;
                }
                Kind::Simple { .. } => unreachable!("simple node cannot be a parent"),
            }
        }
    }

    /// Computes the SSP deadline for `child` (a child of serial node
    /// `parent`) submitted at `now` within the parent's window.
    fn serial_child_deadline(
        &self,
        parent: usize,
        child: usize,
        strategy: &dyn DeadlineAssigner,
        now: f64,
        window_deadline: f64,
    ) -> f64 {
        let Kind::Serial { children, next } = &self.arena[parent].kind else {
            unreachable!("serial_child_deadline on non-serial parent");
        };
        debug_assert_eq!(children[*next], child);
        let pex_current = self.arena[child].pex_agg;
        let pex_rest: Vec<f64> = children[*next + 1..]
            .iter()
            .map(|&c| self.arena[c].pex_agg)
            .collect();
        // The nested runtime models the paper's delay-free network; the
        // communication-aware hot path is `FlatRun` (see
        // `FlatRun::set_expected_comm`).
        strategy.serial_deadline(&SspInput {
            submit_time: now,
            global_deadline: window_deadline,
            pex_current,
            pex_remaining_after: &pex_rest,
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        })
    }

    /// Activates node `idx` with virtual window `deadline` at time `now`,
    /// pushing any immediately submittable simple subtasks into `out`.
    fn activate(
        &mut self,
        idx: usize,
        strategy: &dyn DeadlineAssigner,
        now: f64,
        deadline: f64,
        out: &mut Vec<Submission>,
    ) {
        debug_assert_eq!(self.arena[idx].state, State::Pending, "double activation");
        self.arena[idx].state = State::Active;
        self.arena[idx].window_deadline = deadline;
        match self.arena[idx].kind.clone() {
            Kind::Simple { node, ex, pex } => {
                out.push(Submission {
                    subtask: SubtaskRef(idx),
                    node,
                    ex,
                    pex,
                    deadline,
                    // GF elevates every subtask of a global task over the
                    // locals at its node (paper §5.1); the class is thus a
                    // property of the whole strategy, not of the position
                    // in the tree.
                    priority: strategy.priority_class(),
                });
            }
            Kind::Serial { children, next } => {
                debug_assert_eq!(next, 0);
                let child = children[0];
                let sub_dl = self.serial_child_deadline(idx, child, strategy, now, deadline);
                self.activate(child, strategy, now, sub_dl, out);
            }
            Kind::Parallel { children, .. } => {
                let n = children.len();
                let branch_dl = strategy.parallel_deadline(&PspInput {
                    arrival_time: now,
                    global_deadline: deadline,
                    branch_count: n,
                    comm_current: 0.0,
                    comm_after: 0.0,
                    slack_scale: 1.0,
                });
                for child in children {
                    self.activate(child, strategy, now, branch_dl, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn leaf(node: u32, ex: f64) -> TaskSpec {
        TaskSpec::simple(NodeId::new(node), ex, ex)
    }

    fn drive_to_completion(
        run: &mut TaskRun,
        strategy: &SdaStrategy,
        mut now: f64,
        dt_per_subtask: f64,
    ) -> Vec<(f64, f64)> {
        // Completes submissions in FIFO order, `dt_per_subtask` apart.
        // Returns (deadline, completion_time) pairs.
        let mut pending: Vec<Submission> = run.start(strategy, now);
        let mut log = Vec::new();
        while let Some(sub) = pending.first().copied() {
            pending.remove(0);
            now += dt_per_subtask;
            log.push((sub.deadline, now));
            match run.complete(sub.subtask, strategy, now) {
                Completion::Submitted(more) => pending.extend(more),
                Completion::Finished => break,
            }
        }
        log
    }

    #[test]
    fn serial_chain_eqf_assigns_proportional_slack() {
        let spec = TaskSpec::serial(vec![leaf(0, 2.0), leaf(1, 3.0), leaf(2, 5.0)]);
        let mut run = TaskRun::new(&spec, 0.0, 20.0).unwrap();
        let subs = run.start(&SdaStrategy::eqf_ud(), 0.0);
        assert_eq!(subs.len(), 1);
        assert!((subs[0].deadline - 4.0).abs() < EPS); // 2 + 10·0.2
        assert_eq!(subs[0].node, NodeId::new(0));
    }

    #[test]
    fn serial_chain_completion_submits_next_with_inherited_slack() {
        let spec = TaskSpec::serial(vec![leaf(0, 1.0), leaf(1, 1.0)]);
        let mut run = TaskRun::new(&spec, 0.0, 4.0).unwrap();
        let strategy = SdaStrategy::eqf_ud();
        let first = run.start(&strategy, 0.0);
        // Stage 1: dl = 0 + 1 + 2·(1/2) = 2.
        assert!((first[0].deadline - 2.0).abs() < EPS);
        // Finish very early: stage 2 inherits all the slack.
        let Completion::Submitted(second) = run.complete(first[0].subtask, &strategy, 0.25) else {
            panic!("expected submissions");
        };
        assert_eq!(second.len(), 1);
        // Remaining slack = 4 − 0.25 − 1 = 2.75 all to the last stage.
        assert!((second[0].deadline - 4.0).abs() < EPS);
        let Completion::Finished = run.complete(second[0].subtask, &strategy, 1.5) else {
            panic!("expected finish");
        };
    }

    #[test]
    fn parallel_fan_submits_all_at_once_and_finishes_on_last() {
        let spec = TaskSpec::parallel(vec![leaf(0, 1.0), leaf(1, 2.0), leaf(2, 3.0)]);
        let mut run = TaskRun::new(&spec, 10.0, 22.0).unwrap();
        let strategy = SdaStrategy::ud_div1();
        let subs = run.start(&strategy, 10.0);
        assert_eq!(subs.len(), 3);
        // DIV-1 with window 12, n=3: dl = 10 + 12/3 = 14 for every branch.
        for s in &subs {
            assert!((s.deadline - 14.0).abs() < EPS);
        }
        // Completing two branches yields empty submissions.
        assert_eq!(
            run.complete(subs[0].subtask, &strategy, 11.0),
            Completion::Submitted(vec![])
        );
        assert_eq!(
            run.complete(subs[1].subtask, &strategy, 12.0),
            Completion::Submitted(vec![])
        );
        assert_eq!(
            run.complete(subs[2].subtask, &strategy, 13.0),
            Completion::Finished
        );
    }

    #[test]
    fn gf_elevates_priority() {
        let spec = TaskSpec::parallel(vec![leaf(0, 1.0), leaf(1, 1.0)]);
        let mut run = TaskRun::new(&spec, 0.0, 10.0).unwrap();
        let gf = SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::GlobalsFirst,
        );
        let subs = run.start(&gf, 0.0);
        assert!(subs.iter().all(|s| s.priority == PriorityClass::Elevated));
        assert!(subs.iter().all(|s| (s.deadline - 10.0).abs() < EPS));
    }

    #[test]
    fn nested_serial_of_parallel_decomposes_recursively() {
        // [(A ∥ B) C]: serial window split by EQF, then the parallel
        // stage's window divided by DIV-1 among 2 branches.
        let spec = TaskSpec::serial(vec![
            TaskSpec::parallel(vec![leaf(0, 2.0), leaf(1, 2.0)]),
            leaf(2, 2.0),
        ]);
        let mut run = TaskRun::new(&spec, 0.0, 8.0).unwrap();
        let strategy = SdaStrategy::eqf_div1();
        let subs = run.start(&strategy, 0.0);
        // Serial level: stages have pex_agg = [2 (parallel max), 2];
        // slack = 8 − 4 = 4; EQF gives stage 1: dl = 0 + 2 + 4·(2/4) = 4.
        // Parallel level inside stage 1: window [0, 4], n = 2 →
        // branch dl = 0 + 4/2 = 2.
        assert_eq!(subs.len(), 2);
        for s in &subs {
            assert!((s.deadline - 2.0).abs() < EPS, "got {}", s.deadline);
        }
        // Finish both branches at t=3 (late vs virtual, fine for soft RT);
        // stage 2 then gets the remaining window.
        let _ = run.complete(subs[0].subtask, &strategy, 2.0);
        let Completion::Submitted(second) = run.complete(subs[1].subtask, &strategy, 3.0) else {
            panic!("expected submissions");
        };
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].node, NodeId::new(2));
        // Serial EQF at submit 3: remaining slack = 8−3−2 = 3, single
        // stage → dl = 8.
        assert!((second[0].deadline - 8.0).abs() < EPS);
    }

    #[test]
    fn parallel_of_serial_chains() {
        // [(A B) ∥ (C D)] — two pipelines racing.
        let spec = TaskSpec::parallel(vec![
            TaskSpec::serial(vec![leaf(0, 1.0), leaf(1, 1.0)]),
            TaskSpec::serial(vec![leaf(2, 1.0), leaf(3, 1.0)]),
        ]);
        let mut run = TaskRun::new(&spec, 0.0, 8.0).unwrap();
        let strategy = SdaStrategy::eqf_div1();
        let subs = run.start(&strategy, 0.0);
        // Each pipeline gets window dl = 0 + 8/2 = 4 (DIV-1, n=2), then
        // EQF inside: stage 1 dl = 0 + 1 + 2·(1/2) = 2.
        assert_eq!(subs.len(), 2);
        for s in &subs {
            assert!((s.deadline - 2.0).abs() < EPS);
        }
        // Finishing the first stage of pipeline 0 submits its stage 2.
        let Completion::Submitted(next) = run.complete(subs[0].subtask, &strategy, 1.0) else {
            panic!()
        };
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].node, NodeId::new(1));
        // EQF: remaining slack in window = 4−1−1 = 2 → dl = 1+1+2 = 4.
        assert!((next[0].deadline - 4.0).abs() < EPS);
    }

    #[test]
    fn single_simple_task_degenerates_to_global_deadline() {
        let spec = leaf(0, 2.0);
        let mut run = TaskRun::new(&spec, 1.0, 5.0).unwrap();
        let subs = run.start(&SdaStrategy::eqf_div1(), 1.0);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].deadline, 5.0);
        assert_eq!(
            run.complete(subs[0].subtask, &SdaStrategy::eqf_div1(), 3.0),
            Completion::Finished
        );
    }

    #[test]
    fn drive_whole_tree_to_completion() {
        let spec = TaskSpec::serial(vec![
            leaf(0, 1.0),
            TaskSpec::parallel(vec![
                leaf(1, 1.0),
                TaskSpec::serial(vec![leaf(2, 0.5), leaf(3, 0.5)]),
            ]),
            leaf(4, 1.0),
        ]);
        let mut run = TaskRun::new(&spec, 0.0, 20.0).unwrap();
        let log = drive_to_completion(&mut run, &SdaStrategy::eqf_div1(), 0.0, 0.5);
        assert_eq!(run.progress(), (5, 5));
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn progress_and_deadline_queries() {
        let spec = TaskSpec::serial(vec![leaf(0, 1.0), leaf(1, 1.0)]);
        let mut run = TaskRun::new(&spec, 0.0, 4.0).unwrap();
        assert_eq!(run.progress(), (0, 2));
        let subs = run.start(&SdaStrategy::eqf_ud(), 0.0);
        assert_eq!(run.arrival(), 0.0);
        assert_eq!(run.global_deadline(), 4.0);
        run.complete(subs[0].subtask, &SdaStrategy::eqf_ud(), 1.0);
        assert_eq!(run.progress(), (1, 2));
    }

    #[test]
    fn invalid_spec_rejected() {
        let bad = TaskSpec::serial(vec![]);
        assert!(TaskRun::new(&bad, 0.0, 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "start called twice")]
    fn double_start_panics() {
        let spec = leaf(0, 1.0);
        let mut run = TaskRun::new(&spec, 0.0, 2.0).unwrap();
        run.start(&SdaStrategy::ud_ud(), 0.0);
        run.start(&SdaStrategy::ud_ud(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn double_complete_panics() {
        let spec = TaskSpec::parallel(vec![leaf(0, 1.0), leaf(1, 1.0)]);
        let mut run = TaskRun::new(&spec, 0.0, 4.0).unwrap();
        let strategy = SdaStrategy::ud_ud();
        let subs = run.start(&strategy, 0.0);
        run.complete(subs[0].subtask, &strategy, 1.0);
        run.complete(subs[0].subtask, &strategy, 2.0);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(SdaStrategy::ud_ud().short_name(), "UD-UD");
        assert_eq!(SdaStrategy::ud_div1().short_name(), "UD-DIV1");
        assert_eq!(SdaStrategy::eqf_ud().short_name(), "EQF-UD");
        assert_eq!(SdaStrategy::eqf_div1().to_string(), "EQF-DIV1");
        let adaptive =
            SdaStrategy::adaptive(SdaStrategy::eqf_div1(), crate::AdaptiveSlack::default());
        assert!(adaptive.is_adaptive());
        assert_eq!(adaptive.short_name(), "ADAPT(EQF-DIV1)");
        assert!(!SdaStrategy::eqf_div1().is_adaptive());
    }

    #[test]
    fn ud_ud_assigns_global_deadline_everywhere() {
        let spec = TaskSpec::serial(vec![
            leaf(0, 1.0),
            TaskSpec::parallel(vec![leaf(1, 1.0), leaf(2, 1.0)]),
        ]);
        let mut run = TaskRun::new(&spec, 0.0, 9.0).unwrap();
        let strategy = SdaStrategy::ud_ud();
        let mut all: Vec<Submission> = run.start(&strategy, 0.0);
        let first = all[0];
        if let Completion::Submitted(next) = run.complete(first.subtask, &strategy, 1.0) {
            all.extend(next);
        }
        assert!(all.iter().all(|s| (s.deadline - 9.0).abs() < EPS));
    }
}
