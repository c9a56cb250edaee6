//! Arena-friendly runtime for stage-structured global tasks.
//!
//! [`TaskRun`](crate::TaskRun) handles arbitrary serial-parallel trees
//! but pays for the generality: every task allocates a fresh node arena
//! of nested `Vec`s, and every completion allocates submission vectors.
//! The workload generator only ever produces *stage-structured* tasks —
//! a serial sequence of stages, each stage either one bare subtask or a
//! parallel group — so the steady-state hot path uses [`FlatRun`]
//! instead: one flat `Vec` of subtasks plus stage offsets, fully
//! recyclable, writing submissions into caller-provided buffers.
//!
//! A `FlatRun` is designed to live in a pool (see `sda-system`'s task
//! slab): [`FlatRun::reset`] clears the task without releasing capacity,
//! so after warm-up a recycled run performs **zero heap allocations** per
//! task lifecycle.
//!
//! The deadline decomposition is bit-identical to driving a [`TaskRun`]
//! over the equivalent nested [`TaskSpec`](crate::TaskSpec): serial
//! levels apply the SSP rule over per-stage aggregate `pex` (parallel
//! stages aggregate by max), parallel groups apply the PSP rule within
//! the stage window, and submissions are emitted in the same order.

use crate::assign::{Submission, SubtaskRef};
use crate::ids::NodeId;
use crate::psp::PspInput;
use crate::spec::SimpleSpec;
use crate::ssp::SspInput;
use crate::strategy::DeadlineAssigner;

/// Runtime state of one in-flight stage-structured global task, stored
/// flat for recycling.
///
/// # Life cycle
///
/// 1. [`FlatRun::reset`], then for each stage: [`FlatRun::push_subtask`]
///    calls followed by [`FlatRun::end_stage`]; finally
///    [`FlatRun::set_structure`] and [`FlatRun::set_timing`]
///    (the workload generator does all of this);
/// 2. [`FlatRun::start`] once at arrival — appends the first submittable
///    wave to the output buffer;
/// 3. [`FlatRun::complete`] per finished subtask — appends follow-up
///    submissions, returns `true` when the whole task just finished.
///
/// # Examples
///
/// ```
/// use sda_core::{FlatRun, NodeId, SdaStrategy};
///
/// // A two-stage serial chain, pex 1.0 each, deadline 4.
/// let mut run = FlatRun::new();
/// run.reset();
/// run.push_subtask(NodeId::new(0), 1.0, 1.0);
/// run.end_stage();
/// run.push_subtask(NodeId::new(1), 1.0, 1.0);
/// run.end_stage();
/// run.set_structure(true, false);
/// run.set_timing(0.0, 4.0);
///
/// let strategy = SdaStrategy::eqf_ud();
/// let mut subs = Vec::new();
/// run.start(&strategy, 0.0, &mut subs);
/// assert_eq!(subs.len(), 1);
/// // EQF gives stage 1 half the slack: dl = 0 + 1 + 2·(1/2) = 2.
/// assert!((subs[0].deadline - 2.0).abs() < 1e-12);
///
/// let first = subs[0].subtask;
/// subs.clear();
/// let finished = run.complete(first, &strategy, 0.5, &mut subs);
/// // Stage 2 inherits the leftover slack: dl = 4.
/// assert!(!finished);
/// assert!((subs[0].deadline - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FlatRun {
    /// All simple subtasks, in stage order.
    subtasks: Vec<SimpleSpec>,
    /// `stage_ends[s]` is the end index (exclusive) of stage `s`.
    stage_ends: Vec<u32>,
    /// Aggregate predicted execution time per stage (parallel stages
    /// aggregate by max, exactly like `TaskSpec::aggregate_pex`).
    stage_pex: Vec<f64>,
    /// Per-subtask completion flags (guards double completion).
    done: Vec<bool>,
    arrival: f64,
    deadline: f64,
    /// Whether the SSP rule applies across stages (false only for a
    /// task that is a single top-level parallel group).
    serial_levels: bool,
    /// Whether each stage is a parallel *group* (PSP applies within it),
    /// as opposed to a bare subtask.
    parallel_groups: bool,
    current_stage: usize,
    remaining_in_stage: u32,
    started: bool,
    /// Expected one-hop communication delay of the network the task runs
    /// over (0.0 = the paper's delay-free network). Feeds the `comm_*`
    /// fields of [`SspInput`]/[`PspInput`] so slack-dividing strategies
    /// reserve slack for transit.
    expected_hop_comm: f64,
    /// Feedback-driven multiplier on the slack share of every stage
    /// activation (1.0 = the paper's open-loop formulas). Stamped by the
    /// system model from its windowed miss-ratio estimate when the
    /// strategy is `ADAPT(base)`; feeds the `slack_scale` field of
    /// [`SspInput`]/[`PspInput`].
    slack_scale: f64,
}

impl Default for FlatRun {
    /// An empty run — identical to a freshly [`reset`](FlatRun::reset)
    /// one (in particular `slack_scale` starts at its neutral 1.0).
    fn default() -> FlatRun {
        FlatRun {
            subtasks: Vec::new(),
            stage_ends: Vec::new(),
            stage_pex: Vec::new(),
            done: Vec::new(),
            arrival: 0.0,
            deadline: 0.0,
            serial_levels: true,
            parallel_groups: false,
            current_stage: 0,
            remaining_in_stage: 0,
            started: false,
            expected_hop_comm: 0.0,
            slack_scale: 1.0,
        }
    }
}

impl FlatRun {
    /// An empty run with no storage committed.
    pub fn new() -> FlatRun {
        FlatRun::default()
    }

    /// Clears the run for refilling, retaining all capacity — the pool
    /// recycling entry point.
    pub fn reset(&mut self) {
        self.subtasks.clear();
        self.stage_ends.clear();
        self.stage_pex.clear();
        self.done.clear();
        self.arrival = 0.0;
        self.deadline = 0.0;
        self.serial_levels = true;
        self.parallel_groups = false;
        self.current_stage = 0;
        self.remaining_in_stage = 0;
        self.started = false;
        self.expected_hop_comm = 0.0;
        self.slack_scale = 1.0;
    }

    /// Appends one subtask to the stage currently being built.
    pub fn push_subtask(&mut self, node: NodeId, ex: f64, pex: f64) {
        debug_assert!(ex.is_finite() && ex >= 0.0, "invalid ex {ex}");
        debug_assert!(pex.is_finite() && pex >= 0.0, "invalid pex {pex}");
        self.subtasks.push(SimpleSpec { node, ex, pex });
        self.done.push(false);
    }

    /// Closes the stage currently being built (it must be non-empty) and
    /// records its aggregate `pex`.
    pub fn end_stage(&mut self) {
        let start = self.stage_ends.last().copied().unwrap_or(0) as usize;
        let end = self.subtasks.len();
        assert!(end > start, "end_stage on an empty stage");
        // Parallel groups aggregate pex by max (TaskSpec::aggregate_pex);
        // a bare stage's fold over one non-negative value is its pex.
        let agg = self.subtasks[start..end]
            .iter()
            .map(|s| s.pex)
            .fold(0.0, f64::max);
        self.stage_pex.push(agg);
        self.stage_ends
            .push(u32::try_from(end).expect("more than u32::MAX subtasks in one task"));
    }

    /// Declares the structure: whether the SSP rule applies across stages
    /// and whether each stage is a parallel group (PSP within stages).
    pub fn set_structure(&mut self, serial_levels: bool, parallel_groups: bool) {
        self.serial_levels = serial_levels;
        self.parallel_groups = parallel_groups;
    }

    /// Sets arrival time and end-to-end deadline.
    pub fn set_timing(&mut self, arrival: f64, deadline: f64) {
        self.arrival = arrival;
        self.deadline = deadline;
    }

    /// Declares the expected one-hop communication delay of the network
    /// this task will traverse. Every hand-off (initial fan-out,
    /// inter-stage forwarding, result return) is expected to cost this
    /// much; deadline decomposition reserves slack accordingly. Reset
    /// (and default) is `0.0`, which reproduces the paper's delay-free
    /// deadlines bit-exactly.
    pub fn set_expected_comm(&mut self, per_hop: f64) {
        debug_assert!(
            per_hop.is_finite() && per_hop >= 0.0,
            "invalid expected hop delay {per_hop}"
        );
        self.expected_hop_comm = per_hop;
    }

    /// Declares the feedback-driven slack-share multiplier in force for
    /// the *next* stage activation (the system model re-stamps it before
    /// every [`FlatRun::start`]/[`FlatRun::complete`] under an
    /// `ADAPT(base)` strategy, so the loop reacts to the live miss-ratio
    /// estimate). The default — and the value after [`FlatRun::reset`] —
    /// is `1.0`, which reproduces the open-loop deadlines bit-exactly.
    pub fn set_slack_scale(&mut self, scale: f64) {
        debug_assert!(
            scale.is_finite() && scale > 0.0,
            "invalid slack scale {scale}"
        );
        self.slack_scale = scale;
    }

    /// The slack-share multiplier currently in force.
    pub fn slack_scale(&self) -> f64 {
        self.slack_scale
    }

    /// The task's arrival time.
    pub fn arrival(&self) -> f64 {
        self.arrival
    }

    /// The end-to-end deadline.
    pub fn global_deadline(&self) -> f64 {
        self.deadline
    }

    /// Number of simple subtasks.
    pub fn simple_count(&self) -> usize {
        self.subtasks.len()
    }

    /// Number of serial stages.
    pub fn stage_count(&self) -> usize {
        self.stage_ends.len()
    }

    /// All subtasks in stage order.
    pub fn subtasks(&self) -> &[SimpleSpec] {
        &self.subtasks
    }

    /// The subtasks of stage `s`.
    pub fn stage(&self, s: usize) -> &[SimpleSpec] {
        let (start, end) = self.stage_bounds(s);
        &self.subtasks[start..end]
    }

    #[inline]
    fn stage_bounds(&self, s: usize) -> (usize, usize) {
        let start = if s == 0 {
            0
        } else {
            self.stage_ends[s - 1] as usize
        };
        (start, self.stage_ends[s] as usize)
    }

    /// Sum of real execution times over all subtasks.
    pub fn total_ex(&self) -> f64 {
        self.subtasks.iter().map(|s| s.ex).sum()
    }

    /// Real execution time along the critical path: stages add, branches
    /// within a stage take the maximum — identical arithmetic (and fold
    /// order) to `TaskSpec::critical_path_ex` on the nested equivalent.
    pub fn critical_path_ex(&self) -> f64 {
        let mut total = 0.0;
        let mut start = 0usize;
        for &end in &self.stage_ends {
            let end = end as usize;
            let stage_max = self.subtasks[start..end]
                .iter()
                .map(|s| s.ex)
                .fold(0.0, f64::max);
            total += stage_max;
            start = end;
        }
        total
    }

    /// Activates the task at `now`, appending the first submittable wave
    /// to `out` (which is *not* cleared first).
    ///
    /// # Panics
    ///
    /// Panics if called twice, or on an empty (never filled) run.
    pub fn start<A: DeadlineAssigner + ?Sized>(
        &mut self,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        assert!(!self.started, "FlatRun::start called twice");
        assert!(
            !self.stage_ends.is_empty(),
            "FlatRun::start on an empty task"
        );
        self.started = true;
        self.activate_stage(0, strategy, now, out);
    }

    /// Reports that `subtask` finished at `now`, appending any follow-up
    /// submissions to `out`. Returns `true` when the whole task just
    /// finished.
    ///
    /// # Panics
    ///
    /// Panics if the run never started, if `subtask` is not in the
    /// currently active stage, or on double completion.
    pub fn complete<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) -> bool {
        assert!(self.started, "FlatRun::complete before start");
        let idx = subtask.0;
        let (start, end) = self.stage_bounds(self.current_stage);
        assert!(
            idx >= start && idx < end && !self.done[idx],
            "completion for a subtask that is not active: {subtask:?}"
        );
        self.done[idx] = true;
        self.remaining_in_stage -= 1;
        if self.remaining_in_stage > 0 {
            return false;
        }
        if self.current_stage + 1 == self.stage_ends.len() {
            return true;
        }
        self.activate_stage(self.current_stage + 1, strategy, now, out);
        false
    }

    /// Re-issues a *lost* subtask of the currently active stage at `now`,
    /// appending exactly one replacement submission to `out`.
    ///
    /// The replacement deadline re-decomposes the **residual** budget:
    /// the SSP rule is re-applied at `now` over the current stage plus
    /// every stage still ahead (the same arithmetic stage activation
    /// used when the stage first opened, but
    /// with the clock advanced — so whatever slack the failure burned is
    /// charged to this and later stages under the strategy's own
    /// division rule). The straggler keeps the whole stage window: its
    /// siblings already carry their original deadlines (or are done), so
    /// there is nothing left to divide the window across.
    ///
    /// Completion bookkeeping is untouched — the subtask was outstanding
    /// before the loss and stays outstanding until [`FlatRun::complete`]
    /// is finally called for it.
    ///
    /// # Panics
    ///
    /// Panics if the run never started, or if `subtask` is not an
    /// uncompleted member of the currently active stage.
    pub fn reissue<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        assert!(self.started, "FlatRun::reissue before start");
        let idx = subtask.0;
        let stage = self.current_stage;
        let (start, end) = self.stage_bounds(stage);
        assert!(
            idx >= start && idx < end && !self.done[idx],
            "reissue for a subtask that is not active: {subtask:?}"
        );
        let s = self.subtasks[idx];
        out.push(Submission {
            subtask: SubtaskRef(idx),
            node: s.node,
            ex: s.ex,
            pex: s.pex,
            deadline: self.stage_window(stage, now, strategy),
            priority: strategy.priority_class(),
        });
    }

    /// Activates stage `stage` at `now`: computes its window via the SSP
    /// rule (when serial levels apply), the branch deadline via the PSP
    /// rule (when the stage is a parallel group), and appends one
    /// submission per subtask.
    fn activate_stage<A: DeadlineAssigner + ?Sized>(
        &mut self,
        stage: usize,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        let (start, end) = self.stage_bounds(stage);
        let hop = self.expected_hop_comm;
        let stage_dl = self.stage_window(stage, now, strategy);
        let branch_dl = if self.parallel_groups {
            strategy.parallel_deadline(&PspInput {
                arrival_time: now,
                global_deadline: stage_dl,
                branch_count: end - start,
                comm_current: hop,
                // For a group inside a serial decomposition the window
                // already reserves downstream transit; a top-level
                // parallel task still owes its result return.
                comm_after: if self.serial_levels { 0.0 } else { hop },
                slack_scale: self.slack_scale,
            })
        } else {
            stage_dl
        };
        let priority = strategy.priority_class();
        for idx in start..end {
            let s = self.subtasks[idx];
            out.push(Submission {
                subtask: SubtaskRef(idx),
                node: s.node,
                ex: s.ex,
                pex: s.pex,
                deadline: branch_dl,
                priority,
            });
        }
        self.current_stage = stage;
        self.remaining_in_stage = (end - start) as u32;
    }

    /// The window of stage `stage` at `now`: the SSP rule over this
    /// stage and every stage after it when serial levels apply, else the
    /// global deadline.
    fn stage_window<A: DeadlineAssigner + ?Sized>(
        &self,
        stage: usize,
        now: f64,
        strategy: &A,
    ) -> f64 {
        if !self.serial_levels {
            return self.deadline;
        }
        let hop = self.expected_hop_comm;
        strategy.serial_deadline(&SspInput {
            submit_time: now,
            global_deadline: self.deadline,
            pex_current: self.stage_pex[stage],
            pex_remaining_after: &self.stage_pex[stage + 1..],
            // One hop is in flight to this stage; after it completes
            // there are (stage_count − 1 − stage) inter-stage hand-offs
            // plus the result return still to pay.
            comm_current: hop,
            comm_after: hop * (self.stage_ends.len() - stage) as f64,
            slack_scale: self.slack_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Completion, SdaStrategy, TaskRun};
    use crate::spec::TaskSpec;

    /// Builds the nested TaskSpec equivalent of a FlatRun's structure.
    fn nested_equivalent(run: &FlatRun, serial_levels: bool, parallel_groups: bool) -> TaskSpec {
        let stages: Vec<TaskSpec> = (0..run.stage_count())
            .map(|s| {
                let leaves: Vec<TaskSpec> = run
                    .stage(s)
                    .iter()
                    .map(|sub| TaskSpec::simple(sub.node, sub.ex, sub.pex))
                    .collect();
                if parallel_groups {
                    TaskSpec::parallel(leaves)
                } else {
                    leaves.into_iter().next().expect("bare stage has one leaf")
                }
            })
            .collect();
        if serial_levels {
            TaskSpec::serial(stages)
        } else {
            stages
                .into_iter()
                .next()
                .expect("parallel root is one stage")
        }
    }

    /// Drives a FlatRun and the equivalent TaskRun side by side with the
    /// same completion schedule and asserts bit-identical submissions.
    fn assert_matches_nested(
        run: &mut FlatRun,
        serial_levels: bool,
        parallel_groups: bool,
        strategy: &SdaStrategy,
        dt: f64,
    ) {
        let spec = nested_equivalent(run, serial_levels, parallel_groups);
        let mut nested =
            TaskRun::new(&spec, run.arrival(), run.global_deadline()).expect("valid spec");

        let mut now = run.arrival();
        let mut flat_subs = Vec::new();
        run.start(strategy, now, &mut flat_subs);
        let mut nested_subs = nested.start(strategy, now);
        let mut flat_finished = false;
        loop {
            assert_eq!(flat_subs.len(), nested_subs.len());
            for (f, n) in flat_subs.iter().zip(&nested_subs) {
                assert_eq!(f.node, n.node);
                assert_eq!(f.ex.to_bits(), n.ex.to_bits());
                assert_eq!(f.pex.to_bits(), n.pex.to_bits());
                assert_eq!(f.deadline.to_bits(), n.deadline.to_bits(), "deadline");
                assert_eq!(f.priority, n.priority);
            }
            if flat_subs.is_empty() {
                break;
            }
            // Complete the first pending submission in FIFO order.
            let (f, n) = (flat_subs.remove(0), nested_subs.remove(0));
            now += dt;
            let mut more = Vec::new();
            let finished = run.complete(f.subtask, strategy, now, &mut more);
            flat_finished |= finished;
            flat_subs.extend(more);
            match nested.complete(n.subtask, strategy, now) {
                Completion::Submitted(subs) => {
                    assert!(!finished || subs.is_empty());
                    nested_subs.extend(subs);
                }
                Completion::Finished => {
                    assert!(finished, "nested finished but flat did not");
                    assert!(flat_subs.is_empty());
                    break;
                }
            }
        }
        let (done, total) = nested.progress();
        assert_eq!(flat_finished, done == total);
    }

    fn serial_chain(pex: &[f64], deadline: f64) -> FlatRun {
        let mut run = FlatRun::new();
        run.reset();
        for (i, &p) in pex.iter().enumerate() {
            run.push_subtask(NodeId::new(i as u32), p, p);
            run.end_stage();
        }
        run.set_structure(true, false);
        run.set_timing(0.0, deadline);
        run
    }

    #[test]
    fn serial_chain_matches_task_run() {
        for strategy in [
            SdaStrategy::ud_ud(),
            SdaStrategy::eqf_ud(),
            SdaStrategy::eqf_div1(),
        ] {
            let mut run = serial_chain(&[2.0, 3.0, 5.0], 20.0);
            assert_matches_nested(&mut run, true, false, &strategy, 1.7);
        }
    }

    #[test]
    fn parallel_fan_matches_task_run() {
        for strategy in [SdaStrategy::ud_div1(), SdaStrategy::eqf_div1()] {
            let mut run = FlatRun::new();
            run.reset();
            for (i, ex) in [1.0, 2.0, 3.0].into_iter().enumerate() {
                run.push_subtask(NodeId::new(i as u32), ex, ex);
            }
            run.end_stage();
            run.set_structure(false, true);
            run.set_timing(10.0, 22.0);
            assert_matches_nested(&mut run, false, true, &strategy, 0.9);
        }
    }

    #[test]
    fn pipeline_of_fans_matches_task_run() {
        for strategy in [
            SdaStrategy::ud_ud(),
            SdaStrategy::ud_div1(),
            SdaStrategy::eqf_div1(),
        ] {
            let mut run = FlatRun::new();
            run.reset();
            let mut node = 0;
            for _stage in 0..3 {
                for ex in [0.5, 1.5] {
                    run.push_subtask(NodeId::new(node), ex, ex);
                    node += 1;
                }
                run.end_stage();
            }
            run.set_structure(true, true);
            run.set_timing(1.0, 25.0);
            assert_matches_nested(&mut run, true, true, &strategy, 0.6);
        }
    }

    #[test]
    fn measures_match_nested() {
        let mut run = FlatRun::new();
        run.reset();
        run.push_subtask(NodeId::new(0), 1.0, 1.0);
        run.push_subtask(NodeId::new(1), 2.5, 2.5);
        run.end_stage();
        run.push_subtask(NodeId::new(2), 0.5, 0.5);
        run.end_stage();
        run.set_structure(true, true);
        run.set_timing(0.0, 12.0);
        let spec = nested_equivalent(&run, true, true);
        assert_eq!(run.simple_count(), spec.simple_count());
        assert_eq!(run.total_ex().to_bits(), spec.total_ex().to_bits());
        assert_eq!(
            run.critical_path_ex().to_bits(),
            spec.critical_path_ex().to_bits()
        );
        assert_eq!(run.stage_count(), 2);
    }

    #[test]
    fn reset_recycles_without_state_leak() {
        let mut run = serial_chain(&[1.0, 1.0], 4.0);
        let strategy = SdaStrategy::eqf_ud();
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        run.reset();
        assert_eq!(run.simple_count(), 0);
        assert_eq!(run.stage_count(), 0);
        // Refill and run to completion: the recycled run behaves freshly.
        run.push_subtask(NodeId::new(0), 1.0, 1.0);
        run.end_stage();
        run.set_structure(true, false);
        run.set_timing(2.0, 5.0);
        subs.clear();
        run.start(&strategy, 2.0, &mut subs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].deadline, 5.0);
        let mut more = Vec::new();
        assert!(run.complete(subs[0].subtask, &strategy, 3.0, &mut more));
    }

    #[test]
    fn expected_comm_reserves_slack_per_stage() {
        // Two serial stages, pex 1 each, dl = 8, hop delay 0.5.
        // Remaining comm at stage 0: 0.5 in flight + 2·0.5 ahead = 1.5;
        // EQS slack = 8 − 0 − 2 − 1.5 = 4.5 → share 2.25;
        // dl(T1) = 0 + 0.5 + 1 + 2.25 = 3.75.
        let mut run = serial_chain(&[1.0, 1.0], 8.0);
        run.set_expected_comm(0.5);
        let strategy = SdaStrategy::new(
            crate::SerialStrategy::EqualSlack,
            crate::ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert!(
            (subs[0].deadline - 3.75).abs() < 1e-12,
            "{}",
            subs[0].deadline
        );
        // Stage 2 (last): comm in flight 0.5, after = result return 0.5;
        // at t = 2: slack = 8 − 2 − 1 − 1 = 4 → dl = 2 + 0.5 + 1 + 4 = 7.5.
        let mut more = Vec::new();
        let finished = run.complete(subs[0].subtask, &strategy, 2.0, &mut more);
        assert!(!finished);
        assert!(
            (more[0].deadline - 7.5).abs() < 1e-12,
            "{}",
            more[0].deadline
        );
    }

    #[test]
    fn slack_scale_tightens_stage_deadlines() {
        // Two serial stages, pex 1 each, dl = 8 → slack 6. At scale 0.5
        // EQS hands stage 1 a share of 0.5·(6/2) = 1.5: dl = 2.5.
        let mut run = serial_chain(&[1.0, 1.0], 8.0);
        run.set_slack_scale(0.5);
        assert_eq!(run.slack_scale(), 0.5);
        let strategy = SdaStrategy::new(
            crate::SerialStrategy::EqualSlack,
            crate::ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert!(
            (subs[0].deadline - 2.5).abs() < 1e-12,
            "{}",
            subs[0].deadline
        );
        // Re-stamping before the next activation takes effect there:
        // back at scale 1, the last stage gets the full remaining slack.
        run.set_slack_scale(1.0);
        let mut more = Vec::new();
        let finished = run.complete(subs[0].subtask, &strategy, 2.0, &mut more);
        assert!(!finished);
        assert!(
            (more[0].deadline - 8.0).abs() < 1e-12,
            "{}",
            more[0].deadline
        );
    }

    #[test]
    fn reset_restores_neutral_slack_scale() {
        let mut run = serial_chain(&[1.0], 2.0);
        run.set_slack_scale(0.25);
        run.reset();
        assert_eq!(run.slack_scale(), 1.0);
        assert_eq!(FlatRun::new().slack_scale(), 1.0);
    }

    #[test]
    fn reset_clears_expected_comm() {
        let mut run = serial_chain(&[1.0], 2.0);
        run.set_expected_comm(1.25);
        run.reset();
        assert_eq!(run.expected_hop_comm, 0.0);
    }

    #[test]
    fn reissue_recomputes_residual_window_at_now() {
        // Two serial stages, pex 1 each, dl = 8. EQS at t = 0 gives
        // stage 1 dl = 0 + 1 + 3 = 4. Losing it and reissuing at t = 3
        // re-divides the residual slack 8 − 3 − 2 = 3 → share 1.5:
        // dl = 3 + 1 + 1.5 = 5.5.
        let mut run = serial_chain(&[1.0, 1.0], 8.0);
        let strategy = SdaStrategy::new(
            crate::SerialStrategy::EqualSlack,
            crate::ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert!((subs[0].deadline - 4.0).abs() < 1e-12);
        let lost = subs[0].subtask;
        let mut again = Vec::new();
        run.reissue(lost, &strategy, 3.0, &mut again);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].subtask, lost);
        assert_eq!(again[0].node, subs[0].node);
        assert!(
            (again[0].deadline - 5.5).abs() < 1e-12,
            "{}",
            again[0].deadline
        );
        // Bookkeeping untouched: the reissued subtask still completes
        // normally and advances the run.
        let mut more = Vec::new();
        assert!(!run.complete(lost, &strategy, 4.0, &mut more));
        assert_eq!(more.len(), 1);
        assert!(run.complete(more[0].subtask, &strategy, 6.0, &mut more));
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn reissue_of_completed_subtask_panics() {
        let mut run = FlatRun::new();
        run.reset();
        run.push_subtask(NodeId::new(0), 1.0, 1.0);
        run.push_subtask(NodeId::new(1), 1.0, 1.0);
        run.end_stage();
        run.set_structure(false, true);
        run.set_timing(0.0, 4.0);
        let strategy = SdaStrategy::ud_ud();
        let mut out = Vec::new();
        run.start(&strategy, 0.0, &mut out);
        let mut more = Vec::new();
        run.complete(out[0].subtask, &strategy, 1.0, &mut more);
        run.reissue(out[0].subtask, &strategy, 2.0, &mut more);
    }

    #[test]
    #[should_panic(expected = "start called twice")]
    fn double_start_panics() {
        let mut run = serial_chain(&[1.0], 2.0);
        let mut out = Vec::new();
        run.start(&SdaStrategy::ud_ud(), 0.0, &mut out);
        run.start(&SdaStrategy::ud_ud(), 0.0, &mut out);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn double_complete_panics() {
        let mut run = FlatRun::new();
        run.reset();
        run.push_subtask(NodeId::new(0), 1.0, 1.0);
        run.push_subtask(NodeId::new(1), 1.0, 1.0);
        run.end_stage();
        run.set_structure(false, true);
        run.set_timing(0.0, 4.0);
        let strategy = SdaStrategy::ud_ud();
        let mut out = Vec::new();
        run.start(&strategy, 0.0, &mut out);
        let mut more = Vec::new();
        run.complete(out[0].subtask, &strategy, 1.0, &mut more);
        run.complete(out[0].subtask, &strategy, 2.0, &mut more);
    }

    #[test]
    #[should_panic(expected = "empty stage")]
    fn empty_stage_panics() {
        let mut run = FlatRun::new();
        run.reset();
        run.end_stage();
    }
}
