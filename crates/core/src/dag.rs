//! Arena-friendly runtime for DAG-structured global tasks.
//!
//! The paper's global tasks are serial-parallel *trees*; real distributed
//! workloads are precedence **DAGs** — fork-join trees, diamonds, layered
//! pipelines with cross-stage edges. [`DagRun`] generalizes
//! [`FlatRun`](crate::FlatRun) to an arbitrary directed acyclic precedence
//! graph while keeping the same zero-alloc-after-warmup pooling
//! discipline: one flat node array in topological push order, CSR
//! successor lists, and one record per node holding its fan-in
//! countdown and static critical-path data.
//!
//! # The critical-path deadline rule
//!
//! Deadline decomposition works per **wave**: the set of nodes released
//! together by one completion (or by task start). A wave's window is
//! computed by the serial (SSP) strategy *as if the task were the serial
//! chain along the wave's remaining critical path* — the current entry is
//! the wave's critical node (the member maximizing `pex + remaining
//! critical-path pex`), and `pex_remaining_after` is the sequence of node
//! `pex` values along the maximal-`pex` path that follows it. Waves wider
//! than one node then divide the window among their members with the
//! parallel (PSP) strategy, exactly like a parallel stage.
//!
//! For a *stage-structured* DAG — consecutive layers fully connected,
//! i.e. the precedence closure of a [`FlatRun`] pipeline — every wave is
//! a stage, the critical node is the stage's `pex` maximum, and the
//! critical-path tail visits each later stage's maximum: the inputs fed
//! to the strategy are **bit-identical** to `FlatRun`'s, so UD, ED, EQS,
//! EQF, EQF-AS, DIV-x, GF and `ADAPT(…)` all produce bit-exact deadlines
//! (pinned by `tests/dag_props.rs`). Two boundary conventions make the
//! embedding exact:
//!
//! * a width-1 wave is a serial hand-off: the PSP rule is *not* applied
//!   (matching a bare `FlatRun` stage, not a 1-branch parallel group);
//! * a task that is a single antichain (no edges, more than one node) is
//!   the paper's flat parallel task: its window is the global deadline
//!   and the PSP rule reserves the result-return hop.
//!
//! The critical-path tails are static — successors never change — so
//! they are computed once per task at [`DagRun::finalize`], in one pass
//! over the nodes in reverse push order.

use crate::assign::{Submission, SubtaskRef};
use crate::ids::NodeId;
use crate::psp::PspInput;
use crate::spec::SimpleSpec;
use crate::ssp::SspInput;
use crate::strategy::DeadlineAssigner;

/// [`NodeRec::waiting`] of a node that has completed.
const DONE: u32 = u32::MAX;

/// The per-node state of a [`DagRun`], one record per subtask.
#[derive(Debug, Clone, Copy, Default)]
struct NodeRec {
    /// `succ[succ_lo..succ_hi]` are the node's successors. Until
    /// `finalize`, `succ_hi` counts the node's out-edges.
    succ_lo: u32,
    succ_hi: u32,
    /// The fan-in countdown: predecessors not yet completed (the node is
    /// released at 0), or [`DONE`] once the node itself has completed.
    waiting: u32,
    /// Nodes on the longest path from this one to a sink, itself
    /// included.
    levels: u32,
    /// `tails[tail_lo..tail_hi]` is the per-node `pex` sequence along
    /// the critical (maximal-`pex`) path after this node.
    tail_lo: u32,
    tail_hi: u32,
    /// `pex` of this node plus its critical-path tail.
    pex_through: f64,
    /// `ex` along the longest-`ex` path from this node to a sink.
    ex_through: f64,
}

/// Runtime state of one in-flight DAG-structured global task, stored
/// flat (CSR successor lists, one record per node) for recycling.
///
/// # Life cycle
///
/// 1. [`DagRun::reset`], then [`DagRun::push_node`] for every subtask and
///    [`DagRun::push_edge`] for every precedence edge, then
///    [`DagRun::finalize`] (builds the successor lists and computes the
///    critical-path tails) and [`DagRun::set_timing`]. Push order is the
///    topological order: an edge may only point from a node to one
///    pushed after it, which makes every run acyclic by construction;
/// 2. [`DagRun::start`] once at arrival — appends the source wave to the
///    output buffer;
/// 3. [`DagRun::complete`] per finished subtask — counts down successor
///    in-degrees, appends any newly released wave, returns `true` when
///    the whole task just finished.
///
/// Like [`FlatRun`](crate::FlatRun), a `DagRun` is designed to live in a
/// pool: `reset` clears the task without releasing capacity, so after
/// warm-up a recycled run performs **zero heap allocations** per task
/// lifecycle.
///
/// # Examples
///
/// A diamond `A → {B ∥ C} → D` under EQS:
///
/// ```
/// use sda_core::{DagRun, NodeId, SdaStrategy, SerialStrategy, ParallelStrategy};
///
/// let mut run = DagRun::new();
/// run.reset();
/// let a = run.push_node(NodeId::new(0), 1.0, 1.0);
/// let b = run.push_node(NodeId::new(1), 2.0, 2.0);
/// let c = run.push_node(NodeId::new(2), 1.0, 1.0);
/// let d = run.push_node(NodeId::new(3), 1.0, 1.0);
/// run.push_edge(a, b);
/// run.push_edge(a, c);
/// run.push_edge(b, d);
/// run.push_edge(c, d);
/// run.finalize();
/// run.set_timing(0.0, 8.0);
/// // Critical path A→B→D: ex 1 + 2 + 1 = 4.
/// assert_eq!(run.critical_path_ex(), 4.0);
/// assert_eq!(run.depth(), 3);
///
/// let strategy = SdaStrategy::new(
///     SerialStrategy::EqualSlack,
///     ParallelStrategy::UltimateDeadline,
/// );
/// let mut subs = Vec::new();
/// run.start(&strategy, 0.0, &mut subs);
/// // Source wave {A}: slack 8 − 4 = 4 over 3 critical-path levels →
/// // dl(A) = 0 + 1 + 4/3.
/// assert_eq!(subs.len(), 1);
/// assert!((subs[0].deadline - (1.0 + 4.0 / 3.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DagRun {
    /// All simple subtasks, in push order.
    nodes: Vec<SimpleSpec>,
    /// One record per subtask, in push order.
    recs: Vec<NodeRec>,
    /// Edges `(from, to)` as pushed; sorted into `succ` by `finalize`.
    edges: Vec<(u32, u32)>,
    /// Successor lists, grouped by source, stable in edge-push order.
    succ: Vec<u32>,
    /// Every node's critical-path tail, flattened (see
    /// [`NodeRec::tail_lo`]). Wave activation borrows a slice of it.
    tails: Vec<f64>,
    arrival: f64,
    deadline: f64,
    /// The whole task's critical-path `ex` and its depth, as computed by
    /// `finalize`.
    critical_ex: f64,
    depth: u32,
    completed: u32,
    started: bool,
    finalized: bool,
    /// Expected one-hop communication delay (see
    /// [`FlatRun::set_expected_comm`](crate::FlatRun::set_expected_comm)).
    expected_hop_comm: f64,
    /// Feedback-driven slack-share multiplier (see
    /// [`FlatRun::set_slack_scale`](crate::FlatRun::set_slack_scale)).
    slack_scale: f64,
}

impl Default for DagRun {
    /// An empty run — identical to a freshly [`reset`](DagRun::reset)
    /// one (in particular `slack_scale` starts at its neutral 1.0).
    fn default() -> DagRun {
        DagRun {
            nodes: Vec::new(),
            recs: Vec::new(),
            edges: Vec::new(),
            succ: Vec::new(),
            tails: Vec::new(),
            arrival: 0.0,
            deadline: 0.0,
            critical_ex: 0.0,
            depth: 0,
            completed: 0,
            started: false,
            finalized: false,
            expected_hop_comm: 0.0,
            slack_scale: 1.0,
        }
    }
}

impl DagRun {
    /// An empty run with no storage committed.
    pub fn new() -> DagRun {
        DagRun::default()
    }

    /// Clears the run for refilling, retaining all capacity — the pool
    /// recycling entry point.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.recs.clear();
        self.edges.clear();
        self.succ.clear();
        self.tails.clear();
        self.arrival = 0.0;
        self.deadline = 0.0;
        self.critical_ex = 0.0;
        self.depth = 0;
        self.completed = 0;
        self.started = false;
        self.finalized = false;
        self.expected_hop_comm = 0.0;
        self.slack_scale = 1.0;
    }

    /// Appends one subtask, returning its index for [`DagRun::push_edge`].
    pub fn push_node(&mut self, node: NodeId, ex: f64, pex: f64) -> u32 {
        debug_assert!(ex.is_finite() && ex >= 0.0, "invalid ex {ex}");
        debug_assert!(pex.is_finite() && pex >= 0.0, "invalid pex {pex}");
        assert!(!self.finalized, "DagRun::push_node after finalize");
        let idx = u32::try_from(self.nodes.len()).expect("more than u32::MAX subtasks in one task");
        self.nodes.push(SimpleSpec { node, ex, pex });
        self.recs.push(NodeRec::default());
        idx
    }

    /// Adds a precedence edge `from → to`; `to` may not start until
    /// `from` has completed. Both nodes must already be pushed, and
    /// `from` before `to`, so push order is a topological order and the
    /// graph cannot contain a cycle. Duplicate edges are tolerated (the
    /// fan-in countdown counts edges, and a completed predecessor
    /// releases all of its parallel edges at once).
    ///
    /// # Panics
    ///
    /// Panics after [`DagRun::finalize`], on an endpoint out of range, a
    /// self-loop, or a backward edge (`to` pushed before `from`, which
    /// could close a cycle).
    pub fn push_edge(&mut self, from: u32, to: u32) {
        assert!(!self.finalized, "DagRun::push_edge after finalize");
        let n = self.nodes.len();
        assert!(
            (from as usize) < n && (to as usize) < n,
            "edge {from}→{to} references a node out of range (n = {n})"
        );
        assert_ne!(from, to, "self-loop on node {from}");
        assert!(
            from < to,
            "edge {from}→{to} points backward in push order, which could close a cycle"
        );
        // Keeps every in-degree below the `DONE` sentinel.
        assert!(
            self.edges.len() < (u32::MAX - 1) as usize,
            "more than u32::MAX − 1 edges in one task"
        );
        self.edges.push((from, to));
        self.recs[from as usize].succ_hi += 1;
        self.recs[to as usize].waiting += 1;
    }

    /// Compiles the staged structure: sorts the edges into successor
    /// lists (a stable counting sort by source, so each list keeps push
    /// order), then computes every node's critical-path tail, longest
    /// `ex` path and level count in one pass over the nodes in reverse
    /// push order — every edge points forward, so each node's
    /// successors are resolved before it.
    ///
    /// # Panics
    ///
    /// Panics on an empty node set or when called twice.
    pub fn finalize(&mut self) {
        assert!(!self.finalized, "DagRun::finalize called twice");
        assert!(!self.nodes.is_empty(), "DagRun::finalize on an empty task");

        let mut end = 0;
        for r in &mut self.recs {
            r.succ_lo = end;
            end += r.succ_hi;
            r.succ_hi = r.succ_lo;
        }
        self.succ.clear();
        self.succ.resize(self.edges.len(), 0);
        for &(from, to) in &self.edges {
            let r = &mut self.recs[from as usize];
            self.succ[r.succ_hi as usize] = to;
            r.succ_hi += 1;
        }

        self.tails.clear();
        for u in (0..self.nodes.len()).rev() {
            // The successor maximizing `pex + tail` (first of equals
            // wins, so the choice is deterministic) continues the
            // critical path.
            let mut best = None;
            let mut best_pex = f64::NEG_INFINITY;
            let mut ex_after = 0.0f64;
            let mut levels_after = 0;
            let NodeRec {
                succ_lo, succ_hi, ..
            } = self.recs[u];
            for &s in &self.succ[succ_lo as usize..succ_hi as usize] {
                let r = &self.recs[s as usize];
                if best.is_none() || r.pex_through > best_pex {
                    best = Some(s as usize);
                    best_pex = r.pex_through;
                }
                ex_after = ex_after.max(r.ex_through);
                levels_after = levels_after.max(r.levels);
            }
            let tail_lo = self.tails.len() as u32;
            let mut pex_after = 0.0;
            if let Some(best) = best {
                let next = self.recs[best];
                self.tails.push(self.nodes[best].pex);
                self.tails
                    .extend_from_within(next.tail_lo as usize..next.tail_hi as usize);
                pex_after = best_pex;
            }
            let spec = self.nodes[u];
            let r = &mut self.recs[u];
            r.tail_lo = tail_lo;
            r.tail_hi = u32::try_from(self.tails.len()).expect("critical-path tails overflow u32");
            r.pex_through = spec.pex + pex_after;
            r.ex_through = spec.ex + ex_after;
            r.levels = 1 + levels_after;
            self.critical_ex = self.critical_ex.max(r.ex_through);
            self.depth = self.depth.max(r.levels);
        }
        self.finalized = true;
    }

    /// Sets arrival time and end-to-end deadline.
    pub fn set_timing(&mut self, arrival: f64, deadline: f64) {
        self.arrival = arrival;
        self.deadline = deadline;
    }

    /// Declares the expected one-hop communication delay; deadline
    /// decomposition reserves slack for the remaining critical-path
    /// hand-offs plus the result return, exactly like
    /// [`FlatRun::set_expected_comm`](crate::FlatRun::set_expected_comm).
    /// Reset (and default) is `0.0`.
    pub fn set_expected_comm(&mut self, per_hop: f64) {
        debug_assert!(
            per_hop.is_finite() && per_hop >= 0.0,
            "invalid expected hop delay {per_hop}"
        );
        self.expected_hop_comm = per_hop;
    }

    /// Declares the feedback-driven slack-share multiplier in force for
    /// the *next* wave activation (see
    /// [`FlatRun::set_slack_scale`](crate::FlatRun::set_slack_scale)).
    /// The default — and the value after [`DagRun::reset`] — is `1.0`.
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
        self.nodes.len()
    }

    /// Number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All subtasks, in insertion order.
    pub fn subtasks(&self) -> &[SimpleSpec] {
        &self.nodes
    }

    /// The direct successors of node `i`, in edge-push order (requires
    /// [`DagRun::finalize`]).
    pub fn successors(&self, i: u32) -> &[u32] {
        debug_assert!(self.finalized, "successors before finalize");
        let r = &self.recs[i as usize];
        &self.succ[r.succ_lo as usize..r.succ_hi as usize]
    }

    /// The structural depth: the number of nodes on the longest
    /// precedence path (1 for a single antichain). Requires
    /// [`DagRun::finalize`].
    pub fn depth(&self) -> usize {
        debug_assert!(self.finalized, "depth before finalize");
        self.depth as usize
    }

    /// Real execution time along the critical (longest-`ex`) path.
    /// Requires [`DagRun::finalize`].
    pub fn critical_path_ex(&self) -> f64 {
        debug_assert!(self.finalized, "critical_path_ex before finalize");
        self.critical_ex
    }

    /// Activates the task at `now`, appending the source wave (every
    /// node with no predecessors) to `out` (which is *not* cleared
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if called twice or before [`DagRun::finalize`].
    pub fn start<A: DeadlineAssigner + ?Sized>(
        &mut self,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        assert!(self.finalized, "DagRun::start before finalize");
        assert!(!self.started, "DagRun::start called twice");
        self.started = true;
        let first = out.len();
        for (i, r) in self.recs.iter().enumerate() {
            if r.waiting == 0 {
                out.push(self.release(i, strategy));
            }
        }
        debug_assert!(out.len() > first, "acyclic graph has a source");
        self.assign_wave(strategy, now, &mut out[first..]);
    }

    /// Reports that `subtask` finished at `now`: counts down successor
    /// in-degrees and appends the released wave (if any) to `out`.
    /// Returns `true` when the whole task just finished.
    ///
    /// # Panics
    ///
    /// Panics if the run never started, on double completion, or for a
    /// subtask that was never released.
    pub fn complete<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) -> bool {
        assert!(self.started, "DagRun::complete before start");
        let idx = subtask.0;
        assert!(
            idx < self.nodes.len() && self.recs[idx].waiting == 0,
            "completion for a subtask that is not active: {subtask:?}"
        );
        let r = &mut self.recs[idx];
        r.waiting = DONE;
        let (lo, hi) = (r.succ_lo as usize, r.succ_hi as usize);
        self.completed += 1;
        let first = out.len();
        for k in lo..hi {
            let s = self.succ[k] as usize;
            self.recs[s].waiting -= 1;
            if self.recs[s].waiting == 0 {
                out.push(self.release(s, strategy));
            }
        }
        if self.completed as usize == self.nodes.len() {
            debug_assert_eq!(out.len(), first);
            return true;
        }
        if out.len() > first {
            self.assign_wave(strategy, now, &mut out[first..]);
        }
        false
    }

    /// Re-issues a *lost* released-but-uncompleted subtask at `now`,
    /// appending exactly one replacement submission to `out`.
    ///
    /// The replacement deadline re-decomposes the **residual** budget
    /// with the SSP rule over the lost node's own remaining critical-path
    /// tail (the node is now the straggler gating everything behind it,
    /// so *its* tail — not the original wave-critical member's — is the
    /// path view that matters), evaluated at the advanced clock. The
    /// straggler keeps the whole window: its wave siblings already carry
    /// their original deadlines (or are done). A task that is a single
    /// antichain keeps the flat-parallel convention: the window is the
    /// global deadline.
    ///
    /// Completion bookkeeping is untouched — the subtask stays
    /// outstanding until [`DagRun::complete`] is finally called for it.
    ///
    /// # Panics
    ///
    /// Panics if the run never started, or if `subtask` is not a
    /// released, uncompleted node.
    pub fn reissue<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        assert!(self.started, "DagRun::reissue before start");
        let idx = subtask.0;
        assert!(
            idx < self.nodes.len() && self.recs[idx].waiting == 0,
            "reissue for a subtask that is not active: {subtask:?}"
        );
        let root_parallel = self.edges.is_empty() && self.nodes.len() > 1;
        let mut sub = self.release(idx, strategy);
        sub.deadline = if root_parallel {
            self.deadline
        } else {
            self.serial_window(idx, now, strategy)
        };
        out.push(sub);
    }

    /// The submission of node `i`, its deadline still unassigned.
    fn release<A: DeadlineAssigner + ?Sized>(&self, i: usize, strategy: &A) -> Submission {
        let s = self.nodes[i];
        Submission {
            subtask: SubtaskRef(i),
            node: s.node,
            ex: s.ex,
            pex: s.pex,
            deadline: f64::NAN,
            priority: strategy.priority_class(),
        }
    }

    /// The SSP window of node `i` at `now`, taking the critical path
    /// after `i` as the rest of a serial chain.
    fn serial_window<A: DeadlineAssigner + ?Sized>(&self, i: usize, now: f64, strategy: &A) -> f64 {
        let hop = self.expected_hop_comm;
        let r = &self.recs[i];
        let tail = &self.tails[r.tail_lo as usize..r.tail_hi as usize];
        strategy.serial_deadline(&SspInput {
            submit_time: now,
            global_deadline: self.deadline,
            pex_current: self.nodes[i].pex,
            pex_remaining_after: tail,
            // One hop is in flight to this node; after it completes
            // there are `tail` hand-offs along the critical path plus
            // the result return still to pay.
            comm_current: hop,
            comm_after: hop * (tail.len() + 1) as f64,
            slack_scale: self.slack_scale,
        })
    }

    /// Assigns the deadlines of a just-released wave at `now`: the wave
    /// window comes from the SSP rule over the wave's remaining critical
    /// path, divided with the PSP rule when the wave is wider than one
    /// node.
    fn assign_wave<A: DeadlineAssigner + ?Sized>(
        &self,
        strategy: &A,
        now: f64,
        wave: &mut [Submission],
    ) {
        let width = wave.len();
        let hop = self.expected_hop_comm;
        // A task that is one big antichain is the paper's flat parallel
        // task: serial levels do not apply, and the result return is the
        // only hand-off left after the fan-out.
        let root_parallel = self.edges.is_empty() && width > 1;
        let window = if root_parallel {
            self.deadline
        } else {
            // The wave's critical member: maximal pex + remaining
            // critical-path pex (first of equals wins).
            let mut critical = wave[0].subtask.0;
            for sub in &wave[1..] {
                let i = sub.subtask.0;
                if self.recs[i].pex_through > self.recs[critical].pex_through {
                    critical = i;
                }
            }
            self.serial_window(critical, now, strategy)
        };
        let branch_dl = if width > 1 {
            strategy.parallel_deadline(&PspInput {
                arrival_time: now,
                global_deadline: window,
                branch_count: width,
                comm_current: hop,
                // Inside a deeper DAG the window already reserves
                // downstream transit; a pure antichain task still owes
                // its result return.
                comm_after: if root_parallel { hop } else { 0.0 },
                slack_scale: self.slack_scale,
            })
        } else {
            window
        };
        for sub in wave {
            sub.deadline = branch_dl;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::SdaStrategy;
    use crate::psp::ParallelStrategy;
    use crate::ssp::SerialStrategy;

    const EPS: f64 = 1e-12;

    fn chain(pex: &[f64], deadline: f64) -> DagRun {
        let mut run = DagRun::new();
        run.reset();
        let mut prev = None;
        for (i, &p) in pex.iter().enumerate() {
            let id = run.push_node(NodeId::new(i as u32), p, p);
            if let Some(prev) = prev {
                run.push_edge(prev, id);
            }
            prev = Some(id);
        }
        run.finalize();
        run.set_timing(0.0, deadline);
        run
    }

    fn drive_all(run: &mut DagRun, strategy: &SdaStrategy, mut now: f64, dt: f64) -> Vec<f64> {
        let mut subs = Vec::new();
        run.start(strategy, now, &mut subs);
        let mut deadlines = Vec::new();
        let mut finished = false;
        while let Some(sub) = subs.first().copied() {
            subs.remove(0);
            deadlines.push(sub.deadline);
            now += dt;
            finished = run.complete(sub.subtask, strategy, now, &mut subs);
        }
        assert!(finished);
        deadlines
    }

    #[test]
    fn serial_chain_matches_paper_formulas() {
        // pex [2, 3, 5], dl 20 → slack 10; EQF stage 1: 0 + 2 + 10·0.2.
        let mut run = chain(&[2.0, 3.0, 5.0], 20.0);
        assert_eq!(run.critical_path_ex(), 10.0);
        assert_eq!(run.depth(), 3);
        let mut subs = Vec::new();
        run.start(&SdaStrategy::eqf_ud(), 0.0, &mut subs);
        assert_eq!(subs.len(), 1);
        assert!((subs[0].deadline - 4.0).abs() < EPS, "{}", subs[0].deadline);
    }

    #[test]
    fn diamond_fan_in_waits_for_both_branches() {
        let mut run = DagRun::new();
        run.reset();
        let a = run.push_node(NodeId::new(0), 1.0, 1.0);
        let b = run.push_node(NodeId::new(1), 2.0, 2.0);
        let c = run.push_node(NodeId::new(2), 1.0, 1.0);
        let d = run.push_node(NodeId::new(3), 1.0, 1.0);
        run.push_edge(a, b);
        run.push_edge(a, c);
        run.push_edge(b, d);
        run.push_edge(c, d);
        run.finalize();
        run.set_timing(0.0, 10.0);
        assert_eq!(run.depth(), 3);
        assert_eq!(run.edge_count(), 4);
        assert_eq!(run.successors(a), &[b, c]);

        let strategy = SdaStrategy::eqf_div1();
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert_eq!(subs.len(), 1, "only the source is ready");
        let mut wave = Vec::new();
        assert!(!run.complete(subs[0].subtask, &strategy, 1.0, &mut wave));
        assert_eq!(wave.len(), 2, "fork releases both branches");
        // Finish B; D must stay blocked on C.
        let mut next = Vec::new();
        assert!(!run.complete(wave[0].subtask, &strategy, 2.0, &mut next));
        assert!(next.is_empty(), "fan-in fired before all predecessors");
        assert!(!run.complete(wave[1].subtask, &strategy, 3.0, &mut next));
        assert_eq!(next.len(), 1, "last branch releases the join");
        assert!(run.complete(next[0].subtask, &strategy, 4.0, &mut next));
    }

    #[test]
    fn antichain_task_is_a_flat_parallel_fan() {
        // Three nodes, no edges: the window is the global deadline and
        // DIV-1 divides it — dl = 2 + (14 − 2)/3 = 6.
        let mut run = DagRun::new();
        run.reset();
        for i in 0..3 {
            run.push_node(NodeId::new(i), 1.0, 1.0);
        }
        run.finalize();
        run.set_timing(2.0, 14.0);
        assert_eq!(run.depth(), 1);
        let mut subs = Vec::new();
        run.start(&SdaStrategy::ud_div1(), 2.0, &mut subs);
        assert_eq!(subs.len(), 3);
        for s in &subs {
            assert!((s.deadline - 6.0).abs() < EPS, "{}", s.deadline);
        }
    }

    #[test]
    fn cross_layer_edge_extends_the_critical_path_view() {
        // A → B → D plus a long edge A → D: the chain A,B,D is critical.
        let mut run = DagRun::new();
        run.reset();
        let a = run.push_node(NodeId::new(0), 1.0, 1.0);
        let b = run.push_node(NodeId::new(1), 3.0, 3.0);
        let d = run.push_node(NodeId::new(2), 1.0, 1.0);
        run.push_edge(a, b);
        run.push_edge(a, d);
        run.push_edge(b, d);
        run.finalize();
        run.set_timing(0.0, 10.0);
        assert_eq!(run.depth(), 3);
        // EQS at the source: slack = 10 − 5 = 5 over 3 levels.
        let strategy = SdaStrategy::new(
            SerialStrategy::EqualSlack,
            ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert!((subs[0].deadline - (1.0 + 5.0 / 3.0)).abs() < EPS);
    }

    #[test]
    fn expected_comm_reserves_slack_per_wave() {
        // Two-node chain, pex 1 each, dl 8, hop 0.5 — must match the
        // FlatRun doc example bit for bit (dl(T1) = 3.75).
        let mut run = chain(&[1.0, 1.0], 8.0);
        run.set_expected_comm(0.5);
        let strategy = SdaStrategy::new(
            SerialStrategy::EqualSlack,
            ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert!(
            (subs[0].deadline - 3.75).abs() < EPS,
            "{}",
            subs[0].deadline
        );
        let mut more = Vec::new();
        assert!(!run.complete(subs[0].subtask, &strategy, 2.0, &mut more));
        assert!((more[0].deadline - 7.5).abs() < EPS, "{}", more[0].deadline);
    }

    #[test]
    fn slack_scale_tightens_wave_deadlines() {
        let mut run = chain(&[1.0, 1.0], 8.0);
        run.set_slack_scale(0.5);
        assert_eq!(run.slack_scale(), 0.5);
        let strategy = SdaStrategy::new(
            SerialStrategy::EqualSlack,
            ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert!((subs[0].deadline - 2.5).abs() < EPS, "{}", subs[0].deadline);
    }

    #[test]
    fn reset_recycles_without_state_leak() {
        let mut run = chain(&[1.0, 1.0], 4.0);
        let strategy = SdaStrategy::eqf_ud();
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        run.reset();
        assert_eq!(run.simple_count(), 0);
        assert_eq!(run.edge_count(), 0);
        assert!(!run.started);
        assert_eq!(run.slack_scale(), 1.0);
        assert_eq!(run.expected_hop_comm, 0.0);
        // Refill and run to completion: the recycled run behaves freshly.
        run.push_node(NodeId::new(0), 1.0, 1.0);
        run.finalize();
        run.set_timing(2.0, 5.0);
        subs.clear();
        run.start(&strategy, 2.0, &mut subs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].deadline, 5.0);
        let mut more = Vec::new();
        assert!(run.complete(subs[0].subtask, &strategy, 3.0, &mut more));
    }

    #[test]
    fn duplicate_edges_release_once() {
        let mut run = DagRun::new();
        run.reset();
        let a = run.push_node(NodeId::new(0), 1.0, 1.0);
        let b = run.push_node(NodeId::new(1), 1.0, 1.0);
        run.push_edge(a, b);
        run.push_edge(a, b);
        run.finalize();
        run.set_timing(0.0, 6.0);
        let strategy = SdaStrategy::ud_ud();
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        assert_eq!(subs.len(), 1);
        let mut more = Vec::new();
        assert!(!run.complete(subs[0].subtask, &strategy, 1.0, &mut more));
        assert_eq!(more.len(), 1, "B released exactly once");
        assert!(run.complete(more[0].subtask, &strategy, 2.0, &mut more));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_is_rejected() {
        let mut run = DagRun::new();
        run.reset();
        let a = run.push_node(NodeId::new(0), 1.0, 1.0);
        let b = run.push_node(NodeId::new(1), 1.0, 1.0);
        run.push_edge(a, b);
        run.push_edge(b, a);
        run.finalize();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_endpoint_is_rejected() {
        let mut run = DagRun::new();
        run.reset();
        run.push_node(NodeId::new(0), 1.0, 1.0);
        run.push_edge(0, 7);
        run.finalize();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_is_rejected() {
        let mut run = DagRun::new();
        run.reset();
        run.push_node(NodeId::new(0), 1.0, 1.0);
        run.push_edge(0, 0);
        run.finalize();
    }

    #[test]
    #[should_panic(expected = "start called twice")]
    fn double_start_panics() {
        let mut run = chain(&[1.0], 2.0);
        let mut out = Vec::new();
        run.start(&SdaStrategy::ud_ud(), 0.0, &mut out);
        run.start(&SdaStrategy::ud_ud(), 0.0, &mut out);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn double_complete_panics() {
        let mut run = DagRun::new();
        run.reset();
        run.push_node(NodeId::new(0), 1.0, 1.0);
        run.push_node(NodeId::new(1), 1.0, 1.0);
        run.finalize();
        run.set_timing(0.0, 4.0);
        let strategy = SdaStrategy::ud_ud();
        let mut out = Vec::new();
        run.start(&strategy, 0.0, &mut out);
        let mut more = Vec::new();
        run.complete(out[0].subtask, &strategy, 1.0, &mut more);
        run.complete(out[0].subtask, &strategy, 2.0, &mut more);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn completing_a_blocked_node_panics() {
        let mut run = chain(&[1.0, 1.0], 4.0);
        let strategy = SdaStrategy::ud_ud();
        let mut out = Vec::new();
        run.start(&strategy, 0.0, &mut out);
        // Node 1 is still blocked on node 0.
        run.complete(SubtaskRef(1), &strategy, 1.0, &mut out);
    }

    #[test]
    #[should_panic(expected = "before finalize")]
    fn start_before_finalize_panics() {
        let mut run = DagRun::new();
        run.reset();
        run.push_node(NodeId::new(0), 1.0, 1.0);
        let mut out = Vec::new();
        run.start(&SdaStrategy::ud_ud(), 0.0, &mut out);
    }

    #[test]
    fn reissue_uses_the_lost_nodes_own_tail() {
        // Diamond A → {B, C} → D, pex: A 1, B 2, C 1, D 1, dl 10.
        // After A completes at t = 1 the wave {B, C} opens. Losing C and
        // reissuing at t = 4: C's own tail is [1.0] (just D), so EQS sees
        // slack 10 − 4 − (1 + 1) = 4 over 2 levels → dl = 4 + 1 + 2 = 7.
        let mut run = DagRun::new();
        run.reset();
        let a = run.push_node(NodeId::new(0), 1.0, 1.0);
        let b = run.push_node(NodeId::new(1), 2.0, 2.0);
        let c = run.push_node(NodeId::new(2), 1.0, 1.0);
        let d = run.push_node(NodeId::new(3), 1.0, 1.0);
        run.push_edge(a, b);
        run.push_edge(a, c);
        run.push_edge(b, d);
        run.push_edge(c, d);
        run.finalize();
        run.set_timing(0.0, 10.0);
        let strategy = SdaStrategy::new(
            SerialStrategy::EqualSlack,
            ParallelStrategy::UltimateDeadline,
        );
        let mut subs = Vec::new();
        run.start(&strategy, 0.0, &mut subs);
        let mut wave = Vec::new();
        assert!(!run.complete(subs[0].subtask, &strategy, 1.0, &mut wave));
        assert_eq!(wave.len(), 2);
        let lost = wave
            .iter()
            .find(|s| s.subtask == SubtaskRef(c as usize))
            .expect("C is in the wave");
        let mut again = Vec::new();
        run.reissue(lost.subtask, &strategy, 4.0, &mut again);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].subtask, lost.subtask);
        assert!(
            (again[0].deadline - 7.0).abs() < EPS,
            "{}",
            again[0].deadline
        );
        // Bookkeeping untouched: the run still completes normally.
        let mut next = Vec::new();
        assert!(!run.complete(wave[0].subtask, &strategy, 5.0, &mut next));
        assert!(!run.complete(again[0].subtask, &strategy, 6.0, &mut next));
        assert_eq!(next.len(), 1);
        assert!(run.complete(next[0].subtask, &strategy, 7.0, &mut next));
    }

    #[test]
    fn reissue_on_an_antichain_keeps_the_global_window() {
        let mut run = DagRun::new();
        run.reset();
        for i in 0..3 {
            run.push_node(NodeId::new(i), 1.0, 1.0);
        }
        run.finalize();
        run.set_timing(2.0, 14.0);
        let mut subs = Vec::new();
        run.start(&SdaStrategy::ud_div1(), 2.0, &mut subs);
        let mut again = Vec::new();
        run.reissue(subs[1].subtask, &SdaStrategy::ud_div1(), 6.0, &mut again);
        assert_eq!(again.len(), 1);
        assert!((again[0].deadline - 14.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn reissue_of_a_blocked_node_panics() {
        let mut run = chain(&[1.0, 1.0], 4.0);
        let strategy = SdaStrategy::ud_ud();
        let mut out = Vec::new();
        run.start(&strategy, 0.0, &mut out);
        run.reissue(SubtaskRef(1), &strategy, 1.0, &mut out);
    }

    #[test]
    fn ud_assigns_global_deadline_everywhere() {
        let mut run = chain(&[1.0, 2.0, 1.0], 9.0);
        let deadlines = drive_all(&mut run, &SdaStrategy::ud_ud(), 0.0, 0.5);
        assert_eq!(deadlines, vec![9.0, 9.0, 9.0]);
    }
}
