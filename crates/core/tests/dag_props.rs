//! The equivalence/property suite pinning [`DagRun`]'s critical-path
//! deadline decomposition.
//!
//! Two families of seeded, fully deterministic properties:
//!
//! 1. **Stage-structured equivalence** — a random stage-structured task
//!    round-tripped through a `DagRun` (consecutive layers fully
//!    connected) must produce *bit-identical* submissions and deadlines
//!    to the [`FlatRun`] hot path, for every strategy family
//!    {UD, ED, EQS, EQF, EQF-AS} × {UD, DIV-1, GF}, across serial,
//!    fan-out and top-level-parallel shapes, with and without expected
//!    communication and feedback slack scaling.
//! 2. **DAG invariants** — random layered DAGs (cross-layer edges
//!    included) driven deadline-faithfully satisfy: every node submitted
//!    exactly once, fan-in fires only after all predecessors completed,
//!    virtual deadlines are nondecreasing along every precedence edge
//!    (hence along every topological path), and no assigned deadline
//!    exceeds the global deadline.
//!
//!    The monotonicity clause holds for every strategy whose deadline is
//!    anchored at the submission time (UD, EQS, EQF, EQF-AS, DIV-x, GF):
//!    a successor is submitted when its last predecessor completes, so
//!    its deadline can only move forward. ED is the one exception — its
//!    deadline (`dl(T) − Σ remaining pex`) ignores the submission time,
//!    and in a DAG a wide early wave can carry a *later* ED deadline
//!    than a deeper wave whose critical tail is longer (in a serial
//!    chain the suffix sums shrink monotonically, so the paper's setting
//!    never exposes this). The test therefore asserts monotonicity for
//!    all non-ED strategies and only the global-deadline bound for ED.

use sda_core::{
    DagRun, FlatRun, NodeId, ParallelStrategy, SdaStrategy, SerialStrategy, Submission,
};
use sda_sim::rng::{cases, Case};

fn strategies() -> Vec<SdaStrategy> {
    let serials = [
        SerialStrategy::UltimateDeadline,
        SerialStrategy::EffectiveDeadline,
        SerialStrategy::EqualSlack,
        SerialStrategy::EqualFlexibility,
        SerialStrategy::EqualFlexibilityArtificial {
            artificial_stages: 2,
        },
    ];
    let parallels = [
        ParallelStrategy::UltimateDeadline,
        ParallelStrategy::Div { x: 1.0 },
        ParallelStrategy::GlobalsFirst,
    ];
    let mut out = Vec::new();
    for s in serials {
        for p in parallels {
            out.push(SdaStrategy::new(s, p));
        }
    }
    out
}

/// One random stage-structured task: per-stage member `(node, ex, pex)`.
struct StagedSpec {
    stages: Vec<Vec<(NodeId, f64, f64)>>,
    arrival: f64,
    deadline: f64,
    hop: f64,
    scale: f64,
}

impl StagedSpec {
    /// `widths`: candidates for each stage's member count.
    fn random(case: &mut Case, widths: &[usize], behind_schedule: bool) -> StagedSpec {
        let stage_count = case.int(1..6);
        let mut stages = Vec::new();
        let mut total_pex = 0.0;
        for _ in 0..stage_count {
            let width = widths[case.int(0..widths.len())];
            let members: Vec<(NodeId, f64, f64)> = (0..width)
                .map(|_| {
                    let node = NodeId::new(case.int(0..6) as u32);
                    let ex = case.f64(0.1..4.1);
                    // Imperfect predictions exercise the pex path.
                    let pex = ex * case.f64(0.6..1.4);
                    (node, ex, pex)
                })
                .collect();
            total_pex += members.iter().map(|&(_, _, pex)| pex).fold(0.0, f64::max);
            stages.push(members);
        }
        let arrival = case.f64(0.0..10.0);
        // Behind-schedule tasks exercise the negative-slack branches.
        let slack = if behind_schedule {
            -case.f64(0.0..2.0)
        } else {
            total_pex * case.f64(0.2..2.2)
        };
        StagedSpec {
            stages,
            arrival,
            deadline: arrival + total_pex + slack,
            hop: if case.bool() { case.f64(0.0..0.3) } else { 0.0 },
            scale: if case.bool() { case.f64(0.3..1.0) } else { 1.0 },
        }
    }

    fn fill_flat(&self, run: &mut FlatRun, serial_levels: bool, parallel_groups: bool) {
        run.reset();
        for stage in &self.stages {
            for &(node, ex, pex) in stage {
                run.push_subtask(node, ex, pex);
            }
            run.end_stage();
        }
        run.set_structure(serial_levels, parallel_groups);
        run.set_timing(self.arrival, self.deadline);
        run.set_expected_comm(self.hop);
        run.set_slack_scale(self.scale);
    }

    /// The DAG embedding: consecutive stages fully connected.
    fn fill_dag(&self, run: &mut DagRun) {
        run.reset();
        let mut prev: Vec<u32> = Vec::new();
        for stage in &self.stages {
            let ids: Vec<u32> = stage
                .iter()
                .map(|&(node, ex, pex)| run.push_node(node, ex, pex))
                .collect();
            for &from in &prev {
                for &to in &ids {
                    run.push_edge(from, to);
                }
            }
            prev = ids;
        }
        run.finalize();
        run.set_timing(self.arrival, self.deadline);
        run.set_expected_comm(self.hop);
        run.set_slack_scale(self.scale);
    }
}

fn assert_submissions_bit_equal(flat: &[Submission], dag: &[Submission], what: &str) {
    assert_eq!(flat.len(), dag.len(), "{what}: wave width diverged");
    for (f, d) in flat.iter().zip(dag) {
        assert_eq!(f.node, d.node, "{what}");
        assert_eq!(f.ex.to_bits(), d.ex.to_bits(), "{what}");
        assert_eq!(f.pex.to_bits(), d.pex.to_bits(), "{what}");
        assert_eq!(
            f.deadline.to_bits(),
            d.deadline.to_bits(),
            "{what}: deadline diverged ({} vs {})",
            f.deadline,
            d.deadline
        );
        assert_eq!(f.priority, d.priority, "{what}");
    }
}

/// Drives the flat and DAG runtimes in lock-step with the same FIFO
/// completion schedule and asserts bit-identical submissions throughout.
fn assert_flat_dag_equivalent(spec: &StagedSpec, strategy: &SdaStrategy, dt: f64, what: &str) {
    let serial_levels = spec.stages.len() > 1 || spec.stages[0].len() == 1;
    let parallel_groups = spec.stages.iter().any(|s| s.len() > 1);
    let mut flat = FlatRun::new();
    spec.fill_flat(&mut flat, serial_levels, parallel_groups);
    let mut dag = DagRun::new();
    spec.fill_dag(&mut dag);

    let mut now = spec.arrival;
    let mut flat_subs = Vec::new();
    let mut dag_subs = Vec::new();
    flat.start(strategy, now, &mut flat_subs);
    dag.start(strategy, now, &mut dag_subs);
    assert_submissions_bit_equal(&flat_subs, &dag_subs, what);
    let mut finished = false;
    loop {
        if flat_subs.is_empty() {
            break;
        }
        let (f, d) = (flat_subs.remove(0), dag_subs.remove(0));
        now += dt;
        let mut flat_more = Vec::new();
        let mut dag_more = Vec::new();
        let flat_done = flat.complete(f.subtask, strategy, now, &mut flat_more);
        let dag_done = dag.complete(d.subtask, strategy, now, &mut dag_more);
        assert_eq!(flat_done, dag_done, "{what}: completion status diverged");
        finished = flat_done;
        assert_submissions_bit_equal(&flat_more, &dag_more, what);
        flat_subs.extend(flat_more);
        dag_subs.extend(dag_more);
    }
    assert!(
        finished,
        "{what}: the last completion did not finish the task"
    );
    // The two runtimes accumulate the critical path in opposite
    // directions (FlatRun folds stage maxima forward, DagRun's
    // reverse-topological pass sums backward), so the totals agree as
    // reals but not necessarily bit for bit.
    let (a, b) = (flat.critical_path_ex(), dag.critical_path_ex());
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
        "{what}: critical-path ex diverged ({a} vs {b})"
    );
}

/// Runs `n` cases of the test `name` under every strategy, each
/// strategy on cases of its own.
fn per_strategy(name: &str, n: usize, mut body: impl FnMut(&mut Case, &SdaStrategy)) {
    for strategy in strategies() {
        cases(&format!("{name} under {strategy}"), n, |case| {
            body(case, &strategy)
        });
    }
}

#[test]
fn stage_structured_serial_chains_match_flat_run_bit_exactly() {
    per_strategy(
        "stage_structured_serial_chains_match_flat_run_bit_exactly",
        40,
        |case, strategy| {
            // About one case in five runs behind schedule.
            let behind = case.int(0..5) == 4;
            let spec = StagedSpec::random(case, &[1], behind);
            let dt = case.f64(0.1..1.6);
            assert_flat_dag_equivalent(&spec, strategy, dt, "serial");
        },
    );
}

#[test]
fn stage_structured_fan_outs_match_flat_run_bit_exactly() {
    per_strategy(
        "stage_structured_fan_outs_match_flat_run_bit_exactly",
        40,
        |case, strategy| {
            // Widths ≥ 2 so every stage is a genuine parallel group (a
            // width-1 stage inside a parallel-group pipeline would take
            // FlatRun's 1-branch PSP path, which DagRun deliberately
            // treats as a serial hand-off — see the DagRun docs).
            let behind = case.int(0..5) == 4;
            let spec = StagedSpec::random(case, &[2, 3, 4], behind);
            let dt = case.f64(0.1..1.6);
            assert_flat_dag_equivalent(&spec, strategy, dt, "fan-out");
        },
    );
}

#[test]
fn top_level_parallel_fans_match_flat_run_bit_exactly() {
    per_strategy(
        "top_level_parallel_fans_match_flat_run_bit_exactly",
        30,
        |case, strategy| {
            let mut spec = StagedSpec::random(case, &[2, 3, 4, 5], false);
            spec.stages.truncate(1);
            let dt = case.f64(0.1..1.6);
            // A single parallel stage: FlatRun with serial_levels = false
            // vs the DAG antichain convention.
            let mut flat = FlatRun::new();
            spec.fill_flat(&mut flat, false, true);
            let mut dag = DagRun::new();
            spec.fill_dag(&mut dag);
            let mut now = spec.arrival;
            let mut flat_subs = Vec::new();
            let mut dag_subs = Vec::new();
            flat.start(strategy, now, &mut flat_subs);
            dag.start(strategy, now, &mut dag_subs);
            let what = "parallel";
            assert_submissions_bit_equal(&flat_subs, &dag_subs, what);
            let mut finished = false;
            for (f, d) in flat_subs.iter().zip(&dag_subs) {
                now += dt;
                let mut sink = Vec::new();
                let a = flat.complete(f.subtask, strategy, now, &mut sink);
                let b = dag.complete(d.subtask, strategy, now, &mut sink);
                assert_eq!(a, b, "{what}");
                assert!(sink.is_empty(), "{what}");
                finished = a;
            }
            assert!(finished, "{what}");
        },
    );
}

/// A random layered DAG with guaranteed connectivity and optional
/// cross-layer edges, built directly on a [`DagRun`]. With `noisy_pex`
/// each prediction is off by up to ±40 %, so the longest-`ex` and the
/// maximal-`pex` paths can differ.
fn random_layered_dag(case: &mut Case, run: &mut DagRun, noisy_pex: bool) {
    run.reset();
    let depth = case.int(2..7);
    let mut layers: Vec<Vec<u32>> = Vec::new();
    for _ in 0..depth {
        let width = case.int(1..5);
        let ids: Vec<u32> = (0..width)
            .map(|_| {
                let ex = case.f64(0.1..2.1);
                let pex = if noisy_pex {
                    ex * case.f64(0.6..1.4)
                } else {
                    ex
                };
                run.push_node(NodeId::new(case.int(0..6) as u32), ex, pex)
            })
            .collect();
        layers.push(ids);
    }
    // Connectivity: every node has a predecessor in the previous layer,
    // every non-final node a successor in the next.
    for l in 1..depth {
        for &v in &layers[l] {
            let u = layers[l - 1][case.int(0..layers[l - 1].len())];
            run.push_edge(u, v);
        }
        for &u in &layers[l - 1] {
            let v = layers[l][case.int(0..layers[l].len())];
            run.push_edge(u, v);
        }
    }
    // Cross-layer (skip) edges.
    for i in 0..depth {
        for j in i + 2..depth {
            for &u in &layers[i] {
                for &v in &layers[j] {
                    if case.f64(0.0..1.0) < 0.15 {
                        run.push_edge(u, v);
                    }
                }
            }
        }
    }
    run.finalize();
    let (_, _, cp) = path_oracle(run);
    let arrival = case.f64(0.0..5.0);
    run.set_timing(arrival, arrival + cp * case.f64(1.5..2.5));
}

/// Each node's direct predecessors, rebuilt from the successor lists.
fn predecessor_lists(run: &DagRun) -> Vec<Vec<u32>> {
    let mut preds = vec![Vec::new(); run.simple_count()];
    for u in 0..run.simple_count() as u32 {
        for &v in run.successors(u) {
            preds[v as usize].push(u);
        }
    }
    preds
}

/// The longest node count and the largest `ex` and `pex` sums over every
/// source→sink path, by brute-force enumeration. Sums run sink-first,
/// the order in which `DagRun` accumulates its tails, so they compare
/// bit for bit.
fn path_oracle(run: &DagRun) -> (usize, f64, f64) {
    fn walk(run: &DagRun, path: &mut Vec<u32>, best: &mut (usize, f64, f64)) {
        let succ = run.successors(*path.last().expect("paths are non-empty"));
        if succ.is_empty() {
            let (mut ex, mut pex) = (0.0f64, 0.0f64);
            for &v in path.iter().rev() {
                let s = run.subtasks()[v as usize];
                ex += s.ex;
                pex += s.pex;
            }
            *best = (best.0.max(path.len()), best.1.max(ex), best.2.max(pex));
        }
        for &v in succ {
            path.push(v);
            walk(run, path, best);
            path.pop();
        }
    }
    let mut best = (0, 0.0, 0.0);
    for (source, preds) in predecessor_lists(run).iter().enumerate() {
        if preds.is_empty() {
            walk(run, &mut vec![source as u32], &mut best);
        }
    }
    best
}

#[test]
fn critical_paths_match_brute_force_path_enumeration() {
    let mut run = DagRun::new();
    cases(
        "critical_paths_match_brute_force_path_enumeration",
        400,
        |case| {
            let noisy_pex = case.bool();
            random_layered_dag(case, &mut run, noisy_pex);
            let (depth, ex, _) = path_oracle(&run);
            assert_eq!(run.depth(), depth);
            assert_eq!(
                run.critical_path_ex().to_bits(),
                ex.to_bits(),
                "critical-path ex {} vs {ex}",
                run.critical_path_ex()
            );
        },
    );
}

#[test]
fn random_dags_satisfy_lifecycle_and_deadline_invariants() {
    const EPS: f64 = 1e-9;
    let mut run = DagRun::new();
    per_strategy(
        "random_dags_satisfy_lifecycle_and_deadline_invariants",
        25,
        |case, strategy| {
            random_layered_dag(case, &mut run, false);
            let n = run.simple_count();
            let preds = predecessor_lists(&run);
            let what = "dag";

            let mut submitted_at = vec![None::<f64>; n];
            let mut deadline_of = vec![f64::NAN; n];
            let mut done = vec![false; n];
            let mut record = |subs: &[Submission], done: &[bool], what: &str| {
                for s in subs {
                    let i = s.subtask.index();
                    assert!(
                        submitted_at[i].is_none(),
                        "{what}: node {i} submitted twice"
                    );
                    submitted_at[i] = Some(s.deadline);
                    deadline_of[i] = s.deadline;
                    // Fan-in fires only after all predecessors completed.
                    for &p in &preds[i] {
                        assert!(
                            done[p as usize],
                            "{what}: node {i} submitted before predecessor {p}"
                        );
                    }
                }
            };

            let mut pending: Vec<Submission> = Vec::new();
            let mut wave = Vec::new();
            run.start(strategy, run.arrival(), &mut wave);
            record(&wave, &done, what);
            pending.append(&mut wave);
            let mut now = run.arrival();
            let mut finished = false;
            while let Some(pos) = pending
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.deadline.total_cmp(&b.deadline))
                .map(|(i, _)| i)
            {
                let sub = pending.remove(pos);
                // Deadline-faithful drive: each subtask completes exactly
                // at its assigned virtual deadline (never earlier than
                // the current clock).
                now = now.max(sub.deadline);
                finished = run.complete(sub.subtask, strategy, now, &mut wave);
                done[sub.subtask.index()] = true;
                record(&wave, &done, what);
                pending.append(&mut wave);
            }
            assert!(finished, "{what}: task not finished");

            // Every node submitted exactly once.
            assert!(
                submitted_at.iter().all(Option::is_some),
                "{what}: some node never submitted"
            );
            let global = run.global_deadline();
            for i in 0..n {
                // No assigned deadline past the end-to-end deadline.
                assert!(
                    deadline_of[i] <= global + EPS * global.abs().max(1.0),
                    "{what}: node {i} deadline {} exceeds global {global}",
                    deadline_of[i]
                );
                // Nondecreasing along every precedence edge (and hence
                // along every topological path) — see the module docs
                // for why ED is exempt.
                if strategy.serial != SerialStrategy::EffectiveDeadline {
                    for &s in run.successors(i as u32) {
                        assert!(
                            deadline_of[s as usize] >= deadline_of[i] - EPS,
                            "{what}: edge {i}→{s} decreasing deadlines ({} → {})",
                            deadline_of[i],
                            deadline_of[s as usize]
                        );
                    }
                }
            }
        },
    );
}
