//! Micro-loops: ns/op of each layer's public hot-path functions, with
//! `black_box`ed inputs at steady slab sizes.
//!
//! Every loop returns the number of operations it actually performed
//! (counted inside the loop: successful pops, completed subtasks, ...),
//! and the harness divides by that count. Loops whose operation cannot
//! run alone (a `DagRun` must be rebuilt before it can be finalized
//! again) have a `base` loop doing the same iterations without the
//! operation; their cost is the difference of the two.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sda_core::{
    DagRun, DeadlineAssigner, FlatRun, NodeId, ParallelStrategy, PspInput, SdaStrategy,
    SerialStrategy, SspInput, Submission, TaskId,
};
use sda_sched::{Job, Policy, ReadyQueue};
use sda_sim::dist::Exponential;
use sda_sim::mailbox::Mailbox;
use sda_sim::pq::MinHeap;
use sda_sim::rng::RngFactory;
use sda_sim::{EventQueue, SimTime};
use sda_system::{Event, Metrics, SystemConfig};
use sda_workload::TaskFactory;

use crate::stats::Summary;
use crate::workloads::Workload;

/// A loop body: runs `iters` iterations, returns operations performed.
pub type Body = Box<dyn FnMut(u64) -> u64>;

/// One micro-loop.
pub struct Micro {
    /// Metric name (ns per operation).
    pub name: &'static str,
    /// The measured loop.
    pub run: Body,
    /// The same iterations minus the measured operation, if the
    /// operation cannot run alone.
    pub base: Option<Body>,
    /// Operations `iters` iterations must perform.
    pub expected_ops: Box<dyn Fn(u64) -> u64>,
}

/// Steady-state sizes the loops run at, taken from the workload's
/// traced run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Future-event-list length.
    pub fel: usize,
    /// Ready-queue length.
    pub ready_queue: usize,
}

/// Task templates per structural micro-loop.
const TEMPLATES: usize = 64;
/// Items per mailbox push/drain round.
const MAILBOX_BATCH: u64 = 64;

/// A tiny deterministic generator for loop inputs (xorshift64*).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn per_iter(ops: u64) -> Box<dyn Fn(u64) -> u64> {
    Box::new(move |iters| iters * ops)
}

/// Ops performed by `iters` iterations cycling over `per_template`.
fn cycling(per_template: Vec<u64>) -> Box<dyn Fn(u64) -> u64> {
    Box::new(move |iters| {
        let n = per_template.len() as u64;
        let full: u64 = per_template.iter().sum::<u64>() * (iters / n);
        full + per_template[..(iters % n) as usize].iter().sum::<u64>()
    })
}

/// Every micro-loop, sized for `sizes`, with inputs drawn from `seed`.
pub fn all(sizes: Sizes, seed: u64) -> Vec<Micro> {
    let mut v = vec![
        pq_push_pop(sizes.fel, seed),
        event_queue_schedule_pop(sizes.fel, seed),
        event_queue_schedule_cancel(sizes.fel, seed),
        exponential_sample(seed),
        mailbox_push_drain(),
        ready_queue_push_pop(sizes.ready_queue, seed),
        ready_queue_preempt_requeue(sizes.ready_queue, seed),
    ];
    let serial = [
        ("core.assign.serial.ud_ns", SerialStrategy::UltimateDeadline),
        (
            "core.assign.serial.ed_ns",
            SerialStrategy::EffectiveDeadline,
        ),
        ("core.assign.serial.eqs_ns", SerialStrategy::EqualSlack),
        (
            "core.assign.serial.eqf_ns",
            SerialStrategy::EqualFlexibility,
        ),
        (
            "core.assign.serial.eqf_as_ns",
            SerialStrategy::EqualFlexibilityArtificial {
                artificial_stages: 2,
            },
        ),
    ];
    for (name, s) in serial {
        v.push(assign_serial(
            name,
            SdaStrategy::new(s, ParallelStrategy::Div { x: 1.0 }),
        ));
    }
    let parallel = [
        (
            "core.assign.parallel.ud_ns",
            ParallelStrategy::UltimateDeadline,
        ),
        (
            "core.assign.parallel.div_x_ns",
            ParallelStrategy::Div { x: 1.0 },
        ),
        ("core.assign.parallel.gf_ns", ParallelStrategy::GlobalsFirst),
    ];
    for (name, p) in parallel {
        v.push(assign_parallel(
            name,
            SdaStrategy::new(SerialStrategy::EqualFlexibility, p),
        ));
    }
    v.push(flat_lifecycle(seed));
    v.extend(dag_loops(seed));
    v.push(make_global_flat(seed));
    v.push(make_global_dag(seed));
    v.push(make_local(seed));
    v.push(metrics_record(seed));
    v
}

fn pq_push_pop(size: usize, seed: u64) -> Micro {
    let mut mix = Mix(seed | 1);
    let mut heap: MinHeap<u32> = MinHeap::new();
    for i in 0..size {
        heap.push(u128::from(mix.next() >> 24), i as u32);
    }
    Micro {
        name: "sim.pq.push_pop_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                if let Some((key, payload)) = heap.pop() {
                    let next = key + u128::from(mix.next() >> 40) + 1;
                    heap.push(black_box(next), black_box(payload));
                    ops += 1;
                }
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn prefilled_fel(size: usize, mix: &mut Mix) -> EventQueue<Event> {
    let mut q = EventQueue::new();
    for i in 0..size {
        q.schedule_fast(
            SimTime::from(mix.unit() * 10.0),
            Event::LocalArrival {
                node: NodeId::new(i as u32 % 6),
            },
        );
    }
    q
}

fn event_queue_schedule_pop(size: usize, seed: u64) -> Micro {
    let mut mix = Mix(seed | 1);
    let mut q = prefilled_fel(size, &mut mix);
    Micro {
        name: "sim.event_queue.schedule_pop_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                if let Some(ev) = q.pop() {
                    let at = ev.time + mix.unit() * 10.0;
                    q.schedule_fast(black_box(at), black_box(ev.event));
                    ops += 1;
                }
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn event_queue_schedule_cancel(size: usize, seed: u64) -> Micro {
    let mut mix = Mix(seed | 1);
    let mut q = prefilled_fel(size, &mut mix);
    Micro {
        name: "sim.event_queue.schedule_cancel_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                let at = SimTime::from(mix.unit() * 10.0);
                let h = q.schedule(black_box(at), Event::GlobalArrival);
                if q.cancel(black_box(h)) {
                    ops += 1;
                }
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn exponential_sample(seed: u64) -> Micro {
    let dist = Exponential::with_mean(1.0).expect("mean 1 is valid");
    let mut stream = RngFactory::new(seed).stream("sdabench.exponential");
    Micro {
        name: "sim.dist.exponential_sample_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                black_box(black_box(&dist).sample_with(&mut stream));
                ops += 1;
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn mailbox_push_drain() -> Micro {
    let mailbox: Mailbox<u64> = Mailbox::with_capacity(MAILBOX_BATCH as usize);
    let mut out: Vec<u64> = Vec::with_capacity(MAILBOX_BATCH as usize);
    Micro {
        name: "sim.mailbox.push_drain_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters {
                for k in 0..MAILBOX_BATCH {
                    let pushed = mailbox.push(black_box(i ^ k));
                    debug_assert!(pushed, "capacity holds one batch");
                }
                mailbox.drain_into(&mut out);
                ops += out.len() as u64;
                black_box(&out);
                out.clear();
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(MAILBOX_BATCH),
    }
}

fn prefilled_ready_queue(size: usize, mix: &mut Mix) -> ReadyQueue {
    let mut q = ReadyQueue::new(Policy::EarliestDeadlineFirst);
    for i in 0..size.max(1) {
        q.push(Job::local(
            TaskId::new(i as u64),
            0.0,
            1.0,
            mix.unit() * 20.0,
        ));
    }
    q
}

fn ready_queue_push_pop(size: usize, seed: u64) -> Micro {
    let mut mix = Mix(seed | 1);
    let mut q = prefilled_ready_queue(size, &mut mix);
    Micro {
        name: "sched.ready_queue.push_pop_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                if let Some(mut job) = q.pop() {
                    job.deadline += mix.unit() * 20.0;
                    q.push(black_box(job));
                    ops += 1;
                }
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn ready_queue_preempt_requeue(size: usize, seed: u64) -> Micro {
    let mut mix = Mix(seed | 1);
    let mut q = prefilled_ready_queue(size, &mut mix);
    Micro {
        name: "sched.ready_queue.preempt_requeue_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                if let Some(slot) = q.pop_slot() {
                    let job = q.job_mut(slot);
                    job.service = (job.service - black_box(1e-9)).max(0.0);
                    job.deadline += mix.unit() * 20.0;
                    q.requeue(slot);
                    ops += 1;
                }
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn assign_serial(name: &'static str, strategy: SdaStrategy) -> Micro {
    // Stage pex of a 4-stage pipeline seen from its first stage.
    let rest = [1.1, 0.9, 1.3];
    Micro {
        name,
        run: Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters {
                let input = SspInput {
                    submit_time: black_box(i as f64 * 1e-3),
                    global_deadline: black_box(i as f64 * 1e-3 + 12.0),
                    pex_current: black_box(1.2),
                    pex_remaining_after: black_box(&rest[..]),
                    comm_current: 0.0,
                    comm_after: 0.0,
                    slack_scale: 1.0,
                };
                black_box(black_box(&strategy).serial_deadline(&input));
                ops += 1;
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn assign_parallel(name: &'static str, strategy: SdaStrategy) -> Micro {
    Micro {
        name,
        run: Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters {
                let input = PspInput {
                    arrival_time: black_box(i as f64 * 1e-3),
                    global_deadline: black_box(i as f64 * 1e-3 + 6.0),
                    branch_count: black_box(3),
                    comm_current: 0.0,
                    comm_after: 0.0,
                    slack_scale: 1.0,
                };
                black_box(black_box(&strategy).parallel_deadline(&input));
                ops += 1;
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn factory(w: Workload, seed: u64) -> (TaskFactory, SystemConfig) {
    let cfg = w.config();
    let f = TaskFactory::new(cfg.workload.clone(), &RngFactory::new(seed))
        .expect("workload config is valid");
    (f, cfg)
}

/// Refills `run` with `template`'s structure and timing.
fn rebuild_flat(run: &mut FlatRun, template: &FlatRun) {
    run.reset();
    for s in 0..template.stage_count() {
        for sub in template.stage(s) {
            run.push_subtask(sub.node, sub.ex, sub.pex);
        }
        run.end_stage();
    }
    run.set_structure(true, true);
    run.set_timing(template.arrival(), template.global_deadline());
}

/// Drives a started run's submissions in FIFO order to completion;
/// returns the number of subtasks completed.
fn drive<F: FnMut(&Submission, f64, &mut Vec<Submission>) -> bool>(
    out: &mut Vec<Submission>,
    mut now: f64,
    mut complete: F,
) -> u64 {
    let mut done = 0;
    let mut i = 0;
    while i < out.len() {
        let sub = out[i];
        i += 1;
        now += sub.ex;
        done += 1;
        if complete(&sub, now, out) {
            break;
        }
    }
    out.clear();
    done
}

fn flat_lifecycle(seed: u64) -> Micro {
    let (mut f, cfg) = factory(Workload::Pipelines, seed);
    let strategy = cfg.strategy;
    let templates: Vec<FlatRun> = (0..TEMPLATES)
        .map(|i| {
            let mut run = FlatRun::new();
            f.make_global_flat(i as f64, &mut run);
            run
        })
        .collect();
    let counts: Vec<u64> = templates.iter().map(|t| t.simple_count() as u64).collect();
    let base_templates = templates.clone();
    let mut run = FlatRun::new();
    let mut base_run = FlatRun::new();
    let mut out = Vec::new();
    Micro {
        name: "core.flat_run.lifecycle_ns_per_subtask",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters as usize {
                let t = &templates[i % TEMPLATES];
                rebuild_flat(&mut run, black_box(t));
                run.start(&strategy, t.arrival(), &mut out);
                ops += drive(&mut out, t.arrival(), |sub, now, out| {
                    run.complete(sub.subtask, &strategy, now, out)
                });
                black_box(&run);
            }
            ops
        }),
        base: Some(Box::new(move |iters| {
            for i in 0..iters as usize {
                rebuild_flat(&mut base_run, black_box(&base_templates[i % TEMPLATES]));
                black_box(&base_run);
            }
            iters
        })),
        expected_ops: cycling(counts),
    }
}

/// A DAG template: nodes and edges copied out of a sampled `DagRun`.
#[derive(Clone)]
struct DagTemplate {
    nodes: Vec<(NodeId, f64, f64)>,
    edges: Vec<(u32, u32)>,
    arrival: f64,
    deadline: f64,
}

impl DagTemplate {
    fn of(run: &DagRun) -> DagTemplate {
        let n = run.simple_count() as u32;
        DagTemplate {
            nodes: run
                .subtasks()
                .iter()
                .map(|s| (s.node, s.ex, s.pex))
                .collect(),
            edges: (0..n)
                .flat_map(|u| run.successors(u).iter().map(move |&v| (u, v)))
                .collect(),
            arrival: run.arrival(),
            deadline: run.global_deadline(),
        }
    }

    fn rebuild(&self, run: &mut DagRun) {
        run.reset();
        for &(node, ex, pex) in &self.nodes {
            run.push_node(node, ex, pex);
        }
        for &(u, v) in &self.edges {
            run.push_edge(u, v);
        }
        run.set_timing(self.arrival, self.deadline);
    }
}

fn dag_templates(seed: u64) -> (Vec<DagTemplate>, SdaStrategy) {
    let (mut f, cfg) = factory(Workload::Dag, seed);
    let mut run = DagRun::new();
    let templates = (0..TEMPLATES)
        .map(|i| {
            f.make_global_dag(i as f64, &mut run);
            DagTemplate::of(&run)
        })
        .collect();
    (templates, cfg.strategy)
}

fn dag_loops(seed: u64) -> [Micro; 2] {
    let (templates, strategy) = dag_templates(seed);
    let subtasks: Vec<u64> = templates.iter().map(|t| t.nodes.len() as u64).collect();
    let rebuild_only = |templates: Vec<DagTemplate>| -> Body {
        let mut run = DagRun::new();
        Box::new(move |iters| {
            for i in 0..iters as usize {
                templates[i % TEMPLATES].rebuild(&mut run);
                black_box(&run);
            }
            iters
        })
    };
    let rebuild_finalize = |templates: Vec<DagTemplate>| -> Body {
        let mut run = DagRun::new();
        Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters as usize {
                black_box(&templates[i % TEMPLATES]).rebuild(&mut run);
                run.finalize();
                ops += 1;
                black_box(&run);
            }
            ops
        })
    };
    let lifecycle = {
        let templates = templates.clone();
        let mut run = DagRun::new();
        let mut out = Vec::new();
        Box::new(move |iters: u64| {
            let mut ops = 0;
            for i in 0..iters as usize {
                let t = black_box(&templates[i % TEMPLATES]);
                t.rebuild(&mut run);
                run.finalize();
                run.start(&strategy, t.arrival, &mut out);
                ops += drive(&mut out, t.arrival, |sub, now, out| {
                    run.complete(sub.subtask, &strategy, now, out)
                });
                black_box(&run);
            }
            ops
        }) as Body
    };
    [
        Micro {
            name: "core.dag_run.finalize_ns",
            run: rebuild_finalize(templates.clone()),
            base: Some(rebuild_only(templates.clone())),
            expected_ops: per_iter(1),
        },
        Micro {
            name: "core.dag_run.lifecycle_ns_per_subtask",
            run: lifecycle,
            base: Some(rebuild_finalize(templates)),
            expected_ops: cycling(subtasks),
        },
    ]
}

fn make_global_flat(seed: u64) -> Micro {
    let (mut f, _) = factory(Workload::Pipelines, seed);
    let mut run = FlatRun::new();
    let mut now = 0.0;
    Micro {
        name: "workload.make_global_flat_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                now += 1.0;
                f.make_global_flat(black_box(now), &mut run);
                black_box(&run);
                ops += 1;
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn make_global_dag(seed: u64) -> Micro {
    let (mut f, _) = factory(Workload::Dag, seed);
    let mut run = DagRun::new();
    let mut now = 0.0;
    Micro {
        name: "workload.make_global_dag_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for _ in 0..iters {
                now += 1.0;
                f.make_global_dag(black_box(now), &mut run);
                black_box(&run);
                ops += 1;
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn make_local(seed: u64) -> Micro {
    let (mut f, cfg) = factory(Workload::Pipelines, seed);
    let nodes = cfg.workload.nodes as u64;
    let mut now = 0.0;
    Micro {
        name: "workload.make_local_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters {
                now += 1.0;
                let node = NodeId::new((i % nodes) as u32);
                black_box(f.make_local(black_box(node), black_box(now)));
                ops += 1;
            }
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

fn metrics_record(seed: u64) -> Micro {
    let mut mix = Mix(seed | 1);
    let mut m = Metrics::new();
    Micro {
        name: "system.metrics.record_ns",
        run: Box::new(move |iters| {
            let mut ops = 0;
            for i in 0..iters {
                let arrival = i as f64;
                let deadline = arrival + 4.0;
                let completion = arrival + mix.unit() * 8.0;
                m.global.record(
                    black_box(arrival),
                    black_box(deadline),
                    black_box(completion),
                );
                ops += 1;
            }
            black_box(&m);
            ops
        }),
        base: None,
        expected_ops: per_iter(1),
    }
}

/// A measured micro-loop.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// ns per operation over the batches.
    pub ns_per_op: Summary,
    /// Whether every batch performed exactly the expected operations.
    pub ops_ok: bool,
}

/// Target wall time of one batch.
const BATCH: Duration = Duration::from_millis(2);

/// Times `m` for about `budget`: picks a batch size of about [`BATCH`],
/// then alternates batches of `run` and `base` and takes per-batch ns/op.
pub fn measure(m: &mut Micro, budget: Duration) -> Measured {
    let time = |body: &mut Body, iters: u64| -> (f64, u64) {
        let start = Instant::now();
        let ops = body(iters);
        (start.elapsed().as_nanos() as f64, ops)
    };
    let mut ops_ok = true;
    // Calibrate (and warm up) on the measured loop.
    let mut iters = 1u64;
    loop {
        let (ns, ops) = time(&mut m.run, iters);
        ops_ok &= ops == (m.expected_ops)(iters);
        if ns >= BATCH.as_nanos() as f64 || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        let (ns, ops) = time(&mut m.run, iters);
        ops_ok &= ops == (m.expected_ops)(iters);
        let base_ns = match m.base.as_mut() {
            Some(base) => time(base, iters).0,
            None => 0.0,
        };
        samples.push((ns - base_ns) / ops.max(1) as f64);
        if samples.len() >= 10_000 {
            break;
        }
    }
    Measured {
        name: m.name,
        ns_per_op: Summary::of(&samples),
        ops_ok,
    }
}
