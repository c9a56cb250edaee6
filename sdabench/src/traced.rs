//! The traced run: `SystemModel` wrapped in a `Simulation` of the same
//! event type that times every `handle` call by `Event` variant.
//!
//! [`run_traced`] drives the wrapper exactly as `sda_system::run_once`
//! drives the bare model, so its `RunResult` must be bit-identical to
//! `run_once`'s; the benchmark checks that on every traced run.

use std::time::Instant;

use sda_core::TaskClass;
use sda_sim::rng::RngFactory;
use sda_sim::{Context, Engine, SimTime, Simulation};
use sda_system::{Event, RunConfig, RunResult, SystemConfig, SystemModel};
use sda_workload::ConfigError;

/// Event kinds, indexed by [`kind_index`].
pub const KINDS: [&str; 9] = [
    "init",
    "local_arrival",
    "global_arrival",
    "service_complete",
    "subtask_arrive",
    "result_return",
    "node_down",
    "node_up",
    "end_warmup",
];

/// The kinds the benchmark reports, with their count and ns/event
/// metric names.
pub const REPORTED: [(usize, &str, &str); 5] = [
    (
        LOCAL_ARRIVAL,
        "system.handle.local_arrival.count",
        "system.handle.local_arrival.ns_per_event",
    ),
    (
        GLOBAL_ARRIVAL,
        "system.handle.global_arrival.count",
        "system.handle.global_arrival.ns_per_event",
    ),
    (
        SERVICE_COMPLETE,
        "system.handle.service_complete.count",
        "system.handle.service_complete.ns_per_event",
    ),
    (
        SUBTASK_ARRIVE,
        "system.handle.subtask_arrive.count",
        "system.handle.subtask_arrive.ns_per_event",
    ),
    (
        RESULT_RETURN,
        "system.handle.result_return.count",
        "system.handle.result_return.ns_per_event",
    ),
];

/// Index of `local_arrival` in [`KINDS`].
pub const LOCAL_ARRIVAL: usize = 1;
/// Index of `global_arrival` in [`KINDS`].
pub const GLOBAL_ARRIVAL: usize = 2;
/// Index of `service_complete` in [`KINDS`].
pub const SERVICE_COMPLETE: usize = 3;
/// Index of `subtask_arrive` in [`KINDS`].
pub const SUBTASK_ARRIVE: usize = 4;
/// Index of `result_return` in [`KINDS`].
pub const RESULT_RETURN: usize = 5;

/// The [`KINDS`] index of an event.
pub fn kind_index(event: &Event) -> usize {
    match event {
        Event::Init { .. } => 0,
        Event::LocalArrival { .. } => LOCAL_ARRIVAL,
        Event::GlobalArrival => GLOBAL_ARRIVAL,
        Event::ServiceComplete { .. } => SERVICE_COMPLETE,
        Event::SubtaskArrive { .. } => SUBTASK_ARRIVE,
        Event::ResultReturn { .. } => RESULT_RETURN,
        Event::NodeDown { .. } => 6,
        Event::NodeUp { .. } => 7,
        Event::EndWarmup => 8,
    }
}

/// Counters the wrapper collects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindStats {
    /// Events handled, per kind.
    pub count: [u64; KINDS.len()],
    /// Handler wall time in ns, per kind.
    pub handler_ns: [u64; KINDS.len()],
    /// Events each kind's handlers scheduled (growth of the
    /// future-event list across the call; the hot path never cancels).
    pub scheduled: [u64; KINDS.len()],
    /// Current service completions of local jobs.
    pub local_completions: u64,
    /// Current service completions of global subtasks.
    pub global_completions: u64,
    /// Sum over events of the future-event-list length when popped.
    pub fel_len_sum: u64,
}

impl KindStats {
    /// Total events.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Summed handler time of every kind, ns.
    pub fn handler_total_ns(&self) -> u64 {
        self.handler_ns.iter().sum()
    }

    /// Mean future-event-list length an event was popped from.
    pub fn mean_fel_len(&self) -> f64 {
        self.fel_len_sum as f64 / self.events().max(1) as f64
    }
}

/// `SystemModel` plus per-kind handler timing.
pub struct Traced {
    model: SystemModel,
    /// What the wrapper measured so far.
    pub stats: KindStats,
}

impl Simulation for Traced {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<Event>, event: Event) {
        let kind = kind_index(&event);
        if let Event::ServiceComplete { node, epoch } = event {
            let n = &self.model.nodes()[node.index()];
            if n.completion_is_current(epoch) {
                match n.current().map(|j| j.class()) {
                    Some(TaskClass::Local) => self.stats.local_completions += 1,
                    Some(TaskClass::Global) => self.stats.global_completions += 1,
                    None => {}
                }
            }
        }
        // The popped event has already left the list.
        let before = ctx.pending_events();
        let start = Instant::now();
        self.model.handle(ctx, event);
        let ns = start.elapsed().as_nanos() as u64;
        let after = ctx.pending_events();
        let s = &mut self.stats;
        s.count[kind] += 1;
        s.handler_ns[kind] += ns;
        s.scheduled[kind] += after.saturating_sub(before) as u64;
        s.fel_len_sum += before as u64 + 1;
    }
}

/// One traced run's outputs.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The run's results, assembled exactly as `run_once` assembles them.
    pub result: RunResult,
    /// Per-kind counters and handler times.
    pub stats: KindStats,
    /// Wall time of the event loop, ns.
    pub loop_ns: u64,
}

impl TracedRun {
    /// Event-loop time not spent inside handlers: popping the
    /// future-event list, advancing the clock and the wrapper's own
    /// bookkeeping, ns.
    pub fn residual_ns(&self) -> u64 {
        self.loop_ns.saturating_sub(self.stats.handler_total_ns())
    }
}

/// Runs `config` once with the traced wrapper, mirroring
/// `sda_system::run_once` step for step.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_traced(config: &SystemConfig, run: &RunConfig) -> Result<TracedRun, ConfigError> {
    let rng = RngFactory::new(run.seed);
    let model = SystemModel::new(config.clone(), &rng)?;
    let mut engine = Engine::new(Traced {
        model,
        stats: KindStats::default(),
    });
    engine.context_mut().set_order_fuzz(run.order_fuzz);
    engine.context_mut().schedule_at(
        SimTime::ZERO,
        Event::Init {
            warmup_end: run.warmup,
        },
    );
    let horizon = SimTime::from(run.warmup + run.duration);
    let start = Instant::now();
    let report = engine.run_until(horizon);
    let loop_ns = start.elapsed().as_nanos() as u64;
    let traced = engine.into_model();
    let model = &traced.model;
    let result = RunResult {
        metrics: model.metrics().clone(),
        node_utilization: model
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .collect(),
        node_queue_length: model
            .nodes()
            .iter()
            .map(|n| n.mean_queue_length(horizon))
            .collect(),
        end_time: report.end_time.as_f64(),
        events: report.events,
    };
    Ok(TracedRun {
        result,
        stats: traced.stats,
        loop_ns,
    })
}
