//! `sdabench` — the repository benchmark, as a library so its self-tests
//! can drive the same code the binary runs.
//!
//! * [`workloads`] — the four workloads, their configs and pinned
//!   fingerprints;
//! * [`stats`] — medians and quartiles;
//! * [`traced`] — the per-event-kind timing wrapper around
//!   `SystemModel`;
//! * [`micro`] — ns/op micro-loops over each layer's public functions;
//! * [`reference`] — the fixed reference simulation throughputs are
//!   scaled by;
//! * [`host`] — process and host probes (`/proc`), recorded-host check.

// Timing with the wall clock is this benchmark's purpose; the workspace's
// determinism bans (clippy.toml) apply to the simulated crates only.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod host;
pub mod micro;
pub mod reference;
pub mod stats;
pub mod traced;
pub mod workloads;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one; see `README.md` for what each means per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "1/s"),
    ("sharded2_events_per_s", "1/s"),
    ("tasks_per_s", "1/s"),
    ("miss_global_pct", "%"),
    ("miss_local_pct", "%"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("sim.pq.push_pop_ns", "ns"),
    ("sim.event_queue.schedule_pop_ns", "ns"),
    ("sim.event_queue.schedule_cancel_ns", "ns"),
    ("sim.dist.exponential_sample_ns", "ns"),
    ("sim.mailbox.push_drain_ns", "ns"),
    ("sim.engine.residual_ns_per_event", "ns"),
    ("sim.engine.trace_overhead", "ratio"),
    ("sched.ready_queue.push_pop_ns", "ns"),
    ("sched.ready_queue.preempt_requeue_ns", "ns"),
    ("core.assign.serial.ud_ns", "ns"),
    ("core.assign.serial.ed_ns", "ns"),
    ("core.assign.serial.eqs_ns", "ns"),
    ("core.assign.serial.eqf_ns", "ns"),
    ("core.assign.serial.eqf_as_ns", "ns"),
    ("core.assign.parallel.ud_ns", "ns"),
    ("core.assign.parallel.div_x_ns", "ns"),
    ("core.assign.parallel.gf_ns", "ns"),
    ("core.flat_run.lifecycle_ns_per_subtask", "ns"),
    ("core.dag_run.finalize_ns", "ns"),
    ("core.dag_run.lifecycle_ns_per_subtask", "ns"),
    ("workload.make_global_flat_ns", "ns"),
    ("workload.make_global_dag_ns", "ns"),
    ("workload.make_local_ns", "ns"),
    ("system.metrics.record_ns", "ns"),
    ("system.handle.local_arrival.count", "count"),
    ("system.handle.local_arrival.ns_per_event", "ns"),
    ("system.handle.global_arrival.count", "count"),
    ("system.handle.global_arrival.ns_per_event", "ns"),
    ("system.handle.service_complete.count", "count"),
    ("system.handle.service_complete.ns_per_event", "ns"),
    ("system.handle.subtask_arrive.count", "count"),
    ("system.handle.subtask_arrive.ns_per_event", "ns"),
    ("system.handle.result_return.count", "count"),
    ("system.handle.result_return.ns_per_event", "ns"),
    ("service.logical.tasks_per_s", "1/s"),
    ("service.wall.cpu_us_per_task", "us"),
    ("service.wall.cpu_util", "cores"),
    ("sim.event_queue.mean_len", "count"),
];

/// Whether `name` is a valid metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
