//! # sda-system — the distributed soft real-time system model
//!
//! The executable model of the paper's §3.2 architecture:
//!
//! * `k` **nodes**, each a non-preemptive single server with
//!   its own [`ReadyQueue`](sda_sched::ReadyQueue) — schedulers are
//!   independent and never coordinate. Homogeneous by default;
//!   `WorkloadConfig::node_speeds` gives each node a speed factor
//!   (service time `ex / speed`) for heterogeneous-hardware studies;
//! * a **process manager** that receives global tasks, assigns
//!   virtual deadlines via an [`SdaStrategy`](sda_core::SdaStrategy),
//!   hands simple subtasks to the nodes and enforces precedence (via
//!   pooled [`FlatRun`](sda_core::FlatRun)/[`DagRun`](sda_core::DagRun)s);
//! * a **network model** ([`NetworkModel`], default
//!   [`Zero`](NetworkModel::Zero) = the paper's free communication):
//!   under a non-zero model every subtask hand-off — initial fan-out,
//!   serial forwarding, fan-in, result return — becomes a delayed
//!   in-flight event, and deadline-assignment strategies reserve slack
//!   for the expected transit;
//! * per-node **local task** streams competing with global subtasks —
//!   stationary Poisson by default, or bursty/phased under a
//!   time-varying `WorkloadConfig::arrivals` process;
//! * an optional **failure model** ([`FailureModel`], default
//!   [`None`](FailureModel::None) = the paper's immortal fleet):
//!   exponential MTTF/MTTR churn or scripted outage traces crash nodes
//!   — queued and in-flight work is lost, the manager re-dispatches
//!   lost subtasks to survivors and re-decomposes the remaining
//!   deadline budget mid-task through the unchanged strategy layer;
//! * a **feedback loop** for `ADAPT(base)` strategies: a windowed
//!   miss-ratio EWMA ([`Feedback`], O(1) per completion) is stamped
//!   into every stage activation as a slack-share multiplier, so
//!   deadline assignment tightens itself under observed overload;
//! * **metrics**: per-class missed-deadline ratios (the paper's primary
//!   measure), response times, subtask-level virtual-deadline misses,
//!   hand-off transit times and node utilizations, with warm-up
//!   deletion.
//!
//! [`SystemModel`] holds all of these and runs on the deterministic
//! [`sda_sim`] engine; [`run_replications`] executes independent
//! replications and reports 95% confidence intervals, like the paper's
//! two-run experiments. The live service (`sda-service`) runs the same
//! model on a wall clock: it books the tasks its submitters generate
//! through [`SystemModel::arrive_local`] and
//! [`SystemModel::arrive_global`], and records outcomes at the time it
//! observed them ([`SystemModel::observe`]).
//!
//! ## Example: UD vs EQF at the baseline
//!
//! ```
//! use sda_core::SdaStrategy;
//! use sda_system::{RunConfig, SystemConfig};
//!
//! let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
//! let run = RunConfig { warmup: 100.0, duration: 2_000.0, seed: 1, order_fuzz: 0 };
//! let result = sda_system::run_once(&cfg, &run)?;
//! assert!(result.metrics.global.completed() > 0);
//!
//! cfg.strategy = SdaStrategy::ud_ud();
//! let ud = sda_system::run_once(&cfg, &run)?;
//! // Same workload (same seed & streams), different strategy.
//! assert!(ud.metrics.local.completed() > 0);
//! # Ok::<(), sda_workload::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod failure;
mod manager;
mod metrics;
mod model;
mod node;
mod runner;

pub use config::{NetworkModel, OverloadPolicy, SystemConfig};
pub use failure::{DownInterval, FailureModel};
pub use manager::{PooledRun, TraceEvent};
pub use metrics::{ClassMetrics, Feedback, Metrics};
pub use model::{Event, SystemModel};
pub use node::Node;
pub use runner::{
    parallel_map, run_once, run_once_sharded, run_replications, run_replications_with_threads,
    ReplicatedResult, RunConfig, RunResult,
};
