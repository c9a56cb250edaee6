//! # sda-workload — the paper's stochastic workload model
//!
//! Implements the task-generation model of Kao & Garcia-Molina §4.1/§5.2:
//!
//! * **Local tasks**: per-node Poisson streams (mean interarrival
//!   `1/λ_local`), exponential execution times (mean `1/μ_local = 1`),
//!   slack uniform on `[Smin, Smax]`.
//! * **Global tasks**: one Poisson stream (mean interarrival
//!   `1/λ_global`); each task has `m` subtasks with i.i.d. exponential
//!   execution times (mean `1/μ_subtask`), so a serial task's total work
//!   is m-stage Erlang. Subtask nodes are drawn uniformly (serial), or
//!   distinct (parallel fans, as in §5.2).
//! * **Parameterization by `load` and `frac_local`** (§4.1):
//!   arrival rates are *derived* from the target normalized load, the
//!   local fraction, and the expected work per task — see
//!   [`WorkloadConfig::rates`].
//! * **`rel_flex`**: the relative flexibility of global vs local tasks;
//!   global serial slack is scaled so the classes' mean flexibility ratio
//!   is `rel_flex` (exactly the baseline's "same average flexibility"
//!   property at 1.0).
//! * **Prediction error** ([`PexModel`]): the paper's §4.3 extension where
//!   `pex` deviates from `ex`.
//! * **Heterogeneous nodes** (`WorkloadConfig::node_speeds`): optional
//!   per-node speed factors; every task served at node `i` takes
//!   `ex / node_speeds[i]` time units and predictions scale identically,
//!   so deadline assignment reasons in node-local service time. `None`
//!   (or all-1.0) reproduces the paper's homogeneous model bit-exactly.
//!   `WorkloadConfig::local_weights` independently skews the *arrival*
//!   side (§4.3's unbalanced local loads).
//! * **DAG-structured tasks** ([`GlobalShape::Dag`]): random layered
//!   precedence DAGs with width/depth/edge-density knobs — weakly
//!   connected and acyclic by construction, cross-layer edges included —
//!   filled into a pooled [`DagRun`](sda_core::DagRun) by
//!   [`TaskFactory::make_global_dag`], with deadlines scaled by each
//!   task's own critical-path depth.
//! * **Time-varying arrivals** ([`ArrivalProcess`]): the paper's
//!   stationary Poisson streams (default, bit-identical to the original
//!   sampler), a 2-state Markov-modulated Poisson process for bursts, or
//!   a cyclic phased-rate script for diurnal patterns and overload
//!   transients — all normalized to keep the configured mean `load`.
//!
//! The crate is deterministic given an [`RngFactory`](sda_sim::rng::RngFactory):
//! every stochastic component draws from its own named stream.
//!
//! ```
//! use sda_core::FlatRun;
//! use sda_workload::{WorkloadConfig, TaskFactory};
//! use sda_sim::rng::RngFactory;
//!
//! let cfg = WorkloadConfig::baseline(); // Table 1
//! let rates = cfg.rates()?;
//! assert!((rates.lambda_local_per_node - 0.375).abs() < 1e-12);
//! assert!((rates.lambda_global - 0.1875).abs() < 1e-12);
//!
//! let mut factory = TaskFactory::new(cfg, &RngFactory::new(42))?;
//! let mut global = FlatRun::new();
//! factory.make_global_flat(0.0, &mut global);
//! assert_eq!(global.simple_count(), 4);
//! # Ok::<(), sda_workload::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arrivals;
mod config;
mod generator;
mod pex;
mod service;
mod shape;

pub use arrivals::{ArrivalProcess, ArrivalSampler, PhaseSegment};
pub use config::{ConfigError, DerivedRates, SlackRange, WorkloadConfig};
pub use generator::{LocalTask, TaskFactory};
pub use pex::PexModel;
pub use service::ServiceVariability;
pub use shape::GlobalShape;
