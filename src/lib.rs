//! # sda — Subtask Deadline Assignment in Distributed Soft Real-Time Systems
//!
//! A complete, from-scratch reproduction of Ben Kao and Hector
//! Garcia-Molina, *Deadline Assignment in a Distributed Soft Real-Time
//! System* (ICDCS 1993; extended version in IEEE TPDS 8(12), 1997).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`core`] — the paper's contribution: the task model and the SSP
//!   (UD/ED/EQS/EQF), PSP (UD/DIV-x/GF) and combined deadline-assignment
//!   strategies;
//! * [`sim`] — a deterministic discrete-event simulation engine
//!   (the DeNet substitute);
//! * [`sched`] — local schedulers (EDF, FCFS, SJF, MLF, class-priority),
//!   non-preemptive by default;
//! * [`workload`] — the paper's stochastic workload model
//!   (Poisson streams, exponential service, uniform slack, serial-parallel
//!   task trees);
//! * [`system`] — the distributed system model: independent per-node
//!   schedulers plus the process manager, with miss-ratio metrics;
//! * [`analytic`] — a closed-form predictor, one M/G/1 queue per node
//!   composed along the global pipeline, that cross-validates the
//!   simulator and screens sweep grids analytically;
//! * [`service`] — a live thread-per-worker runtime driving the same
//!   assignment strategies on a wall clock, with the simulator as its
//!   deterministic test double;
//! * [`experiments`] — the harness regenerating every table and figure.
//!
//! ## Quickstart
//!
//! Assign virtual deadlines to a 4-stage serial task under EQF:
//!
//! ```
//! use sda::core::{SerialStrategy, SspInput};
//!
//! // A global task arriving at t=0 with end-to-end deadline 20, whose 4
//! // subtasks have predicted execution times 2, 4, 1, 3.
//! let strategy = SerialStrategy::EqualFlexibility;
//! let dl = strategy.deadline(&SspInput {
//!     submit_time: 0.0,
//!     global_deadline: 20.0,
//!     pex_current: 2.0,
//!     pex_remaining_after: &[4.0, 1.0, 3.0],
//!     comm_current: 0.0,
//!     comm_after: 0.0,
//!     slack_scale: 1.0,
//! });
//! // Total pex = 10, total slack = 10, so stage 1 (pex 2) gets flexibility
//! // 1.0: dl = 0 + 2 + 10·(2/10) = 4.
//! assert!((dl - 4.0).abs() < 1e-12);
//! ```
//!
//! Run a small end-to-end simulation of the paper's baseline and compare
//! UD against EQF (see `examples/quickstart.rs` for the full program).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use sda_analytic as analytic;
pub use sda_core as core;
pub use sda_experiments as experiments;
pub use sda_sched as sched;
pub use sda_service as service;
pub use sda_sim as sim;
pub use sda_system as system;
pub use sda_workload as workload;
