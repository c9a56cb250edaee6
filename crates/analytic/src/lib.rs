#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! Closed-form queueing theory cross-validating the simulator.
//!
//! This crate is a simulation-free oracle for `sda`: exact M/M/1 and
//! M/M/c steady-state results ([`queue`]), an Allen–Cunneen G/G/c
//! approximation for the non-exponential service variants ([`GgcApprox`]),
//! and an end-to-end predictor ([`predict()`]) that composes per-node
//! queues along the global-task pipeline — including
//! `NetworkModel::expected_hop_delay` terms — into predicted response
//! moments and miss ratios for a full
//! [`SystemConfig`](sda_system::SystemConfig).
//!
//! Three consumers:
//!
//! * the **validation harness** (`tests/analytic_validation.rs` at the
//!   workspace root) runs seeded replicated simulations on
//!   configurations where the theory is exact and asserts agreement
//!   within the replication confidence half-width;
//! * the **analytic screen** (`--screen` on `sda-exp`) prunes
//!   sweep grid points whose predicted miss ratio is decisively
//!   uninteresting, concentrating replications on the contested region;
//! * property tests inside this crate pin the formulas against
//!   independent oracles (birth–death stationary distributions,
//!   Pollaczek–Khinchine, Poisson sums for the incomplete gamma).
//!
//! Everything here is deterministic, dependency-free arithmetic: no
//! RNG, no sampling, no simulation.

mod ggc;
pub mod predict;
pub mod queue;
mod special;

pub use ggc::GgcApprox;
pub use predict::{predict, NodePrediction, PredictError, Prediction};
pub use queue::{Mm1, Mmc, TheoryError};
