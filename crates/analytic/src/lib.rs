#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! Closed-form queueing theory cross-validating the simulator.
//!
//! This crate is a simulation-free oracle for `sda`: an end-to-end
//! predictor ([`predict()`]) that models every node as one M/G/1 queue
//! (Pollaczek–Khinchine mean wait, Takács second moment, a gamma or
//! exponential waiting tail; exact M/M/1 for exponential service) and
//! composes the per-node waits along the global-task pipeline —
//! including `NetworkModel::expected_hop_delay` terms — into predicted
//! response moments and miss ratios for a full
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
//!   independent oracles (the birth–death stationary distribution,
//!   Pollaczek–Khinchine, Poisson sums for the incomplete gamma) and
//!   pin `predict()`'s values bit for bit.
//!
//! Everything here is deterministic, dependency-free arithmetic: no
//! RNG, no sampling, no simulation.

mod mg1;
pub mod predict;
mod special;

pub use predict::{predict, NodePrediction, PredictError, Prediction};
