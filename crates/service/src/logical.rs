//! The logical-clock entry point of the service: the simulator itself.
//!
//! The live runtime runs the simulator's own
//! [`SystemModel`](sda_system::SystemModel), so a deterministic service
//! run *is* [`sda_system::run_once`]. [`run_logical`] remains as that
//! call with the service's error type.

use sda_system::{RunConfig, RunResult, SystemConfig};

use crate::ServiceError;

/// Everything a logical-clock service run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Metrics, per-node statistics, end time and event count, exactly
    /// as [`sda_system::run_once`] reports them.
    pub result: RunResult,
}

/// Runs the deadline-assignment service on the logical clock: a call to
/// [`sda_system::run_once`].
///
/// # Errors
///
/// Returns [`ServiceError::Config`] for invalid workload parameters.
pub fn run_logical(config: &SystemConfig, run: &RunConfig) -> Result<ServiceReport, ServiceError> {
    Ok(ServiceReport {
        result: sda_system::run_once(config, run)?,
    })
}
