//! The live deadline-assignment service: the paper's process manager as
//! a runnable runtime instead of a simulation model.
//!
//! Everything below `crates/system` answers "what would the strategies
//! do?" by simulation; this crate answers "what do they do?" by running
//! the same system model — arrivals, virtual-deadline assignment
//! through the **unchanged**
//! [`DeadlineAssigner`](sda_core::DeadlineAssigner) strategies,
//! precedence bookkeeping, dispatch, network hand-offs and node
//! failures — on a real clock.
//!
//! # One model, two clocks
//!
//! The decision logic is one type, [`sda_system::SystemModel`], run on
//! two clocks:
//!
//! * the simulator runs it on the logical clock of its future-event
//!   list; [`logical::run_logical`] is that run
//!   ([`sda_system::run_once`]) under the service's error type;
//! * the runtime in [`wall`] runs it on its own engine from one manager
//!   thread, whose clock follows a [`WallClock`] — wall time, scaled so
//!   one wall-clock second covers a configurable number of simulated
//!   time units. Submitter threads generate the traffic, and the
//!   manager books each task as the model's own arrival event.
//!
//! [`wall::replay`] runs that manager with wall time taken out: it
//! hands [`sda_system::run_once`]'s own traffic over ahead of each
//! instant and fires the engine at exactly each booked instant, and its
//! metrics equal `run_once`'s bit for bit, under every network and
//! failure model. Anything validated against the paper in the simulator
//! is thereby validated for the live runtime's decisions; only the
//! timing differs, and [`wall::WallReport`] measures it.
//!
//! # Deadline contracts
//!
//! A run may carry a DDS-style [`DeadlineContract`] pair: the deadline
//! budget the service *offers* and the budget the submitters *request*.
//! [`wall::run_wall`] checks at startup that the offered budget is no
//! laxer than the requested one and refuses the run otherwise
//! ([`ServiceError::IncompatibleContract`]). Deadline outcomes
//! themselves are recorded once, in the model's
//! [`Metrics`](sda_system::Metrics).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clock;
pub mod logical;
pub mod wall;

pub use clock::WallClock;
pub use wall::DeadlineContract;

use sda_workload::ConfigError;

/// Why the service refused to run (or aborted a run).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Invalid workload/system configuration.
    Config(ConfigError),
    /// The deadline budget the service offers is laxer than the budget
    /// the submitters request — the deadline contract cannot be satisfied
    /// (DDS deadline-compatibility rule: offered must be ≤ requested).
    IncompatibleContract {
        /// The per-task deadline budget the service offers.
        offered: f64,
        /// The per-task deadline budget the submitters request.
        requested: f64,
    },
    /// A runtime parameter is out of range.
    BadParameter {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "{e}"),
            ServiceError::IncompatibleContract { offered, requested } => write!(
                f,
                "incompatible deadline contract: offered budget {offered} exceeds \
                 requested budget {requested}"
            ),
            ServiceError::BadParameter { what, value } => {
                write!(f, "bad service parameter: {what} = {value}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}
