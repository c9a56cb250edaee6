//! The five task attributes of the paper's model (§3.1).

use serde::{Deserialize, Serialize};

/// The real-time attributes of a task `X`:
/// arrival `ar(X)`, deadline `dl(X)`, real execution time `ex(X)` and
/// predicted execution time `pex(X)`.
///
/// Slack is derived, per the paper's identity
/// `sl(X) = dl(X) − ar(X) − ex(X)`.
///
/// # Examples
///
/// ```
/// use sda_core::TaskAttributes;
///
/// let x = TaskAttributes::from_slack(10.0, 2.0, 3.0); // ar, ex, slack
/// assert_eq!(x.deadline, 15.0);
/// assert_eq!(x.slack(), 3.0);
/// assert_eq!(x.pex, 2.0); // prediction defaults to perfect
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskAttributes {
    /// Arrival time `ar(X)`.
    pub arrival: f64,
    /// Absolute deadline `dl(X)`.
    pub deadline: f64,
    /// Real execution time `ex(X)`; not observable by strategies.
    pub ex: f64,
    /// Predicted execution time `pex(X)`; what strategies may use.
    pub pex: f64,
}

impl TaskAttributes {
    /// Builds attributes from arrival, execution time and slack, deriving
    /// the deadline as `ar + ex + sl`. Prediction starts perfect
    /// (`pex = ex`); set [`TaskAttributes::pex`] to model estimation
    /// error.
    pub fn from_slack(arrival: f64, ex: f64, slack: f64) -> TaskAttributes {
        TaskAttributes {
            arrival,
            deadline: arrival + ex + slack,
            ex,
            pex: ex,
        }
    }

    /// The slack `sl(X) = dl − ar − ex`.
    pub fn slack(&self) -> f64 {
        self.deadline - self.arrival - self.ex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_hold() {
        let x = TaskAttributes::from_slack(1.0, 2.0, 0.5);
        assert_eq!(x.deadline, 3.5);
        assert_eq!(x.slack(), 0.5);
        let mispredicted = TaskAttributes { pex: 3.0, ..x };
        assert_eq!(mispredicted.slack(), 0.5, "slack uses real ex");
    }
}
