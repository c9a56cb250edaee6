//! Output statistics: tallies, time-weighted integrals, confidence
//! intervals and replication analysis.
//!
//! The paper reports missed-deadline percentages with 95% confidence
//! intervals (±0.35 percentage points at their run lengths) from two
//! independent runs per data point. This module provides the machinery to
//! do the same, generalized to any number of replications:
//!
//! * [`Tally`] — streaming mean/variance/min/max (Welford's algorithm),
//! * [`TimeWeighted`] — integrals of piecewise-constant signals
//!   (utilization, queue length),
//! * [`Ratio`] — numerator/denominator counters for miss ratios,
//! * [`Replications`] — across-run mean ± half-width at 95% confidence
//!   (Student t).

mod ci;
mod ratio;
mod replication;
mod tally;
mod timeweighted;

pub use ci::ConfidenceInterval;
pub use ratio::Ratio;
pub use replication::Replications;
pub use tally::Tally;
pub use timeweighted::TimeWeighted;
