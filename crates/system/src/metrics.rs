//! Output metrics: the paper's missed-deadline ratios plus the response
//! times behind them.

use serde::{Deserialize, Serialize};

use sda_sim::stats::{Ratio, Tally};

/// Per-class statistics (one for locals, one for globals).
///
/// # Aborted-task semantics
///
/// A task killed by the firm-deadline policy reaches a terminal state
/// without ever *completing*: [`ClassMetrics::record_aborted`] counts it
/// in the missed-deadline ratio (an abort is always a miss) and in
/// [`ClassMetrics::completed`] (terminal states), but it adds **no
/// observation** to the response tally — there is no completion time
/// to measure. Under `OverloadPolicy::AbortTardy` the response
/// statistics are therefore *conditional on completion* (and biased low
/// relative to a hypothetical run-to-completion): compare
/// [`miss_ratio`](ClassMetrics::miss_ratio) across policies, not the
/// response mean.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassMetrics {
    miss: Ratio,
    response: Tally,
}

impl ClassMetrics {
    /// Records a completed task of this class.
    pub fn record(&mut self, arrival: f64, deadline: f64, completion: f64) {
        let missed = completion > deadline;
        self.miss.record(missed);
        self.response.add(completion - arrival);
    }

    /// Records a task discarded by the firm-deadline policy — counts as a
    /// miss with **no** response observation (see the type-level docs for
    /// the exact semantics).
    pub fn record_aborted(&mut self) {
        self.miss.record(true);
    }

    /// The missed-deadline ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        self.miss.fraction()
    }

    /// The missed-deadline percentage — the paper's `MD` measure.
    pub fn miss_percent(&self) -> f64 {
        self.miss.percent()
    }

    /// Number of tasks that reached a terminal state (completed or
    /// aborted).
    pub fn completed(&self) -> u64 {
        self.miss.denominator()
    }

    /// Number of missed deadlines.
    pub fn missed(&self) -> u64 {
        self.miss.numerator()
    }

    /// Response time statistics (completion − arrival).
    pub fn response(&self) -> &Tally {
        &self.response
    }
}

/// All simulation output: per-class metrics, subtask-level virtual
/// deadline accounting, network transit times and abort counts.
///
/// Aborted tasks (firm-deadline policy) are terminal-but-not-completed:
/// they count in `local`/`global` miss ratios and in the `aborted_*`
/// counters, while the response tallies deliberately exclude them — see
/// [`ClassMetrics`] for the full semantics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Statistics over local tasks.
    pub local: ClassMetrics,
    /// Statistics over global tasks (end-to-end).
    pub global: ClassMetrics,
    /// Virtual-deadline misses at the *subtask* level: how often an
    /// individual global subtask finished after its assigned virtual
    /// deadline. Not a paper figure, but explains the end-to-end numbers.
    pub subtask_virtual_miss: Ratio,
    /// Sampled transit time of every networked hand-off (initial
    /// fan-out, inter-stage forwarding, result return). Empty under
    /// `NetworkModel::Zero`, where hand-offs are delivered inline.
    pub transit: Tally,
    /// Global tasks aborted by the firm-deadline policy.
    pub aborted_globals: u64,
    /// Local tasks discarded by the firm-deadline policy.
    pub aborted_locals: u64,
    /// Local tasks destroyed by a node crash (queued or in service when
    /// the node went down, or delivered to a down node). Each one is
    /// terminal: it counts as a miss via `record_aborted` — never in the
    /// response tally — and exactly once here.
    pub lost_locals: u64,
    /// Global *subtask* copies destroyed by a node crash. Unlike lost
    /// locals these are not terminal — the process manager re-dispatches
    /// each one (see `redispatches`) until the retry budget runs out.
    pub lost_subtasks: u64,
    /// Replacement submissions issued for lost subtasks (≤
    /// `lost_subtasks`; smaller when the retry budget abandons a task).
    pub redispatches: u64,
    /// Global tasks abandoned because a lost subtask exhausted its
    /// re-dispatch budget. Terminal like an abort: a miss, no response
    /// observation.
    pub abandoned_globals: u64,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Discards all observations (called at the end of warm-up).
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_metrics_records_misses_and_response() {
        let mut m = ClassMetrics::default();
        m.record(0.0, 10.0, 8.0); // met
        m.record(0.0, 10.0, 12.0); // missed
        assert_eq!(m.completed(), 2);
        assert_eq!(m.missed(), 1);
        assert_eq!(m.miss_percent(), 50.0);
        assert_eq!(m.response().mean(), 10.0);
    }

    #[test]
    fn deadline_boundary_is_a_met_deadline() {
        let mut m = ClassMetrics::default();
        m.record(0.0, 10.0, 10.0);
        assert_eq!(m.missed(), 0);
    }

    #[test]
    fn aborted_counts_as_miss_without_response() {
        let mut m = ClassMetrics::default();
        m.record_aborted();
        assert_eq!(m.completed(), 1);
        assert_eq!(m.missed(), 1);
        assert_eq!(m.response().count(), 0);
    }

    #[test]
    fn aborts_pin_miss_and_response_accounting() {
        // Regression for the documented semantics: aborts move the miss
        // ratio but leave the response tally untouched.
        let mut m = ClassMetrics::default();
        for i in 0..100 {
            m.record(0.0, 10.0, 5.0 + f64::from(i % 10)); // 4 of 10 miss
        }
        let (resp_n, resp_mean) = (m.response().count(), m.response().mean());
        let miss_before = m.miss_ratio();
        for _ in 0..50 {
            m.record_aborted();
        }
        assert_eq!(m.completed(), 150);
        assert_eq!(m.missed(), 40 + 50);
        assert!(m.miss_ratio() > miss_before);
        // Response statistics are conditional on completion: the 50
        // aborts added no observation.
        assert_eq!(m.response().count(), resp_n);
        assert_eq!(m.response().mean(), resp_mean);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.local.record(0.0, 1.0, 2.0);
        m.subtask_virtual_miss.record(true);
        m.aborted_globals = 3;
        m.reset();
        assert_eq!(m, Metrics::default());
    }
}
