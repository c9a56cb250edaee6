//! Fault injection: per-node failure/repair processes.
//!
//! The paper assumes a fixed, always-healthy node set. [`FailureModel`]
//! lifts that assumption: each node alternates between *up* and *down*
//! according to either a stochastic exponential MTTF/MTTR process or a
//! deterministic scripted trace (the latter exists so failure scenarios
//! can be golden-pinned bit-exactly).
//!
//! [`FailureTimeline`] is the runtime view: a per-node scalar state
//! machine producing the sequence of `[down, up)` outage intervals. The
//! exponential variant draws every node's gaps from a dedicated named
//! RNG stream (`system.failure.{i}`), so each node's outages are the
//! same whatever order the nodes are queried in, and a churn run is
//! reproducible bit for bit from its seed.

use serde::{Deserialize, Serialize};

use sda_sim::dist::Exponential;
use sda_sim::rng::{RngFactory, Stream};
use sda_workload::ConfigError;

/// One scripted outage: node `node` is down over `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DownInterval {
    /// Index of the failing node (must be `< nodes`).
    pub node: usize,
    /// Failure instant (finite, ≥ 0).
    pub from: f64,
    /// Repair instant (finite, > `from`). The node is back up *at*
    /// `until` — the interval is half-open.
    pub until: f64,
}

/// Per-node failure/repair process (default: no failures).
///
/// Failures are *crash* failures: a node going down loses its queue and
/// whatever it was serving, and in-flight hand-offs addressed to it are
/// lost (see the model layer's `NodeDown` handling). Repair brings the
/// node back with empty queues.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum FailureModel {
    /// No failures — every prior configuration is bit-identical under
    /// this default.
    #[default]
    None,
    /// Every node independently alternates up/down with exponentially
    /// distributed time-to-failure and time-to-repair.
    Exponential {
        /// Mean time to failure (finite, > 0), measured from the moment
        /// the node (re)joins.
        mttf: f64,
        /// Mean time to repair (finite, > 0).
        mttr: f64,
    },
    /// A deterministic trace of outages, for golden pinning and
    /// regression scenarios.
    Scripted {
        /// The outage intervals; per node they must be non-overlapping
        /// (any order is accepted, the runtime timeline sorts per node).
        downs: Vec<DownInterval>,
    },
}

impl FailureModel {
    /// Whether this is the failure-free default.
    pub fn is_none(&self) -> bool {
        matches!(self, FailureModel::None)
    }

    /// Checks the model's parameters against the node count.
    ///
    /// # Errors
    ///
    /// Returns an indexed [`ConfigError::InvalidEntry`] for non-positive
    /// or non-finite MTTF/MTTR (index 0 = MTTF, 1 = MTTR), a scripted
    /// node index out of range, a malformed interval, or two overlapping
    /// intervals on the same node (reported at the later entry's index).
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        let entry = |what, index, constraint, value| {
            Err(ConfigError::InvalidEntry {
                what,
                index,
                constraint,
                value,
            })
        };
        match self {
            FailureModel::None => Ok(()),
            FailureModel::Exponential { mttf, mttr } => {
                if !(mttf.is_finite() && *mttf > 0.0) {
                    return entry("failure model", 0, "MTTF finite and > 0", *mttf);
                }
                if !(mttr.is_finite() && *mttr > 0.0) {
                    return entry("failure model", 1, "MTTR finite and > 0", *mttr);
                }
                Ok(())
            }
            FailureModel::Scripted { downs } => {
                for (i, d) in downs.iter().enumerate() {
                    if d.node >= nodes {
                        return entry("failure trace", i, "node index < node count", d.node as f64);
                    }
                    if !(d.from.is_finite() && d.from >= 0.0 && d.until.is_finite()) {
                        return entry("failure trace", i, "finite interval with from ≥ 0", d.from);
                    }
                    if d.from >= d.until {
                        return entry("failure trace", i, "from < until", d.until - d.from);
                    }
                    for e in &downs[..i] {
                        if e.node == d.node && d.from < e.until && e.from < d.until {
                            return entry(
                                "failure trace",
                                i,
                                "non-overlapping intervals per node",
                                d.from,
                            );
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// Per-node churn state: the source of the node's outage sequence.
#[derive(Debug, Clone)]
enum NodeChurn {
    /// This node never fails.
    Healthy,
    /// Exponential alternation. Each outage takes two draws from the
    /// node's dedicated stream (gap, then repair), starting from
    /// `last_up`, the end of the previous outage (0 before the first).
    Exponential {
        last_up: f64,
        fail: Exponential,
        repair: Exponential,
        rng: Stream,
    },
    /// Scripted outages, sorted by `from`; `cursor` is the
    /// [`FailureTimeline::next_outage`] position.
    Scripted {
        intervals: Vec<(f64, f64)>,
        cursor: usize,
    },
}

/// The runtime outage sequence of every node, derived from a
/// [`FailureModel`] and an [`RngFactory`], consumed in order through
/// [`FailureTimeline::next_outage`] (the model uses it to schedule
/// `NodeDown`/`NodeUp` events). Independent copies built from the same
/// model and factory agree bit-exactly.
#[derive(Debug, Clone)]
pub(crate) struct FailureTimeline {
    nodes: Vec<NodeChurn>,
}

impl FailureTimeline {
    /// Builds the timeline for `nodes` nodes. The exponential variant
    /// draws each node's outages from its dedicated stream as they are
    /// consumed; the scripted variant sorts each node's intervals once.
    ///
    /// The model must already be validated (see
    /// [`FailureModel::validate`]).
    pub fn new(model: &FailureModel, nodes: usize, rng: &RngFactory) -> FailureTimeline {
        let churn = match model {
            FailureModel::None => vec![NodeChurn::Healthy; nodes],
            FailureModel::Exponential { mttf, mttr } => {
                let fail = Exponential::with_mean(*mttf).expect("validated MTTF");
                let repair = Exponential::with_mean(*mttr).expect("validated MTTR");
                (0..nodes)
                    .map(|i| NodeChurn::Exponential {
                        last_up: 0.0,
                        fail,
                        repair,
                        rng: rng.stream_indexed("system.failure", i),
                    })
                    .collect()
            }
            FailureModel::Scripted { downs } => {
                let mut per_node: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nodes];
                for d in downs {
                    per_node[d.node].push((d.from, d.until));
                }
                per_node
                    .into_iter()
                    .map(|mut intervals| {
                        if intervals.is_empty() {
                            NodeChurn::Healthy
                        } else {
                            intervals.sort_by(|a, b| {
                                a.0.partial_cmp(&b.0).expect("validated finite interval")
                            });
                            NodeChurn::Scripted {
                                intervals,
                                cursor: 0,
                            }
                        }
                    })
                    .collect()
            }
        };
        FailureTimeline { nodes: churn }
    }

    /// Number of nodes covered.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the timeline covers zero nodes.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Consumes and returns node `node`'s next outage `[down, up)`, or
    /// `None` when the node never fails again. Exponential nodes always
    /// have a next outage; scripted nodes run out.
    pub(crate) fn next_outage(&mut self, node: usize) -> Option<(f64, f64)> {
        match &mut self.nodes[node] {
            NodeChurn::Healthy => None,
            NodeChurn::Exponential {
                last_up,
                fail,
                repair,
                rng,
            } => {
                let down = *last_up + fail.sample_with(rng);
                let up = down + repair.sample_with(rng);
                *last_up = up;
                Some((down, up))
            }
            NodeChurn::Scripted { intervals, cursor } => {
                let out = intervals.get(*cursor).copied();
                if out.is_some() {
                    *cursor += 1;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(node: usize, from: f64, until: f64) -> DownInterval {
        DownInterval { node, from, until }
    }

    #[test]
    fn none_is_default_and_always_valid() {
        assert!(FailureModel::default().is_none());
        assert!(FailureModel::None.validate(0).is_ok());
        let mut tl = FailureTimeline::new(&FailureModel::None, 3, &RngFactory::new(1));
        assert_eq!(tl.len(), 3);
        assert!(!tl.is_empty());
        for i in 0..3 {
            assert_eq!(tl.next_outage(i), None);
        }
    }

    #[test]
    fn exponential_parameters_are_validated() {
        assert!(FailureModel::Exponential {
            mttf: 100.0,
            mttr: 5.0
        }
        .validate(6)
        .is_ok());
        for (mttf, mttr, index) in [
            (0.0, 5.0, 0),
            (-1.0, 5.0, 0),
            (f64::NAN, 5.0, 0),
            (f64::INFINITY, 5.0, 0),
            (100.0, 0.0, 1),
            (100.0, -2.0, 1),
            (100.0, f64::NAN, 1),
        ] {
            match (FailureModel::Exponential { mttf, mttr }).validate(6) {
                Err(ConfigError::InvalidEntry { index: i, .. }) => assert_eq!(i, index),
                other => panic!("expected InvalidEntry at {index}, got {other:?}"),
            }
        }
    }

    #[test]
    fn scripted_traces_are_validated() {
        assert!(FailureModel::Scripted {
            downs: vec![down(0, 1.0, 2.0), down(1, 1.5, 2.5), down(0, 2.0, 3.0)]
        }
        .validate(2)
        .is_ok());
        // Out-of-range node index.
        match (FailureModel::Scripted {
            downs: vec![down(0, 1.0, 2.0), down(2, 1.0, 2.0)],
        })
        .validate(2)
        {
            Err(ConfigError::InvalidEntry { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected InvalidEntry, got {other:?}"),
        }
        // Degenerate and reversed intervals.
        assert!(FailureModel::Scripted {
            downs: vec![down(0, 2.0, 2.0)]
        }
        .validate(2)
        .is_err());
        assert!(FailureModel::Scripted {
            downs: vec![down(0, 3.0, 2.0)]
        }
        .validate(2)
        .is_err());
        assert!(FailureModel::Scripted {
            downs: vec![down(0, -1.0, 2.0)]
        }
        .validate(2)
        .is_err());
        assert!(FailureModel::Scripted {
            downs: vec![down(0, f64::NAN, 2.0)]
        }
        .validate(2)
        .is_err());
        // Overlap on the same node is rejected at the later entry...
        match (FailureModel::Scripted {
            downs: vec![down(0, 1.0, 3.0), down(1, 1.0, 9.0), down(0, 2.5, 4.0)],
        })
        .validate(2)
        {
            Err(ConfigError::InvalidEntry { index, .. }) => assert_eq!(index, 2),
            other => panic!("expected InvalidEntry, got {other:?}"),
        }
        // ...but back-to-back intervals (shared endpoint) are fine.
        assert!(FailureModel::Scripted {
            downs: vec![down(0, 1.0, 2.0), down(0, 2.0, 3.0)]
        }
        .validate(1)
        .is_ok());
    }

    #[test]
    fn scripted_timeline_replays_the_trace_in_order() {
        let model = FailureModel::Scripted {
            downs: vec![down(1, 5.0, 6.0), down(1, 1.0, 2.0), down(0, 3.0, 4.0)],
        };
        let mut tl = FailureTimeline::new(&model, 3, &RngFactory::new(9));
        // Node 1's intervals come back sorted regardless of trace order.
        assert_eq!(tl.next_outage(1), Some((1.0, 2.0)));
        assert_eq!(tl.next_outage(1), Some((5.0, 6.0)));
        assert_eq!(tl.next_outage(1), None);
        assert_eq!(tl.next_outage(0), Some((3.0, 4.0)));
        assert_eq!(tl.next_outage(2), None, "untouched node never fails");
    }

    #[test]
    fn independent_copies_agree_bit_exactly() {
        let model = FailureModel::Exponential {
            mttf: 50.0,
            mttr: 4.0,
        };
        let factory = RngFactory::new(0xFA11);
        let mut a = FailureTimeline::new(&model, 4, &factory);
        let mut b = FailureTimeline::new(&model, 4, &factory);
        // Query `a` in node order, `b` in a scrambled per-node pattern:
        // the per-node streams make the draws interleaving-independent.
        let mut outages_a = Vec::new();
        for node in 0..4 {
            for _ in 0..8 {
                outages_a.push((node, a.next_outage(node).unwrap()));
            }
        }
        let mut outages_b = vec![Vec::new(); 4];
        for round in 0..8 {
            for node in (0..4).rev() {
                let _ = round;
                outages_b[node].push(b.next_outage(node).unwrap());
            }
        }
        for (node, (d, u)) in outages_a {
            let (bd, bu) = outages_b[node].remove(0);
            assert_eq!(d.to_bits(), bd.to_bits());
            assert_eq!(u.to_bits(), bu.to_bits());
        }
    }

    #[test]
    fn exponential_outages_are_ordered_and_positive() {
        let model = FailureModel::Exponential {
            mttf: 100.0,
            mttr: 10.0,
        };
        let mut tl = FailureTimeline::new(&model, 2, &RngFactory::new(7));
        let mut prev_up = 0.0;
        for _ in 0..100 {
            let (d, u) = tl.next_outage(0).unwrap();
            assert!(d >= prev_up, "outages must not overlap");
            assert!(u > d, "repair strictly after failure");
            prev_up = u;
        }
    }
}
