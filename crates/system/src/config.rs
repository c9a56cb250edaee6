//! Top-level system configuration.

use serde::{Deserialize, Serialize};

use sda_core::{NodeId, SdaStrategy};
use sda_sched::Policy;
use sda_sim::rng::Stream;
use sda_workload::{ConfigError, WorkloadConfig};

use crate::failure::FailureModel;

/// What a node does when it is about to dispatch a job whose (virtual)
/// deadline has already passed.
///
/// Table 1's baseline is `NoAbort` ("tardy tasks are not aborted"); the
/// §4.3 extension studies the firm-deadline `AbortTardy` policy, under
/// which a discarded subtask kills its whole global task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OverloadPolicy {
    /// Serve tardy jobs anyway (soft deadlines).
    #[default]
    NoAbort,
    /// Discard jobs that are already past their deadline at dispatch
    /// time (firm deadlines).
    AbortTardy,
}

/// The inter-node message-delay model: what a subtask hand-off costs in
/// transit time.
///
/// The paper assumes communication is free (`Zero`); the other variants
/// open the network-aware scenario axis. Delays apply to every hand-off a
/// global task makes: the process manager's initial fan-out, serial
/// forwarding between stages, parallel fan-out/fan-in, and the final
/// result return to the manager. Local tasks never cross the network.
///
/// `Matrix` is indexed `delays[from][to]` over `nodes + 1` endpoints:
/// indices `0..nodes` are the nodes, index `nodes` is the **process
/// manager** (so manager hops are first-row/last-column entries and
/// same-node forwarding is the diagonal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum NetworkModel {
    /// Free communication — the paper's model. Hand-offs are delivered
    /// inline (no extra events), keeping this configuration bit-identical
    /// to the delay-free implementation.
    #[default]
    Zero,
    /// Every hand-off takes exactly `delay` time units.
    Constant {
        /// The fixed per-hop transit time (finite, ≥ 0).
        delay: f64,
    },
    /// Hand-off delays drawn i.i.d. from an exponential distribution.
    Exponential {
        /// Mean per-hop transit time (finite, > 0).
        mean: f64,
    },
    /// Deterministic per-pair delays, `delays[from][to]`, over
    /// `nodes + 1` endpoints (index `nodes` = the process manager).
    Matrix {
        /// The square delay matrix (entries finite, ≥ 0).
        delays: Vec<Vec<f64>>,
    },
}

impl NetworkModel {
    /// Whether this is the paper's free-communication model.
    pub fn is_zero(&self) -> bool {
        matches!(self, NetworkModel::Zero)
    }

    /// Checks the model's parameters against the node count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for non-finite/negative delays or a matrix
    /// that is not `(nodes + 1) × (nodes + 1)`.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        let out_of_range = |what, constraint, value| {
            Err(ConfigError::OutOfRange {
                what,
                constraint,
                value,
            })
        };
        match self {
            NetworkModel::Zero => Ok(()),
            NetworkModel::Constant { delay } => {
                if delay.is_finite() && *delay >= 0.0 {
                    Ok(())
                } else {
                    out_of_range("network constant delay", "finite and ≥ 0", *delay)
                }
            }
            NetworkModel::Exponential { mean } => {
                if mean.is_finite() && *mean > 0.0 {
                    Ok(())
                } else {
                    out_of_range("network mean delay", "finite and > 0", *mean)
                }
            }
            NetworkModel::Matrix { delays } => {
                let side = nodes + 1;
                if delays.len() != side || delays.iter().any(|row| row.len() != side) {
                    return out_of_range(
                        "network delay matrix",
                        "square over nodes + 1 endpoints",
                        delays.len() as f64,
                    );
                }
                for (i, row) in delays.iter().enumerate() {
                    for (j, &d) in row.iter().enumerate() {
                        if !(d.is_finite() && d >= 0.0) {
                            return Err(ConfigError::InvalidEntry {
                                what: "network delay matrix",
                                index: i * side + j,
                                constraint: "finite and ≥ 0",
                                value: d,
                            });
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// The expected per-hop delay — what deadline-assignment strategies
    /// reserve slack for. For `Matrix` this is the mean over all entries
    /// (a placement-independent approximation; the realized delay is
    /// still the exact pair entry).
    pub fn expected_hop_delay(&self) -> f64 {
        match self {
            NetworkModel::Zero => 0.0,
            NetworkModel::Constant { delay } => *delay,
            NetworkModel::Exponential { mean } => *mean,
            NetworkModel::Matrix { delays } => {
                let n: usize = delays.iter().map(Vec::len).sum();
                if n == 0 {
                    0.0
                } else {
                    delays.iter().flatten().sum::<f64>() / n as f64
                }
            }
        }
    }

    /// Samples the transit time of one hand-off. `None` endpoints denote
    /// the process manager. Only `Exponential` consumes randomness, so
    /// the deterministic variants perturb no RNG stream.
    pub fn sample_delay(&self, from: Option<NodeId>, to: Option<NodeId>, rng: &mut Stream) -> f64 {
        match self {
            NetworkModel::Zero => 0.0,
            NetworkModel::Constant { delay } => *delay,
            NetworkModel::Exponential { mean } => sda_sim::dist::Exponential::with_mean(*mean)
                .expect("validated mean")
                .sample_with(rng),
            NetworkModel::Matrix { delays } => {
                let manager = delays.len() - 1;
                let i = from.map_or(manager, NodeId::index);
                let j = to.map_or(manager, NodeId::index);
                delays[i][j]
            }
        }
    }
}

/// The full experiment configuration: workload, deadline-assignment
/// strategy, local scheduling policy, overload policy and network model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The stochastic workload (Table 1 and variations).
    pub workload: WorkloadConfig,
    /// The SDA strategy under test.
    pub strategy: SdaStrategy,
    /// The local scheduling discipline at every node (baseline: EDF).
    pub policy: Policy,
    /// Overload handling (baseline: no abort).
    pub overload: OverloadPolicy,
    /// Whether node servers preempt the running job when a
    /// higher-priority job arrives (the paper's model is non-preemptive;
    /// this enables the preemption ablation).
    pub preemptive: bool,
    /// Inter-node message delays (baseline: free communication).
    pub network: NetworkModel,
    /// Per-node failure/repair processes (baseline: no failures).
    pub failure: FailureModel,
}

impl SystemConfig {
    /// The §4 SSP baseline (Table 1) under the given strategy.
    pub fn ssp_baseline(strategy: SdaStrategy) -> SystemConfig {
        SystemConfig {
            workload: WorkloadConfig::baseline(),
            strategy,
            policy: Policy::EarliestDeadlineFirst,
            overload: OverloadPolicy::NoAbort,
            preemptive: false,
            network: NetworkModel::Zero,
            failure: FailureModel::None,
        }
    }

    /// The §5 PSP baseline (parallel fans, slack `U[1.25, 5]`).
    pub fn psp_baseline(strategy: SdaStrategy) -> SystemConfig {
        SystemConfig {
            workload: WorkloadConfig::psp_baseline(),
            ..SystemConfig::ssp_baseline(strategy)
        }
    }

    /// The §6 serial-parallel baseline (pipelines of fans).
    pub fn combined_baseline(strategy: SdaStrategy) -> SystemConfig {
        SystemConfig {
            workload: WorkloadConfig::combined_baseline(),
            ..SystemConfig::ssp_baseline(strategy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_use_edf_no_abort() {
        let c = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        assert_eq!(c.policy, Policy::EarliestDeadlineFirst);
        assert_eq!(c.overload, OverloadPolicy::NoAbort);
        assert_eq!(c.workload.nodes, 6);
        let p = SystemConfig::psp_baseline(SdaStrategy::ud_div1());
        assert!(p.workload.shape.has_parallelism());
        let s = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
        assert_eq!(s.workload.shape.expected_subtasks(), 6.0);
    }

    #[test]
    fn overload_default_is_no_abort() {
        assert_eq!(OverloadPolicy::default(), OverloadPolicy::NoAbort);
    }

    #[test]
    fn baselines_use_free_communication() {
        for cfg in [
            SystemConfig::ssp_baseline(SdaStrategy::ud_ud()),
            SystemConfig::psp_baseline(SdaStrategy::ud_div1()),
            SystemConfig::combined_baseline(SdaStrategy::eqf_div1()),
        ] {
            assert!(cfg.network.is_zero());
            assert!(cfg.failure.is_none());
        }
        assert!(NetworkModel::default().is_zero());
        assert!(FailureModel::default().is_none());
    }

    #[test]
    fn network_validation_and_expectations() {
        assert!(NetworkModel::Zero.validate(6).is_ok());
        assert_eq!(NetworkModel::Zero.expected_hop_delay(), 0.0);

        let c = NetworkModel::Constant { delay: 0.5 };
        assert!(c.validate(6).is_ok());
        assert_eq!(c.expected_hop_delay(), 0.5);
        assert!(NetworkModel::Constant { delay: -1.0 }.validate(6).is_err());
        assert!(NetworkModel::Constant {
            delay: f64::INFINITY
        }
        .validate(6)
        .is_err());

        let e = NetworkModel::Exponential { mean: 0.25 };
        assert!(e.validate(6).is_ok());
        assert_eq!(e.expected_hop_delay(), 0.25);
        assert!(NetworkModel::Exponential { mean: 0.0 }.validate(6).is_err());

        // 2 nodes + manager = 3×3.
        let m = NetworkModel::Matrix {
            delays: vec![
                vec![0.0, 1.0, 0.5],
                vec![1.0, 0.0, 0.5],
                vec![0.5, 0.5, 0.0],
            ],
        };
        assert!(m.validate(2).is_ok());
        assert!((m.expected_hop_delay() - 4.0 / 9.0).abs() < 1e-12);
        assert!(m.validate(3).is_err(), "wrong side length");
        let bad = NetworkModel::Matrix {
            delays: vec![
                vec![0.0, 1.0, 0.5],
                vec![1.0, f64::NAN, 0.5],
                vec![0.5, 0.5, 0.0],
            ],
        };
        match bad.validate(2).unwrap_err() {
            ConfigError::InvalidEntry { index, .. } => assert_eq!(index, 4),
            other => panic!("expected InvalidEntry, got {other:?}"),
        }
    }

    #[test]
    fn sampling_matches_the_model() {
        use sda_sim::rng::RngFactory;
        let mut rng = RngFactory::new(7).stream("net-test");
        assert_eq!(
            NetworkModel::Zero.sample_delay(None, Some(NodeId::new(0)), &mut rng),
            0.0
        );
        let c = NetworkModel::Constant { delay: 0.75 };
        assert_eq!(
            c.sample_delay(Some(NodeId::new(1)), Some(NodeId::new(2)), &mut rng),
            0.75
        );
        let m = NetworkModel::Matrix {
            delays: vec![
                vec![0.0, 1.0, 0.5],
                vec![2.0, 0.0, 0.25],
                vec![0.125, 4.0, 0.0],
            ],
        };
        // node 1 → node 0, node 1 → manager, manager → node 1.
        assert_eq!(
            m.sample_delay(Some(NodeId::new(1)), Some(NodeId::new(0)), &mut rng),
            2.0
        );
        assert_eq!(m.sample_delay(Some(NodeId::new(1)), None, &mut rng), 0.25);
        assert_eq!(m.sample_delay(None, Some(NodeId::new(1)), &mut rng), 4.0);
        // Exponential draws are non-negative with roughly the right mean.
        let e = NetworkModel::Exponential { mean: 0.5 };
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| e.sample_delay(None, Some(NodeId::new(0)), &mut rng))
            .sum();
        assert!((sum / f64::from(n) - 0.5).abs() < 0.02);
    }
}
