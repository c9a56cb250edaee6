//! End-to-end prediction for a full [`SystemConfig`]: one M/G/1 queue
//! per node, composed along the global-task pipeline.
//!
//! # Model
//!
//! Each node is a single-server queue fed by two Poisson classes: its
//! local stream (rate from `local_weights`) and its share of global
//! subtasks (uniform placement). The mixed service distribution's mean,
//! SCV and third moment are computed exactly from the configured
//! [`ServiceVariability`](sda_workload::ServiceVariability) and the
//! node's speed factor, then fed to the node's M/G/1 queue
//! (Pollaczek–Khinchine mean wait, Takács second moment; exact M/M/1
//! when service is exponential and speeds are uniform).
//!
//! The simulator draws deadlines from *actual* execution times
//! (`dl = ar + ex + slack` locally; `dl = ar + critical_path_ex +
//! u * factor` globally), so execution time cancels out of the miss
//! condition: a local task misses iff its wait exceeds its slack draw,
//! and a serial global task misses iff the sum of its per-stage waits
//! plus network delays exceeds `u * factor`. The global delay sum is
//! approximated by a gamma distribution matched to its predicted mean
//! and variance (normal tail for very large shape), averaged over the
//! uniform slack draw by quadrature.
//!
//! # Scope
//!
//! The prediction is exact theory only for FCFS single-class M/M/1
//! nodes and serial pipelines at zero network delay; elsewhere it is a
//! deliberate approximation (it ignores the queueing discipline, treats
//! per-stage waits as independent, and uses the expected slack factor
//! for random-shape tasks). Configurations the model cannot speak to at
//! all — non-Poisson arrivals, adaptive strategies, failure injection,
//! `AbortTardy`, infinite-variance service, service moments that
//! overflow `f64` — return [`PredictError::Unsupported`].

use std::fmt;

use sda_system::{FailureModel, NetworkModel, OverloadPolicy, SystemConfig};
use sda_workload::{ArrivalProcess, ConfigError, GlobalShape};

use crate::mg1::Mg1;
use crate::special::{gamma_q, mean_over_uniform, normal_tail};

/// Why a configuration could not be predicted.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// The configuration is valid but outside the analytic model's
    /// scope (the message names the offending feature).
    Unsupported(&'static str),
    /// The workload configuration itself is invalid.
    Config(ConfigError),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Unsupported(what) => {
                write!(f, "configuration outside analytic scope: {what}")
            }
            PredictError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<ConfigError> for PredictError {
    fn from(e: ConfigError) -> Self {
        PredictError::Config(e)
    }
}

/// Steady-state prediction for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePrediction {
    /// Offered load `lambda * E[S]` (may exceed 1 when saturated).
    pub offered_load: f64,
    /// Predicted busy fraction, `min(offered_load, 1)`.
    pub utilization: f64,
    /// Mean waiting time in queue (infinite when saturated).
    pub mean_wait: f64,
    /// Mean number of jobs waiting in queue (infinite when saturated).
    pub mean_queue_length: f64,
}

/// Closed-form prediction for a full [`SystemConfig`].
///
/// Miss ratios are in percent to match the simulator's
/// `miss_percent()` accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Per-node steady-state results, indexed like the config's nodes.
    pub nodes: Vec<NodePrediction>,
    /// Mean over nodes of the predicted busy fraction.
    pub mean_utilization: f64,
    /// Predicted local-task miss ratio in percent (arrival-rate
    /// weighted across nodes).
    pub local_miss_pct: f64,
    /// Predicted mean local response time (wait + service).
    pub local_response: f64,
    /// Predicted global-task miss ratio in percent; `None` when the
    /// workload has no global tasks.
    pub global_miss_pct: Option<f64>,
    /// Predicted mean global response time; `None` without globals.
    pub global_response: Option<f64>,
    /// Predicted variance of the global response; `None` without
    /// globals.
    pub global_response_var: Option<f64>,
    /// True when at least one node's offered load is >= 1 (no steady
    /// state; misses and responses degenerate).
    pub saturated: bool,
}

impl Prediction {
    /// The miss ratio the analytic screen keys on: the global miss
    /// ratio when the workload has global tasks, else the local one.
    pub fn screen_miss_pct(&self) -> f64 {
        self.global_miss_pct.unwrap_or(self.local_miss_pct)
    }
}

/// Per-node intermediate results.
struct NodeCalc {
    local_rate: f64,
    sub_service_mean: f64,
    rho: f64,
    wait_mean: f64,
    wait_var: f64,
    /// Local-class miss probability (0..=1).
    local_miss: f64,
    /// Local-class mean response (wait + local service).
    local_response: f64,
    mean_queue: f64,
}

/// Predict steady-state metrics for `config` from closed forms alone
/// (no simulation, no RNG).
///
/// # Errors
///
/// [`PredictError::Config`] if the workload fails validation;
/// [`PredictError::Unsupported`] if the configuration is outside the
/// model's scope (see the module docs), including a node whose service
/// or waiting moments are not finite in `f64`. Saturated-but-valid
/// configurations are *not* errors: they return a [`Prediction`] with
/// `saturated == true`, 100% miss on the saturated classes, and
/// infinite waits.
pub fn predict(config: &SystemConfig) -> Result<Prediction, PredictError> {
    let w = &config.workload;
    w.validate()?;
    if !matches!(w.arrivals, ArrivalProcess::Poisson) {
        return Err(PredictError::Unsupported("non-Poisson arrival process"));
    }
    if config.strategy.is_adaptive() {
        return Err(PredictError::Unsupported("adaptive deadline strategy"));
    }
    if !matches!(config.failure, FailureModel::None) {
        return Err(PredictError::Unsupported("failure injection"));
    }
    if matches!(config.overload, OverloadPolicy::AbortTardy) {
        return Err(PredictError::Unsupported("AbortTardy overload policy"));
    }
    let cs2 = w.service.cv2().ok_or(PredictError::Unsupported(
        "service distribution with infinite variance",
    ))?;

    let rates = w.rates()?;
    let k = w.nodes;
    let local_rates = w.local_rates(&rates);
    let sub_rate = rates.lambda_global * w.shape.expected_subtasks() / k as f64;

    let mut nodes = Vec::with_capacity(k);
    let mut saturated = false;
    for i in 0..k {
        let speed = w.node_speeds.as_ref().map_or(1.0, |s| s[i]);
        let s_local = w.mean_local_ex / speed;
        let s_sub = w.mean_subtask_ex / speed;
        let lr = local_rates[i];
        let lam = lr + sub_rate;
        let rho = lr * s_local + sub_rate * s_sub;
        let calc = if lam <= 0.0 {
            NodeCalc {
                local_rate: lr,
                sub_service_mean: s_sub,
                rho: 0.0,
                wait_mean: 0.0,
                wait_var: 0.0,
                local_miss: 0.0,
                local_response: 0.0,
                mean_queue: 0.0,
            }
        } else if rho >= 1.0 {
            saturated = true;
            NodeCalc {
                local_rate: lr,
                sub_service_mean: s_sub,
                rho,
                wait_mean: f64::INFINITY,
                wait_var: f64::INFINITY,
                local_miss: 1.0,
                local_response: f64::INFINITY,
                mean_queue: f64::INFINITY,
            }
        } else {
            // Mixed-class service moments: both classes share the
            // configured variability, so E[S_c^2] = m_c^2 (1 + cs2), and
            // the mixture's third moment is the rate-weighted mix of the
            // class moments (classes differ only in mean).
            let es = rho / lam;
            let es2 = (1.0 + cs2) * (lr * s_local * s_local + sub_rate * s_sub * s_sub) / lam;
            let es3_mix = match (
                w.service.third_moment(s_local),
                w.service.third_moment(s_sub),
            ) {
                (Some(m3_local), Some(m3_sub)) => Some((lr * m3_local + sub_rate * m3_sub) / lam),
                _ => None,
            };
            let q = Mg1::new(lam, es, es2 / (es * es) - 1.0, es3_mix).ok_or(
                PredictError::Unsupported("node queue moments out of f64 range"),
            )?;
            NodeCalc {
                local_rate: lr,
                sub_service_mean: s_sub,
                rho,
                wait_mean: q.mean_wait(),
                wait_var: q.wait_variance(),
                local_miss: q.miss_ratio_uniform_slack(w.slack.min, w.slack.max),
                local_response: q.mean_wait() + s_local,
                mean_queue: q.mean_queue(),
            }
        };
        nodes.push(calc);
    }

    // Local aggregates, arrival-rate weighted.
    let lr_total: f64 = nodes.iter().map(|n| n.local_rate).sum();
    let (local_miss_pct, local_response) = if lr_total > 0.0 {
        (
            100.0
                * nodes
                    .iter()
                    .map(|n| n.local_rate * n.local_miss)
                    .sum::<f64>()
                / lr_total,
            nodes
                .iter()
                .map(|n| n.local_rate * n.local_response)
                .sum::<f64>()
                / lr_total,
        )
    } else {
        (0.0, 0.0)
    };

    // Global composition along the pipeline (uniform node placement).
    let (global_miss_pct, global_response, global_response_var) = if rates.lambda_global > 0.0 {
        let kf = k as f64;
        let wait_mean = nodes.iter().map(|n| n.wait_mean).sum::<f64>() / kf;
        // Law of total variance over the uniformly chosen node.
        let wait_var = nodes.iter().map(|n| n.wait_var).sum::<f64>() / kf
            + nodes
                .iter()
                .map(|n| (n.wait_mean - wait_mean) * (n.wait_mean - wait_mean))
                .sum::<f64>()
                / kf;
        let sub_mean = nodes.iter().map(|n| n.sub_service_mean).sum::<f64>() / kf;
        let sub_var = nodes
            .iter()
            .map(|n| cs2 * n.sub_service_mean * n.sub_service_mean)
            .sum::<f64>()
            / kf
            + nodes
                .iter()
                .map(|n| (n.sub_service_mean - sub_mean) * (n.sub_service_mean - sub_mean))
                .sum::<f64>()
                / kf;

        let cp = w.shape.expected_critical_path_factor();
        let hops = expected_hops(&w.shape);
        let net_mean = hops * config.network.expected_hop_delay();
        let net_var = match config.network {
            NetworkModel::Exponential { mean } => hops * mean * mean,
            _ => 0.0,
        };

        // Queueing + network delay beyond the deadline's built-in
        // critical-path execution budget.
        let d_mean = cp * wait_mean + net_mean;
        let d_var = cp * wait_var + net_var;
        let factor = w.global_slack_factor();
        let miss = mean_over_uniform(w.slack.min, w.slack.max, |u| {
            delay_tail(d_mean, d_var, u * factor)
        });
        let resp_mean = cp * (wait_mean + sub_mean) + net_mean;
        let resp_var = cp * (wait_var + sub_var) + net_var;
        (
            Some(100.0 * miss.clamp(0.0, 1.0)),
            Some(resp_mean),
            Some(resp_var),
        )
    } else {
        (None, None, None)
    };

    let node_predictions: Vec<NodePrediction> = nodes
        .iter()
        .map(|n| NodePrediction {
            offered_load: n.rho,
            utilization: n.rho.min(1.0),
            mean_wait: n.wait_mean,
            mean_queue_length: n.mean_queue,
        })
        .collect();
    let mean_utilization = node_predictions.iter().map(|n| n.utilization).sum::<f64>() / k as f64;

    Ok(Prediction {
        nodes: node_predictions,
        mean_utilization,
        local_miss_pct,
        local_response,
        global_miss_pct,
        global_response,
        global_response_var,
        saturated,
    })
}

/// Expected number of network hops a global task's critical path
/// crosses: manager dispatch, inter-stage hand-offs, and the final
/// report back to the manager.
fn expected_hops(shape: &GlobalShape) -> f64 {
    match *shape {
        GlobalShape::Serial { m } => m as f64 + 1.0,
        GlobalShape::SerialRandomM { min_m, max_m } => (min_m + max_m) as f64 / 2.0 + 1.0,
        GlobalShape::Parallel { .. } => 2.0,
        GlobalShape::SerialParallel { stages, .. } => stages as f64 + 1.0,
        GlobalShape::Dag { depth, .. } => depth as f64 + 1.0,
    }
}

/// `P[D > d]` for the total-delay distribution matched to `(mean,
/// var)` by a gamma fit (normal for very large shape, point mass for
/// zero variance).
fn delay_tail(mean: f64, var: f64, d: f64) -> f64 {
    if !mean.is_finite() {
        return 1.0;
    }
    if mean <= 0.0 {
        return 0.0;
    }
    if d <= 0.0 {
        return 1.0;
    }
    if var <= 1e-12 * mean * mean {
        return if d < mean { 1.0 } else { 0.0 };
    }
    let shape = mean * mean / var;
    if shape > 1e6 {
        normal_tail((d - mean) / var.sqrt())
    } else {
        gamma_q(shape, d / (var / mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::SdaStrategy;
    use sda_workload::ServiceVariability;

    fn baseline() -> SystemConfig {
        SystemConfig::ssp_baseline(SdaStrategy::ud_ud())
    }

    #[test]
    fn jackson_serial_baseline_is_exact_product_form() {
        // Baseline: 6 nodes, load 0.5, frac_local 0.75, exponential
        // service, zero network → each node is M/M/1 at total rate 0.5.
        let p = predict(&baseline()).unwrap();
        assert!(!p.saturated);
        assert_eq!(p.nodes.len(), 6);
        for n in &p.nodes {
            assert!((n.offered_load - 0.5).abs() < 1e-12);
            assert!((n.utilization - 0.5).abs() < 1e-12);
            // M/M/1 at rho 0.5, mu 1: Wq = 1, Lq = 0.5.
            assert!((n.mean_wait - 1.0).abs() < 1e-12);
            assert!((n.mean_queue_length - 0.5).abs() < 1e-12);
        }
        assert!((p.mean_utilization - 0.5).abs() < 1e-12);
        // Local response = Wq + E[S] = 2; global = 4 stages · 2 = 8.
        assert!((p.local_response - 2.0).abs() < 1e-12);
        assert!((p.global_response.unwrap() - 8.0).abs() < 1e-12);
        // Local miss: rho e^{-theta lo}(1-e^{-theta span})/(theta span)
        // with theta = 0.5, lo = 0.25, span = 2.25.
        let expect = 100.0 * 0.5 * (-0.125f64).exp() * (-(-0.5f64 * 2.25).exp_m1()) / (0.5 * 2.25);
        assert!((p.local_miss_pct - expect).abs() < 1e-9);
        let gm = p.global_miss_pct.unwrap();
        assert!(gm > 0.0 && gm < 100.0);
        assert_eq!(p.screen_miss_pct(), gm);
    }

    #[test]
    fn zero_network_equals_no_network_terms() {
        // NetworkModel::Zero and Constant{0} predict identically, and a
        // positive constant delay shifts the global response by exactly
        // hops · delay while leaving local metrics untouched.
        let base = predict(&baseline()).unwrap();
        let mut zeroed = baseline();
        zeroed.network = NetworkModel::Constant { delay: 0.0 };
        assert_eq!(predict(&zeroed).unwrap(), base);

        let mut delayed = baseline();
        delayed.network = NetworkModel::Constant { delay: 0.3 };
        let p = predict(&delayed).unwrap();
        assert!((p.local_response - base.local_response).abs() < 1e-12);
        assert!((p.local_miss_pct - base.local_miss_pct).abs() < 1e-12);
        // Serial m=4 → 5 hops.
        assert!(
            (p.global_response.unwrap() - (base.global_response.unwrap() + 5.0 * 0.3)).abs()
                < 1e-12
        );
        assert!(p.global_miss_pct.unwrap() > base.global_miss_pct.unwrap());
    }

    #[test]
    fn local_only_workload_has_no_global_prediction() {
        let mut cfg = baseline();
        cfg.workload.frac_local = 1.0;
        let p = predict(&cfg).unwrap();
        assert_eq!(p.global_miss_pct, None);
        assert_eq!(p.global_response, None);
        assert_eq!(p.global_response_var, None);
        // Screen falls back to the local prediction.
        assert_eq!(p.screen_miss_pct(), p.local_miss_pct);
        // Each node is M/M/1 at rho = 0.5 again.
        assert!((p.nodes[0].mean_wait - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_increases_with_load() {
        let mut last = -1.0;
        for &load in &[0.3, 0.5, 0.7, 0.9] {
            let mut cfg = baseline();
            cfg.workload.load = load;
            let p = predict(&cfg).unwrap();
            let miss = p.global_miss_pct.unwrap();
            assert!(miss > last, "global miss not increasing at load {load}");
            last = miss;
        }
    }

    #[test]
    fn deterministic_service_waits_less_than_exponential() {
        let mut det = baseline();
        det.workload.service = ServiceVariability::Deterministic;
        let exp = predict(&baseline()).unwrap();
        let p = predict(&det).unwrap();
        assert!(p.local_response < exp.local_response);
        assert!(p.local_miss_pct < exp.local_miss_pct);
    }

    #[test]
    fn saturated_slow_node_degenerates_gracefully() {
        let mut cfg = baseline();
        // Node 0 at speed 0.4 sees offered load 0.5/0.4 = 1.25.
        cfg.workload.node_speeds = Some(vec![0.4, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let p = predict(&cfg).unwrap();
        assert!(p.saturated);
        assert!((p.nodes[0].offered_load - 1.25).abs() < 1e-12);
        assert!((p.nodes[0].utilization - 1.0).abs() < 1e-12);
        assert!(p.nodes[0].mean_wait.is_infinite());
        assert!(p.local_response.is_infinite());
        assert_eq!(p.global_miss_pct, Some(100.0));
        assert!(p.global_response.unwrap().is_infinite());
        // Unsaturated nodes keep finite predictions.
        assert!(p.nodes[1].mean_wait.is_finite());
        assert!(p.local_miss_pct < 100.0);
    }

    #[test]
    fn weighted_locals_shift_load_between_nodes() {
        let mut cfg = baseline();
        cfg.workload.local_weights = Some(vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let p = predict(&cfg).unwrap();
        assert!(p.nodes[0].offered_load > p.nodes[1].offered_load);
        // Total offered load is conserved.
        let total: f64 = p.nodes.iter().map(|n| n.offered_load).sum();
        assert!((total - 3.0).abs() < 1e-12);
        // Uniform explicit weights match the default exactly.
        let mut uniform = baseline();
        uniform.workload.local_weights = Some(vec![1.0; 6]);
        assert_eq!(predict(&uniform).unwrap(), predict(&baseline()).unwrap());
    }

    #[test]
    fn out_of_scope_configurations_are_rejected() {
        let mut mmpp = baseline();
        mmpp.workload.arrivals = ArrivalProcess::Mmpp2 {
            burst_ratio: 4.0,
            dwell_quiet: 100.0,
            dwell_burst: 20.0,
        };
        assert!(matches!(
            predict(&mmpp),
            Err(PredictError::Unsupported("non-Poisson arrival process"))
        ));

        let mut abort = baseline();
        abort.overload = OverloadPolicy::AbortTardy;
        assert!(matches!(predict(&abort), Err(PredictError::Unsupported(_))));

        let mut failing = baseline();
        failing.failure = FailureModel::Exponential {
            mttf: 1000.0,
            mttr: 50.0,
        };
        assert!(matches!(
            predict(&failing),
            Err(PredictError::Unsupported(_))
        ));

        let mut heavy = baseline();
        heavy.workload.service = ServiceVariability::Pareto { alpha: 1.5 };
        assert!(matches!(predict(&heavy), Err(PredictError::Unsupported(_))));

        let mut adaptive = baseline();
        adaptive.strategy =
            SdaStrategy::adaptive(SdaStrategy::ud_ud(), sda_core::AdaptiveSlack::default());
        assert!(matches!(
            predict(&adaptive),
            Err(PredictError::Unsupported("adaptive deadline strategy"))
        ));

        let mut invalid = baseline();
        invalid.workload.load = 0.0;
        assert!(matches!(predict(&invalid), Err(PredictError::Config(_))));

        // A valid but huge local mean M overflows f64: the local class's
        // E[S³] = 6 M³ at 1e150, and without a third moment (Pareto 2.5)
        // the waiting second moment at 1e160. The prediction is refused,
        // not returned as 100 % or NaN.
        for (mean, service) in [
            (1e150, ServiceVariability::Exponential),
            (1e160, ServiceVariability::Exponential),
            (1e160, ServiceVariability::Pareto { alpha: 2.5 }),
        ] {
            let mut huge = baseline();
            huge.workload.mean_local_ex = mean;
            huge.workload.service = service;
            assert!(
                matches!(predict(&huge), Err(PredictError::Unsupported(_))),
                "{service:?} at mean_local_ex {mean:e}"
            );
        }
    }

    /// Pins `predict()` bit for bit, so that a later model (an EDF
    /// lead-time model, say) can show it left these FCFS predictions
    /// unchanged. Each row pins `local_miss_pct`, `screen_miss_pct()`
    /// and `global_response` as `f64::to_bits`.
    #[test]
    fn predictions_are_pinned_bit_for_bit() {
        fn with(mut cfg: SystemConfig, edit: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
            edit(&mut cfg);
            cfg
        }
        let ssp = baseline;
        let psp = || SystemConfig::psp_baseline(SdaStrategy::ud_div1());
        let combined = || SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
        let erlang4 = ServiceVariability::Erlang { stages: 4 };
        // `speed_ramp(6, 0.4)` of the network experiments: 0.6 … 1.4.
        let ramp: Vec<f64> = (0..6)
            .map(|i| 1.0 + 0.4 * (2.0 * f64::from(i) / 5.0 - 1.0))
            .collect();
        let dag = GlobalShape::Dag {
            depth: 4,
            max_width: 3,
            edge_density: 0.3,
        };
        let rows: [(&str, SystemConfig, u64, u64, Option<u64>); 13] = [
            (
                "ssp M/M/1",
                ssp(),
                0x403a7d10d4172213,
                0x403fd596a642e1e8,
                Some(0x4020000000000000),
            ),
            (
                "ssp load 0.85",
                with(ssp(), |c| c.workload.load = 0.85),
                0x40515f2e9d87504b,
                0x4057b6072db16fa8,
                Some(0x403aaaaaaaaaaaa9),
            ),
            (
                "ssp Erlang-4 (gamma tail)",
                with(ssp(), |c| c.workload.service = erlang4),
                0x4033aa5e777e2b2c,
                0x4031b4f1f2ce9769,
                Some(0x401a000000000000),
            ),
            (
                "ssp Pareto 2.5 (exponential tail)",
                with(ssp(), |c| {
                    c.workload.service = ServiceVariability::Pareto { alpha: 2.5 }
                }),
                0x4038d6c231f2d43e,
                0x403c57112a1e6044,
                Some(0x401e666666666666),
            ),
            (
                "ssp deterministic",
                with(ssp(), |c| {
                    c.workload.service = ServiceVariability::Deterministic
                }),
                0x40300ef9968e3258,
                0x4028f44c88f650d5,
                Some(0x4018000000000000),
            ),
            (
                "ssp constant network 0.5",
                with(ssp(), |c| c.network = NetworkModel::Constant { delay: 0.5 }),
                0x403a7d10d4172213,
                0x404c51cf06dd3e32,
                Some(0x4025000000000000),
            ),
            (
                "ssp lognormal, exponential network",
                with(ssp(), |c| {
                    c.workload.service = ServiceVariability::LogNormal { cv2: 2.0 };
                    c.network = NetworkModel::Exponential { mean: 0.5 };
                }),
                0x4039ee6dcba59c38,
                0x404e6c5798356b8c,
                Some(0x4029000000000000),
            ),
            (
                "ssp local weights 1..6, rel_flex 2",
                with(ssp(), |c| {
                    c.workload.local_weights = Some((1..=6).map(f64::from).collect());
                    c.workload.rel_flex = 2.0;
                }),
                0x40429c0aee4b0d94,
                0x4033ff1541ba35ef,
                Some(0x4022d2b8fddd88e4),
            ),
            (
                "ssp saturated node 0",
                with(ssp(), |c| {
                    c.workload.node_speeds = Some(vec![0.4, 1.0, 1.0, 1.0, 1.0, 1.0]);
                }),
                0x40435ec70309a387,
                0x4059000000000000,
                Some(0x7ff0000000000000),
            ),
            (
                "psp Erlang-2",
                with(psp(), |c| {
                    c.workload.service = ServiceVariability::Erlang { stages: 2 }
                }),
                0x401f3ffb83053a72,
                0x40318f744e3962b4,
                Some(0x400d2aaaaaaaaaaa),
            ),
            (
                "combined speed_ramp",
                with(combined(), |c| c.workload.node_speeds = Some(ramp)),
                0x4034f4b5b9e07ddc,
                0x403bdd986605161c,
                Some(0x4028f338d3da6f92),
            ),
            (
                "combined DAG, Pareto 4, load 0.7",
                with(combined(), |c| {
                    c.workload.shape = dag;
                    c.workload.service = ServiceVariability::Pareto { alpha: 4.0 };
                    c.workload.load = 0.7;
                }),
                0x402f02bcd701ab5e,
                0x40343b55c9dc00a6,
                Some(0x402ab8e38e38e38b),
            ),
            (
                "local only, Erlang-4",
                with(ssp(), |c| {
                    c.workload.frac_local = 1.0;
                    c.workload.service = erlang4;
                }),
                0x4033aa5e777e2b2d,
                0x4033aa5e777e2b2d,
                None,
            ),
        ];
        for (name, cfg, local, screen, global) in &rows {
            let p = predict(cfg).unwrap();
            assert_eq!(p.local_miss_pct.to_bits(), *local, "{name}: local_miss_pct");
            assert_eq!(
                p.screen_miss_pct().to_bits(),
                *screen,
                "{name}: screen_miss_pct"
            );
            assert_eq!(
                p.global_response.map(f64::to_bits),
                *global,
                "{name}: global_response"
            );
        }
    }

    #[test]
    fn errors_display_nonempty() {
        let mut invalid = baseline();
        invalid.workload.load = 0.0;
        for e in [
            PredictError::Unsupported("x"),
            predict(&invalid).unwrap_err(),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn delay_tail_edge_cases() {
        assert_eq!(delay_tail(f64::INFINITY, f64::INFINITY, 5.0), 1.0);
        assert_eq!(delay_tail(0.0, 0.0, 5.0), 0.0);
        assert_eq!(delay_tail(4.0, 0.0, 3.0), 1.0);
        assert_eq!(delay_tail(4.0, 0.0, 5.0), 0.0);
        assert_eq!(delay_tail(4.0, 2.0, 0.0), 1.0);
        // Exponential case (shape 1): mean 2, var 4 → P[D>d] = e^{-d/2}.
        let got = delay_tail(2.0, 4.0, 3.0);
        assert!((got - (-1.5f64).exp()).abs() < 1e-12);
    }
}
