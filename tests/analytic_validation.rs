//! Sim-vs-theory cross-validation: on configurations where the closed
//! forms in `sda-analytic` are *exact* (M/M/1 and M/G/1 nodes, FCFS,
//! product-form pipelines at zero network delay), the simulator's
//! replicated estimates must bracket the analytic prediction within
//! their own 95% confidence half-widths.
//!
//! This is a two-sided check: it catches simulator bugs (arrivals,
//! service, miss accounting) *and* predictor bugs (rate derivation,
//! queueing formulas, slack handling) in one shot, because the two
//! implementations share nothing but the `SystemConfig`.

use sda::analytic::{predict, Prediction};
use sda::core::SdaStrategy;
use sda::sched::Policy;
use sda::sim::stats::Replications;
use sda::system::{run_replications, ReplicatedResult, RunConfig, SystemConfig};
use sda::workload::ServiceVariability;

/// Replication scale: enough horizon that finite-run bias is well below
/// the across-replication half-widths, few enough reps to stay fast in
/// debug CI.
fn run_cfg(seed: u64) -> RunConfig {
    RunConfig {
        warmup: 4_000.0,
        duration: 60_000.0,
        seed,
        order_fuzz: 0,
    }
}

const REPS: usize = 6;

/// Asserts the analytic value lies inside the replication CI.
fn assert_within_ci(what: &str, analytic: f64, reps: &Replications) {
    let ci = reps
        .confidence_interval()
        .expect("at least two replications");
    assert!(
        (analytic - ci.mean).abs() <= ci.half_width,
        "{what}: analytic {analytic:.4} outside sim CI {:.4} ± {:.4}",
        ci.mean,
        ci.half_width
    );
}

/// How strictly the *miss-ratio* prediction is held to the sim.
enum MissCheck {
    /// Exponential wait tails (M/M/1): the closed form is exact, so the
    /// analytic value must sit inside the CI like every other metric.
    Exact,
    /// Non-exponential service: the mean wait (Pollaczek–Khinchine)
    /// and second waiting moment (Takács) are exact, but the miss
    /// ratio interpolates the wait *distribution* with a two-moment
    /// gamma fit, so it gets a single modestly looser band — within 3
    /// half-widths of the replication CI.
    Approximate,
}

fn validate_locals(
    what: &str,
    cfg: &SystemConfig,
    seed: u64,
    miss: MissCheck,
) -> (Prediction, ReplicatedResult) {
    let pred = predict(cfg).unwrap_or_else(|e| panic!("{what}: predict failed: {e}"));
    assert!(!pred.saturated, "{what}: validation configs are stable");
    let sim = run_replications(cfg, &run_cfg(seed), REPS).unwrap();
    match miss {
        MissCheck::Exact => assert_within_ci(
            &format!("{what} local miss %"),
            pred.local_miss_pct,
            &sim.local_miss_pct,
        ),
        MissCheck::Approximate => {
            let ci = sim.local_miss_pct.confidence_interval().unwrap();
            let tol = 3.0 * ci.half_width;
            assert!(
                (pred.local_miss_pct - ci.mean).abs() <= tol,
                "{what} local miss %: analytic {:.2}% vs sim {:.2}% ± {:.2}%",
                pred.local_miss_pct,
                ci.mean,
                ci.half_width
            );
        }
    }
    assert_within_ci(
        &format!("{what} local response"),
        pred.local_response,
        &sim.local_response,
    );
    assert_within_ci(
        &format!("{what} utilization"),
        pred.mean_utilization,
        &sim.utilization,
    );
    (pred, sim)
}

/// Single node, locals only, FCFS: exactly an M/M/1 queue.
fn mm1_config(rho: f64) -> SystemConfig {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    cfg.workload.nodes = 1;
    cfg.workload.frac_local = 1.0;
    cfg.workload.load = rho;
    cfg.policy = Policy::Fcfs;
    cfg
}

#[test]
fn mm1_moderate_load_matches_theory_within_ci() {
    let cfg = mm1_config(0.5);
    let (pred, _) = validate_locals("M/M/1 rho=0.5", &cfg, 0xA11C_0001, MissCheck::Exact);
    // Sanity-pin the closed forms themselves: Wq = rho/(mu-lambda) = 1,
    // E[R] = Wq + E[S] = 2 at rho = 0.5, mu = 1.
    assert!((pred.nodes[0].mean_wait - 1.0).abs() < 1e-12);
    assert!((pred.local_response - 2.0).abs() < 1e-12);
}

#[test]
fn mm1_heavy_load_matches_theory_within_ci() {
    // rho = 0.8 stresses the tail formulas where small rate errors blow
    // up: E[W] = 4, and the miss ratio is dominated by the exponential
    // wait tail.
    let cfg = mm1_config(0.8);
    let (pred, _) = validate_locals("M/M/1 rho=0.8", &cfg, 0xA11C_0002, MissCheck::Exact);
    assert!((pred.nodes[0].mean_wait - 4.0).abs() < 1e-12);
}

#[test]
fn mg1_erlang_service_matches_pollaczek_khinchine_within_ci() {
    // Erlang-4 service (SCV = 1/4) at rho = 0.6: the node's M/G/1
    // queue gives the exact Pollaczek–Khinchine mean wait, and the miss
    // prediction rides the gamma-matched tail (exact Takács second
    // moment), so only the shape interpolation beyond two moments is
    // approximate.
    let mut cfg = mm1_config(0.6);
    cfg.workload.service = ServiceVariability::Erlang { stages: 4 };
    let (pred, _) = validate_locals(
        "M/G/1 Erlang-4 rho=0.6",
        &cfg,
        0xA11C_0003,
        MissCheck::Approximate,
    );
    // P-K: Wq = rho/(1-rho) * (1+cs2)/2 * E[S] = 1.5 * 0.625 = 0.9375.
    assert!((pred.nodes[0].mean_wait - 0.9375).abs() < 1e-12);
}

#[test]
fn homogeneous_nodes_are_independent_mm1_queues_within_ci() {
    // Six identical nodes fed only by local streams are six independent
    // M/M/1 queues; the aggregate metrics must match a single queue.
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    cfg.workload.frac_local = 1.0;
    cfg.workload.load = 0.7;
    cfg.policy = Policy::Fcfs;
    let (pred, _) = validate_locals(
        "6-node homogeneous rho=0.7",
        &cfg,
        0xA11C_0004,
        MissCheck::Exact,
    );
    for n in &pred.nodes {
        assert!((n.offered_load - 0.7).abs() < 1e-12);
    }
}

#[test]
fn jackson_pipeline_global_response_matches_theory_within_ci() {
    // The SSP baseline at load 0.5 with FCFS and zero network delay is
    // a Jackson network: every node is M/M/1 at rho = 0.5 and a serial
    // m = 4 global task's expected end-to-end response is exactly
    // 4 · E[R_node] = 8 by product form.
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    cfg.policy = Policy::Fcfs;
    let (pred, sim) = validate_locals(
        "Jackson pipeline load=0.5",
        &cfg,
        0xA11C_0005,
        MissCheck::Exact,
    );
    assert!((pred.global_response.unwrap() - 8.0).abs() < 1e-12);
    assert_within_ci(
        "Jackson global response",
        pred.global_response.unwrap(),
        &sim.global_response,
    );
    // The global *miss* prediction is a gamma approximation of the
    // four-stage delay sum (not exact theory), so it gets a looser,
    // explicitly documented band instead of the CI check: within 3
    // half-widths or 2 points absolute, whichever is larger.
    let ci = sim.global_miss_pct.confidence_interval().unwrap();
    let tol = (3.0 * ci.half_width).max(2.0);
    let analytic = pred.global_miss_pct.unwrap();
    assert!(
        (analytic - ci.mean).abs() <= tol,
        "Jackson global miss: analytic {analytic:.2}% vs sim {:.2}% ± {:.2}%",
        ci.mean,
        ci.half_width
    );
}
