//! Cross-refactor golden determinism tests.
//!
//! These pin the *exact* bit patterns of seeded runs, captured on the
//! pre-refactor event loop (BinaryHeap + tombstone-set future-event list,
//! cancellation-based preemption). The slab-backed, cancellation-free hot
//! path must reproduce every one of them bit-for-bit: same arrivals, same
//! service order, same misses, same utilization integrals.
//!
//! If an *intentional* behavior change ever invalidates these, regenerate
//! with:
//!
//! ```text
//! GOLDEN_DUMP=1 cargo test --test golden_metrics -- --nocapture
//! ```
//!
//! and say so in the PR — a diff here means observable simulation behavior
//! changed, which is exactly what the file exists to catch.

use sda::core::{AdaptiveSlack, SdaStrategy};
use sda::sched::Policy;
use sda::system::{run_once, NetworkModel, OverloadPolicy, RunConfig, SystemConfig};
use sda::workload::{ArrivalProcess, GlobalShape, SlackRange};

/// The observable fingerprint of a run: every count exactly, every float
/// by bit pattern.
///
/// `transit_*` pin the network model's hand-off accounting: exactly zero
/// observations under `NetworkModel::Zero` (the delay-free path must not
/// even sample), and an exact count + bit-exact mean under a delayed
/// model.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    local_completed: u64,
    local_missed: u64,
    global_completed: u64,
    global_missed: u64,
    local_miss_pct_bits: u64,
    global_miss_pct_bits: u64,
    local_resp_mean_bits: u64,
    global_resp_mean_bits: u64,
    util0_bits: u64,
    qlen0_bits: u64,
    transit_count: u64,
    transit_mean_bits: u64,
}

fn fingerprint(cfg: &SystemConfig, seed: u64) -> Fingerprint {
    let run = RunConfig {
        warmup: 500.0,
        duration: 6_000.0,
        seed,
        order_fuzz: 0,
    };
    let r = run_once(cfg, &run).expect("config is valid");
    Fingerprint {
        local_completed: r.metrics.local.completed(),
        local_missed: r.metrics.local.missed(),
        global_completed: r.metrics.global.completed(),
        global_missed: r.metrics.global.missed(),
        local_miss_pct_bits: r.metrics.local.miss_percent().to_bits(),
        global_miss_pct_bits: r.metrics.global.miss_percent().to_bits(),
        local_resp_mean_bits: r.metrics.local.response().mean().to_bits(),
        global_resp_mean_bits: r.metrics.global.response().mean().to_bits(),
        util0_bits: r.node_utilization[0].to_bits(),
        qlen0_bits: r.node_queue_length[0].to_bits(),
        transit_count: r.metrics.transit.count(),
        transit_mean_bits: r.metrics.transit.mean().to_bits(),
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "GOLDEN_DUMP gates regeneration output, never the run itself"
)]
fn check(name: &str, cfg: &SystemConfig, seed: u64, expected: Fingerprint) {
    let got = fingerprint(cfg, seed);
    if std::env::var_os("GOLDEN_DUMP").is_some() {
        println!("{name}: {got:#?}");
        return;
    }
    assert_eq!(
        got, expected,
        "{name}: seeded run diverged from the pre-refactor golden fingerprint"
    );
}

#[test]
fn golden_ssp_baseline_eqf() {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.workload.load = 0.9; // the regime the refactor targets
    check(
        "ssp_eqf_rho09",
        &cfg,
        0xD00D,
        Fingerprint {
            local_completed: 24257,
            local_missed: 18788,
            global_completed: 2000,
            global_missed: 1935,
            local_miss_pct_bits: 4635150752780584903,
            global_miss_pct_bits: 4636508592936058880,
            local_resp_mean_bits: 4621454732747629754,
            global_resp_mean_bits: 4628422266042203604,
            util0_bits: 4606241678459040175,
            qlen0_bits: 4617625172412484963,
            transit_count: 0,
            transit_mean_bits: 0,
        },
    );
}

#[test]
fn golden_psp_baseline_preemptive() {
    // Preemption is the path whose mechanism changes most (handle
    // cancellation → epoch invalidation): pin it hardest.
    let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_div1());
    cfg.preemptive = true;
    cfg.workload.load = 0.8;
    check(
        "psp_preemptive",
        &cfg,
        0xBEEF,
        Fingerprint {
            local_completed: 21617,
            local_missed: 8780,
            global_completed: 1806,
            global_missed: 925,
            local_miss_pct_bits: 4630913036709785185,
            global_miss_pct_bits: 4632405132742981031,
            local_resp_mean_bits: 4616901031367378899,
            global_resp_mean_bits: 4619236402020087755,
            util0_bits: 4605446474669936584,
            qlen0_bits: 4613988704058616731,
            transit_count: 0,
            transit_mean_bits: 0,
        },
    );
}

/// The network-aware configuration the heterogeneity PR adds: a speed
/// ramp plus exponential hand-off delays on §6 pipelines. Captured when
/// the feature landed; pins the delayed-hand-off event flow, the
/// `system.network` RNG stream and the comm-aware deadline decomposition.
#[test]
fn golden_heterogeneous_delayed_pipelines() {
    // Speeds keep every node below saturation (slowest: 0.7/0.8 ≈ 0.88).
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.7;
    cfg.workload.node_speeds = Some(vec![0.8, 0.9, 0.95, 1.05, 1.1, 1.2]);
    cfg.network = NetworkModel::Exponential { mean: 0.25 };
    check(
        "hetero_delayed_pipelines",
        &cfg,
        0xFEED,
        Fingerprint {
            local_completed: 18870,
            local_missed: 5715,
            global_completed: 1008,
            global_missed: 331,
            local_miss_pct_bits: 4629218016261362594,
            global_miss_pct_bits: 4629818256659262643,
            local_resp_mean_bits: 4616174296890870266,
            global_resp_mean_bits: 4624163695727701075,
            util0_bits: 4605983051061895086,
            qlen0_bits: 4617236439721488370,
            transit_count: 7065,
            transit_mean_bits: 4598181136320490097,
        },
    );
}

/// The full non-stationary configuration of the time-varying-workload
/// PR: MMPP-modulated arrivals + heterogeneous node speeds +
/// exponential hand-off delays + the feedback-adaptive `ADAPT(EQF-DIV1)`
/// strategy, on §6 pipelines. Captured when the feature landed; pins the
/// MMPP sampler's draw sequence, the feedback EWMA's pressure path and
/// the slack-scale stamping, on top of the PR-3 network machinery.
#[test]
fn golden_mmpp_hetero_adaptive() {
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::adaptive(
        SdaStrategy::eqf_div1(),
        AdaptiveSlack::default(),
    ));
    cfg.workload.load = 0.7;
    cfg.workload.node_speeds = Some(vec![0.8, 0.9, 0.95, 1.05, 1.1, 1.2]);
    cfg.workload.arrivals = ArrivalProcess::Mmpp2 {
        burst_ratio: 4.0,
        dwell_quiet: 300.0,
        dwell_burst: 100.0,
    };
    cfg.network = NetworkModel::Exponential { mean: 0.25 };
    check(
        "mmpp_hetero_adaptive",
        &cfg,
        0xADA7,
        Fingerprint {
            local_completed: 19947,
            local_missed: 14495,
            global_completed: 1105,
            global_missed: 1045,
            local_miss_pct_bits: 4634813942513925283,
            global_miss_pct_bits: 4636355198626069786,
            local_resp_mean_bits: 4631949325521515562,
            global_resp_mean_bits: 4639092996488478096,
            util0_bits: 4605734792850458984,
            qlen0_bits: 4631747297989469260,
            transit_count: 7591,
            transit_mean_bits: 4598224261738701661,
        },
    );
}

/// Explicitly-disabled new features — `arrivals: Poisson` spelled out
/// and a `None` adapt wrapper — must reproduce the defaulted
/// configuration's run bit-exactly: the new surface's neutral elements
/// really are neutral. Asserted as run-equivalence (two live runs, same
/// seed) rather than against a second copy of the pinned constants, so
/// the invariant survives future fingerprint re-captures; the defaulted
/// side itself is pinned by `golden_ssp_baseline_eqf`.
#[test]
fn golden_poisson_no_adapt_reproduces_the_defaulted_run() {
    let mut defaulted = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    defaulted.workload.load = 0.9;

    let mut explicit = defaulted.clone();
    explicit.workload.arrivals = ArrivalProcess::Poisson;
    explicit.strategy.adapt = None;
    assert!(explicit.workload.arrivals.is_poisson());
    assert!(!explicit.strategy.is_adaptive());

    assert_eq!(
        fingerprint(&defaulted, 0xD00D),
        fingerprint(&explicit, 0xD00D),
        "explicit Poisson + disabled adaptation must be bit-identical to the defaults"
    );
}

/// The DAG-structured configuration of the critical-path-decomposition
/// PR: random layered DAGs (cross-layer edges included) on heterogeneous
/// node speeds with exponential hand-off delays under the
/// feedback-adaptive `ADAPT(EQF-DIV1)` strategy. Captured when the
/// feature landed; pins the `workload.shape` DAG sampler's draw
/// sequence, the wave-based critical-path deadline decomposition, and
/// arbitrary-fan-in hand-off routing through the network machinery.
///
/// The five pre-existing fingerprints above pin the complementary
/// invariant: introducing the DAG runtime (and routing every flat task
/// through the `PooledRun` slab) left the stage-structured paths
/// bit-identical.
#[test]
fn golden_dag_hetero_adaptive() {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::adaptive(
        SdaStrategy::eqf_div1(),
        AdaptiveSlack::default(),
    ));
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.load = 0.7;
    cfg.workload.node_speeds = Some(vec![0.8, 0.9, 0.95, 1.05, 1.1, 1.2]);
    cfg.network = NetworkModel::Exponential { mean: 0.25 };
    check(
        "dag_hetero_adaptive",
        &cfg,
        0x0DA6,
        Fingerprint {
            local_completed: 18984,
            local_missed: 6029,
            global_completed: 783,
            global_missed: 376,
            local_miss_pct_bits: 4629632390852106482,
            global_miss_pct_bits: 4631955092612386151,
            local_resp_mean_bits: 4616259696704585177,
            global_resp_mean_bits: 4626236580963470647,
            util0_bits: 4605877481407775263,
            qlen0_bits: 4616548774821373815,
            transit_count: 7054,
            transit_mean_bits: 4598216150253414276,
        },
    );
}

/// The fault-injection configuration of the fleet-churn PR: a scripted
/// outage trace (two overlapping-in-time node outages plus a repeat
/// offender) on §6 pipelines over a constant-delay network. Captured
/// when the feature landed; pins the crash/recovery event flow — queue
/// purge order, in-flight loss, re-dispatch routing and the mid-task
/// residual-deadline re-decomposition. The six fingerprints above pin
/// the complementary invariant: with `FailureModel::None` (the default)
/// the failure machinery is bit-invisible.
#[test]
fn golden_scripted_churn_pipelines() {
    use sda::system::{DownInterval, FailureModel};
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.7;
    cfg.network = NetworkModel::Constant { delay: 0.5 };
    cfg.failure = FailureModel::Scripted {
        downs: vec![
            DownInterval {
                node: 1,
                from: 800.0,
                until: 1_400.0,
            },
            DownInterval {
                node: 4,
                from: 1_200.0,
                until: 1_600.0,
            },
            DownInterval {
                node: 1,
                from: 3_000.0,
                until: 3_200.0,
            },
        ],
    };
    check(
        "scripted_churn_pipelines",
        &cfg,
        0xFA11,
        Fingerprint {
            local_completed: 19138,
            local_missed: 6122,
            global_completed: 1075,
            global_missed: 325,
            local_miss_pct_bits: 4629697240084797074,
            global_miss_pct_bits: 4629202926280358030,
            local_resp_mean_bits: 4615467157315181813,
            global_resp_mean_bits: 4623911215783981462,
            util0_bits: 4604462674421507674,
            qlen0_bits: 4609767199342363438,
            transit_count: 7726,
            transit_mean_bits: 4602678819172646912,
        },
    );
    let run = RunConfig {
        warmup: 500.0,
        duration: 6_000.0,
        seed: 0xFA11,
        order_fuzz: 0,
    };
    let result = run_once(&cfg, &run).expect("config is valid");
    assert!(result.metrics.lost_subtasks > 0, "outages must lose work");
}

/// The analytic-validation configuration of the cross-validation PR:
/// the SSP baseline under FCFS at load 0.6 — a Jackson network whose
/// closed-form predictions `sda-analytic` reproduces exactly (each node
/// M/M/1 at ρ = 0.6: `Wq = 1.5`, `E[R_local] = 2.5`, serial m = 4 →
/// `E[R_global] = 4 · 2.5 = 10` by product form). Pinning the seeded
/// run alongside those theory values documents what the validation
/// harness (`tests/analytic_validation.rs`) holds the simulator to; at
/// this short horizon the sampled means sit near, not at, the
/// steady-state numbers.
#[test]
fn golden_analytic_validation_jackson() {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    cfg.policy = Policy::Fcfs;
    cfg.workload.load = 0.6;
    check(
        "analytic_validation_jackson",
        &cfg,
        0xA11C,
        Fingerprint {
            local_completed: 16033,
            local_missed: 5609,
            global_completed: 1342,
            global_missed: 607,
            local_miss_pct_bits: 4630120391014888494,
            global_miss_pct_bits: 4631562514435556329,
            local_resp_mean_bits: 4612734986586190000,
            global_resp_mean_bits: 4621692084124127079,
            util0_bits: 4603611866201721270,
            qlen0_bits: 4607057521771570224,
            transit_count: 0,
            transit_mean_bits: 0,
        },
    );
}

#[test]
fn golden_abort_tardy_mlf() {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    cfg.overload = OverloadPolicy::AbortTardy;
    cfg.policy = Policy::MinimumLaxityFirst;
    cfg.workload.load = 0.9;
    check(
        "abort_tardy_mlf",
        &cfg,
        0xCAFE,
        Fingerprint {
            local_completed: 24190,
            local_missed: 9766,
            global_completed: 1969,
            global_missed: 1461,
            local_miss_pct_bits: 4630878678869144424,
            global_miss_pct_bits: 4634921784902515754,
            local_resp_mean_bits: 4610905344046963896,
            global_resp_mean_bits: 4620863787516016903,
            util0_bits: 4604746611010296125,
            qlen0_bits: 4608317110707058125,
            transit_count: 0,
            transit_mean_bits: 0,
        },
    );
}
