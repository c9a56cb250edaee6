//! Metamorphic relations: transformations of a `SystemConfig` whose
//! effect on the metrics is known *a priori* — rescaling every time
//! unit, permuting node labels, splitting one task class into two
//! equivalent half-rate classes, changing the deadline strategy under a
//! deadline-blind scheduler. Each relation is checked on seeded
//! simulator runs.

use sda::core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda::sched::Policy;
use sda::system::{run_once, run_replications, NetworkModel, RunConfig, RunResult, SystemConfig};
use sda::workload::{GlobalShape, SlackRange};

/// Scaling every quantity with time dimension by a power of two — task
/// execution means, slack ranges, network delays, warm-up and horizon —
/// multiplies all exponential/uniform draws by exactly that power
/// (binary floating point: a pure exponent shift), so the event order,
/// every deadline decision, and thus all counts and ratios are
/// *bit-identical*; response times are exactly doubled.
#[test]
fn time_unit_rescaling_is_exact() {
    const C: f64 = 2.0;
    let mut base = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    base.workload.load = 0.7;
    base.network = NetworkModel::Constant { delay: 0.5 };

    let mut scaled = base.clone();
    scaled.workload.mean_local_ex *= C;
    scaled.workload.mean_subtask_ex *= C;
    scaled.workload.slack =
        SlackRange::new(base.workload.slack.min * C, base.workload.slack.max * C);
    scaled.network = NetworkModel::Constant { delay: 0.5 * C };

    let run = RunConfig {
        warmup: 1_000.0,
        duration: 12_000.0,
        seed: 0x5CA1E,
        order_fuzz: 0,
    };
    let run_scaled = RunConfig {
        warmup: run.warmup * C,
        duration: run.duration * C,
        ..run
    };

    let a = run_once(&base, &run).unwrap();
    let b = run_once(&scaled, &run_scaled).unwrap();

    // Same tasks, same decisions: counts and miss ratios are identical
    // to the bit.
    assert_eq!(a.events, b.events);
    for (ca, cb, class) in [
        (&a.metrics.local, &b.metrics.local, "local"),
        (&a.metrics.global, &b.metrics.global, "global"),
    ] {
        assert_eq!(ca.completed(), cb.completed(), "{class} completions");
        assert_eq!(ca.missed(), cb.missed(), "{class} misses");
        assert_eq!(
            ca.miss_percent().to_bits(),
            cb.miss_percent().to_bits(),
            "{class} miss % must be bit-identical"
        );
        // Times are exactly doubled.
        assert_eq!(
            (C * ca.response().mean()).to_bits(),
            cb.response().mean().to_bits(),
            "{class} response must scale exactly by {C}"
        );
    }
    // Dimensionless time-averages are bit-identical too.
    assert_eq!(
        a.mean_utilization().to_bits(),
        b.mean_utilization().to_bits()
    );
    for (qa, qb) in a.node_queue_length.iter().zip(&b.node_queue_length) {
        assert_eq!(qa.to_bits(), qb.to_bits());
    }
}

/// Spelling the default uniform workload out explicitly — unit weights,
/// unit speeds — must not change a single bit: the per-node rate
/// `total · 1/6` equals the default rate exactly in binary.
#[test]
fn explicit_uniform_weights_and_speeds_are_the_identity() {
    let base = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    let mut explicit = base.clone();
    explicit.workload.local_weights = Some(vec![1.0; 6]);
    explicit.workload.node_speeds = Some(vec![1.0; 6]);

    let run = RunConfig {
        warmup: 500.0,
        duration: 8_000.0,
        seed: 0xD0_5EED,
        order_fuzz: 0,
    };
    assert_eq!(
        run_once(&base, &run).unwrap(),
        run_once(&explicit, &run).unwrap()
    );
}

/// Permuting which node carries the heavy local stream must not move
/// the aggregate metrics (uniform speeds, uniform subtask placement):
/// node labels carry no physics. Per-node RNG streams differ, so this
/// is a statistical check: replication CIs must overlap.
#[test]
fn node_label_permutation_preserves_aggregates() {
    let mk = |weights: Vec<f64>| {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.workload.local_weights = Some(weights);
        cfg
    };
    let a_cfg = mk(vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    let b_cfg = mk(vec![1.0, 1.0, 1.0, 3.0, 1.0, 1.0]);
    let run = RunConfig {
        warmup: 1_000.0,
        duration: 20_000.0,
        seed: 0x9E57,
        order_fuzz: 0,
    };
    let a = run_replications(&a_cfg, &run, 5).unwrap();
    let b = run_replications(&b_cfg, &run, 5).unwrap();
    for (ra, rb, what) in [
        (&a.local_miss_pct, &b.local_miss_pct, "local miss %"),
        (&a.global_miss_pct, &b.global_miss_pct, "global miss %"),
        (&a.utilization, &b.utilization, "utilization"),
    ] {
        let ca = ra.confidence_interval().unwrap();
        let cb = rb.confidence_interval().unwrap();
        assert!(
            (ca.mean - cb.mean).abs() <= ca.half_width + cb.half_width,
            "{what}: permuted CIs disjoint — {:.3}±{:.3} vs {:.3}±{:.3}",
            ca.mean,
            ca.half_width,
            cb.mean,
            cb.half_width
        );
    }
    // The permutation itself must matter somewhere: the heavy node
    // moved, so per-node utilizations are permuted, not identical.
    let ua = run_once(&a_cfg, &run).unwrap().node_utilization;
    let ub = run_once(&b_cfg, &run).unwrap().node_utilization;
    assert!(ua[0] > ua[1] && ub[3] > ub[1], "heavy node misplaced");
}

/// Splitting one task stream into two equivalent half-rate classes —
/// locals at half load plus single-stage "global" tasks whose deadline
/// law (`dl = ar + ex + u`, `u ~ U[slack]` at `rel_flex = 1`,
/// `mean_subtask_ex = mean_local_ex`) matches the locals' exactly —
/// must leave the pooled miss ratio and utilization unchanged.
#[test]
fn class_duplication_preserves_pooled_metrics() {
    let mut whole = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
    whole.workload.nodes = 1;
    whole.workload.frac_local = 1.0;
    whole.workload.load = 0.6;
    whole.policy = Policy::Fcfs;

    let mut split = whole.clone();
    split.workload.frac_local = 0.5;
    split.workload.shape = GlobalShape::Serial { m: 1 };
    split.workload.mean_subtask_ex = split.workload.mean_local_ex;
    split.workload.rel_flex = 1.0;

    let run = RunConfig {
        warmup: 1_000.0,
        duration: 20_000.0,
        seed: 0x5711,
        order_fuzz: 0,
    };
    let reps = 6;
    let a = run_replications(&whole, &run, reps).unwrap();
    let b = run_replications(&split, &run, reps).unwrap();

    // Pooled miss % of the split system, per replication.
    let pooled: sda::sim::stats::Replications = b
        .runs
        .iter()
        .map(|r| {
            let missed = r.metrics.local.missed() + r.metrics.global.missed();
            let done = r.metrics.local.completed() + r.metrics.global.completed();
            100.0 * missed as f64 / done as f64
        })
        .collect();
    let ca = a.local_miss_pct.confidence_interval().unwrap();
    let cb = pooled.confidence_interval().unwrap();
    assert!(
        (ca.mean - cb.mean).abs() <= ca.half_width + cb.half_width,
        "pooled miss diverged: whole {:.2}±{:.2} vs split {:.2}±{:.2}",
        ca.mean,
        ca.half_width,
        cb.mean,
        cb.half_width
    );
    let ua = a.utilization.confidence_interval().unwrap();
    let ub = b.utilization.confidence_interval().unwrap();
    assert!(
        (ua.mean - ub.mean).abs() <= ua.half_width + ub.half_width,
        "utilization diverged: {:.3}±{:.3} vs {:.3}±{:.3}",
        ua.mean,
        ua.half_width,
        ub.mean,
        ub.half_width
    );
}

/// FCFS and SJF order a queue by arrival and by predicted execution
/// time, never by deadline, and with `NoAbort` and no ADAPT nothing else
/// reads a virtual deadline. So the SSP/PSP strategy changes no
/// schedule: the miss ratios (judged against the *end-to-end* deadline)
/// and the mean responses are bit-identical to UD-UD. GF is left out: it
/// is a priority rule, so it reorders queues under every discipline.
/// EDF is the control: there the strategies must differ.
#[test]
fn deadline_blind_schedulers_ignore_the_deadline_strategy() {
    let run = RunConfig {
        warmup: 200.0,
        duration: 2_000.0,
        seed: 77,
        order_fuzz: 0,
    };
    let fingerprint = |r: &RunResult| {
        [
            r.metrics.local.miss_percent(),
            r.metrics.global.miss_percent(),
            r.metrics.local.response().mean(),
            r.metrics.global.response().mean(),
        ]
        .map(f64::to_bits)
    };
    let run_with = |baseline: fn(SdaStrategy) -> SystemConfig, policy, strategy| {
        let mut cfg = baseline(strategy);
        cfg.policy = policy;
        fingerprint(&run_once(&cfg, &run).unwrap())
    };
    let serials = [
        SerialStrategy::UltimateDeadline,
        SerialStrategy::EffectiveDeadline,
        SerialStrategy::EqualSlack,
        SerialStrategy::EqualFlexibility,
    ];
    let parallels = [
        ParallelStrategy::UltimateDeadline,
        ParallelStrategy::Div { x: 1.0 },
    ];
    let baselines: [fn(SdaStrategy) -> SystemConfig; 3] = [
        SystemConfig::ssp_baseline,
        SystemConfig::psp_baseline,
        SystemConfig::combined_baseline,
    ];
    for baseline in baselines {
        for policy in [Policy::Fcfs, Policy::ShortestJobFirst] {
            let ud_ud = run_with(baseline, policy, SdaStrategy::ud_ud());
            for serial in serials {
                for parallel in parallels {
                    let strategy = SdaStrategy::new(serial, parallel);
                    assert_eq!(
                        run_with(baseline, policy, strategy),
                        ud_ud,
                        "{policy:?} under {strategy:?} differs from UD-UD"
                    );
                }
            }
        }
    }

    let edf = Policy::EarliestDeadlineFirst;
    assert_ne!(
        run_with(SystemConfig::ssp_baseline, edf, SdaStrategy::eqf_ud()),
        run_with(SystemConfig::ssp_baseline, edf, SdaStrategy::ud_ud()),
    );
    assert_ne!(
        run_with(SystemConfig::psp_baseline, edf, SdaStrategy::ud_div1()),
        run_with(SystemConfig::psp_baseline, edf, SdaStrategy::ud_ud()),
    );
}
