//! Statistical-sanity property tests for the time-varying
//! [`ArrivalProcess`] family.
//!
//! Pins two contracts across randomized parameterizations:
//!
//! * **rate preservation** — the seeded long-run empirical rate of an
//!   MMPP or phased stream stays within tolerance of the configured
//!   mean (`load` is a *time-average* promise, whatever the arrival
//!   dynamics);
//! * **determinism** — the same seed yields a bit-identical interarrival
//!   sequence (the repo-wide reproducibility invariant extends to the
//!   new samplers).

use sda_sim::rng::{cases, Case, RngFactory};
use sda_workload::{ArrivalProcess, ArrivalSampler, PhaseSegment, TaskFactory, WorkloadConfig};

fn mmpp_processes(case: &mut Case) -> ArrivalProcess {
    ArrivalProcess::Mmpp2 {
        burst_ratio: case.f64(1.2..10.0),
        dwell_quiet: case.f64(20.0..300.0),
        dwell_burst: case.f64(10.0..150.0),
    }
}

fn phased_processes(case: &mut Case) -> ArrivalProcess {
    ArrivalProcess::Phased {
        segments: case.vec(1..5, |c| {
            PhaseSegment::new(c.f64(5.0..200.0), c.f64(0.1..4.0))
        }),
    }
}

/// Empirical rate of `n` draws from a fresh sampler.
fn empirical_rate(process: &ArrivalProcess, rate: f64, seed: u64, n: usize) -> f64 {
    let mut sampler = ArrivalSampler::new(process, rate).expect("positive rate");
    let mut rng = RngFactory::new(seed).stream("arrival-props");
    let total: f64 = (0..n).map(|_| sampler.sample_with(&mut rng)).sum();
    n as f64 / total
}

/// The gap sequence of `n` draws.
fn gap_sequence(process: &ArrivalProcess, rate: f64, seed: u64, n: usize) -> Vec<u64> {
    let mut sampler = ArrivalSampler::new(process, rate).expect("positive rate");
    let mut rng = RngFactory::new(seed).stream("arrival-props");
    (0..n)
        .map(|_| {
            let gap = sampler.sample_with(&mut rng);
            assert!(gap.is_finite() && gap >= 0.0, "gap {gap}");
            gap.to_bits()
        })
        .collect()
}

/// MMPP streams preserve the configured mean rate in the long run.
#[test]
fn mmpp_empirical_rate_matches_mean() {
    cases("mmpp_empirical_rate_matches_mean", 24, |case| {
        let process = mmpp_processes(case);
        let rate = case.f64(0.2..2.0);
        let seed = case.u64();
        assert!(process.validate().is_ok());
        // The estimate's spread follows the number of quiet-burst cycles
        // the arrivals span, not their count: 60k arrivals span only 67
        // cycles at rate 2 with mean dwells 300 and 150, and miss the
        // rate by 10% in about a quarter of seeds. So draw (at least
        // 60k) arrivals over 2,000 mean cycles, which keeps the spread
        // under about 1.7% of the rate anywhere in this parameter box.
        let ArrivalProcess::Mmpp2 {
            dwell_quiet,
            dwell_burst,
            ..
        } = process
        else {
            unreachable!("mmpp_processes draws MMPPs")
        };
        let n = ((2_000.0 * (dwell_quiet + dwell_burst) * rate) as usize).max(60_000);
        let empirical = empirical_rate(&process, rate, seed, n);
        assert!(
            (empirical - rate).abs() / rate < 0.10,
            "MMPP empirical rate {} vs configured {} ({:?})",
            empirical,
            rate,
            process
        );
    });
}

/// Phased streams preserve the configured mean rate in the long run.
#[test]
fn phased_empirical_rate_matches_mean() {
    cases("phased_empirical_rate_matches_mean", 24, |case| {
        let process = phased_processes(case);
        let rate = case.f64(0.2..2.0);
        let seed = case.u64();
        assert!(process.validate().is_ok());
        let empirical = empirical_rate(&process, rate, seed, 60_000);
        assert!(
            (empirical - rate).abs() / rate < 0.10,
            "phased empirical rate {} vs configured {} ({:?})",
            empirical,
            rate,
            process
        );
    });
}

/// Identical seed ⇒ bit-identical arrival sequence (and different
/// seeds diverge), for both non-stationary samplers.
#[test]
fn same_seed_is_bit_identical() {
    cases("same_seed_is_bit_identical", 24, |case| {
        let mmpp = mmpp_processes(case);
        let phased = phased_processes(case);
        let rate = case.f64(0.2..2.0);
        let seed = case.u64();
        for process in [&mmpp, &phased] {
            let a = gap_sequence(process, rate, seed, 2_000);
            let b = gap_sequence(process, rate, seed, 2_000);
            assert_eq!(&a, &b, "same seed must reproduce bit-exactly");
            let c = gap_sequence(process, rate, seed.wrapping_add(1), 2_000);
            assert_ne!(&a, &c, "different seeds must diverge");
        }
    });
}

/// The whole factory — per-node local streams plus the global
/// stream — stays deterministic under time-varying arrivals.
#[test]
fn factory_streams_are_deterministic_under_mmpp() {
    cases("factory_streams_are_deterministic_under_mmpp", 24, |case| {
        let process = mmpp_processes(case);
        let seed = case.u64();
        use sda_core::NodeId;
        let cfg = WorkloadConfig {
            arrivals: process,
            ..WorkloadConfig::baseline()
        };
        let mut a = TaskFactory::new(cfg.clone(), &RngFactory::new(seed)).unwrap();
        let mut b = TaskFactory::new(cfg, &RngFactory::new(seed)).unwrap();
        for i in 0..200u32 {
            let node = NodeId::new(i % 6);
            assert_eq!(
                a.next_local_interarrival(node).unwrap().to_bits(),
                b.next_local_interarrival(node).unwrap().to_bits()
            );
            assert_eq!(
                a.next_global_interarrival().unwrap().to_bits(),
                b.next_global_interarrival().unwrap().to_bits()
            );
        }
    });
}
