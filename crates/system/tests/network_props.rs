//! Property tests for [`NetworkModel`] — the PR-3 surface that shipped
//! with example-based tests only.
//!
//! Pins: `Matrix` validation rejects wrong dimensions and poisoned
//! entries with *indexed* errors; `expected_hop_delay` is non-negative,
//! zero for `Zero`, and the mean over entries for `Matrix`; and
//! `sample_delay` returns exactly the matrix entry for **every**
//! (src, dst) pair, including the process-manager endpoint, without
//! consuming randomness.

use sda_core::NodeId;
use sda_sim::rng::{cases, Case, RngFactory};
use sda_system::NetworkModel;
use sda_workload::ConfigError;

/// 81 delays in `[0, 5)`, enough for every matrix drawn here.
fn entries(case: &mut Case) -> Vec<f64> {
    (0..81).map(|_| case.f64(0.0..5.0)).collect()
}

/// A random valid delay matrix over `nodes + 1` endpoints.
fn matrix(nodes: usize, rng_rows: &[f64]) -> Vec<Vec<f64>> {
    let side = nodes + 1;
    (0..side)
        .map(|i| {
            (0..side)
                .map(|j| rng_rows[(i * side + j) % rng_rows.len()].abs())
                .collect()
        })
        .collect()
}

/// A square matrix of finite non-negative entries over `nodes + 1`
/// endpoints validates; its expected hop delay is the entry mean and
/// is non-negative.
#[test]
fn valid_matrices_validate_and_average() {
    cases("valid_matrices_validate_and_average", 64, |case| {
        let nodes = case.int(1..8);
        let entries = entries(case);
        let delays = matrix(nodes, &entries);
        let model = NetworkModel::Matrix {
            delays: delays.clone(),
        };
        assert!(model.validate(nodes).is_ok());
        let expected = model.expected_hop_delay();
        assert!(expected >= 0.0);
        let side = nodes + 1;
        let mean = delays.iter().flatten().sum::<f64>() / (side * side) as f64;
        assert!((expected - mean).abs() < 1e-12);
    });
}

/// Wrong dimensions — too few/many rows, or one short row — are
/// rejected for every node count.
#[test]
fn wrong_dimensions_are_rejected() {
    cases("wrong_dimensions_are_rejected", 64, |case| {
        let nodes = case.int(1..8);
        let off_by = case.int(1..3);
        let entries = entries(case);
        // Wrong side length (nodes + 1 ± off_by).
        let too_small = matrix(nodes.saturating_sub(off_by), &entries);
        let model = NetworkModel::Matrix { delays: too_small };
        assert!(model.validate(nodes).is_err());
        let too_big = matrix(nodes + off_by, &entries);
        assert!(NetworkModel::Matrix { delays: too_big }
            .validate(nodes)
            .is_err());
        // Ragged: one row one entry short.
        let mut ragged = matrix(nodes, &entries);
        let victim = off_by % ragged.len();
        ragged[victim].pop();
        assert!(NetworkModel::Matrix { delays: ragged }
            .validate(nodes)
            .is_err());
    });
}

/// Poisoning any single entry (negative, NaN or infinite) produces
/// `ConfigError::InvalidEntry` carrying exactly that entry's flat
/// index.
#[test]
fn poisoned_entries_are_reported_with_their_index() {
    cases(
        "poisoned_entries_are_reported_with_their_index",
        64,
        |case| {
            let nodes = case.int(1..7);
            let row = case.int(0..7);
            let col = case.int(0..7);
            let poison_sel = case.int(0..3);
            let entries = entries(case);
            let side = nodes + 1;
            let (row, col) = (row % side, col % side);
            let mut delays = matrix(nodes, &entries);
            let poison = [-1.5, f64::NAN, f64::INFINITY][poison_sel];
            delays[row][col] = poison;
            let model = NetworkModel::Matrix { delays };
            match model.validate(nodes) {
                Err(ConfigError::InvalidEntry {
                    what, index, value, ..
                }) => {
                    assert_eq!(what, "network delay matrix");
                    assert_eq!(index, row * side + col);
                    assert!(value.is_nan() == poison.is_nan());
                    if !poison.is_nan() {
                        assert_eq!(value, poison);
                    }
                }
                other => panic!("expected InvalidEntry, got {:?}", other),
            }
        },
    );
}

/// `sample_delay` returns exactly the matrix entry for every
/// (src, dst) pair — nodes and the process-manager endpoint alike —
/// and consumes no randomness doing it.
#[test]
fn matrix_sampling_matches_every_pair() {
    cases("matrix_sampling_matches_every_pair", 64, |case| {
        let nodes = case.int(1..7);
        let entries = entries(case);
        let seed = case.u64();
        let delays = matrix(nodes, &entries);
        let model = NetworkModel::Matrix {
            delays: delays.clone(),
        };
        assert!(model.validate(nodes).is_ok());
        let mut rng = RngFactory::new(seed).stream("net-prop");
        let endpoint = |i: usize| -> Option<NodeId> { (i < nodes).then(|| NodeId::new(i as u32)) };
        for (from, row) in delays.iter().enumerate() {
            for (to, &want) in row.iter().enumerate() {
                let got = model.sample_delay(endpoint(from), endpoint(to), &mut rng);
                assert_eq!(got.to_bits(), want.to_bits(), "pair ({}, {})", from, to);
                assert!(got >= 0.0);
            }
        }
        // Determinism doubles as a no-randomness check: a fresh stream
        // yields the same values, so the matrix path drew nothing.
        let mut rng2 = RngFactory::new(seed.wrapping_add(1)).stream("net-prop-b");
        for (from, row) in delays.iter().enumerate() {
            for (to, &want) in row.iter().enumerate() {
                assert_eq!(
                    model
                        .sample_delay(endpoint(from), endpoint(to), &mut rng2)
                        .to_bits(),
                    want.to_bits()
                );
            }
        }
    });
}

/// The non-matrix models: `Zero` is exactly free, `Constant` is its
/// delay, `Exponential` averages its mean — all non-negative.
#[test]
fn scalar_models_expectations() {
    cases("scalar_models_expectations", 64, |case| {
        let delay = case.f64(0.0..4.0);
        let seed = case.u64();
        assert_eq!(NetworkModel::Zero.expected_hop_delay(), 0.0);
        let mut rng = RngFactory::new(seed).stream("net-scalar");
        assert_eq!(
            NetworkModel::Zero.sample_delay(None, Some(NodeId::new(0)), &mut rng),
            0.0
        );
        let c = NetworkModel::Constant { delay };
        assert!(c.validate(3).is_ok());
        assert_eq!(c.expected_hop_delay().to_bits(), delay.to_bits());
        assert_eq!(
            c.sample_delay(Some(NodeId::new(1)), None, &mut rng)
                .to_bits(),
            delay.to_bits()
        );
        // An exponential delay needs a positive mean, so it gets a draw
        // of its own, above 0.01, where the constant may be 0.
        let mean = case.f64(0.01..4.0);
        let e = NetworkModel::Exponential { mean };
        assert!(e.validate(3).is_ok());
        assert_eq!(e.expected_hop_delay().to_bits(), mean.to_bits());
        assert!(e.sample_delay(None, None, &mut rng) >= 0.0);
    });
}
