//! Zero-sample edge cases for every metric primitive that can end up in
//! a sweep CSV: empty inputs must yield well-defined values — never NaN —
//! and the guarantees must survive a round trip through the types'
//! copy/clone semantics.
//!
//! (The workspace builds against the offline `serde` stub, which keeps
//! the `#[derive(Serialize, Deserialize)]` annotations compiling but has
//! no serializer; the round trips below therefore exercise the value
//! semantics — `Copy`/`Clone` plus reconstruction — that a byte-level
//! serde round trip would traverse.)

use sda_sim::stats::{ConfidenceInterval, Ratio, Replications, Tally};

#[test]
fn empty_ratio_is_zero_not_nan() {
    let r = Ratio::new();
    assert_eq!(r.fraction(), 0.0);
    assert_eq!(r.percent(), 0.0);
    assert!(!r.fraction().is_nan());
    assert_eq!(r.numerator(), 0);
    assert_eq!(r.denominator(), 0);

    // Round trip: Ratio is Copy; a copied empty ratio behaves identically
    // and diverges independently afterwards.
    let mut copy = r;
    assert_eq!(copy.fraction(), r.fraction());
    copy.record(true);
    assert_eq!(copy.percent(), 100.0);
    assert_eq!(r.percent(), 0.0);
}

#[test]
fn empty_tally_moments_are_well_defined() {
    let t = Tally::new();
    assert_eq!(t.count(), 0);
    assert_eq!(t.mean(), 0.0);
    assert_eq!(t.variance(), 0.0);
    assert_eq!(t.std_dev(), 0.0);
    assert_eq!(t.sum(), 0.0);
    // min/max of an empty tally are the conventional identity elements;
    // they are infinite (documented), but not NaN.
    assert_eq!(t.min(), f64::INFINITY);
    assert_eq!(t.max(), f64::NEG_INFINITY);
    for v in [t.mean(), t.variance(), t.std_dev(), t.sum()] {
        assert!(!v.is_nan());
    }

    // Round trip (Copy) preserves emptiness and every moment.
    let copy = t;
    assert_eq!(copy, t);
    assert!(copy.is_empty());

    // A single observation still has zero variance, not NaN.
    let mut one = t;
    one.add(7.5);
    assert_eq!(one.variance(), 0.0);
    assert!(!one.std_dev().is_nan());
}

#[test]
fn empty_replications_have_no_interval_but_finite_mean() {
    let r = Replications::new();
    assert_eq!(r.count(), 0);
    assert!(!r.mean().is_nan());
    assert!(
        r.confidence_interval().is_none(),
        "no replications → no CI, rather than a NaN-width one"
    );

    let mut one = r.clone();
    one.add(4.2);
    assert!(
        one.confidence_interval().is_none(),
        "a single replication has undefined spread"
    );
    assert_eq!(one.mean(), 4.2);
}

#[test]
fn degenerate_confidence_intervals_are_infinite_not_nan() {
    let ci = ConfidenceInterval::from_moments(5.0, 2.0, 1);
    assert_eq!(ci.half_width, f64::INFINITY);
    assert!(!ci.half_width.is_nan());
    // Zero spread gives a zero-width interval.
    let tight = ConfidenceInterval::from_moments(5.0, 0.0, 10);
    assert_eq!(tight.half_width, 0.0);
    assert!(tight.contains(5.0));
}

#[test]
fn zero_sample_class_metrics_never_leak_nan_into_csv_fields() {
    // The exact values a sweep CSV would read off an idle run: all
    // finite (or empty), none NaN.
    let t = Tally::new();
    let r = Ratio::new();
    let csv_cells = [r.percent(), t.mean(), t.std_dev()];
    for cell in csv_cells {
        assert!(cell.is_finite(), "CSV cell {cell} must be finite");
    }
}
