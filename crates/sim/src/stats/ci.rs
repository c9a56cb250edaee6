//! Confidence intervals.

use serde::{Deserialize, Serialize};

/// Two-sided 97.5% quantile of Student's t distribution with `df` degrees
/// of freedom — i.e. the multiplier for a 95% confidence interval.
///
/// Exact table values (3 decimal places) for df ≤ 100; beyond that, a
/// `1/df` interpolation toward the normal quantile
/// (`1.96 + 2.4/df`, which reproduces the published t₀.₉₇₅ values at
/// df = 120 ≈ 1.980, df = 240 ≈ 1.970, and converges to 1.96). The old
/// coarse step table (2.021 for all of df 31–40, etc.) understated the
/// multiplier by up to ~1% right above 30 — e.g. t₀.₉₇₅(31) is 2.040,
/// not 2.021 — so replication CI half-widths were too narrow.
///
/// `df = 0` returns infinity (no interval can be formed from one point).
pub(crate) fn student_t_975(df: u64) -> f64 {
    const TABLE: [f64; 100] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 1–10
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11–20
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21–30
        2.040, 2.037, 2.035, 2.032, 2.030, 2.028, 2.026, 2.024, 2.023, 2.021, // 31–40
        2.020, 2.018, 2.017, 2.015, 2.014, 2.013, 2.012, 2.011, 2.010, 2.009, // 41–50
        2.008, 2.007, 2.006, 2.005, 2.004, 2.003, 2.002, 2.002, 2.001, 2.000, // 51–60
        2.000, 1.999, 1.998, 1.998, 1.997, 1.997, 1.996, 1.995, 1.995, 1.994, // 61–70
        1.994, 1.993, 1.993, 1.993, 1.992, 1.992, 1.991, 1.991, 1.990, 1.990, // 71–80
        1.990, 1.989, 1.989, 1.989, 1.988, 1.988, 1.988, 1.987, 1.987, 1.987, // 81–90
        1.986, 1.986, 1.986, 1.986, 1.985, 1.985, 1.985, 1.984, 1.984, 1.984, // 91–100
    ];
    match df {
        0 => f64::INFINITY,
        1..=100 => TABLE[(df - 1) as usize],
        _ => 1.96 + 2.4 / df as f64,
    }
}

/// A symmetric confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The point estimate.
    pub mean: f64,
    /// Half the interval width; the interval is `[mean − hw, mean + hw]`.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Builds a 95% CI for the mean of `n` i.i.d. observations with sample
    /// mean `mean` and sample standard deviation `std_dev`.
    pub fn from_moments(mean: f64, std_dev: f64, n: u64) -> ConfidenceInterval {
        if n < 2 {
            return ConfidenceInterval {
                mean,
                half_width: f64::INFINITY,
            };
        }
        let t = student_t_975(n - 1);
        ConfidenceInterval {
            mean,
            half_width: t * std_dev / (n as f64).sqrt(),
        }
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_spot_checks() {
        assert_eq!(student_t_975(1), 12.706);
        assert!((student_t_975(2) - 4.303).abs() < 1e-9);
        assert_eq!(student_t_975(10), 2.228);
        assert!((student_t_975(30) - 2.042).abs() < 1e-9);
        assert_eq!(student_t_975(0), f64::INFINITY);
        // Regression: df just above 30 used to collapse to 2.021.
        assert_eq!(student_t_975(31), 2.040);
        assert_eq!(student_t_975(40), 2.021);
        assert_eq!(student_t_975(50), 2.009);
        assert_eq!(student_t_975(60), 2.000);
        assert_eq!(student_t_975(100), 1.984);
        // Interpolated tail matches the published table to 3 decimals.
        assert!((student_t_975(120) - 1.980).abs() < 1e-3);
        assert!((student_t_975(1000) - 1.962).abs() < 1e-3);
        assert!((student_t_975(10_000) - 1.960).abs() < 1e-3);
    }

    #[test]
    fn t_decreases_with_df_through_the_interpolated_tail() {
        let mut prev = student_t_975(1);
        for df in 2..2_000 {
            let t = student_t_975(df);
            assert!(t <= prev + 1e-12, "t({df}) = {t} > t({}) = {prev}", df - 1);
            assert!(t >= 1.96, "t({df}) = {t} below the normal quantile");
            prev = t;
        }
    }

    #[test]
    fn t_agrees_with_reference_values_above_30() {
        // Published t₀.₉₇₅ values (Student's t table, 4 decimals).
        for (df, expected) in [
            (31, 2.0395),
            (35, 2.0301),
            (45, 2.0141),
            (60, 2.0003),
            (80, 1.9901),
            (100, 1.9840),
            (120, 1.9799),
            (240, 1.9699),
        ] {
            let t = student_t_975(df);
            assert!(
                (t - expected).abs() < 2e-3,
                "t({df}) = {t}, reference {expected}"
            );
        }
    }

    #[test]
    fn interval_endpoints_and_contains() {
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 2.0,
        };
        assert_eq!(ci.lo(), 8.0);
        assert_eq!(ci.hi(), 12.0);
        assert!(ci.contains(9.0));
        assert!(!ci.contains(12.5));
    }

    #[test]
    fn from_moments_uses_t() {
        // n = 4 → df = 3 → t = 3.182; hw = 3.182 * 2 / 2 = 3.182.
        let ci = ConfidenceInterval::from_moments(5.0, 2.0, 4);
        assert!((ci.half_width - 3.182).abs() < 1e-9);
        let degenerate = ConfidenceInterval::from_moments(5.0, 2.0, 1);
        assert_eq!(degenerate.half_width, f64::INFINITY);
    }

    #[test]
    fn display_formats() {
        let ci = ConfidenceInterval {
            mean: 0.4,
            half_width: 0.0035,
        };
        assert_eq!(ci.to_string(), "0.4000 ± 0.0035");
    }
}
