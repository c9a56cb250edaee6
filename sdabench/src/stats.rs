//! Order statistics of timing samples.

/// Median, quartiles and maximum of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (any order). Quartiles use the "exclusive"
    /// method of Python's `statistics.quantiles(n=4)`; with fewer than two
    /// samples every field is the single value. An empty set yields NaN.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                q1: f64::NAN,
                median: f64::NAN,
                q3: f64::NAN,
                max: f64::NAN,
                n,
            };
        }
        if n == 1 {
            return Summary {
                q1: v[0],
                median: v[0],
                q3: v[0],
                max: v[0],
                n,
            };
        }
        Summary {
            q1: quantile(&v, 1),
            median: quantile(&v, 2),
            q3: quantile(&v, 3),
            max: v[n - 1],
            n,
        }
    }
}

/// The `i`-th quartile of sorted `v` (`n >= 2`), exclusive method.
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len() as i64;
    let (i, m) = (i as i64, n + 1);
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m - j * 4) as f64;
    let j = j as usize;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(
            (s.q1, s.median, s.q3, s.max, s.n),
            (2.75, 5.5, 8.25, 10.0, 10)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
