//! Special functions used by the predictors: log-gamma, the regularized
//! incomplete gamma function, the normal tail, and a small fixed-grid
//! quadrature for averaging over uniform slack.
//!
//! All routines are dependency-free and deterministic.

/// Natural log of the gamma function, Lanczos approximation (g = 7,
/// n = 9 coefficients). Accurate to ~1e-13 for `x > 0`.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    debug_assert!(x > 0.0);
    let z = x - 1.0;
    let mut sum = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        sum += c / (z + i as f64);
    }
    let t = z + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + sum.ln()
}

/// Regularized upper incomplete gamma function
/// `Q(a, x) = Gamma(a, x) / Gamma(a)` for `a > 0`, `x >= 0`.
///
/// Uses the series expansion for `x < a + 1` and a Lentz-style
/// continued fraction otherwise (Numerical Recipes style).
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0);
    if x <= 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series for the regularized lower incomplete gamma `P(a, x)`,
/// convergent for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction for `Q(a, x)`, convergent for `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -f64::from(i) * (f64::from(i) - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Upper tail of the standard normal distribution, `P[Z > z]`.
///
/// For `z >= 0` this is `0.5 * Q(1/2, z^2 / 2)`; negative arguments use
/// symmetry.
pub(crate) fn normal_tail(z: f64) -> f64 {
    if z >= 0.0 {
        0.5 * gamma_q(0.5, z * z / 2.0)
    } else {
        1.0 - 0.5 * gamma_q(0.5, z * z / 2.0)
    }
}

/// Mean of `f(u)` over `u ~ U[lo, hi]` by composite Simpson quadrature
/// with 128 panels. If `hi <= lo`, returns `f(lo)`.
pub(crate) fn mean_over_uniform(lo: f64, hi: f64, f: impl Fn(f64) -> f64) -> f64 {
    if hi <= lo {
        return f(lo);
    }
    const PANELS: usize = 128;
    let h = (hi - lo) / PANELS as f64;
    let mut sum = f(lo) + f(hi);
    for i in 1..PANELS {
        let x = lo + h * i as f64;
        sum += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
    }
    sum * h / 3.0 / (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            let expect = fact.ln();
            let got = ln_gamma(f64::from(n));
            assert!(
                (got - expect).abs() < 1e-11 * expect.abs().max(1.0),
                "ln_gamma({n}) = {got}, expected {expect}"
            );
            fact *= f64::from(n);
        }
        // Gamma(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
    }

    #[test]
    fn gamma_q_integer_shape_matches_poisson_sum() {
        // Q(k, x) = sum_{j<k} x^j e^{-x} / j! for integer k.
        for &k in &[1u32, 2, 5, 10] {
            for &x in &[0.1f64, 0.9, 3.0, 7.5, 25.0] {
                let mut term = (-x).exp();
                let mut sum = 0.0;
                for j in 0..k {
                    if j > 0 {
                        term *= x / f64::from(j);
                    }
                    sum += term;
                }
                let got = gamma_q(f64::from(k), x);
                assert!(
                    (got - sum).abs() < 1e-12,
                    "Q({k}, {x}) = {got}, expected {sum}"
                );
            }
        }
    }

    #[test]
    fn gamma_q_boundaries() {
        assert!((gamma_q(2.5, 0.0) - 1.0).abs() < 1e-15);
        assert!(gamma_q(2.5, 1e4) < 1e-12);
        // Q(1, x) = e^{-x}.
        for &x in &[0.2, 1.0, 4.0, 30.0] {
            assert!((gamma_q(1.0, x) - (-x).exp()).abs() < 1e-13);
        }
        // Monotone decreasing in x.
        let mut last = 1.0;
        for i in 0..60 {
            let q = gamma_q(3.3, 0.25 * f64::from(i));
            assert!(q <= last + 1e-14);
            last = q;
        }
    }

    #[test]
    fn normal_tail_reference_values() {
        assert!((normal_tail(0.0) - 0.5).abs() < 1e-14);
        assert!((normal_tail(1.959_963_984_540_054) - 0.025).abs() < 1e-9);
        assert!((normal_tail(-1.959_963_984_540_054) - 0.975).abs() < 1e-9);
        assert!(normal_tail(8.0) < 1e-14);
        assert!((normal_tail(1.0) - 0.158_655_253_931_457_05).abs() < 1e-12);
    }

    #[test]
    fn mean_over_uniform_is_exact_on_cubics_and_point_masses() {
        // Simpson is exact on cubics.
        let got = mean_over_uniform(1.0, 3.0, |u| u * u * u);
        // E[U^3] over [1,3] = (3^4 - 1) / (4 * 2) = 10.
        assert!((got - 10.0).abs() < 1e-12);
        // Degenerate interval evaluates at the point.
        assert!((mean_over_uniform(2.0, 2.0, |u| u + 1.0) - 3.0).abs() < 1e-15);
        // Smooth exponential integrand: E[e^{-u}] over [0,2].
        let got = mean_over_uniform(0.0, 2.0, |u| (-u).exp());
        let expect = (1.0 - (-2.0f64).exp()) / 2.0;
        assert!((got - expect).abs() < 1e-8);
    }
}
