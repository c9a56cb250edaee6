//! Allen–Cunneen-style G/G/c approximation.
//!
//! The mean wait of a G/G/c queue is approximated by scaling the exact
//! M/M/c mean wait by `(ca2 + cs2) / 2`, where `ca2`/`cs2` are the
//! squared coefficients of variation of the inter-arrival and service
//! distributions. For Poisson arrivals at `c = 1` this is the exact
//! Pollaczek–Khinchine mean; at `ca2 = cs2 = 1` it collapses to the
//! exact M/M/c result.
//!
//! The waiting-time *distribution* is approximated as a point mass at
//! zero plus an exponential tail whose rate `r` is fitted so that the
//! conditional mean matches: `P[W > t] = p_wait e^{-r t}` with
//! `r = p_wait / mean_wait`.
//!
//! # M/G/1 two-moment refinement
//!
//! When the third moment of the service time is supplied via
//! [`GgcApprox::with_service_third_moment`] (Poisson arrivals, one
//! server — the exact M/G/1 regime), the one-moment exponential tail is
//! upgraded to a **gamma tail matched on two moments**: the second
//! waiting moment comes from the exact Takács recursion
//! `E[W²] = 2 Wq² + λ E[S³] / (3 (1 − ρ))`, the conditional (given
//! `W > 0`) mean and variance are fitted by a gamma distribution, and
//! `P[W > t] = p_wait · Q(k, t/θ)` with `Q` the regularized upper
//! incomplete gamma. For exponential service the fit recovers `k = 1`
//! and collapses to the exact M/M/1 tail; without a registered third
//! moment every result is bit-identical to the plain Allen–Cunneen
//! fit.

use crate::queue::{uniform_slack_miss, Mmc, TheoryError};
use crate::special::{gamma_q, mean_over_uniform};

/// Below this distance from `k = 1` the gamma fit is replaced by the
/// (then exact, and cheaper) exponential tail.
const EXP_SHAPE_EPS: f64 = 1e-9;

/// G/G/c approximation built on an exact [`Mmc`] backbone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GgcApprox {
    mmc: Mmc,
    ca2: f64,
    cs2: f64,
    /// Third raw moment of the service time, `E[S³]`; enables the
    /// Takács/gamma tail refinement (M/G/1 only).
    es3: Option<f64>,
}

impl GgcApprox {
    /// Build a G/G/c approximation for arrival rate `lambda`, service
    /// rate `mu` per server, `servers` servers, and squared
    /// coefficients of variation `ca2` (inter-arrival) and `cs2`
    /// (service). Errors on invalid parameters or `rho >= 1`.
    pub fn new(
        lambda: f64,
        mu: f64,
        servers: u32,
        ca2: f64,
        cs2: f64,
    ) -> Result<Self, TheoryError> {
        if !ca2.is_finite() || ca2 < 0.0 {
            return Err(TheoryError::BadParameter {
                what: "ca2",
                value: ca2,
            });
        }
        if !cs2.is_finite() || cs2 < 0.0 {
            return Err(TheoryError::BadParameter {
                what: "cs2",
                value: cs2,
            });
        }
        Ok(GgcApprox {
            mmc: Mmc::new(lambda, mu, servers)?,
            ca2,
            cs2,
            es3: None,
        })
    }

    /// Registers the third raw service moment `E[S³]`, upgrading the
    /// exponential waiting tail to a gamma tail matched on the exact
    /// Takács second waiting moment. Only meaningful — and only
    /// accepted — in the M/G/1 regime (`servers == 1`, `ca2 == 1`),
    /// where the Pollaczek–Khinchine/Takács formulas are exact.
    ///
    /// # Errors
    ///
    /// [`TheoryError::BadParameter`] if the model is not M/G/1 or the
    /// moment is not finite and positive.
    pub(crate) fn with_service_third_moment(mut self, es3: f64) -> Result<Self, TheoryError> {
        if self.mmc.servers() != 1 || self.ca2 != 1.0 {
            return Err(TheoryError::BadParameter {
                what: "es3 (third-moment refinement requires M/G/1)",
                value: es3,
            });
        }
        if !es3.is_finite() || es3 <= 0.0 {
            return Err(TheoryError::BadParameter {
                what: "es3",
                value: es3,
            });
        }
        self.es3 = Some(es3);
        Ok(self)
    }

    /// Variability scaling factor `(ca2 + cs2) / 2`.
    pub(crate) fn variability_factor(&self) -> f64 {
        (self.ca2 + self.cs2) / 2.0
    }

    /// Per-server utilization (same as the backbone).
    pub fn utilization(&self) -> f64 {
        self.mmc.utilization()
    }

    /// Probability of waiting; the Erlang-C value is kept unscaled.
    pub(crate) fn p_wait(&self) -> f64 {
        self.mmc.p_wait()
    }

    /// Approximate mean wait `Wq(M/M/c) * (ca2 + cs2) / 2`.
    pub fn mean_wait(&self) -> f64 {
        self.mmc.mean_wait() * self.variability_factor()
    }

    /// Fitted exponential tail rate `r = p_wait / mean_wait`, so that
    /// `E[W] = p_wait / r` matches the Allen–Cunneen mean. Returns
    /// `f64::INFINITY` when the mean wait is zero (degenerate traffic).
    pub(crate) fn tail_rate(&self) -> f64 {
        let w = self.mean_wait();
        if w > 0.0 {
            self.p_wait() / w
        } else {
            f64::INFINITY
        }
    }

    /// The second raw moment of the waiting time. With a registered
    /// service third moment (M/G/1) this is the exact Takács value
    /// `E[W²] = 2 Wq² + λ E[S³] / (3 (1 − ρ))`; otherwise it is the
    /// moment implied by the fitted exponential tail, `2 p / r²`.
    pub(crate) fn wait_second_moment(&self) -> f64 {
        match self.es3 {
            Some(es3) => {
                let wq = self.mean_wait();
                2.0 * wq * wq + self.mmc.lambda() * es3 / (3.0 * (1.0 - self.mmc.utilization()))
            }
            None => {
                let r = self.tail_rate();
                if !r.is_finite() {
                    return 0.0;
                }
                2.0 * self.p_wait() / (r * r)
            }
        }
    }

    /// Approximate waiting-time variance, `E[W²] - Wq²` (exact Takács
    /// second moment when a service third moment is registered, the
    /// exponential-fit moment otherwise).
    pub(crate) fn wait_variance(&self) -> f64 {
        let w = self.mean_wait();
        self.wait_second_moment() - w * w
    }

    /// The gamma parameters `(shape k, scale θ)` of the conditional
    /// (given `W > 0`) waiting time, when the two-moment refinement is
    /// active and does not degenerate to the exponential tail.
    fn gamma_fit(&self) -> Option<(f64, f64)> {
        self.es3?;
        let p = self.p_wait();
        let w = self.mean_wait();
        if p <= 0.0 || w <= 0.0 {
            return None;
        }
        let mean_c = w / p;
        let var_c = self.wait_second_moment() / p - mean_c * mean_c;
        if !var_c.is_finite() || var_c <= 0.0 {
            return None;
        }
        let k = mean_c * mean_c / var_c;
        if !k.is_finite() || (k - 1.0).abs() < EXP_SHAPE_EPS {
            // Exponential service (or indistinguishable from it): the
            // plain exponential tail is exact and cheaper.
            return None;
        }
        Some((k, var_c / mean_c))
    }

    /// Approximate mean queue length via Little's law,
    /// `Lq = lambda * Wq`.
    pub(crate) fn mean_queue(&self) -> f64 {
        self.mmc.mean_queue() * self.variability_factor()
    }

    /// Approximate waiting-time tail: `p_wait · Q(k, t/θ)` under the
    /// gamma fit, `p_wait e^{-r t}` under the exponential fallback.
    pub(crate) fn wait_tail(&self, t: f64) -> f64 {
        if let Some((k, theta)) = self.gamma_fit() {
            if t <= 0.0 {
                return self.p_wait();
            }
            return self.p_wait() * gamma_q(k, t / theta);
        }
        let r = self.tail_rate();
        if !r.is_finite() {
            return 0.0;
        }
        self.p_wait() * (-r * t).exp()
    }

    /// Deadline-miss probability for `deadline = arrival + service +
    /// slack` with `slack ~ U[lo, hi]`: `E[P[W > slack]]` — in closed
    /// form for the exponential tail, by quadrature for the gamma
    /// tail.
    pub(crate) fn miss_ratio_uniform_slack(&self, lo: f64, hi: f64) -> f64 {
        if self.gamma_fit().is_some() {
            return mean_over_uniform(lo, hi, |u| self.wait_tail(u));
        }
        let r = self.tail_rate();
        if !r.is_finite() {
            return 0.0;
        }
        uniform_slack_miss(self.p_wait(), r, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn collapses_to_exact_mmc_at_scv_one() {
        for &(lambda, mu, c) in &[(0.5, 1.0, 1u32), (2.4, 1.0, 3), (5.6, 1.0, 8)] {
            let exact = Mmc::new(lambda, mu, c).unwrap();
            let approx = GgcApprox::new(lambda, mu, c, 1.0, 1.0).unwrap();
            // The exact M/M/c wait: 0 w.p. 1 - C, Exp(theta) w.p. C.
            let (c, theta) = (exact.p_wait(), exact.theta());
            let variance = 2.0 * c / (theta * theta) - (c / theta) * (c / theta);
            assert!((approx.mean_wait() - exact.mean_wait()).abs() < TOL);
            assert!((approx.wait_variance() - variance).abs() < TOL);
            assert!((approx.mean_queue() - exact.mean_queue()).abs() < TOL);
            assert!((approx.tail_rate() - theta).abs() < 1e-9);
            for &t in &[0.0, 0.7, 3.0] {
                assert!((approx.wait_tail(t) - c * (-theta * t).exp()).abs() < TOL);
            }
            for &(lo, hi) in &[(0.0, 0.0), (0.25, 2.5)] {
                assert!(
                    (approx.miss_ratio_uniform_slack(lo, hi)
                        - uniform_slack_miss(c, theta, lo, hi))
                    .abs()
                        < TOL
                );
            }
        }
    }

    #[test]
    fn matches_pollaczek_khinchine_at_c1_poisson() {
        // M/G/1: Wq = lambda E[S^2] / (2 (1 - rho)) with
        // E[S^2] = m^2 (1 + cs2).
        for &cs2 in &[0.0, 0.25, 1.0, 4.0] {
            let (lambda, mean_s) = (0.6, 1.0);
            let q = GgcApprox::new(lambda, 1.0 / mean_s, 1, 1.0, cs2).unwrap();
            let es2 = mean_s * mean_s * (1.0 + cs2);
            let pk = lambda * es2 / (2.0 * (1.0 - lambda * mean_s));
            assert!(
                (q.mean_wait() - pk).abs() < TOL,
                "PK mismatch at cs2={cs2}: {} vs {pk}",
                q.mean_wait()
            );
        }
    }

    #[test]
    fn lower_variability_means_less_waiting() {
        let det = GgcApprox::new(2.4, 1.0, 3, 1.0, 0.0).unwrap();
        let exp = GgcApprox::new(2.4, 1.0, 3, 1.0, 1.0).unwrap();
        let hyper = GgcApprox::new(2.4, 1.0, 3, 1.0, 4.0).unwrap();
        assert!(det.mean_wait() < exp.mean_wait());
        assert!(exp.mean_wait() < hyper.mean_wait());
        assert!(
            det.miss_ratio_uniform_slack(0.25, 2.5) < hyper.miss_ratio_uniform_slack(0.25, 2.5)
        );
    }

    #[test]
    fn degenerate_zero_variability_has_zero_wait() {
        // ca2 = cs2 = 0 (D/D/c below capacity): no queueing.
        let q = GgcApprox::new(0.5, 1.0, 1, 0.0, 0.0).unwrap();
        assert!(q.mean_wait().abs() < TOL);
        assert!(q.wait_variance().abs() < TOL);
        assert!(q.wait_tail(0.1) < TOL);
        assert!(q.miss_ratio_uniform_slack(0.0, 1.0) < TOL);
    }

    #[test]
    fn rejects_bad_scv() {
        assert!(GgcApprox::new(0.5, 1.0, 1, -1.0, 1.0).is_err());
        assert!(GgcApprox::new(0.5, 1.0, 1, 1.0, f64::NAN).is_err());
        assert!(GgcApprox::new(2.0, 1.0, 2, 1.0, 1.0).is_err());
    }

    #[test]
    fn third_moment_refinement_is_mg1_only() {
        // Multi-server or non-Poisson models have no exact Takács
        // moment; the builder refuses rather than silently degrading.
        assert!(GgcApprox::new(2.4, 1.0, 3, 1.0, 1.0)
            .unwrap()
            .with_service_third_moment(6.0)
            .is_err());
        assert!(GgcApprox::new(0.5, 1.0, 1, 0.5, 1.0)
            .unwrap()
            .with_service_third_moment(6.0)
            .is_err());
        let q = GgcApprox::new(0.5, 1.0, 1, 1.0, 1.0).unwrap();
        assert!(q.with_service_third_moment(0.0).is_err());
        assert!(q.with_service_third_moment(f64::NAN).is_err());
    }

    #[test]
    fn exponential_third_moment_recovers_the_exact_mm1_tail() {
        // Exp(mu) service: E[S³] = 6/mu³. The gamma fit must find
        // k = 1 and collapse to the plain (exact) exponential tail,
        // bit for bit.
        let plain = GgcApprox::new(0.6, 1.0, 1, 1.0, 1.0).unwrap();
        let refined = plain.with_service_third_moment(6.0).unwrap();
        assert_eq!(refined.mean_wait(), plain.mean_wait());
        for &t in &[0.0, 0.5, 2.0, 10.0] {
            assert_eq!(refined.wait_tail(t), plain.wait_tail(t));
        }
        assert_eq!(
            refined.miss_ratio_uniform_slack(0.25, 2.5),
            plain.miss_ratio_uniform_slack(0.25, 2.5)
        );
        // The Takács second moment agrees with the exponential one for
        // exponential service: 2 rho / theta².
        let theta = 1.0 - 0.6;
        assert!((refined.wait_second_moment() - 2.0 * 0.6 / (theta * theta)).abs() < TOL);
    }

    #[test]
    fn gamma_tail_preserves_the_pk_moments() {
        // Erlang-4 service at rho = 0.6: E[S³] = m³ (k+1)(k+2)/k² with
        // k = 4. The gamma-matched tail must integrate back to the
        // exact PK mean wait and Takács second moment.
        let (lambda, m) = (0.6, 1.0);
        let es3 = m * m * m * 30.0 / 16.0;
        let q = GgcApprox::new(lambda, 1.0 / m, 1, 1.0, 0.25)
            .unwrap()
            .with_service_third_moment(es3)
            .unwrap();
        // Takács reference by hand.
        let wq = q.mean_wait();
        let ew2 = 2.0 * wq * wq + lambda * es3 / (3.0 * (1.0 - 0.6));
        assert!((q.wait_second_moment() - ew2).abs() < TOL);
        // Trapezoid integration of the fitted tail: ∫ P[W>t] dt = Wq
        // and ∫ 2t P[W>t] dt = E[W²].
        let (h, n) = (1e-3, 60_000);
        let (mut m1, mut m2) = (0.0, 0.0);
        for i in 0..n {
            let t = h * (i as f64 + 0.5);
            let tail = q.wait_tail(t);
            m1 += h * tail;
            m2 += h * 2.0 * t * tail;
        }
        assert!((m1 - wq).abs() < 1e-6, "mean {m1} vs {wq}");
        assert!((m2 - ew2).abs() < 1e-5, "second moment {m2} vs {ew2}");
        // Low-variability service ⇒ the refined tail sits below the
        // one-moment exponential fit far out.
        let plain = GgcApprox::new(lambda, 1.0 / m, 1, 1.0, 0.25).unwrap();
        assert!(q.wait_tail(8.0) < plain.wait_tail(8.0));
    }
}
