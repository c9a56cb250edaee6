//! The M/G/1 queue: Poisson arrivals, one server, general service, FCFS.
//!
//! Every node of the paper's system (§3.2) is one server with its own
//! scheduler, so this is the predictor's only queue model. With
//! `ρ = λ E[S]` and `cs²` the squared coefficient of variation of the
//! service time (Kleinrock vol. 1, ch. 5):
//!
//! * an arrival waits with probability `P[W > 0] = ρ`;
//! * the Pollaczek–Khinchine mean wait is
//!   `Wq = λ E[S²] / (2 (1 − ρ)) = ρ E[S] (1 + cs²) / (2 (1 − ρ))`;
//! * Little's law gives `Lq = λ Wq`;
//! * when `E[S³]` is finite, the Takács recursion gives the second
//!   moment `E[W²] = 2 Wq² + λ E[S³] / (3 (1 − ρ))`.
//!
//! The waiting-time law is a point mass `1 − ρ` at zero plus a tail
//! fitted to those moments. With `E[S³]`, the wait given `W > 0` is a
//! gamma matched on its mean and variance, so
//! `P[W > t] = ρ Q(k, t/θ)` with `Q` the regularized upper incomplete
//! gamma. Without it, or when the fit finds `k = 1` (exponential
//! service), the tail is `P[W > t] = ρ e^{−r t}` with `r = ρ / Wq`, the
//! exact M/M/1 law at `cs² = 1`.

use crate::special::{gamma_q, mean_over_uniform};

/// Below this distance from `k = 1` the gamma fit is replaced by the
/// (then exact, and cheaper) exponential tail.
const EXP_SHAPE_EPS: f64 = 1e-9;

/// The law of the wait given `W > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tail {
    /// Exponential with this rate.
    Exponential(f64),
    /// Gamma with this shape `k` and scale `θ`.
    Gamma(f64, f64),
}

/// An M/G/1 queue at arrival rate `λ` with service moments `E[S]`,
/// `cs²` and, when finite, `E[S³]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Mg1 {
    lambda: f64,
    rho: f64,
    mean_wait: f64,
    /// `E[W²]`: Takács with `E[S³]`, else the exponential tail's `2ρ/r²`.
    wait_second_moment: f64,
    tail: Tail,
}

impl Mg1 {
    /// Builds the queue. A negative `cs2` counts as 0 (rounding can
    /// leave a mixture's a hair below zero). Returns `None` unless
    /// `0 < ρ < 1`, `cs2` and `es3` are finite, and so are `E[W²]` and
    /// the tail rate `ρ / Wq`.
    pub(crate) fn new(lambda: f64, es: f64, cs2: f64, es3: Option<f64>) -> Option<Mg1> {
        let rho = lambda * es;
        if !(cs2.is_finite() && es3.is_none_or(f64::is_finite) && rho > 0.0 && rho < 1.0) {
            return None;
        }
        let mean_wait = rho * es * (1.0 + cs2.max(0.0)) / (2.0 * (1.0 - rho));
        let rate = rho / mean_wait;
        let wait_second_moment = match es3 {
            Some(es3) => 2.0 * mean_wait * mean_wait + lambda * es3 / (3.0 * (1.0 - rho)),
            None => 2.0 * rho / (rate * rate),
        };
        if !(rate.is_finite() && wait_second_moment.is_finite()) {
            return None;
        }
        let mut tail = Tail::Exponential(rate);
        if es3.is_some() {
            let mean_c = mean_wait / rho;
            let var_c = wait_second_moment / rho - mean_c * mean_c;
            let k = mean_c * mean_c / var_c;
            if k > 0.0 && k.is_finite() && (k - 1.0).abs() >= EXP_SHAPE_EPS {
                tail = Tail::Gamma(k, var_c / mean_c);
            }
        }
        Some(Mg1 {
            lambda,
            rho,
            mean_wait,
            wait_second_moment,
            tail,
        })
    }

    /// The Pollaczek–Khinchine mean wait `Wq`.
    pub(crate) fn mean_wait(&self) -> f64 {
        self.mean_wait
    }

    /// The waiting-time variance `E[W²] − Wq²`.
    pub(crate) fn wait_variance(&self) -> f64 {
        self.wait_second_moment - self.mean_wait * self.mean_wait
    }

    /// The mean number waiting, `Lq = λ Wq`.
    pub(crate) fn mean_queue(&self) -> f64 {
        self.lambda * self.mean_wait
    }

    /// `P[W > t]`.
    pub(crate) fn wait_tail(&self, t: f64) -> f64 {
        match self.tail {
            Tail::Gamma(k, theta) => self.rho * gamma_q(k, t / theta),
            Tail::Exponential(r) => self.rho * (-r * t).exp(),
        }
    }

    /// The miss probability of a task whose deadline is `arrival +
    /// service + slack` with `slack ~ U[lo, hi]`. Under FCFS the
    /// response is `wait + service`, so it misses iff `W > slack`:
    /// `E[P[W > slack]]`, by quadrature for the gamma tail and in closed
    /// form for the exponential one,
    /// `ρ e^{−r lo} (1 − e^{−r (hi−lo)}) / (r (hi−lo))`.
    pub(crate) fn miss_ratio_uniform_slack(&self, lo: f64, hi: f64) -> f64 {
        let Tail::Exponential(r) = self.tail else {
            return mean_over_uniform(lo, hi, |u| self.wait_tail(u));
        };
        let span = hi - lo;
        if span > 0.0 {
            self.rho * (-r * lo).exp() * (-(-r * span).exp_m1()) / (r * span)
        } else {
            self.rho * (-r * lo).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    /// Independent oracle for the exponential-service queue: the
    /// stationary distribution of the birth–death chain
    /// `p_{n+1} = p_n λ / μ`, solved numerically and truncated where the
    /// geometric tail is negligible. Returns `(P[N ≥ 1], Lq)` with
    /// `Lq = Σ (n − 1)⁺ p_n`.
    fn birth_death_oracle(lambda: f64, mu: f64) -> (f64, f64) {
        let mut probs = vec![1.0f64];
        while probs[probs.len() - 1] >= 1e-18 {
            probs.push(probs[probs.len() - 1] * lambda / mu);
        }
        let total: f64 = probs.iter().sum();
        let p_wait = probs.iter().skip(1).sum::<f64>() / total;
        let lq = probs
            .iter()
            .enumerate()
            .skip(2)
            .map(|(n, p)| (n as f64 - 1.0) * p)
            .sum::<f64>()
            / total;
        (p_wait, lq)
    }

    #[test]
    fn exponential_service_matches_the_birth_death_oracle() {
        for &(lambda, mu) in &[(0.5, 1.0), (0.3, 1.0), (0.9, 1.0), (1.7, 2.0), (0.99, 1.0)] {
            let q = Mg1::new(lambda, 1.0 / mu, 1.0, None).unwrap();
            let (p_wait, lq) = birth_death_oracle(lambda, mu);
            let rho = lambda / mu;
            assert!(
                (q.rho - p_wait).abs() < 1e-10,
                "P[wait] at ({lambda},{mu}): {} vs {p_wait}",
                q.rho
            );
            assert!(
                (q.mean_queue() - lq).abs() < 1e-9,
                "Lq at ({lambda},{mu}): {} vs {lq}",
                q.mean_queue()
            );
            assert!((q.mean_queue() - rho * rho / (1.0 - rho)).abs() < 1e-9);
            assert!((q.mean_wait() - rho / (mu - lambda)).abs() < 1e-10);
        }
        let q = Mg1::new(0.5, 1.0, 1.0, None).unwrap();
        assert!((q.mean_wait() - 1.0).abs() < TOL);
    }

    #[test]
    fn exponential_service_is_the_exact_mm1_wait_law() {
        // M/M/1: the wait is 0 w.p. 1 − ρ and Exp(θ = μ − λ) w.p. ρ.
        for &(lambda, mu) in &[(0.5, 1.0), (0.8, 1.0), (1.2, 2.0)] {
            let q = Mg1::new(lambda, 1.0 / mu, 1.0, None).unwrap();
            let (rho, theta) = (lambda / mu, mu - lambda);
            let variance = 2.0 * rho / (theta * theta) - (rho / theta) * (rho / theta);
            assert!((q.wait_variance() - variance).abs() < 1e-10);
            for &t in &[0.0, 0.7, 3.0] {
                assert!((q.wait_tail(t) - rho * (-theta * t).exp()).abs() < TOL);
            }
            assert!((q.miss_ratio_uniform_slack(0.0, 0.0) - rho).abs() < TOL);
            let exact = mean_over_uniform(0.25, 2.5, |u| rho * (-theta * u).exp());
            assert!((q.miss_ratio_uniform_slack(0.25, 2.5) - exact).abs() < 1e-8);
        }
    }

    #[test]
    fn matches_pollaczek_khinchine() {
        // Wq = λ E[S²] / (2 (1 − ρ)) with E[S²] = m² (1 + cs2).
        for &cs2 in &[0.0, 0.25, 1.0, 4.0] {
            let (lambda, mean_s) = (0.6, 1.0);
            let q = Mg1::new(lambda, mean_s, cs2, None).unwrap();
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
        let det = Mg1::new(0.8, 1.0, 0.0, None).unwrap();
        let exp = Mg1::new(0.8, 1.0, 1.0, None).unwrap();
        let hyper = Mg1::new(0.8, 1.0, 4.0, None).unwrap();
        assert!(det.mean_wait() < exp.mean_wait());
        assert!(exp.mean_wait() < hyper.mean_wait());
        assert!(
            det.miss_ratio_uniform_slack(0.25, 2.5) < hyper.miss_ratio_uniform_slack(0.25, 2.5)
        );
    }

    #[test]
    fn exponential_third_moment_recovers_the_exact_mm1_tail() {
        // Exp(mu) service: E[S³] = 6/mu³. The gamma fit must find k = 1
        // and keep the plain (exact) exponential tail, bit for bit.
        let plain = Mg1::new(0.6, 1.0, 1.0, None).unwrap();
        let refined = Mg1::new(0.6, 1.0, 1.0, Some(6.0)).unwrap();
        assert_eq!(refined.tail, plain.tail);
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
        assert!((refined.wait_second_moment - 2.0 * 0.6 / (theta * theta)).abs() < TOL);
    }

    #[test]
    fn gamma_tail_preserves_the_pk_moments() {
        // Erlang-4 service at rho = 0.6: E[S³] = m³ (k+1)(k+2)/k² with
        // k = 4. The gamma-matched tail must integrate back to the
        // exact PK mean wait and Takács second moment.
        let (lambda, m) = (0.6, 1.0);
        let es3 = m * m * m * 30.0 / 16.0;
        let q = Mg1::new(lambda, m, 0.25, Some(es3)).unwrap();
        assert!(matches!(q.tail, Tail::Gamma(..)));
        // Takács reference by hand.
        let wq = q.mean_wait();
        let ew2 = 2.0 * wq * wq + lambda * es3 / (3.0 * (1.0 - 0.6));
        assert!((q.wait_second_moment - ew2).abs() < TOL);
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
        let plain = Mg1::new(lambda, m, 0.25, None).unwrap();
        assert!(q.wait_tail(8.0) < plain.wait_tail(8.0));
    }

    #[test]
    fn out_of_range_parameters_are_rejected() {
        // No steady state at or above capacity, no queue at zero load.
        assert_eq!(Mg1::new(1.0, 1.0, 1.0, None), None);
        assert_eq!(Mg1::new(1.2, 1.0, 1.0, None), None);
        assert_eq!(Mg1::new(0.0, 1.0, 1.0, None), None);
        assert_eq!(Mg1::new(f64::NAN, 1.0, 1.0, None), None);
        // Moments that are not finite.
        assert_eq!(Mg1::new(0.5, 1.0, f64::NAN, None), None);
        assert_eq!(Mg1::new(0.5, 1.0, f64::INFINITY, None), None);
        assert_eq!(Mg1::new(0.5, 1.0, 1.0, Some(f64::INFINITY)), None);
        // Finite inputs whose waiting moments overflow: Wq = 1e200, so
        // E[W²] = 2 Wq² / ρ is not finite.
        assert_eq!(Mg1::new(0.5e-200, 1e200, 1.0, None), None);
        // A rounding-negative SCV counts as zero.
        assert_eq!(
            Mg1::new(0.5, 1.0, -1e-17, None),
            Mg1::new(0.5, 1.0, 0.0, None)
        );
    }
}
