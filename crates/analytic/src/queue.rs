//! Exact steady-state results for M/M/1 and M/M/c queues.
//!
//! All formulas are standard (see e.g. Kleinrock vol. 1). Time is in the
//! same abstract units as the simulator; rates are per unit time.

use std::fmt;

/// Error returned when a queueing model cannot be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum TheoryError {
    /// A parameter was non-finite or out of its admissible range.
    BadParameter {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The offered load is at or above capacity (rho >= 1); no steady
    /// state exists.
    Unstable {
        /// The offered load `lambda / (c * mu)`.
        rho: f64,
    },
}

impl fmt::Display for TheoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TheoryError::BadParameter { what, value } => {
                write!(f, "bad parameter {what} = {value}")
            }
            TheoryError::Unstable { rho } => {
                write!(f, "queue unstable: offered load rho = {rho} >= 1")
            }
        }
    }
}

impl std::error::Error for TheoryError {}

/// Probability that an arriving customer misses a deadline of the form
/// `service_end > arrival + service + slack` with `slack ~ U[lo, hi]`,
/// when the waiting time is `0` w.p. `1 - p_wait` and
/// `Exp(theta)`-distributed w.p. `p_wait` (the M/M/c wait law).
///
/// Under FCFS the response is `wait + service`, so the deadline
/// `arrival + service + slack` is missed iff `wait > slack`:
/// `P[miss] = p_wait * E[e^{-theta * slack}]`, which for uniform slack is
/// `p_wait * e^{-theta lo} * (1 - e^{-theta (hi-lo)}) / (theta (hi-lo))`.
pub(crate) fn uniform_slack_miss(p_wait: f64, theta: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(theta > 0.0);
    let span = hi - lo;
    if span > 0.0 {
        p_wait * (-theta * lo).exp() * (-(-theta * span).exp_m1()) / (theta * span)
    } else {
        p_wait * (-theta * lo).exp()
    }
}

/// Exact M/M/1 queue: Poisson arrivals at `lambda`, exponential service
/// at rate `mu`, one server, FCFS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1 {
    lambda: f64,
    mu: f64,
}

impl Mm1 {
    /// Build an M/M/1 model; errors if parameters are invalid or the
    /// queue is unstable (`lambda >= mu`).
    pub fn new(lambda: f64, mu: f64) -> Result<Self, TheoryError> {
        check_rate("lambda", lambda)?;
        check_rate_positive("mu", mu)?;
        let rho = lambda / mu;
        if rho >= 1.0 {
            return Err(TheoryError::Unstable { rho });
        }
        Ok(Mm1 { lambda, mu })
    }

    /// Server utilization `rho = lambda / mu`.
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Exponential decay rate of the waiting/response tails,
    /// `theta = mu - lambda`.
    pub(crate) fn theta(&self) -> f64 {
        self.mu - self.lambda
    }

    /// Mean waiting time in queue `Wq = rho / (mu - lambda)`.
    pub fn mean_wait(&self) -> f64 {
        self.utilization() / self.theta()
    }
}

/// Exact M/M/c queue: Poisson arrivals at `lambda`, `c` identical
/// exponential servers at rate `mu` each, FCFS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmc {
    lambda: f64,
    mu: f64,
    servers: u32,
    /// Erlang-C probability of waiting, cached at construction.
    p_wait: f64,
}

impl Mmc {
    /// Build an M/M/c model; errors if parameters are invalid or the
    /// queue is unstable (`lambda >= c * mu`).
    pub fn new(lambda: f64, mu: f64, servers: u32) -> Result<Self, TheoryError> {
        check_rate("lambda", lambda)?;
        check_rate_positive("mu", mu)?;
        if servers == 0 {
            return Err(TheoryError::BadParameter {
                what: "servers",
                value: 0.0,
            });
        }
        let c = f64::from(servers);
        let rho = lambda / (c * mu);
        if rho >= 1.0 {
            return Err(TheoryError::Unstable { rho });
        }
        // Erlang-B via the numerically stable recurrence, then Erlang-C.
        let a = lambda / mu;
        let mut b = 1.0;
        for k in 1..=servers {
            b = a * b / (f64::from(k) + a * b);
        }
        let p_wait = b / (1.0 - rho * (1.0 - b));
        Ok(Mmc {
            lambda,
            mu,
            servers,
            p_wait,
        })
    }

    /// Per-server utilization `rho = lambda / (c * mu)`.
    pub fn utilization(&self) -> f64 {
        self.lambda / (f64::from(self.servers) * self.mu)
    }

    /// The arrival rate `lambda`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The number of servers `c`.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Erlang-C probability that an arrival must wait.
    pub(crate) fn p_wait(&self) -> f64 {
        self.p_wait
    }

    /// Exponential decay rate of the waiting-time tail,
    /// `theta = c mu - lambda`.
    pub(crate) fn theta(&self) -> f64 {
        f64::from(self.servers) * self.mu - self.lambda
    }

    /// Mean waiting time in queue `Wq = C / theta` with `C` the
    /// Erlang-C probability.
    pub fn mean_wait(&self) -> f64 {
        self.p_wait / self.theta()
    }

    /// Mean number waiting in queue `Lq = C rho / (1 - rho)`.
    pub(crate) fn mean_queue(&self) -> f64 {
        let rho = self.utilization();
        self.p_wait * rho / (1.0 - rho)
    }
}

fn check_rate(what: &'static str, v: f64) -> Result<(), TheoryError> {
    if !v.is_finite() || v < 0.0 {
        Err(TheoryError::BadParameter { what, value: v })
    } else {
        Ok(())
    }
}

fn check_rate_positive(what: &'static str, v: f64) -> Result<(), TheoryError> {
    if !v.is_finite() || v <= 0.0 {
        Err(TheoryError::BadParameter { what, value: v })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    /// Independent oracle for the Erlang-C formula and the M/M/c queue
    /// moments: solve the truncated birth-death stationary distribution
    /// `p_{n+1} = p_n * lambda / (mu * min(n+1, c))` numerically and
    /// compare.
    fn birth_death_oracle(lambda: f64, mu: f64, c: u32) -> (f64, f64) {
        let cap = f64::from(c) * mu;
        let rho = lambda / cap;
        assert!(rho < 1.0);
        // Truncate when the geometric tail is negligible.
        let mut probs = vec![1.0f64];
        let mut n = 0u32;
        loop {
            let servers_busy = f64::from((n + 1).min(c));
            let next = probs[n as usize] * lambda / (mu * servers_busy);
            probs.push(next);
            n += 1;
            if n > c && next < 1e-18 * probs[0] {
                break;
            }
        }
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        // P[wait] = P[N >= c]; Lq = sum (n - c)+ p_n.
        let p_wait: f64 = probs.iter().skip(c as usize).sum();
        let lq: f64 = probs
            .iter()
            .enumerate()
            .skip(c as usize + 1)
            .map(|(n, p)| (n as f64 - f64::from(c)) * p)
            .sum();
        (p_wait, lq)
    }

    #[test]
    fn erlang_c_matches_birth_death_oracle() {
        for &(lambda, mu, c) in &[
            (0.5, 1.0, 1u32),
            (2.4, 1.0, 3),
            (7.0, 1.0, 8),
            (0.95, 0.25, 6),
            (19.0, 1.0, 20),
        ] {
            let q = Mmc::new(lambda, mu, c).unwrap();
            let (p_wait, lq) = birth_death_oracle(lambda, mu, c);
            assert!(
                (q.p_wait() - p_wait).abs() < 1e-10,
                "p_wait mismatch at ({lambda},{mu},{c}): {} vs {p_wait}",
                q.p_wait()
            );
            assert!(
                (q.mean_queue() - lq).abs() < 1e-9,
                "Lq mismatch at ({lambda},{mu},{c}): {} vs {lq}",
                q.mean_queue()
            );
        }
    }

    #[test]
    fn mmc_collapses_to_mm1_at_c_equals_1() {
        for &(lambda, mu) in &[(0.3, 1.0), (0.9, 1.0), (1.7, 2.0), (0.99, 1.0)] {
            let a = Mm1::new(lambda, mu).unwrap();
            let b = Mmc::new(lambda, mu, 1).unwrap();
            assert!((a.utilization() - b.utilization()).abs() < TOL);
            assert!((a.utilization() - b.p_wait()).abs() < TOL);
            assert!((a.theta() - b.theta()).abs() < TOL);
            assert!((a.mean_wait() - b.mean_wait()).abs() < TOL);
        }
    }

    #[test]
    fn mm1_closed_forms() {
        let q = Mm1::new(0.5, 1.0).unwrap();
        assert!((q.utilization() - 0.5).abs() < TOL);
        assert!((q.mean_wait() - 1.0).abs() < TOL);
    }

    #[test]
    fn unstable_and_bad_parameters_are_rejected() {
        assert!(matches!(
            Mm1::new(1.0, 1.0),
            Err(TheoryError::Unstable { .. })
        ));
        assert!(matches!(
            Mmc::new(3.0, 1.0, 3),
            Err(TheoryError::Unstable { .. })
        ));
        assert!(matches!(
            Mmc::new(1.0, 0.0, 3),
            Err(TheoryError::BadParameter { .. })
        ));
        assert!(matches!(
            Mmc::new(1.0, 1.0, 0),
            Err(TheoryError::BadParameter { .. })
        ));
        assert!(matches!(
            Mm1::new(f64::NAN, 1.0),
            Err(TheoryError::BadParameter { .. })
        ));
        let err = Mmc::new(3.0, 1.0, 2).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
