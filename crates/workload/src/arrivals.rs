//! Time-varying arrival processes.
//!
//! The paper's workload model drives every task stream with a stationary
//! Poisson process. Real traffic is bursty and phased, so this module
//! generalizes the *arrival side* of the model while leaving the mean
//! rate — and therefore the configured [`load`](crate::WorkloadConfig::load)
//! — untouched:
//!
//! * [`ArrivalProcess::Poisson`] — the paper's stationary stream, and the
//!   default. Sampling is bit-identical to the pre-existing exponential
//!   interarrival path, so existing seeded runs reproduce exactly.
//! * [`ArrivalProcess::Mmpp2`] — a 2-state Markov-modulated Poisson
//!   process: the stream alternates between a *quiet* and a *burst*
//!   state (exponentially distributed dwell times) and arrives at a
//!   state-dependent rate. The two rates are normalized so the
//!   **time-average rate equals the configured one**; the `burst_ratio`
//!   controls how much burstier-than-Poisson the stream is (ratio 1
//!   degenerates to Poisson; the interarrival coefficient of variation
//!   grows with the ratio and the dwell times).
//! * [`ArrivalProcess::Phased`] — a deterministic, cyclic script of
//!   piecewise-constant rate factors (diurnal patterns, overload
//!   transients). Factors are likewise normalized to preserve the mean
//!   rate over one cycle, so a factor-2 overload phase really runs at
//!   twice the *configured* load while the quiet phases compensate.
//!
//! Every stream (each node's local stream and the global stream) owns
//! an independent [`ArrivalSampler`] holding the per-stream state (MMPP
//! phase, position in the cycle), so sampling the next interarrival gap
//! is O(segments) worst case, amortized O(1), and performs **no heap
//! allocation** — the samplers live inside the
//! [`TaskFactory`](crate::TaskFactory) for the whole run.
//!
//! See the crate root for how the processes plug into the rest of the
//! workload model.

use rand::Rng;
use serde::{Deserialize, Serialize};

use sda_sim::dist::Exponential;
use sda_sim::rng::Stream;

use crate::config::ConfigError;

/// One segment of a [`Phased`](ArrivalProcess::Phased) arrival script.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSegment {
    /// How long the segment lasts (time units; finite, > 0).
    pub duration: f64,
    /// The *relative* arrival-rate factor during the segment (finite,
    /// ≥ 0; a zero factor means a silent phase). Factors are normalized
    /// over the whole cycle, so only their ratios matter.
    pub rate_factor: f64,
}

impl PhaseSegment {
    /// A segment of `duration` time units at relative rate `rate_factor`.
    pub fn new(duration: f64, rate_factor: f64) -> PhaseSegment {
        PhaseSegment {
            duration,
            rate_factor,
        }
    }
}

/// The arrival-process family a workload's task streams draw from.
///
/// All variants have the **same time-average rate** (the one derived
/// from `load`/`frac_local`); they differ in how arrivals cluster in
/// time: `Poisson` is the paper's stationary stream (bit-identical to
/// the pre-existing sampler), `Mmpp2` alternates quiet/burst states
/// with exponential dwells, and `Phased` follows a deterministic cyclic
/// rate script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalProcess {
    /// Stationary Poisson arrivals — the paper's model and the default.
    /// Bit-identical to the pre-`ArrivalProcess` implementation.
    #[default]
    Poisson,
    /// 2-state Markov-modulated Poisson process (quiet ↔ burst).
    Mmpp2 {
        /// Arrival-rate ratio burst/quiet (finite, > 0; > 1 for actual
        /// bursts — exactly 1 degenerates to Poisson).
        burst_ratio: f64,
        /// Mean dwell time in the quiet state (finite, > 0).
        dwell_quiet: f64,
        /// Mean dwell time in the burst state (finite, > 0).
        dwell_burst: f64,
    },
    /// A cyclic script of piecewise-constant rate factors.
    Phased {
        /// The segments, visited in order and repeated forever. Must be
        /// non-empty with at least one positive `rate_factor`.
        segments: Vec<PhaseSegment>,
    },
}

impl ArrivalProcess {
    /// Whether this is the paper's stationary Poisson process.
    pub fn is_poisson(&self) -> bool {
        matches!(self, ArrivalProcess::Poisson)
    }

    /// Checks the process parameters.
    ///
    /// MMPP parameters are reported as indexed entries of
    /// `arrival_process.mmpp2` (0 = `burst_ratio`, 1 = `dwell_quiet`,
    /// 2 = `dwell_burst`); phased-segment errors name the offending
    /// segment index.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalProcess::Poisson => Ok(()),
            ArrivalProcess::Mmpp2 {
                burst_ratio,
                dwell_quiet,
                dwell_burst,
            } => {
                let entries = [(0usize, *burst_ratio), (1, *dwell_quiet), (2, *dwell_burst)];
                for (index, value) in entries {
                    if !(value.is_finite() && value > 0.0) {
                        return Err(ConfigError::InvalidEntry {
                            what: "arrival_process.mmpp2",
                            index,
                            constraint: "finite and > 0",
                            value,
                        });
                    }
                }
                Ok(())
            }
            ArrivalProcess::Phased { segments } => {
                if segments.is_empty() {
                    return Err(ConfigError::OutOfRange {
                        what: "arrival_process.phased segments",
                        constraint: "at least one segment",
                        value: 0.0,
                    });
                }
                for (i, seg) in segments.iter().enumerate() {
                    if !(seg.duration.is_finite() && seg.duration > 0.0) {
                        return Err(ConfigError::InvalidEntry {
                            what: "arrival_process.phased duration",
                            index: i,
                            constraint: "finite and > 0",
                            value: seg.duration,
                        });
                    }
                    if !(seg.rate_factor.is_finite() && seg.rate_factor >= 0.0) {
                        return Err(ConfigError::InvalidEntry {
                            what: "arrival_process.phased rate_factor",
                            index: i,
                            constraint: "finite and ≥ 0",
                            value: seg.rate_factor,
                        });
                    }
                }
                let mean = segments
                    .iter()
                    .map(|s| s.duration * s.rate_factor)
                    .sum::<f64>()
                    / segments.iter().map(|s| s.duration).sum::<f64>();
                // NaN factors were rejected above, so this is a plain
                // all-silent-cycle check.
                if mean <= 0.0 {
                    return Err(ConfigError::OutOfRange {
                        what: "arrival_process.phased mean rate factor",
                        constraint: "> 0 over one cycle",
                        value: mean,
                    });
                }
                Ok(())
            }
        }
    }

    /// The time-average of the raw (un-normalized) rate multiplier —
    /// the constant every multiplier is divided by so the process keeps
    /// the configured mean rate. 1 for Poisson.
    pub(crate) fn mean_rate_factor(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Mmpp2 {
                burst_ratio,
                dwell_quiet,
                dwell_burst,
            } => {
                // Stationary fraction of time in each state is
                // proportional to its mean dwell.
                (dwell_quiet + dwell_burst * burst_ratio) / (dwell_quiet + dwell_burst)
            }
            ArrivalProcess::Phased { segments } => {
                segments
                    .iter()
                    .map(|s| s.duration * s.rate_factor)
                    .sum::<f64>()
                    / segments.iter().map(|s| s.duration).sum::<f64>()
            }
        }
    }
}

/// Per-stream sampler state for one arrival stream under an
/// [`ArrivalProcess`]. Built once per stream by the
/// [`TaskFactory`](crate::TaskFactory); sampling allocates nothing.
#[derive(Debug, Clone)]
pub enum ArrivalSampler {
    /// Stationary Poisson: one exponential draw per gap — the exact
    /// pre-existing sampling path, bit for bit.
    Poisson(Exponential),
    /// 2-state MMPP: alternates exponential dwells between a quiet and a
    /// burst phase; within a phase arrivals are Poisson at the phase
    /// rate. Exactness rests on the memorylessness of the exponential:
    /// at a phase switch the residual time to the next arrival is
    /// redrawn at the new rate.
    Mmpp2 {
        /// Interarrival distribution per state (0 = quiet, 1 = burst).
        arrive: [Exponential; 2],
        /// Dwell-time distribution per state.
        dwell: [Exponential; 2],
        /// Current state (0 = quiet, 1 = burst).
        state: usize,
        /// Time remaining in the current state.
        dwell_left: f64,
        /// Whether the initial dwell has been drawn yet.
        primed: bool,
    },
    /// Cyclic piecewise-constant rates, sampled exactly by inverting the
    /// cumulative intensity: one unit-exponential draw per gap,
    /// integrated through the (deterministic) rate script.
    Phased {
        /// Absolute arrival rate per segment (normalized so the cycle
        /// mean is the configured rate).
        rates: Vec<f64>,
        /// Segment durations.
        durations: Vec<f64>,
        /// Index of the segment the stream clock is currently in.
        segment: usize,
        /// Time already consumed inside the current segment.
        into_segment: f64,
    },
}

impl ArrivalSampler {
    /// Builds the sampler for one stream of mean rate `rate`; `None` if
    /// the stream generates nothing (`rate ≤ 0`). The process must have
    /// been validated.
    pub fn new(process: &ArrivalProcess, rate: f64) -> Option<ArrivalSampler> {
        if rate <= 0.0 {
            return None;
        }
        Some(match process {
            ArrivalProcess::Poisson => {
                ArrivalSampler::Poisson(Exponential::with_rate(rate).expect("positive rate"))
            }
            ArrivalProcess::Mmpp2 {
                burst_ratio,
                dwell_quiet,
                dwell_burst,
            } => {
                let norm = process.mean_rate_factor();
                let quiet_rate = rate / norm;
                let burst_rate = rate * burst_ratio / norm;
                ArrivalSampler::Mmpp2 {
                    arrive: [
                        Exponential::with_rate(quiet_rate).expect("validated ratio"),
                        Exponential::with_rate(burst_rate).expect("validated ratio"),
                    ],
                    dwell: [
                        Exponential::with_mean(*dwell_quiet).expect("validated dwell"),
                        Exponential::with_mean(*dwell_burst).expect("validated dwell"),
                    ],
                    state: 0,
                    dwell_left: 0.0,
                    primed: false,
                }
            }
            ArrivalProcess::Phased { segments } => {
                let norm = process.mean_rate_factor();
                ArrivalSampler::Phased {
                    rates: segments
                        .iter()
                        .map(|s| rate * s.rate_factor / norm)
                        .collect(),
                    durations: segments.iter().map(|s| s.duration).collect(),
                    segment: 0,
                    into_segment: 0.0,
                }
            }
        })
    }

    /// Draws the gap to the stream's next arrival, advancing the
    /// per-stream state. Allocation-free.
    #[inline]
    pub fn sample_with(&mut self, rng: &mut Stream) -> f64 {
        match self {
            ArrivalSampler::Poisson(exp) => exp.sample_with(rng),
            ArrivalSampler::Mmpp2 {
                arrive,
                dwell,
                state,
                dwell_left,
                primed,
            } => {
                if !*primed {
                    *dwell_left = dwell[*state].sample_with(rng);
                    *primed = true;
                }
                let mut gap = 0.0;
                loop {
                    let e = arrive[*state].sample_with(rng);
                    if e <= *dwell_left {
                        *dwell_left -= e;
                        return gap + e;
                    }
                    // No arrival before the phase switch: consume the
                    // rest of the dwell and redraw in the next state
                    // (exact, by memorylessness).
                    gap += *dwell_left;
                    *state ^= 1;
                    *dwell_left = dwell[*state].sample_with(rng);
                }
            }
            ArrivalSampler::Phased {
                rates,
                durations,
                segment,
                into_segment,
            } => {
                // Invert the cumulative intensity: find t with
                // ∫ λ(s) ds = E, E ~ Exp(1).
                let u: f64 = rng.gen();
                let mut target = -(1.0 - u).ln();
                let mut gap = 0.0;
                loop {
                    let rate = rates[*segment];
                    let room = durations[*segment] - *into_segment;
                    if rate > 0.0 {
                        let t = target / rate;
                        if t <= room {
                            *into_segment += t;
                            return gap + t;
                        }
                        target -= room * rate;
                    }
                    gap += room;
                    *segment = (*segment + 1) % durations.len();
                    *into_segment = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_sim::rng::RngFactory;

    fn stream(seed: u64) -> Stream {
        RngFactory::new(seed).stream("arrivals-test")
    }

    #[test]
    fn poisson_sampler_matches_raw_exponential_bit_exactly() {
        let mut a = ArrivalSampler::new(&ArrivalProcess::Poisson, 0.375).unwrap();
        let exp = Exponential::with_rate(0.375).unwrap();
        let mut ra = stream(1);
        let mut rb = stream(1);
        for _ in 0..1000 {
            assert_eq!(
                a.sample_with(&mut ra).to_bits(),
                exp.sample_with(&mut rb).to_bits()
            );
        }
    }

    #[test]
    fn zero_rate_builds_no_sampler() {
        assert!(ArrivalSampler::new(&ArrivalProcess::Poisson, 0.0).is_none());
        let mmpp = ArrivalProcess::Mmpp2 {
            burst_ratio: 4.0,
            dwell_quiet: 100.0,
            dwell_burst: 25.0,
        };
        assert!(ArrivalSampler::new(&mmpp, -1.0).is_none());
    }

    #[test]
    fn mmpp_long_run_rate_matches_mean() {
        let process = ArrivalProcess::Mmpp2 {
            burst_ratio: 6.0,
            dwell_quiet: 120.0,
            dwell_burst: 40.0,
        };
        process.validate().unwrap();
        let rate = 0.8;
        let mut s = ArrivalSampler::new(&process, rate).unwrap();
        let mut rng = stream(7);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| s.sample_with(&mut rng)).sum();
        let empirical = n as f64 / total;
        assert!(
            (empirical - rate).abs() / rate < 0.05,
            "empirical rate {empirical} vs configured {rate}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared CV of the interarrival gaps must exceed the
        // exponential's 1 for a real burst ratio.
        let process = ArrivalProcess::Mmpp2 {
            burst_ratio: 8.0,
            dwell_quiet: 200.0,
            dwell_burst: 50.0,
        };
        let mut s = ArrivalSampler::new(&process, 1.0).unwrap();
        let mut rng = stream(8);
        let n = 100_000;
        let gaps: Vec<f64> = (0..n).map(|_| s.sample_with(&mut rng)).collect();
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 1.3, "MMPP cv² {cv2} should exceed Poisson's 1");
    }

    #[test]
    fn phased_long_run_rate_matches_mean() {
        let process = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(400.0, 1.0), PhaseSegment::new(100.0, 2.5)],
        };
        process.validate().unwrap();
        let rate = 0.5;
        let mut s = ArrivalSampler::new(&process, rate).unwrap();
        let mut rng = stream(9);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| s.sample_with(&mut rng)).sum();
        let empirical = n as f64 / total;
        assert!(
            (empirical - rate).abs() / rate < 0.05,
            "empirical rate {empirical} vs configured {rate}"
        );
    }

    #[test]
    fn phased_silent_segments_produce_no_arrivals_inside_them() {
        // Cycle: 10 units at factor 2, then 10 silent units. Arrival
        // positions (mod 20, tracked by the sampler's own clock) must
        // all land in the first half.
        let process = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(10.0, 2.0), PhaseSegment::new(10.0, 0.0)],
        };
        let mut s = ArrivalSampler::new(&process, 1.0).unwrap();
        let mut rng = stream(10);
        let mut clock = 0.0;
        for _ in 0..5_000 {
            clock += s.sample_with(&mut rng);
            let phase = clock % 20.0;
            assert!(
                phase <= 10.0 + 1e-9,
                "arrival at cycle position {phase} inside the silent phase"
            );
        }
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        for process in [
            ArrivalProcess::Mmpp2 {
                burst_ratio: 3.0,
                dwell_quiet: 50.0,
                dwell_burst: 10.0,
            },
            ArrivalProcess::Phased {
                segments: vec![PhaseSegment::new(30.0, 0.5), PhaseSegment::new(10.0, 3.0)],
            },
        ] {
            let mut a = ArrivalSampler::new(&process, 0.7).unwrap();
            let mut b = ArrivalSampler::new(&process, 0.7).unwrap();
            let mut ra = stream(42);
            let mut rb = stream(42);
            for _ in 0..2_000 {
                assert_eq!(
                    a.sample_with(&mut ra).to_bits(),
                    b.sample_with(&mut rb).to_bits()
                );
            }
        }
    }

    #[test]
    fn validation_rejects_degenerate_processes() {
        assert!(ArrivalProcess::Poisson.validate().is_ok());
        let bad_ratio = ArrivalProcess::Mmpp2 {
            burst_ratio: 0.0,
            dwell_quiet: 10.0,
            dwell_burst: 10.0,
        };
        assert_eq!(
            bad_ratio.validate(),
            Err(ConfigError::InvalidEntry {
                what: "arrival_process.mmpp2",
                index: 0,
                constraint: "finite and > 0",
                value: 0.0,
            })
        );
        let bad_dwell = ArrivalProcess::Mmpp2 {
            burst_ratio: 2.0,
            dwell_quiet: 10.0,
            dwell_burst: -3.0,
        };
        assert_eq!(
            bad_dwell.validate(),
            Err(ConfigError::InvalidEntry {
                what: "arrival_process.mmpp2",
                index: 2,
                constraint: "finite and > 0",
                value: -3.0,
            })
        );
        assert!(ArrivalProcess::Phased { segments: vec![] }
            .validate()
            .is_err());
    }

    #[test]
    fn mean_rate_factor_normalizes() {
        let mmpp = ArrivalProcess::Mmpp2 {
            burst_ratio: 4.0,
            dwell_quiet: 300.0,
            dwell_burst: 100.0,
        };
        // (300·1 + 100·4)/400 = 1.75.
        assert!((mmpp.mean_rate_factor() - 1.75).abs() < 1e-12);
        let phased = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(10.0, 1.0), PhaseSegment::new(10.0, 3.0)],
        };
        assert!((phased.mean_rate_factor() - 2.0).abs() < 1e-12);
        assert_eq!(ArrivalProcess::Poisson.mean_rate_factor(), 1.0);
    }
}
