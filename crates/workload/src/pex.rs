//! Execution-time prediction models (§4.3: "error in the execution time
//! predictions").

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// How the predicted execution time `pex` relates to the real `ex`.
///
/// The baseline assumes perfect prediction (`pex = ex`, Table 1 row
/// `pex(X)/ex(X) = 1.0`). The extension studies multiply by random or
/// systematic factors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PexModel {
    /// `pex = ex` — Table 1 baseline.
    #[default]
    Perfect,
    /// `pex = ex · U[1 − e, 1 + e]`, unbiased multiplicative noise with
    /// relative half-width `e ∈ [0, 1]`.
    Noisy {
        /// Relative error half-width.
        error: f64,
    },
    /// `pex = ex · factor` — systematic over/under-estimation.
    Biased {
        /// Constant multiplier.
        factor: f64,
    },
    /// `pex = E[ex]` — the strategy only knows the distribution mean, not
    /// per-task values (the weakest informative predictor).
    MeanOnly {
        /// The distribution mean used as every prediction.
        mean: f64,
    },
}

impl PexModel {
    /// Applies the model: derives a prediction for a subtask whose real
    /// execution time is `ex`. Generic over the RNG so the hot path pays
    /// no trait-object dispatch per prediction.
    pub fn predict<R: RngCore + ?Sized>(&self, ex: f64, rng: &mut R) -> f64 {
        match *self {
            PexModel::Perfect => ex,
            PexModel::Noisy { error } => {
                let u: f64 = rng.gen();
                let factor = 1.0 - error + 2.0 * error * u;
                (ex * factor).max(0.0)
            }
            PexModel::Biased { factor } => ex * factor,
            PexModel::MeanOnly { mean } => mean,
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            PexModel::Perfect => "perfect".to_string(),
            PexModel::Noisy { error } => format!("noisy±{error}"),
            PexModel::Biased { factor } => format!("biased×{factor}"),
            PexModel::MeanOnly { mean } => format!("mean={mean}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_sim::rng::RngFactory;

    #[test]
    fn perfect_is_identity() {
        let mut rng = RngFactory::new(1).stream("pex");
        assert_eq!(PexModel::Perfect.predict(2.5, &mut rng), 2.5);
    }

    #[test]
    fn noisy_is_unbiased_and_bounded() {
        let model = PexModel::Noisy { error: 0.5 };
        let mut rng = RngFactory::new(2).stream("pex");
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let p = model.predict(2.0, &mut rng);
            assert!((1.0..=3.0).contains(&p), "prediction {p} outside ±50%");
            sum += p;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn biased_scales() {
        let mut rng = RngFactory::new(3).stream("pex");
        assert_eq!(PexModel::Biased { factor: 2.0 }.predict(1.5, &mut rng), 3.0);
    }

    #[test]
    fn mean_only_ignores_ex() {
        let mut rng = RngFactory::new(4).stream("pex");
        let m = PexModel::MeanOnly { mean: 1.0 };
        assert_eq!(m.predict(100.0, &mut rng), 1.0);
        assert_eq!(m.predict(0.001, &mut rng), 1.0);
    }

    #[test]
    fn labels() {
        assert_eq!(PexModel::Perfect.label(), "perfect");
        assert_eq!(PexModel::Noisy { error: 0.5 }.label(), "noisy±0.5");
        assert_eq!(PexModel::default(), PexModel::Perfect);
    }
}
