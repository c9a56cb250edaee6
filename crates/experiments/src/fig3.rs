//! Figure 3 — effect of varying the fraction of local tasks
//! (`frac_local` from 0.1 to 0.95 at load 0.5), for UD and EQF.
//!
//! Expected shape (paper §4.2.2): under UD, `MD_global` *rises* steeply
//! with `frac_local` (globals face ever more discrimination), and
//! `MD_local` rises mildly; under EQF both curves stay nearly flat.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// The paper's x axis: `frac_local` from 0.1 to 0.95.
pub const FRACS: [f64; 6] = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95];

/// Runs the Figure 3 sweep: UD and EQF over [`FRACS`] at load 0.5.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy| {
        move |frac: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.frac_local = frac;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD", mk(SerialStrategy::UltimateDeadline)),
        SeriesSpec::new("EQF", mk(SerialStrategy::EqualFlexibility)),
    ];
    run_sweep(
        "Fig 3 — varying the fraction of local tasks (load = 0.5)",
        "frac_local",
        &FRACS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_holds_at_reduced_scale() {
        let opts = ExperimentOpts {
            seed: 31,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        // UD's global misses rise with frac_local.
        let ud_lo = data.cell("UD", 0.1).unwrap().md_global.mean;
        let ud_hi = data.cell("UD", 0.95).unwrap().md_global.mean;
        assert!(
            ud_hi > ud_lo + 3.0,
            "UD global misses should rise with frac_local: {ud_lo:.1} → {ud_hi:.1}"
        );
        // EQF stays much flatter and below UD at high frac_local.
        let eqf_lo = data.cell("EQF", 0.1).unwrap().md_global.mean;
        let eqf_hi = data.cell("EQF", 0.95).unwrap().md_global.mean;
        assert!(
            (eqf_hi - eqf_lo).abs() < (ud_hi - ud_lo),
            "EQF must be flatter than UD: Δ_EQF={:.1}, Δ_UD={:.1}",
            eqf_hi - eqf_lo,
            ud_hi - ud_lo
        );
        assert!(eqf_hi < ud_hi, "EQF below UD at frac_local=0.95");
    }
}
