//! Section 6 — integrated SSP + PSP on serial-parallel tasks:
//! UD-UD, UD-DIV1, EQF-UD and EQF-DIV1.
//!
//! Expected shape (paper §6): UD-UD misses vastly more global deadlines
//! than local ones; either EQF or DIV-1 alone helps significantly (mild
//! local increment); together, EQF-DIV1 keeps `MD_global` close to
//! `MD_local` even at high load — the benefits are *additive*.

use sda_core::SdaStrategy;
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep for the combined experiment.
pub const LOADS: [f64; 4] = [0.3, 0.5, 0.7, 0.8];

/// Runs the §6 sweep: the four SSP×PSP combinations over [`LOADS`] on
/// pipelines of parallel fans (2 stages × 3 branches).
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |strategy: SdaStrategy| {
        move |load: f64| {
            let mut cfg = SystemConfig::combined_baseline(strategy);
            cfg.workload.load = load;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD-UD", mk(SdaStrategy::ud_ud())),
        SeriesSpec::new("UD-DIV1", mk(SdaStrategy::ud_div1())),
        SeriesSpec::new("EQF-UD", mk(SdaStrategy::eqf_ud())),
        SeriesSpec::new("EQF-DIV1", mk(SdaStrategy::eqf_div1())),
    ];
    run_sweep(
        "Sec 6 — SSP+PSP combinations on serial-parallel tasks (2 stages × 3 branches)",
        "load",
        &LOADS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec6_shape_holds_at_reduced_scale() {
        let opts = ExperimentOpts {
            seed: 61,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let at = |label: &str| data.cell(label, 0.7).unwrap();

        let udud = at("UD-UD");
        let eqfdiv = at("EQF-DIV1");
        // UD-UD: globals far worse than locals.
        assert!(
            udud.md_global.mean > udud.md_local.mean,
            "UD-UD: global {:.1}% vs local {:.1}%",
            udud.md_global.mean,
            udud.md_local.mean
        );
        // The full combination shrinks the class gap.
        let gap_udud = udud.md_global.mean - udud.md_local.mean;
        let gap_full = eqfdiv.md_global.mean - eqfdiv.md_local.mean;
        assert!(
            gap_full < gap_udud,
            "EQF-DIV1 gap {gap_full:.1} should be below UD-UD gap {gap_udud:.1}"
        );
        // Each single correction already helps global tasks.
        assert!(at("UD-DIV1").md_global.mean < udud.md_global.mean);
        assert!(at("EQF-UD").md_global.mean < udud.md_global.mean);
        // And the combination is at least as good as the best single one.
        let best_single = at("UD-DIV1")
            .md_global
            .mean
            .min(at("EQF-UD").md_global.mean);
        assert!(
            eqfdiv.md_global.mean <= best_single + 2.0,
            "EQF-DIV1 ({:.1}%) should be near or below best single ({best_single:.1}%)",
            eqfdiv.md_global.mean
        );
    }
}
