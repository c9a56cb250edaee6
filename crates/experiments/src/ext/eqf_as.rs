//! §7 future work, implemented — EQF with artificial stages.
//!
//! The paper's conclusion proposes controlling EQF's slack variability
//! "perhaps by giving subtasks of tight global tasks less slack than EQF
//! would give. One trick would be to add artificial stages." This study
//! sweeps the number of phantom stages at the SSP baseline and at a
//! tight-slack variant (`rel_flex = 0.5`), where holding slack back
//! should matter most.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Number of artificial stages to sweep (0 = plain EQF).
pub const STAGES: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 8.0];

/// Runs the artificial-stage sweep at load 0.5, for the baseline slack
/// and for tight slack.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |rel_flex: f64| {
        move |stages: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                SerialStrategy::EqualFlexibilityArtificial {
                    artificial_stages: stages as u32,
                },
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.rel_flex = rel_flex;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("baseline slack", mk(1.0)),
        SeriesSpec::new("tight slack (rel_flex 0.5)", mk(0.5)),
    ];
    run_sweep(
        "Ext — EQF with artificial stages (paper §7 future work), load 0.5",
        "phantom stages",
        &STAGES,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_phantoms_reproduces_eqf_and_sweep_is_sane() {
        let opts = ExperimentOpts {
            seed: 80,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        // All cells populated, all percentages valid.
        for cell in data.cells.iter().flatten() {
            assert!((0.0..=100.0).contains(&cell.md_global.mean));
        }
        // Drowning the task in phantoms (a = 8) must behave differently
        // from plain EQF — the sweep actually varies something.
        let base0 = data.cell("baseline slack", 0.0).unwrap().subtask_miss.mean;
        let base8 = data.cell("baseline slack", 8.0).unwrap().subtask_miss.mean;
        assert!(
            (base0 - base8).abs() > 0.5,
            "phantom stages should move subtask-level misses: {base0:.1} vs {base8:.1}"
        );
    }
}
