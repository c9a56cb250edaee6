//! §4.3 extension — firm deadlines: tardy jobs are discarded at
//! dispatch, and a discarded subtask kills its whole global task.
//!
//! Expected: aborting sheds the hopeless work, so at high load *both*
//! classes miss far less than under no-abort. A second effect the paper
//! hints at in §5.3 (components that "discard tasks with a past deadline
//! (virtual or not)") shows up clearly here: slack-dividing strategies
//! assign *tight* virtual deadlines, so under a firm policy their
//! subtasks are discarded earlier and more often than UD's — at low
//! load EQF can lose **more** global tasks than UD, inverting the
//! no-abort ordering. This is why reference \[7\] prefers DIV-x over GF
//! when tardy-abort is in force, and it applies to EQF as well.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::{OverloadPolicy, SystemConfig};
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep.
pub const LOADS: [f64; 4] = [0.3, 0.5, 0.7, 0.8];

/// Runs the abort-tardy sweep: UD and EQF under the firm policy, with
/// no-abort EQF as the reference.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy, overload: OverloadPolicy| {
        move |load: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.load = load;
            cfg.overload = overload;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new(
            "UD/abort",
            mk(SerialStrategy::UltimateDeadline, OverloadPolicy::AbortTardy),
        ),
        SeriesSpec::new(
            "EQF/abort",
            mk(SerialStrategy::EqualFlexibility, OverloadPolicy::AbortTardy),
        ),
        SeriesSpec::new(
            "EQF/no-abort",
            mk(SerialStrategy::EqualFlexibility, OverloadPolicy::NoAbort),
        ),
    ];
    run_sweep(
        "Ext — firm deadlines (abort tardy at dispatch), SSP baseline",
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
    fn aborting_sheds_load_at_high_load() {
        let opts = ExperimentOpts {
            seed: 72,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        // At high load, aborting saves both classes relative to no-abort.
        let abort = data.cell("EQF/abort", 0.8).unwrap();
        let keep = data.cell("EQF/no-abort", 0.8).unwrap();
        assert!(
            abort.md_global.mean < keep.md_global.mean - 5.0,
            "firm EQF globals ({:.1}%) should miss far less than no-abort ({:.1}%)",
            abort.md_global.mean,
            keep.md_global.mean
        );
        assert!(
            abort.md_local.mean < keep.md_local.mean - 5.0,
            "firm EQF locals ({:.1}%) should miss far less than no-abort ({:.1}%)",
            abort.md_local.mean,
            keep.md_local.mean
        );
        // The inversion effect: at low load, EQF's tight virtual
        // deadlines get discarded more often than UD's.
        let eqf_low = data.cell("EQF/abort", 0.3).unwrap().md_global.mean;
        let ud_low = data.cell("UD/abort", 0.3).unwrap().md_global.mean;
        assert!(
            eqf_low > ud_low,
            "under firm virtual deadlines at low load, EQF ({eqf_low:.1}%) \
             discards more than UD ({ud_low:.1}%)"
        );
    }
}
