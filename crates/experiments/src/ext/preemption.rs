//! Beyond the paper — preemptive node servers.
//!
//! The paper's model is strictly non-preemptive (§4.1). This ablation
//! asks how much of the SDA problem is an artifact of non-preemption:
//! with preemptive EDF servers an urgent subtask never waits behind a
//! long local task that started first, so the *blocking* component of
//! discrimination disappears — but the *queueing-priority* component
//! (UD's too-late virtual deadlines) remains.
//!
//! Expected: preemption lowers miss ratios across the board and shrinks
//! UD's disadvantage, but EQF still wins — deadline assignment matters
//! even with preemptive schedulers.

use sda_core::{ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::ConfigError;

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// Load sweep.
pub const LOADS: [f64; 3] = [0.3, 0.5, 0.7];

/// Runs the preemption ablation: UD and EQF on preemptive EDF nodes,
/// with non-preemptive EQF as the reference.
pub fn run(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let mk = |serial: SerialStrategy, preemptive: bool| {
        move |load: f64| {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::new(
                serial,
                ParallelStrategy::UltimateDeadline,
            ));
            cfg.workload.load = load;
            cfg.preemptive = preemptive;
            cfg
        }
    };
    let series = vec![
        SeriesSpec::new("UD/preempt", mk(SerialStrategy::UltimateDeadline, true)),
        SeriesSpec::new("EQF/preempt", mk(SerialStrategy::EqualFlexibility, true)),
        SeriesSpec::new(
            "EQF/non-preempt",
            mk(SerialStrategy::EqualFlexibility, false),
        ),
    ];
    run_sweep(
        "Ext — preemptive EDF servers (ablation of the non-preemption assumption)",
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
    fn eqf_still_wins_under_preemption() {
        let opts = ExperimentOpts {
            seed: 82,
            ..ExperimentOpts::quick()
        };
        let data = run(&opts).unwrap();
        let ud = data.cell("UD/preempt", 0.5).unwrap().md_global.mean;
        let eqf = data.cell("EQF/preempt", 0.5).unwrap().md_global.mean;
        assert!(
            eqf < ud,
            "EQF ({eqf:.1}%) must beat UD ({ud:.1}%) even preemptively"
        );
        // Preemption should not hurt EQF's locals relative to
        // non-preemptive EQF (preemptive EDF is optimal per node).
        let pre = data.cell("EQF/preempt", 0.7).unwrap().md_local.mean;
        let non = data.cell("EQF/non-preempt", 0.7).unwrap().md_local.mean;
        assert!(
            pre <= non + 1.0,
            "preemptive locals ({pre:.1}%) should not exceed non-preemptive ({non:.1}%)"
        );
    }
}
