//! Extension: time-varying workloads and feedback-adaptive assignment.
//!
//! The paper evaluates its strategies under stationary Poisson arrivals
//! only. This experiment opens the non-stationary regime on the §6
//! serial-parallel pipelines (2 stages × 3 branches, where both strategy
//! families engage) and adds the first strategy that *reacts* to the
//! observed load — `ADAPT(EQF)`, the EQF slack divider wrapped in the
//! miss-ratio feedback loop (see [`sda_core::AdaptiveSlack`]):
//!
//! * **burstiness** — `MD` vs the burst ratio of a 2-state MMPP arrival
//!   process (quiet/burst rate ratio; the interarrival coefficient of
//!   variation grows with it). Ratio 1 is exactly Poisson. The mean rate
//!   — and thus the long-run load — is held constant, so any degradation
//!   is pure burstiness;
//! * **overload-phase length** — `MD` vs the duration of a cyclic
//!   overload transient (a phased script spending 1/5 of each cycle at
//!   2.5× the quiet rate). Short phases are largely absorbed by
//!   queueing; long ones push the system through sustained saturation.
//!   Feedback pays most on the short-to-moderate transients, where
//!   tightened early-stage deadlines clear the global backlog before
//!   the next overload phase; under sustained saturation every strategy
//!   converges to the same (miss-dominated) operating point.
//!
//! Strategy grid: {UD, EQS, EQF, ADAPT(EQF)} serial × {DIV-1, GF}
//! parallel.

use sda_core::{AdaptiveSlack, ParallelStrategy, SdaStrategy, SerialStrategy};
use sda_system::SystemConfig;
use sda_workload::{ArrivalProcess, ConfigError, PhaseSegment};

use crate::harness::{run_sweep, ExperimentOpts, SeriesSpec, SweepData};

/// MMPP quiet/burst rate ratios swept (1 = stationary Poisson).
pub const BURST_RATIOS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Overload-phase lengths swept (time units; the cycle is 5× as long).
/// The longest point's cycle (4 000 time units) still fits several times
/// into the default measurement horizon, so every point averages over
/// multiple transients.
pub const OVERLOAD_LENGTHS: [f64; 4] = [25.0, 100.0, 400.0, 800.0];

/// Mean dwell in the MMPP quiet state (time units).
pub const DWELL_QUIET: f64 = 300.0;

/// Mean dwell in the MMPP burst state (time units).
pub const DWELL_BURST: f64 = 100.0;

/// The long-run load of every sweep point — high enough that bursts and
/// overload phases push the system through transient saturation, low
/// enough that the stationary baseline is comfortably stable (so the
/// degradation measured is attributable to the arrival dynamics, not to
/// permanent saturation).
pub const LOAD: f64 = 0.65;

/// The rate factor of the overload phase in the phased sweep (the quiet
/// factor is 1; factors are mean-normalized, so the overload phase runs
/// at `LOAD · 2.5/1.3 ≈ 1.44` instantaneous load).
pub const OVERLOAD_FACTOR: f64 = 2.5;

/// The strategy grid: {UD, EQS, EQF, ADAPT(EQF)} × {DIV-1, GF}.
pub fn strategy_grid() -> Vec<(String, SdaStrategy)> {
    let parallels = [
        ParallelStrategy::div(1.0).expect("1.0 is valid"),
        ParallelStrategy::GlobalsFirst,
    ];
    let mut grid = Vec::new();
    for parallel in parallels {
        for serial in [
            SerialStrategy::UltimateDeadline,
            SerialStrategy::EqualSlack,
            SerialStrategy::EqualFlexibility,
        ] {
            let s = SdaStrategy::new(serial, parallel);
            grid.push((format!("{serial}/{parallel}"), s));
        }
        let adaptive = SdaStrategy::adaptive(
            SdaStrategy::new(SerialStrategy::EqualFlexibility, parallel),
            AdaptiveSlack::default(),
        );
        grid.push((format!("ADAPT(EQF)/{parallel}"), adaptive));
    }
    grid
}

/// The MMPP arrival process at the given burst ratio (Poisson at 1, so
/// the leftmost sweep point is the bit-exact stationary baseline).
pub fn mmpp_at(burst_ratio: f64) -> ArrivalProcess {
    if burst_ratio <= 1.0 {
        ArrivalProcess::Poisson
    } else {
        ArrivalProcess::Mmpp2 {
            burst_ratio,
            dwell_quiet: DWELL_QUIET,
            dwell_burst: DWELL_BURST,
        }
    }
}

/// The phased overload script: 4 parts quiet at factor 1, 1 part
/// overload at [`OVERLOAD_FACTOR`], cycle length `5 · phase_len`.
pub fn overload_script(phase_len: f64) -> ArrivalProcess {
    ArrivalProcess::Phased {
        segments: vec![
            PhaseSegment::new(4.0 * phase_len, 1.0),
            PhaseSegment::new(phase_len, OVERLOAD_FACTOR),
        ],
    }
}

fn pipeline_config(strategy: SdaStrategy, arrivals: ArrivalProcess) -> SystemConfig {
    let mut cfg = SystemConfig::combined_baseline(strategy);
    cfg.workload.load = LOAD;
    cfg.workload.arrivals = arrivals;
    cfg
}

/// Burstiness sweep: `MD` vs MMPP burst ratio.
pub fn burstiness(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |ratio: f64| {
                pipeline_config(strategy, mmpp_at(ratio))
            })
        })
        .collect();
    run_sweep(
        "Ext — burstiness (MMPP arrivals, pipelines)",
        "burst ratio",
        &BURST_RATIOS,
        &series,
        opts,
    )
}

/// Overload-transient sweep: `MD` vs overload-phase length.
pub fn overload_phase(opts: &ExperimentOpts) -> Result<SweepData, ConfigError> {
    let series: Vec<SeriesSpec> = strategy_grid()
        .into_iter()
        .map(|(label, strategy)| {
            SeriesSpec::new(label, move |phase_len: f64| {
                pipeline_config(strategy, overload_script(phase_len))
            })
        })
        .collect();
    run_sweep(
        "Ext — overload transients (phased arrivals, pipelines)",
        "overload phase length",
        &OVERLOAD_LENGTHS,
        &series,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> ExperimentOpts {
        ExperimentOpts {
            reps: 3,
            duration: 12_000.0,
            seed,
            ..ExperimentOpts::quick()
        }
    }

    #[test]
    fn grid_has_eight_series_with_adaptive_entries() {
        let grid = strategy_grid();
        assert_eq!(grid.len(), 8);
        let adaptive: Vec<_> = grid.iter().filter(|(_, s)| s.is_adaptive()).collect();
        assert_eq!(adaptive.len(), 2);
        assert!(grid.iter().any(|(l, _)| l == "ADAPT(EQF)/DIV-1"));
        assert!(grid.iter().any(|(l, _)| l == "EQF/GF"));
    }

    #[test]
    fn burstiness_hurts_and_adaptation_pays() {
        let data = burstiness(&opts(71)).unwrap();
        // Burstiness alone (same mean load) raises the global miss
        // ratio for the static strategies.
        for label in ["UD/DIV-1", "EQF/DIV-1"] {
            let calm = data.cell(label, 1.0).unwrap().md_global.mean;
            let bursty = data.cell(label, 8.0).unwrap().md_global.mean;
            assert!(
                bursty > calm,
                "{label}: MD at ratio 8 ({bursty:.1}%) must exceed Poisson ({calm:.1}%)"
            );
        }
        // The feedback loop beats static EQF under heavy bursts.
        let adapt = data.cell("ADAPT(EQF)/DIV-1", 8.0).unwrap().md_global.mean;
        let eqf = data.cell("EQF/DIV-1", 8.0).unwrap().md_global.mean;
        assert!(
            adapt < eqf,
            "ADAPT(EQF) ({adapt:.1}%) must beat EQF ({eqf:.1}%) under bursty overload"
        );
    }

    #[test]
    fn overload_phases_hurt_and_adaptation_pays() {
        let data = overload_phase(&opts(72)).unwrap();
        // Short transients are absorbed by queueing; sustained overload
        // phases are not.
        let short = data.cell("EQF/DIV-1", 25.0).unwrap().md_global.mean;
        let long = data.cell("EQF/DIV-1", 400.0).unwrap().md_global.mean;
        assert!(
            long > short,
            "EQF/DIV-1: MD at phase 400 ({long:.1}%) must exceed phase 25 ({short:.1}%)"
        );
        // Feedback pays on transients it can recover from: at the short
        // phase the adaptive wrapper clears the backlog the static
        // divider accumulates. (Under sustained saturation — the long
        // phases — all strategies converge; no assertion there.)
        let adapt = data.cell("ADAPT(EQF)/DIV-1", 25.0).unwrap().md_global.mean;
        let eqf = data.cell("EQF/DIV-1", 25.0).unwrap().md_global.mean;
        assert!(
            adapt < eqf,
            "ADAPT(EQF) ({adapt:.1}%) must beat EQF ({eqf:.1}%) across overload transients"
        );
    }
}
