//! # sda-experiments — regenerating the paper's tables and figures
//!
//! One module per artifact of the paper's evaluation, plus the
//! §4.3/§5/§6 extension studies. Every sweep module exposes functions
//! of the form `run(&ExperimentOpts) -> Result<SweepData,
//! ConfigError>`, so the same code drives the `sda-exp` binary and the
//! integration tests. [`EXPERIMENTS`] registers each sweep module under
//! its module name, with the metrics its sweeps tabulate.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 1 (baseline setting) | [`table1`] |
//! | Fig. 2(a)/(b) — SSP baseline | [`fig2`] |
//! | Fig. 3 — frac_local sweep | [`fig3`] |
//! | Fig. 4 — PSP baseline | [`fig4`] |
//! | §6 — combined SSP+PSP | [`sec6`] |
//! | §4.3 — prediction error | [`ext::pex_error`] |
//! | §4.3 — abort tardy | [`ext::abort_tardy`] |
//! | §4.3 — MLF scheduling | [`ext::mlf`] |
//! | §4.3 — subtask count m | [`ext::subtask_count`] |
//! | §4.3 — heterogeneous m | [`ext::hetero_m`] |
//! | §4.3 — unbalanced nodes | [`ext::hetero_load`] |
//! | §4.3 — rel_flex sweep | [`ext::rel_flex`] |
//! | §5.3/ref.\[7\] — DIV-x sweep | [`ext::divx`] |
//! | §5.3/ref.\[7\] — GF deep dive | [`ext::gf`] |
//! | §7 future work — EQF + artificial stages | [`ext::eqf_as`] |
//! | beyond the paper — service-time variability | [`ext::service_cv`] |
//! | beyond the paper — preemptive EDF servers | [`ext::preemption`] |
//! | beyond the paper — node speeds & message delays | [`ext::network`] |
//! | beyond the paper — time-varying workloads & ADAPT | [`ext::burst`] |
//! | beyond the paper — DAG-structured tasks | [`ext::dag`] |
//! | beyond the paper — node failures & recovery | [`ext::churn`] |
//!
//! `sda-exp <name>` runs `table1`, `validate` (the simulator's
//! calibration report against closed-form M/M/1 results), `all`
//! (`table1`, then every registered experiment in order) or one
//! registered experiment. It accepts `--full` (paper-scale runs:
//! 2 × 10⁶ time units), `--quick` (CI-scale), `--smoke` (single-rep
//! end-to-end exercise), `--reps N`, `--duration T`, `--warmup T`,
//! `--seed S`, `--threads N`, `--csv DIR`, `--order-fuzz S` and
//! `--screen` (analytic screening: grid points whose closed-form
//! predicted miss ratio falls outside [`SCREEN_LO_PCT`]‥[`SCREEN_HI_PCT`]
//! are not simulated; their cells carry the analytic value with a
//! `screened` CSV marker, while the remaining points are bit-identical
//! to an unscreened run); the default scale sits between quick and
//! full.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod harness;
mod registry;

pub mod ext;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod sec6;
pub mod table1;

pub use harness::{
    emit, run_sweep, CellStats, ExperimentOpts, Metric, PointStat, SeriesSpec, SweepData,
    SCREEN_HI_PCT, SCREEN_LO_PCT,
};
pub use registry::{Experiment, Sweep, EXPERIMENTS};
