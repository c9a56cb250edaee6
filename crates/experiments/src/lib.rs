//! # sda-experiments — regenerating the paper's tables and figures
//!
//! One module (and one binary) per artifact of the paper's evaluation,
//! plus the §4.3/§5/§6 extension studies. Every sweep module exposes
//! functions of the form `run(&ExperimentOpts) -> Result<SweepData,
//! ConfigError>`, so the same code drives the standalone binaries and
//! the integration tests.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (baseline setting) | [`table1`] | `table1_baseline` |
//! | Fig. 2(a)/(b) — SSP baseline | [`fig2`] | `fig2_ssp_baseline` |
//! | Fig. 3 — frac_local sweep | [`fig3`] | `fig3_frac_local` |
//! | Fig. 4 — PSP baseline | [`fig4`] | `fig4_psp` |
//! | §6 — combined SSP+PSP | [`sec6`] | `sec6_combined` |
//! | §4.3 — prediction error | [`ext::pex_error`] | `ext_pex_error` |
//! | §4.3 — abort tardy | [`ext::abort_tardy`] | `ext_abort_tardy` |
//! | §4.3 — MLF scheduling | [`ext::mlf`] | `ext_mlf` |
//! | §4.3 — subtask count m | [`ext::subtask_count`] | `ext_subtask_count` |
//! | §4.3 — heterogeneous m | [`ext::hetero_m`] | `ext_hetero_m` |
//! | §4.3 — unbalanced nodes | [`ext::hetero_load`] | `ext_hetero_load` |
//! | §4.3 — rel_flex sweep | [`ext::rel_flex`] | `ext_rel_flex` |
//! | §5.3/ref.\[7\] — DIV-x sweep | [`ext::divx`] | `ext_divx_sweep` |
//! | §5.3/ref.\[7\] — GF deep dive | [`ext::gf`] | `ext_gf` |
//! | §7 future work — EQF + artificial stages | [`ext::eqf_as`] | `ext_eqf_as` |
//! | beyond the paper — service-time variability | [`ext::service_cv`] | `ext_service_cv` |
//! | beyond the paper — preemptive EDF servers | [`ext::preemption`] | `ext_preemption` |
//! | beyond the paper — node speeds & message delays | [`ext::network`] | `ext_network` |
//! | beyond the paper — time-varying workloads & ADAPT | [`ext::burst`] | `ext_burst` |
//! | beyond the paper — DAG-structured tasks | [`ext::dag`] | `ext_dag` |
//!
//! Binaries accept `--full` (paper-scale runs: 2 × 10⁶ time units),
//! `--quick` (CI-scale), `--smoke` (single-rep end-to-end exercise),
//! `--reps N`, `--duration T`, `--warmup T`, `--seed S`, `--threads N`,
//! `--csv DIR`, `--order-fuzz S` and `--screen` (analytic screening:
//! grid points whose closed-form predicted miss ratio falls outside
//! [`SCREEN_LO_PCT`]‥[`SCREEN_HI_PCT`] are not simulated; their cells
//! carry the analytic value with a `screened` CSV marker, while the
//! remaining points are bit-identical to an unscreened run); the
//! default scale sits between quick and full.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod harness;

pub mod ext;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod sec6;
pub mod table1;

pub use harness::{
    emit, run_sweep, sweep_or_exit, CellStats, ExperimentOpts, Metric, PointStat, SeriesSpec,
    SweepData, SCREEN_HI_PCT, SCREEN_LO_PCT,
};
