//! The experiment registry: every study `sda-exp <name>` can run.

use sda_workload::ConfigError;

use crate::harness::Metric::{
    GlobalResponse, Lost, MdGlobal, MdLocal, SubtaskMiss, Transit, Utilization,
};
use crate::harness::{emit, ExperimentOpts, Metric, SweepData};
use crate::{ext, fig2, fig3, fig4, sec6};

/// A sweep function paired with the metrics it tabulates: one table
/// (and, under `--csv`, one CSV file) per metric, in order.
pub type Sweep = (
    fn(&ExperimentOpts) -> Result<SweepData, ConfigError>,
    &'static [Metric],
);

/// A registered experiment: what `sda-exp <name>` runs.
pub struct Experiment {
    /// Command-line name; the name of the experiment's module.
    pub name: &'static str,
    /// The sweeps, run and printed in order.
    pub sweeps: &'static [Sweep],
    /// The paper's expectation, printed after the tables.
    pub note: Option<&'static str>,
}

impl Experiment {
    /// Runs each sweep in turn and prints its tables (writing its CSVs
    /// under `--csv`), then prints the note.
    ///
    /// # Errors
    ///
    /// Returns the first failing sweep's [`ConfigError`]; the sweeps
    /// before it have already printed.
    pub fn run(&self, opts: &ExperimentOpts) -> Result<(), ConfigError> {
        for (sweep, metrics) in self.sweeps {
            emit(&sweep(opts)?, opts, metrics);
        }
        if let Some(note) = self.note {
            println!("{note}");
        }
        Ok(())
    }
}

// The figures print MD_local first, like the paper's panels (a)/(b);
// the extension studies lead with MD_global.
const LOCAL_GLOBAL: &[Metric] = &[MdLocal, MdGlobal];
const GLOBAL_LOCAL: &[Metric] = &[MdGlobal, MdLocal];

/// Every experiment, in the order `sda-exp all` runs them: the paper's
/// figures, then the extension studies.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig2",
        sweeps: &[(fig2::run, &[MdLocal, MdGlobal, SubtaskMiss])],
        note: Some(
            "(paper reference at load 0.5: MD_global(UD) ≈ 40%, MD_local(UD) ≈ 24%;\n \
             ordering UD > ED ≥ EQS ≈ EQF for global tasks)",
        ),
    },
    Experiment {
        name: "fig3",
        sweeps: &[(fig3::run, LOCAL_GLOBAL)],
        note: Some(
            "(paper: UD curves rise with frac_local — discrimination against\n \
             globals grows; EQF curves stay nearly flat)",
        ),
    },
    Experiment {
        name: "fig4",
        sweeps: &[(fig4::run, LOCAL_GLOBAL)],
        note: Some(
            "(paper: under UD globals miss ≈3× as often as locals; DIV-1\n \
             equalizes the classes; DIV-2 ≈ DIV-1; GF cuts MD_global further\n \
             at local expense)",
        ),
    },
    Experiment {
        name: "sec6",
        sweeps: &[(sec6::run, LOCAL_GLOBAL)],
        note: Some(
            "(paper: UD-UD misses vastly more global deadlines than local;\n \
             EQF or DIV-1 alone help; EQF-DIV1 keeps MD_global ≈ MD_local —\n \
             the benefits are additive)",
        ),
    },
    Experiment {
        name: "pex_error",
        sweeps: &[(ext::pex_error::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "abort_tardy",
        sweeps: &[(ext::abort_tardy::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "mlf",
        sweeps: &[(ext::mlf::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "subtask_count",
        sweeps: &[(ext::subtask_count::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "hetero_m",
        sweeps: &[(ext::hetero_m::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "hetero_load",
        sweeps: &[(ext::hetero_load::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "rel_flex",
        sweeps: &[(ext::rel_flex::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "divx",
        sweeps: &[(ext::divx::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "gf",
        sweeps: &[(ext::gf::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "eqf_as",
        sweeps: &[(ext::eqf_as::run, &[MdGlobal, MdLocal, SubtaskMiss])],
        note: None,
    },
    Experiment {
        name: "service_cv",
        sweeps: &[
            (ext::service_cv::run, GLOBAL_LOCAL),
            (ext::service_cv::run_pareto, GLOBAL_LOCAL),
        ],
        note: None,
    },
    Experiment {
        name: "preemption",
        sweeps: &[(ext::preemption::run, GLOBAL_LOCAL)],
        note: None,
    },
    Experiment {
        name: "network",
        sweeps: &[
            (
                ext::network::delay_sensitivity,
                &[MdGlobal, MdLocal, Transit],
            ),
            (ext::network::speed_skew, &[MdGlobal, MdLocal, Utilization]),
        ],
        note: None,
    },
    Experiment {
        name: "burst",
        sweeps: &[
            (ext::burst::burstiness, &[MdGlobal, MdLocal, GlobalResponse]),
            (
                ext::burst::overload_phase,
                &[MdGlobal, MdLocal, GlobalResponse],
            ),
        ],
        note: None,
    },
    Experiment {
        name: "dag",
        sweeps: &[
            (ext::dag::edge_density, &[MdGlobal, MdLocal, GlobalResponse]),
            (ext::dag::depth, &[MdGlobal, MdLocal, GlobalResponse]),
        ],
        note: None,
    },
    Experiment {
        name: "churn",
        sweeps: &[
            (ext::churn::failure_rate, &[MdGlobal, MdLocal, Lost]),
            (ext::churn::repair_time, &[MdGlobal, MdLocal, Lost]),
        ],
        note: None,
    },
];
