//! `sda-exp <name> [flags]`: runs `table1`, `validate` (the simulator's
//! calibration report), `all` (`table1`, then every registered
//! experiment in order) or one experiment of [`EXPERIMENTS`]. The flags
//! are documented at the `sda_experiments` crate root.
//!
//! Exit status: 2 for a bad command line (with the usage line), 1 when a
//! run fails (with one `error: …` line) or a calibration check fails,
//! 0 otherwise.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::process::ExitCode;

use sda_core::{FlatRun, SdaStrategy};
use sda_experiments::{table1, ExperimentOpts, EXPERIMENTS};
use sda_sched::Policy;
use sda_sim::rng::RngFactory;
use sda_system::{run_once, RunConfig, SystemConfig};
use sda_workload::{ConfigError, TaskFactory, WorkloadConfig};

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "the experiments' one entry point: argv is read once into a name and ExperimentOpts before any simulation starts"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = args.split_first() else {
        return usage("missing experiment name");
    };
    let opts = match ExperimentOpts::parse(flags) {
        Ok(opts) => opts,
        Err(e) => return usage(&e),
    };
    let passed = match name.as_str() {
        "table1" => {
            print!("{}", table1::render());
            Ok(true)
        }
        "validate" => validate(&opts),
        "all" => {
            print!("{}", table1::render());
            EXPERIMENTS
                .iter()
                .try_for_each(|e| e.run(&opts))
                .map(|()| true)
        }
        name => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(experiment) => experiment.run(&opts).map(|()| true),
            None => return usage(&format!("unknown experiment {name}")),
        },
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("error: {error}");
    eprintln!(
        "usage: sda-exp <table1|validate|all|{}> [--full|--quick|--smoke] [--reps N] \
         [--duration T] [--warmup T] [--seed S] [--threads N] [--csv DIR] \
         [--order-fuzz S] [--screen]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn check(name: &str, measured: f64, expected: f64, tolerance: f64) -> bool {
    let rel = if expected.abs() > 1e-12 {
        (measured - expected).abs() / expected.abs()
    } else {
        (measured - expected).abs()
    };
    let ok = rel <= tolerance;
    println!(
        "{:<44} measured {:>9.4}  expected {:>9.4}  ({:>5.1}% off) {}",
        name,
        measured,
        expected,
        rel * 100.0,
        if ok { "OK" } else { "FAIL" }
    );
    ok
}

/// The calibration report: checks the simulator against closed-form
/// results before trusting any figure it produces, and returns whether
/// every check passed.
///
/// * single node, locals only, FCFS → M/M/1: `E[R] = 1/(μ−λ)`,
///   `ρ = λ/μ`, `L_q = ρ²/(1−ρ)`;
/// * the k-node baseline's utilization must equal the configured load;
/// * a serial global task's total work must be Erlang-m (mean m/μ).
fn validate(opts: &ExperimentOpts) -> Result<bool, ConfigError> {
    let run = RunConfig {
        warmup: opts.warmup.max(2_000.0),
        duration: opts.duration.max(100_000.0),
        seed: opts.seed,
        order_fuzz: 0,
    };
    let mut all_ok = true;
    println!("== M/M/1 calibration (1 node, locals only, FCFS) ==");
    for rho in [0.3, 0.6, 0.8] {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.workload.nodes = 1;
        cfg.workload.frac_local = 1.0;
        cfg.workload.load = rho;
        cfg.policy = Policy::Fcfs;
        let result = run_once(&cfg, &run)?;
        all_ok &= check(
            &format!("E[R] at rho={rho}"),
            result.metrics.local.response().mean(),
            1.0 / (1.0 - rho),
            0.05,
        );
        all_ok &= check(
            &format!("utilization at rho={rho}"),
            result.mean_utilization(),
            rho,
            0.03,
        );
        all_ok &= check(
            &format!("L_q at rho={rho}"),
            result.node_queue_length[0],
            rho * rho / (1.0 - rho),
            0.10,
        );
    }

    println!("\n== Baseline system (Table 1) ==");
    let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    let result = run_once(&cfg, &run)?;
    all_ok &= check(
        "mean node utilization == load",
        result.mean_utilization(),
        0.5,
        0.03,
    );

    println!("\n== Workload generator ==");
    let mut factory = TaskFactory::new(WorkloadConfig::baseline(), &RngFactory::new(run.seed))?;
    let mut task = FlatRun::new();
    let n = 50_000;
    let mean_work: f64 = (0..n)
        .map(|_| {
            factory.make_global_flat(0.0, &mut task);
            task.total_ex()
        })
        .sum::<f64>()
        / f64::from(n);
    all_ok &= check("E[global total work] (Erlang-4)", mean_work, 4.0, 0.02);
    let mean_gap: f64 = (0..n)
        .map(|_| {
            factory
                .next_global_interarrival()
                .expect("the baseline has global arrivals")
        })
        .sum::<f64>()
        / f64::from(n);
    all_ok &= check("E[global interarrival]", mean_gap, 1.0 / 0.1875, 0.02);

    println!();
    let verdict = if all_ok { "PASSED" } else { "FAILED" };
    println!("model validation {verdict}");
    Ok(all_ok)
}
