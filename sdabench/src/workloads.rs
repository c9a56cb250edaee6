//! The benchmark's workloads: configs, run horizons and pinned outputs.

use sda_core::SdaStrategy;
use sda_experiments::ext::network::speed_ramp;
use sda_sim::rng::RngFactory;
use sda_system::{NetworkModel, RunConfig, RunResult, SystemConfig};
use sda_workload::{GlobalShape, SlackRange, TaskFactory};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x0907;
/// A second pinned seed, never used while choosing the workloads.
pub const HELD_OUT_SEED: u64 = 0x5EED;

/// Live-service clock rate: simulated time units per wall second.
pub const SERVICE_TIME_SCALE: f64 = 5000.0;
/// Global tasks each live-service run submits.
pub const SERVICE_GLOBAL_CAP: u64 = 2500;
/// Share of a live-service run's horizon discarded as warm-up.
pub const SERVICE_WARMUP_FRAC: f64 = 0.1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §6 serial-parallel pipelines (4 stages × 3 branches) at ρ = 0.95.
    Pipelines,
    /// `Pipelines` with random layered DAG global tasks.
    Dag,
    /// 96 heterogeneous nodes under a constant 1.5-unit network, run
    /// serial and on 2 shards.
    Hetero96Net,
    /// The live wall-clock service against its logical-clock reference.
    ServiceWall,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Pipelines,
        Workload::Dag,
        Workload::Hetero96Net,
        Workload::ServiceWall,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipelines => "pipelines",
            Workload::Dag => "dag",
            Workload::Hetero96Net => "hetero96_net",
            Workload::ServiceWall => "service_wall",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system configuration. For `ServiceWall` this is the
    /// configuration the live service and its logical-clock and
    /// simulator references all run.
    pub fn config(self) -> SystemConfig {
        match self {
            Workload::Pipelines => pipelines_config(),
            Workload::Dag => {
                let mut cfg = pipelines_config();
                cfg.workload.shape = GlobalShape::Dag {
                    depth: 4,
                    max_width: 3,
                    edge_density: 0.4,
                };
                cfg
            }
            Workload::Hetero96Net => {
                let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
                cfg.workload.nodes = 96;
                cfg.workload.load = 0.9;
                cfg.workload.node_speeds = Some(speed_ramp(96, 0.4));
                cfg.network = NetworkModel::Constant { delay: 1.5 };
                cfg
            }
            Workload::ServiceWall => SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()),
        }
    }

    /// The run horizon for `seed`. `ServiceWall` derives it from the
    /// global arrival rate so about [`SERVICE_GLOBAL_CAP`] globals arrive.
    pub fn run_config(self, seed: u64) -> RunConfig {
        let (warmup, duration) = match self {
            Workload::Pipelines | Workload::Dag => (200.0, 8_000.0),
            Workload::Hetero96Net => (200.0, 2_000.0),
            Workload::ServiceWall => {
                let horizon = service_horizon(&self.config());
                (
                    SERVICE_WARMUP_FRAC * horizon,
                    (1.0 - SERVICE_WARMUP_FRAC) * horizon,
                )
            }
        };
        RunConfig {
            warmup,
            duration,
            seed,
            order_fuzz: 0,
        }
    }

    /// How many inputs one invocation runs: enough workload
    /// realizations that an invocation's figures do not hinge on one
    /// seed's luck.
    pub fn input_count(self) -> usize {
        match self {
            Workload::Pipelines | Workload::Dag => 8,
            Workload::Hetero96Net | Workload::ServiceWall => 4,
        }
    }

    /// The inputs of an invocation at `seed`: the run at `seed` itself,
    /// then runs at seeds derived from it.
    pub fn inputs(self, seed: u64) -> Vec<RunConfig> {
        (0..self.input_count() as u64)
            .map(|i| self.run_config(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    /// The fingerprint this workload must produce at `seed`, when pinned.
    pub fn pinned(self, seed: u64) -> Option<Fingerprint> {
        let (events, md_local, md_global) = match (self, seed) {
            (Workload::Pipelines, DEFAULT_SEED) => {
                (61771, 4606137580534617482, 4607166737742819043)
            }
            (Workload::Pipelines, HELD_OUT_SEED) => {
                (59561, 4605190327753442335, 4606779012665994500)
            }
            (Workload::Dag, DEFAULT_SEED) => (63196, 4606074252703398066, 4607167786543163570),
            (Workload::Dag, HELD_OUT_SEED) => (61028, 4605189289105104255, 4606990588607811174),
            (Workload::Hetero96Net, DEFAULT_SEED) => {
                (376687, 4603608477771951776, 4607033948482631567)
            }
            (Workload::Hetero96Net, HELD_OUT_SEED) => {
                (373517, 4603466066179071964, 4606965458284339007)
            }
            (Workload::ServiceWall, DEFAULT_SEED) => {
                (72975, 4598094768440985897, 4599171660577813094)
            }
            (Workload::ServiceWall, HELD_OUT_SEED) => {
                (71752, 4597943183967285430, 4599217066095018346)
            }
            _ => return None,
        };
        Some(Fingerprint {
            events,
            md_local,
            md_global,
        })
    }
}

fn pipelines_config() -> SystemConfig {
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.95;
    cfg.workload.frac_local = 0.25;
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.shape = GlobalShape::SerialParallel {
        stages: 4,
        branches: 3,
    };
    cfg
}

/// Submission horizon (simulated units) in which about
/// [`SERVICE_GLOBAL_CAP`] global tasks arrive under `cfg`.
pub fn service_horizon(cfg: &SystemConfig) -> f64 {
    let factory = TaskFactory::new(cfg.workload.clone(), &RngFactory::new(DEFAULT_SEED))
        .expect("service workload config is valid");
    SERVICE_GLOBAL_CAP as f64 / factory.rates().lambda_global
}

/// The output summary pinned per workload and seed: the event count and
/// the exact bits of the local and global missed-deadline ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events handled.
    pub events: u64,
    /// `f64::to_bits` of MD_local.
    pub md_local: u64,
    /// `f64::to_bits` of MD_global.
    pub md_global: u64,
}

impl Fingerprint {
    /// The fingerprint of a run result.
    pub fn of(r: &RunResult) -> Fingerprint {
        Fingerprint {
            events: r.events,
            md_local: r.metrics.local.miss_ratio().to_bits(),
            md_global: r.metrics.global.miss_ratio().to_bits(),
        }
    }
}

/// A bit-exact rendering of a whole run result: `{:?}` prints every
/// `f64` in its shortest round-trip form, so two renderings are equal
/// exactly when every field is bit-identical.
pub fn exact(r: &RunResult) -> String {
    format!("{r:?}")
}
