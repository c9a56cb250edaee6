//! Self-tests of the benchmark: the traced wrapper is a faithful
//! `run_once`, every micro-loop performs the operations it divides by,
//! and every metric and workload name is well formed and matches
//! `BENCHMARK.json`.

// Timing with the wall clock is this benchmark's purpose; the workspace's
// determinism bans (clippy.toml) apply to the simulated crates only.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use sda_system::run_once;
use sdabench::micro::{self, Sizes};
use sdabench::traced::run_traced;
use sdabench::workloads::{exact, Fingerprint, Workload, DEFAULT_SEED};
use sdabench::{valid_metric_name, END_TO_END, PER_LAYER};

#[test]
fn traced_run_reproduces_run_once_bit_for_bit() {
    for w in Workload::ALL {
        let cfg = w.config();
        let run = w.run_config(DEFAULT_SEED);
        let plain = run_once(&cfg, &run).expect("workload config is valid");
        let traced = run_traced(&cfg, &run).expect("workload config is valid");
        assert_eq!(exact(&traced.result), exact(&plain), "{}", w.name());
        assert_eq!(traced.stats.events(), plain.events, "{}", w.name());
        assert!(traced.loop_ns >= traced.stats.handler_total_ns());
    }
}

#[test]
fn default_seed_fingerprints_match_the_pins() {
    for w in Workload::ALL {
        let r = run_once(&w.config(), &w.run_config(DEFAULT_SEED)).expect("valid config");
        assert_eq!(
            Some(Fingerprint::of(&r)),
            w.pinned(DEFAULT_SEED),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_micro_loop_performs_the_op_count_it_divides_by() {
    let sizes = Sizes {
        fel: 50,
        ready_queue: 8,
    };
    let mut loops = micro::all(sizes, 7);
    let names: Vec<&str> = loops.iter().map(|m| m.name).collect();
    for (name, _) in PER_LAYER {
        if name.ends_with("_ns") || name.ends_with("_per_subtask") {
            assert!(
                names.contains(&name) || name.starts_with("sim.engine"),
                "no micro-loop for {name}"
            );
        }
    }
    for m in &mut loops {
        for iters in [1, 7, 64, 130] {
            assert_eq!(
                (m.run)(iters),
                (m.expected_ops)(iters),
                "{} x{iters}",
                m.name
            );
            if let Some(base) = m.base.as_mut() {
                assert_eq!(base(iters), iters, "{} base x{iters}", m.name);
            }
        }
    }
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "duplicate metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
    assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    assert!(!valid_metric_name("bad name"));
    assert!(!valid_metric_name("_leading"));
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let names: Vec<&str> = text
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
        })
        .collect();
    let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    want.extend(END_TO_END.iter().map(|(n, _)| *n));
    want.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(names, want);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}
