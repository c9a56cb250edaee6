//! The `sda-exp` command line: name dispatch, exit statuses, and that
//! `all` covers the whole registry.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use sda_experiments::EXPERIMENTS;

fn sda_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sda-exp"))
        .args(args)
        .output()
        .expect("sda-exp runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn unknown_name_exits_2_with_every_registry_name_in_the_usage_line() {
    let out = sda_exp(&["no_such_experiment", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    let usage = err
        .lines()
        .find(|l| l.starts_with("usage: sda-exp"))
        .unwrap_or_else(|| panic!("no usage line in {err:?}"));
    let listed: BTreeSet<&str> = usage
        .split(['<', '>'])
        .nth(1)
        .expect("<names> in the usage line")
        .split('|')
        .collect();
    for name in ["table1", "validate", "all"]
        .into_iter()
        .chain(EXPERIMENTS.iter().map(|e| e.name))
    {
        assert!(listed.contains(name), "usage line lacks {name}: {usage}");
    }
    assert!(out.stdout.is_empty());
}

#[test]
fn table1_rejects_unknown_flags() {
    let out = sda_exp(&["table1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("error: unknown flag --bogus\n"));
}

#[test]
fn nan_duration_is_one_error_line_and_exit_1() {
    let out = sda_exp(&["gf", "--smoke", "--duration", "nan"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr(&out),
        "error: duration must satisfy finite and > 0, got NaN\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn all_writes_one_md_global_csv_per_registered_sweep() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sda-exp-all-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let out = sda_exp(&["all", "--smoke", "--csv", dir.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let md_global = std::fs::read_dir(&dir)
        .expect("csv dir written")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.ends_with("_md_global.csv"))
        .count();
    let sweeps: usize = EXPERIMENTS.iter().map(|e| e.sweeps.len()).sum();
    assert_eq!(sweeps, 25);
    assert_eq!(md_global, sweeps, "two sweeps share a CSV slug");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_names_are_unique_and_not_reserved() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry name");
    for reserved in ["table1", "validate", "all"] {
        assert!(!names.contains(reserved), "{reserved} is a built-in name");
    }
}
