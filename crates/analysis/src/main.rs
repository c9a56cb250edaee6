//! CLI for the workspace determinism linter.
//!
//! ```text
//! cargo run -p sda-analysis                   # report findings, exit 0
//! cargo run -p sda-analysis -- --deny         # CI mode: findings exit 1
//! cargo run -p sda-analysis -- --list-streams # dump extracted call sites
//! cargo run -p sda-analysis -- --root PATH    # lint another tree
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

#[expect(
    clippy::disallowed_methods,
    reason = "CLI entry point: argv parsing happens before any simulation state exists"
)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny = false;
    let mut list = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--list-streams" => list = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown flag `{other}`");
                eprintln!("usage: sda-analysis [--root PATH] [--deny] [--list-streams]");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);

    if list {
        for line in sda_analysis::list_streams(&root) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    let report = sda_analysis::analyze(&root);
    for d in &report.diagnostics {
        println!("{d}");
    }
    let s = report.stats;
    eprintln!(
        "sda-analysis: {} member(s), {} file(s), {} stream site(s) against {} registry \
         entr(y/ies), {} golden enum(s) — {} finding(s)",
        s.members,
        s.files,
        s.stream_sites,
        s.stream_entries,
        s.enums,
        report.diagnostics.len()
    );
    if deny && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::path::Path::new(".")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return PathBuf::from("."),
        }
    }
}
