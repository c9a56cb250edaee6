//! The linter's own acceptance gate: the real workspace must be clean.
//!
//! This is the same check CI runs via `cargo run -p sda-analysis --
//! --deny`, expressed as a test so `cargo test` alone also catches a
//! violation (and prints the findings when it does).

use std::path::Path;

#[test]
fn the_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let report = sda_analysis::analyze(&root);
    assert!(
        report.is_clean(),
        "sda-analysis found {} issue(s) in the real tree:\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
    // Sanity: the scan actually covered the tree (all ten non-exempt
    // members, every registered stream, every golden enum).
    assert_eq!(report.stats.members, 10);
    assert!(report.stats.files > 100, "{:?}", report.stats);
    assert!(report.stats.stream_sites >= 41, "{:?}", report.stats);
    assert!(report.stats.stream_entries >= 29, "{:?}", report.stats);
    assert_eq!(report.stats.enums, 5);
}
