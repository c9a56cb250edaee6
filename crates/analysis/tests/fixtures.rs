//! Self-tests over the deliberately-violating corpora in
//! `tests/fixtures/`: every pass must fire on its fixture, at the right
//! place, with the right message — and must *not* fire where an
//! escape hatch or a scope rule says so.

use std::path::Path;

use sda_analysis::diag::{Diagnostic, Lint};

fn fixture(name: &str) -> Vec<Diagnostic> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let report = sda_analysis::analyze(&root);
    report.diagnostics
}

/// The diagnostics of one lint, as (file, line, message) triples.
fn of_lint(diags: &[Diagnostic], lint: Lint) -> Vec<(String, u32, String)> {
    diags
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| (d.file.display().to_string(), d.line, d.message.clone()))
        .collect()
}

#[track_caller]
fn assert_fires(findings: &[(String, u32, String)], file: &str, line: u32, message_fragment: &str) {
    assert!(
        findings
            .iter()
            .any(|(f, l, m)| f == file && *l == line && m.contains(message_fragment)),
        "expected a finding at {file}:{line} containing {message_fragment:?}; got {findings:#?}"
    );
}

#[test]
fn streams_fixture_fires_every_registry_rule() {
    let diags = fixture("streams");
    let streams = of_lint(&diags, Lint::StreamRegistry);
    let lib = "det/src/lib.rs";
    assert_fires(
        &streams,
        lib,
        8,
        "unregistered stream name `det.unregistered`",
    );
    assert_fires(
        &streams,
        lib,
        10,
        "literal stream `fam.7` shadows the indexed family",
    );
    assert_fires(&streams, lib, 11, "built dynamically");
    assert_fires(
        &streams,
        lib,
        12,
        "owned by subsystem `other` but used from `det`",
    );
    assert_fires(
        &streams,
        lib,
        15,
        "format-string stream with prefix `det.dynfam.` matches no indexed family",
    );
    let reg = "analysis/streams.toml";
    let reused = streams
        .iter()
        .find(|(f, _, m)| f == reg && m.contains("`det.reused` has 2 call sites but no `note`"));
    assert!(reused.is_some(), "missing reuse-note finding: {streams:#?}");
    let stale = streams
        .iter()
        .find(|(f, _, m)| f == reg && m.contains("stale registry entry `det.retired`"));
    assert!(stale.is_some(), "missing stale-entry finding: {streams:#?}");
    // The correct sites must stay clean: det.known (line 7), the
    // stream_indexed("fam", 3) site (line 9), and other's own use of
    // other.owned.
    assert!(
        !streams
            .iter()
            .any(|(f, l, _)| f == lib && (*l == 7 || *l == 9)),
        "registered sites must not fire: {streams:#?}"
    );
    assert!(
        !streams.iter().any(|(f, _, _)| f == "other/src/lib.rs"),
        "the owning subsystem's own use must not fire: {streams:#?}"
    );
    // Line 17's dynamic site carries a sda-lint allow — suppressed.
    assert!(
        !streams.iter().any(|(f, l, _)| f == lib && *l == 17),
        "the allow-annotated dynamic site must be suppressed: {streams:#?}"
    );
    assert_eq!(
        streams.len(),
        7,
        "exactly the expected findings: {streams:#?}"
    );
    // The allow was used, so no unused-allow config finding.
    assert!(
        of_lint(&diags, Lint::Config).is_empty(),
        "no config findings expected: {diags:#?}"
    );
}

#[test]
fn lint_header_fixture_fires_for_both_missing_attrs() {
    let diags = fixture("lint_header");
    let headers = of_lint(&diags, Lint::LintHeader);
    let lib = "det/src/lib.rs";
    // warn(missing_docs) is present but is NOT deny — must still fire.
    assert_fires(&headers, lib, 1, "#![deny(missing_docs)]");
    assert_fires(&headers, lib, 1, "#![forbid(unsafe_code)]");
    assert_eq!(headers.len(), 2, "{headers:#?}");
}

#[test]
fn golden_fixture_reports_only_the_unpinned_variant() {
    let diags = fixture("golden");
    let golden = of_lint(&diags, Lint::GoldenCoverage);
    assert_fires(&golden, "det/src/lib.rs", 17, "Color::Blue");
    assert!(
        !golden
            .iter()
            .any(|(_, _, m)| m.contains("Color::Red") || m.contains("Color::Green")),
        "pinned variants must not fire: {golden:#?}"
    );
    assert_eq!(golden.len(), 1, "{golden:#?}");
}
