//! `sda-analysis` — the workspace determinism linter.
//!
//! Every guarantee this reproduction makes — seeded runs that replay bit
//! for bit, a logical-clock service equal to the simulator, reproducible
//! Kao & Garcia-Molina sweeps — rests on invariants the golden
//! fingerprints only *sample*: no colliding stream names, no unsafe or
//! undocumented crate, no config variant left unpinned. This crate
//! enforces those invariants *mechanically*, over the source text, so a
//! violation fails CI the moment it is written instead of whenever a
//! golden happens to flip. The API bans (wall clock, hash-iteration
//! order, ambient environment) are clippy's: `clippy.toml` lists them,
//! and each audited use carries `#[expect(clippy::disallowed_*, reason =
//! "…")]`.
//!
//! It is deliberately dependency-free: a hand-rolled comment/string-aware
//! [lexer] feeds three [passes] configured by two committed
//! files —
//!
//! * `analysis/lints.toml` — per-crate policy tiers (`checked` /
//!   `exempt`), missing-docs exemptions and the registered golden config
//!   enums;
//! * `analysis/streams.toml` — the registry of every named RNG stream in
//!   the workspace.
//!
//! Run it locally with `cargo run -p sda-analysis`; CI runs it with
//! `--deny` before anything expensive. Findings can be suppressed, one
//! line at a time and never silently, with
//! `// sda-lint: allow(<lint>, reason = "…")`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod minitoml;
pub mod passes;
pub mod source;
pub mod workspace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use config::{LintsConfig, StreamRegistry};
use diag::{Diagnostic, Lint};
use minitoml::Document;
use source::SourceFile;
use workspace::Workspace;

/// Scan statistics, for the CLI summary line.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stats {
    /// Workspace members linted (the checked tier).
    pub members: usize,
    /// Source files lexed.
    pub files: usize,
    /// `stream(...)` call sites extracted.
    pub stream_sites: usize,
    /// Registry entries checked.
    pub stream_entries: usize,
    /// Golden enums checked.
    pub enums: usize,
}

/// The result of a full analysis run.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by file, line, lint.
    pub diagnostics: Vec<Diagnostic>,
    /// What was scanned.
    pub stats: Stats,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs every pass over the workspace at `root`.
pub fn analyze(root: &Path) -> Report {
    let mut diags = Vec::new();
    let mut stats = Stats::default();

    let lints = match load_doc(root, "analysis/lints.toml", &mut diags) {
        Some(doc) => LintsConfig::parse(&doc, Path::new("analysis/lints.toml"), &mut diags),
        None => LintsConfig::default(),
    };
    let registry = match load_doc(root, "analysis/streams.toml", &mut diags) {
        Some(doc) => StreamRegistry::parse(&doc, Path::new("analysis/streams.toml"), &mut diags),
        None => StreamRegistry::default(),
    };
    stats.stream_entries = registry.entries.len();

    let ws = Workspace::discover(root, &lints, &mut diags);

    // Load every file once.
    let mut files: BTreeMap<PathBuf, SourceFile> = BTreeMap::new();
    stats.members = ws.members.len();
    for member in &ws.members {
        for rel in member.src_files.iter().chain(&member.test_files) {
            if let Some(sf) = source::load(root, rel, &mut diags) {
                files.insert(rel.clone(), sf);
            }
        }
    }

    // Pass 1: stream registry (src + tests + examples — every call site).
    let mut sites = Vec::new();
    for member in &ws.members {
        for rel in member.src_files.iter().chain(&member.test_files) {
            if let Some(sf) = files.get(rel) {
                sites.extend(passes::streams::extract(sf, &member.label));
            }
        }
    }
    stats.stream_sites = sites.len();
    {
        let file_refs: BTreeMap<PathBuf, &SourceFile> =
            files.iter().map(|(k, v)| (k.clone(), v)).collect();
        passes::streams::check(&sites, &registry, &file_refs, &mut diags);
    }

    // Pass 2: lint headers on crate roots.
    for member in &ws.members {
        match &member.root_file {
            Some(rel) => {
                if let Some(sf) = files.get(rel) {
                    passes::lint_header::run(member, sf, &lints, &mut diags);
                }
            }
            None => diags.push(Diagnostic::file_level(
                Lint::Config,
                &member.path,
                "member has no src/lib.rs or src/main.rs crate root",
            )),
        }
    }

    // Pass 3: golden coverage of registered config enums.
    let mut test_files: Vec<PathBuf> = Vec::new();
    for dir in &lints.golden_test_dirs {
        let mut found = Vec::new();
        workspace_walk(&root.join(dir), root, &mut found);
        test_files.extend(found);
    }
    for rel in &test_files {
        if !files.contains_key(rel) {
            if let Some(sf) = source::load(root, rel, &mut diags) {
                files.insert(rel.clone(), sf);
            }
        }
    }
    for spec in &lints.golden_enums {
        stats.enums += 1;
        let decl_rel = PathBuf::from(&spec.file);
        if !files.contains_key(&decl_rel) && root.join(&decl_rel).is_file() {
            if let Some(sf) = source::load(root, &decl_rel, &mut diags) {
                files.insert(decl_rel.clone(), sf);
            }
        }
        let mut mentions = std::collections::BTreeSet::new();
        for rel in &test_files {
            if let Some(sf) = files.get(rel) {
                passes::golden::qualified_mentions(sf, &spec.name, &mut mentions);
            }
        }
        passes::golden::check(
            spec,
            files.get(&decl_rel),
            &mentions,
            &lints.golden_test_dirs,
            &mut diags,
        );
    }

    // Escape-hatch hygiene: every allow must have suppressed something.
    for sf in files.values() {
        sf.report_unused_allows(&mut diags);
    }

    stats.files = files.len();
    diag::sort(&mut diags);
    Report {
        diagnostics: diags,
        stats,
    }
}

/// Extracted stream call sites for `--list-streams`.
pub fn list_streams(root: &Path) -> Vec<String> {
    let mut diags = Vec::new();
    let lints = match load_doc(root, "analysis/lints.toml", &mut diags) {
        Some(doc) => LintsConfig::parse(&doc, Path::new("analysis/lints.toml"), &mut diags),
        None => LintsConfig::default(),
    };
    let ws = Workspace::discover(root, &lints, &mut diags);
    let mut out = Vec::new();
    for member in &ws.members {
        for rel in member.src_files.iter().chain(&member.test_files) {
            if let Some(sf) = source::load(root, rel, &mut diags) {
                for site in passes::streams::extract(&sf, &member.label) {
                    out.push(format!(
                        "{}:{}: {:?} [{}]",
                        site.file.display(),
                        site.line,
                        site.name,
                        site.subsystem
                    ));
                }
            }
        }
    }
    out
}

fn load_doc(root: &Path, rel: &str, diags: &mut Vec<Diagnostic>) -> Option<Document> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => match Document::parse(&text) {
            Ok(doc) => Some(doc),
            Err(e) => {
                diags.push(Diagnostic::file_level(
                    Lint::Config,
                    rel,
                    format!("cannot parse: {e}"),
                ));
                None
            }
        },
        Err(e) => {
            diags.push(Diagnostic::file_level(
                Lint::Config,
                rel,
                format!("required config is missing or unreadable: {e}"),
            ));
            None
        }
    }
}

/// Walks a golden test directory for `.rs` files (workspace-relative).
fn workspace_walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            if child.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            workspace_walk(&child, root, out);
        } else if child.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = child.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}
