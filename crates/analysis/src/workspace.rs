//! Workspace discovery: the checked members and the files each pass scans.

use std::path::{Path, PathBuf};

use crate::config::{LintsConfig, Tier};
use crate::diag::{Diagnostic, Lint};
use crate::minitoml::Document;

/// One linted workspace member.
#[derive(Debug)]
pub struct Member {
    /// Member path as in `Cargo.toml` (`"."` for the root package).
    pub path: String,
    /// Short label: the last path component (`workload`), or `sda` for
    /// the root package. Stream-registry subsystems use these labels.
    pub label: String,
    /// Workspace-relative crate-root file (`src/lib.rs` or `src/main.rs`).
    pub root_file: Option<PathBuf>,
    /// All `.rs` files under the member's `src/`, sorted.
    pub src_files: Vec<PathBuf>,
    /// All `.rs` files under the member's `tests/` (and, for the root
    /// package, `examples/`), sorted.
    pub test_files: Vec<PathBuf>,
}

/// The resolved workspace: every checked member with its files.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// The checked members, root package first, then `Cargo.toml` order.
    pub members: Vec<Member>,
}

impl Workspace {
    /// Discovers the workspace at `root`: reads `Cargo.toml` members,
    /// checks each is assigned exactly one tier in `lints`, and walks
    /// the source trees of the checked members.
    pub fn discover(root: &Path, lints: &LintsConfig, diags: &mut Vec<Diagnostic>) -> Workspace {
        let mut members = Vec::new();
        let manifest = root.join("Cargo.toml");
        let mut paths = Vec::new();
        match std::fs::read_to_string(&manifest) {
            Ok(text) => match Document::parse(&text) {
                Ok(doc) => {
                    if let Some(ws) = doc.section("workspace") {
                        paths = ws.get_str_array("members");
                    }
                    if paths.is_empty() {
                        diags.push(Diagnostic::file_level(
                            Lint::Config,
                            "Cargo.toml",
                            "no [workspace] members found",
                        ));
                    }
                    // The root package itself, if the manifest declares one.
                    if doc.section("package").is_some() {
                        paths.insert(0, ".".to_string());
                    }
                }
                Err(e) => diags.push(Diagnostic::file_level(
                    Lint::Config,
                    "Cargo.toml",
                    format!("cannot parse manifest: {e}"),
                )),
            },
            Err(e) => diags.push(Diagnostic::file_level(
                Lint::Config,
                "Cargo.toml",
                format!("cannot read manifest: {e}"),
            )),
        }

        for path in &paths {
            match lints.tier_of(path) {
                Some(Tier::Checked) => members.push(build_member(root, path)),
                Some(Tier::Exempt) => {}
                None => diags.push(Diagnostic::file_level(
                    Lint::Config,
                    "analysis/lints.toml",
                    format!(
                        "workspace member `{path}` has no policy tier — add it to \
                         [tiers] checked or exempt"
                    ),
                )),
            }
        }
        // Tier entries that name no member are stale config.
        for path in lints.checked.iter().chain(&lints.exempt) {
            if !paths.iter().any(|m| m == path) {
                diags.push(Diagnostic::file_level(
                    Lint::Config,
                    "analysis/lints.toml",
                    format!("tier entry `{path}` matches no workspace member"),
                ));
            }
        }
        Workspace {
            root: root.to_path_buf(),
            members,
        }
    }
}

fn build_member(root: &Path, path: &str) -> Member {
    let label = if path == "." {
        "sda".to_string()
    } else {
        path.rsplit('/').next().unwrap_or(path).to_string()
    };
    let dir = if path == "." {
        root.to_path_buf()
    } else {
        root.join(path)
    };
    let mut src_files = Vec::new();
    let mut test_files = Vec::new();
    walk_rs(&dir.join("src"), root, &mut src_files);
    walk_rs(&dir.join("tests"), root, &mut test_files);
    if path == "." {
        walk_rs(&dir.join("examples"), root, &mut test_files);
    }
    src_files.sort();
    test_files.sort();
    let rel_dir = if path == "." {
        PathBuf::new()
    } else {
        PathBuf::from(path)
    };
    let root_file = ["src/lib.rs", "src/main.rs"]
        .into_iter()
        .map(|candidate| rel_dir.join(candidate))
        .find(|rel| root.join(rel).is_file());
    Member {
        path: path.to_string(),
        label,
        root_file,
        src_files,
        test_files,
    }
}

/// Recursively collects `.rs` files under `dir` as workspace-relative
/// paths (sorted by the caller).
fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            // `fixtures/` holds deliberately-violating lint corpora
            // (crates/analysis/tests/fixtures) — never scan it as code.
            if child.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk_rs(&child, root, out);
        } else if child.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = child.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}
