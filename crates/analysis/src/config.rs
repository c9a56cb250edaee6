//! Models for `analysis/lints.toml` and `analysis/streams.toml`.

use std::collections::BTreeSet;
use std::path::Path;

use crate::diag::{Diagnostic, Lint};
use crate::minitoml::Document;

/// Policy tier of a workspace member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Workspace crates: every pass runs over them.
    Checked,
    /// Offline dependency stubs (`crates/compat/*`): not linted.
    Exempt,
}

/// One `[[golden.enum]]` entry: a public config enum whose variants must
/// all be named by the golden/regression suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenEnum {
    /// The enum's Rust name (e.g. `NetworkModel`).
    pub name: String,
    /// Workspace-relative file declaring it.
    pub file: String,
}

/// Parsed `analysis/lints.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintsConfig {
    /// Checked member paths (`"."` = the root package).
    pub checked: Vec<String>,
    /// Exempt member paths.
    pub exempt: Vec<String>,
    /// Crates excused from `#![deny(missing_docs)]` (path, reason).
    pub missing_docs_exempt: Vec<(String, String)>,
    /// Directories (workspace-relative) whose `.rs` files count as
    /// golden/regression tests for the coverage pass.
    pub golden_test_dirs: Vec<String>,
    /// The enums the golden-coverage pass checks.
    pub golden_enums: Vec<GoldenEnum>,
}

impl LintsConfig {
    /// Parses the document, reporting structural problems as `config`
    /// diagnostics against `file`.
    pub fn parse(doc: &Document, file: &Path, diags: &mut Vec<Diagnostic>) -> LintsConfig {
        let mut cfg = LintsConfig::default();
        match doc.section("tiers") {
            Some(tiers) => {
                cfg.checked = tiers.get_str_array("checked");
                cfg.exempt = tiers.get_str_array("exempt");
            }
            None => diags.push(Diagnostic::file_level(
                Lint::Config,
                file,
                "missing [tiers] section: every workspace member must be assigned a policy tier",
            )),
        }
        if let Some(lh) = doc.section("lint_header") {
            for item in lh.get_str_array("missing_docs_exempt") {
                diags.push(Diagnostic::new(
                    Lint::Config,
                    file,
                    lh.line,
                    1,
                    format!(
                        "missing_docs_exempt entries must be inline tables \
                         {{ path = \"…\", reason = \"…\" }}, got bare string `{item}`"
                    ),
                ));
            }
            if let Some(crate::minitoml::Value::Array(items)) = lh.get("missing_docs_exempt") {
                for v in items {
                    if let crate::minitoml::Value::Table(t) = v {
                        match (t.get("path"), t.get("reason")) {
                            (Some(p), Some(r)) if !r.trim().is_empty() => {
                                cfg.missing_docs_exempt.push((p.clone(), r.clone()));
                            }
                            _ => diags.push(Diagnostic::new(
                                Lint::Config,
                                file,
                                lh.line,
                                1,
                                "missing_docs_exempt entry needs `path` and a non-empty `reason`",
                            )),
                        }
                    }
                }
            }
        }
        if let Some(golden) = doc.section("golden") {
            cfg.golden_test_dirs = golden.get_str_array("test_dirs");
        }
        for e in doc.sections_named("golden.enum") {
            match (e.get_str("name"), e.get_str("file")) {
                (Some(name), Some(path)) => cfg.golden_enums.push(GoldenEnum {
                    name: name.to_string(),
                    file: path.to_string(),
                }),
                _ => diags.push(Diagnostic::new(
                    Lint::Config,
                    file,
                    e.line,
                    1,
                    "[[golden.enum]] needs `name` and `file`",
                )),
            }
        }
        let mut seen = BTreeSet::new();
        for path in cfg.checked.iter().chain(&cfg.exempt) {
            if !seen.insert(path.clone()) {
                diags.push(Diagnostic::file_level(
                    Lint::Config,
                    file,
                    format!("member `{path}` is assigned to more than one tier"),
                ));
            }
        }
        cfg
    }

    /// The tier of a member path, if assigned.
    pub fn tier_of(&self, member: &str) -> Option<Tier> {
        if self.checked.iter().any(|m| m == member) {
            Some(Tier::Checked)
        } else if self.exempt.iter().any(|m| m == member) {
            Some(Tier::Exempt)
        } else {
            None
        }
    }
}

/// Kind of a stream-registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamKind {
    /// A single literal name, e.g. `"system.network"`.
    Exact,
    /// A per-entity family `name.{index}`, used via `stream_indexed` or a
    /// format string with the `name.` prefix.
    Indexed,
}

/// One `[[stream]]` registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEntry {
    /// The stream name (for `Indexed`, the prefix before `.{index}`).
    pub name: String,
    /// Exact name or indexed family.
    pub kind: StreamKind,
    /// Owning subsystem: a crate label (`core`, `sim`, …, `sda`).
    pub subsystem: String,
    /// `"runtime"` or `"test"` — documentation of where the stream lives.
    pub scope: String,
    /// Why reuse/sharing is intentional. Required once a name has more
    /// than one call site.
    pub note: String,
    /// Whether call sites outside `subsystem` are intentional.
    pub shared: bool,
    /// Literal names that intentionally shadow this indexed family
    /// (e.g. a test pinning `stream_indexed("node", 3) == stream("node.3")`).
    pub allow_literal: Vec<String>,
    /// 1-based line of the entry in `streams.toml`.
    pub line: u32,
}

/// Parsed `analysis/streams.toml`.
#[derive(Debug, Clone, Default)]
pub struct StreamRegistry {
    /// All entries, in file order.
    pub entries: Vec<StreamEntry>,
}

impl StreamRegistry {
    /// Parses the document, reporting malformed entries against `file`.
    pub fn parse(doc: &Document, file: &Path, diags: &mut Vec<Diagnostic>) -> StreamRegistry {
        let mut reg = StreamRegistry::default();
        for s in doc.sections_named("stream") {
            let Some(name) = s.get_str("name") else {
                diags.push(Diagnostic::new(
                    Lint::Config,
                    file,
                    s.line,
                    1,
                    "[[stream]] entry without a `name`",
                ));
                continue;
            };
            let kind = match s.get_str("kind").unwrap_or("exact") {
                "exact" => StreamKind::Exact,
                "indexed" => StreamKind::Indexed,
                other => {
                    diags.push(Diagnostic::new(
                        Lint::Config,
                        file,
                        s.line,
                        1,
                        format!("stream `{name}`: unknown kind `{other}` (exact|indexed)"),
                    ));
                    StreamKind::Exact
                }
            };
            let Some(subsystem) = s.get_str("subsystem") else {
                diags.push(Diagnostic::new(
                    Lint::Config,
                    file,
                    s.line,
                    1,
                    format!("stream `{name}`: missing `subsystem`"),
                ));
                continue;
            };
            let scope = s.get_str("scope").unwrap_or("runtime").to_string();
            if scope != "runtime" && scope != "test" {
                diags.push(Diagnostic::new(
                    Lint::Config,
                    file,
                    s.line,
                    1,
                    format!("stream `{name}`: unknown scope `{scope}` (runtime|test)"),
                ));
            }
            reg.entries.push(StreamEntry {
                name: name.to_string(),
                kind,
                subsystem: subsystem.to_string(),
                scope,
                note: s.get_str("note").unwrap_or("").to_string(),
                shared: s.get_bool("shared"),
                allow_literal: s.get_str_array("allow_literal"),
                line: s.line,
            });
        }
        let mut seen = BTreeSet::new();
        for e in &reg.entries {
            if !seen.insert((e.name.clone(), e.kind)) {
                diags.push(Diagnostic::new(
                    Lint::Config,
                    file,
                    e.line,
                    1,
                    format!("duplicate [[stream]] entry for `{}`", e.name),
                ));
            }
        }
        reg
    }
}
