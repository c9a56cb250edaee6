//! Loaded source files and the `sda-lint: allow(...)` escape hatch.
//!
//! An annotation is a comment of the form
//!
//! ```text
//! // sda-lint: allow(stream-registry, reason = "joins label+index; every caller is checked")
//! ```
//!
//! A *trailing* annotation (code before it on the line) suppresses
//! matching findings on its own line; an annotation that owns its line
//! suppresses findings on the next line that has any code. Every
//! annotation must name a known lint and a non-empty reason, and every
//! annotation must actually suppress something — unused allows are
//! themselves findings, so stale escape hatches cannot accumulate.

use std::cell::Cell;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Lint};
use crate::lexer::Lexed;

/// One parsed `sda-lint: allow(...)` annotation.
#[derive(Debug)]
pub struct Allow {
    /// The lint it suppresses.
    pub lint: Lint,
    /// The line whose findings it suppresses.
    pub target_line: u32,
    /// The line the annotation itself is on (for unused-allow reports).
    pub line: u32,
    /// Whether any finding was suppressed by this annotation.
    pub used: Cell<bool>,
}

/// A lexed source file plus its annotations.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: PathBuf,
    /// Token stream, comments and `#[cfg(test)]` mask.
    pub lexed: Lexed,
    /// Parsed allow-annotations.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lexes `text` (read from `rel`), collecting malformed annotations
    /// into `diags`.
    pub fn new(rel: PathBuf, text: &str, diags: &mut Vec<Diagnostic>) -> SourceFile {
        let lexed = Lexed::new(text);
        let mut allows = Vec::new();
        for comment in &lexed.comments {
            let Some(rest) = find_marker(&comment.text) else {
                continue;
            };
            match parse_allow(rest) {
                Ok(lint_name) => match Lint::from_name(&lint_name) {
                    Some(lint) => {
                        let target_line = if comment.owns_line {
                            lexed
                                .tokens
                                .iter()
                                .map(|t| t.line)
                                .find(|&l| l > comment.line)
                                .unwrap_or(comment.line)
                        } else {
                            comment.line
                        };
                        allows.push(Allow {
                            lint,
                            target_line,
                            line: comment.line,
                            used: Cell::new(false),
                        });
                    }
                    None => diags.push(Diagnostic::new(
                        Lint::Config,
                        rel.clone(),
                        comment.line,
                        1,
                        format!("sda-lint annotation names unknown lint `{lint_name}`"),
                    )),
                },
                Err(why) => diags.push(Diagnostic::new(
                    Lint::Config,
                    rel.clone(),
                    comment.line,
                    1,
                    format!("malformed sda-lint annotation: {why}"),
                )),
            }
        }
        SourceFile { rel, lexed, allows }
    }

    /// Whether a `lint` finding at `line` is suppressed; marks the
    /// annotation used.
    pub fn suppressed(&self, lint: Lint, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.lint == lint && a.target_line == line {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Reports annotations that suppressed nothing.
    pub fn report_unused_allows(&self, diags: &mut Vec<Diagnostic>) {
        for a in &self.allows {
            if !a.used.get() {
                diags.push(Diagnostic::new(
                    Lint::Config,
                    self.rel.clone(),
                    a.line,
                    1,
                    format!(
                        "unused sda-lint allow({}) — nothing to suppress here, remove it",
                        a.lint
                    ),
                ));
            }
        }
    }
}

/// Finds the annotation marker, returning the text after it.
///
/// Only plain `//` comments that *begin* with `sda-lint:` count: doc
/// comments (`///`, `//!` — their text starts with `/` or `!`) and
/// prose that merely mentions the marker mid-sentence are documentation
/// about the mechanism, not uses of it.
fn find_marker(text: &str) -> Option<&str> {
    if text.starts_with('/') || text.starts_with('!') {
        return None;
    }
    text.trim_start().strip_prefix("sda-lint:").map(str::trim)
}

/// Parses `allow(<lint>, reason = "...")`, returning the lint name.
fn parse_allow(rest: &str) -> Result<String, String> {
    let body = rest
        .strip_prefix("allow(")
        .ok_or("expected `allow(<lint>, reason = \"…\")`")?;
    let close = body.rfind(')').ok_or("missing closing `)`")?;
    let body = &body[..close];
    let (lint_name, tail) = match body.find(',') {
        Some(comma) => (body[..comma].trim(), body[comma + 1..].trim()),
        None => return Err("missing `, reason = \"…\"`".into()),
    };
    let reason = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .ok_or("expected `reason = \"…\"`")?;
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or("reason must be a quoted string")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".into());
    }
    Ok(lint_name.to_string())
}

/// Reads and lexes a file under `root`, or records a config diagnostic.
pub fn load(root: &Path, rel: &Path, diags: &mut Vec<Diagnostic>) -> Option<SourceFile> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => Some(SourceFile::new(rel.to_path_buf(), &text, diags)),
        Err(e) => {
            diags.push(Diagnostic::file_level(
                Lint::Config,
                rel,
                format!("cannot read file: {e}"),
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_and_owning_annotations_target_the_right_lines() {
        let src = "\
#![warn(missing_docs)] // sda-lint: allow(lint-header, reason = \"generated bindings\")
// sda-lint: allow(stream-registry, reason = \"dynamic by design\")
let b = f.stream(name);
";
        let mut diags = Vec::new();
        let sf = SourceFile::new(PathBuf::from("x.rs"), src, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(sf.allows.len(), 2);
        assert!(sf.suppressed(Lint::LintHeader, 1));
        assert!(sf.suppressed(Lint::StreamRegistry, 3));
        assert!(!sf.suppressed(Lint::LintHeader, 3));
        assert!(!sf.suppressed(Lint::StreamRegistry, 1));
        let mut unused = Vec::new();
        sf.report_unused_allows(&mut unused);
        assert!(unused.is_empty());
    }

    #[test]
    fn malformed_annotations_are_reported() {
        let cases = [
            "// sda-lint: allow(stream-registry)",
            "// sda-lint: allow(stream-registry, reason = \"\")",
            "// sda-lint: allow(no-such-lint, reason = \"x\")",
            "// sda-lint: deny(stream-registry, reason = \"x\")",
        ];
        for src in cases {
            let mut diags = Vec::new();
            SourceFile::new(PathBuf::from("x.rs"), src, &mut diags);
            assert_eq!(diags.len(), 1, "for {src}: {diags:?}");
        }
    }

    #[test]
    fn unused_allow_is_reported() {
        let mut diags = Vec::new();
        let sf = SourceFile::new(
            PathBuf::from("x.rs"),
            "// sda-lint: allow(stream-registry, reason = \"left over\")\nlet x = 1;",
            &mut diags,
        );
        sf.report_unused_allows(&mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unused"));
    }
}
