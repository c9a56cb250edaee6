//! Diagnostics: what a lint reports and how it prints.

use std::fmt;
use std::path::PathBuf;

/// The linter's passes / lint names, as used in `sda-lint: allow(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// RNG stream names must be registered in `analysis/streams.toml`,
    /// collision-free and prefix-disjoint.
    StreamRegistry,
    /// Crate roots must pin `#![forbid(unsafe_code)]` and
    /// `#![deny(missing_docs)]`.
    LintHeader,
    /// Every public config-enum variant must be named by a golden or
    /// regression test.
    GoldenCoverage,
    /// Malformed configs, stale registry entries, unknown or unused
    /// `sda-lint:` annotations.
    Config,
}

impl Lint {
    /// The kebab-case name used in diagnostics and allow-annotations.
    pub fn name(self) -> &'static str {
        match self {
            Lint::StreamRegistry => "stream-registry",
            Lint::LintHeader => "lint-header",
            Lint::GoldenCoverage => "golden-coverage",
            Lint::Config => "config",
        }
    }

    /// Parses an annotation's lint name.
    pub fn from_name(name: &str) -> Option<Lint> {
        match name {
            "stream-registry" => Some(Lint::StreamRegistry),
            "lint-header" => Some(Lint::LintHeader),
            "golden-coverage" => Some(Lint::GoldenCoverage),
            "config" => Some(Lint::Config),
            _ => None,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, pointing at a workspace-relative location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path of the offending file (or config file).
    pub file: PathBuf,
    /// 1-based line (0 when the finding is file-level).
    pub line: u32,
    /// 1-based column (0 when unknown).
    pub col: u32,
    /// The finding, one sentence, actionable.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at a precise location.
    pub fn new(
        lint: Lint,
        file: impl Into<PathBuf>,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            lint,
            file: file.into(),
            line,
            col,
            message: message.into(),
        }
    }

    /// Builds a file-level diagnostic (no line).
    pub fn file_level(
        lint: Lint,
        file: impl Into<PathBuf>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic::new(lint, file, 0, 0, message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}:{}: [{}] {}",
                self.file.display(),
                self.line,
                self.col.max(1),
                self.lint,
                self.message
            )
        } else {
            write!(
                f,
                "{}: [{}] {}",
                self.file.display(),
                self.lint,
                self.message
            )
        }
    }
}

/// Sorts diagnostics for stable output: by file, then line, then lint.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.lint, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.lint, &b.message))
    });
}
