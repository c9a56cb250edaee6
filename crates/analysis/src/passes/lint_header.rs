//! Pass 2 — crate-root lint headers.
//!
//! Every non-compat crate must pin `#![forbid(unsafe_code)]` (all
//! workspace crates are safe Rust; `forbid` means a future PR cannot
//! even `allow` its way around it) and `#![deny(missing_docs)]` (the
//! public surface is the reproduction's contract; an undocumented knob
//! is an unreviewable knob). A crate may be excused from the docs
//! requirement via `[lint_header] missing_docs_exempt` in
//! `analysis/lints.toml` — with a reason.

use crate::config::LintsConfig;
use crate::diag::{Diagnostic, Lint};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace::Member;

/// Checks one member's crate-root file.
pub fn run(
    member: &Member,
    root_file: &SourceFile,
    lints: &LintsConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if !has_inner_attr(root_file, "forbid", "unsafe_code") {
        diags.push(Diagnostic::new(
            Lint::LintHeader,
            root_file.rel.clone(),
            1,
            1,
            format!(
                "crate `{}` must carry `#![forbid(unsafe_code)]` at the top of {}",
                member.label,
                root_file.rel.display()
            ),
        ));
    }
    let exempt = lints
        .missing_docs_exempt
        .iter()
        .any(|(path, _)| *path == member.path);
    if !exempt && !has_inner_attr(root_file, "deny", "missing_docs") {
        diags.push(Diagnostic::new(
            Lint::LintHeader,
            root_file.rel.clone(),
            1,
            1,
            format!(
                "crate `{}` must carry `#![deny(missing_docs)]` (or a \
                 missing_docs_exempt entry with a reason in analysis/lints.toml)",
                member.label
            ),
        ));
    }
}

/// Whether `#![level(lint)]` appears in the file.
fn has_inner_attr(file: &SourceFile, level: &str, lint: &str) -> bool {
    let tokens = &file.lexed.tokens;
    tokens.windows(6).any(|w| {
        matches!(&w[0].kind, TokenKind::Punct('#'))
            && matches!(&w[1].kind, TokenKind::Punct('!'))
            && matches!(&w[2].kind, TokenKind::Punct('['))
            && matches!(&w[3].kind, TokenKind::Ident(i) if i == level)
            && matches!(&w[4].kind, TokenKind::Punct('('))
            && matches!(&w[5].kind, TokenKind::Ident(i) if i == lint)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn member() -> Member {
        Member {
            path: "crates/det".into(),
            label: "det".into(),
            root_file: Some(PathBuf::from("crates/det/src/lib.rs")),
            src_files: vec![],
            test_files: vec![],
        }
    }

    fn check(src: &str, lints: &LintsConfig) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let sf = SourceFile::new(PathBuf::from("crates/det/src/lib.rs"), src, &mut diags);
        run(&member(), &sf, lints, &mut diags);
        diags
    }

    #[test]
    fn both_attrs_present_is_clean() {
        let src = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
        assert!(check(src, &LintsConfig::default()).is_empty());
    }

    #[test]
    fn missing_attrs_fire_individually() {
        let diags = check("#![deny(missing_docs)]", &LintsConfig::default());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("forbid(unsafe_code)"));
        let diags = check("#![forbid(unsafe_code)]", &LintsConfig::default());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("deny(missing_docs)"));
    }

    #[test]
    fn warn_is_not_deny() {
        let diags = check(
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
            &LintsConfig::default(),
        );
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn docs_exemption_is_honored() {
        let lints = LintsConfig {
            missing_docs_exempt: vec![("crates/det".into(), "generated code".into())],
            ..LintsConfig::default()
        };
        assert!(check("#![forbid(unsafe_code)]", &lints).is_empty());
    }
}
