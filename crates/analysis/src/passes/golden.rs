//! Pass 3 — golden coverage of public config enums.
//!
//! The golden fingerprints sample behavior; this pass makes sure no
//! *configuration surface* escapes the sample entirely: every variant of
//! the registered public config enums (`NetworkModel`, `ArrivalProcess`,
//! `FailureModel`, `GlobalShape`, …) must be *named* — as a qualified
//! `Enum::Variant` path — somewhere in the golden/regression test
//! directories. A new variant therefore cannot land unpinned: adding it
//! turns CI red until a seeded test exercises it by name.

use std::collections::BTreeSet;

use crate::config::GoldenEnum;
use crate::diag::{Diagnostic, Lint};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Extracts the variants of `pub enum <name>` from `file`, each with
/// the 1-based line of its declaration (so a coverage finding points at
/// the variant, not just the file).
///
/// Returns `None` when the enum is not declared in the file (a config
/// error the caller reports — a stale `[[golden.enum]]` entry must not
/// silently pass).
pub fn enum_variants(file: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let tokens = &file.lexed.tokens;
    // Find `pub enum <name> … {`.
    let mut start = None;
    for i in 0..tokens.len() {
        if matches!(&tokens[i].kind, TokenKind::Ident(id) if id == "pub")
            && matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Ident(id)) if id == "enum")
            && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokenKind::Ident(id)) if id == name)
        {
            start = Some(i + 3);
            break;
        }
    }
    let mut i = start?;
    // Skip generics/whatever until the opening brace.
    while i < tokens.len() && !matches!(tokens[i].kind, TokenKind::Punct('{')) {
        i += 1;
    }
    if i == tokens.len() {
        return None;
    }
    i += 1;
    let mut variants = Vec::new();
    let mut depth = 1usize;
    let mut expect_variant = true;
    while i < tokens.len() && depth > 0 {
        match &tokens[i].kind {
            TokenKind::Punct('#') => {
                // Skip the attribute (`#[default]`, doc attrs, …).
                let mut d = 0usize;
                i += 1;
                while i < tokens.len() {
                    match tokens[i].kind {
                        TokenKind::Punct('[') => d += 1,
                        TokenKind::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            TokenKind::Punct('{') | TokenKind::Punct('(') => {
                depth += 1;
                expect_variant = false;
            }
            TokenKind::Punct('}') | TokenKind::Punct(')') => depth -= 1,
            TokenKind::Punct(',') if depth == 1 => expect_variant = true,
            TokenKind::Ident(id) if depth == 1 && expect_variant => {
                variants.push((id.clone(), tokens[i].line));
                expect_variant = false;
            }
            _ => {}
        }
        i += 1;
    }
    Some(variants)
}

/// Collects every `Enum::Variant`-qualified name mentioned in a test file.
pub fn qualified_mentions(file: &SourceFile, enum_name: &str, out: &mut BTreeSet<String>) {
    let tokens = &file.lexed.tokens;
    for i in 0..tokens.len() {
        if matches!(&tokens[i].kind, TokenKind::Ident(id) if id == enum_name)
            && matches!(
                tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Punct(':'))
            )
            && matches!(
                tokens.get(i + 2).map(|t| &t.kind),
                Some(TokenKind::Punct(':'))
            )
        {
            if let Some(TokenKind::Ident(variant)) = tokens.get(i + 3).map(|t| &t.kind) {
                out.insert(variant.clone());
            }
        }
    }
}

/// Checks one registered enum against the collected test mentions.
pub fn check(
    spec: &GoldenEnum,
    decl_file: Option<&SourceFile>,
    mentions: &BTreeSet<String>,
    test_dirs: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    let Some(decl) = decl_file else {
        diags.push(Diagnostic::file_level(
            Lint::Config,
            "analysis/lints.toml",
            format!(
                "[[golden.enum]] `{}` points at missing file `{}`",
                spec.name, spec.file
            ),
        ));
        return;
    };
    let Some(variants) = enum_variants(decl, &spec.name) else {
        diags.push(Diagnostic::file_level(
            Lint::Config,
            spec.file.clone(),
            format!(
                "registered golden enum `{}` is not declared in this file — fix \
                 analysis/lints.toml",
                spec.name
            ),
        ));
        return;
    };
    for (v, line) in variants {
        if !mentions.contains(&v) {
            diags.push(Diagnostic::new(
                Lint::GoldenCoverage,
                spec.file.clone(),
                line,
                1,
                format!(
                    "enum variant `{}::{v}` is not named in any golden/regression test \
                     under {:?} — pin it with a seeded test before it can ship",
                    spec.name, test_dirs
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sf(src: &str) -> SourceFile {
        let mut diags = Vec::new();
        let f = SourceFile::new(PathBuf::from("x.rs"), src, &mut diags);
        assert!(diags.is_empty());
        f
    }

    #[test]
    fn variants_of_data_enums_are_extracted() {
        let src = r#"
            /// Docs.
            #[derive(Debug, Clone, Default)]
            pub enum Net {
                /// Free.
                #[default]
                Zero,
                /// Fixed.
                Constant { delay: f64 },
                /// Tuple-ish.
                Pair(f64, f64),
                Matrix { delays: Vec<Vec<f64>> },
            }
        "#;
        let got = enum_variants(&sf(src), "Net").unwrap();
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Zero", "Constant", "Pair", "Matrix"]);
        // Lines point at the variant declarations themselves.
        assert_eq!(got[0].1, 7);
        assert_eq!(got[1].1, 9);
    }

    #[test]
    fn missing_enum_returns_none() {
        assert!(enum_variants(&sf("pub enum Other { A }"), "Net").is_none());
        // A private enum does not satisfy a *public* config-surface claim.
        assert!(enum_variants(&sf("enum Net { A }"), "Net").is_none());
    }

    #[test]
    fn qualified_mentions_are_collected() {
        let mut out = BTreeSet::new();
        qualified_mentions(
            &sf("cfg.net = Net::Constant { delay: 1.0 }; let z = Net::Zero;"),
            "Net",
            &mut out,
        );
        assert_eq!(
            out.into_iter().collect::<Vec<_>>(),
            vec!["Constant".to_string(), "Zero".to_string()]
        );
    }

    #[test]
    fn uncovered_variant_fires() {
        let decl = sf("pub enum Net { Zero, Constant { d: f64 } }");
        let mut mentions = BTreeSet::new();
        mentions.insert("Zero".to_string());
        let spec = GoldenEnum {
            name: "Net".into(),
            file: "x.rs".into(),
        };
        let mut diags = Vec::new();
        check(&spec, Some(&decl), &mentions, &["tests".into()], &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("Net::Constant"));
    }
}
