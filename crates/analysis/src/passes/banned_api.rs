//! Pass 1 — banned APIs in deterministic-tier (and harness) code.
//!
//! A single wall-clock read, hash-order iteration or ambient-environment
//! lookup in the simulation path breaks bit-exact replay in ways the
//! golden fingerprints only catch *if they happen to sample it*. This
//! pass bans the whole API class at the call-site level:
//!
//! * `std::time::Instant` / `SystemTime` — wall clock;
//! * `std::collections::HashMap` / `HashSet` — iteration-order hazard
//!   (use `BTreeMap`/`BTreeSet`, slabs or sorted `Vec`s);
//! * `rand::thread_rng` / `rand::random` — seedless ambient RNG that
//!   bypasses the named-stream [`RngFactory`](https://docs.rs) registry;
//! * `std::env` — ambient process state.
//!
//! `#[cfg(test)]` items are skipped (tests may read `GOLDEN_DUMP` etc.).
//! Legitimate uses — the live service's wall clock, the experiment CLI
//! reading argv — carry `// sda-lint: allow(banned-api, reason = …)`
//! and are counted, not silently exempted.

use crate::config::Tier;
use crate::diag::{Diagnostic, Lint};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One banned API: how it is matched and what mirrors it in
/// `clippy.toml` (kept in sync by the clippy-sync pass).
pub struct BannedApi {
    /// Short key used in messages.
    pub key: &'static str,
    /// Identifier tokens that match this API (any occurrence).
    pub idents: &'static [&'static str],
    /// `a::b` path sequences that match this API.
    pub paths: &'static [&'static [&'static str]],
    /// Mirrored `disallowed-types` paths in `clippy.toml`.
    pub clippy_types: &'static [&'static str],
    /// Mirrored `disallowed-methods` paths in `clippy.toml`.
    pub clippy_methods: &'static [&'static str],
    /// Why it is banned — shown in the diagnostic.
    pub why: &'static str,
}

/// The ban table. The clippy-sync pass asserts `clippy.toml` mirrors the
/// `clippy_types`/`clippy_methods` columns exactly.
pub const BANNED: &[BannedApi] = &[
    BannedApi {
        key: "std::time::Instant",
        idents: &["Instant"],
        paths: &[],
        clippy_types: &["std::time::Instant"],
        clippy_methods: &[],
        why: "wall-clock reads make replay timing-dependent",
    },
    BannedApi {
        key: "std::time::SystemTime",
        idents: &["SystemTime"],
        paths: &[],
        clippy_types: &["std::time::SystemTime"],
        clippy_methods: &[],
        why: "wall-clock reads make replay timing-dependent",
    },
    BannedApi {
        key: "std::collections::HashMap",
        idents: &["HashMap"],
        paths: &[],
        clippy_types: &["std::collections::HashMap"],
        clippy_methods: &[],
        why: "iteration order is seeded per process; use BTreeMap, a slab or a sorted Vec",
    },
    BannedApi {
        key: "std::collections::HashSet",
        idents: &["HashSet"],
        paths: &[],
        clippy_types: &["std::collections::HashSet"],
        clippy_methods: &[],
        why: "iteration order is seeded per process; use BTreeSet or a sorted Vec",
    },
    BannedApi {
        key: "rand::thread_rng",
        idents: &["thread_rng"],
        paths: &[],
        // The offline `rand` stub deliberately does not export
        // `thread_rng`/`random`, so there is no resolvable path for
        // clippy to disallow — this pass is the only guard.
        clippy_types: &[],
        clippy_methods: &[],
        why: "seedless ambient RNG bypasses the named-stream RngFactory",
    },
    BannedApi {
        key: "rand::random",
        idents: &[],
        paths: &[&["rand", "random"]],
        clippy_types: &[],
        clippy_methods: &[],
        why: "seedless ambient RNG bypasses the named-stream RngFactory",
    },
    BannedApi {
        key: "std::env",
        idents: &[],
        paths: &[&["std", "env"]],
        clippy_types: &[],
        clippy_methods: &[
            "std::env::var",
            "std::env::var_os",
            "std::env::args",
            "std::env::temp_dir",
        ],
        why: "ambient process state; configuration must flow through explicit config structs",
    },
];

/// Runs the pass over one source file of a member in `tier`.
pub fn run(file: &SourceFile, tier: Tier, diags: &mut Vec<Diagnostic>) {
    if tier == Tier::Exempt {
        return;
    }
    let tokens = &file.lexed.tokens;
    for (i, tok) in file.lexed.non_test_tokens() {
        let TokenKind::Ident(ident) = &tok.kind else {
            continue;
        };
        for api in BANNED {
            let ident_hit = api.idents.contains(&ident.as_str());
            let path_hit = api.paths.iter().any(|p| path_matches(tokens, i, p));
            if !(ident_hit || path_hit) {
                continue;
            }
            // For path bans, only report at the path head to avoid a
            // second hit on the tail identifier.
            if !ident_hit && !api.paths.iter().any(|p| p[0] == ident.as_str()) {
                continue;
            }
            if file.suppressed(Lint::BannedApi, tok.line) {
                continue;
            }
            diags.push(Diagnostic::new(
                Lint::BannedApi,
                file.rel.clone(),
                tok.line,
                tok.col,
                format!(
                    "use of banned API `{}` in a {}-tier crate: {}. \
                     If this use is genuinely deterministic-safe, add \
                     `// sda-lint: allow(banned-api, reason = \"…\")`",
                    api.key,
                    tier.name(),
                    api.why
                ),
            ));
        }
    }
}

/// Whether the `::`-separated path `segs` starts at token `i`.
fn path_matches(tokens: &[crate::lexer::Token], i: usize, segs: &[&str]) -> bool {
    let mut idx = i;
    for (n, seg) in segs.iter().enumerate() {
        match tokens.get(idx).map(|t| &t.kind) {
            Some(TokenKind::Ident(id)) if id == seg => {}
            _ => return false,
        }
        idx += 1;
        if n + 1 < segs.len() {
            let colons = matches!(
                tokens.get(idx).map(|t| &t.kind),
                Some(TokenKind::Punct(':'))
            ) && matches!(
                tokens.get(idx + 1).map(|t| &t.kind),
                Some(TokenKind::Punct(':'))
            );
            if !colons {
                return false;
            }
            idx += 2;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint(src: &str, tier: Tier) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let sf = SourceFile::new(PathBuf::from("crates/det/src/lib.rs"), src, &mut diags);
        run(&sf, tier, &mut diags);
        sf.report_unused_allows(&mut diags);
        diags
    }

    #[test]
    fn each_banned_api_fires_once() {
        let cases = [
            ("use std::time::Instant;", "std::time::Instant"),
            ("let t = SystemTime::now();", "std::time::SystemTime"),
            ("let m: HashMap<u8, u8> = HashMap::default();", "HashMap"),
            ("use std::collections::HashSet;", "HashSet"),
            ("let r = thread_rng();", "rand::thread_rng"),
            ("let x: f64 = rand::random();", "rand::random"),
            ("let v = std::env::var(\"X\");", "std::env"),
        ];
        for (src, key) in cases {
            let diags = lint(src, Tier::Deterministic);
            assert!(
                diags.iter().any(|d| d.message.contains(key)),
                "{src}: {diags:?}"
            );
        }
    }

    #[test]
    fn strings_comments_and_tests_do_not_fire() {
        let src = r#"
            // HashMap here is fine
            const NAME: &str = "Instant";
            #[cfg(test)]
            mod tests {
                use std::collections::HashSet;
                fn f() { let _ = std::env::var("GOLDEN_DUMP"); }
            }
        "#;
        assert!(lint(src, Tier::Deterministic).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_and_is_used() {
        let src = "use std::time::Instant; // sda-lint: allow(banned-api, reason = \"wall time is the measurement\")";
        assert!(lint(src, Tier::Harness).is_empty());
    }

    #[test]
    fn exempt_tier_is_skipped() {
        assert!(lint("use std::time::Instant;", Tier::Exempt).is_empty());
    }

    #[test]
    fn diagnostic_has_exact_position() {
        let diags = lint("\n  let x = Instant::now();", Tier::Deterministic);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].line, diags[0].col), (2, 11));
    }
}
