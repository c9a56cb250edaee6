//! Pass 1 — the RNG stream-name registry.
//!
//! Streams derive from `(master seed, label)` only, so two call sites
//! that pick the same label silently share a random stream: their draws
//! become perfectly correlated, which destroys the independence
//! assumptions behind variance reduction and any external validation
//! (miss-rate bounds, probabilistic deadline guarantees) — without
//! failing a single test. This pass extracts every `stream(...)` /
//! `stream_indexed(...)` call site, resolves the static name or prefix,
//! and checks the result against the committed
//! `analysis/streams.toml` registry:
//!
//! * **unregistered** — a name not in the registry is an error: naming a
//!   stream is a cross-cutting decision, not a local one;
//! * **cross-subsystem collision** — a registered name used from a crate
//!   other than its owner needs `shared = true` plus a note;
//! * **undocumented reuse** — an exact name with more than one call site
//!   needs a `note` saying why the correlation is intentional (indexed
//!   families are exempt: distinct indices are distinct streams);
//! * **literal-vs-indexed overlap** — a literal like `"system.failure.3"`
//!   shadowing an indexed family `system.failure.{i}` is an error unless
//!   the family's `allow_literal` lists it;
//! * **stale entries** — registry entries with zero call sites are
//!   errors, so the registry cannot rot;
//! * **unresolvable sites** — a dynamically built name the linter cannot
//!   resolve must carry `sda-lint: allow(stream-registry, …)`.

use std::collections::BTreeMap;

use crate::config::{StreamKind, StreamRegistry};
use crate::diag::{Diagnostic, Lint};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// How a call site names its stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteName {
    /// `stream("literal")`.
    Exact(String),
    /// `stream_indexed("family", i)` — the family name.
    Indexed(String),
    /// `stream(&format!("prefix{…}", …))` — the static prefix before the
    /// first `{`.
    FormatPrefix(String),
    /// Built from runtime values; not statically resolvable.
    Dynamic,
}

/// One extracted call site.
#[derive(Debug)]
pub struct Site {
    /// The resolved (or unresolvable) name.
    pub name: SiteName,
    /// Workspace-relative file.
    pub file: std::path::PathBuf,
    /// Subsystem label of the file's crate.
    pub subsystem: String,
    /// 1-based line / column of the `stream` identifier.
    pub line: u32,
    /// Column.
    pub col: u32,
}

/// Extracts all stream call sites from one file.
pub fn extract(file: &SourceFile, subsystem: &str) -> Vec<Site> {
    let tokens = &file.lexed.tokens;
    let mut sites = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(id) = &tok.kind else {
            continue;
        };
        let indexed = match id.as_str() {
            "stream" => false,
            "stream_indexed" => true,
            _ => continue,
        };
        // Method or associated call only: preceded by `.` or `::`, and
        // followed by `(` — `fn stream(` definitions and doc text don't
        // qualify.
        let preceded = i > 0
            && matches!(
                tokens[i - 1].kind,
                TokenKind::Punct('.') | TokenKind::Punct(':')
            );
        let called = matches!(
            tokens.get(i + 1).map(|t| &t.kind),
            Some(TokenKind::Punct('('))
        );
        if !preceded || !called {
            continue;
        }
        let name = resolve_first_arg(tokens, i + 2, indexed);
        sites.push(Site {
            name,
            file: file.rel.clone(),
            subsystem: subsystem.to_string(),
            line: tok.line,
            col: tok.col,
        });
    }
    sites
}

/// Resolves the first argument starting at token `j`.
fn resolve_first_arg(tokens: &[crate::lexer::Token], j: usize, indexed: bool) -> SiteName {
    match tokens.get(j).map(|t| &t.kind) {
        Some(TokenKind::Str(s)) => {
            if indexed {
                SiteName::Indexed(s.clone())
            } else {
                SiteName::Exact(s.clone())
            }
        }
        // `&format!("…", …)` (possibly without the `&`).
        Some(TokenKind::Punct('&')) => resolve_first_arg(tokens, j + 1, indexed),
        Some(TokenKind::Ident(id)) if id == "format" => {
            let bang = matches!(
                tokens.get(j + 1).map(|t| &t.kind),
                Some(TokenKind::Punct('!'))
            );
            let paren = matches!(
                tokens.get(j + 2).map(|t| &t.kind),
                Some(TokenKind::Punct('('))
            );
            if bang && paren {
                if let Some(TokenKind::Str(fmt)) = tokens.get(j + 3).map(|t| &t.kind) {
                    let prefix = fmt.split('{').next().unwrap_or("");
                    if prefix.is_empty() {
                        return SiteName::Dynamic;
                    }
                    return SiteName::FormatPrefix(prefix.to_string());
                }
            }
            SiteName::Dynamic
        }
        _ => SiteName::Dynamic,
    }
}

/// Checks all extracted sites against the registry.
pub fn check(
    sites: &[Site],
    registry: &StreamRegistry,
    files: &BTreeMap<std::path::PathBuf, &SourceFile>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut use_counts: BTreeMap<usize, Vec<&Site>> = BTreeMap::new();

    let suppressed = |site: &Site| {
        files
            .get(&site.file)
            .is_some_and(|f| f.suppressed(Lint::StreamRegistry, site.line))
    };

    for site in sites {
        match &site.name {
            SiteName::Dynamic => {
                if !suppressed(site) {
                    diags.push(Diagnostic::new(
                        Lint::StreamRegistry,
                        site.file.clone(),
                        site.line,
                        site.col,
                        "stream name is built dynamically and cannot be checked against \
                         analysis/streams.toml — use a literal, stream_indexed, or annotate \
                         with `// sda-lint: allow(stream-registry, reason = \"…\")`"
                            .to_string(),
                    ));
                }
            }
            SiteName::Exact(name) => {
                // Literal shadowing an indexed family?
                let shadow = registry.entries.iter().enumerate().find(|(_, e)| {
                    e.kind == StreamKind::Indexed
                        && name
                            .strip_prefix(&e.name)
                            .and_then(|r| r.strip_prefix('.'))
                            .is_some_and(|idx| {
                                !idx.is_empty() && idx.chars().all(|c| c.is_ascii_digit())
                            })
                });
                let exact = registry
                    .entries
                    .iter()
                    .enumerate()
                    .find(|(_, e)| e.kind == StreamKind::Exact && e.name == *name);
                match (exact, shadow) {
                    (Some((ei, entry)), None) => {
                        check_subsystem(site, entry, suppressed(site), diags);
                        use_counts.entry(ei).or_default().push(site);
                    }
                    (None, Some((si, entry))) => {
                        if entry.allow_literal.iter().any(|l| l == name) {
                            use_counts.entry(si).or_default().push(site);
                            check_subsystem(site, entry, suppressed(site), diags);
                        } else if !suppressed(site) {
                            diags.push(Diagnostic::new(
                                Lint::StreamRegistry,
                                site.file.clone(),
                                site.line,
                                site.col,
                                format!(
                                    "literal stream `{name}` shadows the indexed family \
                                     `{base}.{{index}}` — it would silently share draws with \
                                     that family's member; register it in the family's \
                                     `allow_literal` if the collision is the point",
                                    base = entry.name
                                ),
                            ));
                        }
                    }
                    (Some((ei, entry)), Some((_, family))) => {
                        // Registered both ways: the registry itself is
                        // inconsistent unless the family allows it.
                        if !family.allow_literal.iter().any(|l| l == name) && !suppressed(site) {
                            diags.push(Diagnostic::new(
                                Lint::StreamRegistry,
                                site.file.clone(),
                                site.line,
                                site.col,
                                format!(
                                    "stream `{name}` is registered exactly but also matches \
                                     indexed family `{}.{{index}}`; add it to that family's \
                                     `allow_literal` to document the overlap",
                                    family.name
                                ),
                            ));
                        }
                        check_subsystem(site, entry, suppressed(site), diags);
                        use_counts.entry(ei).or_default().push(site);
                    }
                    (None, None) => {
                        if !suppressed(site) {
                            diags.push(Diagnostic::new(
                                Lint::StreamRegistry,
                                site.file.clone(),
                                site.line,
                                site.col,
                                format!(
                                    "unregistered stream name `{name}` — add a [[stream]] entry \
                                     to analysis/streams.toml (subsystem `{}`)",
                                    site.subsystem
                                ),
                            ));
                        }
                    }
                }
            }
            SiteName::Indexed(name) => {
                match registry
                    .entries
                    .iter()
                    .enumerate()
                    .find(|(_, e)| e.kind == StreamKind::Indexed && e.name == *name)
                {
                    Some((ei, entry)) => {
                        check_subsystem(site, entry, suppressed(site), diags);
                        use_counts.entry(ei).or_default().push(site);
                    }
                    None => {
                        if !suppressed(site) {
                            diags.push(Diagnostic::new(
                                Lint::StreamRegistry,
                                site.file.clone(),
                                site.line,
                                site.col,
                                format!(
                                    "unregistered indexed stream family `{name}.{{index}}` — add \
                                     a [[stream]] entry with kind = \"indexed\" to \
                                     analysis/streams.toml (subsystem `{}`)",
                                    site.subsystem
                                ),
                            ));
                        }
                    }
                }
            }
            SiteName::FormatPrefix(prefix) => {
                // A format site matches an indexed family whose
                // `name.` equals the static prefix.
                match registry.entries.iter().enumerate().find(|(_, e)| {
                    e.kind == StreamKind::Indexed && format!("{}.", e.name) == *prefix
                }) {
                    Some((ei, entry)) => {
                        check_subsystem(site, entry, suppressed(site), diags);
                        use_counts.entry(ei).or_default().push(site);
                    }
                    None => {
                        if !suppressed(site) {
                            diags.push(Diagnostic::new(
                                Lint::StreamRegistry,
                                site.file.clone(),
                                site.line,
                                site.col,
                                format!(
                                    "format-string stream with prefix `{prefix}` matches no \
                                     indexed family in analysis/streams.toml — register \
                                     `{}` with kind = \"indexed\"",
                                    prefix.trim_end_matches('.')
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Registry-side checks: stale entries and undocumented reuse.
    for (ei, entry) in registry.entries.iter().enumerate() {
        let sites_for = use_counts.get(&ei).map_or(&[][..], |v| &v[..]);
        if sites_for.is_empty() {
            diags.push(Diagnostic::new(
                Lint::StreamRegistry,
                "analysis/streams.toml",
                entry.line,
                1,
                format!(
                    "stale registry entry `{}` — no call site uses it; remove it or fix the \
                     call sites",
                    entry.name
                ),
            ));
        } else if sites_for.len() > 1
            && entry.kind == StreamKind::Exact
            && entry.note.trim().is_empty()
        {
            diags.push(Diagnostic::new(
                Lint::StreamRegistry,
                "analysis/streams.toml",
                entry.line,
                1,
                format!(
                    "stream `{}` has {} call sites but no `note` — document why the shared \
                     draw sequence is intentional (or rename one site)",
                    entry.name,
                    sites_for.len()
                ),
            ));
        }
    }
}

fn check_subsystem(
    site: &Site,
    entry: &crate::config::StreamEntry,
    suppressed: bool,
    diags: &mut Vec<Diagnostic>,
) {
    if entry.subsystem != site.subsystem && !entry.shared && !suppressed {
        diags.push(Diagnostic::new(
            Lint::StreamRegistry,
            site.file.clone(),
            site.line,
            site.col,
            format!(
                "stream `{}` is owned by subsystem `{}` but used from `{}` — the two sites \
                 would draw from one correlated stream; mark the entry `shared = true` with a \
                 note if that is intentional",
                entry.name, entry.subsystem, site.subsystem
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minitoml::Document;
    use std::path::PathBuf;

    fn registry(toml: &str) -> StreamRegistry {
        let mut diags = Vec::new();
        let reg = StreamRegistry::parse(
            &Document::parse(toml).unwrap(),
            std::path::Path::new("analysis/streams.toml"),
            &mut diags,
        );
        assert!(diags.is_empty(), "{diags:?}");
        reg
    }

    fn run_one(src: &str, subsystem: &str, toml: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let sf = SourceFile::new(PathBuf::from("crates/x/src/lib.rs"), src, &mut diags);
        let sites = extract(&sf, subsystem);
        let mut files = BTreeMap::new();
        files.insert(sf.rel.clone(), &sf);
        check(&sites, &registry(toml), &files, &mut diags);
        diags
    }

    const REG: &str = r#"
[[stream]]
name = "sys.net"
subsystem = "sys"

[[stream]]
name = "sys.fail"
kind = "indexed"
subsystem = "sys"
"#;

    #[test]
    fn registered_names_are_clean() {
        let src = r#"
            let a = rng.stream("sys.net");
            let b = rng.stream_indexed("sys.fail", i);
            let c = rng.stream(&format!("sys.fail.{i}"));
        "#;
        assert!(run_one(src, "sys", REG).is_empty());
    }

    #[test]
    fn unregistered_exact_indexed_and_format_names_fire() {
        for (src, what) in [
            (r#"rng.stream("nope");"#, "unregistered stream name `nope`"),
            (
                r#"rng.stream_indexed("nope", i);"#,
                "unregistered indexed stream family",
            ),
            (
                r#"rng.stream(&format!("nope.{i}"));"#,
                "matches no indexed family",
            ),
        ] {
            let diags: Vec<_> = run_one(src, "sys", REG)
                .into_iter()
                .filter(|d| !d.message.contains("stale registry entry"))
                .collect();
            assert_eq!(diags.len(), 1, "{src}: {diags:?}");
            assert!(diags[0].message.contains(what), "{src}: {diags:?}");
        }
    }

    #[test]
    fn literal_shadowing_an_indexed_family_fires() {
        let diags: Vec<_> = run_one(r#"rng.stream("sys.fail.3");"#, "sys", REG)
            .into_iter()
            .filter(|d| !d.message.contains("stale registry entry"))
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("shadows the indexed family"));
        // …but allow_literal documents it away.
        let reg = r#"
[[stream]]
name = "sys.fail"
kind = "indexed"
subsystem = "sys"
allow_literal = ["sys.fail.3"]
"#;
        assert!(run_one(r#"rng.stream("sys.fail.3");"#, "sys", reg).is_empty());
    }

    #[test]
    fn cross_subsystem_use_fires_unless_shared() {
        let diags = run_one(
            r#"rng.stream("sys.net"); rng.stream_indexed("sys.fail", i);"#,
            "other",
            REG,
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("owned by subsystem `sys`"));
        let shared = r#"
[[stream]]
name = "sys.net"
subsystem = "sys"
shared = true
note = "common random numbers across subsystems, by design"
"#;
        assert!(run_one(r#"rng.stream("sys.net");"#, "other", shared).is_empty());
    }

    #[test]
    fn dynamic_sites_need_an_annotation() {
        let diags = run_one("rng.stream(name);", "sys", REG);
        assert!(diags
            .iter()
            .any(|d| d.message.contains("built dynamically")));
        let ok = r#"
            // sda-lint: allow(stream-registry, reason = "joins label+index; every caller is checked")
            rng.stream(name);
        "#;
        let diags = run_one(ok, "sys", REG);
        assert!(
            diags
                .iter()
                .all(|d| !d.message.contains("built dynamically")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_entries_and_undocumented_reuse_fire() {
        let diags = run_one(
            r#"rng.stream("sys.net"); rng.stream("sys.net");"#,
            "sys",
            REG,
        );
        // sys.net reused without note + sys.fail stale.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("no `note`")));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("stale registry entry `sys.fail`")));
    }

    #[test]
    fn fn_definitions_and_plain_calls_are_not_sites() {
        let src = r#"
            fn stream(seed: u64) -> Stream { RngFactory::new(seed).stream("sys.net") }
            let s = stream(1);
        "#;
        let mut diags = Vec::new();
        let sf = SourceFile::new(PathBuf::from("crates/x/src/lib.rs"), src, &mut diags);
        let sites = extract(&sf, "sys");
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].name, SiteName::Exact("sys.net".into()));
    }
}
