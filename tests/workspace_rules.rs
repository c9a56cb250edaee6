//! Workspace rules that no compiler or clippy lint checks, enforced on
//! the source text so a violation fails the moment it is written rather
//! than whenever a golden fingerprint happens to flip.
//!
//! * **Stream registry.** A stream is a pure function of
//!   `(master seed, label)`, so two call sites that spell the same label
//!   draw *correlated* randomness, which silently breaks the
//!   independence the replication confidence intervals assume. Every
//!   `stream(…)`/`stream_indexed(…)` call site must match an entry of
//!   [`REGISTRY`], used only from its owning crate.
//! * **Crate headers.** Every crate root carries
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`.
//! * **Config-enum coverage.** Every variant of the public config enums
//!   in [`CONFIG_ENUMS`] is named as `Enum::Variant` by a test under
//!   `tests/`, so a new variant cannot land unpinned.
//! * **Narrow surface.** rustc's `dead_code` lint skips `pub` items, so
//!   every `pub fn` in a library crate under `crates/` (the experiment
//!   harness aside) must be named by some file outside that library, or
//!   be on [`PUB_FN_ALLOWLIST`] with its reason. Anything else is
//!   `pub(crate)`, where the compiler reports it once nothing calls it.
//!
//! The scan covers `src/`, `tests/` and `examples/` of the root package
//! and of every workspace member outside `crates/compat/` (the offline
//! dependency stand-ins); the surface rule also counts the names in
//! `sdabench/src`, which builds against the crates. Text after `//` is
//! skipped, and so is this file: its samples violate the rules on
//! purpose.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One registered RNG stream label.
#[derive(Clone, Copy)]
struct Stream {
    /// The label; for an indexed family, the prefix of `name.{i}`.
    name: &'static str,
    /// Whether this is a `stream_indexed(name, i)` family.
    indexed: bool,
    /// The crate that owns the label: its directory name, or `sda` for
    /// the root package.
    owner: &'static str,
    /// Why an exact label with more than one call site shares its draws
    /// on purpose; empty for a label with one site.
    note: &'static str,
}

const fn exact(name: &'static str, owner: &'static str, note: &'static str) -> Stream {
    Stream {
        name,
        indexed: false,
        owner,
        note,
    }
}

const fn family(name: &'static str, owner: &'static str) -> Stream {
    Stream {
        name,
        indexed: true,
        owner,
        note: "",
    }
}

/// Every named RNG stream in the workspace.
///
/// `crates/service` (the live runtime) names no streams of its own: its
/// two submitter threads each build a `TaskFactory` from
/// `RngFactory::new(seed)`, as `run_once` does, and draw only their own
/// class's workload streams (the local submitter the local ones, the
/// global submitter the global ones); its `SystemModel` draws the
/// `system` streams from the same factory.
const REGISTRY: &[Stream] = &[
    // Runtime streams: these feed simulation results. `sim` provides
    // the `RngFactory` mechanism; the consuming crates name the streams.
    family("workload.local.arrival", "workload"),
    exact("workload.local.service", "workload", ""),
    exact("workload.local.slack", "workload", ""),
    exact("workload.global.arrival", "workload", ""),
    exact("workload.global.service", "workload", ""),
    exact("workload.global.slack", "workload", ""),
    exact("workload.node_pick", "workload", ""),
    exact("workload.pex", "workload", ""),
    exact("workload.shape", "workload", ""),
    exact("system.network", "system", ""),
    family("system.failure", "system"),
    // Test streams: drawn only inside tests.
    exact(
        "a",
        "sim",
        "the determinism unit test derives the same stream twice to pin stream(label) == stream(label)",
    ),
    exact("b", "sim", ""),
    exact(
        "s",
        "sim",
        "the seed-sensitivity test draws the same label from two factories with different master seeds",
    ),
    exact(
        "x",
        "sim",
        "the subfactory test pins that one label under different subfactory indices yields independent streams",
    ),
    family("node", "sim"),
    exact("u", "sim", ""),
    exact("mean", "sim", ""),
    exact("dist-tests", "sim", ""),
    exact("support", "sim", ""),
    family("lbl", "sim"),
    family("case", "sim"),
    exact(
        "pex",
        "workload",
        "four PEX unit tests each draw the label fresh from an isolated factory",
    ),
    exact("svc", "workload", ""),
    exact("arrivals-test", "workload", ""),
    exact(
        "arrival-props",
        "workload",
        "a property test draws the label from two fresh factories to compare arrival processes",
    ),
    exact("net-test", "system", ""),
    exact("net-prop", "system", ""),
    exact("net-prop-b", "system", ""),
    exact("net-scalar", "system", ""),
    exact("facade", "sda", ""),
];

/// The public config enums whose variants must be named by a test, each
/// with its declaring file.
const CONFIG_ENUMS: &[(&str, &str)] = &[
    ("NetworkModel", "crates/system/src/config.rs"),
    ("OverloadPolicy", "crates/system/src/config.rs"),
    ("FailureModel", "crates/system/src/failure.rs"),
    ("ArrivalProcess", "crates/workload/src/arrivals.rs"),
    ("GlobalShape", "crates/workload/src/shape.rs"),
];

/// `pub fn`s that no file outside their library names, as `(crate
/// directory, name, why it stays public)`.
const PUB_FN_ALLOWLIST: &[(&str, &str, &str)] = &[];

/// This file, skipped by every scan.
const THIS_FILE: &str = "tests/workspace_rules.rs";

/// How a call site names its stream.
#[derive(Debug)]
enum Label {
    /// `stream("label")`.
    Exact(String),
    /// `stream_indexed("family", i)`.
    Family(String),
    /// Anything else, including a call whose argument is on a later line.
    Unreadable(String),
}

/// One stream call site.
struct Site {
    file: String,
    line: usize,
    owner: String,
    label: Label,
}

/// The code of `line`: the text before any `//` comment.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or_default()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The stream call sites of `text`, a file of crate `owner`.
fn call_sites(file: &str, owner: &str, text: &str) -> Vec<Site> {
    const CALLS: [(&str, bool); 4] = [
        (".stream(", false),
        ("::stream(", false),
        (".stream_indexed(", true),
        ("::stream_indexed(", true),
    ];
    let mut sites = Vec::new();
    for (n, line) in text.lines().map(code).enumerate() {
        for (call, indexed) in CALLS {
            for (at, _) in line.match_indices(call) {
                sites.push(Site {
                    file: file.to_string(),
                    line: n + 1,
                    owner: owner.to_string(),
                    label: read_label(line[at + call.len()..].trim(), indexed),
                });
            }
        }
    }
    sites
}

/// Reads the first argument of a stream call from the rest of its line.
fn read_label(arg: &str, indexed: bool) -> Label {
    let name = arg
        .strip_prefix('"')
        .and_then(|s| s.find('"').map(|end| s[..end].to_string()));
    match name {
        Some(name) if indexed => Label::Family(name),
        Some(name) => Label::Exact(name),
        None => Label::Unreadable(arg.to_string()),
    }
}

/// Checks call sites against a registry; one message per violation.
fn check_streams(sites: &[Site], registry: &[Stream]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut uses = vec![0usize; registry.len()];
    for site in sites {
        let at = format!("{}:{}", site.file, site.line);
        let entry = match &site.label {
            Label::Exact(name) => {
                let shadowed = registry.iter().position(|e| {
                    e.indexed
                        && name
                            .strip_prefix(e.name)
                            .and_then(|rest| rest.strip_prefix('.'))
                            .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
                });
                if let Some(f) = shadowed {
                    errors.push(format!(
                        "{at}: literal `{name}` shadows the indexed family `{}.{{i}}`",
                        registry[f].name
                    ));
                    continue;
                }
                registry.iter().position(|e| !e.indexed && e.name == name)
            }
            Label::Family(name) => registry.iter().position(|e| e.indexed && e.name == name),
            Label::Unreadable(arg) => {
                errors.push(format!(
                    "{at}: unreadable stream label `{arg}`; pass a literal on the line of \
                     the call, or `stream_indexed(\"family\", i)` for a per-entity stream"
                ));
                continue;
            }
        };
        let Some(i) = entry else {
            errors.push(format!(
                "{at}: unregistered stream {:?}; add it to REGISTRY",
                site.label
            ));
            continue;
        };
        uses[i] += 1;
        if registry[i].owner != site.owner {
            errors.push(format!(
                "{at}: stream `{}` is owned by `{}` but used from `{}`",
                registry[i].name, registry[i].owner, site.owner
            ));
        }
    }
    for (entry, &n) in registry.iter().zip(&uses) {
        if n == 0 {
            errors.push(format!(
                "stale registry entry `{}`: no call site",
                entry.name
            ));
        } else if n > 1 && !entry.indexed && entry.note.is_empty() {
            errors.push(format!(
                "stream `{}` has {n} call sites but no note saying why they share draws",
                entry.name
            ));
        }
    }
    errors
}

/// The missing lint headers of a crate root.
fn check_header(file: &str, text: &str) -> Vec<String> {
    ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"]
        .into_iter()
        .filter(|attr| !text.lines().any(|l| l.trim() == *attr))
        .map(|attr| format!("{file}: crate root lacks the line `{attr}`"))
        .collect()
}

/// The variants of `pub enum <name>` in `text`, read with a brace-depth
/// line scan; `None` if the enum is not declared there.
fn variants(text: &str, name: &str) -> Option<Vec<String>> {
    let decl = format!("pub enum {name}");
    let mut lines = text.lines().skip_while(|l| {
        let rest = l.trim_start().strip_prefix(&decl);
        rest.is_none_or(|r| r.starts_with(is_ident))
    });
    let depth_change = |code: &str| {
        code.chars()
            .map(|c| match c {
                '{' | '(' | '[' => 1,
                '}' | ')' | ']' => -1,
                _ => 0,
            })
            .sum::<i32>()
    };
    let mut depth = depth_change(lines.next()?);
    let mut found = Vec::new();
    for line in lines {
        if depth <= 0 {
            break;
        }
        let code = code(line).trim();
        let ident: String = code.chars().take_while(|&c| is_ident(c)).collect();
        if depth == 1 && !ident.is_empty() {
            found.push(ident);
        }
        depth += depth_change(code);
    }
    Some(found)
}

/// Whether the code of `text` names `path` as a whole path.
fn names(text: &str, path: &str) -> bool {
    text.lines().map(code).any(|line| {
        line.match_indices(path).any(|(at, _)| {
            !line[..at].ends_with(is_ident) && !line[at + path.len()..].starts_with(is_ident)
        })
    })
}

/// The variants of `enum_name` that no text names as `Enum::Variant`.
fn unnamed(enum_name: &str, variants: &[String], tests: &[String]) -> Vec<String> {
    variants
        .iter()
        .map(|v| format!("{enum_name}::{v}"))
        .filter(|path| !tests.iter().any(|t| names(t, path)))
        .collect()
}

/// A `pub fn` declared in a library crate.
struct PubFn {
    at: String,
    krate: String,
    name: String,
}

/// The `pub fn` (and `pub const fn`) declarations in the code of `text`,
/// a file of the library of crate `krate`.
fn pub_fns(file: &str, krate: &str, text: &str) -> Vec<PubFn> {
    text.lines()
        .map(code)
        .enumerate()
        .filter_map(|(n, line)| {
            let decl = line.trim_start().strip_prefix("pub ")?;
            let rest = decl
                .strip_prefix("fn ")
                .or(decl.strip_prefix("const fn "))?;
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            (!name.is_empty()).then(|| PubFn {
                at: format!("{file}:{}", n + 1),
                krate: krate.to_string(),
                name,
            })
        })
        .collect()
}

/// The identifiers in the code of `text`.
fn identifiers(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(code)
        .flat_map(|line| line.split(|c: char| !is_ident(c)))
        .map(str::to_string)
        .collect()
}

/// Checks `fns` against the names `users` use: each user is a file's
/// identifiers with the crate whose library holds the file (`None`
/// outside every library). One message per `pub fn` that no file outside
/// its own library names and `allow` does not excuse, and per `allow`
/// entry that excuses nothing or gives no reason.
fn check_pub_fns(
    fns: &[PubFn],
    users: &[(Option<String>, BTreeSet<String>)],
    allow: &[(&str, &str, &str)],
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut excused = vec![false; allow.len()];
    for f in fns {
        let named = users.iter().any(|(owner, ids)| {
            owner.as_deref() != Some(f.krate.as_str()) && ids.contains(&f.name)
        });
        if named {
            continue;
        }
        match allow
            .iter()
            .position(|&(krate, name, _)| krate == f.krate && name == f.name)
        {
            Some(i) => excused[i] = true,
            None => errors.push(format!(
                "{}: `pub fn {}` is named by no file outside crate `{}`; make it \
                 pub(crate), or add it to PUB_FN_ALLOWLIST with a reason",
                f.at, f.name, f.krate
            )),
        }
    }
    for (&(krate, name, why), excused) in allow.iter().zip(excused) {
        if !excused {
            errors.push(format!(
                "stale allowlist entry `{krate}::{name}`: no unreferenced `pub fn` of that name"
            ));
        } else if why.is_empty() {
            errors.push(format!("allowlist entry `{krate}::{name}` gives no reason"));
        }
    }
    errors
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &Path) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{}: {e}", rel.display()))
}

/// The checked packages as `(owner label, directory)`: the root package
/// and every workspace member outside `crates/compat/`.
fn packages() -> Vec<(String, PathBuf)> {
    let manifest = read(Path::new("Cargo.toml"));
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("the root Cargo.toml lists workspace members")
        .0;
    let members = list.split('"').skip(1).step_by(2);
    let mut packages = vec![("sda".to_string(), PathBuf::new())];
    for member in members.filter(|m| !m.starts_with("crates/compat/")) {
        let label = member.rsplit('/').next().unwrap_or(member);
        packages.push((label.to_string(), PathBuf::from(member)));
    }
    packages
}

/// The `.rs` files under `dir` (root-relative), sorted, without this file.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let Ok(entries) = fs::read_dir(root().join(&d)) else {
            continue;
        };
        for entry in entries {
            let path = d.join(entry.expect("readable directory entry").file_name());
            if root().join(&path).is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") && path != Path::new(THIS_FILE) {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn every_stream_call_site_matches_the_registry() {
    let mut sites = Vec::new();
    for (owner, dir) in packages() {
        for sub in ["src", "tests", "examples"] {
            for file in rust_files(&dir.join(sub)) {
                sites.extend(call_sites(
                    &file.display().to_string(),
                    &owner,
                    &read(&file),
                ));
            }
        }
    }
    let errors = check_streams(&sites, REGISTRY);
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(sites.len() >= 40, "only {} call sites found", sites.len());
    assert!(REGISTRY.len() >= 30);
}

#[test]
fn every_pub_fn_is_named_outside_its_crate_or_allowlisted() {
    let mut fns = Vec::new();
    let mut users = Vec::new();
    for (label, dir) in packages() {
        let bins = dir.join("src/bin");
        for sub in ["src", "tests", "examples"] {
            for file in rust_files(&dir.join(sub)) {
                let text = read(&file);
                let in_lib = sub == "src" && !file.starts_with(&bins);
                if in_lib && dir.starts_with("crates") && label != "experiments" {
                    fns.extend(pub_fns(&file.display().to_string(), &label, &text));
                }
                users.push((in_lib.then(|| label.clone()), identifiers(&text)));
            }
        }
    }
    for file in rust_files(Path::new("sdabench/src")) {
        users.push((None, identifiers(&read(&file))));
    }
    let errors = check_pub_fns(&fns, &users, PUB_FN_ALLOWLIST);
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(fns.len() >= 250, "only {} pub fns found", fns.len());
}

#[test]
fn every_crate_root_forbids_unsafe_and_denies_missing_docs() {
    let mut errors = Vec::new();
    let mut roots = 0;
    for (owner, dir) in packages() {
        let Some(file) = ["src/lib.rs", "src/main.rs"]
            .into_iter()
            .map(|f| dir.join(f))
            .find(|f| root().join(f).is_file())
        else {
            errors.push(format!("`{owner}` has no src/lib.rs or src/main.rs"));
            continue;
        };
        roots += 1;
        errors.extend(check_header(&file.display().to_string(), &read(&file)));
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(roots >= 9, "only {roots} crate roots checked");
}

#[test]
fn every_config_enum_variant_is_named_by_a_test() {
    let tests: Vec<String> = rust_files(Path::new("tests"))
        .iter()
        .map(|f| read(f))
        .collect();
    let mut errors = Vec::new();
    let mut checked = 0;
    for &(name, file) in CONFIG_ENUMS {
        match variants(&read(Path::new(file)), name) {
            Some(found) if !found.is_empty() => {
                checked += found.len();
                for path in unnamed(name, &found, &tests) {
                    errors.push(format!("{path} ({file}) is named by no test under tests/"));
                }
            }
            _ => errors.push(format!("{file} declares no variants of `pub enum {name}`")),
        }
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(checked >= 17, "only {checked} variants checked");
}

/// A registry for the in-memory samples.
const SAMPLE_REGISTRY: &[Stream] = &[
    exact("sys.net", "sys", ""),
    exact("sys.twice", "sys", "shared on purpose"),
    family("sys.fail", "sys"),
];

/// Uses every sample entry, within every rule.
const CLEAN_SAMPLE: &str = r#"
    let a = rng.stream("sys.net");
    let b = RngFactory::new(1).stream("sys.twice");
    let c = rng.stream("sys.twice");
    let d = rng.stream_indexed("sys.fail", i);
    // rng.stream("commented.out");
    let e = 1; // rng.stream("trailing.comment");
    fn stream(seed: u64) -> Stream { stream(seed) }
"#;

#[test]
fn stream_rules_fire_on_violating_samples() {
    let clean = call_sites("sample.rs", "sys", CLEAN_SAMPLE);
    assert_eq!(clean.len(), 4);
    assert_eq!(check_streams(&clean, SAMPLE_REGISTRY), Vec::<String>::new());

    let cases = [
        ("sys", r#"rng.stream("nope");"#, "unregistered stream Exact"),
        (
            "sys",
            r#"rng.stream_indexed("nope", i);"#,
            "unregistered stream Family",
        ),
        (
            "other",
            r#"rng.stream_indexed("sys.fail", 2);"#,
            "owned by `sys` but used from `other`",
        ),
        (
            "sys",
            r#"rng.stream("sys.net");"#,
            "2 call sites but no note",
        ),
        (
            "sys",
            r#"rng.stream("sys.fail.7");"#,
            "shadows the indexed family `sys.fail.{i}`",
        ),
        (
            "sys",
            "rng.stream(label);",
            "unreadable stream label `label);`",
        ),
        (
            "sys",
            "rng.stream(\n    \"sys.net\",\n);",
            "unreadable stream label ``",
        ),
        (
            "sys",
            r#"rng.stream(&format!("sys.fail.{i}"));"#,
            "unreadable",
        ),
    ];
    for (owner, text, expected) in cases {
        let mut sites = call_sites("sample.rs", "sys", CLEAN_SAMPLE);
        sites.extend(call_sites("sample.rs", owner, text));
        let errors = check_streams(&sites, SAMPLE_REGISTRY);
        assert_eq!(errors.len(), 1, "{text}: {errors:?}");
        assert!(errors[0].contains(expected), "{text}: {errors:?}");
    }

    let mut registry = SAMPLE_REGISTRY.to_vec();
    registry.push(exact("sys.retired", "sys", ""));
    assert_eq!(
        check_streams(&clean, &registry),
        ["stale registry entry `sys.retired`: no call site"]
    );
}

#[test]
fn header_rule_fires_on_a_missing_or_weakened_attribute() {
    let ok = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
    assert!(check_header("lib.rs", ok).is_empty());
    for (text, missing) in [
        ("#![deny(missing_docs)]\n", "#![forbid(unsafe_code)]"),
        (
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
            "#![deny(missing_docs)]",
        ),
        (
            "#![forbid(unsafe_code)]\n// #![deny(missing_docs)]\n",
            "#![deny(missing_docs)]",
        ),
    ] {
        let errors = check_header("lib.rs", text);
        assert_eq!(errors.len(), 1, "{text}: {errors:?}");
        assert!(errors[0].contains(missing), "{text}: {errors:?}");
    }
}

const SAMPLE_ENUM: &str = r#"
enum Net { Private }

/// Docs with an unbalanced brace {.
#[derive(Debug, Clone, Default)]
pub enum Net {
    /// Free (no delay.
    #[default]
    Zero,
    /// Fixed.
    Constant { delay: f64 },
    Pair(f64, f64), // a tuple (
    #[allow(
        dead_code
    )]
    Matrix {
        /// Per-pair delays.
        delays: Vec<Vec<f64>>,
    },
    Split(
        f64,
        f64,
    ),
}

pub enum NetTwo {
    Other,
}
"#;

#[test]
fn variant_scan_reads_unit_tuple_and_struct_variants() {
    let found = variants(SAMPLE_ENUM, "Net").expect("declared");
    assert_eq!(found, ["Zero", "Constant", "Pair", "Matrix", "Split"]);
    assert_eq!(
        variants(SAMPLE_ENUM, "NetTwo").expect("declared"),
        ["Other"]
    );
    assert_eq!(variants(SAMPLE_ENUM, "Missing"), None);
    assert_eq!(variants("enum Net {\n    A,\n}\n", "Net"), None);
}

#[test]
fn coverage_rule_fires_on_an_unnamed_variant() {
    let found = variants(SAMPLE_ENUM, "Net").expect("declared");
    let tests = [
        "let z = Net::Zero;\nlet c = Net::Constant { delay: 1.0 };".to_string(),
        "// Net::Pair(1.0, 2.0)\nlet m = Net::Matrixx; // Net::Matrix\nlet s = SubNet::Split(1.0, 2.0);"
            .to_string(),
    ];
    assert_eq!(
        unnamed("Net", &found, &tests),
        ["Net::Pair", "Net::Matrix", "Net::Split"]
    );
}

const SAMPLE_LIB: &str = r#"
pub fn used_outside() {}
pub fn excused() {}
pub fn unused() {}
    pub const fn unused_method(&self) {}
pub(crate) fn narrowed() {}
// pub fn commented_out() {}
fn private() { used_outside(); unused(); }
"#;

#[test]
fn surface_rule_fires_on_an_unreferenced_pub_fn() {
    let fns = pub_fns("lib.rs", "lib", SAMPLE_LIB);
    let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        ["used_outside", "excused", "unused", "unused_method"]
    );
    let users = [
        (Some("lib".to_string()), identifiers(SAMPLE_LIB)),
        (
            None,
            identifiers("lib::used_outside(); // lib::unused();\nlet s = \"unused_method_x\";"),
        ),
        (
            Some("other".to_string()),
            identifiers("let excused_too = 1;"),
        ),
    ];
    let allow = [("lib", "excused", "kept for a reason")];
    assert_eq!(
        check_pub_fns(&fns, &users, &allow),
        [
            "lib.rs:4: `pub fn unused` is named by no file outside crate `lib`; make it \
             pub(crate), or add it to PUB_FN_ALLOWLIST with a reason",
            "lib.rs:5: `pub fn unused_method` is named by no file outside crate `lib`; make it \
             pub(crate), or add it to PUB_FN_ALLOWLIST with a reason",
        ]
    );

    // Another library's mention counts as outside; an entry that excuses
    // nothing, or gives no reason, does not pass.
    let users = [
        (None, identifiers("unused(); x.unused_method();")),
        (Some("other".to_string()), identifiers("excused();")),
    ];
    let allow = [
        ("lib", "excused", "kept for a reason"),
        ("lib", "used_outside", ""),
    ];
    assert_eq!(
        check_pub_fns(&fns, &users, &allow),
        [
            "stale allowlist entry `lib::excused`: no unreferenced `pub fn` of that name",
            "allowlist entry `lib::used_outside` gives no reason",
        ]
    );
}
