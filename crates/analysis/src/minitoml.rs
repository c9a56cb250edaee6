//! A minimal TOML-subset reader for the linter's config files.
//!
//! Supports exactly what `analysis/lints.toml`, `analysis/streams.toml`
//! and the `[workspace]` table of `Cargo.toml` need:
//!
//! * `[table]` and `[[array-of-tables]]` headers (dotted names allowed);
//! * `key = "string" | true | false | 123 | 1.5`;
//! * `key = [ …strings or inline tables… ]`, including multi-line arrays;
//! * inline tables `{ k = "v", … }` — string values are kept, other
//!   values (e.g. `features = ["derive"]` in a Cargo.toml dependency
//!   spec) are parsed and dropped;
//! * `#` comments and blank lines.
//!
//! Anything else is a hard error — config typos must fail loudly, not
//! silently relax a lint.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// Any number (integers are represented exactly up to 2^53).
    Num(f64),
    /// An array of values.
    Array(Vec<Value>),
    /// An inline table (string keys, string values only).
    Table(BTreeMap<String, String>),
}

/// A parse error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending text.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// One `[header]` section (or the implicit root section).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// The header name (`""` for the root section before any header).
    pub name: String,
    /// 1-based line of the header (0 for the root section).
    pub line: u32,
    /// Key → value pairs, in file order.
    pub entries: Vec<(String, Value)>,
}

impl Section {
    /// Looks up a key's value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a string value by key.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Looks up a bool value by key (absent ⇒ `false`).
    pub fn get_bool(&self, key: &str) -> bool {
        matches!(self.get(key), Some(Value::Bool(true)))
    }

    /// Looks up an array of strings by key (absent ⇒ empty).
    pub fn get_str_array(&self, key: &str) -> Vec<String> {
        match self.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// A parsed document: the flat list of sections in file order.
///
/// `[[name]]` array-of-tables headers produce one [`Section`] per
/// occurrence, all sharing the same name — callers iterate and filter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// All sections, in file order; index 0 is the implicit root.
    pub sections: Vec<Section>,
}

impl Document {
    /// Parses `src`.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its line number.
    pub fn parse(src: &str) -> Result<Document, TomlError> {
        let mut sections = vec![Section::default()];
        let mut lines = src.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest.strip_suffix("]]").ok_or_else(|| TomlError {
                    line: lineno,
                    msg: "malformed [[header]]".into(),
                })?;
                sections.push(Section {
                    name: name.trim().to_string(),
                    line: lineno,
                    entries: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| TomlError {
                    line: lineno,
                    msg: "malformed [header]".into(),
                })?;
                sections.push(Section {
                    name: name.trim().to_string(),
                    line: lineno,
                    entries: Vec::new(),
                });
            } else {
                let eq = line.find('=').ok_or_else(|| TomlError {
                    line: lineno,
                    msg: format!("expected `key = value`, got `{line}`"),
                })?;
                let key = line[..eq].trim().to_string();
                let mut rhs = line[eq + 1..].trim().to_string();
                // Multi-line arrays: keep consuming lines until brackets
                // balance outside strings.
                while !balanced(&rhs) {
                    let (_, next) = lines.next().ok_or_else(|| TomlError {
                        line: lineno,
                        msg: format!("unterminated array for key `{key}`"),
                    })?;
                    rhs.push(' ');
                    rhs.push_str(strip_comment(next).trim());
                }
                let value = parse_value(rhs.trim(), lineno)?;
                sections
                    .last_mut()
                    .expect("root section always present")
                    .entries
                    .push((key, value));
            }
        }
        Ok(Document { sections })
    }

    /// All sections named `name` (for `[[array-of-tables]]`).
    pub fn sections_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Section> {
        let name = name.to_string();
        self.sections.iter().filter(move |s| s.name == name)
    }

    /// The first section named `name`, if any.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections_named(name).next()
    }
}

/// Removes a `#`-comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Whether brackets/braces balance outside string literals.
fn balanced(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in s.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    depth == 0 && !in_str
}

fn parse_value(s: &str, line: u32) -> Result<Value, TomlError> {
    if let Some(body) = s.strip_prefix('"') {
        let end = close_quote(body).ok_or_else(|| TomlError {
            line,
            msg: format!("unterminated string: {s}"),
        })?;
        if !body[end + 1..].trim().is_empty() {
            return Err(TomlError {
                line,
                msg: format!("trailing characters after string: {s}"),
            });
        }
        return Ok(Value::Str(unescape(&body[..end])));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if s.starts_with('[') {
        return parse_array(s, line);
    }
    if s.starts_with('{') {
        return parse_inline_table(s, line);
    }
    if let Ok(n) = s.replace('_', "").parse::<f64>() {
        return Ok(Value::Num(n));
    }
    Err(TomlError {
        line,
        msg: format!("unsupported value: `{s}`"),
    })
}

/// Index of the closing quote in `body` (which starts *after* `"`).
fn close_quote(body: &str) -> Option<usize> {
    let mut prev_backslash = false;
    for (i, c) in body.char_indices() {
        if c == '"' && !prev_backslash {
            return Some(i);
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    None
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Splits `s` at top-level commas (outside strings/brackets/braces).
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in s.chars() {
        match c {
            '"' if !prev_backslash => {
                in_str = !in_str;
                cur.push(c);
            }
            '[' | '{' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            ']' | '}' if !in_str => {
                depth -= 1;
                cur.push(c);
            }
            ',' if !in_str && depth == 0 => {
                parts.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

fn parse_array(s: &str, line: u32) -> Result<Value, TomlError> {
    let body = s
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or_else(|| TomlError {
            line,
            msg: format!("malformed array: {s}"),
        })?;
    let mut items = Vec::new();
    for part in split_top_level(body) {
        items.push(parse_value(&part, line)?);
    }
    Ok(Value::Array(items))
}

fn parse_inline_table(s: &str, line: u32) -> Result<Value, TomlError> {
    let body = s
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| TomlError {
            line,
            msg: format!("malformed inline table: {s}"),
        })?;
    let mut map = BTreeMap::new();
    for part in split_top_level(body) {
        let eq = part.find('=').ok_or_else(|| TomlError {
            line,
            msg: format!("expected `k = \"v\"` in inline table, got `{part}`"),
        })?;
        let key = part[..eq].trim().to_string();
        // Keep string values; anything else (arrays, bools — seen in
        // Cargo.toml dependency specs) must still parse but is dropped.
        if let Value::Str(v) = parse_value(part[eq + 1..].trim(), line)? {
            map.insert(key, v);
        }
    }
    Ok(Value::Table(map))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_inline_tables() {
        let doc = Document::parse(
            r#"
# top comment
[tiers]
checked = ["crates/core", "crates/sim"] # trailing
exempt = []

[[stream]]
name = "workload.pex"
kind = "exact"
shared = true

[[stream]]
name = "system.failure"

disallowed-types = [
    { path = "std::collections::HashMap", reason = "iteration order" },
    { path = "std::time::Instant", reason = "wall clock" },
]
"#,
        )
        .unwrap();
        let tiers = doc.section("tiers").unwrap();
        assert_eq!(
            tiers.get_str_array("checked"),
            vec!["crates/core".to_string(), "crates/sim".to_string()]
        );
        assert_eq!(tiers.get_str_array("exempt"), Vec::<String>::new());
        let streams: Vec<_> = doc.sections_named("stream").collect();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].get_str("name"), Some("workload.pex"));
        assert!(streams[0].get_bool("shared"));
        assert!(!streams[1].get_bool("shared"));
        match streams[1].get("disallowed-types") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), 2);
                match &items[0] {
                    Value::Table(t) => {
                        assert_eq!(
                            t.get("path").map(String::as_str),
                            Some("std::collections::HashMap")
                        );
                    }
                    other => panic!("expected inline table, got {other:?}"),
                }
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = Document::parse(r##"key = "a # b""##).unwrap();
        assert_eq!(doc.sections[0].get_str("key"), Some("a # b"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Document::parse("ok = true\nbroken").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Document::parse("x = nope").unwrap_err();
        assert!(err.msg.contains("unsupported value"));
    }

    #[test]
    fn multiline_array_with_comments() {
        let doc = Document::parse("xs = [\n  \"a\", # one\n  \"b\",\n]\n").unwrap();
        assert_eq!(
            doc.sections[0].get_str_array("xs"),
            vec!["a".to_string(), "b".to_string()]
        );
    }
}
