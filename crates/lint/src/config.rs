//! `lint.toml` / `lint-schema.toml` parsing.
//!
//! The parser covers exactly the TOML subset the two committed files
//! use — comments, `[table]` headers, `[[array-of-table]]` headers, and
//! `key = "string"` / `key = ["string", ...]` pairs — so the lint stays
//! std-only. Anything outside that subset is a hard parse error rather
//! than a silent skip: a config the tool cannot read must never pass.

use std::collections::BTreeMap;

/// How a finding affects the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the run.
    Warn,
    /// Fails the run.
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "warn" => Ok(Severity::Warn),
            "error" => Ok(Severity::Error),
            other => Err(format!(
                "unknown severity {other:?} (use \"warn\" or \"error\")"
            )),
        }
    }
}

/// One `[[allow]]` entry from `lint.toml`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry suppresses (e.g. `determinism/wall-clock`).
    pub rule: String,
    /// Root-relative path the entry applies to.
    pub path: String,
    /// Required human justification.
    pub reason: String,
    /// Ordinal of the entry in the file, for unused-allow reporting.
    pub index: usize,
}

/// Parsed `lint.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// Per-rule severity overrides from `[severity]`.
    pub severity: BTreeMap<String, Severity>,
    /// Path-level allowlist entries from `[[allow]]` tables.
    pub allows: Vec<AllowEntry>,
}

impl Config {
    /// Parses `lint.toml` text. `origin` names the file in errors.
    pub fn parse(text: &str, origin: &str) -> Result<Config, String> {
        let doc = Document::parse(text, origin)?;
        let mut config = Config::default();
        for (line, section, key, value) in &doc.pairs {
            match (section.as_str(), key.as_str()) {
                ("severity", rule) => {
                    let sev = value
                        .as_str()
                        .ok_or_else(|| doc.err(*line, "severity value must be a string"))
                        .and_then(|s| Severity::parse(s).map_err(|e| doc.err(*line, &e)))?;
                    config.severity.insert(rule.to_string(), sev);
                }
                ("", k) => {
                    return Err(doc.err(*line, &format!("unexpected top-level key {k:?}")));
                }
                (s, _) if s == "allow" || s.starts_with("allow#") => {
                    // handled below from doc.tables
                }
                (s, k) => {
                    return Err(doc.err(*line, &format!("unexpected key {k:?} in section [{s}]")));
                }
            }
        }
        for (index, (line, table)) in doc.array_tables("allow").into_iter().enumerate() {
            let get = |key: &str| -> Result<String, String> {
                table
                    .get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        doc.err(line, &format!("[[allow]] entry missing string key {key:?}"))
                    })
            };
            let entry = AllowEntry {
                rule: get("rule")?,
                path: get("path")?,
                reason: get("reason")?,
                index,
            };
            if entry.reason.trim().is_empty() {
                return Err(doc.err(line, "[[allow]] reason must not be empty"));
            }
            config.allows.push(entry);
        }
        Ok(config)
    }

    /// Whether an allowlist entry covers `(rule, path)`; marks it used.
    pub fn allow_matches(&self, used: &mut [bool], rule: &str, path: &str) -> bool {
        let mut hit = false;
        for entry in &self.allows {
            if entry.rule == rule && entry.path == path {
                used[entry.index] = true;
                hit = true;
            }
        }
        hit
    }
}

/// One frozen-struct record from `lint-schema.toml`.
#[derive(Debug, Clone)]
pub struct FrozenStruct {
    pub name: String,
    /// Root-relative path of the defining file.
    pub path: String,
    /// Field names in declaration order.
    pub fields: Vec<String>,
}

/// Parsed `lint-schema.toml` (the generated schema baseline).
#[derive(Debug, Default)]
pub struct SchemaBaseline {
    pub structs: Vec<FrozenStruct>,
}

impl SchemaBaseline {
    pub fn parse(text: &str, origin: &str) -> Result<SchemaBaseline, String> {
        let doc = Document::parse(text, origin)?;
        let mut out = SchemaBaseline::default();
        for (line, table) in doc.array_tables("struct") {
            let get_str = |key: &str| -> Result<String, String> {
                table
                    .get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        doc.err(
                            line,
                            &format!("[[struct]] entry missing string key {key:?}"),
                        )
                    })
            };
            let fields = table
                .get("fields")
                .and_then(Value::as_array)
                .ok_or_else(|| doc.err(line, "[[struct]] entry missing array key \"fields\""))?;
            out.structs.push(FrozenStruct {
                name: get_str("name")?,
                path: get_str("path")?,
                fields: fields.to_vec(),
            });
        }
        Ok(out)
    }

    /// Renders the baseline back to canonical TOML (what `--fix-baseline`
    /// writes). Struct order is preserved from the caller, which sorts.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# lint-schema.toml — generated baseline of record fields.\n\
             # Regenerate with `fhdnn lint --fix-baseline` after an\n\
             # intentional schema change; review the diff in the PR.\n",
        );
        for s in &self.structs {
            out.push_str("\n[[struct]]\n");
            out.push_str(&format!("name = \"{}\"\n", s.name));
            out.push_str(&format!("path = \"{}\"\n", s.path));
            out.push_str("fields = [");
            for (i, f) in s.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{f}\""));
            }
            out.push_str("]\n");
        }
        out
    }
}

/// A parsed value: this subset only has strings and string arrays.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Array(Vec<String>),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Array(_) => None,
        }
    }

    fn as_array(&self) -> Option<&[String]> {
        match self {
            Value::Array(a) => Some(a),
            Value::Str(_) => None,
        }
    }
}

/// Low-level parsed document: pairs tagged with their section. Array
/// tables get uniquified section names `name#0`, `name#1`, … so
/// repeated `[[allow]]` headers keep their entries separate.
struct Document {
    origin: String,
    /// (line, section, key, value) in file order.
    pairs: Vec<(usize, String, String, Value)>,
    /// (section-name, header line) for each `[[name]]` header, in order.
    array_headers: Vec<(String, usize)>,
}

impl Document {
    fn parse(text: &str, origin: &str) -> Result<Document, String> {
        let mut doc = Document {
            origin: origin.to_string(),
            pairs: Vec::new(),
            array_headers: Vec::new(),
        };
        let mut section = String::new();
        let mut counters: BTreeMap<String, usize> = BTreeMap::new();
        for (i, raw_line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_line_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                let name = name.trim();
                let n = counters.entry(name.to_string()).or_insert(0);
                section = format!("{name}#{n}");
                *n += 1;
                doc.array_headers.push((section.clone(), line_no));
            } else if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
            } else if let Some(eq) = line.find('=') {
                let key = line[..eq].trim().trim_matches('"').to_string();
                let value = parse_value(line[eq + 1..].trim()).map_err(|e| doc.err(line_no, &e))?;
                doc.pairs.push((line_no, section.clone(), key, value));
            } else {
                return Err(doc.err(line_no, &format!("cannot parse line {line:?}")));
            }
        }
        Ok(doc)
    }

    fn err(&self, line: usize, msg: &str) -> String {
        format!("{}:{line}: {msg}", self.origin)
    }

    /// All `[[name]]` tables in file order, each as (header line, map).
    fn array_tables(&self, name: &str) -> Vec<(usize, BTreeMap<String, Value>)> {
        let prefix = format!("{name}#");
        self.array_headers
            .iter()
            .filter(|(s, _)| s.starts_with(&prefix))
            .map(|(section, line)| {
                let map = self
                    .pairs
                    .iter()
                    .filter(|(_, s, _, _)| s == section)
                    .map(|(_, _, k, v)| (k.clone(), v.clone()))
                    .collect();
                (*line, map)
            })
            .collect()
    }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parses a value: `"string"` or `["a", "b"]`.
fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(inner) = text.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::Array(Vec::new()));
        }
        let mut items = Vec::new();
        for part in split_top_level_commas(inner) {
            items.push(parse_string(part.trim())?);
        }
        return Ok(Value::Array(items));
    }
    Ok(Value::Str(parse_string(text)?))
}

fn split_top_level_commas(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(&text[start..]);
    parts
}

fn parse_string(text: &str) -> Result<String, String> {
    let inner = text
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, found {text:?}"))?;
    // The committed files never need escapes beyond \" and \\; reject
    // anything fancier so behaviour stays obvious.
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => return Err(format!("unsupported escape \\{}", other.unwrap_or(' '))),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_severity_and_allows() {
        let text = r#"
# comment
[severity]
"telemetry/orphan" = "warn"

[[allow]]
rule = "determinism/wall-clock"   # trailing comment
path = "crates/bench/src/lib.rs"
reason = "benchmarks measure real time"

[[allow]]
rule = "forbidden/print"
path = "crates/cli/src/report.rs"
reason = "report writer owns stdout"
"#;
        let c = Config::parse(text, "lint.toml").unwrap();
        assert_eq!(c.severity.get("telemetry/orphan"), Some(&Severity::Warn));
        assert_eq!(c.allows.len(), 2);
        assert_eq!(c.allows[0].rule, "determinism/wall-clock");
        assert_eq!(c.allows[1].index, 1);
    }

    #[test]
    fn rejects_bad_severity_and_missing_reason() {
        let bad = "[severity]\n\"x\" = \"fatal\"\n";
        assert!(Config::parse(bad, "lint.toml")
            .unwrap_err()
            .contains("fatal"));
        let missing = "[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"  \"\n";
        assert!(Config::parse(missing, "lint.toml")
            .unwrap_err()
            .contains("reason"));
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Config::parse("stray = \"x\"\n", "lint.toml").is_err());
        assert!(Config::parse("[mystery]\nk = \"v\"\n", "lint.toml").is_err());
    }

    #[test]
    fn schema_baseline_roundtrips_through_render() {
        let base = SchemaBaseline {
            structs: vec![FrozenStruct {
                name: "RoundMetrics".into(),
                path: "crates/federated/src/metrics.rs".into(),
                fields: vec!["round".into(), "accuracy".into()],
            }],
        };
        let text = base.render();
        let parsed = SchemaBaseline::parse(&text, "lint-schema.toml").unwrap();
        assert_eq!(parsed.structs.len(), 1);
        assert_eq!(parsed.structs[0].name, "RoundMetrics");
        assert_eq!(parsed.structs[0].fields, vec!["round", "accuracy"]);
    }

    #[test]
    fn allow_matches_marks_used() {
        let text = "[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"why\"\n";
        let c = Config::parse(text, "lint.toml").unwrap();
        let mut used = vec![false; c.allows.len()];
        assert!(c.allow_matches(&mut used, "r", "p"));
        assert!(!c.allow_matches(&mut used, "r", "q"));
        assert_eq!(used, vec![true]);
    }
}
