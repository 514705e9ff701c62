//! `schema/*` — wire-facing record structs are frozen against a committed
//! baseline.
//!
//! `RoundMetrics`, `HealthRecord`, and `ChannelStatsSnapshot` are
//! serialized into JSONL streams that `fhdnn watch`, the flight
//! recorder, and downstream notebooks parse. Renaming, removing, or
//! reordering a field silently breaks every consumer of recorded runs,
//! so their field lists are pinned in `lint-schema.toml`. An
//! intentional change is a two-line diff: run
//! `fhdnn lint --fix-baseline` and commit the regenerated file so the
//! schema change is visible in review.
//!
//! Field extraction is lexical, like the rest of the lint: it walks the
//! struct body in the stripped code and records identifiers followed by
//! a single `:` at the top nesting level. That covers the actual shape
//! of the frozen structs (named fields, plain or generic types) without
//! a full parser.

use super::RawFinding;
use crate::config::{FrozenStruct, SchemaBaseline};
use crate::source::SourceFile;

/// The frozen structs: (struct name, defining file).
pub const FROZEN: &[(&str, &str)] = &[
    ("ChannelStatsSnapshot", "crates/channel/src/stats.rs"),
    ("HealthRecord", "crates/federated/src/health.rs"),
    ("RoundMetrics", "crates/federated/src/metrics.rs"),
];

/// Extracts the current field lists of every frozen struct whose
/// defining file is present in the scanned tree (sorted by name, like
/// [`FROZEN`]).
pub fn extract(files: &[SourceFile]) -> Vec<FrozenStruct> {
    let mut out = Vec::new();
    for &(name, path) in FROZEN {
        let Some(file) = files.iter().find(|f| f.path == path) else {
            continue;
        };
        if let Some(fields) = struct_fields(&file.code, name) {
            out.push(FrozenStruct {
                name: name.to_string(),
                path: path.to_string(),
                fields,
            });
        }
    }
    out
}

pub fn check(files: &[SourceFile], baseline: Option<&SchemaBaseline>, out: &mut Vec<RawFinding>) {
    for &(name, path) in FROZEN {
        let Some(file) = files.iter().find(|f| f.path == path) else {
            // Partial tree (fixtures, subdirectory scans): nothing to
            // check against.
            continue;
        };
        let Some(fields) = struct_fields(&file.code, name) else {
            out.push(RawFinding {
                rule: "schema/drift",
                path: path.to_string(),
                line: 0,
                message: format!(
                    "frozen struct {name} not found in {path}; if it moved, \
                     update FROZEN in the lint and rerun --fix-baseline"
                ),
            });
            continue;
        };
        let Some(entry) = baseline.and_then(|b| b.structs.iter().find(|s| s.name == name)) else {
            out.push(RawFinding {
                rule: "schema/missing-baseline",
                path: path.to_string(),
                line: 0,
                message: format!(
                    "frozen struct {name} has no lint-schema.toml entry; run \
                     `fhdnn lint --fix-baseline` and commit the result"
                ),
            });
            continue;
        };
        if entry.fields != fields {
            let added: Vec<&String> = fields
                .iter()
                .filter(|f| !entry.fields.contains(f))
                .collect();
            let removed: Vec<&String> = entry
                .fields
                .iter()
                .filter(|f| !fields.contains(f))
                .collect();
            let detail = if added.is_empty() && removed.is_empty() {
                "fields were reordered".to_string()
            } else {
                format!("added: [{}], removed: [{}]", join(&added), join(&removed))
            };
            out.push(RawFinding {
                rule: "schema/drift",
                path: path.to_string(),
                line: 0,
                message: format!(
                    "{name} drifted from the committed baseline ({detail}); \
                     if intentional, run `fhdnn lint --fix-baseline` and commit \
                     the diff"
                ),
            });
        }
    }
}

fn join(items: &[&String]) -> String {
    items
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Field names of `struct <name> { ... }` in stripped code, in
/// declaration order. `None` if the struct is absent or has no brace
/// body (tuple/unit structs have no field names to pin).
fn struct_fields(code: &str, name: &str) -> Option<Vec<String>> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    // Locate `struct <name>` with identifier boundaries.
    let mut at = None;
    let needle = format!("struct {name}");
    let mut from = 0;
    while let Some(p) = code[from..].find(&needle) {
        let pos = from + p;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let end = pos + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            at = Some(end);
            break;
        }
        from = pos + needle.len();
    }
    let mut i = at?;
    // Skip generics/where-clause noise up to `{` or bail at `;`/`(`.
    while i < bytes.len() {
        match bytes[i] {
            b'{' => break,
            b';' | b'(' => return None,
            _ => i += 1,
        }
    }
    if i >= bytes.len() {
        return None;
    }
    // Walk the body: record `ident :` (single colon) at the top level.
    let (mut paren, mut bracket, mut angle, mut brace) = (0i32, 0i32, 0i32, 0i32);
    let mut fields = Vec::new();
    let mut j = i + 1;
    while j < bytes.len() {
        let b = bytes[j];
        match b {
            b'{' => brace += 1,
            b'}' => {
                if brace == 0 {
                    break;
                }
                brace -= 1;
            }
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            b'<' => angle += 1,
            b'>' => angle = (angle - 1).max(0),
            _ => {}
        }
        let top = paren == 0 && bracket == 0 && angle == 0 && brace == 0;
        if top && is_ident(b) && (j == i + 1 || !is_ident(bytes[j - 1])) {
            let mut k = j;
            while k < bytes.len() && is_ident(bytes[k]) {
                k += 1;
            }
            let word = &code[j..k];
            // Look past whitespace for a single `:`.
            let mut m = k;
            while m < bytes.len() && (bytes[m] as char).is_whitespace() {
                m += 1;
            }
            if bytes.get(m) == Some(&b':') && bytes.get(m + 1) != Some(&b':') && word != "pub" {
                fields.push(word.to_string());
            }
            j = k;
            continue;
        }
        j += 1;
    }
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path.to_string(), src.to_string())
    }

    const METRICS_SRC: &str = "\
#[derive(Debug, Clone)]
pub struct RoundMetrics {
    pub round: usize,
    pub accuracy: f64,
    pub per_class: Vec<(usize, f64)>,
    pub tags: BTreeMap<String, u64>,
}
";

    fn baseline(fields: &[&str]) -> SchemaBaseline {
        SchemaBaseline {
            structs: vec![FrozenStruct {
                name: "RoundMetrics".into(),
                path: "crates/federated/src/metrics.rs".into(),
                fields: fields.iter().map(|s| s.to_string()).collect(),
            }],
        }
    }

    #[test]
    fn extracts_fields_through_generics_and_tuples() {
        let fields = struct_fields(METRICS_SRC, "RoundMetrics").unwrap();
        assert_eq!(fields, vec!["round", "accuracy", "per_class", "tags"]);
    }

    #[test]
    fn ignores_lookalike_struct_names() {
        let src = "pub struct RoundMetricsExt { pub x: u8 }\n";
        assert!(struct_fields(src, "RoundMetrics").is_none());
    }

    #[test]
    fn matching_baseline_is_clean() {
        let f = lex("crates/federated/src/metrics.rs", METRICS_SRC);
        let b = baseline(&["round", "accuracy", "per_class", "tags"]);
        let mut out = Vec::new();
        check(&[f], Some(&b), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn drift_reports_added_and_removed() {
        let f = lex("crates/federated/src/metrics.rs", METRICS_SRC);
        let b = baseline(&["round", "loss", "per_class", "tags"]);
        let mut out = Vec::new();
        check(&[f], Some(&b), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "schema/drift");
        assert!(out[0].message.contains("added: [accuracy]"));
        assert!(out[0].message.contains("removed: [loss]"));
    }

    #[test]
    fn reorder_is_drift_too() {
        let f = lex("crates/federated/src/metrics.rs", METRICS_SRC);
        let b = baseline(&["accuracy", "round", "per_class", "tags"]);
        let mut out = Vec::new();
        check(&[f], Some(&b), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("reordered"));
    }

    #[test]
    fn missing_baseline_entry_is_reported() {
        let f = lex("crates/federated/src/metrics.rs", METRICS_SRC);
        let mut out = Vec::new();
        check(&[f], None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "schema/missing-baseline");
    }

    #[test]
    fn absent_files_are_skipped() {
        let f = lex(
            "crates/other/src/lib.rs",
            "pub struct Unrelated { pub a: u8 }\n",
        );
        let mut out = Vec::new();
        check(&[f], None, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn extract_covers_present_frozen_files() {
        let f = lex("crates/federated/src/metrics.rs", METRICS_SRC);
        let got = extract(&[f]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "RoundMetrics");
        assert_eq!(got[0].fields.len(), 4);
    }
}
