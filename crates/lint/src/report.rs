//! Findings and deterministic rendering.
//!
//! Output ordering is part of the contract: findings sort by
//! `(path, line, rule, message)` and both renderers emit nothing that
//! depends on wall time, hash order, or environment, so two runs over
//! the same tree produce byte-identical text and `--json` output.

use crate::config::Severity;

/// One rule violation (or engine-level diagnostic).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule id, e.g. `determinism/wall-clock`.
    pub rule: String,
    /// Effective severity after `lint.toml` overrides.
    pub severity: Severity,
    /// Root-relative path with `/` separators.
    pub path: String,
    /// 1-based line; 0 for file- or workspace-level findings.
    pub line: usize,
    /// Human message.
    pub message: String,
}

/// The result of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Sorted findings (call [`Report::finish`] before rendering).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Rule ids that ran, sorted.
    pub rules_run: Vec<String>,
}

impl Report {
    /// Sorts findings into the canonical order and dedups exact repeats.
    pub fn finish(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
        });
        self.findings.dedup_by(|a, b| {
            a.path == b.path && a.line == b.line && a.rule == b.rule && a.message == b.message
        });
        self.rules_run.sort();
        self.rules_run.dedup();
    }

    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Whether the run should exit non-zero.
    pub fn failed(&self) -> bool {
        self.error_count() > 0
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line > 0 {
                out.push_str(&format!(
                    "{}: {}:{}: [{}] {}\n",
                    f.severity.as_str(),
                    f.path,
                    f.line,
                    f.rule,
                    f.message
                ));
            } else {
                out.push_str(&format!(
                    "{}: {}: [{}] {}\n",
                    f.severity.as_str(),
                    f.path,
                    f.rule,
                    f.message
                ));
            }
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} file(s) scanned, {} rule(s), {} error(s), {} warning(s)\n",
            self.files_scanned,
            self.rules_run.len(),
            self.error_count(),
            self.warn_count()
        ));
        out
    }

    /// Machine-readable report. Hand-rendered JSON: stable key order,
    /// no float formatting, no map iteration.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"rules_run\": [");
        for (i, r) in self.rules_run.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(r));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"errors\": {},\n", self.error_count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warn_count()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"rule\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
                json_string(&f.rule),
                json_string(f.severity.as_str()),
                json_string(&f.path),
                f.line,
                json_string(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// `s` as a JSON string literal, through the workspace's one JSON writer.
fn json_string(s: &str) -> String {
    fhdnn_telemetry::jsonl::Value::Str(s.to_string()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(path: &str, line: usize, rule: &str, msg: &str) -> Finding {
        Finding {
            rule: rule.into(),
            severity: Severity::Error,
            path: path.into(),
            line,
            message: msg.into(),
        }
    }

    #[test]
    fn finish_sorts_and_dedups() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 2, "r", "m"),
                finding("a.rs", 9, "r", "m"),
                finding("a.rs", 1, "z", "m"),
                finding("a.rs", 1, "a", "m"),
                finding("a.rs", 1, "a", "m"),
            ],
            files_scanned: 3,
            rules_run: vec!["z".into(), "a".into(), "a".into()],
        };
        r.finish();
        let order: Vec<(String, usize, String)> = r
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line, f.rule.clone()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 1, "a".to_string()),
                ("a.rs".to_string(), 1, "z".to_string()),
                ("a.rs".to_string(), 9, "r".to_string()),
                ("b.rs".to_string(), 2, "r".to_string()),
            ]
        );
        assert_eq!(r.rules_run, vec!["a", "z"]);
    }

    #[test]
    fn json_is_valid_and_escaped() {
        let mut r = Report::default();
        r.findings
            .push(finding("a.rs", 1, "r", "say \"hi\"\tand\nbye"));
        r.rules_run.push("r".into());
        r.files_scanned = 1;
        r.finish();
        let json = r.render_json();
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.contains("\\t"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"errors\": 1"));
    }

    #[test]
    fn empty_report_renders() {
        let mut r = Report::default();
        r.finish();
        assert!(!r.failed());
        assert!(r.render_text().contains("0 error(s)"));
        assert!(r.render_json().contains("\"findings\": []"));
    }

    #[test]
    fn warn_does_not_fail() {
        let mut r = Report::default();
        r.findings.push(Finding {
            severity: Severity::Warn,
            ..finding("a.rs", 1, "r", "m")
        });
        r.finish();
        assert!(!r.failed());
        assert_eq!(r.warn_count(), 1);
    }
}
