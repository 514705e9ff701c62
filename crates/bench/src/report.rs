//! Report records and table printing shared by all experiments.

use fhdnn::telemetry::jsonl::Value;

/// One labeled numeric series (a curve in a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (e.g. `fhdnn/cifar/iid`).
    pub label: String,
    /// X values (rounds, loss rates, SNRs, …).
    pub x: Vec<f64>,
    /// Y values (accuracy, retention, …).
    pub y: Vec<f64>,
}

impl Series {
    /// Creates a series, truncating to the shorter of the two vectors.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        let n = x.len().min(y.len());
        Series {
            label: label.into(),
            x: x[..n].to_vec(),
            y: y[..n].to_vec(),
        }
    }
}

/// A complete experiment report: series plus free-form summary lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentReport {
    /// Experiment identifier (`fig7`, `table1`, …).
    pub id: String,
    /// What the paper shows, for the archive.
    pub paper_claim: String,
    /// The measured curves.
    pub series: Vec<Series>,
    /// Key-value summary rows (printed under the series).
    pub summary: Vec<(String, String)>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, paper_claim: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            paper_claim: paper_claim.into(),
            series: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Adds a summary row.
    pub fn note(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.summary.push((key.into(), value.to_string()));
    }

    /// Renders the report as aligned text (what the `repro` binary
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.id));
        out.push_str(&format!("paper: {}\n", self.paper_claim));
        for s in &self.series {
            out.push_str(&format!("\n-- {} --\n", s.label));
            out.push_str("      x        y\n");
            for (x, y) in s.x.iter().zip(&s.y) {
                if x.abs() > 0.0 && x.abs() < 1e-3 {
                    out.push_str(&format!("{x:9.1e} {y:8.4}\n"));
                } else {
                    out.push_str(&format!("{x:9.4} {y:8.4}\n"));
                }
            }
        }
        if !self.summary.is_empty() {
            out.push('\n');
            let width = self.summary.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (k, v) in &self.summary {
                out.push_str(&format!("{k:width$} : {v}\n"));
            }
        }
        out
    }

    /// The report as indented JSON, the form of the committed
    /// `results/*.json`: keys `id`, `paper_claim`, `series` (objects of
    /// `label`, `x`, `y`), `summary` (two-element arrays). Non-finite
    /// numbers are written as `null`.
    pub fn to_json(&self) -> String {
        let text = |s: &str| Value::Str(s.to_string());
        let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect());
        let series = self.series.iter().map(|s| {
            let members = [
                ("label", text(&s.label)),
                ("x", nums(&s.x)),
                ("y", nums(&s.y)),
            ];
            Value::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
        });
        let summary = self
            .summary
            .iter()
            .map(|(k, v)| Value::Arr(vec![text(k), text(v)]));
        let members = [
            ("id", text(&self.id)),
            ("paper_claim", text(&self.paper_claim)),
            ("series", Value::Arr(series.collect())),
            ("summary", Value::Arr(summary.collect())),
        ];
        let doc = Value::Obj(members.map(|(k, v)| (k.to_string(), v)).into());
        format!("{doc:#}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_truncates_to_shorter() {
        let s = Series::new("a", vec![1.0, 2.0, 3.0], vec![0.5, 0.6]);
        assert_eq!(s.x.len(), 2);
        assert_eq!(s.y, [0.5, 0.6]);
    }

    #[test]
    fn render_contains_everything() {
        let mut r = ExperimentReport::new("figX", "claim");
        r.series.push(Series::new("curve", vec![1.0], vec![0.9]));
        r.note("winner", "fhdnn");
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("curve"));
        assert!(text.contains("winner"));
        assert!(text.contains("0.9"));
    }

    #[test]
    fn json_keeps_the_committed_results_shape() {
        let mut r = ExperimentReport::new("t", "c");
        r.series
            .push(Series::new("s", vec![1.0, 2.5], vec![0.5, f64::NAN]));
        r.note("k", "v");
        let json = r.to_json();
        assert!(
            json.starts_with("{\n  \"id\": \"t\",\n  \"paper_claim\""),
            "{json}"
        );
        assert_eq!(
            json.split_whitespace().collect::<String>(),
            r#"{"id":"t","paper_claim":"c","series":[{"label":"s","x":[1.0,2.5],"y":[0.5,null]}],"summary":[["k","v"]]}"#
        );
    }
}
