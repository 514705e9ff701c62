//! The `fhdnn watch` health dashboard and its Prometheus export.
//!
//! A [`Dashboard`] is a pure function of a recorded telemetry stream: it
//! folds the `health.round` and `alert` events out of a JSONL event log
//! (see `fhdnn::federated::health`) and renders them as a deterministic
//! text dashboard — the same bytes for the same stream, every time, which
//! is what makes `fhdnn watch --from` replay testable. The
//! [`Dashboard::prometheus`] view serializes the latest snapshot in the
//! Prometheus text exposition format for scraping without a client
//! library.

use fhdnn::federated::health::HealthRecord;
use fhdnn::telemetry::jsonl::{self, Value};
use fhdnn::telemetry::mem::fmt_bytes;
use fhdnn::telemetry::registry::{EVENT_ALERT, EVENT_HEALTH_ROUND, EVENT_TRACE_ROUND};
use fhdnn::telemetry::trace::RoundTraceSummary;
use std::fmt::Write as _;

/// How many trailing rounds the per-round table shows; earlier rounds are
/// summarized by the sparklines, which always span the full run.
const TABLE_ROUNDS: usize = 12;

/// One alert row recovered from the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRow {
    /// Rule identifier, e.g. `accuracy_drop`.
    pub rule: String,
    /// `warning` or `critical`.
    pub severity: String,
    /// Round the alert fired on.
    pub round: u64,
    /// Human-readable alert message.
    pub message: String,
}

/// A replayable model-health dashboard.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    records: Vec<HealthRecord>,
    alerts: Vec<AlertRow>,
    /// The `trace.round` summaries the round engines emit.
    traces: Vec<RoundTraceSummary>,
}

impl Dashboard {
    /// Folds a JSONL telemetry stream into a dashboard. Lines that are
    /// not valid JSON, not events, or not health/alert events are
    /// skipped, so the full `--telemetry` stream (spans, counters, …)
    /// replays as-is.
    pub fn from_jsonl_str(stream: &str) -> Dashboard {
        let mut dash = Dashboard::default();
        jsonl::read_records(stream, |kind, name, fields| {
            if kind != "event" {
                return;
            }
            match name {
                EVENT_HEALTH_ROUND => dash.records.extend(HealthRecord::from_event_fields(fields)),
                EVENT_TRACE_ROUND => {
                    dash.traces
                        .extend(RoundTraceSummary::from_event_fields(fields));
                }
                EVENT_ALERT => {
                    let text = |k| fields.get(k).and_then(Value::as_str).unwrap_or_default();
                    dash.alerts.push(AlertRow {
                        rule: text("rule").to_string(),
                        severity: text("severity").to_string(),
                        round: fields.get("round").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                        message: text("message").to_string(),
                    });
                }
                _ => {}
            }
        });
        dash
    }

    /// Parsed `health.round` records, in stream order.
    pub fn records(&self) -> &[HealthRecord] {
        &self.records
    }

    /// Parsed `alert` events, in stream order.
    pub fn alerts(&self) -> &[AlertRow] {
        &self.alerts
    }

    /// Parsed `trace.round` summaries, in stream order. Empty for
    /// streams recorded before execution tracing existed.
    pub fn traces(&self) -> &[RoundTraceSummary] {
        &self.traces
    }

    /// Renders the dashboard. The output is a pure function of the
    /// parsed stream — byte-identical across replays of the same log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.records.is_empty() {
            out.push_str("fhdnn watch: no health.round events in stream\n");
            if !self.alerts.is_empty() {
                self.render_alerts(&mut out);
            }
            return out;
        }
        let last = &self.records[self.records.len() - 1];
        let best = self
            .records
            .iter()
            .map(|r| r.test_accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        let engine = if last.engine.is_empty() {
            "unknown"
        } else {
            &last.engine
        };
        let _ = writeln!(
            out,
            "fhdnn watch — {engine} · {} round{}",
            self.records.len(),
            if self.records.len() == 1 { "" } else { "s" }
        );
        out.push('\n');

        let acc: Vec<f64> = self.records.iter().map(|r| r.test_accuracy).collect();
        let bits: Vec<f64> = self.records.iter().map(|r| r.bits_flipped as f64).collect();
        let erased: Vec<f64> = self.records.iter().map(|r| r.dims_erased as f64).collect();
        let total_bits: u64 = self.records.iter().map(|r| r.bits_flipped).sum();
        let total_erased: u64 = self.records.iter().map(|r| r.dims_erased).sum();
        let total_dropped: u64 = self.records.iter().map(|r| r.packets_dropped).sum();
        let _ = writeln!(
            out,
            "accuracy    {}  last {:.4}  best {:.4}",
            sparkline(&acc),
            last.test_accuracy,
            best
        );
        if total_bits + total_erased + total_dropped == 0 {
            out.push_str("damage      clean channel (no bit flips, erasures, or drops)\n");
        } else {
            let _ = writeln!(out, "bit flips   {}  total {total_bits}", sparkline(&bits));
            let _ = writeln!(
                out,
                "erasures    {}  total {total_erased} dims · {total_dropped} packets dropped",
                sparkline(&erased)
            );
        }
        let _ = writeln!(out, "saturation  {}", gauge(last.saturation, 24));
        // Streams recorded before memory tracking carry no mem fields
        // (they parse as zero) — the memory rows only appear when the
        // stream actually has watermarks.
        if self.records.iter().any(|r| r.mem_peak_bytes > 0) {
            let mem: Vec<f64> = self
                .records
                .iter()
                .map(|r| r.mem_peak_bytes as f64)
                .collect();
            let run_max = mem.iter().copied().fold(0.0, f64::max);
            let _ = writeln!(
                out,
                "mem peak    {}  last {}  {}/client",
                sparkline(&mem),
                fmt_bytes(last.mem_peak_bytes),
                fmt_bytes(last.mem_bytes_per_client)
            );
            let _ = writeln!(
                out,
                "mem level   {}  of run max {}",
                gauge(last.mem_peak_bytes as f64 / run_max, 24),
                fmt_bytes(run_max as u64)
            );
        }
        // Streams recorded before execution tracing carry no trace.round
        // events — the worker row only appears when the stream has them.
        if let Some(t) = self.traces.last() {
            let _ = writeln!(
                out,
                "workers     {}  util of {} worker(s), max queue {}",
                gauge(t.worker_utilization, 24),
                t.workers,
                t.queue_depth_max
            );
        }
        let _ = writeln!(
            out,
            "divergence  mean {:.4}  max |z| {:.2}{}",
            last.mean_divergence,
            last.max_abs_z,
            if last.outlier_clients.is_empty() {
                String::new()
            } else {
                format!(
                    "  outliers [{}]",
                    last.outlier_clients
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            }
        );
        // Fleet-telemetry streams carry sketch quantiles and a bounded
        // exemplar table instead of per-client events; streams recorded
        // before fleet telemetry parse a zero cohort estimate and render
        // the pre-fleet dashboard byte-for-byte.
        if last.cohort_clients > 0 {
            let _ = writeln!(
                out,
                "fleet       ~{} client(s)  div p50 {:.4}  p95 {:.4}  p99 {:.4}",
                last.cohort_clients, last.div_p50, last.div_p95, last.div_p99
            );
            let _ = writeln!(
                out,
                "fleet p99   uplink {} B  damage {}  sim compute {} us",
                last.uplink_p99_bytes, last.damage_p99, last.sim_compute_p99_micros
            );
            let exemplars = parse_exemplars(&last.exemplars);
            if !exemplars.is_empty() {
                out.push_str("exemplars   kind  client  score\n");
                for (kind, id, score) in exemplars {
                    let _ = writeln!(out, "            {kind:<4}  {id:>6}  {score}");
                }
            }
        }
        // Any evicted task traces mean the replay views are incomplete;
        // drop-free streams (all pre-trace streams included) stay silent.
        let trace_dropped: u64 = self.records.iter().map(|r| r.trace_dropped).sum();
        if trace_dropped > 0 {
            let _ = writeln!(
                out,
                "trace drops {trace_dropped} task trace(s) evicted from the bounded ring — raise its capacity or the replay is incomplete"
            );
        }
        out.push('\n');

        let skip = self.records.len().saturating_sub(TABLE_ROUNDS);
        if skip > 0 {
            let _ = writeln!(out, "(… {skip} earlier rounds elided …)");
        }
        // Traced streams gain a critical-path column (which client's
        // simulated cost bounded the barrier); untraced streams render
        // the pre-trace table byte-for-byte.
        let has_traces = !self.traces.is_empty();
        let trace_of: std::collections::BTreeMap<(&str, u64), &RoundTraceSummary> = self
            .traces
            .iter()
            .map(|t| ((&*t.engine, t.round), t))
            .collect();
        out.push_str(if has_traces {
            "round  accuracy  sat%   margin  flip%  div     max|z|  bits  erased  drops  crit  outliers\n"
        } else {
            "round  accuracy  sat%   margin  flip%  div     max|z|  bits  erased  drops  outliers\n"
        });
        for r in &self.records[skip..] {
            let outliers = if r.outlier_clients.is_empty() {
                "-".to_string()
            } else {
                r.outlier_clients
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = write!(
                out,
                "{:>5}  {:.4}    {:>5.1}  {:.4}  {:>5.1}  {:.4}  {:>6.2}  {:>4}  {:>6}  {:>5}",
                r.round,
                r.test_accuracy,
                r.saturation * 100.0,
                r.cosine_margin,
                r.sign_flip_rate * 100.0,
                r.mean_divergence,
                r.max_abs_z,
                r.bits_flipped,
                r.dims_erased,
                r.packets_dropped,
            );
            if has_traces {
                let crit = trace_of
                    .get(&(r.engine.as_str(), r.round))
                    .map(|t| t.critical_client.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let _ = write!(out, "  {crit:>4}");
            }
            let _ = writeln!(out, "  {outliers}");
        }
        out.push('\n');
        self.render_alerts(&mut out);
        out
    }

    fn render_alerts(&self, out: &mut String) {
        if self.alerts.is_empty() {
            out.push_str("alerts: none\n");
            return;
        }
        let _ = writeln!(out, "alerts ({}):", self.alerts.len());
        for a in &self.alerts {
            let _ = writeln!(
                out,
                "  [{}] {} @ round {}: {}",
                a.severity, a.rule, a.round, a.message
            );
        }
    }

    /// The latest snapshot in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers plus one sample per metric, gauges for
    /// latest-round values and counters for run totals. Empty streams
    /// produce only the alert totals (both zero).
    pub fn prometheus(&self) -> String {
        /// One gauge family per `(name, help, value)` row: headers plus
        /// one sample, non-finite values exported as 0.
        fn gauges(out: &mut String, labels: &str, families: &[(&str, &str, f64)]) {
            for &(name, help, value) in families {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let v = if value.is_finite() { value } else { 0.0 };
                let _ = writeln!(out, "{name}{labels} {v}");
            }
        }
        let mut out = String::new();
        if let Some(last) = self.records.last() {
            let labels = format!("{{engine=\"{}\"}}", last.engine.replace('"', ""));
            let families = [
                (
                    "fhdnn_health_round",
                    "Latest federated round index.",
                    last.round as f64,
                ),
                (
                    "fhdnn_health_test_accuracy",
                    "Global-model test accuracy after aggregation.",
                    last.test_accuracy,
                ),
                (
                    "fhdnn_health_participants",
                    "Clients sampled in the latest round.",
                    last.participants as f64,
                ),
                (
                    "fhdnn_health_arrived",
                    "Client updates that arrived in the latest round.",
                    last.arrived as f64,
                ),
                (
                    "fhdnn_health_norm_min",
                    "Smallest per-class prototype L2 norm.",
                    last.norm_min,
                ),
                (
                    "fhdnn_health_norm_max",
                    "Largest per-class prototype L2 norm.",
                    last.norm_max,
                ),
                (
                    "fhdnn_health_norm_mean",
                    "Mean per-class prototype L2 norm.",
                    last.norm_mean,
                ),
                (
                    "fhdnn_health_noise_energy",
                    "Channel noise energy injected in the latest round.",
                    last.noise_energy,
                ),
                (
                    "fhdnn_health_saturation",
                    "Counter-saturation fraction of the quantized global model.",
                    last.saturation,
                ),
                (
                    "fhdnn_health_cosine_margin",
                    "Minimum pairwise inter-class cosine separation.",
                    last.cosine_margin,
                ),
                (
                    "fhdnn_health_sign_flip_rate",
                    "Fraction of model entries that flipped sign last round.",
                    last.sign_flip_rate,
                ),
                (
                    "fhdnn_health_mean_divergence",
                    "Mean cosine distance of client deltas from the aggregate.",
                    last.mean_divergence,
                ),
                (
                    "fhdnn_health_max_abs_z",
                    "Largest client divergence |z-score| in the latest round.",
                    last.max_abs_z,
                ),
                (
                    "fhdnn_health_outlier_clients",
                    "Clients flagged as divergence outliers in the latest round.",
                    last.outlier_clients.len() as f64,
                ),
                (
                    "fhdnn_mem_peak_bytes",
                    "Peak heap bytes above the round-start level, latest round.",
                    last.mem_peak_bytes as f64,
                ),
                (
                    "fhdnn_mem_allocs",
                    "Heap allocations during the latest round.",
                    last.mem_allocs as f64,
                ),
                (
                    "fhdnn_mem_bytes_per_client",
                    "Gross bytes allocated per sampled client, latest round.",
                    last.mem_bytes_per_client as f64,
                ),
            ];
            gauges(&mut out, &labels, &families);
            // Sketch-derived families only exist on fleet-capable
            // streams; a zero cohort estimate marks a pre-fleet stream,
            // whose exposition stays exactly what it was.
            if last.cohort_clients > 0 {
                let name = "fhdnn_health_divergence_quantile";
                let _ = writeln!(
                    out,
                    "# HELP {name} Client divergence quantiles from the mergeable round sketch."
                );
                let _ = writeln!(out, "# TYPE {name} gauge");
                let engine = last.engine.replace('"', "");
                for (q, v) in [
                    ("0.5", last.div_p50),
                    ("0.95", last.div_p95),
                    ("0.99", last.div_p99),
                ] {
                    let v = if v.is_finite() { v } else { 0.0 };
                    let _ = writeln!(out, "{name}{{engine=\"{engine}\",quantile=\"{q}\"}} {v}");
                }
                let families = [
                    (
                        "fhdnn_health_uplink_p99_bytes",
                        "p99 of per-client uplink bytes in the latest round.",
                        last.uplink_p99_bytes as f64,
                    ),
                    (
                        "fhdnn_health_damage_p99",
                        "p99 of per-client channel damage events in the latest round.",
                        last.damage_p99 as f64,
                    ),
                    (
                        "fhdnn_health_sim_compute_p99_micros",
                        "p99 of per-client simulated compute in the latest round, microseconds.",
                        last.sim_compute_p99_micros as f64,
                    ),
                    (
                        "fhdnn_health_cohort_clients",
                        "Estimated distinct clients seen across the run so far.",
                        last.cohort_clients as f64,
                    ),
                ];
                gauges(&mut out, &labels, &families);
            }
            let trace_dropped: u64 = self.records.iter().map(|r| r.trace_dropped).sum();
            if trace_dropped > 0 {
                let name = "fhdnn_trace_dropped_total";
                let _ = writeln!(
                    out,
                    "# HELP {name} Task traces evicted from the bounded ring across the run."
                );
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name}{labels} {trace_dropped}");
            }
            let counters: [(&str, &str, u64); 3] = [
                (
                    "fhdnn_channel_bits_flipped_total",
                    "Bits flipped by the channel across the run.",
                    self.records.iter().map(|r| r.bits_flipped).sum(),
                ),
                (
                    "fhdnn_channel_dims_erased_total",
                    "Dimensions erased by the channel across the run.",
                    self.records.iter().map(|r| r.dims_erased).sum(),
                ),
                (
                    "fhdnn_channel_packets_dropped_total",
                    "Packets dropped by the channel across the run.",
                    self.records.iter().map(|r| r.packets_dropped).sum(),
                ),
            ];
            for (name, help, value) in counters {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        }
        if let Some(t) = self.traces.last() {
            let labels = format!("{{engine=\"{}\"}}", t.engine.replace('"', ""));
            let families = [
                (
                    "fhdnn_trace_worker_utilization",
                    "Fraction of pool-worker capacity spent executing, latest round.",
                    t.worker_utilization,
                ),
                (
                    "fhdnn_trace_queue_depth_max",
                    "Peak count of tasks enqueued but not yet started, latest round.",
                    t.queue_depth_max as f64,
                ),
                (
                    "fhdnn_trace_critical_client",
                    "Client whose simulated cost bounded the latest round's barrier.",
                    t.critical_client as f64,
                ),
                (
                    "fhdnn_trace_sim_round_micros",
                    "Simulated AIoT wall time of the latest round, microseconds.",
                    t.sim_round_micros as f64,
                ),
            ];
            gauges(&mut out, &labels, &families);
        }
        let warnings = self
            .alerts
            .iter()
            .filter(|a| a.severity == "warning")
            .count();
        let criticals = self
            .alerts
            .iter()
            .filter(|a| a.severity == "critical")
            .count();
        out.push_str("# HELP fhdnn_alerts_total Alerts fired across the run, by severity.\n");
        out.push_str("# TYPE fhdnn_alerts_total counter\n");
        let _ = writeln!(out, "fhdnn_alerts_total{{severity=\"warning\"}} {warnings}");
        let _ = writeln!(
            out,
            "fhdnn_alerts_total{{severity=\"critical\"}} {criticals}"
        );
        out
    }
}

/// Splits the deterministic `kind:client:score|…` exemplar string the
/// round engines emit into `(kind, client, score)` rows; malformed
/// segments are skipped. Scores stay strings — the engines already
/// formatted them deterministically.
fn parse_exemplars(s: &str) -> Vec<(&str, &str, &str)> {
    s.split('|')
        .filter_map(|seg| {
            let mut it = seg.splitn(3, ':');
            match (it.next(), it.next(), it.next()) {
                (Some(kind), Some(client), Some(score)) if !kind.is_empty() => {
                    Some((kind, client, score))
                }
                _ => None,
            }
        })
        .collect()
}

/// Renders `values` as a unicode sparkline, scaled to the series' own
/// min/max (a flat series renders as the lowest bar).
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            let t = if span > 0.0 && span.is_finite() && v.is_finite() {
                (v - min) / span
            } else {
                0.0
            };
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Renders a `[0,1]` fraction as a fixed-width bar gauge with a percent
/// readout. Out-of-range and non-finite fractions clamp into the bar.
fn gauge(frac: f64, width: usize) -> String {
    let f = if frac.is_finite() {
        frac.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let filled = ((f * width as f64).round() as usize).min(width);
    format!(
        "[{}{}] {:.1}%",
        "#".repeat(filled),
        ".".repeat(width - filled),
        f * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health_line(round: u64, acc: f64, bits: u64) -> String {
        format!(
            r#"{{"ts":{ts},"kind":"event","name":"health.round","fields":{{"round":{round},"engine":"fedhd","test_accuracy":{acc},"participants":4,"arrived":4,"norm_min":1.0,"norm_max":2.0,"norm_mean":1.5,"saturation":0.125,"cosine_margin":0.8,"sign_flip_rate":0.01,"mean_divergence":0.2,"max_abs_z":1.5,"outlier_clients":"","bits_flipped":{bits},"dims_erased":0,"packets_dropped":0,"noise_energy":0}}}}"#,
            ts = round * 10,
        )
    }

    fn fixture_stream() -> String {
        let mut s = String::new();
        s.push_str(&health_line(0, 0.4, 0));
        s.push('\n');
        // Unrelated kinds and garbage must be skipped, not fatal.
        s.push_str(r#"{"ts":5,"kind":"span","name":"round.eval","fields":{"micros":10}}"#);
        s.push_str("\nnot json at all\n");
        s.push_str(&health_line(1, 0.8, 120));
        s.push('\n');
        s.push_str(
            r#"{"ts":25,"kind":"event","name":"alert","fields":{"rule":"saturation","severity":"warning","round":1,"value":0.3,"threshold":0.25,"message":"saturation 0.30 at round 1"}}"#,
        );
        s.push('\n');
        s
    }

    #[test]
    fn parses_health_and_alert_events_only() {
        let dash = Dashboard::from_jsonl_str(&fixture_stream());
        assert_eq!(dash.records().len(), 2);
        assert_eq!(dash.records()[1].round, 1);
        assert_eq!(dash.records()[1].bits_flipped, 120);
        assert_eq!(dash.alerts().len(), 1);
        assert_eq!(dash.alerts()[0].rule, "saturation");
        assert_eq!(dash.alerts()[0].severity, "warning");
        assert_eq!(dash.alerts()[0].round, 1);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let dash = Dashboard::from_jsonl_str(&fixture_stream());
        let a = dash.render();
        let b = Dashboard::from_jsonl_str(&fixture_stream()).render();
        assert_eq!(a, b, "same stream must render the same bytes");
        assert!(a.contains("fhdnn watch — fedhd · 2 rounds"), "{a}");
        assert!(a.contains("last 0.8000"), "{a}");
        assert!(a.contains("best 0.8000"), "{a}");
        assert!(a.contains("bit flips"), "{a}");
        assert!(a.contains("total 120"), "{a}");
        assert!(a.contains("[warning] saturation @ round 1"), "{a}");
    }

    #[test]
    fn empty_and_clean_streams_render_gracefully() {
        let empty = Dashboard::from_jsonl_str("");
        assert!(empty.render().contains("no health.round events"));
        let clean = Dashboard::from_jsonl_str(&health_line(0, 0.9, 0));
        let r = clean.render();
        assert!(r.contains("clean channel"), "{r}");
        assert!(r.contains("alerts: none"), "{r}");
    }

    #[test]
    fn table_elides_old_rounds() {
        let mut s = String::new();
        for i in 0..20 {
            s.push_str(&health_line(i, 0.5, 0));
            s.push('\n');
        }
        let r = Dashboard::from_jsonl_str(&s).render();
        assert!(r.contains("(… 8 earlier rounds elided …)"), "{r}");
    }

    #[test]
    fn prometheus_exposition_has_headers_and_samples() {
        let dash = Dashboard::from_jsonl_str(&fixture_stream());
        let text = dash.prometheus();
        assert!(text.contains("# TYPE fhdnn_health_test_accuracy gauge"));
        assert!(text.contains("fhdnn_health_test_accuracy{engine=\"fedhd\"} 0.8"));
        assert!(text.contains("fhdnn_channel_bits_flipped_total{engine=\"fedhd\"} 120"));
        assert!(text.contains("fhdnn_alerts_total{severity=\"warning\"} 1"));
        assert!(text.contains("fhdnn_alerts_total{severity=\"critical\"} 0"));
        // Every line is a comment or `name{labels} value` — no blanks.
        for line in text.lines() {
            assert!(!line.trim().is_empty());
        }
        // An empty stream still exposes alert totals.
        let empty = Dashboard::from_jsonl_str("").prometheus();
        assert!(empty.contains("fhdnn_alerts_total{severity=\"warning\"} 0"));
    }

    /// `health_line` plus the memory-watermark fields added by the
    /// tracked-allocator release.
    fn mem_line(round: u64, acc: f64, peak: u64, per_client: u64) -> String {
        health_line(round, acc, 0).replace(
            r#""noise_energy":0"#,
            &format!(
                r#""noise_energy":0,"mem_peak_bytes":{peak},"mem_allocs":64,"mem_bytes_per_client":{per_client}"#
            ),
        )
    }

    #[test]
    fn memory_rows_render_and_export() {
        // Pre-tracking streams (no mem fields) must not grow memory rows.
        let old = Dashboard::from_jsonl_str(&fixture_stream()).render();
        assert!(!old.contains("mem peak"), "{old}");

        let mut s = String::new();
        s.push_str(&mem_line(0, 0.4, 1 << 20, 1 << 18));
        s.push('\n');
        s.push_str(&mem_line(1, 0.8, 2 << 20, 1 << 19));
        s.push('\n');
        let dash = Dashboard::from_jsonl_str(&s);
        assert_eq!(dash.records()[1].mem_peak_bytes, 2 << 20);
        let r = dash.render();
        assert!(r.contains("mem peak"), "{r}");
        assert!(r.contains("last 2.0 MiB"), "{r}");
        assert!(r.contains("512.0 KiB/client"), "{r}");
        // The latest round IS the run max, so the gauge reads full.
        assert!(
            r.contains("mem level   [########################] 100.0%"),
            "{r}"
        );

        let text = dash.prometheus();
        assert!(text.contains("# TYPE fhdnn_mem_peak_bytes gauge"));
        assert!(text.contains("fhdnn_mem_peak_bytes{engine=\"fedhd\"} 2097152"));
        assert!(text.contains("fhdnn_mem_allocs{engine=\"fedhd\"} 64"));
        assert!(text.contains("fhdnn_mem_bytes_per_client{engine=\"fedhd\"} 524288"));
    }

    /// `mem_line` plus the fleet-telemetry sketch fields (divergence
    /// quantiles, p99s, cohort estimate, exemplars, trace drops).
    fn fleet_line(round: u64, acc: f64, cohort: u64, dropped: u64) -> String {
        mem_line(round, acc, 1 << 20, 1 << 18).replace(
            r#""mem_allocs":64"#,
            &format!(
                r#""mem_allocs":64,"div_p50":0.11,"div_p95":0.28,"div_p99":0.33,"uplink_p99_bytes":4096,"damage_p99":17,"sim_compute_p99_micros":90000,"cohort_clients":{cohort},"exemplars":"div:2:3.1000|dmg:7:17|crit:1:91000","trace_dropped":{dropped}"#
            ),
        )
    }

    #[test]
    fn fleet_rows_gate_on_cohort_and_render_deterministically() {
        // Pre-fleet streams parse a zero cohort estimate and must keep
        // the pre-fleet dashboard byte-for-byte.
        let old = Dashboard::from_jsonl_str(&fixture_stream()).render();
        assert!(!old.contains("fleet"), "{old}");
        assert!(!old.contains("exemplars"), "{old}");
        assert!(!old.contains("trace drops"), "{old}");

        let mut s = String::new();
        s.push_str(&fleet_line(0, 0.4, 9, 0));
        s.push('\n');
        s.push_str(&fleet_line(1, 0.8, 12, 5));
        s.push('\n');
        let dash = Dashboard::from_jsonl_str(&s);
        assert_eq!(dash.records()[1].cohort_clients, 12);
        assert_eq!(dash.records()[1].trace_dropped, 5);
        let r = dash.render();
        assert!(
            r.contains("fleet       ~12 client(s)  div p50 0.1100  p95 0.2800  p99 0.3300"),
            "{r}"
        );
        assert!(
            r.contains("fleet p99   uplink 4096 B  damage 17  sim compute 90000 us"),
            "{r}"
        );
        assert!(r.contains("exemplars   kind  client  score"), "{r}");
        assert!(r.contains("div        2  3.1000"), "{r}");
        assert!(r.contains("dmg        7  17"), "{r}");
        assert!(r.contains("crit       1  91000"), "{r}");
        assert!(r.contains("trace drops 5 task trace(s) evicted"), "{r}");
        assert_eq!(r, Dashboard::from_jsonl_str(&s).render());

        // A drop-free fleet stream keeps the fleet rows but stays silent
        // about the (empty) trace ring.
        let quiet = Dashboard::from_jsonl_str(&fleet_line(0, 0.4, 9, 0)).render();
        assert!(quiet.contains("fleet"), "{quiet}");
        assert!(!quiet.contains("trace drops"), "{quiet}");
    }

    #[test]
    fn fleet_gauges_export_to_prometheus() {
        let mut s = String::new();
        s.push_str(&fleet_line(0, 0.4, 9, 2));
        s.push('\n');
        s.push_str(&fleet_line(1, 0.8, 12, 3));
        s.push('\n');
        let text = Dashboard::from_jsonl_str(&s).prometheus();
        assert!(text.contains("# TYPE fhdnn_health_divergence_quantile gauge"));
        assert!(text
            .contains("fhdnn_health_divergence_quantile{engine=\"fedhd\",quantile=\"0.5\"} 0.11"));
        assert!(text
            .contains("fhdnn_health_divergence_quantile{engine=\"fedhd\",quantile=\"0.99\"} 0.33"));
        assert!(text.contains("fhdnn_health_uplink_p99_bytes{engine=\"fedhd\"} 4096"));
        assert!(text.contains("fhdnn_health_damage_p99{engine=\"fedhd\"} 17"));
        assert!(text.contains("fhdnn_health_sim_compute_p99_micros{engine=\"fedhd\"} 90000"));
        assert!(text.contains("fhdnn_health_cohort_clients{engine=\"fedhd\"} 12"));
        // Drops accumulate across the run.
        assert!(text.contains("fhdnn_trace_dropped_total{engine=\"fedhd\"} 5"));
        assert!(text.contains("fhdnn_health_norm_min{engine=\"fedhd\"} 1"));
        assert!(text.contains("fhdnn_health_norm_max{engine=\"fedhd\"} 2"));
        assert!(text.contains("# TYPE fhdnn_health_noise_energy gauge"));
        // Pre-fleet streams export none of the sketch families.
        let old = Dashboard::from_jsonl_str(&fixture_stream()).prometheus();
        assert!(!old.contains("fhdnn_health_divergence_quantile"), "{old}");
        assert!(!old.contains("fhdnn_trace_dropped_total"), "{old}");
    }

    #[test]
    fn exemplar_strings_parse_and_skip_malformed_segments() {
        assert_eq!(
            parse_exemplars("div:2:3.1000|dmg:7:17|crit:1:91000"),
            vec![
                ("div", "2", "3.1000"),
                ("dmg", "7", "17"),
                ("crit", "1", "91000"),
            ]
        );
        assert!(parse_exemplars("").is_empty());
        assert_eq!(
            parse_exemplars("div:2:1.0|junk|:x:y"),
            vec![("div", "2", "1.0")]
        );
    }

    /// A `trace.round` execution-trace summary event, as the round
    /// engines emit since round-anatomy tracing landed.
    fn trace_line(round: u64, critical: u64, util: f64) -> String {
        format!(
            concat!(
                r#"{{"ts":{ts},"kind":"event","name":"trace.round","fields":{{"#,
                r#""critical_client":{critical},"engine":"fedhd","queue_depth_max":3,"#,
                r#""round":{round},"sim_critical_micros":210000,"sim_round_micros":320000,"#,
                r#""tasks":4,"worker_utilization":{util},"workers":2}}}}"#
            ),
            ts = round * 10 + 7,
            round = round,
            critical = critical,
            util = util,
        )
    }

    #[test]
    fn trace_rows_render_worker_gauge_and_critical_column() {
        // Pre-trace streams must keep the pre-trace dashboard exactly.
        let old = Dashboard::from_jsonl_str(&fixture_stream());
        assert!(old.traces().is_empty());
        let old_render = old.render();
        assert!(!old_render.contains("workers"), "{old_render}");
        assert!(!old_render.contains("crit"), "{old_render}");

        let mut s = fixture_stream();
        s.push_str(&trace_line(1, 3, 0.75));
        s.push('\n');
        let dash = Dashboard::from_jsonl_str(&s);
        assert_eq!(dash.traces().len(), 1);
        assert_eq!(dash.traces()[0].critical_client, 3);
        assert_eq!(dash.traces()[0].sim_round_micros, 320_000);
        let r = dash.render();
        assert!(r.contains("workers"), "{r}");
        assert!(r.contains("util of 2 worker(s), max queue 3"), "{r}");
        assert!(r.contains("75.0%"), "{r}");
        assert!(r.contains("crit"), "{r}");
        // Round 1 names client 3 on the critical path; round 0 predates
        // the trace and renders '-'.
        let row1 = r.lines().find(|l| l.starts_with("    1")).unwrap();
        assert!(row1.contains('3'), "{row1}");
        let row0 = r.lines().find(|l| l.starts_with("    0")).unwrap();
        assert!(row0.contains('-'), "{row0}");
        assert_eq!(r, Dashboard::from_jsonl_str(&s).render());
    }

    #[test]
    fn trace_gauges_export_to_prometheus() {
        let mut s = fixture_stream();
        s.push_str(&trace_line(1, 3, 0.75));
        s.push('\n');
        let text = Dashboard::from_jsonl_str(&s).prometheus();
        assert!(text.contains("# TYPE fhdnn_trace_worker_utilization gauge"));
        assert!(text.contains("fhdnn_trace_worker_utilization{engine=\"fedhd\"} 0.75"));
        assert!(text.contains("fhdnn_trace_critical_client{engine=\"fedhd\"} 3"));
        assert!(text.contains("fhdnn_trace_sim_round_micros{engine=\"fedhd\"} 320000"));
        assert!(text.contains("fhdnn_trace_queue_depth_max{engine=\"fedhd\"} 3"));
        // Pre-trace streams export no trace families at all.
        let old = Dashboard::from_jsonl_str(&fixture_stream()).prometheus();
        assert!(!old.contains("fhdnn_trace_"), "{old}");
    }

    #[test]
    fn prometheus_families_all_have_help_and_type_and_replay_identically() {
        let mut s = fixture_stream();
        s.push_str(&mem_line(2, 0.9, 1 << 20, 1 << 16));
        s.push('\n');
        s.push_str(&fleet_line(3, 0.91, 15, 4));
        s.push('\n');
        s.push_str(&trace_line(3, 1, 0.5));
        s.push('\n');
        let text = Dashboard::from_jsonl_str(&s).prometheus();
        assert_eq!(
            text,
            Dashboard::from_jsonl_str(&s).prometheus(),
            "replaying the same stream must export the same bytes"
        );
        let mut helped = std::collections::HashSet::new();
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split_whitespace().next().unwrap().to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split_whitespace().next().unwrap().to_string());
            } else {
                let family = line.split(['{', ' ']).next().unwrap().to_string();
                assert!(helped.contains(&family), "sample without # HELP: {line}");
                assert!(typed.contains(&family), "sample without # TYPE: {line}");
            }
        }
    }

    #[test]
    fn sparkline_and_gauge_are_clamped() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(gauge(0.0, 4), "[....] 0.0%");
        assert_eq!(gauge(1.0, 4), "[####] 100.0%");
        assert_eq!(gauge(2.0, 4), "[####] 100.0%");
        assert_eq!(gauge(f64::NAN, 4), "[....] 0.0%");
    }
}
