//! Span-tree profiling: turn recorded spans into a call tree.
//!
//! The FHDnn paper's claims are *cost* claims — per-round clock time on
//! edge devices, airtime on lossy links — so the reproduction needs to
//! see where its own wall-clock goes. Every [`crate::Recorder`] already
//! aggregates spans by full path (the `;`-joined chain of enclosing span
//! names); this module folds those paths into a [`Profile`] tree with,
//! per node:
//!
//! - call count, total (inclusive) time, self time (total minus
//!   children),
//! - p50/p99 of individual span durations (via
//!   [`crate::sketch::QuantileSketch::quantile`]),
//!
//! and renders either an aligned text report ([`Profile::render`]) or a
//! collapsed-stack export ([`Profile::collapsed`]) that `flamegraph.pl` /
//! `inferno` consume directly.
//!
//! Profiles build from three sources:
//!
//! - a live recorder: [`Profile::from_recorder`],
//! - raw path stats: [`Profile::from_path_stats`],
//! - a recorded `--telemetry` JSONL stream: [`Profile::from_jsonl_str`] /
//!   [`Profile::from_jsonl_path`] — offline profiling of a past run.
//!
//! The per-name totals of a profile always agree with the recorder's flat
//! [`crate::SpanStat`]s (see [`Profile::flat_totals`]): both are fed by
//! the same span closures.

use std::collections::BTreeMap;

use std::fmt::Write as _;

use crate::jsonl::{self, Value};
use crate::mem::fmt_bytes;
use crate::sketch::QuantileSketch;
use crate::{fmt_micros, PathStat, Recorder, SpanStat, PATH_SEPARATOR};

/// One node of the span call tree.
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    /// Leaf span name (the last path segment).
    pub name: String,
    /// Completed span count at this exact path.
    pub count: u64,
    /// Total (inclusive) time across completions, microseconds.
    pub total_micros: u64,
    /// Distribution of individual span durations, microseconds.
    pub durations: QuantileSketch,
    /// Total (inclusive) allocations attributed to this path.
    pub allocs: u64,
    /// Total (inclusive) bytes allocated on this path (gross).
    pub alloc_bytes: u64,
    /// Children, keyed by leaf name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// `total(self)` minus the children's totals, saturating.
    fn own(&self, total: fn(&ProfileNode) -> u64) -> u64 {
        total(self).saturating_sub(self.children.values().map(total).sum())
    }

    /// Self time: total minus the children's totals (saturating — a
    /// child measured on a different clock granularity can nominally
    /// exceed its parent by a rounding quantum).
    pub fn self_micros(&self) -> u64 {
        self.own(|n| n.total_micros)
    }

    /// Self allocations: total minus the children's totals (saturating —
    /// a child span replayed from a worker buffer measures the worker's
    /// counters while the parent measures the barrier thread's, so the
    /// nesting is advisory, not arithmetic).
    pub fn self_allocs(&self) -> u64 {
        self.own(|n| n.allocs)
    }

    /// Self allocated bytes: total minus the children's totals
    /// (saturating, same caveat as [`ProfileNode::self_allocs`]).
    pub fn self_alloc_bytes(&self) -> u64 {
        self.own(|n| n.alloc_bytes)
    }

    /// p50 of individual span durations at this path, microseconds.
    pub fn p50_micros(&self) -> f64 {
        self.durations.quantile(0.5)
    }

    /// p99 of individual span durations at this path, microseconds.
    pub fn p99_micros(&self) -> f64 {
        self.durations.quantile(0.99)
    }
}

/// A span call tree aggregated over one run (or one recorded stream).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    roots: BTreeMap<String, ProfileNode>,
}

impl Profile {
    /// Builds the tree from `;`-joined path aggregates.
    pub fn from_path_stats(stats: &BTreeMap<String, PathStat>) -> Profile {
        fn insert(level: &mut BTreeMap<String, ProfileNode>, segs: &[&str], stat: &PathStat) {
            let Some((head, rest)) = segs.split_first() else {
                return;
            };
            let node = level
                .entry((*head).to_string())
                .or_insert_with(|| ProfileNode {
                    name: (*head).to_string(),
                    ..ProfileNode::default()
                });
            if rest.is_empty() {
                node.count += stat.count;
                node.total_micros += stat.total_micros;
                node.durations.merge(&stat.durations);
                node.allocs += stat.allocs;
                node.alloc_bytes += stat.alloc_bytes;
            } else {
                insert(&mut node.children, rest, stat);
            }
        }
        let mut profile = Profile::default();
        for (path, stat) in stats {
            let segs: Vec<&str> = path.split(PATH_SEPARATOR).collect();
            insert(&mut profile.roots, &segs, stat);
        }
        profile
    }

    /// Snapshot of a live recorder's span paths.
    pub fn from_recorder(recorder: &Recorder) -> Profile {
        Profile::from_path_stats(&recorder.path_stats())
    }

    /// Aggregates the span events of a recorded JSONL telemetry stream.
    ///
    /// Lines that are not valid JSON or not `kind == "span"` are skipped
    /// (the stream interleaves counters, gauges and free-form events);
    /// span events missing a `path` field (recordings made before path
    /// tracking) fall back to their flat name, yielding a one-level tree.
    ///
    /// # Errors
    ///
    /// Returns an error if *no* span event is found — almost always the
    /// wrong file rather than a legitimately empty profile.
    pub fn from_jsonl_str(stream: &str) -> Result<Profile, String> {
        let mut stats: BTreeMap<String, PathStat> = BTreeMap::new();
        jsonl::read_records(stream, |kind, name, fields| {
            if kind != "span" {
                return;
            }
            // Allocation fields absent on pre-mem recordings default 0.
            let int = |key| fields.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let path = fields.get("path").and_then(Value::as_str).unwrap_or(name);
            crate::slot(&mut stats, path).record(int("micros"), int("allocs"), int("alloc_bytes"));
        });
        if stats.is_empty() {
            return Err(
                "no span events found in stream (is this a --telemetry JSONL file?)".into(),
            );
        }
        Ok(Profile::from_path_stats(&stats))
    }

    /// Reads and aggregates a recorded JSONL telemetry file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and [`Profile::from_jsonl_str`] errors.
    pub fn from_jsonl_path(path: impl AsRef<std::path::Path>) -> Result<Profile, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Profile::from_jsonl_str(&text)
    }

    /// Root nodes of the tree, in name order.
    pub fn roots(&self) -> impl Iterator<Item = &ProfileNode> {
        self.roots.values()
    }

    /// `true` when no spans were aggregated.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Per-name rollup across all paths: flat totals that match the
    /// recorder's [`Recorder::span_stats`] for the same run.
    pub fn flat_totals(&self) -> BTreeMap<String, SpanStat> {
        let mut flat: BTreeMap<String, SpanStat> = BTreeMap::new();
        let mut stack: Vec<&ProfileNode> = self.roots.values().collect();
        while let Some(node) = stack.pop() {
            let stat = flat.entry(node.name.clone()).or_default();
            stat.count += node.count;
            stat.total_micros += node.total_micros;
            stack.extend(node.children.values());
        }
        flat
    }

    /// Sum of root totals — the profile's accounted wall-clock.
    pub fn total_micros(&self) -> u64 {
        self.roots.values().map(|n| n.total_micros).sum()
    }

    /// The one tree renderer behind both reports: one row per path,
    /// children indented under parents, siblings ordered by `sort_key`
    /// (descending, then by name), a `count` column and four more whose
    /// `(heading, width)` and per-node text the caller supplies.
    fn render_tree(
        &self,
        title: &str,
        sort_key: fn(&ProfileNode) -> u64,
        columns: [(&str, usize); 4],
        cells: fn(&ProfileNode) -> [String; 4],
    ) -> String {
        if self.is_empty() {
            return "profile: no spans recorded\n".into();
        }
        // First pass: collect rows to size the name column.
        fn walk<'a>(
            nodes: &'a BTreeMap<String, ProfileNode>,
            depth: usize,
            sort_key: fn(&ProfileNode) -> u64,
            out: &mut Vec<(usize, &'a ProfileNode)>,
        ) {
            let mut ordered: Vec<&ProfileNode> = nodes.values().collect();
            ordered.sort_by(|a, b| {
                sort_key(b)
                    .cmp(&sort_key(a))
                    .then_with(|| a.name.cmp(&b.name))
            });
            for n in ordered {
                out.push((depth, n));
                walk(&n.children, depth + 1, sort_key, out);
            }
        }
        let mut rows = Vec::new();
        walk(&self.roots, 0, sort_key, &mut rows);
        let name_width = rows
            .iter()
            .map(|(d, n)| 2 * d + n.name.len())
            .max()
            .unwrap_or(0)
            .max(title.len());

        let mut out = format!("{title:<name_width$}  {:>8}", "count");
        for (heading, width) in columns {
            let _ = write!(out, "  {heading:>width$}");
        }
        out.push('\n');
        for (depth, node) in rows {
            let name = format!("{}{}", "  ".repeat(depth), node.name);
            let _ = write!(out, "{name:<name_width$}  {:>8}", node.count);
            for (cell, (_, width)) in cells(node).iter().zip(columns) {
                let _ = write!(out, "  {cell:>width$}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the aligned span-tree report: one row per path, children
    /// indented under parents and sorted by total time (descending), with
    /// count, total, self, p50 and p99 columns.
    pub fn render(&self) -> String {
        self.render_tree(
            "span tree",
            |n| n.total_micros,
            [("total", 10), ("self", 10), ("p50", 10), ("p99", 10)],
            |n| {
                [
                    fmt_micros(n.total_micros as f64),
                    fmt_micros(n.self_micros() as f64),
                    fmt_micros(n.p50_micros()),
                    fmt_micros(n.p99_micros()),
                ]
            },
        )
    }

    /// Renders the allocation tree: the same span hierarchy as
    /// [`Profile::render`], but with allocation columns — call count,
    /// total/self allocation counts and total/self allocated bytes —
    /// sorted by total allocated bytes (descending). `fhdnn profile
    /// --mem` prints this next to the time tree.
    pub fn render_mem(&self) -> String {
        self.render_tree(
            "allocation tree",
            |n| n.alloc_bytes,
            [("allocs", 10), ("self", 10), ("bytes", 11), ("self", 11)],
            |n| {
                [
                    n.allocs.to_string(),
                    n.self_allocs().to_string(),
                    fmt_bytes(n.alloc_bytes),
                    fmt_bytes(n.self_alloc_bytes()),
                ]
            },
        )
    }

    /// Collapsed-stack export: one `path;leaf weight` line per node with
    /// nonzero self time, weights in microseconds — the input format of
    /// `flamegraph.pl` and `inferno-flamegraph`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        fn walk(prefix: &str, nodes: &BTreeMap<String, ProfileNode>, out: &mut String) {
            for node in nodes.values() {
                let path = if prefix.is_empty() {
                    node.name.clone()
                } else {
                    format!("{prefix}{PATH_SEPARATOR}{}", node.name)
                };
                let own = node.self_micros();
                if own > 0 {
                    out.push_str(&path);
                    out.push(' ');
                    out.push_str(&own.to_string());
                    out.push('\n');
                }
                walk(&path, &node.children, out);
            }
        }
        walk("", &self.roots, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    fn fixture_recorder() -> (crate::Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let clock = Arc::new(ManualClock::new(10));
        let tel = Recorder::with_sink_and_clock(sink.clone(), clock);
        for _ in 0..3 {
            let _round = tel.span("round");
            {
                let _t = tel.span("transmit");
                let _q = tel.span("quantize");
            }
            let _e = tel.span("eval");
        }
        (tel, sink)
    }

    #[test]
    fn tree_structure_and_self_time() {
        let (tel, _) = fixture_recorder();
        let p = Profile::from_recorder(&tel);
        let round = p.roots().next().unwrap();
        assert_eq!(round.name, "round");
        assert_eq!(round.count, 3);
        assert_eq!(round.children.len(), 2);
        let transmit = &round.children["transmit"];
        assert_eq!(transmit.count, 3);
        assert_eq!(transmit.children["quantize"].count, 3);
        // Inclusive totals nest: parent >= child, self = total - children.
        assert!(transmit.total_micros >= transmit.children["quantize"].total_micros);
        assert_eq!(
            transmit.self_micros(),
            transmit.total_micros - transmit.children["quantize"].total_micros
        );
        assert!(round.total_micros >= transmit.total_micros);
    }

    #[test]
    fn flat_totals_agree_with_recorder_span_stats() {
        let (tel, _) = fixture_recorder();
        let p = Profile::from_recorder(&tel);
        assert_eq!(p.flat_totals(), tel.span_stats());
    }

    #[test]
    fn render_is_aligned_and_ordered() {
        let (tel, _) = fixture_recorder();
        let report = Profile::from_recorder(&tel).render();
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[0].contains("span tree"));
        assert!(lines[0].contains("p99"));
        // Children are indented under the root.
        assert!(report.contains("\nround "), "{report}");
        assert!(report.contains("\n  transmit"), "{report}");
        assert!(report.contains("\n    quantize"), "{report}");
        // All rows share the header's column structure.
        let header_cols = lines[0].split_whitespace().count();
        assert!(header_cols >= 6);
        assert!(Profile::default().render().contains("no spans"));
    }

    #[test]
    fn collapsed_stacks_are_flamegraph_shaped() {
        let (tel, _) = fixture_recorder();
        let folded = Profile::from_recorder(&tel).collapsed();
        assert!(folded.contains("round;transmit;quantize "), "{folded}");
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            assert!(weight.parse::<u64>().unwrap() > 0, "{line}");
        }
    }

    #[test]
    fn offline_jsonl_replay_matches_live_profile() {
        let (tel, sink) = fixture_recorder();
        let stream = sink
            .events()
            .iter()
            .map(crate::event::Event::to_json)
            .collect::<Vec<_>>()
            .join("\n");
        let live = Profile::from_recorder(&tel);
        let replayed = Profile::from_jsonl_str(&stream).unwrap();
        assert_eq!(replayed.flat_totals(), live.flat_totals());
        assert_eq!(replayed.total_micros(), live.total_micros());
        assert_eq!(replayed.render(), live.render());
        // The allocation columns survive the JSONL round trip too.
        assert_eq!(replayed.render_mem(), live.render_mem());
    }

    #[test]
    fn mem_tree_renders_allocation_columns() {
        let tel = Recorder::in_memory();
        {
            let _outer = tel.span("round");
            let _inner = tel.span("round.local_train");
            let v: Vec<u8> = Vec::with_capacity(50_000);
            drop(v);
        }
        let p = Profile::from_recorder(&tel);
        let report = p.render_mem();
        assert!(report.contains("allocation tree"), "{report}");
        assert!(report.contains("bytes"), "{report}");
        assert!(report.contains("\n  round.local_train"), "{report}");
        assert!(report.contains("KiB"), "the 50 KB vec shows up: {report}");
        // Inclusive nesting: the parent's bytes cover the child's.
        let round = p.roots().next().unwrap();
        let child = &round.children["round.local_train"];
        assert!(child.alloc_bytes >= 50_000);
        assert!(round.alloc_bytes >= child.alloc_bytes);
        assert_eq!(
            round.self_alloc_bytes(),
            round.alloc_bytes - child.alloc_bytes
        );
        assert!(Profile::default().render_mem().contains("no spans"));
    }

    #[test]
    fn jsonl_without_paths_degrades_to_flat_tree() {
        let stream = r#"
{"ts":1,"kind":"span","name":"a","fields":{"micros":10}}
{"ts":2,"kind":"span","name":"a","fields":{"micros":20}}
{"ts":3,"kind":"counter","name":"c","fields":{"delta":1,"total":1}}
not json at all
"#;
        let p = Profile::from_jsonl_str(stream).unwrap();
        let a = p.roots().next().unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.total_micros, 30);
        assert!(a.children.is_empty());
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert!(Profile::from_jsonl_str("").is_err());
        assert!(Profile::from_jsonl_str("{\"kind\":\"gauge\"}").is_err());
    }
}
