//! Zero-dependency microbench harness.
//!
//! The tracked perf trajectory — `BENCH_kernels.json` /
//! `BENCH_rounds.json` at the repo root — comes from this small harness
//! so it can run as a `repro` subcommand, in CI smoke mode, and inside
//! the regression gate without extra tooling (the Criterion suite it
//! once sat beside is gone: every shape it timed has a row here or in the
//! campaign benchmark). The statistics are deliberately simple and
//! robust: per-sample timing of fixed-iteration batches after a warmup,
//! summarized by the median with the MAD (median absolute deviation) as
//! the spread estimate, both insensitive to the occasional scheduler
//! hiccup that would wreck a mean/stddev summary.
//!
//! Baselines are parsed back with [`fhdnn::telemetry::jsonl`], the same
//! zero-dependency JSON reader the profiler uses for offline replay, so
//! the gate has no parsing dependencies of its own.

use std::fmt::Write as _;
use std::time::Instant;

use fhdnn::telemetry::jsonl;

/// Re-export of the standard optimization barrier: keeps benched values
/// alive without letting the optimizer see through them.
pub use std::hint::black_box;

/// Iteration/sampling plan for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Untimed iterations before sampling starts (caches, allocator,
    /// branch predictors).
    pub warmup_iters: u64,
    /// Timed batches; the reported `ns_per_iter` is their median.
    pub samples: u64,
    /// Multiplier applied to each bench's nominal per-sample iteration
    /// count (1.0 = full scale, smoke mode uses a small fraction).
    pub iter_scale: f64,
}

impl BenchConfig {
    /// Full-scale plan used when refreshing committed baselines.
    pub fn standard() -> Self {
        BenchConfig {
            warmup_iters: 3,
            samples: 9,
            iter_scale: 1.0,
        }
    }

    /// Tiny plan for CI smoke runs: exercises every bench end-to-end in
    /// seconds; the numbers are only held to a loose tolerance.
    pub fn smoke() -> Self {
        BenchConfig {
            warmup_iters: 1,
            samples: 3,
            iter_scale: 0.05,
        }
    }

    /// Scales a bench's nominal per-sample iteration count, never below 1.
    pub fn iters(&self, nominal: u64) -> u64 {
        ((nominal as f64 * self.iter_scale).round() as u64).max(1)
    }
}

/// One bench's summary, serialized verbatim into `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable bench identifier, e.g. `hdc.encode`.
    pub name: String,
    /// Median wall time per iteration in nanoseconds.
    pub ns_per_iter: f64,
    /// Items processed per second (items/iteration × iterations/second).
    pub throughput: f64,
    /// Number of timed samples behind the median.
    pub samples: u64,
    /// Median absolute deviation of the per-sample ns/iter readings.
    pub mad_ns: f64,
    /// Heap allocations per iteration (thread-local tracked-allocator
    /// count over every timed sample, divided by total iterations).
    pub allocs_per_iter: f64,
    /// Gross heap bytes allocated per iteration.
    pub bytes_per_iter: f64,
    /// `git rev-parse --short HEAD` at measurement time, or `unknown`.
    pub git_rev: String,
}

/// Times `f` under the plan in `cfg`: warmup, then `cfg.samples` batches
/// of `cfg.iters(nominal_iters)` calls each. `items_per_iter` feeds the
/// throughput figure (e.g. encoded vectors per call).
pub fn run_bench<F: FnMut()>(
    name: &str,
    cfg: &BenchConfig,
    nominal_iters: u64,
    items_per_iter: f64,
    mut f: F,
) -> BenchResult {
    let iters = cfg.iters(nominal_iters);
    // Warmup also absorbs lazy one-time allocations (thread-local
    // buffers, lookup tables) so the tracked counts below measure the
    // steady state.
    for _ in 0..cfg.warmup_iters.max(1) {
        f();
    }
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(cfg.samples as usize);
    // Process-wide allocation counters bracket the timed loops only:
    // `per_iter_ns` is pre-sized, so the harness's own bookkeeping never
    // allocates inside the bracket. Global (not thread-local) counters
    // are deliberate — round benches fan work out to scoped workers, and
    // their allocations belong to the bench. The `repro` binary runs
    // benches one at a time, so nothing else contributes.
    let before = fhdnn::telemetry::mem::stats();
    for _ in 0..cfg.samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    let after = fhdnn::telemetry::mem::stats();
    let (d_allocs, d_bytes) = (
        after.allocs.saturating_sub(before.allocs),
        after.alloc_bytes.saturating_sub(before.alloc_bytes),
    );
    let total_iters = (per_iter_ns.len() as u64 * iters).max(1) as f64;
    let ns = median(&per_iter_ns);
    let deviations: Vec<f64> = per_iter_ns.iter().map(|&s| (s - ns).abs()).collect();
    BenchResult {
        name: name.to_string(),
        ns_per_iter: ns,
        throughput: if ns > 0.0 {
            items_per_iter * 1e9 / ns
        } else {
            0.0
        },
        samples: per_iter_ns.len() as u64,
        mad_ns: median(&deviations),
        allocs_per_iter: d_allocs as f64 / total_iters,
        bytes_per_iter: d_bytes as f64 / total_iters,
        git_rev: git_rev(),
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The short git revision of the working tree, or `unknown` outside a
/// repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders a result set as the stable `BENCH_*.json` document:
/// `{"schema": "fhdnn-bench-v1", "git_rev": ..., "benches": [...]}` with
/// one `{name, ns_per_iter, throughput, samples, git_rev}` entry per
/// bench (plus `mad_ns` for the spread and `allocs_per_iter` /
/// `bytes_per_iter` for the allocation trajectory).
pub fn to_json(results: &[BenchResult]) -> String {
    let rev = results
        .first()
        .map(|r| r.git_rev.clone())
        .unwrap_or_else(git_rev);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"fhdnn-bench-v1\",");
    let _ = writeln!(out, "  \"git_rev\": {},", json_str(&rev));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"ns_per_iter\": {:.1}, \"throughput\": {:.1}, \"samples\": {}, \"mad_ns\": {:.1}, \"allocs_per_iter\": {:.2}, \"bytes_per_iter\": {:.1}, \"git_rev\": {}}}",
            json_str(&r.name),
            r.ns_per_iter,
            r.throughput,
            r.samples,
            r.mad_ns,
            r.allocs_per_iter,
            r.bytes_per_iter,
            json_str(&r.git_rev),
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    jsonl::Value::Str(s.to_string()).to_string()
}

/// Absolute slack for the allocation-count gate: deviations at or below
/// this many allocations per iteration never fail, so near-zero counts
/// (where relative tolerance degenerates) stay gateable.
pub const ALLOC_SLACK: f64 = 2.0;

/// Absolute slack for the allocation-bytes gate, for the same reason
/// (one size-class rounding step should not trip CI).
pub const BYTES_SLACK: f64 = 4096.0;

/// One gate comparison row: a bench present in both the baseline and the
/// current run.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Bench name shared by both sides.
    pub name: String,
    /// Baseline ns/iter.
    pub baseline_ns: f64,
    /// Current ns/iter.
    pub current_ns: f64,
    /// Signed relative deviation `(current - baseline) / baseline`.
    pub delta: f64,
    /// Whether `|delta|` exceeds the gate tolerance.
    pub failed: bool,
    /// Baseline allocations per iteration; `None` for baselines written
    /// before allocation tracking existed (the alloc gate then skips).
    pub baseline_allocs: Option<f64>,
    /// Current allocations per iteration.
    pub current_allocs: f64,
    /// Baseline bytes per iteration (`None` on pre-tracking baselines).
    pub baseline_bytes: Option<f64>,
    /// Current bytes per iteration.
    pub current_bytes: f64,
    /// Whether the allocation columns (counts or bytes) deviate beyond
    /// the same two-sided tolerance, past the absolute slack.
    pub alloc_failed: bool,
}

/// Outcome of gating current results against one baseline file.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Baseline path, echoed for the report.
    pub baseline_path: String,
    /// Per-bench comparisons for benches present on both sides.
    pub rows: Vec<GateRow>,
    /// Baseline benches with no current measurement (always a failure:
    /// a silently vanished bench must not pass the gate).
    pub missing: Vec<String>,
}

impl GateReport {
    /// True when every compared bench is within tolerance on both the
    /// time and allocation columns and no baseline bench went missing.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| !r.failed && !r.alloc_failed)
    }

    /// Renders the gate outcome as an aligned text table.
    pub fn render(&self, tol: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "regression gate vs {} (tol ±{:.0}%, time and allocations)",
            self.baseline_path,
            tol * 100.0
        );
        let width = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(self.missing.iter().map(|n| n.len()))
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>14}  {:>14}  {:>8}  {:>16}  {:>18}  status",
            "name", "baseline ns", "current ns", "delta", "allocs/iter", "bytes/iter"
        );
        let pair = |base: Option<f64>, cur: f64| match base {
            Some(b) => format!("{b:.1}\u{2192}{cur:.1}"),
            None => format!("-\u{2192}{cur:.1}"),
        };
        for r in &self.rows {
            let status = match (r.failed, r.alloc_failed) {
                (false, false) => "ok".to_string(),
                (true, false) => "FAIL (time)".to_string(),
                (false, true) => "FAIL (alloc)".to_string(),
                (true, true) => "FAIL (time, alloc)".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {:>14.1}  {:>14.1}  {:>7.1}%  {:>16}  {:>18}  {}",
                r.name,
                r.baseline_ns,
                r.current_ns,
                r.delta * 100.0,
                pair(r.baseline_allocs, r.current_allocs),
                pair(r.baseline_bytes, r.current_bytes),
                status
            );
        }
        for name in &self.missing {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>14}  {:>14}  {:>8}  {:>16}  {:>18}  FAIL (missing)",
                name, "-", "-", "-", "-", "-"
            );
        }
        out
    }
}

/// One baseline bench entry as parsed from a committed `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Stable bench identifier.
    pub name: String,
    /// Committed ns/iter.
    pub ns_per_iter: f64,
    /// Committed allocations per iteration; `None` on baselines written
    /// before allocation tracking existed (back-compat: the alloc gate
    /// then skips this bench).
    pub allocs_per_iter: Option<f64>,
    /// Committed bytes per iteration (`None` on pre-tracking baselines).
    pub bytes_per_iter: Option<f64>,
}

/// Parses a committed `BENCH_*.json` baseline into [`BaselineEntry`]
/// rows. Accepts both the wrapped document this harness writes and a
/// bare array of bench entries; allocation columns are optional so
/// pre-tracking baselines still load.
///
/// # Errors
///
/// Returns a description of the first structural problem (unreadable
/// file, invalid JSON, missing fields).
pub fn load_baseline(path: &str) -> Result<Vec<BaselineEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = jsonl::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let entries = match doc.get("benches") {
        Some(jsonl::Value::Arr(items)) => items.as_slice(),
        _ => match &doc {
            jsonl::Value::Arr(items) => items.as_slice(),
            _ => return Err(format!("{path}: expected a \"benches\" array")),
        },
    };
    let mut out = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(jsonl::Value::as_str)
            .ok_or_else(|| format!("{path}: bench #{i} has no \"name\""))?;
        let ns = e
            .get("ns_per_iter")
            .and_then(jsonl::Value::as_f64)
            .ok_or_else(|| format!("{path}: bench {name} has no \"ns_per_iter\""))?;
        out.push(BaselineEntry {
            name: name.to_string(),
            ns_per_iter: ns,
            allocs_per_iter: e.get("allocs_per_iter").and_then(jsonl::Value::as_f64),
            bytes_per_iter: e.get("bytes_per_iter").and_then(jsonl::Value::as_f64),
        });
    }
    Ok(out)
}

/// Two-sided deviation check with an absolute slack floor: fails when
/// `|current − base|` exceeds both `slack` and `tol × base`. Allocation
/// counts are near-deterministic, so the slack only shields counts so
/// small that relative tolerance degenerates.
fn beyond(base: f64, current: f64, tol: f64, slack: f64) -> bool {
    let dev = (current - base).abs();
    dev > slack && dev > tol * base.abs()
}

/// Gates `current` against a baseline: the relative deviation of each
/// shared bench must stay within `tol` in **either** direction, for the
/// time column and (when the baseline carries them) the allocation
/// columns alike. Slower means a regression; dramatically faster means
/// the committed baseline is stale and must be refreshed — both should
/// stop CI. The same two-sided logic gates allocations: more means a
/// regression, fewer means the baseline no longer reflects the code.
/// Baseline benches with no current counterpart are reported as
/// failures.
pub fn gate(
    baseline_path: &str,
    baseline: &[BaselineEntry],
    current: &[BenchResult],
    tol: f64,
) -> GateReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for base in baseline {
        match current.iter().find(|r| r.name == base.name) {
            Some(cur) => {
                let delta = if base.ns_per_iter > 0.0 {
                    (cur.ns_per_iter - base.ns_per_iter) / base.ns_per_iter
                } else {
                    0.0
                };
                let alloc_failed = base
                    .allocs_per_iter
                    .map(|b| beyond(b, cur.allocs_per_iter, tol, ALLOC_SLACK))
                    .unwrap_or(false)
                    || base
                        .bytes_per_iter
                        .map(|b| beyond(b, cur.bytes_per_iter, tol, BYTES_SLACK))
                        .unwrap_or(false);
                rows.push(GateRow {
                    name: base.name.clone(),
                    baseline_ns: base.ns_per_iter,
                    current_ns: cur.ns_per_iter,
                    delta,
                    failed: delta.abs() > tol,
                    baseline_allocs: base.allocs_per_iter,
                    current_allocs: cur.allocs_per_iter,
                    baseline_bytes: base.bytes_per_iter,
                    current_bytes: cur.bytes_per_iter,
                    alloc_failed,
                });
            }
            None => missing.push(base.name.clone()),
        }
    }
    GateReport {
        baseline_path: baseline_path.to_string(),
        rows,
        missing,
    }
}

/// Renders current results as an aligned text table.
pub fn render_results(title: &str, results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let width = results
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = writeln!(
        out,
        "  {:<width$}  {:>14}  {:>10}  {:>16}  {:>7}  {:>12}  {:>14}",
        "name", "ns/iter", "mad", "throughput/s", "samples", "allocs/iter", "bytes/iter"
    );
    for r in results {
        let _ = writeln!(
            out,
            "  {:<width$}  {:>14.1}  {:>10.1}  {:>16.1}  {:>7}  {:>12.2}  {:>14.1}",
            r.name,
            r.ns_per_iter,
            r.mad_ns,
            r.throughput,
            r.samples,
            r.allocs_per_iter,
            r.bytes_per_iter
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, ns: f64) -> BenchResult {
        BenchResult {
            name: name.into(),
            ns_per_iter: ns,
            throughput: 1e9 / ns,
            samples: 5,
            mad_ns: 1.0,
            allocs_per_iter: 16.0,
            bytes_per_iter: 65536.0,
            git_rev: "deadbee".into(),
        }
    }

    fn baseline(name: &str, ns: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.into(),
            ns_per_iter: ns,
            allocs_per_iter: Some(16.0),
            bytes_per_iter: Some(65536.0),
        }
    }

    #[test]
    fn harness_measures_and_summarizes() {
        let cfg = BenchConfig::smoke();
        let mut acc = 0u64;
        let r = run_bench("spin", &cfg, 100, 10.0, || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
        });
        assert_eq!(r.name, "spin");
        assert!(r.ns_per_iter > 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.samples, cfg.samples);
        black_box(acc);
    }

    #[test]
    fn json_round_trips_through_baseline_loader() {
        let results = vec![result("a.one", 120.5), result("b.two", 3456.0)];
        let json = to_json(&results);
        let tmp = std::env::temp_dir().join(format!("fhdnn-bench-{}.json", std::process::id()));
        std::fs::write(&tmp, &json).unwrap();
        let loaded = load_baseline(tmp.to_str().unwrap()).unwrap();
        std::fs::remove_file(&tmp).ok();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].name, "a.one");
        assert!((loaded[0].ns_per_iter - 120.5).abs() < 1e-9);
        // The allocation columns ride the same document.
        assert_eq!(loaded[0].allocs_per_iter, Some(16.0));
        assert_eq!(loaded[0].bytes_per_iter, Some(65536.0));
    }

    #[test]
    fn pre_tracking_baselines_still_load() {
        // A baseline written before allocation columns existed.
        let old = r#"{"schema": "fhdnn-bench-v1", "git_rev": "abc", "benches": [
            {"name": "k", "ns_per_iter": 10.0, "throughput": 1.0, "samples": 3, "mad_ns": 0.1, "git_rev": "abc"}
        ]}"#;
        let tmp = std::env::temp_dir().join(format!("fhdnn-bench-old-{}.json", std::process::id()));
        std::fs::write(&tmp, old).unwrap();
        let loaded = load_baseline(tmp.to_str().unwrap()).unwrap();
        std::fs::remove_file(&tmp).ok();
        assert_eq!(loaded[0].allocs_per_iter, None);
        assert_eq!(loaded[0].bytes_per_iter, None);
        // With no committed allocation columns the alloc gate skips.
        let report = gate("OLD", &loaded, &[result("k", 10.0)], 0.25);
        assert!(report.passed());
        assert!(!report.rows[0].alloc_failed);
    }

    #[test]
    fn gate_is_two_sided_and_flags_missing() {
        let baseline = vec![
            baseline("stable", 100.0),
            baseline("regressed", 100.0),
            baseline("inflated", 1000.0),
            baseline("vanished", 100.0),
        ];
        let current = vec![
            result("stable", 110.0),
            result("regressed", 200.0),
            result("inflated", 100.0),
        ];
        let report = gate("BASE.json", &baseline, &current, 0.25);
        assert!(!report.passed());
        let by_name = |n: &str| report.rows.iter().find(|r| r.name == n).unwrap();
        assert!(!by_name("stable").failed);
        assert!(by_name("regressed").failed, "slower must fail");
        assert!(by_name("inflated").failed, "stale-fast baseline must fail");
        assert_eq!(report.missing, vec!["vanished".to_string()]);
        let rendered = report.render(0.25);
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("missing"));
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let baseline = vec![baseline("k", 100.0)];
        let current = vec![result("k", 80.0)];
        assert!(gate("B", &baseline, &current, 0.25).passed());
    }

    #[test]
    fn alloc_gate_catches_injected_regressions_two_sided() {
        let base = vec![baseline("k", 100.0)];
        // Injected allocation regression: same timing, double the allocs.
        let mut hog = result("k", 100.0);
        hog.allocs_per_iter = 32.0;
        let report = gate("B", &base, &[hog], 0.25);
        assert!(!report.passed());
        assert!(report.rows[0].alloc_failed);
        assert!(!report.rows[0].failed, "time column must stay green");
        assert!(report.render(0.25).contains("FAIL (alloc)"));

        // Two-sided: a large allocation *drop* means the committed
        // baseline is stale and must be refreshed, exactly like time.
        let mut lean = result("k", 100.0);
        lean.allocs_per_iter = 4.0;
        assert!(!gate("B", &base, &[lean], 0.25).passed());

        // Byte inflation alone also trips the gate.
        let mut bloated = result("k", 100.0);
        bloated.bytes_per_iter = 1e6;
        let report = gate("B", &base, &[bloated], 0.25);
        assert!(!report.passed());
        assert!(report.rows[0].alloc_failed);
    }

    #[test]
    fn alloc_gate_slack_shields_tiny_counts() {
        // A 0→2 allocs/iter jitter is within the absolute slack even
        // though the relative deviation is infinite.
        let base = vec![BaselineEntry {
            name: "k".into(),
            ns_per_iter: 100.0,
            allocs_per_iter: Some(0.0),
            bytes_per_iter: Some(0.0),
        }];
        let mut cur = result("k", 100.0);
        cur.allocs_per_iter = ALLOC_SLACK;
        cur.bytes_per_iter = BYTES_SLACK;
        assert!(gate("B", &base, &[cur.clone()], 0.25).passed());
        // One more allocation than the slack allows fails.
        cur.allocs_per_iter = ALLOC_SLACK + 1.0;
        assert!(!gate("B", &base, &[cur], 0.25).passed());
    }

    #[test]
    fn config_scales_iterations_with_floor() {
        let smoke = BenchConfig::smoke();
        assert_eq!(smoke.iters(1), 1);
        assert_eq!(smoke.iters(1000), 50);
        assert_eq!(BenchConfig::standard().iters(1000), 1000);
    }
}
