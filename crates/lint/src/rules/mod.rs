//! Rule registry and shared scoping helpers.
//!
//! Each rule family lives in its own module and exposes
//! `check(files, out)` (the schema rule additionally takes the
//! committed baseline). Rules emit [`RawFinding`]s with a stable rule
//! id; severity defaults live in [`RULES`] and `lint.toml` may
//! override them per id.

pub mod concurrency;
pub mod determinism;
pub mod forbidden;
pub mod panic_path;
pub mod schema_freeze;
pub mod telemetry_registry;
pub mod unsafe_audit;
pub mod unsafe_contract;

use crate::config::Severity;
use crate::source::SourceFile;

/// A finding before severity resolution and allowlisting.
#[derive(Debug)]
pub struct RawFinding {
    pub rule: &'static str,
    pub path: String,
    /// 1-based; 0 for file- or workspace-level findings.
    pub line: usize,
    pub message: String,
}

/// A dirty/clean example pair for `fhdnn lint --explain`: writing
/// `dirty` at `path` in an otherwise-empty workspace trips the rule,
/// `clean` at the same path does not. A test enforces that honesty.
pub struct RuleExample {
    /// Root-relative path that puts the snippet in the rule's scope.
    pub path: &'static str,
    pub dirty: &'static str,
    pub clean: &'static str,
}

/// One registered rule id with its default severity.
pub struct RuleInfo {
    pub id: &'static str,
    pub default_severity: Severity,
    /// One-line description, surfaced by docs/tests.
    pub help: &'static str,
    /// Why the rule exists — what breaks when it is violated.
    pub rationale: &'static str,
    /// Dirty/clean pair for `--explain`; `None` for rules whose
    /// trigger needs workspace context (baselines, registries).
    pub example: Option<RuleExample>,
}

/// Every rule id the engine can emit, sorted by id.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "allowlist/unused",
        default_severity: Severity::Warn,
        help: "a lint.toml [[allow]] entry matched no finding; remove it",
        rationale: "stale allowlist entries hide the moment a suppression stops being \
                    needed, and worse, keep suppressing a finding that later reappears \
                    for a new reason",
        example: None,
    },
    RuleInfo {
        id: "concurrency/atomic-ordering",
        default_severity: Severity::Error,
        help: "an atomic op in a core crate lacks an // ORDERING: justification naming \
               its ordering",
        rationale: "the tracked allocator and channel statistics use Relaxed everywhere, \
                    which is correct for independent monotonic counters and silently \
                    wrong for cross-thread handoff; writing the choice down where it is \
                    made keeps every future atomic an explicit decision, and gives TSan \
                    triage a paper trail",
        example: Some(RuleExample {
            path: "crates/telemetry/src/counters.rs",
            dirty: "pub fn record(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
            clean: "pub fn record(c: &AtomicU64) {\n    // ORDERING: Relaxed — independent \
                    monotonic counter; readers only need\n    // eventual totals, never a \
                    happens-before edge.\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        }),
    },
    RuleInfo {
        id: "concurrency/rng-stream",
        default_severity: Severity::Error,
        help: "a fan-out fn in crates/federated seeds an RNG without split_seed",
        rationale: "client tasks run on a work-stealing pool in nondeterministic order; \
                    byte-identical results at any --threads value hold only because every \
                    task derives its own RNG stream from (round_seed, client_id) via \
                    split_seed — seeding by hand (seed + i) or capturing a shared RNG \
                    collides streams and breaks the determinism contract invisibly",
        example: Some(RuleExample {
            path: "crates/federated/src/rounds.rs",
            dirty: "pub fn round(seed: u64) {\n    let rngs: Vec<_> = (0..4)\n        \
                    .map(|c| StdRng::seed_from_u64(seed + c))\n        .collect();\n    \
                    run_tasks(rngs, 4, |_, r| r);\n}\n",
            clean: "pub fn round(seed: u64) {\n    let rngs: Vec<_> = (0..4)\n        \
                    .map(|c| StdRng::seed_from_u64(split_seed(seed, c)))\n        \
                    .collect();\n    run_tasks(rngs, 4, |_, r| r);\n}\n",
        }),
    },
    RuleInfo {
        id: "determinism/hash-iteration",
        default_severity: Severity::Error,
        help: "HashMap/HashSet in reduction-path crates; iteration order is nondeterministic",
        rationale: "HashMap iteration order varies per process, so any fold over one \
                    (aggregation, stats, serialization) destroys bit-reproducibility; \
                    BTreeMap/Vec give the same walk every run",
        example: Some(RuleExample {
            path: "crates/hdc/src/encode.rs",
            dirty: "use std::collections::HashMap;\n",
            clean: "use std::collections::BTreeMap;\n",
        }),
    },
    RuleInfo {
        id: "determinism/wall-clock",
        default_severity: Severity::Error,
        help: "SystemTime::now/Instant::now outside telemetry::clock and crates/bench",
        rationale: "round durations recorded from the real clock differ every run; routing \
                    time through the injectable Recorder clock lets a ManualClock make \
                    timing fields reproducible in tests and replays",
        example: Some(RuleExample {
            path: "crates/federated/src/rounds.rs",
            dirty: "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
            clean: "pub fn stamp(tel: &Recorder) -> u64 {\n    tel.now_micros()\n}\n",
        }),
    },
    RuleInfo {
        id: "forbidden/panic",
        default_severity: Severity::Error,
        help: "unwrap()/panic!/todo!/unimplemented! in core-crate library code",
        rationale: "a client dropping out of a round must surface as a Result or a \
                    saturating default, not kill a simulation hours in; .expect(\"documented \
                    invariant\") stays legal because the message is the audit trail",
        example: Some(RuleExample {
            path: "crates/channel/src/erasure.rs",
            dirty: "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
            clean: "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n",
        }),
    },
    RuleInfo {
        id: "forbidden/print",
        default_severity: Severity::Error,
        help: "println!/eprintln!/dbg! outside crates/cli and crates/bench",
        rationale: "library crates writing to stdout corrupt machine-read output (--json, \
                    JSONL sinks) and bypass the telemetry Recorder, so sinks can no longer \
                    decide where diagnostics go",
        example: Some(RuleExample {
            path: "crates/federated/src/rounds.rs",
            dirty: "pub fn done(r: usize) {\n    println!(\"round {r} done\");\n}\n",
            clean: "pub fn done(tel: &Recorder, r: usize) {\n    tel.event(\"round.done\", \
                    &[(\"round\", r as f64)]);\n}\n",
        }),
    },
    RuleInfo {
        id: "panic/indexing",
        default_severity: Severity::Error,
        help: "bare [i] indexing or runtime division in a hot-path module without a \
               // BOUNDS: justification",
        rationale: "packed.rs/simd.rs/sketch.rs run inside the per-client inner loops where \
                    a panic poisons every round; indexing there is fine only by \
                    construction, so each function doing it must state why its indices are \
                    in range and its divisors nonzero — the same discharge grammar SAFETY \
                    uses",
        example: Some(RuleExample {
            path: "crates/hdc/src/packed.rs",
            dirty: "pub fn word_at(words: &[u64], dim: usize) -> u64 {\n    \
                    words[dim / 64]\n}\n",
            clean: "// BOUNDS: callers index by dim / 64 with dim < dims, and words.len()\n\
                    // == dims.div_ceil(64), so the word index is always in range.\n\
                    pub fn word_at(words: &[u64], dim: usize) -> u64 {\n    \
                    words[dim / 64]\n}\n",
        }),
    },
    RuleInfo {
        id: "schema/drift",
        default_severity: Severity::Error,
        help: "record fields differ from the committed lint-schema.toml baseline",
        rationale: "RoundMetrics/HealthRecord/ChannelStatsSnapshot are parsed from recorded \
                    JSONL by fhdnn watch and notebooks; a silent field rename breaks every \
                    consumer of existing recordings, so changes must be visible as a \
                    lint-schema.toml diff in review",
        example: None,
    },
    RuleInfo {
        id: "schema/missing-baseline",
        default_severity: Severity::Error,
        help: "a frozen struct has no baseline entry; run fhdnn lint --fix-baseline",
        rationale: "a frozen struct without a committed baseline cannot be checked for \
                    drift at all; regenerating the baseline is a two-line reviewed diff",
        example: None,
    },
    RuleInfo {
        id: "telemetry/orphan",
        default_severity: Severity::Error,
        help: "a registry metric name is never referenced by producer or consumer code",
        rationale: "dead registry entries make dashboards trust metrics nothing emits; \
                    deleting the entry (or the consumer) keeps the registry the single \
                    source of truth",
        example: None,
    },
    RuleInfo {
        id: "telemetry/unregistered",
        default_severity: Severity::Error,
        help: "a metric name literal passed to the Recorder is not in the telemetry registry",
        rationale: "sinks, docs, and the watch TUI key off the registry; an unregistered \
                    name emits events no consumer knows to read",
        example: None,
    },
    RuleInfo {
        id: "unsafe/contract",
        default_severity: Severity::Error,
        help: "a // SAFETY: comment does not discharge the bounds/feature/delegation \
               clauses its unsafe code requires",
        rationale: "\"SAFETY: trust me\" passes an existence check and reviews; requiring \
                    the comment to address what the block actually does — pointer bounds, \
                    feature availability, allocator contract delegation — makes the \
                    obligation, not the comment, the unit of review",
        example: Some(RuleExample {
            path: "crates/hdc/src/vecops.rs",
            dirty: "pub fn head(p: *const u64) -> u64 {\n    // SAFETY: fine.\n    \
                    unsafe { *p.add(1) }\n}\n",
            clean: "pub fn head(p: *const u64) -> u64 {\n    // SAFETY: the caller \
                    guarantees p points at two u64s, so p.add(1)\n    // stays in \
                    bounds.\n    unsafe { *p.add(1) }\n}\n",
        }),
    },
    RuleInfo {
        id: "unsafe/needs-safety-comment",
        default_severity: Severity::Error,
        help: "an unsafe block/fn/impl lacks a // SAFETY: comment within 3 lines",
        rationale: "every unsafe keyword is a proof obligation; the comment is where the \
                    proof lives, and the audit starts from its absence",
        example: Some(RuleExample {
            path: "crates/hdc/src/vecops.rs",
            dirty: "pub fn load(p: *const u64) -> u64 {\n    unsafe { *p }\n}\n",
            clean: "pub fn load(p: *const u64) -> u64 {\n    // SAFETY: the caller \
                    guarantees p points at a live, aligned u64.\n    unsafe { *p }\n}\n",
        }),
    },
    RuleInfo {
        id: "unsafe/target-feature-reachability",
        default_severity: Severity::Error,
        help: "a #[target_feature] fn is called outside the detection-gated dispatch path",
        rationale: "calling an AVX2 fn on a CPU nobody checked is a SIGILL that only fires \
                    on the wrong machine; confining callers to target_feature fns and \
                    backend()-gated dispatchers turns the CI-lottery crash into a lint \
                    error",
        example: Some(RuleExample {
            path: "crates/hdc/src/vecops.rs",
            dirty: "mod x86 {\n    #[target_feature(enable = \"avx2\")]\n    // SAFETY: \
                    dispatcher-only caller, after runtime AVX2 detection.\n    pub unsafe \
                    fn kernel(x: u64) -> u64 { x }\n}\npub fn fast(x: u64) -> u64 {\n    \
                    // SAFETY: AVX2 assumed available, detection skipped.\n    unsafe { \
                    x86::kernel(x) }\n}\n",
            clean: "mod x86 {\n    #[target_feature(enable = \"avx2\")]\n    // SAFETY: \
                    dispatcher-only caller, after runtime AVX2 detection.\n    pub unsafe \
                    fn kernel(x: u64) -> u64 { x }\n}\npub fn fast(x: u64) -> u64 {\n    \
                    if backend() == Backend::Avx2 {\n        // SAFETY: Backend::Avx2 is \
                    only selected after runtime AVX2\n        // detection succeeded.\n        \
                    return unsafe { x86::kernel(x) };\n    }\n    x\n}\n",
        }),
    },
];

/// Looks up a rule's default severity (the id must exist).
pub fn default_severity(id: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.default_severity)
        .unwrap_or(Severity::Error)
}

/// Crates whose library code carries the strictest invariants: they run
/// inside the federated round loop, so panics and nondeterminism there
/// poison every simulation result.
pub const CORE_CRATES: &[&str] = &["channel", "federated", "hdc", "telemetry"];

/// Crate name for a root-relative path like `crates/hdc/src/encode.rs`.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let end = rest.find('/')?;
    Some(&rest[..end])
}

/// Whether the file is library source (`crates/<name>/src/...`), as
/// opposed to integration tests, benches, or examples.
pub fn is_lib_src(path: &str) -> bool {
    crate_of(path).is_some_and(|name| path.starts_with(&format!("crates/{name}/src/")))
}

/// Whether the whole file is test/bench/example collateral, which the
/// behaviour rules exempt wholesale.
pub fn is_test_collateral(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Emits one finding per offset unless an inline allow marker covers
/// its line; the shared shape of most token rules.
pub fn emit_token_findings(
    file: &SourceFile,
    rule: &'static str,
    offsets: &[usize],
    message: &str,
    out: &mut Vec<RawFinding>,
) {
    for &offset in offsets {
        if file.in_test_range(offset) {
            continue;
        }
        let line = file.line_of(offset);
        if file.allowed_inline(line, rule) {
            continue;
        }
        out.push(RawFinding {
            rule,
            path: file.path.clone(),
            line,
            message: message.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_table_is_sorted_and_unique() {
        for pair in RULES.windows(2) {
            assert!(pair[0].id < pair[1].id, "RULES must stay sorted by id");
        }
    }

    #[test]
    fn path_scoping_helpers() {
        assert_eq!(crate_of("crates/hdc/src/lib.rs"), Some("hdc"));
        assert_eq!(crate_of("tests/smoke.rs"), None);
        assert!(is_lib_src("crates/channel/src/stats.rs"));
        assert!(!is_lib_src("crates/channel/tests/roundtrip.rs"));
        assert!(is_test_collateral("crates/channel/tests/roundtrip.rs"));
        assert!(is_test_collateral("tests/e2e.rs"));
        assert!(!is_test_collateral("crates/channel/src/stats.rs"));
    }
}
