//! fhdnn-lint — std-only workspace invariant checker.
//!
//! Scans the workspace's Rust sources with a purpose-built lexer (no
//! `syn`, no crates.io) and an item-aware brace-tree index over the
//! stripped tokens ([`items`]: fn/mod boundaries, attributes, call
//! sites), and enforces the invariants the simulation's correctness
//! rests on:
//!
//! | family | what it guards |
//! |---|---|
//! | `determinism/*` | no wall clocks or hash-order iteration in the round loop |
//! | `forbidden/*`   | no `unwrap()`/`panic!` in core libs, no prints outside cli/bench |
//! | `unsafe/*`      | every `unsafe` carries a `// SAFETY:` comment that discharges the block's actual obligations; `#[target_feature]` fns stay behind the dispatch gate |
//! | `concurrency/*` | every atomic op justifies its ordering; task fan-out derives RNG streams via `split_seed` |
//! | `panic/*`       | hot-path indexing/division carries a `// BOUNDS:` justification |
//! | `telemetry/*`   | metric names round-trip through the compiled registry |
//! | `schema/*`      | record fields match the committed baseline |
//!
//! Suppression is always explicit and justified: inline
//! `// lint: allow(rule/id) reason` markers for single lines, or
//! `[[allow]]` entries in the committed `lint.toml` for whole files.
//! Unused allow entries are themselves reported, so the allowlist can
//! only shrink over time.
//!
//! Entry points: [`run`] for a full check, [`write_baseline`] for
//! `--fix-baseline`, [`explain`] for `--explain <rule>`. Output
//! ordering is deterministic; see [`report::Report`].

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod items;
pub mod report;
pub mod rules;
pub mod source;

pub use config::Severity;
pub use engine::{run, write_baseline, CONFIG_FILE, SCHEMA_FILE};
pub use report::{Finding, Report};

/// Renders the `--explain <rule>` text for a rule id: help line,
/// rationale, and the dirty/clean example pair when the rule has one.
/// Returns `None` for unknown ids.
pub fn explain(rule: &str) -> Option<String> {
    let info = rules::RULES.iter().find(|r| r.id == rule)?;
    let mut out = String::new();
    out.push_str(&format!(
        "{} (default severity: {})\n\n",
        info.id,
        match info.default_severity {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    ));
    out.push_str(&format!("  {}\n\nWhy:\n  {}\n", info.help, info.rationale));
    if let Some(ex) = &info.example {
        out.push_str(&format!("\nTrips (at {}):\n", ex.path));
        for line in ex.dirty.lines() {
            out.push_str(&format!("  | {line}\n"));
        }
        out.push_str("\nPasses:\n");
        for line in ex.clean.lines() {
            out.push_str(&format!("  | {line}\n"));
        }
    } else {
        out.push_str("\n(no standalone example: this rule needs workspace context; see crates/lint/tests/fixtures/)\n");
    }
    Some(out)
}

/// All registered rule ids, in registry (sorted) order.
pub fn rule_ids() -> Vec<&'static str> {
    rules::RULES.iter().map(|r| r.id).collect()
}
