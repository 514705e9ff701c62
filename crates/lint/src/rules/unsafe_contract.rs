//! `unsafe/contract` and `unsafe/target-feature-reachability` — the
//! structured half of the unsafe audit.
//!
//! `unsafe_audit` only demands that a `// SAFETY:` comment *exists*.
//! This module demands that the comment discharges what the block
//! actually does:
//!
//! * a block performing raw-pointer arithmetic or unchecked memory
//!   access (`.add`, `get_unchecked`, `loadu`/`storeu`, `vld1q`, ...)
//!   must argue **bounds/validity** (mention length, bytes, ranges,
//!   alignment, ...);
//! * a block invoking vendor intrinsics or a `#[target_feature]` fn —
//!   unless the enclosing fn is itself `#[target_feature]` — must
//!   argue **feature availability** (runtime detection, mandatory
//!   baseline features, ...);
//! * a block forwarding a `GlobalAlloc` operation must argue
//!   **contract delegation** (caller upholds, forwarded as-is, ...).
//!
//! The clause match is a keyword heuristic over the SAFETY window, not
//! NLP: it cannot judge whether the argument is *true*, only whether
//! the author addressed the right obligation at all. Reviewers take it
//! from there.
//!
//! `unsafe/target-feature-reachability` closes the SIGILL hole: a
//! `#[target_feature]` fn may only be called from another
//! target_feature fn or from a dispatcher that visibly gates on
//! `backend()` / `is_x86_feature_detected!` in the same body. Any
//! other call site would execute AVX2 instructions on CPUs the program
//! never checked.

use super::RawFinding;
use crate::items::{contains_word, ItemIndex, UnsafeKind};
use crate::source::SourceFile;

/// Same window `unsafe_audit` uses to find the SAFETY comment.
const WINDOW: usize = 3;

/// Body tokens that create a bounds/validity obligation.
const BOUNDS_TRIGGERS: &[&str] = &[
    ".add(",
    ".offset(",
    ".sub(",
    "get_unchecked",
    "from_raw_parts",
    "read_unaligned",
    "write_unaligned",
    "copy_nonoverlapping",
    "loadu",
    "storeu",
    "vld1q",
    "vst1q",
];

/// Body tokens that create a feature-availability obligation.
const FEATURE_TRIGGERS: &[&str] = &["_mm", "vld1q", "vst1q", "vcnt", "vadd", "vget", "veor"];

/// Body tokens that create a contract-delegation obligation.
const DELEGATION_TRIGGERS: &[&str] = &[".alloc(", ".dealloc(", ".realloc(", ".alloc_zeroed("];

/// Keywords that count as addressing each obligation (matched against
/// the lowercased SAFETY window).
const BOUNDS_WORDS: &[&str] = &[
    "bound", "len", "byte", "range", "within", "slice", "exact", "valid", "live", "align",
    "capacity", "fits", "element", "word",
];
const FEATURE_WORDS: &[&str] = &["detect", "feature", "avx2", "neon", "mandatory", "baseline"];
const DELEGATION_WORDS: &[&str] = &[
    "caller", "contract", "uphold", "forward", "delegat", "inherit",
];

pub fn check(files: &[SourceFile], items: &[ItemIndex], out: &mut Vec<RawFinding>) {
    for (file, index) in files.iter().zip(items) {
        contract(file, index, out);
        reachability(file, index, out);
    }
}

fn contract(file: &SourceFile, index: &ItemIndex, out: &mut Vec<RawFinding>) {
    for site in &index.unsafe_sites {
        let line = file.line_of(site.kw);
        if !file.has_safety_comment(line, WINDOW) {
            continue; // unsafe/needs-safety-comment already fires
        }
        let missing = match site.kind {
            // Item-level `unsafe impl`/`unsafe trait`: the obligation
            // is the trait contract itself; existence suffices.
            UnsafeKind::Item => continue,
            // A `#[target_feature] unsafe fn`'s header comment must
            // explain who may call it (reachability/feature clause);
            // its interior blocks discharge their own memory clauses.
            UnsafeKind::Fn => {
                let is_tf = index
                    .fns
                    .iter()
                    .find(|f| f.body == Some(site.span))
                    .is_some_and(|f| f.is_target_feature());
                if !is_tf {
                    continue;
                }
                required_missing(file, line, &[("feature-availability", FEATURE_WORDS)])
            }
            UnsafeKind::Block => {
                let body = span_text(file, site.span);
                let mut need: Vec<(&str, &[&str])> = Vec::new();
                if BOUNDS_TRIGGERS.iter().any(|t| body.contains(t)) {
                    need.push(("bounds/validity", BOUNDS_WORDS));
                }
                let enclosing_tf = index
                    .enclosing_fn(site.kw)
                    .is_some_and(|f| f.is_target_feature());
                let uses_intrinsics = FEATURE_TRIGGERS.iter().any(|t| body.contains(t));
                let calls_tf = calls_target_feature_fn(file, index, site.span);
                if (uses_intrinsics || calls_tf) && !enclosing_tf {
                    need.push(("feature-availability", FEATURE_WORDS));
                }
                if DELEGATION_TRIGGERS.iter().any(|t| body.contains(t)) {
                    need.push(("contract-delegation", DELEGATION_WORDS));
                }
                required_missing(file, line, &need)
            }
        };
        if missing.is_empty() {
            continue;
        }
        if file.allowed_inline(line, "unsafe/contract") {
            continue;
        }
        out.push(RawFinding {
            rule: "unsafe/contract",
            path: file.path.clone(),
            line,
            message: format!(
                "`// SAFETY:` comment does not discharge the {} clause{} this unsafe \
                 code requires",
                missing.join(" and "),
                if missing.len() == 1 { "" } else { "s" }
            ),
        });
    }
}

/// The clause names from `need` that the SAFETY window fails to
/// address.
fn required_missing(
    file: &SourceFile,
    line: usize,
    need: &[(&'static str, &[&str])],
) -> Vec<&'static str> {
    if need.is_empty() {
        return Vec::new();
    }
    let lo = line.saturating_sub(WINDOW);
    let window: String = file
        .comments
        .iter()
        .filter(|c| c.line >= lo && c.line <= line)
        .map(|c| c.text.to_lowercase())
        .collect::<Vec<_>>()
        .join(" ");
    need.iter()
        .filter(|(_, words)| !words.iter().any(|w| window.contains(w)))
        .map(|&(name, _)| name)
        .collect()
}

/// Whether the span calls a `#[target_feature]` fn defined in this
/// file, honouring module-path scoping (`x86::f` matches the `f` in
/// `mod x86`; `scalar::f` does not; an unqualified `f(..)` matches
/// only a TF fn in the caller's own module).
fn calls_target_feature_fn(file: &SourceFile, index: &ItemIndex, span: (usize, usize)) -> bool {
    let caller_module = index
        .enclosing_fn(span.0)
        .map(|f| f.module.clone())
        .unwrap_or_default();
    index
        .calls_in(file, span)
        .iter()
        .any(|call| tf_target(index, call, &caller_module).is_some())
}

/// The `#[target_feature]` fn in this file that a call site resolves
/// to, if any: an unqualified call resolves within the caller's own
/// module, a qualified call by module-path suffix.
fn tf_target<'a>(
    index: &'a ItemIndex,
    call: &crate::items::CallSite,
    caller_module: &[String],
) -> Option<&'a crate::items::FnItem> {
    if call.method {
        return None;
    }
    index.fns.iter().find(|f| {
        f.is_target_feature()
            && f.name == call.name
            && if call.qual.is_empty() {
                f.module == caller_module
            } else {
                call.qual.len() <= f.module.len()
                    && f.module[f.module.len() - call.qual.len()..] == call.qual[..]
            }
    })
}

fn reachability(file: &SourceFile, index: &ItemIndex, out: &mut Vec<RawFinding>) {
    if !index.fns.iter().any(|f| f.is_target_feature()) {
        return;
    }
    for caller in &index.fns {
        if caller.is_target_feature() {
            continue;
        }
        let Some(span) = caller.body else { continue };
        let body = span_text(file, span);
        // A dispatcher visibly gates on the detected backend.
        let gated = contains_word(body, "backend") || body.contains("is_x86_feature_detected");
        if gated {
            continue;
        }
        for call in index.calls_in(file, span) {
            let Some(target) = tf_target(index, &call, &caller.module) else {
                continue;
            };
            if file.in_test_range(call.offset) {
                continue;
            }
            let line = file.line_of(call.offset);
            if file.allowed_inline(line, "unsafe/target-feature-reachability") {
                continue;
            }
            out.push(RawFinding {
                rule: "unsafe/target-feature-reachability",
                path: file.path.clone(),
                line,
                message: format!(
                    "`{}` calls `#[target_feature]` fn `{}` outside the detection-gated \
                     dispatch path; an undetected CPU takes a SIGILL here",
                    caller.name, target.name
                ),
            });
        }
    }
}

fn span_text(file: &SourceFile, (a, b): (usize, usize)) -> &str {
    &file.code[a.min(file.code.len())..b.min(file.code.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemIndex;

    fn run(src: &str) -> Vec<RawFinding> {
        let f = SourceFile::new("crates/hdc/src/simd.rs".into(), src.to_string());
        let idx = ItemIndex::build(&f);
        let mut out = Vec::new();
        check(&[f], &[idx], &mut out);
        out
    }

    #[test]
    fn pointer_arithmetic_requires_a_bounds_clause() {
        let dirty = "\
pub fn head(p: *const u64) -> u64 {
    // SAFETY: fine.
    unsafe { *p.add(1) }
}
";
        let out = run(dirty);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unsafe/contract");
        assert!(out[0].message.contains("bounds/validity"));

        let clean = "\
pub fn head(p: *const u64) -> u64 {
    // SAFETY: the caller guarantees p points at two u64s, so p.add(1)
    // stays in bounds.
    unsafe { *p.add(1) }
}
";
        assert!(run(clean).is_empty());
    }

    #[test]
    fn intrinsics_outside_target_feature_fns_need_a_feature_clause() {
        let dirty = "\
pub fn sum(p: *const f32) -> f32 {
    // SAFETY: p is valid for 8 floats, the load stays in bounds.
    unsafe { reduce(_mm256_loadu_ps(p)) }
}
";
        let out = run(dirty);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("feature-availability"));

        let waived = "\
#[target_feature(enable = \"avx2\")]
// SAFETY: dispatcher-only caller, after runtime AVX2 detection.
pub unsafe fn sum(p: *const f32) -> f32 {
    // SAFETY: p is valid for 8 floats, the load stays in bounds.
    unsafe { reduce(_mm256_loadu_ps(p)) }
}
";
        assert!(run(waived).is_empty());
    }

    #[test]
    fn allocator_forwarding_needs_a_delegation_clause() {
        let dirty = "\
pub fn raw_alloc(l: Layout) -> *mut u8 {
    // SAFETY: layout is nonzero.
    unsafe { System.alloc(l) }
}
";
        let out = run(dirty);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("contract-delegation"));

        let clean = dirty.replace(
            "layout is nonzero.",
            "the caller upholds GlobalAlloc's contract; forwarded as-is.",
        );
        assert!(run(&clean).is_empty());
    }

    #[test]
    fn missing_safety_is_left_to_the_existence_rule() {
        // No SAFETY at all: unsafe/contract stays silent so the finding
        // is not double-reported next to unsafe/needs-safety-comment.
        assert!(run("pub fn f(p: *const u8) -> u8 { unsafe { *p.add(1) } }\n").is_empty());
    }

    #[test]
    fn ungated_call_to_target_feature_fn_is_flagged() {
        let dirty = "\
mod x86 {
    #[target_feature(enable = \"avx2\")]
    // SAFETY: dispatcher-only caller, after runtime AVX2 detection.
    pub unsafe fn kernel(x: u64) -> u64 { x }
}
pub fn fast(x: u64) -> u64 {
    // SAFETY: AVX2 assumed available.
    unsafe { x86::kernel(x) }
}
";
        let out = run(dirty);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unsafe/target-feature-reachability");
        assert!(out[0].message.contains("fast"));

        let gated = dirty.replace(
            "pub fn fast(x: u64) -> u64 {",
            "pub fn fast(x: u64) -> u64 {\n    assert!(backend() == Backend::Avx2);",
        );
        assert!(run(&gated).is_empty());
    }

    #[test]
    fn safe_target_feature_fns_are_held_to_the_same_gate() {
        // A safe `#[target_feature]` fn (stable since 1.86) still needs
        // `unsafe` at a call from a fn without the feature, and the
        // generic shell is called with a turbofish.
        let gated = "\
#[target_feature(enable = \"avx2\")]
fn kernel_avx2<const L: usize>(x: [f32; L]) -> [f32; L] { x }
fn kernel<const L: usize>(x: [f32; L]) -> [f32; L] {
    match simd::backend() {
        // SAFETY: `Backend::Avx2` is returned only after AVX2 was detected.
        simd::Backend::Avx2 => unsafe { kernel_avx2::<L>(x) },
        _ => x,
    }
}
";
        assert!(run(gated).is_empty());

        let ungated = gated.replace("match simd::backend() {", "match cpu() {");
        let out = run(&ungated);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unsafe/target-feature-reachability");
        assert!(out[0].message.contains("kernel_avx2"));
    }

    #[test]
    fn qualified_calls_to_other_modules_do_not_match() {
        let src = "\
mod x86 {
    #[target_feature(enable = \"avx2\")]
    // SAFETY: dispatcher-only caller, after runtime AVX2 detection.
    pub unsafe fn kernel(x: u64) -> u64 { x }
}
mod scalar {
    pub fn kernel(x: u64) -> u64 { x }
}
pub fn safe_path(x: u64) -> u64 {
    scalar::kernel(x)
}
";
        assert!(run(src).is_empty());
    }
}
