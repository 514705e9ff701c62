//! `concurrency/*` — atomic-ordering justifications and deterministic
//! RNG streams in the task fan-out.
//!
//! `concurrency/atomic-ordering`: every atomic operation in a core
//! crate must be covered by an `// ORDERING:` comment that names the
//! ordering it uses. The tracked allocator and the channel statistics
//! lean on `Relaxed` everywhere — which is correct for independent
//! monotonic counters and exactly wrong for cross-thread handoff, so
//! the choice has to be written down where it is made. Coverage is
//! item-aware: one ORDERING comment anywhere between the enclosing
//! function's header (window included) and the operation covers it,
//! but the comment must mention each ordering the operation passes
//! (`Relaxed`, `Acquire`, `Release`, `AcqRel`, `SeqCst`).
//!
//! `concurrency/rng-stream`: a function in `crates/federated` that
//! fans work out through `run_tasks`/`run_tasks_traced` must derive
//! every RNG it seeds through `split_seed` — seeding from a raw round
//! seed (or capturing a shared RNG) makes client streams collide and
//! silently breaks the byte-identical-at-any-thread-count contract.

use super::{crate_of, is_lib_src, RawFinding, CORE_CRATES};
use crate::items::{contains_word, paren_arg_span, ItemIndex};
use crate::source::SourceFile;

/// Atomic method call tokens (leading `.` gives receiver matching).
const ATOMIC_METHODS: &[&str] = &[
    ".compare_exchange",
    ".compare_exchange_weak",
    ".fetch_add",
    ".fetch_and",
    ".fetch_max",
    ".fetch_min",
    ".fetch_nand",
    ".fetch_or",
    ".fetch_sub",
    ".fetch_update",
    ".fetch_xor",
    ".load",
    ".store",
    ".swap",
];

/// Memory-ordering identifiers an atomic call may name.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Lines above a fn header that may carry the covering comment.
const WINDOW: usize = 3;

pub fn check(files: &[SourceFile], items: &[ItemIndex], out: &mut Vec<RawFinding>) {
    for (file, index) in files.iter().zip(items) {
        if !is_lib_src(&file.path) {
            continue;
        }
        let in_core = crate_of(&file.path).is_some_and(|c| CORE_CRATES.contains(&c));
        if in_core {
            atomic_ordering(file, index, out);
        }
        if crate_of(&file.path) == Some("federated") {
            rng_stream(file, index, out);
        }
    }
}

fn atomic_ordering(file: &SourceFile, index: &ItemIndex, out: &mut Vec<RawFinding>) {
    for method in ATOMIC_METHODS {
        for at in file.token_offsets(method) {
            if file.in_test_range(at) {
                continue;
            }
            let open = at + method.len();
            if file.code.as_bytes().get(open) != Some(&b'(') {
                continue;
            }
            let (a, b) = paren_arg_span(&file.code, open);
            let args = &file.code[a..b];
            let used: Vec<&str> = ORDERINGS
                .iter()
                .copied()
                .filter(|o| contains_word(args, o))
                .collect();
            if used.is_empty() {
                continue; // not an atomic call (Vec::swap, a file load, ...)
            }
            let line = file.line_of(at);
            if file.allowed_inline(line, "concurrency/atomic-ordering") {
                continue;
            }
            let lo = index
                .enclosing_fn(at)
                .map(|f| file.line_of(f.kw))
                .unwrap_or(line)
                .saturating_sub(WINDOW);
            let covering: String = file
                .comments
                .iter()
                .filter(|c| c.line >= lo && c.line <= line && c.text.contains("ORDERING:"))
                .map(|c| c.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            let name = &method[1..];
            if covering.is_empty() {
                out.push(RawFinding {
                    rule: "concurrency/atomic-ordering",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "atomic `{name}` using {} lacks an `// ORDERING:` justification in \
                         the enclosing fn",
                        used.join("/")
                    ),
                });
            } else if let Some(missing) = used.iter().find(|o| !contains_word(&covering, o)) {
                out.push(RawFinding {
                    rule: "concurrency/atomic-ordering",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "`// ORDERING:` comment covering this `{name}` does not name \
                         `{missing}`; justify the ordering actually used"
                    ),
                });
            }
        }
    }
}

fn rng_stream(file: &SourceFile, index: &ItemIndex, out: &mut Vec<RawFinding>) {
    let fan_out_spans: Vec<(usize, usize, &str)> = index
        .fns
        .iter()
        .filter(|f| !file.in_test_range(f.kw))
        .filter_map(|f| {
            let (a, b) = f.body?;
            let body = &file.code[a..b];
            (contains_word(body, "run_tasks") || contains_word(body, "run_tasks_traced"))
                .then_some((a, b, f.name.as_str()))
        })
        .collect();
    if fan_out_spans.is_empty() {
        return;
    }
    for at in file.token_offsets("seed_from_u64") {
        let Some(&(_, _, fn_name)) = fan_out_spans
            .iter()
            .filter(|&&(a, b, _)| at >= a && at < b)
            .min_by_key(|&&(a, b, _)| b - a)
        else {
            continue; // constructors and helpers without fan-out are exempt
        };
        let open = at + "seed_from_u64".len();
        if file.code.as_bytes().get(open) != Some(&b'(') {
            continue;
        }
        let (a, b) = paren_arg_span(&file.code, open);
        if contains_word(&file.code[a..b], "split_seed") {
            continue;
        }
        let line = file.line_of(at);
        if file.allowed_inline(line, "concurrency/rng-stream") {
            continue;
        }
        out.push(RawFinding {
            rule: "concurrency/rng-stream",
            path: file.path.clone(),
            line,
            message: format!(
                "fan-out fn `{fn_name}` seeds an RNG without `split_seed`; per-task \
                 streams must be derived, never shared or offset by hand"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemIndex;

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        let f = SourceFile::new(path.into(), src.to_string());
        let idx = ItemIndex::build(&f);
        let mut out = Vec::new();
        check(&[f], &[idx], &mut out);
        out
    }

    #[test]
    fn unannotated_atomic_fires_and_ordering_comment_covers() {
        let dirty = "\
pub fn record(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
";
        let out = run("crates/telemetry/src/sink.rs", dirty);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "concurrency/atomic-ordering");
        assert!(out[0].message.contains("fetch_add"));

        let clean = "\
pub fn record(c: &AtomicU64) {
    // ORDERING: Relaxed — independent monotonic counter; readers only
    // need eventual totals, never a happens-before edge.
    c.fetch_add(1, Ordering::Relaxed);
}
";
        assert!(run("crates/telemetry/src/sink.rs", clean).is_empty());
    }

    #[test]
    fn comment_must_name_the_ordering_used() {
        let src = "\
pub fn publish(c: &AtomicU64) {
    // ORDERING: relaxed is fine here.
    c.store(1, Ordering::Release);
}
";
        let out = run("crates/telemetry/src/sink.rs", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`Release`"));
    }

    #[test]
    fn fn_header_comment_covers_all_ops_in_the_fn() {
        let src = "\
// ORDERING: Relaxed throughout — all six counters are independent
// monotonic tallies; snapshot() tolerates torn cross-counter reads.
pub fn snapshot(s: &S) -> (u64, u64) {
    (s.a.load(Ordering::Relaxed), s.b.load(Ordering::Relaxed))
}
";
        assert!(run("crates/channel/src/stats.rs", src).is_empty());
    }

    #[test]
    fn non_atomic_methods_and_tests_are_exempt() {
        let src = "\
pub fn shuffle(v: &mut Vec<u8>) {
    v.swap(0, 1);
}
#[cfg(test)]
mod tests {
    fn t(c: &AtomicU64) { c.load(Ordering::SeqCst); }
}
";
        assert!(run("crates/hdc/src/encode.rs", src).is_empty());
    }

    #[test]
    fn fan_out_fn_must_derive_seeds_via_split_seed() {
        let dirty = "\
pub fn round(seed: u64) {
    let rngs: Vec<_> = (0..4)
        .map(|c| StdRng::seed_from_u64(seed + c))
        .collect();
    run_tasks(rngs, 4, |_, r| r);
}
";
        let out = run("crates/federated/src/fedhd.rs", dirty);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "concurrency/rng-stream");
        assert!(out[0].message.contains("round"));

        let clean = dirty.replace("seed + c", "split_seed(seed, c)");
        assert!(run("crates/federated/src/fedhd.rs", &clean).is_empty());
    }

    #[test]
    fn constructors_without_fan_out_are_exempt() {
        let src = "\
pub fn new(seed: u64) -> S {
    S { rng: StdRng::seed_from_u64(seed) }
}
";
        assert!(run("crates/federated/src/fedhd.rs", src).is_empty());
    }
}
