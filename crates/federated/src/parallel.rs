//! Deterministic parallel execution for the round driver.
//!
//! The round driver (the crate-private `round` module, under both
//! federations) fans per-round client work out over a std-only scoped
//! thread pool. Four rules make the parallel run **byte-identical to the
//! serial one at any thread count**:
//!
//! 1. **Seed splitting** — the driver draws one `round_seed` from its
//!    master RNG per round, then derives an independent per-client stream
//!    with [`split_seed`]`(round_seed, client_id)`. Workers never touch
//!    the master RNG, so scheduling order cannot change what any client
//!    samples.
//! 2. **Fixed-order reduction** — [`run_tasks`] returns results indexed
//!    by task, not by completion; the driver folds them in participant
//!    order at the barrier. Float accumulation (aggregation, channel
//!    noise energy) is therefore ordered identically on 1 or 64 threads.
//! 3. **Buffered telemetry** — each task records spans/counters into a
//!    private `TaskBuffer`, absorbed at the barrier in the same fixed
//!    order (see `fhdnn_telemetry::task`).
//! 4. **Main-thread sketch absorption** — the fleet-telemetry sketches
//!    (`fhdnn_telemetry::sketch`, folded into `health.round` via
//!    `crate::health::RoundSketches`) are never touched by workers:
//!    the driver observes every client into them during the same
//!    fixed-order fold as rule 2. Their merge is order-invariant by
//!    construction (log-bucketed counts, register maxima, total-ordered
//!    top-k), so sketch-derived health fields are byte-identical at any
//!    thread count — and would stay so even under sharded absorption.
//!
//! The pool itself is deliberately boring: scoped threads claiming task
//! indices from an atomic counter. No work stealing, no channels, no
//! unsafe — worker panics propagate through `std::thread::scope`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fhdnn_telemetry::trace::TaskTiming;
use fhdnn_telemetry::Recorder;

/// Resolves a requested thread count: `0` means "auto" (the machine's
/// available parallelism, falling back to 1 when it cannot be queried);
/// any other value is used as-is.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Derives an independent RNG seed for stream `stream` (a client id)
/// from a per-round seed — a splitmix64 finalizer over the
/// golden-ratio-stepped stream index. Consecutive streams decorrelate
/// fully even when `round_seed` values are consecutive.
#[must_use]
pub fn split_seed(round_seed: u64, stream: u64) -> u64 {
    let mut z = round_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f(index, task)` over every task on up to `threads` scoped
/// worker threads and returns the results **in task order**, regardless
/// of completion order. With `threads <= 1` (or a single task) the work
/// runs inline on the caller's thread — the serial path is literally the
/// same code the CI determinism matrix compares against.
///
/// # Panics
///
/// A panicking worker propagates its panic to the caller when the scope
/// joins (no result is silently dropped).
pub fn run_tasks<T, R, F>(tasks: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_tasks_traced(tasks, threads, &Recorder::disabled(), f)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// [`run_tasks`] with per-task execution timing: each result comes back
/// with a [`TaskTiming`] recording which worker ran the task and its
/// enqueue/start/end stamps on the recorder's clock.
///
/// The timing discipline preserves the thread-count invariance theorem
/// under an injected `ManualClock` (whose every read advances the
/// stamp): an enabled recorder reads the clock **exactly three times
/// per task on every path** — inline: enqueue/start/end sequentially
/// per task; parallel: all enqueue stamps on the caller's thread before
/// the pool spawns, then start/end on the worker. The total read count
/// is `3 × tasks` either way, so everything the main thread stamps
/// after the barrier lands on the same timestamps at any thread count.
/// Individual stamps at `threads > 1` still depend on how workers
/// interleave (like span durations) and must be canonicalized in
/// cross-thread comparisons. A disabled recorder performs no clock
/// reads and yields all-zero timings.
///
/// # Panics
///
/// A panicking worker propagates its panic to the caller when the scope
/// joins (no result is silently dropped).
pub fn run_tasks_traced<T, R, F>(
    tasks: Vec<T>,
    threads: usize,
    tel: &Recorder,
    f: F,
) -> Vec<(R, TaskTiming)>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let timed = tel.enabled();
    let n = tasks.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let enqueue = if timed { tel.now_micros() } else { 0 };
                let start = if timed { tel.now_micros() } else { 0 };
                let result = f(i, t);
                let end = if timed { tel.now_micros() } else { 0 };
                (
                    result,
                    TaskTiming {
                        worker: 0,
                        enqueue_micros: enqueue,
                        start_micros: start,
                        end_micros: end,
                    },
                )
            })
            .collect();
    }
    // Enqueue stamps are taken on the caller's thread before any worker
    // spawns, keeping the per-task clock-read count path-independent.
    let enqueued: Vec<u64> = (0..n)
        .map(|_| if timed { tel.now_micros() } else { 0 })
        .collect();
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<(R, TaskTiming)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (slots, results, enqueued, next, f, tel) =
                (&slots, &results, &enqueued, &next, &f, tel);
            scope.spawn(move || loop {
                // ORDERING: Relaxed — the counter only hands out unique
                // indices; the Mutex around each slot provides the
                // happens-before edge for the task payload itself.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task claimed twice");
                let start = if timed { tel.now_micros() } else { 0 };
                let result = f(i, task);
                let end = if timed { tel.now_micros() } else { 0 };
                let timing = TaskTiming {
                    // All-zero without a recorder, the worker id included.
                    worker: if timed { w as u64 } else { 0 },
                    enqueue_micros: enqueued[i],
                    start_micros: start,
                    end_micros: end,
                };
                *results[i].lock().expect("result slot poisoned") = Some((result, timing));
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished without a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_auto_and_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn split_seed_decorrelates_streams() {
        let a = split_seed(7, 0);
        let b = split_seed(7, 1);
        let c = split_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic function of its inputs.
        assert_eq!(a, split_seed(7, 0));
    }

    #[test]
    fn results_come_back_in_task_order_at_any_thread_count() {
        let tasks: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = tasks.iter().map(|t| t * t).collect();
        for threads in [1, 2, 8, 64] {
            let got = run_tasks(tasks.clone(), threads, |i, t| {
                assert_eq!(i, t);
                t * t
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_task_lists_run_inline() {
        let none: Vec<u32> = run_tasks(Vec::new(), 8, |_, t: u32| t);
        assert!(none.is_empty());
        assert_eq!(run_tasks(vec![5u32], 8, |_, t| t + 1), vec![6]);
    }

    #[test]
    fn traced_run_reads_clock_three_times_per_task_on_every_path() {
        use std::sync::Arc;

        use fhdnn_telemetry::clock::ManualClock;
        use fhdnn_telemetry::sink::MemorySink;

        for threads in [1, 2, 8] {
            let tel = fhdnn_telemetry::Recorder::with_sink_and_clock(
                Arc::new(MemorySink::new()),
                Arc::new(ManualClock::new(1)),
            );
            let out = run_tasks_traced((0..6u64).collect(), threads, &tel, |_, t| t * 2);
            let values: Vec<u64> = out.iter().map(|(r, _)| *r).collect();
            assert_eq!(values, vec![0, 2, 4, 6, 8, 10]);
            for (_, timing) in &out {
                assert!(timing.enqueue_micros <= timing.start_micros);
                assert!(timing.start_micros <= timing.end_micros);
            }
            // Exactly 3 reads per task on every path: the first
            // main-thread read after the barrier lands on 18 whether
            // the pool ran inline or on 8 workers.
            assert_eq!(tel.now_micros(), 18, "threads={threads}");
        }
    }

    #[test]
    fn disabled_recorder_yields_zero_timings() {
        for threads in [2, 4, 8] {
            // The first `threads` tasks meet at a barrier, so each is held
            // by a different worker: every worker id is behind some task.
            let all_workers = std::sync::Barrier::new(threads);
            let out = run_tasks_traced(
                (0..64usize).collect(),
                threads,
                &fhdnn_telemetry::Recorder::disabled(),
                |i, t| {
                    if i < threads {
                        all_workers.wait();
                    }
                    t
                },
            );
            for (task, timing) in &out {
                assert_eq!(
                    *timing,
                    TaskTiming::default(),
                    "task {task} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_sketch_absorption_matches_serial_at_any_thread_count() {
        use crate::health::RoundSketches;

        // Rule 4: sketches absorbed per-shard on workers and merged in
        // task order at the barrier equal the serial single-sketch fold
        // — at every thread count.
        let mut serial = RoundSketches::new();
        for c in 0..40u64 {
            serial.absorb_client(c, 1000 + 13 * c, c % 5, 50 * c + 7, 60 * c + 7);
        }
        let mut serial_rec = crate::health::HealthRecord::default();
        serial.apply(&mut serial_rec);

        for threads in [1, 2, 8] {
            let shards: Vec<Vec<u64>> = (0..4).map(|s| (10 * s..10 * (s + 1)).collect()).collect();
            let partials = run_tasks(shards, threads, |_, shard| {
                let mut sk = RoundSketches::new();
                for c in shard {
                    sk.absorb_client(c, 1000 + 13 * c, c % 5, 50 * c + 7, 60 * c + 7);
                }
                sk
            });
            let mut merged = RoundSketches::new();
            for p in &partials {
                merged.merge(p);
            }
            let mut rec = crate::health::HealthRecord::default();
            merged.apply(&mut rec);
            assert_eq!(rec, serial_rec, "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_tasks(vec![0u32, 1, 2, 3], 2, |_, t| {
                assert!(t != 2, "boom");
                t
            })
        });
        assert!(caught.is_err());
    }
}
