//! Tracked global allocator: memory observability for the whole stack.
//!
//! FHDnn's pitch is federated learning on resource-constrained AIoT
//! devices, and the resource that caps AIoT scale is memory. This module
//! installs a [`std::alloc::GlobalAlloc`] wrapper around the system
//! allocator for every binary that links `fhdnn-telemetry` (which is the
//! entire workspace) and keeps, with relaxed atomics:
//!
//! - **live bytes** — currently allocated and not yet freed,
//! - **peak bytes** — the high watermark of live bytes (resettable via
//!   [`watermark`], so round engines measure per-round peaks),
//! - **alloc / dealloc counts** and **total allocated bytes**,
//! - a **log2 size-class histogram** (bucket `i` counts allocations of
//!   `2^i ..= 2^(i+1) − 1` bytes),
//!
//! plus per-thread cumulative counters ([`thread_mark`]) that the span
//! machinery in the crate root uses to attribute allocation deltas to
//! the active telemetry span — `fhdnn profile --mem` renders that
//! attribution as an allocation tree next to the time tree.
//!
//! ## Determinism contract
//!
//! The hooks only touch atomics and thread-local `Cell`s: they never
//! allocate, lock, read clocks, or unwind, so tracking cannot perturb
//! RNG streams, scheduling, or any metric the determinism suite
//! compares. Counter *values* are process-global and monotonic — under
//! concurrency (parallel rounds, parallel test binaries) they reflect
//! every thread's traffic, which is why round watermarks ride dedicated
//! `mem_*` fields that the byte-identity comparisons canonicalize
//! out, while per-span attribution uses the calling thread's private
//! counters and stays exact.

// The one sanctioned unsafe island in the workspace: a GlobalAlloc
// wrapper cannot be written without `unsafe`. Every occurrence below is
// `// SAFETY:`-audited per the `unsafe/needs-safety-comment` lint rule.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 size-class buckets (one per possible bit position of
/// a 64-bit allocation size).
pub const SIZE_CLASSES: usize = 64;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static SIZE_CLASS: [AtomicU64; SIZE_CLASSES] = [const { AtomicU64::new(0) }; SIZE_CLASSES];

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Log2 bucket index of an allocation size: `⌊log2(size)⌋`, with the
/// (never produced by `Layout`) size 0 folded into bucket 0.
#[inline]
fn size_class(size: u64) -> usize {
    63 - size.max(1).leading_zeros() as usize
}

/// Books one successful allocation of `size` bytes.
#[inline]
fn record_alloc(size: u64) {
    // ORDERING: Relaxed on every counter — the hooks run on the
    // allocation hot path and only feed monotonic tallies; readers
    // reconcile via the ledger identity (live = alloc_bytes −
    // freed_bytes), never via a happens-before edge with this thread.
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed).wrapping_add(size);
    PEAK_BYTES.fetch_max(live, Relaxed);
    SIZE_CLASS[size_class(size)].fetch_add(1, Relaxed);
    // `try_with`: during thread teardown the TLS slots may already be
    // destroyed while the runtime still frees/allocates; dropping those
    // few attributions is fine, panicking inside the allocator is not.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
}

/// Books one deallocation of `size` bytes.
// ORDERING: Relaxed — same monotonic-tally regime as `record_alloc`.
#[inline]
fn record_dealloc(size: u64) {
    DEALLOCS.fetch_add(1, Relaxed);
    FREED_BYTES.fetch_add(size, Relaxed);
    LIVE_BYTES.fetch_sub(size, Relaxed);
}

/// The tracked allocator: forwards every call to [`System`] and books
/// the byte/count deltas. Installed process-wide by this crate's
/// `#[global_allocator]` static, so *linking* `fhdnn-telemetry` is
/// enough — no opt-in, no feature flag, and (by the determinism
/// contract above) no behavioural difference beyond the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackedAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added tracking touches only atomics and
// thread-local `Cell`s and never allocates, recurses, or unwinds.
unsafe impl GlobalAlloc for TrackedAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc`; discharged
    // by forwarding to `System` (see the `unsafe impl` audit above).
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract; forwarded as-is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    // SAFETY: contract inherited from `GlobalAlloc::alloc_zeroed`;
    // discharged by forwarding to `System`.
    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    // SAFETY: contract inherited from `GlobalAlloc::dealloc`;
    // discharged by forwarding to `System`.
    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`; forwarded as-is.
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size() as u64);
    }

    // SAFETY: contract inherited from `GlobalAlloc::realloc`;
    // discharged by forwarding to `System`.
    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` validity and a
        // nonzero `new_size`; forwarded as-is.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // Booked as free-then-allocate so live bytes stay exact.
            record_dealloc(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// The process-wide allocator instance (see [`TrackedAlloc`]). Not
/// installed under Miri: its interpreter supplies its own allocator
/// shim, and the counters would only slow the interpreted run down, so
/// the sanitizer wall runs with tracking off and the counter-dependent
/// tests `#[cfg_attr(miri, ignore)]`d.
#[cfg(not(miri))]
#[global_allocator]
static GLOBAL: TrackedAlloc = TrackedAlloc;

/// A point-in-time snapshot of the process-wide allocator counters.
///
/// Values are monotonically advancing (except `live_bytes`, which also
/// falls, and `peak_bytes`, which [`watermark`] resets); under
/// concurrency they aggregate every thread's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High watermark of `live_bytes` since process start or the last
    /// [`watermark`] reset.
    pub peak_bytes: u64,
    /// Successful allocations (including the alloc half of reallocs).
    pub allocs: u64,
    /// Deallocations (including the free half of reallocs).
    pub deallocs: u64,
    /// Total bytes ever allocated (gross, not net).
    pub alloc_bytes: u64,
    /// Total bytes ever freed (gross). At any quiescent point the
    /// ledger balances: `live_bytes == alloc_bytes - freed_bytes`.
    pub freed_bytes: u64,
}

/// Snapshot of the global counters.
#[must_use]
pub fn stats() -> MemStats {
    // ORDERING: Relaxed — deliberately not a consistent cut; consumers
    // use quiescent-point deltas, and the ledger identity is only
    // asserted when no allocator traffic is in flight.
    MemStats {
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
        freed_bytes: FREED_BYTES.load(Relaxed),
    }
}

/// Snapshot of the log2 size-class histogram: bucket `i` counts
/// allocations of `2^i ..= 2^(i+1) − 1` bytes since process start.
#[must_use]
pub fn size_class_histogram() -> [u64; SIZE_CLASSES] {
    // ORDERING: Relaxed — 64 independent monotonic tallies, torn reads
    // across buckets are acceptable in an observability histogram.
    let mut out = [0u64; SIZE_CLASSES];
    for (dst, src) in out.iter_mut().zip(SIZE_CLASS.iter()) {
        *dst = src.load(Relaxed);
    }
    out
}

/// Cumulative allocation counters of the **calling thread** — the
/// attribution primitive behind span-scoped allocation deltas. Marks
/// taken on one thread are only meaningful against later marks on the
/// same thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadMark {
    /// Allocations performed by this thread so far.
    pub allocs: u64,
    /// Bytes allocated by this thread so far (gross).
    pub alloc_bytes: u64,
}

/// Takes a mark of the calling thread's cumulative counters.
#[must_use]
pub fn thread_mark() -> ThreadMark {
    ThreadMark {
        allocs: THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
        alloc_bytes: THREAD_ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

impl ThreadMark {
    /// Allocation activity on this thread since `self` was taken:
    /// `(allocs, bytes)`, saturating against marks from other threads.
    #[must_use]
    pub fn delta(&self) -> ThreadMark {
        let now = thread_mark();
        ThreadMark {
            allocs: now.allocs.saturating_sub(self.allocs),
            alloc_bytes: now.alloc_bytes.saturating_sub(self.alloc_bytes),
        }
    }
}

/// A per-scope high-watermark measurement: [`watermark`] resets the
/// process peak to the current live level and snapshots the counters;
/// [`Watermark::finish`] reports how far the scope pushed them.
///
/// Used by both round engines to fill the `mem_*` fields of
/// `RoundMetrics` / `HealthRecord`. Process-global: concurrent scopes
/// (parallel tests, overlapping rounds) see each other's traffic, which
/// is why the consumers treat the values as observability data, never
/// as inputs to the math.
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    start_live: u64,
    start_allocs: u64,
    start_alloc_bytes: u64,
}

/// The allocation activity a [`Watermark`] scope observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatermarkDelta {
    /// Peak live bytes above the scope's starting live level.
    pub peak_bytes: u64,
    /// Allocations during the scope.
    pub allocs: u64,
    /// Bytes allocated during the scope (gross).
    pub alloc_bytes: u64,
}

/// Opens a watermark scope: resets the global peak to the current live
/// level and snapshots the counters.
#[must_use]
pub fn watermark() -> Watermark {
    let s = stats();
    // ORDERING: Relaxed — the reset races benignly with concurrent
    // fetch_max calls; scopes are documented as process-global
    // observability, not synchronization.
    PEAK_BYTES.store(s.live_bytes, Relaxed);
    Watermark {
        start_live: s.live_bytes,
        start_allocs: s.allocs,
        start_alloc_bytes: s.alloc_bytes,
    }
}

impl Watermark {
    /// Closes the scope: peak-above-start and gross activity since the
    /// scope opened (saturating — concurrent frees can push live below
    /// the starting level).
    #[must_use]
    pub fn finish(&self) -> WatermarkDelta {
        let s = stats();
        WatermarkDelta {
            peak_bytes: s.peak_bytes.saturating_sub(self.start_live),
            allocs: s.allocs.saturating_sub(self.start_allocs),
            alloc_bytes: s.alloc_bytes.saturating_sub(self.start_alloc_bytes),
        }
    }
}

/// Renders `bytes` with a binary unit suffix (`B`, `KiB`, `MiB`, `GiB`),
/// one decimal above bytes — shared by the profiler, the summary table
/// and the watch dashboard.
#[must_use]
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KIB {
        format!("{bytes} B")
    } else if b < KIB * KIB {
        format!("{:.1} KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1} MiB", b / (KIB * KIB))
    } else {
        format!("{:.1} GiB", b / (KIB * KIB * KIB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "tracked allocator is not installed under Miri")]
    fn counters_observe_a_boxed_allocation() {
        let before = stats();
        let mark = thread_mark();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = stats();
        let delta = mark.delta();
        drop(v);
        assert!(after.allocs > before.allocs, "alloc count advanced");
        assert!(after.alloc_bytes >= before.alloc_bytes + 4096);
        assert!(delta.allocs >= 1, "thread-local attribution saw the vec");
        assert!(delta.alloc_bytes >= 4096);
    }

    #[test]
    #[cfg_attr(miri, ignore = "tracked allocator is not installed under Miri")]
    fn live_bytes_fall_on_free() {
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let with_live = stats().live_bytes;
        drop(v);
        let after_free = stats().live_bytes;
        assert!(
            after_free + (1 << 20) <= with_live + (1 << 19),
            "freeing 1 MiB lowered live bytes ({with_live} -> {after_free})"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "tracked allocator is not installed under Miri")]
    fn watermark_measures_peak_above_start() {
        let wm = watermark();
        let v: Vec<u8> = vec![0; 1 << 21];
        drop(v);
        let delta = wm.finish();
        assert!(
            delta.peak_bytes >= 1 << 21,
            "peak {} covers the 2 MiB spike",
            delta.peak_bytes
        );
        assert!(delta.allocs >= 1);
        assert!(delta.alloc_bytes >= 1 << 21);
    }

    #[test]
    fn thread_marks_are_thread_private() {
        let mark = thread_mark();
        std::thread::spawn(|| {
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            drop(v);
        })
        .join()
        .expect("worker thread joins");
        // The worker's 64 KiB never lands on this thread's counters.
        assert!(mark.delta().alloc_bytes < 1 << 16);
    }

    #[test]
    #[cfg_attr(miri, ignore = "tracked allocator is not installed under Miri")]
    fn size_classes_bucket_by_log2() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(u64::MAX), 63);
        let before = size_class_histogram();
        let v: Vec<u8> = Vec::with_capacity(1000); // bucket 9: 512..1023
        drop(v);
        let after = size_class_histogram();
        assert!(after[9] > before[9], "1000-byte alloc lands in bucket 9");
    }

    #[test]
    fn fmt_bytes_picks_binary_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GiB");
    }
}
