//! # fhdnn-telemetry
//!
//! A zero-dependency (std-only) tracing/metrics layer for the
//! FHDnn reproduction. The paper's headline results are accounting claims
//! — bytes on the wire, airtime, accuracy under injected impairments — so
//! the stack needs a way to *observe itself*: where round wall-clock goes,
//! how many bits actually flipped, what the encoder hot path costs.
//!
//! The building blocks:
//!
//! - [`Recorder`] — counters, gauges, value distributions and timed
//!   [`SpanGuard`] spans, aggregated in memory and streamed to a sink,
//! - sinks — [`sink::NoopSink`] (near-zero overhead when disabled),
//!   [`sink::MemorySink`] (tests), [`sink::JsonlSink`] (one JSON object
//!   per line: `{"ts":…,"kind":"span|counter|gauge|hist|event","name":…,
//!   "fields":{…}}`),
//! - [`clock::Clock`] — injectable time source; [`clock::ManualClock`]
//!   makes two identical runs byte-identical, timestamps included,
//! - [`Recorder::summary`] — an aligned, human-readable table of span
//!   totals, counters, gauges and histograms.
//!
//! # Example
//!
//! ```
//! use fhdnn_telemetry::{Recorder, sink::MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tel = Recorder::with_sink(sink.clone());
//! {
//!     let _round = tel.span("round");
//!     tel.incr("fl.bytes_up", 4096);
//! }
//! assert_eq!(tel.counter_value("fl.bytes_up"), 4096);
//! assert_eq!(sink.len(), 2); // one counter event + one span event
//! println!("{}", tel.summary());
//! ```

#![deny(missing_docs)]
// `deny` rather than `forbid`: the `mem` module's GlobalAlloc wrapper is
// the one sanctioned unsafe island (SAFETY-audited by `fhdnn lint`);
// everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]

pub mod alert;
pub mod clock;
pub mod event;
pub mod jsonl;
pub mod mem;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod sketch;
pub mod task;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use clock::{Clock, SystemClock};
use event::{Event, EventKind, FieldValue};
use sink::{JsonlSink, NoopSink, Sink};
use sketch::QuantileSketch;
use task::{TaskBuffer, TaskEntry};

/// The shared handle everything holds: a cheaply-clonable recorder.
pub type Telemetry = Arc<Recorder>;

/// Aggregate of one span name: completions and total duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed span count.
    pub count: u64,
    /// Total duration across completions, microseconds.
    pub total_micros: u64,
}

/// Aggregate of one span *path* (the `;`-joined chain of enclosing span
/// names, innermost last): completions, total duration, and a sketch of
/// individual durations for quantile queries.
///
/// This is the one span aggregate: live span closes and stream replay
/// both feed it through [`PathStat::record`], the [`profile`] module's
/// span tree is folded from it, and the flat per-name [`SpanStat`]s of
/// the summary tables are its per-name sums.
#[derive(Debug, Clone, Default)]
pub struct PathStat {
    /// Completed span count on this path.
    pub count: u64,
    /// Total duration across completions, microseconds.
    pub total_micros: u64,
    /// Distribution of individual span durations, microseconds
    /// (`total_micros / count` is the exact mean).
    pub durations: QuantileSketch,
    /// Allocations attributed to this path: performed by the owning
    /// thread while the span was open — inclusive of children, exactly
    /// like `total_micros` (the profiler derives self-allocations by
    /// subtracting child totals).
    pub allocs: u64,
    /// Bytes allocated on this path (gross, same inclusive attribution).
    pub alloc_bytes: u64,
}

impl PathStat {
    /// Folds one completed span into the aggregate.
    pub fn record(&mut self, micros: u64, allocs: u64, alloc_bytes: u64) {
        self.count += 1;
        self.total_micros += micros;
        self.durations.observe(micros as f64);
        self.allocs += allocs;
        self.alloc_bytes += alloc_bytes;
    }
}

/// Separator between span names in a recorded path — the same character
/// the collapsed-stack (flamegraph) format uses, so paths double as
/// ready-made stack frames.
pub const PATH_SEPARATOR: char = ';';

/// The names of the spans currently open on one thread of work — an OS
/// thread, or one [`TaskBuffer`] — outermost first. This is the one place
/// span paths are joined and an out-of-order close is healed.
#[derive(Debug, Default)]
pub(crate) struct SpanStack(Vec<&'static str>);

impl SpanStack {
    pub(crate) const fn new() -> Self {
        SpanStack(Vec::new())
    }

    /// Opens `name` under the spans already open; returns its 1-based
    /// depth. [`SpanStack::joined`] is its full path until the next call.
    fn open(&mut self, name: &'static str) -> usize {
        self.0.push(name);
        self.0.len()
    }

    /// Closes the span opened at `depth` together with anything still
    /// open under it. Truncating rather than popping is what heals the
    /// stack when a parent closes before its children; the children's
    /// own late closes then find their depth gone and change nothing.
    fn close(&mut self, depth: usize) {
        self.0.truncate(depth - 1);
    }

    /// The `;`-joined path of the open spans (empty when none are), in
    /// one exactly-sized allocation: what a span's bookkeeping allocates
    /// must not depend on what ran on the thread before it, or same-seed
    /// streams stop being byte-identical.
    fn joined(&self) -> String {
        let mut path = String::with_capacity(self.0.iter().map(|s| s.len() + 1).sum());
        for (i, name) in self.0.iter().enumerate() {
            if i > 0 {
                path.push(PATH_SEPARATOR);
            }
            path.push_str(name);
        }
        path
    }
}

/// One open span: what [`SpanGuard`] and [`task::TaskSpan`] both hold
/// between open and close.
#[derive(Debug)]
pub(crate) struct OpenSpan {
    pub(crate) name: &'static str,
    /// Full `;`-joined path including `name`, fixed at open.
    pub(crate) path: String,
    /// 1-based depth on the stack that opened the span.
    depth: usize,
    start: u64,
    /// The owning thread's allocation counters at open; the close delta
    /// is the span's attributed allocation activity.
    mark: mem::ThreadMark,
}

impl OpenSpan {
    pub(crate) fn open(stack: &mut SpanStack, name: &'static str, clock: &dyn Clock) -> Self {
        let depth = stack.open(name);
        OpenSpan {
            name,
            path: stack.joined(),
            depth,
            // Marked after the path is built, so the span's own
            // bookkeeping never charges it — keeping same-seed runs
            // byte-identical.
            mark: mem::thread_mark(),
            start: clock.now_micros(),
        }
    }

    /// Closes the span on the stack that opened it; returns its duration
    /// in microseconds and the thread's allocation activity while open.
    pub(crate) fn close(&self, stack: &mut SpanStack, clock: &dyn Clock) -> (u64, mem::ThreadMark) {
        // Delta first: recording the result allocates, and those
        // allocations belong to the *enclosing* span, not this one.
        let alloc = self.mark.delta();
        let micros = clock.now_micros().saturating_sub(self.start);
        stack.close(self.depth);
        (micros, alloc)
    }
}

thread_local! {
    /// The spans open on this thread. Shared by all recorders (in
    /// practice one enabled recorder exists per run); disabled recorders
    /// never touch it.
    static SPAN_STACK: RefCell<SpanStack> = const { RefCell::new(SpanStack::new()) };
}

/// The entry of `map` under `name`, allocating the key only on first
/// sight: every later event of a name finds it by `&str`.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// The telemetry recorder: aggregates metrics in memory and streams every
/// observation to the configured sink.
///
/// All methods take `&self`; a recorder is shared as [`Telemetry`]
/// (`Arc<Recorder>`). A disabled recorder ([`Recorder::disabled`]) costs
/// one branch per call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    clock: Arc<dyn Clock>,
    sink: Arc<dyn Sink>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    paths: Mutex<BTreeMap<String, PathStat>>,
    /// Per name: the sketch of observed values and, for the mean, their
    /// exact (saturating) sum.
    histograms: Mutex<BTreeMap<String, (QuantileSketch, u64)>>,
    traces: Mutex<trace::TraceRing>,
    /// Events that reached the sink — the recorder metering itself, so
    /// fleet mode can *prove* events-per-round is O(1) in client count.
    events_emitted: AtomicU64,
}

impl Recorder {
    fn build(enabled: bool, sink: Arc<dyn Sink>, clock: Arc<dyn Clock>) -> Telemetry {
        Arc::new(Recorder {
            enabled,
            clock,
            sink,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            paths: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(trace::TraceRing::default()),
            events_emitted: AtomicU64::new(0),
        })
    }

    /// The shared disabled recorder: every call is a no-op behind a single
    /// branch. This is the default wired through the federated stack, so
    /// uninstrumented runs pay (almost) nothing.
    pub fn disabled() -> Telemetry {
        static NOOP: OnceLock<Telemetry> = OnceLock::new();
        NOOP.get_or_init(|| {
            Recorder::build(false, Arc::new(NoopSink), Arc::new(SystemClock::new()))
        })
        .clone()
    }

    /// An enabled recorder streaming to `sink` on the real clock.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Telemetry {
        Recorder::build(true, sink, Arc::new(SystemClock::new()))
    }

    /// An enabled recorder with an explicit clock — inject a
    /// [`clock::ManualClock`] for deterministic timestamps.
    pub fn with_sink_and_clock(sink: Arc<dyn Sink>, clock: Arc<dyn Clock>) -> Telemetry {
        Recorder::build(true, sink, clock)
    }

    /// An enabled recorder that only aggregates in memory (no event
    /// stream) — enough for [`Recorder::summary`].
    pub fn in_memory() -> Telemetry {
        Recorder::with_sink(Arc::new(NoopSink))
    }

    /// An enabled recorder appending JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn to_jsonl(path: impl AsRef<std::path::Path>) -> std::io::Result<Telemetry> {
        Ok(Recorder::with_sink(Arc::new(JsonlSink::create(path)?)))
    }

    /// `true` when observations are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current reading of the recorder's clock in microseconds.
    ///
    /// Useful for measuring durations that must stay deterministic under
    /// an injected [`clock::ManualClock`] (e.g. round timing in seeded
    /// reproducibility runs).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Adds `delta` to the named counter.
    pub fn incr(&self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let total = {
            let mut counters = self.counters.lock().expect("counters poisoned");
            let entry = slot(&mut counters, name);
            *entry += delta;
            *entry
        };
        self.emit(
            EventKind::Counter,
            name,
            &[("delta", delta.into()), ("total", total.into())],
        );
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        *slot(&mut self.gauges.lock().expect("gauges poisoned"), name) = value;
        self.emit(EventKind::Gauge, name, &[("value", value.into())]);
    }

    /// Records one observation into the named value distribution.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        {
            let mut histograms = self.histograms.lock().expect("histograms poisoned");
            let (sketch, sum) = slot(&mut histograms, name);
            sketch.observe(value as f64);
            *sum = sum.saturating_add(value);
        }
        self.emit(EventKind::Hist, name, &[("value", value.into())]);
    }

    /// Emits a free-form point event.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        if !self.enabled {
            return;
        }
        self.emit(EventKind::Event, name, fields);
    }

    /// Opens a timed span; the returned guard records the elapsed time
    /// when dropped.
    ///
    /// Spans opened while another span is open on the same thread become
    /// its children: the closing event carries the full `;`-joined path
    /// (e.g. `round;round.transmit;hdc.quantize`), which feeds the
    /// [`profile`] module's call-tree aggregation. Guards are expected to
    /// drop in LIFO order (the natural RAII pattern); a guard dropped
    /// early also closes any children still open on its own bookkeeping.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard(self.enabled.then(|| {
            let clock = &*self.clock;
            let open = SPAN_STACK.with(|s| OpenSpan::open(&mut s.borrow_mut(), name, clock));
            (self, open)
        }))
    }

    /// Records one completed span with externally measured duration and
    /// allocation activity: updates the per-path aggregate and emits the
    /// span event. Guard drops and buffered worker spans replayed at the
    /// round barrier both end here.
    fn record_span(&self, name: &str, path: &str, micros: u64, alloc: mem::ThreadMark) {
        slot(&mut self.paths.lock().expect("paths poisoned"), path).record(
            micros,
            alloc.allocs,
            alloc.alloc_bytes,
        );
        self.emit(
            EventKind::Span,
            name,
            &[
                ("micros", micros.into()),
                ("path", path.into()),
                ("allocs", alloc.allocs.into()),
                ("alloc_bytes", alloc.alloc_bytes.into()),
            ],
        );
    }

    /// Creates a private span/counter buffer for one unit of parallel
    /// work (see [`task::TaskBuffer`]). The buffer inherits this
    /// recorder's enabled flag and clock; replay it with
    /// [`Recorder::absorb_task`] at the synchronization barrier.
    pub fn task_buffer(&self) -> TaskBuffer {
        TaskBuffer::new(self.enabled, self.clock.clone())
    }

    /// The `;`-joined path of spans currently open on *this* thread
    /// (empty when none are open). Buffered task spans absorbed here
    /// are nested under this path.
    #[must_use]
    pub fn current_path(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        SPAN_STACK.with(|stack| stack.borrow().joined())
    }

    /// Replays a task buffer into this recorder: spans are recorded
    /// under the calling thread's currently-open span path with their
    /// buffered durations, counters are applied via [`Recorder::incr`].
    /// Entries replay in the order the task recorded them, so absorbing
    /// buffers in a fixed order yields a deterministic stream
    /// regardless of how many threads produced them.
    pub fn absorb_task(&self, buf: TaskBuffer) {
        if !self.enabled || !buf.enabled() {
            return;
        }
        let mut prefix = self.current_path();
        if !prefix.is_empty() {
            prefix.push(PATH_SEPARATOR);
        }
        for entry in buf.drain() {
            match entry {
                TaskEntry::Span(span, micros, alloc) => {
                    let path = [prefix.as_str(), &span.path].concat();
                    self.record_span(span.name, &path, micros, alloc);
                }
                TaskEntry::Counter { name, delta } => self.incr(name, delta),
            }
        }
    }

    /// Records one task execution trace: the trace is retained in the
    /// bounded in-memory ring (read back with
    /// [`Recorder::trace_snapshot`]) and emitted as a `trace.task`
    /// event, so JSONL streams replay into the identical timeline.
    /// Ring evictions are counted on the `trace.dropped` counter. On a
    /// disabled recorder this is a no-op behind one branch.
    pub fn record_task_trace(&self, t: trace::TaskTrace) {
        if !self.enabled {
            return;
        }
        self.emit(
            EventKind::Event,
            registry::EVENT_TRACE_TASK,
            &t.event_fields(),
        );
        let evicted = self.traces.lock().expect("traces poisoned").push(t);
        if evicted {
            self.incr("trace.dropped", 1);
        }
    }

    /// The task traces currently retained in the ring, oldest first.
    #[must_use]
    pub fn trace_snapshot(&self) -> Vec<trace::TaskTrace> {
        self.traces.lock().expect("traces poisoned").snapshot()
    }

    fn emit(&self, kind: EventKind, name: &str, fields: &[(&str, FieldValue)]) {
        let event = Event::new(self.clock.now_micros(), kind, name, fields);
        self.sink.record(&event);
        // ORDERING: Relaxed — self-metering tally; readers want an
        // eventual total, not an edge ordered against sink writes.
        self.events_emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Total events this recorder has pushed to its sink — the raw
    /// material of the `telemetry.overhead.events` self-metering
    /// counter. Snapshot it around a round to measure the round's
    /// emission cost.
    #[must_use]
    // ORDERING: Relaxed — reads an eventual total of a monotonic tally.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted.load(Ordering::Relaxed)
    }

    /// Total bytes the sink has serialized (0 for sinks that do not
    /// write bytes) — the raw material of the
    /// `telemetry.overhead.jsonl_bytes` self-metering counter.
    #[must_use]
    pub fn sink_bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        *self
            .counters
            .lock()
            .expect("counters poisoned")
            .get(name)
            .unwrap_or(&0)
    }

    /// Aggregate of a span name (zero if never closed).
    pub fn span_stat(&self, name: &str) -> SpanStat {
        self.span_stats().remove(name).unwrap_or_default()
    }

    /// All flat per-name span aggregates: the path aggregates summed by
    /// their last segment.
    pub fn span_stats(&self) -> BTreeMap<String, SpanStat> {
        let mut flat: BTreeMap<String, SpanStat> = BTreeMap::new();
        for (path, stat) in self.paths.lock().expect("paths poisoned").iter() {
            let name = path.rsplit(PATH_SEPARATOR).next().unwrap_or(path);
            let flat = slot(&mut flat, name);
            flat.count += stat.count;
            flat.total_micros += stat.total_micros;
        }
        flat
    }

    /// All per-path span aggregates (`;`-joined paths, innermost last) —
    /// the raw material of the [`profile`] span-tree profiler.
    pub fn path_stats(&self) -> BTreeMap<String, PathStat> {
        self.paths.lock().expect("paths poisoned").clone()
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        self.sink.flush();
    }

    /// Renders an aligned human-readable table of span totals, counters,
    /// gauges and histograms. Empty sections are omitted; a recorder with
    /// no data renders an explanatory one-liner.
    pub fn summary(&self) -> String {
        let spans = self.span_stats();
        let counters = self.counters.lock().expect("counters poisoned").clone();
        let gauges = self.gauges.lock().expect("gauges poisoned").clone();
        let histograms = self.histograms.lock().expect("histograms poisoned").clone();

        let w = spans
            .keys()
            .chain(counters.keys())
            .chain(gauges.keys())
            .chain(histograms.keys())
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max("name".len());

        let mut sections: Vec<String> = Vec::new();
        if !spans.is_empty() {
            let mut t = format!(
                "{:<w$}  {:>8}  {:>12}  {:>12}\n",
                "span", "count", "total", "mean"
            );
            for (name, stat) in &spans {
                let total = stat.total_micros as f64;
                let mean = fmt_micros(total / stat.count.max(1) as f64);
                let total = fmt_micros(total);
                let _ = writeln!(t, "{name:<w$}  {:>8}  {total:>12}  {mean:>12}", stat.count);
            }
            sections.push(t);
        }
        if !counters.is_empty() {
            let mut t = format!("{:<w$}  {:>16}\n", "counter", "value");
            for (name, value) in &counters {
                let _ = writeln!(t, "{name:<w$}  {value:>16}");
            }
            sections.push(t);
        }
        if !gauges.is_empty() {
            let mut t = format!("{:<w$}  {:>16}\n", "gauge", "value");
            for (name, value) in &gauges {
                let _ = writeln!(t, "{name:<w$}  {value:>16.4}");
            }
            sections.push(t);
        }
        if !histograms.is_empty() {
            let mut t = format!(
                "{:<w$}  {:>8}  {:>12}  {:>12}  {:>12}\n",
                "histogram", "count", "mean", "p50", "p99"
            );
            for (name, (sketch, sum)) in &histograms {
                let (count, p50, p99) =
                    (sketch.count(), sketch.quantile(0.5), sketch.quantile(0.99));
                let mean = *sum as f64 / count.max(1) as f64;
                let _ = writeln!(
                    t,
                    "{name:<w$}  {count:>8}  {mean:>12.1}  {p50:>12.1}  {p99:>12.1}"
                );
            }
            sections.push(t);
        }
        if sections.is_empty() {
            return "telemetry: no data recorded\n".into();
        }
        sections.join("\n")
    }
}

/// Formats microseconds with a readable unit.
pub(crate) fn fmt_micros(micros: f64) -> String {
    if micros >= 1_000_000.0 {
        format!("{:.3}s", micros / 1_000_000.0)
    } else if micros >= 1_000.0 {
        format!("{:.3}ms", micros / 1_000.0)
    } else {
        format!("{micros:.0}us")
    }
}

/// RAII guard for a timed span: records the elapsed time on drop.
/// Empty when the recorder is disabled.
#[derive(Debug)]
pub struct SpanGuard<'a>(Option<(&'a Recorder, OpenSpan)>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((rec, span)) = self.0.take() {
            let clock = &*rec.clock;
            let (micros, alloc) = SPAN_STACK.with(|s| span.close(&mut s.borrow_mut(), clock));
            rec.record_span(span.name, &span.path, micros, alloc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock::ManualClock;
    use sink::MemorySink;

    #[test]
    fn disabled_recorder_records_nothing() {
        let tel = Recorder::disabled();
        tel.incr("c", 5);
        tel.gauge("g", 1.0);
        tel.observe("h", 3);
        {
            let _s = tel.span("s");
        }
        assert!(!tel.enabled());
        assert_eq!(tel.counter_value("c"), 0);
        assert_eq!(tel.span_stat("s"), SpanStat::default());
    }

    /// Cross-thread audit for the parallel round engine: counters,
    /// histograms, span stats and absorbed task buffers from many
    /// threads must merge without losing a single observation — the
    /// per-map mutexes make every read-modify-write atomic.
    #[test]
    fn concurrent_recording_merges_without_loss() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;

        let sink = Arc::new(MemorySink::new());
        let tel = Recorder::with_sink_and_clock(sink.clone(), Arc::new(ManualClock::new(1)));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let tel = tel.clone();
                scope.spawn(move || {
                    let mut buf = tel.task_buffer();
                    for i in 0..PER_THREAD {
                        tel.incr("direct", 1);
                        tel.observe("hist", i);
                        {
                            let _g = tel.span("work");
                            let _nested = tel.span("task.step");
                        }
                        buf.incr("buffered", 1);
                        let s = buf.begin("task.step");
                        buf.end(s);
                    }
                    tel.absorb_task(buf);
                });
            }
        });
        let total = THREADS * PER_THREAD;
        assert_eq!(tel.counter_value("direct"), total);
        assert_eq!(tel.counter_value("buffered"), total);
        assert_eq!(tel.span_stat("work").count, total);
        // Flat per-name stats are the path aggregates summed by last
        // segment: `task.step` closed under `work` and, buffered, alone.
        let paths = tel.path_stats();
        assert_eq!(paths["work;task.step"].count, total);
        assert_eq!(paths["task.step"].count, total);
        for name in ["work", "task.step"] {
            let of_name = || {
                paths
                    .iter()
                    .filter(|(p, _)| p.rsplit(';').next() == Some(name))
            };
            let flat = tel.span_stat(name);
            assert_eq!(flat.count, of_name().map(|(_, s)| s.count).sum::<u64>());
            let micros = of_name().map(|(_, s)| s.total_micros).sum::<u64>();
            assert_eq!(flat.total_micros, micros);
        }
        // Every observation also reached the sink as a whole event.
        let events = sink.events();
        assert!(events.len() as u64 >= 3 * total);
    }

    #[test]
    fn counters_accumulate_and_emit() {
        let sink = Arc::new(MemorySink::new());
        let tel = Recorder::with_sink(sink.clone());
        tel.incr("fl.bytes_up", 10);
        tel.incr("fl.bytes_up", 20);
        assert_eq!(tel.counter_value("fl.bytes_up"), 30);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].fields["total"], FieldValue::U64(30));
    }

    #[test]
    fn spans_measure_manual_clock_time() {
        let sink = Arc::new(MemorySink::new());
        let clock = Arc::new(ManualClock::new(5));
        let tel = Recorder::with_sink_and_clock(sink.clone(), clock);
        {
            let _outer = tel.span("outer");
            let _inner = tel.span("inner");
        }
        // Each clock reading advances 5us; inner closes first.
        let inner = tel.span_stat("inner");
        let outer = tel.span_stat("outer");
        assert_eq!(inner.count, 1);
        assert_eq!(outer.count, 1);
        assert!(outer.total_micros > inner.total_micros);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn nested_spans_record_paths() {
        let sink = Arc::new(MemorySink::new());
        let clock = Arc::new(ManualClock::new(5));
        let tel = Recorder::with_sink_and_clock(sink.clone(), clock);
        {
            let _outer = tel.span("round");
            {
                let _inner = tel.span("round.transmit");
                let _leaf = tel.span("hdc.quantize");
            }
            let _again = tel.span("round.transmit");
        }
        let paths = tel.path_stats();
        assert_eq!(paths["round"].count, 1);
        assert_eq!(paths["round;round.transmit"].count, 2);
        assert_eq!(paths["round;round.transmit;hdc.quantize"].count, 1);
        // Flat per-name stats equal the per-name sum over paths.
        assert_eq!(tel.span_stat("round.transmit").count, 2);
        assert_eq!(
            tel.span_stat("round.transmit").total_micros,
            paths["round;round.transmit"].total_micros
        );
        // The emitted span events carry the path field.
        let span_paths: Vec<String> = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| match &e.fields["path"] {
                FieldValue::Str(s) => s.clone(),
                other => panic!("path should be a string, got {other:?}"),
            })
            .collect();
        assert!(span_paths.contains(&"round;round.transmit;hdc.quantize".to_string()));
    }

    #[test]
    fn spans_attribute_allocation_deltas() {
        let sink = Arc::new(MemorySink::new());
        let tel = Recorder::with_sink_and_clock(sink.clone(), Arc::new(ManualClock::new(1)));
        {
            let _s = tel.span("work");
            let v: Vec<u8> = Vec::with_capacity(100_000);
            drop(v);
        }
        let paths = tel.path_stats();
        assert!(paths["work"].allocs >= 1, "the vec counts");
        assert!(paths["work"].alloc_bytes >= 100_000);
        // The emitted span event carries the attribution fields.
        let span = sink
            .events()
            .into_iter()
            .find(|e| e.kind == EventKind::Span)
            .expect("one span event");
        match span.fields["alloc_bytes"] {
            FieldValue::U64(b) => assert!(b >= 100_000, "alloc_bytes {b}"),
            ref other => panic!("alloc_bytes should be u64, got {other:?}"),
        }
        assert!(span.fields.contains_key("allocs"));
    }

    #[test]
    fn task_buffers_attribute_worker_allocations() {
        let tel = Recorder::in_memory();
        let buf = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut buf = tel.task_buffer();
                    let s = buf.begin("round.local_train");
                    let v: Vec<u8> = Vec::with_capacity(65_536);
                    drop(v);
                    buf.end(s);
                    buf
                })
                .join()
                .expect("worker joins")
        });
        tel.absorb_task(buf);
        let paths = tel.path_stats();
        assert!(
            paths["round.local_train"].alloc_bytes >= 65_536,
            "worker-side allocation replayed through the barrier: {:?}",
            paths["round.local_train"]
        );
    }

    #[test]
    fn early_parent_drop_recovers_stack() {
        let tel = Recorder::in_memory();
        let outer = tel.span("outer");
        let inner = tel.span("inner");
        // Parent dropped before child: the stack self-heals, and a span
        // opened afterwards is a root again.
        drop(outer);
        drop(inner);
        {
            let _fresh = tel.span("fresh");
        }
        let paths = tel.path_stats();
        assert!(paths.contains_key("fresh"), "paths: {:?}", paths.keys());
        assert!(paths.contains_key("outer;inner"));
    }

    /// One `SpanStack` under both: the same nesting — a parent closed
    /// before its child included — yields the same paths and counts
    /// whether it ran through guards or through an absorbed buffer.
    #[test]
    fn guards_and_task_buffers_nest_identically() {
        let counts = |tel: &Recorder| -> Vec<(String, u64)> {
            let paths = tel.path_stats();
            paths.into_iter().map(|(p, s)| (p, s.count)).collect()
        };
        let guards = Recorder::in_memory();
        {
            let _root = guards.span("root");
            {
                let _a = guards.span("a");
                drop(guards.span("b"));
                drop(guards.span("b"));
            }
            let a = guards.span("a");
            let c = guards.span("c");
            drop(a);
            drop(c);
            drop(guards.span("d"));
        }
        let buffered = Recorder::in_memory();
        {
            let _root = buffered.span("root");
            let mut buf = buffered.task_buffer();
            let a = buf.begin("a");
            for _ in 0..2 {
                let b = buf.begin("b");
                buf.end(b);
            }
            buf.end(a);
            let a = buf.begin("a");
            let c = buf.begin("c");
            buf.end(a);
            buf.end(c);
            let d = buf.begin("d");
            buf.end(d);
            buffered.absorb_task(buf);
        }
        assert_eq!(counts(&guards), counts(&buffered));
        let expected = [
            ("root", 1),
            ("root;a", 2),
            ("root;a;b", 2),
            ("root;a;c", 1),
            ("root;d", 1),
        ];
        assert_eq!(
            counts(&guards),
            expected.map(|(path, count)| (path.to_string(), count))
        );
    }

    #[test]
    fn span_duration_quantiles_stay_within_the_sketch_bound() {
        let mut one = PathStat::default();
        one.record(777, 0, 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.durations.quantile(q), 777.0, "exact at count 1");
        }
        // 1 µs … 2^40 µs, three durations per octave.
        let mut sorted: Vec<u64> = (0..40)
            .flat_map(|k| [1u64 << k, (1 << k) + (1 << k) / 3, (1 << k) + (1 << k) / 2])
            .chain([1 << 40])
            .collect();
        sorted.sort_unstable();
        let mut stat = PathStat::default();
        for &micros in sorted.iter().rev() {
            stat.record(micros, 0, 0);
        }
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let truth = sorted[(q * (sorted.len() - 1) as f64).round() as usize] as f64;
            let est = stat.durations.quantile(q);
            assert!(
                (est - truth).abs() <= truth * QuantileSketch::MAX_RELATIVE_ERROR,
                "q={q}: {est} vs {truth}"
            );
        }
        assert_eq!(stat.durations.quantile(0.0), 1.0);
        assert_eq!(stat.durations.quantile(1.0), (1u64 << 40) as f64);
        // The mean needs no sketch: count and sum are exact integers.
        assert_eq!(stat.count, sorted.len() as u64);
        assert_eq!(stat.total_micros, sorted.iter().sum::<u64>());
    }

    #[test]
    fn disabled_recorder_skips_path_tracking() {
        let tel = Recorder::disabled();
        {
            let _a = tel.span("a");
            let _b = tel.span("b");
        }
        assert!(tel.path_stats().is_empty());
        // And it must not pollute the shared thread-local stack for a
        // subsequently enabled recorder.
        let live = Recorder::in_memory();
        {
            let _root = live.span("root");
        }
        assert!(live.path_stats().contains_key("root"));
    }

    #[test]
    fn manual_clock_runs_are_byte_identical() {
        let run = || {
            let sink = Arc::new(MemorySink::new());
            let tel = Recorder::with_sink_and_clock(sink.clone(), Arc::new(ManualClock::new(1)));
            {
                // Nested, so a span stack that kept state (capacity)
                // from the first run would charge `round` differently
                // in the second.
                let _s = tel.span("round");
                let _t = tel.span("round.transmit");
                let _q = tel.span("hdc.quantize");
                tel.incr("bytes", 42);
            }
            tel.gauge("acc", 0.9);
            sink.events()
                .iter()
                .map(Event::to_json)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn summary_is_aligned_and_complete() {
        let tel = Recorder::in_memory();
        tel.incr("fl.participants", 4);
        tel.gauge("fl.test_accuracy", 0.87);
        tel.observe("round_micros", 1500);
        {
            let _s = tel.span("round.local_train");
        }
        let s = tel.summary();
        assert!(s.contains("round.local_train"), "{s}");
        assert!(s.contains("fl.participants"), "{s}");
        assert!(s.contains("fl.test_accuracy"), "{s}");
        assert!(s.contains("round_micros"), "{s}");
        // Every non-empty line starts aligned within its section.
        assert!(s.lines().count() >= 8, "{s}");
    }

    #[test]
    fn empty_summary_explains_itself() {
        assert!(Recorder::in_memory().summary().contains("no data"));
    }

    #[test]
    fn task_buffer_replays_under_current_path() {
        let sink = Arc::new(MemorySink::new());
        let tel = Recorder::with_sink_and_clock(sink.clone(), Arc::new(ManualClock::new(5)));
        let round = tel.span("round");
        let mut buf = tel.task_buffer();
        let outer = buf.begin("round.transmit");
        let inner = buf.begin("chan.uplink");
        buf.end(inner);
        buf.end(outer);
        buf.incr("chan.bits", 7);
        buf.incr("chan.zero", 0); // zero-suppressed
        tel.absorb_task(buf);
        drop(round);
        let paths = tel.path_stats();
        assert_eq!(paths["round;round.transmit"].count, 1);
        assert_eq!(paths["round;round.transmit;chan.uplink"].count, 1);
        assert_eq!(tel.counter_value("chan.bits"), 7);
        assert_eq!(tel.counter_value("chan.zero"), 0);
        // Child recorded before parent, as RAII guards would have.
        let events = sink.events();
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(span_names, vec!["chan.uplink", "round.transmit", "round"]);
        // Flat per-name totals stay consistent with the path stats.
        assert_eq!(
            tel.span_stat("chan.uplink").total_micros,
            paths["round;round.transmit;chan.uplink"].total_micros
        );
    }

    #[test]
    fn disabled_task_buffer_is_inert() {
        let tel = Recorder::disabled();
        let mut buf = tel.task_buffer();
        let s = buf.begin("work");
        buf.end(s);
        buf.incr("c", 3);
        tel.absorb_task(buf);
        assert!(tel.path_stats().is_empty());
        assert_eq!(tel.counter_value("c"), 0);
    }

    #[test]
    fn fmt_micros_units() {
        assert_eq!(fmt_micros(500.0), "500us");
        assert_eq!(fmt_micros(1500.0), "1.500ms");
        assert_eq!(fmt_micros(2_500_000.0), "2.500s");
    }
}
