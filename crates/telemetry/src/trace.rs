//! Round-anatomy execution tracing: per-task timelines, worker
//! utilization, and critical-path straggler attribution.
//!
//! Every unit of client work executed by the federated round engine
//! leaves one [`TaskTrace`] behind: *measured* thread timing (which
//! worker ran it, how long it waited in the queue, how long it
//! executed — all through the recorder's injectable clock) joined with
//! *simulated* AIoT durations (device compute seconds from
//! `cost::DeviceProfile`, uplink airtime from `cost::LteLink`). The two
//! halves have very different determinism contracts:
//!
//! * **Simulated durations** are pure functions of the round's sampled
//!   participants and the transport's update size — byte-identical at
//!   every thread count and with telemetry disabled. The per-round
//!   critical-path summary ([`summarize_round`]) is derived from them
//!   and is part of `RoundMetrics` equality.
//! * **Measured timings** depend on how workers interleave their clock
//!   reads, exactly like span durations. Comparisons across thread
//!   counts must canonicalize them first ([`TaskTrace::canonical`]);
//!   with a disabled recorder they are all zero.
//!
//! Traces accumulate in a bounded [`TraceRing`] on the recorder and are
//! simultaneously emitted as `trace.task` events, so a recorded
//! `--telemetry` JSONL stream replays into the exact same timeline
//! ([`TaskTrace::from_event_fields`]). [`chrome_trace`] renders any
//! slice of traces as Chrome trace-event JSON (Perfetto-loadable) with
//! two process lanes: measured worker threads and the simulated device
//! fleet.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::event::{write_json_string, FieldValue};
use crate::jsonl::Value;
use crate::registry::EVENT_TRACE_ROUND;
use crate::Recorder;

/// Default bound on the recorder's trace ring: at 4 tasks a round this
/// is thousands of rounds of history, yet only a few MiB resident.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Measured thread timing of one task, in recorder-clock microseconds.
///
/// All three stamps come from the same injectable clock as spans. With
/// a disabled recorder every field is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskTiming {
    /// Index of the pool worker that executed the task (0 on the
    /// serial path).
    pub worker: u64,
    /// Clock stamp when the task was enqueued on the pool.
    pub enqueue_micros: u64,
    /// Clock stamp when a worker began executing the task.
    pub start_micros: u64,
    /// Clock stamp when the worker finished the task.
    pub end_micros: u64,
}

impl TaskTiming {
    /// Time spent waiting in the queue before a worker picked the task
    /// up.
    #[must_use]
    pub fn queue_micros(&self) -> u64 {
        self.start_micros.saturating_sub(self.enqueue_micros)
    }

    /// Time spent executing on the worker.
    #[must_use]
    pub fn exec_micros(&self) -> u64 {
        self.end_micros.saturating_sub(self.start_micros)
    }
}

/// One traced unit of client work: measured thread timing joined with
/// the simulated AIoT cost of the same work.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTrace {
    /// Round index the task belongs to.
    pub round: u64,
    /// Client identity (index into the federation's client list).
    pub client: u64,
    /// Engine tag (`"fedhd"` or `"fedavg"`): borrowed from the engine's
    /// constant on the round path, owned when parsed back from JSONL.
    pub engine: Cow<'static, str>,
    /// Whether the client's update arrived at the aggregator (false
    /// for stragglers).
    pub arrived: bool,
    /// Measured worker timing (canonicalized away in cross-thread
    /// comparisons).
    pub timing: TaskTiming,
    /// Simulated on-device compute time (from `cost::DeviceProfile`).
    pub sim_compute_micros: u64,
    /// Simulated uplink airtime for the client's update (from
    /// `cost::LteLink`); spent only when the update arrives.
    pub sim_uplink_micros: u64,
}

impl TaskTrace {
    /// The trace with its scheduling-dependent measured half zeroed:
    /// the canonical form compared across thread counts, mirroring the
    /// determinism suite's span exclusion.
    #[must_use]
    pub fn canonical(&self) -> TaskTrace {
        TaskTrace {
            timing: TaskTiming::default(),
            ..self.clone()
        }
    }

    /// The simulated end-to-end cost this client imposes on the round
    /// barrier: compute always, airtime only when the update arrives.
    #[must_use]
    pub fn sim_cost_micros(&self) -> u64 {
        self.sim_compute_micros
            + if self.arrived {
                self.sim_uplink_micros
            } else {
                0
            }
    }

    /// The field list of the `trace.task` event
    /// [`Recorder::record_task_trace`] emits for this trace.
    pub(crate) fn event_fields(&self) -> [(&'static str, FieldValue); 10] {
        [
            ("arrived", u64::from(self.arrived).into()),
            ("client", self.client.into()),
            ("end_micros", self.timing.end_micros.into()),
            ("engine", (&*self.engine).into()),
            ("enqueue_micros", self.timing.enqueue_micros.into()),
            ("round", self.round.into()),
            ("sim_compute_micros", self.sim_compute_micros.into()),
            ("sim_uplink_micros", self.sim_uplink_micros.into()),
            ("start_micros", self.timing.start_micros.into()),
            ("worker", self.timing.worker.into()),
        ]
    }

    /// Reconstructs a trace from the `fields` object of a recorded
    /// `trace.task` event. Returns `None` when required fields are
    /// missing or mistyped, so foreign events are skipped rather than
    /// misread.
    #[must_use]
    pub fn from_event_fields(fields: &Value) -> Option<TaskTrace> {
        let get_u64 = |key| u64_field(fields, key);
        Some(TaskTrace {
            round: get_u64("round")?,
            client: get_u64("client")?,
            engine: fields.get("engine")?.as_str()?.to_string().into(),
            arrived: get_u64("arrived")? != 0,
            timing: TaskTiming {
                worker: get_u64("worker")?,
                enqueue_micros: get_u64("enqueue_micros")?,
                start_micros: get_u64("start_micros")?,
                end_micros: get_u64("end_micros")?,
            },
            sim_compute_micros: get_u64("sim_compute_micros")?,
            sim_uplink_micros: get_u64("sim_uplink_micros")?,
        })
    }
}

/// The unsigned integer under `key` of a recorded event's `fields`.
fn u64_field(fields: &Value, key: &str) -> Option<u64> {
    Some(fields.get(key)?.as_f64()? as u64)
}

/// A bounded FIFO of task traces. When full, pushing evicts the oldest
/// trace; the recorder counts evictions on `trace.dropped` so silent
/// loss is visible.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    buf: VecDeque<TaskTrace>,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` traces (`cap == 0` keeps nothing
    /// and counts every push as dropped).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a trace, evicting the oldest when the ring is full.
    /// Returns `true` when an eviction (or a zero-capacity drop)
    /// happened.
    pub fn push(&mut self, trace: TaskTrace) -> bool {
        if self.cap == 0 {
            self.dropped += 1;
            return true;
        }
        let evicted = self.buf.len() == self.cap;
        if evicted {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(trace);
        evicted
    }

    /// Number of traces evicted since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of traces currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when the ring holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained traces, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TaskTrace> {
        self.buf.iter().cloned().collect()
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_CAPACITY)
    }
}

/// Per-round analysis derived from a round's task traces: measured
/// pool health plus the simulated critical path through the barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTraceSummary {
    /// Round index.
    pub round: u64,
    /// Engine tag of the traced round.
    pub engine: Cow<'static, str>,
    /// Number of traced tasks (sampled participants).
    pub tasks: u64,
    /// Distinct workers that executed tasks (0 when nothing was
    /// measured, i.e. telemetry disabled).
    pub workers: u64,
    /// Fraction of total worker capacity spent executing: Σ exec /
    /// (workers × busy-span). 0 when nothing was measured.
    pub worker_utilization: f64,
    /// Peak number of tasks enqueued but not yet started.
    pub queue_depth_max: u64,
    /// The client whose simulated cost bounds the barrier (first in
    /// participant order on ties; 0 when the round had no tasks).
    pub critical_client: u64,
    /// The critical client's simulated cost (compute + airtime if its
    /// update arrived).
    pub sim_critical_micros: u64,
    /// Simulated wall time of the whole round: slowest device compute,
    /// then every arriving update serialized over the shared LTE link
    /// (TDM), matching `timeline::CampaignTimeline`.
    pub sim_round_micros: u64,
}

impl RoundTraceSummary {
    /// Emits the summary as the round's `trace.round` event.
    pub fn emit(&self, tel: &Recorder) {
        tel.event(
            EVENT_TRACE_ROUND,
            &[
                ("critical_client", self.critical_client.into()),
                ("engine", (&*self.engine).into()),
                ("queue_depth_max", self.queue_depth_max.into()),
                ("round", self.round.into()),
                ("sim_critical_micros", self.sim_critical_micros.into()),
                ("sim_round_micros", self.sim_round_micros.into()),
                ("tasks", self.tasks.into()),
                ("worker_utilization", self.worker_utilization.into()),
                ("workers", self.workers.into()),
            ],
        );
    }

    /// Reconstructs a summary from the `fields` object of a recorded
    /// `trace.round` event; `None` when a field is missing or mistyped.
    #[must_use]
    pub fn from_event_fields(fields: &Value) -> Option<RoundTraceSummary> {
        let get_u64 = |key| u64_field(fields, key);
        Some(RoundTraceSummary {
            round: get_u64("round")?,
            engine: fields.get("engine")?.as_str()?.to_string().into(),
            tasks: get_u64("tasks")?,
            workers: get_u64("workers")?,
            worker_utilization: fields.get("worker_utilization")?.as_f64()?,
            queue_depth_max: get_u64("queue_depth_max")?,
            critical_client: get_u64("critical_client")?,
            sim_critical_micros: get_u64("sim_critical_micros")?,
            sim_round_micros: get_u64("sim_round_micros")?,
        })
    }
}

/// Analyzes the traces of one round. The simulated half (critical path,
/// round time) is deterministic at any thread count and with telemetry
/// disabled; the measured half (workers, utilization, queue depth) is
/// zero when the traces carry no measured timing.
#[must_use]
pub fn summarize_round(rows: &[TaskTrace]) -> RoundTraceSummary {
    let (round, engine) = rows
        .first()
        .map(|r| (r.round, r.engine.clone()))
        .unwrap_or((0, Cow::Borrowed("")));

    // Simulated critical path: ties resolve to the first participant.
    let mut critical_client = 0u64;
    let mut sim_critical_micros = 0u64;
    let mut max_compute = 0u64;
    let mut uplink_total = 0u64;
    for (i, row) in rows.iter().enumerate() {
        let cost = row.sim_cost_micros();
        if i == 0 || cost > sim_critical_micros {
            critical_client = row.client;
            sim_critical_micros = cost;
        }
        max_compute = max_compute.max(row.sim_compute_micros);
        if row.arrived {
            uplink_total += row.sim_uplink_micros;
        }
    }
    let sim_round_micros = if rows.is_empty() {
        0
    } else {
        max_compute + uplink_total
    };

    // Measured pool health, zero when nothing was measured.
    let measured = rows.iter().any(|r| r.timing.end_micros > 0);
    let (workers, worker_utilization, queue_depth_max) = if measured {
        let workers = distinct(rows, |r| r.timing.worker);
        let span_start = rows
            .iter()
            .map(|r| r.timing.enqueue_micros)
            .min()
            .unwrap_or(0);
        let span_end = rows.iter().map(|r| r.timing.end_micros).max().unwrap_or(0);
        let span = span_end.saturating_sub(span_start);
        let exec_total: u64 = rows.iter().map(|r| r.timing.exec_micros()).sum();
        let utilization = if span == 0 {
            0.0
        } else {
            exec_total as f64 / (workers.len() as u64 * span) as f64
        };
        // Queue-depth sweep: +1 at enqueue, -1 at start; the -1 sorts
        // first at equal stamps so an instant handoff never counts.
        let mut edges: Vec<(u64, i64)> = Vec::with_capacity(rows.len() * 2);
        for r in rows {
            edges.push((r.timing.enqueue_micros, 1));
            edges.push((r.timing.start_micros, -1));
        }
        edges.sort_unstable();
        let (mut depth, mut peak) = (0i64, 0i64);
        for (_, d) in edges {
            depth += d;
            peak = peak.max(depth);
        }
        (workers.len() as u64, utilization, peak.max(0) as u64)
    } else {
        (0, 0.0, 0)
    };

    RoundTraceSummary {
        round,
        engine,
        tasks: rows.len() as u64,
        workers,
        worker_utilization,
        queue_depth_max,
        critical_client,
        sim_critical_micros,
        sim_round_micros,
    }
}

/// The distinct values of `id` over `rows`, ascending.
fn distinct(rows: &[TaskTrace], id: fn(&TaskTrace) -> u64) -> Vec<u64> {
    let mut ids: Vec<u64> = rows.iter().map(id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `true` when two traces belong to the same `(engine, round)` group.
fn same_round(a: &TaskTrace, b: &TaskTrace) -> bool {
    a.round == b.round && a.engine == b.engine
}

/// Splits a trace slice into consecutive `(engine, round)` groups and
/// summarizes each — the shape `fhdnn trace` renders as its per-round
/// table.
#[must_use]
pub fn summarize(rows: &[TaskTrace]) -> Vec<RoundTraceSummary> {
    rows.chunk_by(same_round).map(summarize_round).collect()
}

/// One complete (`"ph":"X"`) slice of the Chrome trace.
fn slice(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
    args: &[(&str, u64)],
) -> String {
    let mut out =
        format!("{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":");
    write_json_string(&mut out, name);
    out.push_str(",\"cat\":");
    write_json_string(&mut out, cat);
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, k);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}}");
    out
}

/// One metadata (`"ph":"M"`) record naming a process or thread row.
fn metadata(meta_name: &str, pid: u64, tid: u64, value: &str) -> String {
    let mut out = format!("{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":");
    write_json_string(&mut out, meta_name);
    out.push_str(",\"args\":{\"name\":");
    write_json_string(&mut out, value);
    out.push_str("}}");
    out
}

/// Process id of the measured lane (worker threads) in the exported
/// Chrome trace.
pub const MEASURED_PID: u64 = 1;
/// Process id of the simulated lane (AIoT device fleet) in the
/// exported Chrome trace.
pub const SIMULATED_PID: u64 = 2;

/// Renders traces as Chrome trace-event JSON (`chrome://tracing` /
/// Perfetto `Open trace file`).
///
/// Two process lanes: pid 1 holds the *measured* timeline (one thread
/// row per pool worker, slices stamped with the recorder clock), pid 2
/// holds the *simulated* timeline (one thread row per client; device
/// compute slices start at the round's simulated origin, arriving
/// uplinks are serialized over the shared link after the slowest
/// compute, and the origin advances by the round's simulated duration
/// so a campaign reads left-to-right). Straggler compute slices carry a
/// `straggler` category. The output is a pure function of the input
/// slice — byte-identical whenever the traces are.
#[must_use]
pub fn chrome_trace(rows: &[TaskTrace]) -> String {
    // Lane metadata: process names plus one thread row per distinct
    // worker / client, sorted for stable output.
    let mut events = vec![metadata(
        "process_name",
        MEASURED_PID,
        0,
        "measured: pool workers",
    )];
    for w in distinct(rows, |r| r.timing.worker) {
        let name = format!("worker {w}");
        events.push(metadata("thread_name", MEASURED_PID, w, &name));
    }
    events.push(metadata(
        "process_name",
        SIMULATED_PID,
        0,
        "simulated: AIoT devices",
    ));
    for c in distinct(rows, |r| r.client) {
        let name = format!("client {c}");
        events.push(metadata("thread_name", SIMULATED_PID, c, &name));
    }

    // Measured lane: one slice per task on its worker's row.
    for r in rows {
        events.push(slice(
            &format!("r{} c{}", r.round, r.client),
            &r.engine,
            MEASURED_PID,
            r.timing.worker,
            r.timing.start_micros,
            r.timing.exec_micros(),
            &[
                ("round", r.round),
                ("client", r.client),
                ("queue_micros", r.timing.queue_micros()),
            ],
        ));
    }

    // Simulated lane: compute at the round origin, arriving uplinks
    // TDM-serialized after the slowest compute (the same model as
    // `timeline::CampaignTimeline`), origin advancing per round group.
    let mut origin = 0u64;
    for group in rows.chunk_by(same_round) {
        let max_compute = group
            .iter()
            .map(|r| r.sim_compute_micros)
            .max()
            .unwrap_or(0);
        for r in group {
            let cat = if r.arrived {
                format!("{},compute", r.engine)
            } else {
                format!("{},compute,straggler", r.engine)
            };
            events.push(slice(
                &format!("r{} compute", r.round),
                &cat,
                SIMULATED_PID,
                r.client,
                origin,
                r.sim_compute_micros,
                &[("round", r.round), ("client", r.client)],
            ));
        }
        let mut cursor = origin + max_compute;
        for r in group.iter().filter(|r| r.arrived) {
            events.push(slice(
                &format!("r{} uplink", r.round),
                &format!("{},uplink", r.engine),
                SIMULATED_PID,
                r.client,
                cursor,
                r.sim_uplink_micros,
                &[("round", r.round), ("client", r.client)],
            ));
            cursor += r.sim_uplink_micros;
        }
        origin = cursor;
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;

    fn row(round: u64, client: u64, arrived: bool, compute: u64, uplink: u64) -> TaskTrace {
        TaskTrace {
            round,
            client,
            engine: "fedhd".into(),
            arrived,
            timing: TaskTiming::default(),
            sim_compute_micros: compute,
            sim_uplink_micros: uplink,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TraceRing::new(2);
        assert!(!ring.push(row(0, 0, true, 1, 1)));
        assert!(!ring.push(row(0, 1, true, 1, 1)));
        assert!(ring.push(row(0, 2, true, 1, 1)));
        assert_eq!(ring.dropped(), 1);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].client, 1);
        assert_eq!(snap[1].client, 2);

        let mut empty = TraceRing::new(0);
        assert!(empty.push(row(0, 0, true, 1, 1)));
        assert!(empty.is_empty());
        assert_eq!(empty.dropped(), 1);
    }

    #[test]
    fn critical_path_on_known_durations() {
        // Client 7 has the largest compute+uplink; client 3 computes
        // longest but straggles, so only its compute counts.
        let rows = vec![
            row(4, 1, true, 100, 50),  // cost 150
            row(4, 7, true, 120, 90),  // cost 210 — critical
            row(4, 3, false, 180, 70), // straggler: cost 180
        ];
        let s = summarize_round(&rows);
        assert_eq!(s.round, 4);
        assert_eq!(s.engine, "fedhd");
        assert_eq!(s.tasks, 3);
        assert_eq!(s.critical_client, 7);
        assert_eq!(s.sim_critical_micros, 210);
        // Slowest compute (180) + arriving uplinks (50 + 90).
        assert_eq!(s.sim_round_micros, 320);
        // Nothing measured: pool stats are zero.
        assert_eq!(s.workers, 0);
        assert_eq!(s.worker_utilization, 0.0);
        assert_eq!(s.queue_depth_max, 0);
    }

    #[test]
    fn critical_path_tie_resolves_to_first_participant() {
        let rows = vec![row(0, 9, true, 100, 0), row(0, 2, true, 100, 0)];
        assert_eq!(summarize_round(&rows).critical_client, 9);
    }

    #[test]
    fn measured_pool_stats_from_hand_built_timings() {
        let mut rows = vec![row(0, 0, true, 1, 1), row(0, 1, true, 1, 1)];
        // Two tasks enqueued at t=0, run back to back on one worker:
        // utilization (10+10)/(1*30), queue peaks at 2 before the first
        // start (enqueue +1, +1, then starts).
        rows[0].timing = TaskTiming {
            worker: 0,
            enqueue_micros: 0,
            start_micros: 5,
            end_micros: 15,
        };
        rows[1].timing = TaskTiming {
            worker: 0,
            enqueue_micros: 0,
            start_micros: 20,
            end_micros: 30,
        };
        let s = summarize_round(&rows);
        assert_eq!(s.workers, 1);
        assert!((s.worker_utilization - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(s.queue_depth_max, 2);
        assert_eq!(rows[0].timing.queue_micros(), 5);
        assert_eq!(rows[0].timing.exec_micros(), 10);
    }

    #[test]
    fn summarize_groups_consecutive_rounds_and_engines() {
        let mut rows = vec![
            row(0, 0, true, 10, 5),
            row(0, 1, true, 10, 5),
            row(1, 0, true, 10, 5),
        ];
        rows.push(TaskTrace {
            engine: "fedavg".into(),
            ..row(1, 2, true, 10, 5)
        });
        let groups = summarize(&rows);
        assert_eq!(groups.len(), 3);
        assert_eq!((groups[0].round, groups[0].tasks), (0, 2));
        assert_eq!((groups[1].round, groups[1].tasks), (1, 1));
        assert_eq!(groups[2].engine, "fedavg");
        assert!(summarize(&[]).is_empty());
    }

    #[test]
    fn canonical_zeroes_only_the_measured_half() {
        let mut r = row(2, 5, false, 33, 44);
        r.timing = TaskTiming {
            worker: 3,
            enqueue_micros: 10,
            start_micros: 20,
            end_micros: 40,
        };
        let c = r.canonical();
        assert_eq!(c.timing, TaskTiming::default());
        assert_eq!(
            (
                c.round,
                c.client,
                c.arrived,
                c.sim_compute_micros,
                c.sim_uplink_micros
            ),
            (2, 5, false, 33, 44)
        );
    }

    /// Both trace records round-trip through their own codecs: emitted
    /// by a recorder, serialized, read back, equal.
    #[test]
    fn event_fields_round_trip() {
        let sink = std::sync::Arc::new(crate::sink::MemorySink::new());
        let tel = Recorder::with_sink(sink.clone());
        let mut task = row(2, 3, true, 7, 9);
        task.engine = "fedavg".into();
        task.timing = TaskTiming {
            worker: 1,
            enqueue_micros: 10,
            start_micros: 20,
            end_micros: 40,
        };
        tel.record_task_trace(task.clone());
        let summary = summarize_round(std::slice::from_ref(&task));
        assert!(summary.worker_utilization > 0.0);
        summary.emit(&tel);
        let stream: Vec<String> = sink.events().iter().map(|e| e.to_json()).collect();
        let skipped = jsonl::read_records(&stream.join("\n"), |kind, name, fields| {
            assert_eq!(kind, "event");
            match name {
                "trace.task" => {
                    assert_eq!(TaskTrace::from_event_fields(fields), Some(task.clone()))
                }
                "trace.round" => {
                    assert_eq!(
                        RoundTraceSummary::from_event_fields(fields).as_ref(),
                        Some(&summary)
                    );
                }
                other => panic!("unexpected event {other}"),
            }
        });
        assert_eq!((stream.len(), skipped), (2, 0));

        // Foreign/partial field objects are skipped, not misread.
        let partial = jsonl::parse(r#"{"round":1}"#).unwrap();
        assert!(TaskTrace::from_event_fields(&partial).is_none());
        assert!(RoundTraceSummary::from_event_fields(&partial).is_none());
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_pure() {
        let mut rows = vec![
            row(0, 1, true, 100, 50),
            row(0, 3, false, 200, 50),
            row(1, 1, true, 100, 50),
        ];
        rows[0].timing = TaskTiming {
            worker: 0,
            enqueue_micros: 0,
            start_micros: 5,
            end_micros: 15,
        };
        let json = chrome_trace(&rows);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        // Both lanes announce themselves, stragglers are tagged, and
        // the second round's simulated slices start after the first
        // round's duration (200 compute + 50 uplink = 250).
        assert!(json.contains("measured: pool workers"));
        assert!(json.contains("simulated: AIoT devices"));
        assert!(json.contains("straggler"));
        assert!(json.contains("\"ts\":250,\"dur\":100"));
        assert_eq!(json, chrome_trace(&rows), "export must be pure");
        // Parses with the in-tree JSON parser (single-line form).
        let one_line = json.replace('\n', "");
        let v = jsonl::parse(&one_line).unwrap();
        let events = v.get("traceEvents").unwrap();
        match events {
            Value::Arr(items) => assert!(items.len() > rows.len()),
            _ => panic!("traceEvents must be an array"),
        }
    }

    #[test]
    fn chrome_trace_of_empty_rows_is_still_loadable() {
        let json = chrome_trace(&[]);
        let v = jsonl::parse(&json.replace('\n', "")).unwrap();
        match v.get("traceEvents").unwrap() {
            Value::Arr(items) => assert_eq!(items.len(), 2, "two process_name records"),
            _ => panic!("traceEvents must be an array"),
        }
    }
}
