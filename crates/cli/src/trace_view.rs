//! The `fhdnn trace` round-anatomy view.
//!
//! Like the watch dashboard, the trace view is a pure function of a
//! recorded telemetry stream: it recovers the `trace.task` events out of
//! a JSONL event log, summarizes each round (critical-path client,
//! worker utilization, queue depth, simulated round time) and renders a
//! deterministic text table — the same bytes for the same stream, every
//! time. The Chrome trace-event export lives in
//! `fhdnn::telemetry::trace::chrome_trace`; this module only decides
//! what feeds it.

use fhdnn::telemetry::jsonl;
use fhdnn::telemetry::registry::EVENT_TRACE_TASK;
use fhdnn::telemetry::trace::{summarize, TaskTrace};
use std::fmt::Write as _;

/// Recovers the task traces from a recorded `--telemetry` JSONL stream,
/// in stream order (participant order within each round). Lines that are
/// not valid JSON, not events, or not `trace.task` events are skipped,
/// so the full stream (spans, counters, health records, …) replays
/// as-is — including pre-trace recordings, which yield an empty vec.
pub fn rows_from_jsonl_str(stream: &str) -> Vec<TaskTrace> {
    let mut rows = Vec::new();
    jsonl::read_records(stream, |kind, name, fields| {
        if kind == "event" && name == EVENT_TRACE_TASK {
            rows.extend(TaskTrace::from_event_fields(fields));
        }
    });
    rows
}

/// Renders the per-round trace summaries as a deterministic text table:
/// one row per traced round with its critical-path client, measured
/// worker utilization and queue depth, and the simulated AIoT round
/// time the critical path bounds.
pub fn render_summaries(rows: &[TaskTrace]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("fhdnn trace: no trace.task events in stream\n");
        return out;
    }
    let summaries = summarize(rows);
    out.push_str("round anatomy (simulated lane bounds the barrier)\n");
    out.push_str(
        "round  engine  tasks  workers  util%  queue  crit-client  sim-crit ms  sim-round ms\n",
    );
    for s in &summaries {
        let _ = writeln!(
            out,
            "{:>5}  {:<6}  {:>5}  {:>7}  {:>5.1}  {:>5}  {:>11}  {:>11.1}  {:>12.1}",
            s.round,
            s.engine,
            s.tasks,
            s.workers,
            s.worker_utilization * 100.0,
            s.queue_depth_max,
            s.critical_client,
            s.sim_critical_micros as f64 / 1e3,
            s.sim_round_micros as f64 / 1e3,
        );
    }
    let total_sim: u64 = summaries.iter().map(|s| s.sim_round_micros).sum();
    let _ = writeln!(
        out,
        "{} task(s) across {} round(s); simulated campaign time {:.3} s",
        rows.len(),
        summaries.len(),
        total_sim as f64 / 1e6,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn::telemetry::trace::TaskTiming;

    fn task_line(round: u64, client: u64, sim_compute: u64, sim_uplink: u64) -> String {
        format!(
            concat!(
                r#"{{"ts":1,"kind":"event","name":"trace.task","fields":{{"arrived":1,"#,
                r#""client":{},"end_micros":9,"engine":"fedhd","enqueue_micros":2,"#,
                r#""round":{},"sim_compute_micros":{},"sim_uplink_micros":{},"#,
                r#""start_micros":3,"worker":0}}}}"#
            ),
            client, round, sim_compute, sim_uplink
        )
    }

    #[test]
    fn recovers_trace_tasks_and_skips_everything_else() {
        let stream = format!(
            "{}\nnot json\n{{\"kind\":\"counter\",\"name\":\"fl.rounds\"}}\n\n{}\n",
            task_line(0, 3, 100, 50),
            task_line(0, 5, 200, 50),
        );
        let rows = rows_from_jsonl_str(&stream);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].client, 3);
        assert_eq!(rows[1].client, 5);
        assert_eq!(rows[1].sim_compute_micros, 200);
        assert_eq!(rows[0].timing.worker, 0);
        assert!(rows[0].arrived);
    }

    #[test]
    fn pre_trace_streams_yield_empty_rows_and_render_a_notice() {
        let rows = rows_from_jsonl_str(
            "{\"ts\":1,\"kind\":\"event\",\"name\":\"health.round\",\"fields\":{}}\n",
        );
        assert!(rows.is_empty());
        assert_eq!(
            render_summaries(&rows),
            "fhdnn trace: no trace.task events in stream\n"
        );
    }

    #[test]
    fn render_is_deterministic_and_names_the_critical_client() {
        let mk = |client: u64, sim_compute: u64| TaskTrace {
            round: 2,
            client,
            engine: "fedhd".into(),
            arrived: true,
            timing: TaskTiming::default(),
            sim_compute_micros: sim_compute,
            sim_uplink_micros: 1_000,
        };
        let rows = vec![mk(1, 5_000), mk(4, 9_000), mk(2, 3_000)];
        let a = render_summaries(&rows);
        assert_eq!(a, render_summaries(&rows));
        // Client 4's 9 ms compute + 1 ms uplink bounds the barrier.
        let row = a.lines().nth(2).expect("summary row");
        assert!(row.contains("fedhd"), "{row}");
        assert!(row.contains('4'), "{row}");
        assert!(a.contains("3 task(s) across 1 round(s)"), "{a}");
    }

    #[test]
    fn round_trip_through_jsonl_matches_direct_summaries() {
        let stream = format!("{}\n{}\n", task_line(1, 0, 10, 5), task_line(1, 7, 20, 5));
        let rows = rows_from_jsonl_str(&stream);
        let summaries = summarize(&rows);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].critical_client, 7);
        assert_eq!(summaries[0].sim_critical_micros, 25);
        assert_eq!(summaries[0].tasks, 2);
    }
}
