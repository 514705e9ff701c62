//! Per-task telemetry buffers for parallel round execution.
//!
//! The federated round engine runs client work on a scoped thread pool,
//! but the [`Recorder`](crate::Recorder)'s span nesting rides on a
//! thread-local stack — worker threads cannot open spans under the main
//! thread's `round` root, and letting them emit directly would
//! interleave events nondeterministically. A [`TaskBuffer`] solves both
//! problems: each unit of client work records its spans and counters
//! into a private buffer, and the round barrier replays the buffers
//! into the recorder **in fixed participant order** via
//! [`Recorder::absorb_task`](crate::Recorder::absorb_task), prefixing
//! every span path with the main thread's currently-open path. The
//! resulting stream is identical whether the round ran on one thread or
//! eight.

use std::sync::Arc;

use crate::clock::Clock;
use crate::mem::ThreadMark;
use crate::{OpenSpan, SpanStack};

/// One buffered observation, replayed in order at the round barrier.
#[derive(Debug)]
pub(crate) enum TaskEntry {
    /// A completed span — its path is relative to the buffer's own root
    /// — with its measured duration in microseconds and the worker
    /// thread's allocation activity while it was open.
    Span(OpenSpan, u64, ThreadMark),
    /// A buffered counter increment.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Increment to apply.
        delta: u64,
    },
}

/// An in-flight span on a [`TaskBuffer`]; close it with
/// [`TaskBuffer::end`]. Mirrors the recorder's RAII guard but without
/// borrowing the buffer, so workers can nest spans freely. Empty when
/// the buffer is disabled.
#[derive(Debug)]
#[must_use = "a task span must be closed with TaskBuffer::end"]
pub struct TaskSpan(Option<OpenSpan>);

/// A private span/counter buffer for one unit of parallel work.
///
/// Created by [`Recorder::task_buffer`](crate::Recorder::task_buffer);
/// drained by [`Recorder::absorb_task`](crate::Recorder::absorb_task).
/// A buffer from a disabled recorder is inert: every call is a branch
/// and no clock reads happen, preserving the invariant that disabled
/// telemetry cannot perturb a run.
#[derive(Debug)]
pub struct TaskBuffer {
    enabled: bool,
    clock: Arc<dyn Clock>,
    /// The spans currently open on this buffer.
    stack: SpanStack,
    entries: Vec<TaskEntry>,
}

impl TaskBuffer {
    pub(crate) fn new(enabled: bool, clock: Arc<dyn Clock>) -> Self {
        TaskBuffer {
            enabled,
            clock,
            stack: SpanStack::new(),
            entries: Vec::new(),
        }
    }

    /// `true` when this buffer records observations.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` nested under any spans already open on
    /// this buffer.
    pub fn begin(&mut self, name: &'static str) -> TaskSpan {
        TaskSpan(
            self.enabled
                .then(|| OpenSpan::open(&mut self.stack, name, &*self.clock)),
        )
    }

    /// Closes a span opened with [`TaskBuffer::begin`], recording its
    /// duration. Closing a parent before its children heals the nesting
    /// exactly as the recorder's guards do (one `SpanStack` under both).
    pub fn end(&mut self, span: TaskSpan) {
        if let Some(span) = span.0 {
            // Measured before the entry push below: the buffer's own
            // growth belongs to the enclosing span, not this one.
            let (micros, alloc) = span.close(&mut self.stack, &*self.clock);
            self.entries.push(TaskEntry::Span(span, micros, alloc));
        }
    }

    /// Buffers a counter increment, applied at the barrier in replay
    /// order. Zero deltas are dropped, matching the zero-suppression
    /// convention of the live counter paths.
    pub fn incr(&mut self, name: &'static str, delta: u64) {
        if !self.enabled || delta == 0 {
            return;
        }
        self.entries.push(TaskEntry::Counter { name, delta });
    }

    /// Drains the buffered entries (used by the recorder's absorb).
    pub(crate) fn drain(self) -> Vec<TaskEntry> {
        self.entries
    }
}
