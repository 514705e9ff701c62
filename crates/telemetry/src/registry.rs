//! The workspace metric-name registry: the single source of truth for
//! every span, counter, gauge, histogram and event name the stack emits.
//!
//! Producers pass these names as string literals at instrumentation
//! sites; `fhdnn-lint`'s `telemetry/*` rules cross-check every literal
//! call site against this table and fail the build on unregistered or
//! orphaned names. Consumers — the `fhdnn watch` dashboard, the
//! [`crate::alert::AlertEngine`] event emitter, and the Prometheus
//! exporter — import the named constants below instead of repeating the
//! literals, so a rename that forgets one side cannot slip through: the
//! registry entry, the producer literal, and the consumer constant must
//! all move together or the lint (or the compiler) complains.
//!
//! Keep [`REGISTRY`] sorted by name; [`lookup`] binary-searches it and a
//! unit test enforces order and uniqueness.

/// What a registered name counts, times, or announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter fed through `Recorder::incr`.
    Counter,
    /// Last-value gauge fed through `Recorder::gauge`.
    Gauge,
    /// Value distribution (quantile sketch) fed through `Recorder::observe`.
    Histogram,
    /// Timed span opened via `Recorder::span` or `TaskBuffer::begin`.
    Span,
    /// Free-form point event emitted via `Recorder::event`.
    Event,
}

impl MetricKind {
    /// Lower-case label used in reports and lint messages.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Span => "span",
            MetricKind::Event => "event",
        }
    }
}

/// One registered metric name.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The exact name passed to the recorder.
    pub name: &'static str,
    /// The kind of instrument this name may be used with.
    pub kind: MetricKind,
    /// One-line description (doubles as Prometheus HELP text).
    pub help: &'static str,
}

/// Name of the per-round model-health flight-record event
/// (consumed by `fhdnn watch` and the Prometheus exporter).
pub const EVENT_HEALTH_ROUND: &str = "health.round";

/// Name of the structured alert event the
/// [`crate::alert`] machinery emits and the dashboard replays.
pub const EVENT_ALERT: &str = "alert";

/// Name of the per-round execution-trace summary event (critical path,
/// worker utilization, queue depth) consumed by `fhdnn watch`/`trace`.
pub const EVENT_TRACE_ROUND: &str = "trace.round";

/// Name of the per-task execution-trace event carrying one
/// [`crate::trace::TaskTrace`] (replayed by `fhdnn trace --from`).
pub const EVENT_TRACE_TASK: &str = "trace.task";

/// Every name the workspace is allowed to emit, sorted by name.
pub const REGISTRY: &[MetricDef] = &[
    MetricDef {
        name: "alert",
        kind: MetricKind::Event,
        help: "Structured alert fired by the rule-based alert engine.",
    },
    MetricDef {
        name: "chan.bits_flipped",
        kind: MetricKind::Counter,
        help: "Bits the channel flipped this round.",
    },
    MetricDef {
        name: "chan.crc_rejects",
        kind: MetricKind::Counter,
        help: "Packets rejected by CRC-32 verification this round.",
    },
    MetricDef {
        name: "chan.dims_erased",
        kind: MetricKind::Counter,
        help: "Dimensions the channel erased to zero this round.",
    },
    MetricDef {
        name: "chan.noise_energy",
        kind: MetricKind::Gauge,
        help: "Noise energy injected by analog channels this round.",
    },
    MetricDef {
        name: "chan.packets_dropped",
        kind: MetricKind::Counter,
        help: "Whole packets dropped by erasure channels this round.",
    },
    MetricDef {
        name: "chan.symbols_sent",
        kind: MetricKind::Counter,
        help: "Symbols (f32 lanes, words, or bipolar dims) transmitted.",
    },
    MetricDef {
        name: "chan.transmissions",
        kind: MetricKind::Counter,
        help: "transmit_* calls accounted by the channel stats.",
    },
    MetricDef {
        name: "chan.uplink",
        kind: MetricKind::Span,
        help: "One client update crossing the impaired uplink.",
    },
    MetricDef {
        name: "fl.bytes_down",
        kind: MetricKind::Counter,
        help: "Bytes broadcast downlink to participants.",
    },
    MetricDef {
        name: "fl.bytes_up",
        kind: MetricKind::Counter,
        help: "Bytes uploaded by participants.",
    },
    MetricDef {
        name: "fl.packed_uplink_words",
        kind: MetricKind::Counter,
        help: "Packed u64 sign words uplinked by arrived binary updates.",
    },
    MetricDef {
        name: "fl.participants",
        kind: MetricKind::Counter,
        help: "Clients sampled across rounds.",
    },
    MetricDef {
        name: "fl.round_micros",
        kind: MetricKind::Histogram,
        help: "Distribution of per-round wall time in microseconds.",
    },
    MetricDef {
        name: "fl.rounds",
        kind: MetricKind::Counter,
        help: "Communication rounds completed.",
    },
    MetricDef {
        name: "fl.stragglers",
        kind: MetricKind::Counter,
        help: "Sampled clients whose update never arrived.",
    },
    MetricDef {
        name: "fl.test_accuracy",
        kind: MetricKind::Gauge,
        help: "Global-model accuracy on the held-out test set.",
    },
    MetricDef {
        name: "hdc.encode",
        kind: MetricKind::Span,
        help: "Batch hypervector encoding (projection + binarization).",
    },
    MetricDef {
        name: "hdc.encoded_vectors",
        kind: MetricKind::Counter,
        help: "Feature vectors encoded into hypervectors.",
    },
    MetricDef {
        name: "hdc.project",
        kind: MetricKind::Span,
        help: "Random-projection matmul inside the encoder.",
    },
    MetricDef {
        name: "hdc.quant.saturated_words",
        kind: MetricKind::Counter,
        help: "Quantizer words clipped at the AGC range boundary.",
    },
    MetricDef {
        name: "hdc.quant.zeroed_words",
        kind: MetricKind::Counter,
        help: "Quantizer words squashed to zero by the AGC step.",
    },
    MetricDef {
        name: "hdc.quantize",
        kind: MetricKind::Span,
        help: "Prototype quantization for transport.",
    },
    MetricDef {
        name: "hdc.sign",
        kind: MetricKind::Span,
        help: "Sign binarization inside the encoder.",
    },
    MetricDef {
        name: "health.round",
        kind: MetricKind::Event,
        help: "Per-round model-health flight record.",
    },
    MetricDef {
        name: "mem.alloc_bytes",
        kind: MetricKind::Counter,
        help: "Bytes allocated during federated rounds (gross).",
    },
    MetricDef {
        name: "mem.allocs",
        kind: MetricKind::Counter,
        help: "Heap allocations performed during federated rounds.",
    },
    MetricDef {
        name: "mem.live_bytes",
        kind: MetricKind::Gauge,
        help: "Live heap bytes at the end of the latest round.",
    },
    MetricDef {
        name: "mem.peak_bytes",
        kind: MetricKind::Gauge,
        help: "Peak heap bytes above the round-start level, latest round.",
    },
    MetricDef {
        name: "round",
        kind: MetricKind::Span,
        help: "One full communication round.",
    },
    MetricDef {
        name: "round.aggregate",
        kind: MetricKind::Span,
        help: "Server-side aggregation of arrived updates.",
    },
    MetricDef {
        name: "round.broadcast",
        kind: MetricKind::Span,
        help: "Global-model broadcast to participants.",
    },
    MetricDef {
        name: "round.eval",
        kind: MetricKind::Span,
        help: "Held-out evaluation of the aggregated model.",
    },
    MetricDef {
        name: "round.local_train",
        kind: MetricKind::Span,
        help: "One client's local training pass.",
    },
    MetricDef {
        name: "round.transmit",
        kind: MetricKind::Span,
        help: "One client's update leaving for the server.",
    },
    MetricDef {
        name: "telemetry.overhead.events",
        kind: MetricKind::Counter,
        help: "Telemetry events emitted per round — the observability layer metering itself.",
    },
    MetricDef {
        name: "telemetry.overhead.jsonl_bytes",
        kind: MetricKind::Counter,
        help: "JSONL bytes serialized per round by the telemetry sink.",
    },
    MetricDef {
        name: "trace.dropped",
        kind: MetricKind::Counter,
        help: "Task traces evicted from the bounded trace ring.",
    },
    MetricDef {
        name: "trace.round",
        kind: MetricKind::Event,
        help: "Per-round execution-trace summary: critical path, worker utilization, queue depth.",
    },
    MetricDef {
        name: "trace.task",
        kind: MetricKind::Event,
        help: "One traced unit of client work: measured worker timing + simulated AIoT cost.",
    },
    MetricDef {
        name: "trace.tasks",
        kind: MetricKind::Counter,
        help: "Client tasks traced by the round engine.",
    },
    MetricDef {
        name: "trace.worker_utilization",
        kind: MetricKind::Gauge,
        help: "Fraction of pool-worker capacity spent executing, latest round.",
    },
];

/// Identifier → metric-name map for the named constants above.
///
/// `fhdnn-lint`'s orphan detection counts a registry entry as used when
/// its name appears as a string literal at an instrumentation site *or*
/// when one of these constant identifiers is referenced — so consumers
/// that import the constants (the dashboard, the alert emitter) keep
/// their names alive without duplicating the literal.
pub const CONSTANTS: &[(&str, &str)] = &[
    ("EVENT_ALERT", EVENT_ALERT),
    ("EVENT_HEALTH_ROUND", EVENT_HEALTH_ROUND),
    ("EVENT_TRACE_ROUND", EVENT_TRACE_ROUND),
    ("EVENT_TRACE_TASK", EVENT_TRACE_TASK),
];

/// Looks up a name in [`REGISTRY`].
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    REGISTRY
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .map(|i| &REGISTRY[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "registry must stay sorted/unique: {} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn lookup_finds_every_entry() {
        for def in REGISTRY {
            let hit = lookup(def.name).expect("registered name must resolve");
            assert_eq!(hit.name, def.name);
            assert_eq!(hit.kind, def.kind);
        }
        assert!(lookup("no.such.metric").is_none());
        assert!(lookup("").is_none());
    }

    #[test]
    fn consumer_constants_are_registered_events() {
        for name in [
            EVENT_HEALTH_ROUND,
            EVENT_ALERT,
            EVENT_TRACE_ROUND,
            EVENT_TRACE_TASK,
        ] {
            let def = lookup(name).expect("constant must be registered");
            assert_eq!(def.kind, MetricKind::Event);
        }
    }

    #[test]
    fn every_entry_documents_itself() {
        for def in REGISTRY {
            assert!(!def.help.is_empty(), "{} needs help text", def.name);
            assert!(!def.kind.as_str().is_empty());
        }
    }
}
