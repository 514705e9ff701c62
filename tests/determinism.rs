//! Thread-count invariance of the parallel round engine.
//!
//! Both federation engines fan client work out over the deterministic
//! pool in `fhdnn-federated`'s `parallel` module; this suite proves the
//! tentpole invariant end to end: the thread count is a pure wall-clock
//! knob. Round metrics, every emitted health record (and all
//! other non-span telemetry), and the final model bytes are identical at
//! `--threads 1`, `2` and `8` — with stragglers, lossy channels and
//! compressed uploads in the mix so every per-client random draw is
//! exercised.
//!
//! Span *durations* are the one telemetry field that legitimately varies
//! with scheduling (workers interleave their clock reads), so the event
//! comparison excludes `kind == span`. Memory watermarks (`mem.*` events
//! and the `mem_*` fields of round metrics and health records) measure
//! the process's real heap, which depends on thread count and on what
//! else the test harness has allocated — the comparison zeroes them, and
//! a dedicated test pins that they are live (nonzero) instead. The
//! execution trace's *measured* lane is in the same class: per-task
//! worker indices and queue/execute stamps, per-round worker counts,
//! utilization and queue depth all depend on how many workers raced the
//! claim counter, so the comparison zeroes those fields (and drops the
//! `trace.worker_utilization` gauge) while holding the *simulated* lane
//! — client identity, device-compute and uplink-airtime micros, and the
//! critical-path attribution built from them — bit-exact.
//!
//! The CI matrix additionally exports `FHDNN_TEST_THREADS`; when set, the
//! value joins the compared thread counts.

use std::sync::Arc;

use fhdnn::channel::packet::PacketLossChannel;
use fhdnn::datasets::features::FeatureSpec;
use fhdnn::datasets::image::SynthSpec;
use fhdnn::datasets::partition::Partition;
use fhdnn::federated::config::FlConfig;
use fhdnn::federated::fedavg::{carve_clients, CnnFederation, LocalSgdConfig};
use fhdnn::federated::fedhd::{HdClientData, HdFederation, HdTransport};
use fhdnn::federated::metrics::RunHistory;
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::model::HdModel;
use fhdnn::nn::models::small_cnn;
use fhdnn::telemetry::clock::ManualClock;
use fhdnn::telemetry::event::{Event, EventKind, FieldValue};
use fhdnn::telemetry::sink::MemorySink;
use fhdnn::telemetry::{Recorder, Telemetry};
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 1024;
const NUM_CLIENTS: usize = 4;

/// Thread counts every run is compared across. `FHDNN_TEST_THREADS`
/// (exported by the CI matrix) joins the list when set.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Some(n) = std::env::var("FHDNN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn memory_recorder() -> (Telemetry, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let tel = Recorder::with_sink_and_clock(sink.clone(), Arc::new(ManualClock::new(10)));
    (tel, sink)
}

/// Every captured event except spans, whose durations depend on how
/// workers interleave clock reads. Raw memory watermarks are likewise
/// environment-dependent (see the module docs), so `mem.*` events drop
/// and the `mem_*` fields of `health.round` events zero. Everything
/// else — counters, gauges, histograms, `health.round` records, and all
/// timestamps — must be deterministic.
fn non_span_events(sink: &MemorySink) -> Vec<Event> {
    sink.events()
        .into_iter()
        .filter(|e| {
            e.kind != EventKind::Span
                && !e.name.starts_with("mem.")
                && e.name != "trace.worker_utilization"
                // The jsonl_bytes self-meter counts serialized bytes,
                // whose digit widths include the heap watermarks — as
                // environment-dependent as the watermarks themselves.
                && e.name != "telemetry.overhead.jsonl_bytes"
        })
        .map(|mut e| {
            if e.name == "health.round" {
                for key in ["mem_peak_bytes", "mem_allocs", "mem_bytes_per_client"] {
                    if let Some(v) = e.fields.get_mut(key) {
                        *v = FieldValue::U64(0);
                    }
                }
            }
            // The measured lane of the execution trace is scheduling-
            // dependent by construction; the simulated lane (client,
            // sim_* micros, critical-path fields) must not move.
            if e.name == "trace.task" {
                for key in ["worker", "enqueue_micros", "start_micros", "end_micros"] {
                    if let Some(v) = e.fields.get_mut(key) {
                        *v = FieldValue::U64(0);
                    }
                }
            }
            if e.name == "trace.round" {
                for key in ["workers", "queue_depth_max"] {
                    if let Some(v) = e.fields.get_mut(key) {
                        *v = FieldValue::U64(0);
                    }
                }
                if let Some(v) = e.fields.get_mut("worker_utilization") {
                    *v = FieldValue::F64(0.0);
                }
            }
            e
        })
        .collect()
}

/// The run history with the legitimately wall-clock- and
/// heap-state-dependent fields zeroed.
fn canonical_history(mut history: RunHistory) -> RunHistory {
    for r in &mut history.rounds {
        r.round_seconds = 0.0;
        r.mem_peak_bytes = 0;
        r.mem_allocs = 0;
        r.mem_bytes_per_client = 0;
        r.trace_worker_utilization = 0.0;
    }
    history
}

/// Pre-encoded clients and test set, mirroring the telemetry fixtures.
fn build_hd_federation(seed: u64) -> (HdFederation, HdClientData) {
    let spec = FeatureSpec {
        num_classes: 5,
        width: 40,
        noise_std: 0.6,
        class_seed: 11,
    };
    let train = spec.generate(NUM_CLIENTS * 25, seed).unwrap();
    let test = spec.generate(60, seed + 1).unwrap();
    let enc = RandomProjectionEncoder::new(DIM, 40, 3).unwrap();
    let h_train = enc.encode_batch(&train.features).unwrap();
    let h_test = enc.encode_batch(&test.features).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = Partition::Iid
        .split(&train.labels, NUM_CLIENTS, &mut rng)
        .unwrap();
    let clients: Vec<HdClientData> = parts
        .iter()
        .map(|idx| {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for &i in idx {
                data.extend_from_slice(h_train.row(i).unwrap());
                labels.push(train.labels[i]);
            }
            HdClientData {
                hypervectors: Tensor::from_vec(data, &[idx.len(), DIM]).unwrap(),
                labels,
            }
        })
        .collect();
    let config = FlConfig {
        num_clients: NUM_CLIENTS,
        rounds: 3,
        local_epochs: 2,
        batch_size: 10,
        client_fraction: 0.5,
        seed: 7,
        ..FlConfig::default()
    };
    let global = HdModel::new(5, DIM).unwrap();
    let fed = HdFederation::new(
        global,
        clients,
        config,
        HdTransport::Quantized { bitwidth: 8 },
    )
    .unwrap();
    let test_data = HdClientData {
        hypervectors: h_test,
        labels: test.labels,
    };
    (fed, test_data)
}

/// One instrumented fedhd run: (history, non-span events, model
/// bits) — the three artifacts the invariance theorem is stated over.
fn fedhd_run(threads: usize) -> (RunHistory, Vec<Event>, Vec<u32>) {
    let (mut fed, test) = build_hd_federation(0);
    fed.set_threads(threads);
    fed.set_straggler_prob(0.25).unwrap();
    let (tel, sink) = memory_recorder();
    fed.set_telemetry(tel.clone());
    let channel = PacketLossChannel::new(0.2, 256).unwrap();
    let history = fed.run(&channel, &test, "det").unwrap();
    tel.flush();
    let proto_bits: Vec<u32> = fed
        .global()
        .prototypes()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (
        canonical_history(history),
        non_span_events(&sink),
        proto_bits,
    )
}

#[test]
fn fedhd_outputs_identical_at_every_thread_count() {
    let baseline = fedhd_run(1);
    let records = baseline
        .1
        .iter()
        .filter(|e| e.name == "health.round")
        .count();
    assert_eq!(records, 3, "one health record per round");
    for threads in thread_counts() {
        let run = fedhd_run(threads);
        assert_eq!(
            baseline.0, run.0,
            "round metrics diverged at {threads} threads"
        );
        assert_eq!(baseline.1, run.1, "telemetry diverged at {threads} threads");
        assert_eq!(
            baseline.2, run.2,
            "model bytes diverged at {threads} threads"
        );
    }
}

/// Small CNN federation over the image stand-ins, with compressed
/// uploads so the per-client coordinate masks ride per-client RNG
/// streams too.
fn build_cnn_federation(seed: u64) -> (CnnFederation, fhdnn::datasets::image::ImageDataset) {
    let spec = SynthSpec::mnist_like();
    let pool = spec.generate(NUM_CLIENTS * 20, seed).unwrap();
    let test = spec.generate(60, seed + 1).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = Partition::Iid
        .split(&pool.labels, NUM_CLIENTS, &mut rng)
        .unwrap();
    let clients = carve_clients(&pool, &parts).unwrap();
    let net = small_cnn(1, 16, 10, &mut rng).unwrap();
    let config = FlConfig {
        num_clients: NUM_CLIENTS,
        rounds: 2,
        local_epochs: 1,
        batch_size: 10,
        client_fraction: 0.5,
        seed,
        ..FlConfig::default()
    };
    let fed = CnnFederation::new(net, clients, config, LocalSgdConfig::default()).unwrap();
    (fed, test)
}

fn fedavg_run(threads: usize) -> (RunHistory, Vec<Event>, Vec<u32>) {
    let (mut fed, test) = build_cnn_federation(3);
    fed.set_threads(threads);
    fed.set_upload_fraction(0.5).unwrap();
    let (tel, sink) = memory_recorder();
    fed.set_telemetry(tel.clone());
    let channel = PacketLossChannel::new(0.1, 256).unwrap();
    let history = fed.run(&channel, &test, "det").unwrap();
    tel.flush();
    // The "model file": trainable parameters plus batch-norm running
    // state, bit-exact.
    let mut bits: Vec<u32> = fed
        .global()
        .flatten_params()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    bits.extend(fed.global().running_state().iter().map(|v| v.to_bits()));
    (canonical_history(history), non_span_events(&sink), bits)
}

#[test]
fn fedavg_outputs_identical_at_every_thread_count() {
    let baseline = fedavg_run(1);
    let records = baseline
        .1
        .iter()
        .filter(|e| e.name == "health.round")
        .count();
    assert_eq!(records, 2, "one health record per round");
    for threads in thread_counts() {
        let run = fedavg_run(threads);
        assert_eq!(
            baseline.0, run.0,
            "round metrics diverged at {threads} threads"
        );
        assert_eq!(baseline.1, run.1, "telemetry diverged at {threads} threads");
        assert_eq!(
            baseline.2, run.2,
            "model bytes diverged at {threads} threads"
        );
    }
}

/// The watermarks the comparison above zeroes out are actually live: an
/// instrumented run attributes a nonzero allocation volume to every
/// round, and the stream carries `mem.*` events.
#[test]
fn rounds_carry_nonzero_memory_watermarks() {
    let (mut fed, test) = build_hd_federation(0);
    fed.set_threads(2);
    let (tel, sink) = memory_recorder();
    fed.set_telemetry(tel.clone());
    let channel = PacketLossChannel::new(0.2, 256).unwrap();
    let history = fed.run(&channel, &test, "det").unwrap();
    tel.flush();
    for r in &history.rounds {
        assert!(
            r.mem_allocs > 0,
            "round {} recorded no allocations",
            r.round
        );
        assert!(r.mem_peak_bytes > 0, "round {} has no peak", r.round);
        assert!(
            r.mem_bytes_per_client > 0,
            "round {} has no per-client volume",
            r.round
        );
    }
    let mem_events = sink
        .events()
        .iter()
        .filter(|e| e.name.starts_with("mem."))
        .count();
    assert!(mem_events > 0, "no mem.* events in an instrumented stream");
}

/// The uninstrumented path must agree with the instrumented one at any
/// thread count: telemetry buffering cannot leak into the math.
#[test]
fn instrumentation_does_not_change_parallel_results() {
    let plain = {
        let (mut fed, test) = build_hd_federation(0);
        fed.set_threads(4);
        fed.set_straggler_prob(0.25).unwrap();
        let channel = PacketLossChannel::new(0.2, 256).unwrap();
        fed.run(&channel, &test, "det").unwrap()
    };
    let instrumented = {
        let (mut fed, test) = build_hd_federation(0);
        fed.set_threads(4);
        fed.set_straggler_prob(0.25).unwrap();
        let (tel, _sink) = memory_recorder();
        fed.set_telemetry(tel);
        let channel = PacketLossChannel::new(0.2, 256).unwrap();
        fed.run(&channel, &test, "det").unwrap()
    };
    assert_eq!(plain, instrumented);
}
