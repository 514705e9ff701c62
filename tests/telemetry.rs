//! End-to-end telemetry: a seeded federated run streams a JSONL event log
//! that is parseable line-by-line, names every expected span and counter,
//! agrees with the run's byte accounting, and is byte-identical across
//! same-seed runs under an injected manual clock (modulo the raw memory
//! watermarks, which measure the process's real heap).

use std::collections::BTreeSet;
use std::sync::Arc;

use fhdnn::channel::packet::PacketLossChannel;
use fhdnn::channel::{Channel, NoiselessChannel};
use fhdnn::datasets::features::FeatureSpec;
use fhdnn::datasets::partition::Partition;
use fhdnn::federated::config::FlConfig;
use fhdnn::federated::fedhd::{HdClientData, HdFederation, HdTransport};
use fhdnn::federated::metrics::RunHistory;
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::model::HdModel;
use fhdnn::telemetry::clock::ManualClock;
use fhdnn::telemetry::jsonl::{self, Value};
use fhdnn::telemetry::sink::JsonlSink;
use fhdnn::telemetry::{Recorder, Telemetry};
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 1024;
const NUM_CLIENTS: usize = 4;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fhdnn-telemetry-{}-{name}.jsonl",
        std::process::id()
    ));
    p
}

/// Pre-encoded clients and test set, mirroring the fedhd unit fixtures.
fn build_federation(seed: u64) -> (HdFederation, HdClientData) {
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
        rounds: 2,
        local_epochs: 1,
        batch_size: 10,
        client_fraction: 0.5,
        seed: 7,
        ..FlConfig::default()
    };
    let global = HdModel::new(5, DIM).unwrap();
    let fed = HdFederation::new(global, clients, config, HdTransport::Float).unwrap();
    let test_data = HdClientData {
        hypervectors: h_test,
        labels: test.labels,
    };
    (fed, test_data)
}

/// Runs the fixture federation streaming events to `path` on a manual
/// clock (10 µs per reading), so the stream is fully deterministic.
fn run_with_jsonl(path: &std::path::Path, channel: &dyn Channel) -> (RunHistory, Telemetry) {
    let (mut fed, test) = build_federation(0);
    let sink = JsonlSink::create(path).unwrap();
    let tel = Recorder::with_sink_and_clock(Arc::new(sink), Arc::new(ManualClock::new(10)));
    fed.set_telemetry(tel.clone());
    let history = fed.run(channel, &test, "telemetry").unwrap();
    tel.flush();
    (history, tel)
}

#[test]
fn jsonl_stream_is_parseable_and_names_every_stage() {
    let path = temp_path("parseable");
    let channel = PacketLossChannel::new(0.3, 256).unwrap();
    let (history, tel) = run_with_jsonl(&path, &channel);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        let v = jsonl::parse(line)
            .unwrap_or_else(|e| panic!("line {lines} is not valid JSON ({e}): {line}"));
        let ts = v.get("ts").and_then(Value::as_f64);
        assert!(ts.is_some_and(|t| t >= 0.0 && t.fract() == 0.0), "{line}");
        assert!(v.get("fields").is_some(), "{line}");
        let text = |key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        seen.insert((text("kind"), text("name")));
    }
    assert!(lines > 0, "event stream is empty");

    for span in [
        "round.broadcast",
        "round.local_train",
        "round.transmit",
        "round.aggregate",
        "round.eval",
    ] {
        assert!(
            seen.contains(&("span".into(), span.into())),
            "missing span {span}"
        );
    }
    for counter in [
        "fl.rounds",
        "fl.participants",
        "fl.bytes_up",
        "fl.bytes_down",
    ] {
        assert!(
            seen.contains(&("counter".into(), counter.into())),
            "missing counter {counter}"
        );
    }
    assert!(seen.contains(&("gauge".into(), "fl.test_accuracy".into())));
    assert!(seen.contains(&("hist".into(), "fl.round_micros".into())));
    // The tracked allocator's per-round watermarks ride the same stream.
    for mem in ["mem.allocs", "mem.alloc_bytes"] {
        assert!(
            seen.contains(&("counter".into(), mem.into())),
            "missing counter {mem}"
        );
    }
    for mem in ["mem.peak_bytes", "mem.live_bytes"] {
        assert!(
            seen.contains(&("gauge".into(), mem.into())),
            "missing gauge {mem}"
        );
    }
    // The lossy channel must surface as realized impairments.
    assert!(seen.contains(&("counter".into(), "chan.dims_erased".into())));
    assert!(tel.counter_value("chan.dims_erased") > 0);
    assert!(tel.counter_value("chan.packets_dropped") > 0);

    // Uplink accounting agrees with the run history (no stragglers, so
    // every sampled participant's update arrived).
    assert_eq!(
        tel.counter_value("fl.bytes_up"),
        history.total_uplink_bytes()
    );
    assert_eq!(
        tel.counter_value("fl.participants"),
        history.rounds.iter().map(|r| r.participants as u64).sum()
    );
    assert_eq!(tel.counter_value("fl.rounds"), history.rounds.len() as u64);
}

/// Canonicalizes a stream for cross-run comparison: raw memory
/// watermarks measure the process's real heap, which depends on what
/// earlier runs and concurrent tests left live, so `mem.*` lines drop
/// and the `mem_*` fields of `health.round` lines zero. Everything else
/// — including the span-attributed allocation fields, which are
/// thread-local deltas — must be byte-identical.
fn canonical_stream(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut v = jsonl::parse(line).unwrap();
        let name = v.get("name").and_then(Value::as_str).unwrap_or_default();
        // The jsonl_bytes self-meter counts serialized bytes, whose
        // digit widths include those same heap watermarks — equally
        // environment-dependent, equally dropped.
        if name.starts_with("mem.") || name == "telemetry.overhead.jsonl_bytes" {
            continue;
        }
        if name == "health.round" {
            let Value::Obj(record) = &mut v else {
                panic!("not an object: {line}")
            };
            let Some(Value::Obj(fields)) = record.get_mut("fields") else {
                panic!("no fields: {line}")
            };
            for key in ["mem_peak_bytes", "mem_allocs", "mem_bytes_per_client"] {
                fields.insert(key.to_string(), Value::Num(0.0));
            }
            out.push_str(&v.to_string());
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn same_seed_streams_are_byte_identical() {
    let pa = temp_path("identical-a");
    let pb = temp_path("identical-b");
    let channel = PacketLossChannel::new(0.3, 256).unwrap();
    let (ha, _) = run_with_jsonl(&pa, &channel);
    let (hb, _) = run_with_jsonl(&pb, &channel);
    let a = canonical_stream(&std::fs::read_to_string(&pa).unwrap());
    let b = canonical_stream(&std::fs::read_to_string(&pb).unwrap());
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
    assert_eq!(ha, hb, "histories diverged under one seed");
    assert!(!a.is_empty());
    assert_eq!(a, b, "event streams diverged under one seed");
}

#[test]
fn clean_channel_emits_no_impairment_counters() {
    let path = temp_path("clean");
    let (_, tel) = run_with_jsonl(&path, &NoiselessChannel::new());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(tel.counter_value("chan.bits_flipped"), 0);
    assert_eq!(tel.counter_value("chan.dims_erased"), 0);
    for suppressed in ["chan.bits_flipped", "chan.dims_erased", "chan.noise_energy"] {
        assert!(
            !text.contains(suppressed),
            "{suppressed} should be suppressed on a clean channel"
        );
    }
    // Transmissions themselves are still accounted.
    assert!(tel.counter_value("chan.transmissions") > 0);
}

#[test]
fn disabled_recorder_changes_nothing() {
    let channel = NoiselessChannel::new();
    let (mut plain_fed, test) = build_federation(0);
    let plain = plain_fed.run(&channel, &test, "plain").unwrap();
    let (mut instr_fed, test2) = build_federation(0);
    instr_fed.set_telemetry(Recorder::disabled());
    let instrumented = instr_fed.run(&channel, &test2, "plain").unwrap();
    assert_eq!(plain, instrumented);
}
