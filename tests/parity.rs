//! Differential parity: the bit-packed HD kernels must agree *exactly*
//! — not approximately — with the transparent `i32` reference learner
//! in `fhdnn::hdc::packed::reference`.
//!
//! Every kernel the federated loop leans on is pinned here: sign
//! encoding (including IEEE `-0.0`), packed dot products, one-shot
//! bundling sums, mispredict-driven refinement trajectories, argmax
//! tie-breaking, and model bundling — across word-aligned and odd
//! dimensions, class counts, and seeds. One test asserts the
//! acceptance-gate speedup: packed similarity ≥ 4× faster than the
//! `i32` path at d = 10 000 (tests compile at `opt-level = 2`).
//!
//! Two suites lift the parity bar from kernels to the whole system: a
//! full fedhd campaign under `HdExecution::Packed` must be bit-identical
//! to the `Reference` oracle (history, model bits, health records) at
//! thread counts 1/2/8, and every SIMD-dispatched kernel must agree
//! exactly with its `simd::scalar` mirror on fuzzed inputs — both on the
//! detected backend and under the `FHDNN_NO_SIMD=1` CI leg.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fhdnn::channel::bit_error::BitErrorChannel;
use fhdnn::channel::packet::PacketLossChannel;
use fhdnn::channel::Channel;
use fhdnn::datasets::features::FeatureSpec;
use fhdnn::datasets::partition::Partition;
use fhdnn::federated::config::{FlConfig, HdExecution};
use fhdnn::federated::fedhd::{HdClientData, HdFederation, HdTransport};
use fhdnn::federated::metrics::RunHistory;
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::model::HdModel;
use fhdnn::hdc::packed::reference::{dot_i32, ReferenceHdModel};
use fhdnn::hdc::packed::{
    dot_packed, hamming, pack_signs, pack_signs_i32, words_for, PackedBatch, PackedHdModel,
};
use fhdnn::hdc::simd;
use fhdnn::telemetry::clock::ManualClock;
use fhdnn::telemetry::event::{Event, FieldValue};
use fhdnn::telemetry::sink::MemorySink;
use fhdnn::telemetry::Recorder;
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "proptest_util.rs"]
mod proptest_util;

/// Word-aligned, one-off-word-aligned, and odd dimensionalities; the
/// pad-bit handling only matters off 64-bit boundaries.
const DIMS: &[usize] = &[63, 64, 65, 1000, 1001, 2048];

/// Random values spanning negatives, positives, exact zeros and `-0.0`,
/// since the packed encoding must agree with `sign_i32` on all of them.
fn random_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

/// A random ±1 vector in `i32` form.
fn random_bipolar(rng: &mut StdRng, n: usize) -> Vec<i32> {
    (0..n)
        .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
        .collect()
}

#[test]
fn sign_encoding_round_trips_through_packing() {
    for &dim in DIMS {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let values = random_values(&mut rng, dim);
            let batch = PackedBatch::from_rows(&values, 1, dim);
            let unpacked = batch.unpack_row(0);
            for (i, (&v, &s)) in values.iter().zip(unpacked.iter()).enumerate() {
                let expected = if v >= 0.0 { 1 } else { -1 };
                assert_eq!(s, expected, "dim {dim} seed {seed} index {i} value {v}");
            }
            // Free-function packing, batch packing and re-packing the
            // unpacked signs all land on the same words (pad bits zero).
            assert_eq!(pack_signs(&values), batch.row(0));
            assert_eq!(pack_signs_i32(&unpacked), batch.row(0));
        }
    }
}

#[test]
fn packed_dot_matches_i32_dot() {
    for &dim in DIMS {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let a = random_bipolar(&mut rng, dim);
            let b = random_bipolar(&mut rng, dim);
            let pa = pack_signs_i32(&a);
            let pb = pack_signs_i32(&b);
            assert_eq!(
                dot_packed(&pa, &pb, dim),
                dot_i32(&a, &b),
                "dim {dim} seed {seed}"
            );
            // Self-similarity is exactly dim; hamming to self is zero.
            assert_eq!(dot_packed(&pa, &pa, dim), dim as i64);
            assert_eq!(hamming(&pa, &pa), 0);
        }
    }
}

/// Builds the same random labelled batch for both learners: a packed
/// batch plus the identical ±1 rows in `i32` form.
fn labelled_batch(
    rng: &mut StdRng,
    samples: usize,
    dim: usize,
    classes: usize,
) -> (PackedBatch, Vec<Vec<i32>>, Vec<usize>) {
    let values: Vec<f32> = random_values(rng, samples * dim);
    let batch = PackedBatch::from_rows(&values, samples, dim);
    let rows: Vec<Vec<i32>> = (0..samples).map(|r| batch.unpack_row(r)).collect();
    let labels: Vec<usize> = (0..samples).map(|_| rng.gen_range(0..classes)).collect();
    (batch, rows, labels)
}

#[test]
fn one_shot_bundling_sums_agree() {
    for &dim in DIMS {
        for &classes in &[2usize, 5, 10] {
            let mut rng = StdRng::seed_from_u64(3000 + dim as u64 + classes as u64);
            let (batch, rows, labels) = labelled_batch(&mut rng, 40, dim, classes);

            let mut packed = PackedHdModel::new(classes, dim).unwrap();
            packed.one_shot_train(&batch, &labels).unwrap();

            let mut reference = ReferenceHdModel::new(classes, dim).unwrap();
            reference.one_shot_train(&rows, &labels);

            assert_eq!(
                packed.protos(),
                reference.protos.as_slice(),
                "dim {dim} classes {classes}"
            );
        }
    }
}

#[test]
fn refinement_trajectories_agree() {
    for &dim in &[65usize, 1000] {
        for &classes in &[2usize, 5, 10] {
            let mut rng = StdRng::seed_from_u64(4000 + dim as u64 + classes as u64);
            let (batch, rows, labels) = labelled_batch(&mut rng, 50, dim, classes);

            let mut packed = PackedHdModel::new(classes, dim).unwrap();
            packed.one_shot_train(&batch, &labels).unwrap();
            let mut reference = ReferenceHdModel::new(classes, dim).unwrap();
            reference.one_shot_train(&rows, &labels);

            for epoch in 0..4 {
                let packed_updates = packed.refine_epoch(&batch, &labels).unwrap();
                let reference_updates = reference.refine_epoch(&rows, &labels);
                assert_eq!(
                    packed_updates, reference_updates,
                    "dim {dim} classes {classes} epoch {epoch}"
                );
                assert_eq!(
                    packed.protos(),
                    reference.protos.as_slice(),
                    "dim {dim} classes {classes} epoch {epoch}"
                );
            }

            // Identical counters must produce identical predictions —
            // both sides break similarity ties on the first maximum.
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    packed.predict_packed(batch.row(r)),
                    reference.predict(row),
                    "dim {dim} classes {classes} sample {r}"
                );
            }
        }
    }
}

#[test]
fn similarities_and_argmax_agree_on_arbitrary_counters() {
    for &dim in DIMS {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(5000 + seed);
            let classes = 10;
            // Arbitrary (not training-reachable) counter states, with
            // zeros so the sign(0) = +1 convention is exercised.
            let counts: Vec<i32> = (0..classes * dim)
                .map(|_| rng.gen_range(-50..=50))
                .collect();
            let packed = PackedHdModel::from_counts(counts.clone(), classes, dim).unwrap();
            let reference = ReferenceHdModel {
                protos: counts,
                num_classes: classes,
                dim,
            };
            for _ in 0..20 {
                let query = random_bipolar(&mut rng, dim);
                let packed_query = pack_signs_i32(&query);
                let sims = packed.similarities_packed(&packed_query);
                for (c, &sim) in sims.iter().enumerate() {
                    assert_eq!(sim, reference.similarity(c, &query), "dim {dim} class {c}");
                }
                assert_eq!(
                    packed.predict_packed(&packed_query),
                    reference.predict(&query),
                    "dim {dim} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn bundle_is_elementwise_counter_sum() {
    let dim = 129;
    let classes = 5;
    let mut rng = StdRng::seed_from_u64(6000);
    let models: Vec<PackedHdModel> = (0..6)
        .map(|_| {
            let counts: Vec<i32> = (0..classes * dim)
                .map(|_| rng.gen_range(-20..=20))
                .collect();
            PackedHdModel::from_counts(counts, classes, dim).unwrap()
        })
        .collect();
    let bundled = PackedHdModel::bundle(&models).unwrap();
    let expected: Vec<i32> = (0..classes * dim)
        .map(|i| models.iter().map(|m| m.protos()[i]).sum())
        .collect();
    assert_eq!(bundled.protos(), expected.as_slice());
    // And the bundled model's packed rows reflect the summed signs.
    for c in 0..classes {
        assert_eq!(
            bundled.packed_row(c),
            &pack_signs_i32(&expected[c * dim..(c + 1) * dim])[..]
        );
    }
}

/// Acceptance gate: at d = 10 000 the popcount path must beat the
/// `i32` reference by ≥ 4× on prediction. The expected margin is far
/// larger (~64 dims per word vs one multiply-add per dim), so 4× holds
/// comfortably even on loaded CI machines.
#[test]
fn packed_similarity_is_at_least_4x_faster_at_d10000() {
    const DIM: usize = 10_000;
    const CLASSES: usize = 10;
    const QUERIES: usize = 64;
    const REPS: usize = 8;

    let mut rng = StdRng::seed_from_u64(7000);
    let counts: Vec<i32> = (0..CLASSES * DIM)
        .map(|_| rng.gen_range(-50..=50))
        .collect();
    let packed = PackedHdModel::from_counts(counts.clone(), CLASSES, DIM).unwrap();
    let reference = ReferenceHdModel {
        protos: counts,
        num_classes: CLASSES,
        dim: DIM,
    };
    let queries: Vec<Vec<i32>> = (0..QUERIES)
        .map(|_| random_bipolar(&mut rng, DIM))
        .collect();
    let packed_queries: Vec<Vec<u64>> = queries.iter().map(|q| pack_signs_i32(q)).collect();

    // Both paths must agree before being timed.
    for (q, pq) in queries.iter().zip(packed_queries.iter()) {
        assert_eq!(packed.predict_packed(pq), reference.predict(q));
    }

    let timed = |f: &mut dyn FnMut() -> usize| {
        // Warm-up pass, then best-of-REPS to shrug off scheduler noise.
        black_box(f());
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .min()
            .unwrap()
    };

    let reference_time = timed(&mut || queries.iter().map(|q| reference.predict(q)).sum::<usize>());
    let packed_time = timed(&mut || {
        packed_queries
            .iter()
            .map(|pq| packed.predict_packed(pq))
            .sum::<usize>()
    });

    assert!(
        packed_time * 4 <= reference_time,
        "packed {packed_time:?} vs reference {reference_time:?}: below 4x"
    );
}

// ---------------------------------------------------------------------
// Campaign-level parity: a full fedhd run under `HdExecution::Packed`
// must be bit-identical to the `Reference` oracle — same per-round
// accuracy and byte accounting, same final model bits, same health
// records — at every thread count, with stragglers and a lossy packet
// channel in the mix so both engines consume their RNG streams in full.
// ---------------------------------------------------------------------

/// What one campaign of the wall is run over: a model shape, a cohort, a
/// channel, who straggles when, and the global model it starts from.
struct Scenario {
    name: &'static str,
    classes: usize,
    dim: usize,
    clients: usize,
    client_fraction: f32,
    /// Each round's straggler probability; `NOBODY` leaves the server
    /// without a single arrival.
    stragglers: [f64; 3],
    link: Link,
    initial: Initial,
}

/// As good as surely everyone straggles (`set_straggler_prob` stops
/// short of 1).
const NOBODY: f64 = 1.0 - 1e-12;

#[derive(Clone, Copy)]
enum Link {
    PacketLoss(f64),
    BitErrors(f64),
}

#[derive(Clone, Copy)]
enum Initial {
    /// All zero, as every campaign of the CLI starts.
    Blank,
    /// Fractions on both sides of zero, values that truncate to zero and
    /// a negative zero: no vote could have written it, and the packed
    /// engine publishes it as handed in until one does.
    Fractional,
    /// Integers, but further from zero than the `i16` kernels of the
    /// packed engine's health take.
    Wide,
}

/// The scenario's clients and test set, encoded once for all of its runs.
fn scenario_data(s: &Scenario) -> (Vec<HdClientData>, HdClientData) {
    let spec = FeatureSpec {
        num_classes: s.classes,
        width: 40,
        noise_std: 0.6,
        class_seed: 11,
    };
    let train = spec.generate(s.clients * 25, 0).unwrap();
    let test = spec.generate(60, 1).unwrap();
    let enc = RandomProjectionEncoder::new(s.dim, 40, 3).unwrap();
    let h_train = enc.encode_batch(&train.features).unwrap();
    let h_test = enc.encode_batch(&test.features).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let parts = Partition::Iid
        .split(&train.labels, s.clients, &mut rng)
        .unwrap();
    let clients = parts
        .iter()
        .map(|idx| {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for &i in idx {
                data.extend_from_slice(h_train.row(i).unwrap());
                labels.push(train.labels[i]);
            }
            HdClientData {
                hypervectors: Tensor::from_vec(data, &[idx.len(), s.dim]).unwrap(),
                labels,
            }
        })
        .collect();
    let test_data = HdClientData {
        hypervectors: h_test,
        labels: test.labels,
    };
    (clients, test_data)
}

/// One instrumented binary-transport campaign. Returns the run history
/// (whose `PartialEq` already excludes wall-clock and heap watermarks),
/// the final global-model bits, and the captured `health.round` events
/// with their environment-dependent `mem_*` fields zeroed.
fn binary_campaign(
    s: &Scenario,
    (clients, test_data): &(Vec<HdClientData>, HdClientData),
    execution: HdExecution,
    threads: usize,
    fleet: bool,
) -> (RunHistory, Vec<u32>, Vec<Event>) {
    let config = FlConfig {
        num_clients: s.clients,
        rounds: s.stragglers.len(),
        local_epochs: 2,
        batch_size: 10,
        client_fraction: s.client_fraction,
        seed: 7,
        execution,
    };
    let mut global = HdModel::new(s.classes, s.dim).unwrap();
    for (i, v) in global
        .prototypes_mut()
        .as_mut_slice()
        .iter_mut()
        .enumerate()
    {
        *v = match s.initial {
            Initial::Blank => 0.0,
            Initial::Fractional => [0.5, -0.5, 1.75, -2.25, -0.0, 3.0][i % 6] * (1 + i % 3) as f32,
            Initial::Wide => [5000.0, -5000.0, 0.0][i % 3],
        };
    }
    let mut fed = HdFederation::new(global, clients.clone(), config, HdTransport::Binary).unwrap();
    fed.set_threads(threads);
    fed.set_fleet_telemetry(fleet);
    let sink = Arc::new(MemorySink::new());
    let tel = Recorder::with_sink_and_clock(sink.clone(), Arc::new(ManualClock::new(10)));
    fed.set_telemetry(tel.clone());
    let channel: Box<dyn Channel> = match s.link {
        Link::PacketLoss(loss) => Box::new(PacketLossChannel::new(loss, 256).unwrap()),
        Link::BitErrors(ber) => Box::new(BitErrorChannel::new(ber).unwrap()),
    };
    let mut history = RunHistory::new("parity");
    for prob in s.stragglers {
        fed.set_straggler_prob(prob).unwrap();
        history.push(fed.run_round(channel.as_ref(), test_data).unwrap());
    }
    tel.flush();
    let model_bits: Vec<u32> = fed
        .global()
        .prototypes()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let events = sink.events();
    // The packed view of the uplink: a sign word per 64 dims of every
    // class row, for each update the round's health record saw arrive.
    let u64_fields = |name: &str, key: &str| -> Vec<u64> {
        let named = events.iter().filter(|e| e.name == name);
        named
            .map(|e| match e.fields.get(key) {
                Some(FieldValue::U64(v)) => *v,
                other => panic!("{name}.{key} is {other:?}"),
            })
            .collect()
    };
    let model_words = (s.classes * words_for(s.dim)) as u64;
    let arrived = u64_fields("health.round", "arrived");
    assert_eq!(
        u64_fields("fl.packed_uplink_words", "delta"),
        arrived.iter().map(|a| model_words * a).collect::<Vec<_>>(),
        "{}: packed uplink words, arrivals {arrived:?}",
        s.name
    );
    let health: Vec<Event> = events
        .into_iter()
        .filter(|e| e.name == "health.round")
        .map(|mut e| {
            // Heap watermarks measure the process's real allocator state,
            // which legitimately differs between the two engines (and
            // between runs); everything else must match bit for bit.
            for key in ["mem_peak_bytes", "mem_allocs", "mem_bytes_per_client"] {
                if let Some(v) = e.fields.get_mut(key) {
                    *v = FieldValue::U64(0);
                }
            }
            e
        })
        .collect();
    (history, model_bits, health)
}

/// The wall: the packed engine reads a recorded round's health off
/// integer counters and sign words, the reference off `f64` chains over
/// float views, and every record must come out the same in every bit —
/// at the paper's shape, under erasures and under bit flips, through a
/// round without arrivals, with more arrivals than fleet mode keeps, and
/// from initial models the integer reading has to decline.
const WALL: &[Scenario] = &[
    Scenario {
        name: "five classes under packet loss",
        classes: 5,
        dim: 1024,
        clients: 4,
        client_fraction: 0.5,
        stragglers: [0.25; 3],
        link: Link::PacketLoss(0.2),
        initial: Initial::Blank,
    },
    Scenario {
        name: "26 x 65",
        classes: 26,
        dim: 65,
        clients: 8,
        client_fraction: 0.5,
        stragglers: [0.25; 3],
        link: Link::PacketLoss(0.2),
        initial: Initial::Blank,
    },
    Scenario {
        name: "26 x 1000 under bit errors",
        classes: 26,
        dim: 1000,
        clients: 8,
        client_fraction: 0.5,
        stragglers: [0.25; 3],
        link: Link::BitErrors(0.01),
        initial: Initial::Blank,
    },
    Scenario {
        name: "26 x 10 000",
        classes: 26,
        dim: 10_000,
        clients: 12,
        client_fraction: 0.5,
        stragglers: [0.0, 0.25, 0.25],
        link: Link::PacketLoss(0.1),
        initial: Initial::Blank,
    },
    Scenario {
        name: "a round where nothing arrives",
        classes: 5,
        dim: 1024,
        clients: 4,
        client_fraction: 0.5,
        stragglers: [0.25, NOBODY, 0.25],
        link: Link::BitErrors(0.01),
        initial: Initial::Blank,
    },
    Scenario {
        name: "more arrivals than reservoir slots",
        classes: 5,
        dim: 1024,
        clients: 40,
        client_fraction: 1.0,
        stragglers: [0.0, 0.1, 0.1],
        link: Link::PacketLoss(0.2),
        initial: Initial::Blank,
    },
    Scenario {
        name: "a fractional initial global, voted on at once",
        classes: 5,
        dim: 1000,
        clients: 4,
        client_fraction: 0.5,
        stragglers: [0.0, 0.25, 0.25],
        link: Link::PacketLoss(0.2),
        initial: Initial::Fractional,
    },
    Scenario {
        name: "a fractional initial global, published through an empty round",
        classes: 5,
        dim: 1000,
        clients: 4,
        client_fraction: 0.5,
        stragglers: [NOBODY, 0.0, 0.25],
        link: Link::PacketLoss(0.2),
        initial: Initial::Fractional,
    },
    Scenario {
        name: "initial counts too wide to narrow",
        classes: 5,
        dim: 1000,
        clients: 4,
        client_fraction: 0.5,
        stragglers: [0.0, 0.25, 0.25],
        link: Link::PacketLoss(0.2),
        initial: Initial::Wide,
    },
];

#[test]
fn fedhd_campaign_packed_matches_reference_at_every_thread_count() {
    for s in WALL {
        let data = scenario_data(s);
        for fleet in [false, true] {
            let oracle = binary_campaign(s, &data, HdExecution::Reference, 1, fleet);
            let rounds = s.stragglers.len();
            assert_eq!(oracle.0.rounds.len(), rounds, "{}: every round ran", s.name);
            assert_eq!(
                oracle.2.len(),
                rounds,
                "{}: one health record a round",
                s.name
            );
            let wire = (s.classes * s.dim.div_ceil(8)) as u64;
            assert!(
                oracle.0.rounds.iter().all(|r| r.bytes_per_client == wire),
                "{}: binary uplink must cost classes x dim/8 bytes",
                s.name
            );
            for threads in [1usize, 2, 8] {
                for execution in [HdExecution::Reference, HdExecution::Packed] {
                    let run = binary_campaign(s, &data, execution, threads, fleet);
                    let tag = format!(
                        "{}, fleet {fleet}: {} at {threads} threads",
                        s.name,
                        execution.name()
                    );
                    assert_eq!(oracle.0, run.0, "round metrics diverged: {tag}");
                    assert_eq!(oracle.1, run.1, "model bits diverged: {tag}");
                    assert_eq!(oracle.2, run.2, "health records diverged: {tag}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SIMD vs scalar: every dispatched kernel must agree exactly with its
// `simd::scalar` mirror on fuzzed inputs across degenerate (d = 1),
// odd, word-aligned, and paper-scale (d = 10 000) dimensionalities.
// Under `FHDNN_NO_SIMD=1` (a dedicated CI leg) the dispatcher itself
// resolves to the scalar backend, so the same assertions pin that the
// escape hatch changes nothing either.
// ---------------------------------------------------------------------

/// The mask clearing pad bits above `dim` in the last packed word.
fn pad_mask(dim: usize) -> u64 {
    match dim % 64 {
        0 => !0,
        tail => (1u64 << tail) - 1,
    }
}

/// One detector answers for the GEMM micro-kernel and the packed
/// kernels alike, and `FHDNN_NO_SIMD=1` turns both scalar. The backend is
/// decided once per process, so the forced half runs in a child.
#[test]
fn tensor_and_hdc_report_one_backend_and_no_simd_forces_it_scalar() {
    let backend = fhdnn::tensor::simd::active_backend();
    assert_eq!(simd::active_backend(), backend);
    let forced = std::env::var_os("FHDNN_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
    if forced || cfg!(miri) {
        assert_eq!(backend, "scalar");
        return;
    }
    let this_test = "tensor_and_hdc_report_one_backend_and_no_simd_forces_it_scalar";
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", this_test])
        .env("FHDNN_NO_SIMD", "1")
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "{report}");
    assert!(report.contains("test result: ok. 1 passed"), "{report}");
}

#[test]
fn simd_kernels_match_scalar_mirrors_on_fuzzed_inputs() {
    let backend = simd::active_backend();
    assert!(
        ["scalar", "avx2", "neon"].contains(&backend),
        "unknown backend {backend}"
    );
    const FUZZ_DIMS: &[usize] = &[1, 7, 63, 64, 65, 1000, 2048, 10_000];
    proptest_util::check(0xC0FF_EE00, 12, |case, g| {
        for &dim in FUZZ_DIMS {
            let words = dim.div_ceil(64);
            let f32s: Vec<f32> = (0..dim)
                .map(|_| match g.usize_below(10) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => g.f32_in(-1.0, 1.0),
                })
                .collect();
            let i32s: Vec<i32> = (0..dim).map(|_| g.i32_in(-100, 100)).collect();
            let mut packed_a = vec![0u64; words];
            let mut packed_b = vec![0u64; words];
            simd::pack_f32_into(&f32s, &mut packed_a);
            simd::scalar::pack_f32_into(&f32s, &mut packed_b);
            assert_eq!(packed_a, packed_b, "pack_f32 case {case} dim {dim}");
            simd::pack_i32_into(&i32s, &mut packed_a);
            simd::scalar::pack_i32_into(&i32s, &mut packed_b);
            assert_eq!(packed_a, packed_b, "pack_i32 case {case} dim {dim}");

            let wa: Vec<u64> = {
                let mut w: Vec<u64> = (0..words).map(|_| g.next_u64()).collect();
                *w.last_mut().unwrap() &= pad_mask(dim);
                w
            };
            assert_eq!(
                simd::hamming(&wa, &packed_a),
                simd::scalar::hamming(&wa, &packed_a),
                "hamming case {case} dim {dim}"
            );

            let src: Vec<i32> = (0..dim).map(|_| g.i32_in(-100, 100)).collect();
            let mut dst_a = i32s.clone();
            let mut dst_b = i32s.clone();
            simd::add_assign_i32(&mut dst_a, &src);
            simd::scalar::add_assign_i32(&mut dst_b, &src);
            assert_eq!(dst_a, dst_b, "add_assign case {case} dim {dim}");

            let delta = g.i32_in(-3, 3);
            simd::accumulate_pm1(&mut dst_a, &wa, delta);
            simd::scalar::accumulate_pm1(&mut dst_b, &wa, delta);
            assert_eq!(dst_a, dst_b, "accumulate case {case} dim {dim}");

            let erased: Vec<u64> = {
                // Roughly one in four dims erased, pad bits clear.
                let mut w: Vec<u64> = (0..words).map(|_| g.next_u64() & g.next_u64()).collect();
                *w.last_mut().unwrap() &= pad_mask(dim);
                w
            };
            simd::vote_pm1_masked(&mut dst_a, &wa, &erased);
            simd::scalar::vote_pm1_masked(&mut dst_b, &wa, &erased);
            assert_eq!(dst_a, dst_b, "vote case {case} dim {dim}");

            // The `i16` kernels over their whole range, ends included,
            // under the fuzzed erasure mask, none and all (pad bits clear
            // in every word, as the packed transport leaves them).
            let max = i32::from(simd::NARROW_MAX);
            let mut narrow = || -> Vec<i16> {
                (0..dim)
                    .map(|_| match g.usize_below(8) {
                        0 => max as i16,
                        1 => -max as i16,
                        _ => g.i32_in(-max, max) as i16,
                    })
                    .collect()
            };
            let (x, y) = (narrow(), narrow());
            assert_eq!(
                simd::dot_i16(&x, &y),
                simd::scalar::dot_i16(&x, &y),
                "dot_i16 case {case} dim {dim}"
            );
            let none = vec![0u64; words];
            let mut all = vec![u64::MAX; words];
            *all.last_mut().unwrap() &= pad_mask(dim);
            for mask in [&erased, &none, &all] {
                assert_eq!(
                    simd::signed_sums_i16(&x, &y, &wa, mask),
                    simd::scalar::signed_sums_i16(&x, &y, &wa, mask),
                    "signed_sums_i16 case {case} dim {dim}"
                );
            }
        }
    });
}
