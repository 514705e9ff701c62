//! Allocation-behaviour lockdown for the tracked global allocator.
//!
//! Two properties ride on `fhdnn::telemetry::mem`:
//!
//! 1. The bit-packed HD kernels' hot loops are **allocation-free** —
//!    train/refine/predict touch only caller-owned buffers, which is
//!    what makes the packed path viable on allocator-poor AIoT targets.
//!    Pinned with *thread-local* counters, so concurrently running
//!    tests cannot pollute the measurement.
//! 2. A dense `refine_epoch` allocates a **fixed number of buffers per
//!    call**, whatever the batch: the block scorer's scratch is set up
//!    once and the GEMM borrows the sample rows where they lie. Same
//!    thread-local window.
//! 3. An evaluation-mode `Conv2d::forward` allocates **one column block**
//!    of scratch besides its output, however many images are in the
//!    batch. Same thread-local window.
//! 4. Per-round peak memory **scales with the client count** — the
//!    aggregation path materializes every arrived update, which is the
//!    O(clients) wall that ROADMAP item 2's streaming aggregation is
//!    aimed at. Measured with the process-global watermark; since
//!    unrelated traffic can only inflate a peak, each count takes the
//!    minimum of three runs.
//! 5. A **steady-state recorded round allocates nothing model-sized** that
//!    the same round without a recorder does not: the health block's
//!    baseline, client deltas and aggregate delta live in buffers kept
//!    from round to round. A packed binary round allocates nothing
//!    model-sized at all: its global lives as counters and sign words from
//!    one round to the next. Counted from the process-wide size-class
//!    histogram, which is exact while the file's lock is held.
//! 6. A **steady-state packed round at the paper's scale** (26 classes,
//!    d = 10 000, six participants) asks the allocator for about a tenth
//!    of a model in total: sign words, erasure masks and the few class
//!    rows refinement writes. Thread-local window, inline execution.
//! 7. A **recorded packed federation retains about one model of health
//!    scratch** between rounds — the round-start and voted counters as
//!    `i16` and their sign words — where float baseline, aggregate delta
//!    and a delta per arrival were eight. Process-wide live bytes, exact
//!    while the file's lock is held.
//! 8. **Nine kernels allocate an exact number of blocks and bytes per
//!    call**: the ones that neither an item above nor a per-layer row of
//!    the campaign benchmark covers. Shapes alone decide both numbers,
//!    never a drawn value. Thread-local window.

use fhdnn::channel::packet::PacketLossChannel;
use fhdnn::channel::packetizer::{transport_through, Packetizer};
use fhdnn::channel::NoiselessChannel;
use fhdnn::datasets::features::FeatureSpec;
use fhdnn::datasets::partition::Partition;
use fhdnn::federated::config::FlConfig;
use fhdnn::federated::fedhd::{HdClientData, HdFederation, HdTransport};
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::health::{class_geometry, cosine_distances};
use fhdnn::hdc::model::HdModel;
use fhdnn::hdc::packed::{pack_signs, pack_signs_into, words_for, PackedBatch, PackedHdModel};
use fhdnn::hdc::quantizer::quantize;
use fhdnn::nn::conv::{Conv2d, ConvGeometry};
use fhdnn::nn::{Layer, Mode};
use fhdnn::telemetry::mem;
use fhdnn::telemetry::sink::NoopSink;
use fhdnn::telemetry::Recorder;
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const DIM: usize = 2048;
const CLASSES: usize = 6;

/// Held by every test here for its whole body: the round-peak tests read
/// a process-wide watermark, which any other thread's allocations push up
/// (they failed one run in five when the tests ran side by side).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    // The process's first GEMM or packed kernel decides the SIMD backend,
    // and reading `FHDNN_NO_SIMD` allocates when it is set (CI sets it on
    // every leg): decide before any window opens.
    black_box(fhdnn::tensor::simd::backend());
    // A test that failed while holding the lock has poisoned nothing.
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sample_batch(rows: usize, seed: u64) -> (PackedBatch, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * DIM)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let labels: Vec<usize> = (0..rows).map(|r| r % CLASSES).collect();
    (PackedBatch::from_rows(&data, rows, DIM), labels)
}

#[test]
fn packed_kernel_hot_paths_are_allocation_free() {
    let _alone = alone();
    let (batch, labels) = sample_batch(48, 11);
    let mut model = PackedHdModel::new(CLASSES, DIM).unwrap();
    let values: Vec<f32> = (0..DIM)
        .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut packed = vec![0u64; words_for(DIM)];
    let mut sims = vec![0i64; CLASSES];

    // Warm-up: absorb any one-time lazy allocations so the measured
    // window sees only the kernels' own behaviour.
    model.one_shot_train(&batch, &labels).unwrap();
    model.refine_epoch(&batch, &labels).unwrap();
    pack_signs_into(&values, &mut packed);
    model.similarities_into(&packed, &mut sims);
    let erased = vec![0u64; words_for(DIM)];

    let mark = mem::thread_mark();
    model.one_shot_train(&batch, &labels).unwrap();
    let updates = model.refine_epoch(&batch, &labels).unwrap();
    pack_signs_into(&values, &mut packed);
    model.similarities_into(&packed, &mut sims);
    let mut pred = 0usize;
    for r in 0..batch.rows() {
        pred = pred.wrapping_add(model.predict_packed(batch.row(r)));
    }
    // The server-side bundle fold: majority-vote counter accumulation
    // over arrived sign rows, then an in-place repack of every row.
    for c in 0..CLASSES {
        model.vote_row(c, &packed, &erased);
    }
    model.repack_all();
    let delta = mark.delta();
    assert_eq!(
        delta.allocs, 0,
        "packed hot path allocated {} times ({} bytes); updates={updates} pred={pred}",
        delta.allocs, delta.alloc_bytes
    );

    // Sanity: the allocating conveniences do register on the counters,
    // so a zero above means "no allocations", not "broken tracking".
    let mark = mem::thread_mark();
    let heap_packed = pack_signs(&values);
    assert!(mark.delta().allocs >= 1, "tracking is live");
    assert_eq!(heap_packed, packed);
}

#[test]
fn dense_refine_allocations_do_not_grow_with_the_batch() {
    let _alone = alone();
    // Narrow vectors: the round-peak tests below read a process-wide
    // watermark while this one runs. Half the labels are off by one
    // class, so both epochs update prototypes and re-score in-block.
    const WIDTH: usize = 64;
    let refine_allocs = |rows: usize| {
        let mut rng = StdRng::seed_from_u64(rows as u64);
        let data: Vec<f32> = (0..rows * WIDTH)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let samples = Tensor::from_vec(data, &[rows, WIDTH]).unwrap();
        let labels: Vec<usize> = (0..rows).map(|r| r % CLASSES).collect();
        let mut model = HdModel::new(CLASSES, WIDTH).unwrap();
        model.one_shot_train(&samples, &labels).unwrap();
        let shifted: Vec<usize> = (0..rows).map(|r| (r + r % 2) % CLASSES).collect();
        let mark = mem::thread_mark();
        let updates = model.refine_epoch(&samples, &shifted).unwrap()
            + model
                .refine_epoch_adaptive(&samples, &shifted, 0.5)
                .unwrap();
        assert!(updates > 0, "{rows} rows: nothing was re-scored");
        mark.delta().allocs
    };
    let (small, large) = (refine_allocs(16), refine_allocs(256));
    assert!(small > 0, "tracking is live");
    assert_eq!(
        small, large,
        "refine allocated {small} times for 16 samples and {large} for 256"
    );
}

#[test]
fn conv_eval_scratch_is_one_block_whatever_the_batch() {
    let _alone = alone();
    // At 16x16 a block is two images, so the batches are 4 blocks and 32.
    let geometry = ConvGeometry {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut rng = StdRng::seed_from_u64(8);
    let mut conv = Conv2d::new(1, 2, geometry, &mut rng).unwrap();
    let mut scratch_bytes = |n: usize| {
        let images = Tensor::randn(&[n, 1, 16, 16], 1.0, &mut rng);
        let mark = mem::thread_mark();
        let out = conv.forward(&images, Mode::Eval).unwrap();
        let delta = mark.delta();
        delta.alloc_bytes - (out.len() * std::mem::size_of::<f32>()) as u64
    };
    let (small, large) = (scratch_bytes(8), scratch_bytes(64));
    assert!(small > 0, "tracking is live");
    assert_eq!(
        small, large,
        "conv scratch was {small} B for 8 images and {large} B for 64"
    );
    let block_of_columns = (9 * 2 * 256 * std::mem::size_of::<f32>()) as u64;
    assert!(
        small < block_of_columns + 256,
        "{small} B of scratch is more than a block of columns"
    );
}

/// A fedhd federation over `num_clients` clients with identical
/// per-client data volume and full participation, and its test set.
fn federation(
    num_clients: usize,
    seed: u64,
    transport: HdTransport,
    (num_classes, dim, per_client): (usize, usize, usize),
) -> (HdFederation, HdClientData) {
    let spec = FeatureSpec {
        num_classes,
        width: 40,
        noise_std: 0.6,
        class_seed: 11,
    };
    let train = spec.generate(num_clients * per_client, seed).unwrap();
    let test = spec.generate(40, seed + 1).unwrap();
    let enc = RandomProjectionEncoder::new(dim, 40, 3).unwrap();
    let h_train = enc.encode_batch(&train.features).unwrap();
    let h_test = enc.encode_batch(&test.features).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = Partition::Iid
        .split(&train.labels, num_clients, &mut rng)
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
                hypervectors: Tensor::from_vec(data, &[idx.len(), dim]).unwrap(),
                labels,
            }
        })
        .collect();
    let config = FlConfig {
        num_clients,
        rounds: 1,
        local_epochs: 1,
        batch_size: 10,
        client_fraction: 1.0,
        seed: 7,
        ..FlConfig::default()
    };
    let global = HdModel::new(num_classes, dim).unwrap();
    let fed = HdFederation::new(global, clients, config, transport).unwrap();
    let test_data = HdClientData {
        hypervectors: h_test,
        labels: test.labels,
    };
    (fed, test_data)
}

/// The round peak of a one-round federation of `num_clients` clients.
fn run_one_round(num_clients: usize, seed: u64, transport: HdTransport) -> u64 {
    let (mut fed, test_data) = federation(num_clients, seed, transport, (5, 1024, 25));
    let history = fed
        .run(&NoiselessChannel::new(), &test_data, "alloc")
        .unwrap();
    history.rounds[0].mem_peak_bytes
}

#[test]
fn round_peak_memory_scales_with_client_count() {
    let _alone = alone();
    // Minimum of three runs per count: concurrent allocation traffic
    // can only push a peak up, never down, so the min is the cleanest
    // observation of the engine's own footprint.
    let min_peak = |n: usize| {
        (0..3)
            .map(|i| run_one_round(n, 100 + i, HdTransport::Float))
            .min()
            .expect("three runs")
    };
    let small = min_peak(2);
    let large = min_peak(16);
    assert!(small > 0, "2-client round recorded no peak");
    assert!(
        large > small,
        "peak did not grow with clients: 2 -> {small}, 16 -> {large}"
    );
    assert!(
        large as f64 >= 2.0 * small as f64,
        "aggregation is expected to hold O(clients) update state \
         (2 clients peaked at {small} B, 16 at {large} B); if this now \
         scales sublinearly, ROADMAP item 2's streaming aggregation \
         landed — update this lockdown and EXPERIMENTS.md"
    );
}

/// The packed-round row of the scaling table: the binary transport's
/// retained per-client state is 1 bit/dim (plus the erasure mask)
/// instead of 32, so while its peak still grows with the client count —
/// the fixed-order fold materializes every arrived update — the
/// O(clients) wall sits far lower than the float transport's.
#[test]
fn packed_round_peak_memory_scales_with_client_count_but_stays_small() {
    let _alone = alone();
    let min_peak = |n: usize, t: HdTransport| {
        (0..3)
            .map(|i| run_one_round(n, 100 + i, t))
            .min()
            .expect("three runs")
    };
    let small = min_peak(2, HdTransport::Binary);
    let large = min_peak(16, HdTransport::Binary);
    assert!(small > 0, "2-client packed round recorded no peak");
    assert!(
        large > small,
        "packed peak did not grow with clients: 2 -> {small}, 16 -> {large}"
    );
    let float_large = min_peak(16, HdTransport::Float);
    assert!(
        2 * large < float_large,
        "packed 16-client peak ({large} B) should be well under half the \
         float transport's ({float_large} B): binary updates retain one \
         sign bit per dimension, not an f32"
    );
}

#[test]
fn steady_state_recorded_round_allocates_nothing_model_sized() {
    let _alone = alone();
    // 8 classes at d = 4096: a model of exactly 2^17 bytes, far above
    // anything the recorder's own event and span storage asks for.
    const SHAPE: (usize, usize, usize) = (8, 4096, 10);
    const MODEL_BYTES: usize = SHAPE.0 * SHAPE.1 * 4;
    assert!(MODEL_BYTES.is_power_of_two(), "one size class boundary");
    let model_sized_allocations = || -> u64 {
        let histogram = mem::size_class_histogram();
        histogram[MODEL_BYTES.trailing_zeros() as usize..]
            .iter()
            .sum()
    };
    let quantized = HdTransport::Quantized { bitwidth: 8 };
    // `saturation_fraction` still quantizes the new global once a round.
    let quantize_words = 1;
    for (transport, fleet, clients, excess) in [
        (HdTransport::Binary, false, 4, 0),
        (quantized, false, 4, quantize_words),
        // More arrivals than reservoir slots: a replaced slot's buffer
        // is written over, not dropped for a fresh one.
        (HdTransport::Binary, true, 40, 0),
        (quantized, true, 40, quantize_words),
    ] {
        let third_round = |recorded: bool| {
            let (mut fed, test) = federation(clients, 5, transport, SHAPE);
            if recorded {
                fed.set_telemetry(Recorder::in_memory());
                fed.set_fleet_telemetry(fleet);
            }
            let channel = NoiselessChannel::new();
            for _warm_up in 0..2 {
                fed.run_round(&channel, &test).unwrap();
            }
            let before = model_sized_allocations();
            fed.run_round(&channel, &test).unwrap();
            model_sized_allocations() - before
        };
        let (bare, recorded) = (third_round(false), third_round(true));
        if transport == HdTransport::Binary {
            // The packed engine converts nothing per round: no cast of
            // the global, no rebuilt integer model, no scratch vote.
            assert_eq!(bare, 0, "fleet={fleet}: a bare packed round");
        } else {
            assert!(bare > 0, "tracking is live");
        }
        assert_eq!(
            recorded,
            bare + excess,
            "{transport:?} fleet={fleet}: {recorded} allocations of {MODEL_BYTES} B or more \
             in a recorded round, {bare} in the same round without a recorder"
        );
    }
}

#[test]
fn steady_state_packed_round_stays_inside_its_byte_budget() {
    let _alone = alone();
    const SHAPE: (usize, usize, usize) = (26, 10_000, 26);
    const MODEL_BYTES: u64 = (SHAPE.0 * SHAPE.1 * 4) as u64;
    let (mut fed, test) = federation(6, 5, HdTransport::Binary, SHAPE);
    let channel = PacketLossChannel::new(0.1, 256).unwrap();
    for _warm_up in 0..2 {
        fed.run_round(&channel, &test).unwrap();
    }
    // One thread: the whole round runs inside this thread's window.
    let mark = mem::thread_mark();
    fed.run_round(&channel, &test).unwrap();
    let delta = mark.delta();
    assert!(delta.allocs > 0, "tracking is live");
    // Per participant the 32.5 KB of sign words and as much erasure
    // mask, plus 40 KB for each class row its refinement wrote; the
    // round that cast the global to counters twice and gave every
    // participant (and the vote, and the evaluation) an integer model of
    // its own read 10.1 MB here.
    assert!(
        delta.alloc_bytes < 1_100_000,
        "a steady-state packed round allocated {} B in {} blocks; a model is {MODEL_BYTES} B",
        delta.alloc_bytes,
        delta.allocs
    );
}

#[test]
fn recorded_packed_federation_retains_under_two_models_of_health_scratch() {
    let _alone = alone();
    const SHAPE: (usize, usize, usize) = (26, 10_000, 26);
    const MODEL_BYTES: u64 = (SHAPE.0 * SHAPE.1 * 4) as u64;
    // What the process holds with the federation alive after three
    // rounds, above what it held before the federation was built.
    let live_after_round_3 = |recorded: bool| {
        let before = mem::stats().live_bytes;
        let (mut fed, test) = federation(6, 5, HdTransport::Binary, SHAPE);
        if recorded {
            // Into a discarding sink, so event storage does not count.
            fed.set_telemetry(Recorder::with_sink(Arc::new(NoopSink)));
        }
        let channel = PacketLossChannel::new(0.1, 256).unwrap();
        for _round in 0..3 {
            fed.run_round(&channel, &test).unwrap();
        }
        mem::stats().live_bytes.saturating_sub(before)
    };
    let (bare, recorded) = (live_after_round_3(false), live_after_round_3(true));
    assert!(bare > MODEL_BYTES, "tracking is live: {bare} B");
    let scratch = recorded.saturating_sub(bare);
    // Two narrowed models are one `f32` model; the float diagnostics
    // kept a baseline, an aggregate delta and six client deltas (8.3 MB).
    assert!(
        scratch > MODEL_BYTES / 2 && scratch < 2 * MODEL_BYTES,
        "a recorder makes the packed federation retain {scratch} B; a model is {MODEL_BYTES} B"
    );
}

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, 1.0, &mut StdRng::seed_from_u64(seed))
}

fn random_model(classes: usize, dim: usize, seed: u64) -> HdModel {
    HdModel::from_prototypes(random_tensor(&[classes, dim], seed)).unwrap()
}

/// A one-shot-trained 10-class model at d = 4096, its 256 bipolar
/// samples, and labels under which a refine epoch from that model
/// mispredicts at every visit: the class after the one it predicts on
/// getting there.
fn churn_fixture() -> (HdModel, Tensor, Vec<usize>) {
    let (classes, dim, rows) = (10, 4096, 256);
    let mut rng = StdRng::seed_from_u64(70);
    let values: Vec<f32> = (0..rows * dim)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let samples = Tensor::from_vec(values, &[rows, dim]).unwrap();
    let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
    let mut start = HdModel::new(classes, dim).unwrap();
    start.one_shot_train(&samples, &labels).unwrap();
    let mut walk = start.clone();
    let wrong: Vec<usize> = (0..rows)
        .map(|i| {
            let one = Tensor::from_vec(samples.row(i).unwrap().to_vec(), &[1, dim]).unwrap();
            let label = (walk.predict_batch(&one).unwrap()[0] + 1) % classes;
            walk.refine_epoch(&one, &[label]).unwrap();
            label
        })
        .collect();
    (start, samples, wrong)
}

/// One warmed call of `kernel` asks the allocator for exactly `allocs`
/// blocks and `bytes` bytes.
fn pin(name: &str, allocs: u64, bytes: u64, mut kernel: impl FnMut()) {
    kernel(); // lazy one-time allocations are not the kernel's
    let mark = mem::thread_mark();
    kernel();
    let delta = mark.delta();
    assert_eq!(
        (delta.allocs, delta.alloc_bytes),
        (allocs, bytes),
        "{name}: blocks and bytes allocated by one call"
    );
}

#[test]
fn kernel_allocations_per_call_are_exact() {
    let _alone = alone();
    let geometry = ConvGeometry {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    // `resnet_lite`'s 8 -> 8 convolution at 16x16 on a local batch of 10.
    let mut conv = Conv2d::new(8, 8, geometry, &mut StdRng::seed_from_u64(3)).unwrap();
    let images = random_tensor(&[10, 8, 16, 16], 4);
    let grad = random_tensor(&[10, 8, 16, 16], 5);
    pin("tensor.conv2d_bwd", 12, 1_069_712, || {
        black_box(conv.forward(&images, Mode::Train).unwrap());
        black_box(conv.backward(&grad).unwrap());
    });

    let dense: Vec<HdModel> = (0..10).map(|i| random_model(10, 2048, 10 + i)).collect();
    pin("hdc.bundle", 2, 81_936, || {
        black_box(HdModel::bundle(&dense[..8]).unwrap());
    });
    pin("hdc.quantize", 2, 163_880, || {
        black_box(quantize(&dense[0], 4).unwrap());
    });
    // `run_round`'s dense aggregate stage: bundle, then normalise.
    pin("federated.aggregate", 2, 81_936, || {
        let mut bundled = HdModel::bundle(&dense).unwrap();
        bundled.scale(0.1);
        black_box(bundled);
    });

    // A recorded round's diagnostics at the wide binary workload's shape.
    let wide = random_model(26, 10_000, 21);
    let aggregate = random_tensor(&[26 * 10_000], 22);
    let deltas: Vec<Vec<f32>> = (0..6)
        .map(|client| random_tensor(&[26 * 10_000], 23 + client).into_vec())
        .collect();
    pin("hdc.health", 5, 39_312, || {
        black_box(class_geometry(&wide));
        black_box(cosine_distances(&deltas, aggregate.as_slice()));
    });

    let (start, samples, wrong) = churn_fixture();
    pin("hdc.refine_churn", 4, 197_024, || {
        let mut model = start.clone();
        let updates = model.refine_epoch(&samples, &wrong).unwrap();
        assert_eq!(updates, wrong.len(), "every visit mispredicts");
    });

    let signs = random_tensor(&[10_000], 50);
    pin("hdc.pack", 1, 1_256, || {
        black_box(pack_signs(signs.as_slice()));
    });
    let packed: Vec<PackedHdModel> = (60..68)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let counts: Vec<i32> = (0..10 * 2048).map(|_| rng.gen_range(-50..50)).collect();
            PackedHdModel::from_counts(counts, 10, 2048).unwrap()
        })
        .collect();
    pin("hdc.bundle_packed", 2, 84_480, || {
        black_box(PackedHdModel::bundle(&packed).unwrap());
    });

    let packetizer = Packetizer::new(256).unwrap();
    let lossy = PacketLossChannel::new(0.1, 256 * 32).unwrap();
    let payload = random_tensor(&[4096], 30);
    let mut rng = StdRng::seed_from_u64(31);
    pin("channel.transport", 66, 82_560, || {
        black_box(transport_through(
            &packetizer,
            payload.as_slice(),
            &lossy,
            &mut rng,
        ));
    });
}
