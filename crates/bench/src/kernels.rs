//! Registered microbenches for the hot kernels and full federated rounds.
//!
//! Two registries back the two tracked baselines: [`kernel_benches`]
//! (tensor/hdc/channel/federated primitives → `BENCH_kernels.json`) and
//! [`round_benches`] (one `HdFederation::run_round` per transport →
//! `BENCH_rounds.json`). Every bench is seeded, so the *work* is
//! identical across runs and only the wall time varies.

use fhdnn::channel::packet::PacketLossChannel;
use fhdnn::channel::packetizer::{transport_through, Packetizer};
use fhdnn::datasets::features::FeatureSpec;
use fhdnn::datasets::partition::Partition;
use fhdnn::federated::config::{FlConfig, HdExecution};
use fhdnn::federated::fedhd::{HdClientData, HdFederation, HdTransport};
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::health::{class_geometry, cosine_distances};
use fhdnn::hdc::model::HdModel;
use fhdnn::hdc::packed::{pack_signs, pack_signs_i32, reference::ReferenceHdModel, PackedHdModel};
use fhdnn::hdc::quantizer::quantize;
use fhdnn::nn::conv::{Conv2d, ConvGeometry};
use fhdnn::nn::{Layer, Mode};
use fhdnn::telemetry::Recorder;
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::micro::{black_box, run_bench, BenchConfig, BenchResult};

/// A named bench: `run` measures it under the given plan.
pub struct Bench {
    /// Stable identifier used in `BENCH_*.json` and `--filter`.
    pub name: &'static str,
    /// Executes the bench and returns its summary.
    pub run: fn(&BenchConfig) -> BenchResult,
}

/// Kernel-level benches, in reporting order.
pub fn kernel_benches() -> Vec<Bench> {
    vec![
        Bench {
            name: "tensor.matmul",
            run: bench_matmul,
        },
        Bench {
            name: "tensor.conv2d",
            run: bench_conv2d,
        },
        Bench {
            name: "tensor.conv2d_bwd",
            run: bench_conv2d_bwd,
        },
        Bench {
            name: "hdc.encode",
            run: bench_hdc_encode,
        },
        Bench {
            name: "hdc.bundle",
            run: bench_hdc_bundle,
        },
        Bench {
            name: "hdc.quantize",
            run: bench_hdc_quantize,
        },
        Bench {
            name: "hdc.health",
            run: bench_hdc_health,
        },
        Bench {
            name: "hdc.refine",
            run: bench_hdc_refine,
        },
        Bench {
            name: "hdc.refine_churn",
            run: bench_hdc_refine_churn,
        },
        Bench {
            name: "hdc.pack",
            run: bench_hdc_pack,
        },
        Bench {
            name: "hdc.similarity_i32",
            run: bench_similarity_i32,
        },
        Bench {
            name: "hdc.similarity_packed",
            run: bench_similarity_packed,
        },
        Bench {
            name: "hdc.bundle_packed",
            run: bench_bundle_packed,
        },
        Bench {
            name: "channel.transport",
            run: bench_channel_transport,
        },
        Bench {
            name: "federated.aggregate",
            run: bench_federated_aggregate,
        },
    ]
}

/// Round-level benches (one full `run_round` per iteration).
pub fn round_benches() -> Vec<Bench> {
    vec![
        Bench {
            name: "round.fedhd_float",
            run: bench_round_float,
        },
        Bench {
            name: "round.fedhd_quantized",
            run: bench_round_quantized,
        },
        Bench {
            name: "round.fedhd_binary",
            run: bench_round_binary,
        },
        Bench {
            name: "round.fedhd_binary_reference",
            run: bench_round_binary_reference,
        },
        Bench {
            name: "round.fedhd_parallel",
            run: bench_round_parallel,
        },
        Bench {
            name: "round.fedhd_traced",
            run: bench_round_traced,
        },
        Bench {
            name: "round.fedhd_fleet",
            run: bench_round_fleet,
        },
    ]
}

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    let len: usize = dims.iter().product();
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(data, dims).expect("bench tensor shape")
}

fn random_model(num_classes: usize, dim: usize, seed: u64) -> HdModel {
    HdModel::from_prototypes(random_tensor(&[num_classes, dim], seed)).expect("bench model")
}

fn bench_matmul(cfg: &BenchConfig) -> BenchResult {
    let a = random_tensor(&[64, 64], 1);
    let b = random_tensor(&[64, 64], 2);
    // 64³ multiply-adds per iteration.
    run_bench("tensor.matmul", cfg, 200, (64 * 64 * 64) as f64, || {
        black_box(a.matmul(&b).expect("matmul"));
    })
}

fn bench_conv2d(cfg: &BenchConfig) -> BenchResult {
    let mut rng = StdRng::seed_from_u64(3);
    let geom = ConvGeometry {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut conv = Conv2d::new(8, 16, geom, &mut rng).expect("conv");
    let input = random_tensor(&[4, 8, 16, 16], 4);
    run_bench("tensor.conv2d", cfg, 50, 4.0, || {
        black_box(conv.forward(&input, Mode::Eval).expect("conv forward"));
    })
}

/// A training step's share of one layer: `resnet_lite`'s 8 -> 8 3x3
/// convolution at 16x16 on a local batch of 10, forward in training mode
/// (which keeps the columns) and backward.
fn bench_conv2d_bwd(cfg: &BenchConfig) -> BenchResult {
    let mut rng = StdRng::seed_from_u64(3);
    let geom = ConvGeometry {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut conv = Conv2d::new(8, 8, geom, &mut rng).expect("conv");
    let input = random_tensor(&[10, 8, 16, 16], 4);
    let grad = random_tensor(&[10, 8, 16, 16], 5);
    run_bench("tensor.conv2d_bwd", cfg, 50, 10.0, || {
        black_box(conv.forward(&input, Mode::Train).expect("conv forward"));
        black_box(conv.backward(&grad).expect("conv backward"));
    })
}

fn bench_hdc_encode(cfg: &BenchConfig) -> BenchResult {
    let enc = RandomProjectionEncoder::new(2048, 64, 5).expect("encoder");
    let batch = random_tensor(&[32, 64], 6);
    run_bench("hdc.encode", cfg, 50, 32.0, || {
        black_box(enc.encode_batch(&batch).expect("encode"));
    })
}

fn bench_hdc_bundle(cfg: &BenchConfig) -> BenchResult {
    let models: Vec<HdModel> = (0..8).map(|i| random_model(10, 2048, 10 + i)).collect();
    run_bench("hdc.bundle", cfg, 100, 8.0, || {
        black_box(HdModel::bundle(&models).expect("bundle"));
    })
}

fn bench_hdc_quantize(cfg: &BenchConfig) -> BenchResult {
    let model = random_model(10, 2048, 20);
    run_bench("hdc.quantize", cfg, 200, (10 * 2048) as f64, || {
        black_box(quantize(&model, 4).expect("quantize"));
    })
}

fn bench_hdc_health(cfg: &BenchConfig) -> BenchResult {
    // A recorded round's diagnostics at the wide binary workload's shape:
    // norms and margin of a 26-class model at d = 10 000, then six client
    // deltas scored against the aggregate delta.
    const CLASSES: usize = 26;
    const DIM: usize = 10_000;
    let model = random_model(CLASSES, DIM, 21);
    let aggregate = random_tensor(&[CLASSES * DIM], 22);
    let deltas: Vec<Vec<f32>> = (0..6)
        .map(|client| random_tensor(&[CLASSES * DIM], 23 + client).into_vec())
        .collect();
    run_bench("hdc.health", cfg, 20, (CLASSES * DIM) as f64, || {
        black_box(class_geometry(&model));
        black_box(cosine_distances(&deltas, aggregate.as_slice()));
    })
}

/// Shared fixture for the refine pair, at the campaign's dense shape:
/// 256 bipolar samples at d = 4096 and the 10-class model one-shot
/// trained on them.
fn refine_fixture() -> (HdModel, Tensor, Vec<usize>) {
    const CLASSES: usize = 10;
    const DIM: usize = 4096;
    const SAMPLES: usize = 256;
    let mut rng = StdRng::seed_from_u64(70);
    let values: Vec<f32> = (0..SAMPLES * DIM)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let samples = Tensor::from_vec(values, &[SAMPLES, DIM]).expect("refine samples");
    let labels: Vec<usize> = (0..SAMPLES).map(|_| rng.gen_range(0..CLASSES)).collect();
    let mut model = HdModel::new(CLASSES, DIM).expect("refine model");
    model.one_shot_train(&samples, &labels).expect("one-shot");
    (model, samples, labels)
}

/// For each sample in turn, the class after the one a refine epoch from
/// `start` predicts on reaching it: with these labels every visit
/// updates two prototypes and everything scored ahead of it has to be
/// scored again.
fn wrong_labels(start: &HdModel, samples: &Tensor) -> Vec<usize> {
    let mut walk = start.clone();
    (0..samples.dims()[0])
        .map(|i| {
            let row = samples.row(i).expect("row").to_vec();
            let one = Tensor::from_vec(row, &[1, start.dim()]).expect("one sample");
            let predicted = walk.predict_batch(&one).expect("predict")[0];
            let label = (predicted + 1) % start.num_classes();
            walk.refine_epoch(&one, &[label]).expect("walk");
            label
        })
        .collect()
}

fn bench_hdc_refine(cfg: &BenchConfig) -> BenchResult {
    // The common case: a converged model, every visit a correct
    // prediction, no update.
    let (mut model, samples, labels) = refine_fixture();
    run_bench("hdc.refine", cfg, 10, labels.len() as f64, || {
        black_box(model.refine_epoch(&samples, &labels).expect("refine"));
    })
}

fn bench_hdc_refine_churn(cfg: &BenchConfig) -> BenchResult {
    // The worst case: every visit mispredicts.
    let (start, samples, _) = refine_fixture();
    let wrong = wrong_labels(&start, &samples);
    run_bench("hdc.refine_churn", cfg, 10, wrong.len() as f64, || {
        let mut model = start.clone();
        black_box(model.refine_epoch(&samples, &wrong).expect("refine"));
    })
}

fn bench_hdc_pack(cfg: &BenchConfig) -> BenchResult {
    let values = random_tensor(&[1, 10_000], 50);
    run_bench("hdc.pack", cfg, 200, 10_000.0, || {
        black_box(pack_signs(values.as_slice()));
    })
}

/// Shared fixture for the similarity pair: the same seeded prototype
/// counts and the same ±1 query, once packed and once plain `i32`, so
/// the two benches measure identical work and their ratio is the packed
/// speedup the acceptance gate tracks.
fn similarity_fixture() -> (PackedHdModel, ReferenceHdModel, Vec<u64>, Vec<i32>) {
    const CLASSES: usize = 10;
    const DIM: usize = 10_000;
    let mut rng = StdRng::seed_from_u64(51);
    let counts: Vec<i32> = (0..CLASSES * DIM).map(|_| rng.gen_range(-50..50)).collect();
    let query: Vec<i32> = (0..DIM)
        .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
        .collect();
    let packed = PackedHdModel::from_counts(counts.clone(), CLASSES, DIM).expect("packed model");
    let reference = ReferenceHdModel {
        protos: counts,
        num_classes: CLASSES,
        dim: DIM,
    };
    let packed_query = pack_signs_i32(&query);
    (packed, reference, packed_query, query)
}

fn bench_similarity_i32(cfg: &BenchConfig) -> BenchResult {
    let (_, reference, _, query) = similarity_fixture();
    run_bench("hdc.similarity_i32", cfg, 20, (10 * 10_000) as f64, || {
        black_box(reference.predict(&query));
    })
}

fn bench_similarity_packed(cfg: &BenchConfig) -> BenchResult {
    let (packed, _, packed_query, _) = similarity_fixture();
    run_bench(
        "hdc.similarity_packed",
        cfg,
        200,
        (10 * 10_000) as f64,
        || {
            black_box(packed.predict_packed(&packed_query));
        },
    )
}

fn bench_bundle_packed(cfg: &BenchConfig) -> BenchResult {
    let models: Vec<PackedHdModel> = (0..8)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(60 + i);
            let counts: Vec<i32> = (0..10 * 2048).map(|_| rng.gen_range(-50..50)).collect();
            PackedHdModel::from_counts(counts, 10, 2048).expect("packed model")
        })
        .collect();
    run_bench("hdc.bundle_packed", cfg, 100, 8.0, || {
        black_box(PackedHdModel::bundle(&models).expect("bundle"));
    })
}

fn bench_channel_transport(cfg: &BenchConfig) -> BenchResult {
    let packetizer = Packetizer::new(256).expect("packetizer");
    let channel = PacketLossChannel::new(0.1, 256 * 32).expect("channel");
    let payload: Vec<f32> = {
        let mut rng = StdRng::seed_from_u64(30);
        (0..4096).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    };
    let mut rng = StdRng::seed_from_u64(31);
    run_bench("channel.transport", cfg, 100, 4096.0, || {
        black_box(transport_through(&packetizer, &payload, &channel, &mut rng));
    })
}

fn bench_federated_aggregate(cfg: &BenchConfig) -> BenchResult {
    // Mirrors `run_round`'s aggregate stage: bundle the received client
    // models, then normalize by the participant count.
    let received: Vec<HdModel> = (0..10).map(|i| random_model(10, 2048, 40 + i)).collect();
    let n = received.len() as f32;
    run_bench("federated.aggregate", cfg, 100, 10.0, || {
        let mut bundled = HdModel::bundle(&received).expect("aggregate");
        bundled.scale(1.0 / n);
        black_box(bundled);
    })
}

/// Small seeded federation shared by the round benches (mirrors the
/// telemetry integration fixture).
fn build_federation(transport: HdTransport) -> (HdFederation, HdClientData) {
    build_federation_exec(transport, HdExecution::Packed)
}

/// [`build_federation`] with an explicit binary-engine selection, so the
/// round benches can pit the packed hot path against the reference
/// oracle on identical data.
fn build_federation_exec(
    transport: HdTransport,
    execution: HdExecution,
) -> (HdFederation, HdClientData) {
    const DIM: usize = 1024;
    const NUM_CLIENTS: usize = 4;
    let spec = FeatureSpec {
        num_classes: 5,
        width: 40,
        noise_std: 0.6,
        class_seed: 11,
    };
    let train = spec.generate(NUM_CLIENTS * 25, 0).expect("train set");
    let test = spec.generate(60, 1).expect("test set");
    let enc = RandomProjectionEncoder::new(DIM, 40, 3).expect("encoder");
    let h_train = enc.encode_batch(&train.features).expect("train encode");
    let h_test = enc.encode_batch(&test.features).expect("test encode");
    let mut rng = StdRng::seed_from_u64(0);
    let parts = Partition::Iid
        .split(&train.labels, NUM_CLIENTS, &mut rng)
        .expect("partition");
    let clients: Vec<HdClientData> = parts
        .iter()
        .map(|idx| {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for &i in idx {
                data.extend_from_slice(h_train.row(i).expect("row"));
                labels.push(train.labels[i]);
            }
            HdClientData {
                hypervectors: Tensor::from_vec(data, &[idx.len(), DIM]).expect("client tensor"),
                labels,
            }
        })
        .collect();
    let config = FlConfig {
        num_clients: NUM_CLIENTS,
        rounds: 1,
        local_epochs: 1,
        batch_size: 10,
        client_fraction: 0.5,
        seed: 7,
        execution,
    };
    let global = HdModel::new(5, DIM).expect("global model");
    let fed = HdFederation::new(global, clients, config, transport).expect("federation");
    let test_data = HdClientData {
        hypervectors: h_test,
        labels: test.labels,
    };
    (fed, test_data)
}

fn bench_round(name: &'static str, transport: HdTransport, cfg: &BenchConfig) -> BenchResult {
    let (mut fed, test) = build_federation(transport);
    let channel = PacketLossChannel::new(0.1, 256).expect("channel");
    run_bench(name, cfg, 10, 1.0, || {
        black_box(fed.run_round(&channel, &test).expect("round"));
    })
}

fn bench_round_float(cfg: &BenchConfig) -> BenchResult {
    bench_round("round.fedhd_float", HdTransport::Float, cfg)
}

fn bench_round_quantized(cfg: &BenchConfig) -> BenchResult {
    bench_round(
        "round.fedhd_quantized",
        HdTransport::Quantized { bitwidth: 8 },
        cfg,
    )
}

fn bench_round_binary(cfg: &BenchConfig) -> BenchResult {
    bench_round("round.fedhd_binary", HdTransport::Binary, cfg)
}

fn bench_round_binary_reference(cfg: &BenchConfig) -> BenchResult {
    // The differential oracle on the same data and seeds: the measured
    // gap against `round.fedhd_binary` is the packed + SIMD speedup.
    let (mut fed, test) = build_federation_exec(HdTransport::Binary, HdExecution::Reference);
    let channel = PacketLossChannel::new(0.1, 256).expect("channel");
    run_bench("round.fedhd_binary_reference", cfg, 10, 1.0, || {
        black_box(fed.run_round(&channel, &test).expect("round"));
    })
}

fn bench_round_parallel(cfg: &BenchConfig) -> BenchResult {
    // The same quantized round on the auto-sized pool: the measured gap
    // against `round.fedhd_quantized` is the parallel engine's speedup
    // (results are byte-identical by construction, so only time differs).
    let (mut fed, test) = build_federation(HdTransport::Quantized { bitwidth: 8 });
    fed.set_threads(0);
    let channel = PacketLossChannel::new(0.1, 256).expect("channel");
    run_bench("round.fedhd_parallel", cfg, 10, 1.0, || {
        black_box(fed.run_round(&channel, &test).expect("round"));
    })
}

fn bench_round_traced(cfg: &BenchConfig) -> BenchResult {
    // The same quantized round with an enabled recorder, so every task
    // pays the execution tracer (clock stamps, trace.task events, the
    // critical-path summary): the measured gap against
    // `round.fedhd_quantized` is the tracing-overhead budget the
    // baseline check enforces.
    let (mut fed, test) = build_federation(HdTransport::Quantized { bitwidth: 8 });
    fed.set_telemetry(Recorder::in_memory());
    let channel = PacketLossChannel::new(0.1, 256).expect("channel");
    run_bench("round.fedhd_traced", cfg, 10, 1.0, || {
        black_box(fed.run_round(&channel, &test).expect("round"));
    })
}

fn bench_round_fleet(cfg: &BenchConfig) -> BenchResult {
    // The traced round in fleet-telemetry mode: per-client emission is
    // suppressed and every client is instead absorbed into the round
    // sketches (quantile buckets, distinct registers, top-k exemplars).
    // The measured gap against `round.fedhd_traced` is the sketch-absorb
    // overhead budget the baseline check enforces.
    let (mut fed, test) = build_federation(HdTransport::Quantized { bitwidth: 8 });
    fed.set_telemetry(Recorder::in_memory());
    fed.set_fleet_telemetry(true);
    let channel = PacketLossChannel::new(0.1, 256).expect("channel");
    run_bench("round.fedhd_fleet", cfg, 10, 1.0, || {
        black_box(fed.run_round(&channel, &test).expect("round"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_have_unique_stable_names() {
        let mut names: Vec<&str> = kernel_benches()
            .iter()
            .chain(round_benches().iter())
            .map(|b| b.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate bench names");
        assert!(names.contains(&"tensor.matmul"));
        assert!(names.contains(&"round.fedhd_float"));
    }

    #[test]
    fn refine_fixtures_sit_at_the_two_ends() {
        let (mut model, samples, labels) = refine_fixture();
        let wrong = wrong_labels(&model, &samples);
        let mut churned = model.clone();
        assert_eq!(churned.refine_epoch(&samples, &wrong).unwrap(), wrong.len());
        assert_eq!(model.refine_epoch(&samples, &labels).unwrap(), 0);
    }

    #[test]
    fn smoke_run_of_every_kernel_bench_produces_sane_results() {
        let mut cfg = BenchConfig::smoke();
        cfg.iter_scale = 0.001; // keep unit tests fast
        for b in kernel_benches() {
            let r = (b.run)(&cfg);
            assert_eq!(r.name, b.name);
            assert!(r.ns_per_iter > 0.0, "{} measured nothing", b.name);
            assert!(r.throughput > 0.0, "{}", b.name);
        }
    }

    #[test]
    fn smoke_run_of_one_round_bench() {
        let mut cfg = BenchConfig::smoke();
        cfg.iter_scale = 0.001;
        cfg.samples = 1;
        let r = (round_benches()[0].run)(&cfg);
        assert_eq!(r.name, "round.fedhd_float");
        assert!(r.ns_per_iter > 0.0);
    }
}
