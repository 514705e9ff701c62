//! The traced run: one campaign with the build taken apart into its
//! public pieces, the same campaign again under each telemetry mode and
//! at two threads, a replay of the round's stages on the trained model,
//! and single-call timings of each layer at the workload's own shapes.
//! Everything here is a call into a `pub` item; spans inside the
//! program are a later change.

use std::collections::BTreeMap;
use std::time::Instant;

use fhdnn::channel::{Channel, ChannelStats};
use fhdnn::datasets::image::ImageDataset;
use fhdnn::federated::fedavg::LocalSgdConfig;
use fhdnn::federated::fedhd::{HdClientData, HdTransport};
use fhdnn::federated::sampling::sample_clients;
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::model::HdModel;
use fhdnn::hdc::packed::{words_for, PackedBatch, PackedHdModel};
use fhdnn::hdc::quantizer::{dequantize, quantize};
use fhdnn::nn::conv::{Conv2d, ConvGeometry};
use fhdnn::nn::layer::{Layer, Mode as NnMode};
use fhdnn::nn::loss::cross_entropy;
use fhdnn::nn::network::Network;
use fhdnn::nn::optim::Sgd;
use fhdnn::telemetry::mem;
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::campaign::{
    self, build_seconds, campaign, err, realised_damage_ratio, setup, verify, Encoded, Inputs,
    Mode, Observe, Rep, EXTRACT_CHUNK,
};
use crate::ledger::{Ledger, Stage};
use crate::spec::{Link, Pipeline, WorkloadSpec, MODEL_SEED};
use crate::stats::{median, quantile};

/// Rounds whose stages the replay re-executes.
const REPLAY_ROUNDS: usize = 10;
/// Repetitions of each single-call timing; the median is reported.
const MICRO_REPS: usize = 5;
/// `federated.round_ms_p90` needs this many round samples.
const P90_MIN_SAMPLES: usize = 100;

/// Per-layer values by metric name; a name never set reads 0.
pub type Layers = BTreeMap<&'static str, f64>;

pub struct Traced {
    pub layers: Layers,
    pub ledger: Ledger,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(body());
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of `MICRO_REPS` runs of `body`.
fn micro<T>(mut body: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let (out, secs) = timed(&mut body);
        out?;
        samples.push(secs);
    }
    Ok(median(&samples))
}

/// Bytes the allocator handed out during `body`.
fn alloc_bytes<T>(body: impl FnOnce() -> T) -> (T, u64) {
    let before = mem::stats().alloc_bytes;
    let out = std::hint::black_box(body());
    (out, mem::stats().alloc_bytes - before)
}

fn rounds_per_s(w: &WorkloadSpec, ledger: &Ledger) -> f64 {
    w.rounds as f64 / ledger.total(Stage::Rounds)
}

/// Median over the replayed rounds of what `stage` cost per round.
fn median_ms(ledger: &Ledger, stage: Stage) -> f64 {
    median(&ledger.child_totals(Stage::ReplayRound, stage)) * 1e3
}

pub fn traced(w: &WorkloadSpec, seed: u64) -> Result<Traced, String> {
    let mut ledger = Ledger::new(seed);
    let mut inputs = setup(w, seed, &mut ledger)?;
    let mode = |observe, threads| Mode {
        observe,
        threads,
        decomposed: true,
    };
    let base = campaign(w, seed, &mut inputs, mode(Observe::Off, 1), &mut ledger)?;
    // The other three campaigns only contribute their round loops, so
    // their spans stay out of the trace file.
    let mut side = |observe, threads| {
        let mut side_ledger = Ledger::new(seed);
        let rep = campaign(
            w,
            seed,
            &mut inputs,
            mode(observe, threads),
            &mut side_ledger,
        )?;
        Ok::<_, String>((rounds_per_s(w, &side_ledger), rep))
    };
    let (recorded_rate, recorded) = side(Observe::Recorded, 1)?;
    let (fleet_rate, fleet) = side(Observe::Fleet, 1)?;
    let (two_thread_rate, two_threads) = side(Observe::Off, 2)?;

    let signature = base.signature();
    let mut problems = Vec::new();
    let mut failed = 0;
    let ops = w.rounds as u64 + 2;
    for (label, rep) in [
        ("traced", &base),
        ("recorded", &recorded),
        ("fleet", &fleet),
        ("two-thread", &two_threads),
    ] {
        let wrong = verify(w, rep, &signature);
        if !wrong.is_empty() {
            failed += ops;
            problems.extend(wrong.into_iter().map(|p| format!("{label} campaign: {p}")));
        }
    }

    let mut m = Layers::new();
    let base_rate = rounds_per_s(w, &ledger);
    let round_ms: Vec<f64> = ledger
        .seconds(Stage::RunRound)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    if round_ms.len() >= P90_MIN_SAMPLES {
        m.insert("federated.round_ms_p90", quantile(&round_ms, 0.9));
    }
    let allocs: Vec<f64> = base.round_allocs.iter().map(|a| a.0 as f64).collect();
    let bytes: Vec<f64> = base.round_allocs.iter().map(|a| a.1 as f64).collect();
    m.insert("federated.allocs_per_round", median(&allocs));
    m.insert("federated.alloc_bytes_per_round", median(&bytes));
    m.insert("federated.pool_speedup_t2", two_thread_rate / base_rate);
    m.insert("telemetry.recorded_ratio", base_rate / recorded_rate);
    m.insert("telemetry.fleet_ratio", base_rate / fleet_rate);
    m.insert(
        "telemetry.events_per_round",
        recorded.events as f64 / w.rounds as f64,
    );
    let recorded_allocs: Vec<f64> = recorded.round_allocs.iter().map(|a| a.0 as f64).collect();
    m.insert(
        "telemetry.allocs_per_round_recorded",
        median(&recorded_allocs),
    );

    let generated = (w.train_size() + w.test_size) as f64;
    let generate_us = ledger.total(Stage::DatasetsGenerate) * 1e6 / generated;
    match w.pipeline {
        Pipeline::Features { .. } => m.insert("datasets.feature_gen_us_per_sample", generate_us),
        _ => m.insert("datasets.image_gen_us_per_image", generate_us),
    };
    m.insert(
        "datasets.partition_us",
        ledger.total(Stage::DatasetsPartition) * 1e6,
    );
    let evaluate = ledger.seconds(Stage::Evaluate);
    m.insert(
        "fhdnn.evaluate_ms",
        evaluate.last().copied().unwrap_or(0.0) * 1e3,
    );
    if let Some(ratio) = realised_damage_ratio(w, &base) {
        match w.link {
            Link::BitError { .. } => m.insert("channel.biterr_realised_ratio", ratio),
            _ => m.insert("channel.pktloss_realised_ratio", ratio),
        };
    }

    let channel = w.link.channel()?;
    ledger.scope(Stage::Replay, |l| match (&mut inputs, w.pipeline) {
        (
            Inputs::Image {
                test,
                extractor,
                encoded: Some(encoded),
                ..
            },
            Pipeline::Image {
                hd_dim, transport, ..
            },
        ) => {
            let images = test
                .images
                .slice_first_axis(0, EXTRACT_CHUNK.min(test.len()))
                .map_err(err("slice"))?;
            let features = extractor.extract(&images).map_err(err("extract"))?;
            let per_chunk = micro(|| extractor.extract(&images).map_err(err("extract")))?;
            m.insert(
                "nn.trunk_fwd_us_per_image",
                per_chunk * 1e6 / images.dims()[0] as f64,
            );
            conv_stem(&images, &mut m)?;
            let extract_s = l.total(Stage::FhdnnExtract);
            m.insert("fhdnn.extract_s", extract_s);
            m.insert("fhdnn.extract_images_per_s", generated / extract_s);
            hd_layers(
                w,
                seed,
                &base,
                encoded,
                &features,
                hd_dim,
                transport,
                channel.as_ref(),
                l,
                &mut m,
            )
        }
        (
            Inputs::Features {
                test,
                encoded: Some(encoded),
                ..
            },
            Pipeline::Features {
                hd_dim, transport, ..
            },
        ) => {
            let features = test
                .features
                .slice_first_axis(0, EXTRACT_CHUNK.min(test.len()))
                .map_err(err("slice"))?;
            hd_layers(
                w,
                seed,
                &base,
                encoded,
                &features,
                hd_dim,
                transport,
                channel.as_ref(),
                l,
                &mut m,
            )
        }
        (Inputs::FedAvg { clients, test, net }, Pipeline::FedAvg { .. }) => {
            fedavg_layers(w, clients, test, net, channel.as_ref(), l, &mut m)
        }
        _ => Err("the traced campaign left no encodings to replay".to_string()),
    })?;

    let stages: f64 = [
        "federated.stage_broadcast_ms",
        "federated.stage_local_train_ms",
        "federated.stage_transmit_ms",
        "federated.stage_aggregate_ms",
        "federated.stage_eval_ms",
    ]
    .iter()
    .map(|name| m.get(name).copied().unwrap_or(0.0))
    .sum();
    m.insert(
        "federated.round_self_share",
        1.0 - stages / median(&round_ms),
    );

    Ok(Traced {
        layers: m,
        ledger,
        attempted: 4 * ops,
        failed,
        problems,
    })
}

/// `nn.conv2d_*`: the stem convolution's forward on one extractor chunk.
fn conv_stem(images: &Tensor, m: &mut Layers) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let geometry = ConvGeometry {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let width = campaign::backbone(images.dims()[1]).base_width;
    let mut conv = Conv2d::new(images.dims()[1], width, geometry, &mut rng).map_err(err("conv"))?;
    let (out, scratch) = alloc_bytes(|| conv.forward(images, NnMode::Eval));
    out.map_err(err("conv forward"))?;
    m.insert("nn.conv2d_scratch_bytes", scratch as f64);
    let secs = micro(|| {
        conv.forward(images, NnMode::Eval)
            .map_err(err("conv forward"))
    })?;
    m.insert("nn.conv2d_fwd_us", secs * 1e6);
    Ok(())
}

/// The HD pipelines' per-layer numbers: build shares from the traced
/// campaign's spans, single-call timings, and the stage replay.
#[allow(clippy::too_many_arguments)]
fn hd_layers(
    w: &WorkloadSpec,
    seed: u64,
    base: &Rep,
    encoded: &Encoded,
    features: &Tensor,
    hd_dim: usize,
    transport: HdTransport,
    channel: &dyn Channel,
    ledger: &mut Ledger,
    m: &mut Layers,
) -> Result<(), String> {
    let samples = (w.train_size() + w.test_size) as f64;
    let build_s = build_seconds(ledger);
    // What `build` spent outside its extract, encoder, encode and
    // federation-construction children.
    m.insert(
        "fhdnn.build_residual_share",
        ledger.self_total(Stage::Build) / build_s,
    );
    m.insert(
        "hdc.encode_us_per_sample",
        ledger.total(Stage::HdcEncode) * 1e6 / samples,
    );

    let width = features.dims()[1];
    let encoder =
        RandomProjectionEncoder::new(hd_dim, width, MODEL_SEED).map_err(err("encoder"))?;
    let (out, bytes) = alloc_bytes(|| features.matmul_nt(encoder.phi()));
    out.map_err(err("matmul"))?;
    m.insert("tensor.matmul_alloc_bytes", bytes as f64);
    let secs = micro(|| features.matmul_nt(encoder.phi()).map_err(err("matmul")))?;
    let macs = (features.dims()[0] * width * hd_dim) as f64;
    m.insert("tensor.matmul_gmacs", macs / secs / 1e9);
    let (out, bytes) = alloc_bytes(|| encoder.encode_batch(features));
    out.map_err(err("encode"))?;
    m.insert(
        "hdc.encode_alloc_bytes_per_sample",
        bytes as f64 / features.dims()[0] as f64,
    );

    let global = base
        .fleet
        .hd_global()
        .ok_or("the traced campaign has no HD model")?;
    let first = &encoded.clients[0];
    let first_len = first.labels.len() as f64;
    match transport {
        HdTransport::Binary => {
            let (batch, secs) = timed(|| PackedBatch::from_tensor(&encoded.test.hypervectors));
            batch.map_err(err("pack"))?;
            m.insert(
                "hdc.pack_us_per_sample",
                secs * 1e6 / encoded.test.labels.len() as f64,
            );
            let batch = PackedBatch::from_tensor(&first.hypervectors).map_err(err("pack"))?;
            let secs = micro(|| {
                let mut fresh =
                    PackedHdModel::new(global.num_classes(), hd_dim).map_err(err("model"))?;
                fresh
                    .one_shot_train(&batch, &first.labels)
                    .map_err(err("one-shot"))
            })?;
            m.insert("hdc.one_shot_us_per_sample", secs * 1e6 / first_len);
            replay_binary(w, seed, global, encoded, channel, ledger, m)
        }
        HdTransport::Float | HdTransport::Quantized { .. } => {
            let secs = micro(|| {
                let mut fresh = HdModel::new(global.num_classes(), hd_dim).map_err(err("model"))?;
                fresh
                    .one_shot_train(&first.hypervectors, &first.labels)
                    .map_err(err("one-shot"))
            })?;
            m.insert("hdc.one_shot_us_per_sample", secs * 1e6 / first_len);
            replay_dense(w, seed, global, encoded, transport, channel, ledger, m)
        }
    }
}

fn stage_medians(ledger: &Ledger, m: &mut Layers) {
    m.insert(
        "federated.sample_clients_us",
        median_ms(ledger, Stage::ReplaySample) * 1e3,
    );
    m.insert(
        "federated.stage_broadcast_ms",
        median_ms(ledger, Stage::ReplayBroadcast),
    );
    m.insert(
        "federated.stage_local_train_ms",
        median_ms(ledger, Stage::ReplayLocalTrain),
    );
    m.insert(
        "federated.stage_transmit_ms",
        median_ms(ledger, Stage::ReplayTransmit),
    );
    m.insert(
        "federated.stage_aggregate_ms",
        median_ms(ledger, Stage::ReplayAggregate),
    );
    m.insert(
        "federated.stage_eval_ms",
        median_ms(ledger, Stage::ReplayEval),
    );
}

/// Replays the float and quantized round: sample, broadcast clone,
/// refine, (quantize,) transmit, (dequantize,) bundle, evaluate.
#[allow(clippy::too_many_arguments)]
fn replay_dense(
    w: &WorkloadSpec,
    seed: u64,
    global: &HdModel,
    encoded: &Encoded,
    transport: HdTransport,
    channel: &dyn Channel,
    ledger: &mut Ledger,
    m: &mut Layers,
) -> Result<(), String> {
    let config = w.fl_config(seed);
    let participants = config.participants_per_round();
    let mut rng = StdRng::seed_from_u64(seed);
    let stats = ChannelStats::new();
    let (mut visited, mut updates) = (0usize, 0usize);
    let (mut quantize_s, mut dequantize_s, mut channel_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAY_ROUNDS {
        ledger.scope(Stage::ReplayRound, |l| {
            let ids = l
                .scope(Stage::ReplaySample, |_| {
                    sample_clients(config.num_clients, participants, &mut rng)
                })
                .map_err(err("sample"))?;
            // One participant at a time, as a round's worker does:
            // clone, refine, transmit, then on to the next.
            let mut received = Vec::with_capacity(ids.len());
            for &id in &ids {
                let data: &HdClientData = &encoded.clients[id];
                let mut local = l.scope(Stage::ReplayBroadcast, |_| global.clone());
                l.scope(Stage::ReplayLocalTrain, |_| {
                    for _ in 0..config.local_epochs {
                        updates += local
                            .refine_epoch(&data.hypervectors, &data.labels)
                            .map_err(err("refine"))?;
                        visited += data.labels.len();
                    }
                    Ok::<_, String>(())
                })?;
                l.scope(Stage::ReplayTransmit, |_| {
                    match transport {
                        HdTransport::Quantized { bitwidth } => {
                            let (q, secs) = timed(|| quantize(&local, bitwidth));
                            let mut q = q.map_err(err("quantize"))?;
                            quantize_s.push(secs);
                            let ((), secs) = timed(|| {
                                channel.transmit_words_stats(
                                    &mut q.words,
                                    bitwidth,
                                    &mut rng,
                                    &stats,
                                )
                            });
                            channel_s.push(secs);
                            let (back, secs) = timed(|| dequantize(&q));
                            local = back.map_err(err("dequantize"))?;
                            dequantize_s.push(secs);
                        }
                        _ => {
                            let payload = local.prototypes_mut().as_mut_slice();
                            let ((), secs) =
                                timed(|| channel.transmit_f32_stats(payload, &mut rng, &stats));
                            channel_s.push(secs);
                        }
                    }
                    Ok::<_, String>(())
                })?;
                received.push(local);
            }
            let bundled = l.scope(Stage::ReplayAggregate, |_| {
                let mut bundled = HdModel::bundle(&received).map_err(err("bundle"))?;
                bundled.scale(1.0 / received.len() as f32);
                Ok::<_, String>(bundled)
            })?;
            l.scope(Stage::ReplayEval, |_| {
                bundled.accuracy(&encoded.test.hypervectors, &encoded.test.labels)
            })
            .map_err(err("accuracy"))?;
            Ok::<_, String>(())
        })?;
    }
    stage_medians(ledger, m);
    let per_round = participants as f64;
    m.insert(
        "hdc.refine_us_per_sample",
        ledger.total(Stage::ReplayLocalTrain) * 1e6 / visited as f64,
    );
    m.insert("hdc.refine_updates_share", updates as f64 / visited as f64);
    m.insert("hdc.quantize_us", median(&quantize_s) * 1e6);
    m.insert("hdc.dequantize_us", median(&dequantize_s) * 1e6);
    m.insert(
        "hdc.bundle_us_per_model",
        median_ms(ledger, Stage::ReplayAggregate) * 1e3 / per_round,
    );
    m.insert(
        "hdc.predict_us_per_sample",
        median_ms(ledger, Stage::ReplayEval) * 1e3 / encoded.test.labels.len() as f64,
    );
    let ns_per_symbol = median(&channel_s) * 1e9 / global.num_params() as f64;
    match transport {
        HdTransport::Quantized { .. } => {
            m.insert("channel.words_biterr_ns_per_symbol", ns_per_symbol)
        }
        _ => m.insert("channel.f32_pktloss_ns_per_symbol", ns_per_symbol),
    };
    Ok(())
}

/// Replays the binary round on the packed engine: integer broadcast,
/// packed refine, per-class packed transmit, majority vote, packed
/// evaluate (which, as in the program, packs the test set each round).
fn replay_binary(
    w: &WorkloadSpec,
    seed: u64,
    global: &HdModel,
    encoded: &Encoded,
    channel: &dyn Channel,
    ledger: &mut Ledger,
    m: &mut Layers,
) -> Result<(), String> {
    let config = w.fl_config(seed);
    let participants = config.participants_per_round();
    let (classes, dim) = (global.num_classes(), global.dim());
    let stride = words_for(dim);
    let batches: Vec<PackedBatch> = encoded
        .clients
        .iter()
        .map(|c| PackedBatch::from_tensor(&c.hypervectors))
        .collect::<Result<_, _>>()
        .map_err(err("pack"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let stats = ChannelStats::new();
    let (mut visited, mut updates) = (0usize, 0usize);
    let (mut channel_s, mut predict_s) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_ROUNDS {
        ledger.scope(Stage::ReplayRound, |l| {
            let ids = l
                .scope(Stage::ReplaySample, |_| {
                    sample_clients(config.num_clients, participants, &mut rng)
                })
                .map_err(err("sample"))?;
            let counts: Vec<i32> = l.scope(Stage::ReplayBroadcast, |_| {
                global
                    .prototypes()
                    .as_slice()
                    .iter()
                    .map(|&v| v as i32)
                    .collect()
            });
            // One participant at a time, as a round's worker does: the
            // integer model is dropped once its sign rows are on the wire.
            let mut received: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(ids.len());
            for &id in &ids {
                let labels = &encoded.clients[id].labels;
                let mut local = l
                    .scope(Stage::ReplayBroadcast, |_| {
                        PackedHdModel::from_counts(counts.to_vec(), classes, dim)
                    })
                    .map_err(err("broadcast"))?;
                l.scope(Stage::ReplayLocalTrain, |_| {
                    for _ in 0..config.local_epochs {
                        updates += local
                            .refine_epoch(&batches[id], labels)
                            .map_err(err("refine"))?;
                        visited += labels.len();
                    }
                    Ok::<_, String>(())
                })?;
                received.push(l.scope(Stage::ReplayTransmit, |_| {
                    let mut words = Vec::with_capacity(classes * stride);
                    for c in 0..classes {
                        words.extend_from_slice(local.packed_row(c));
                    }
                    let mut erased = vec![0u64; classes * stride];
                    let ((), secs) = timed(|| {
                        for c in 0..classes {
                            let row = c * stride..(c + 1) * stride;
                            channel.transmit_packed_stats(
                                &mut words[row.clone()],
                                &mut erased[row],
                                dim,
                                &mut rng,
                                &stats,
                            );
                        }
                    });
                    channel_s.push(secs);
                    (words, erased)
                }));
            }
            let votes = l
                .scope(Stage::ReplayAggregate, |_| {
                    let mut votes = PackedHdModel::new(classes, dim)?;
                    for (words, erased) in &received {
                        for c in 0..classes {
                            let row = c * stride..(c + 1) * stride;
                            votes.vote_row(c, &words[row.clone()], &erased[row]);
                        }
                    }
                    votes.repack_all();
                    Ok::<_, fhdnn::hdc::HdcError>(votes)
                })
                .map_err(err("vote"))?;
            l.scope(Stage::ReplayEval, |_| {
                let model = PackedHdModel::from_counts(votes.protos().to_vec(), classes, dim)?;
                let batch = PackedBatch::from_tensor(&encoded.test.hypervectors)?;
                let (accuracy, secs) = timed(|| model.accuracy(&batch, &encoded.test.labels));
                predict_s.push(secs);
                accuracy
            })
            .map_err(err("accuracy"))?;
            Ok::<_, String>(())
        })?;
    }
    stage_medians(ledger, m);
    m.insert(
        "hdc.refine_packed_us_per_sample",
        ledger.total(Stage::ReplayLocalTrain) * 1e6 / visited as f64,
    );
    m.insert("hdc.refine_updates_share", updates as f64 / visited as f64);
    m.insert(
        "hdc.vote_us_per_model",
        median_ms(ledger, Stage::ReplayAggregate) * 1e3 / participants as f64,
    );
    m.insert(
        "hdc.predict_packed_us_per_sample",
        median(&predict_s) * 1e6 / encoded.test.labels.len() as f64,
    );
    m.insert(
        "channel.packed_pktloss_ns_per_dim",
        median(&channel_s) * 1e9 / (classes * dim) as f64,
    );
    Ok(())
}

/// The FedAvg round's stages. Broadcast and transmit are measured
/// through public calls; local training and evaluation are *computed*
/// from per-image costs (participants × samples × epochs × train step,
/// test images × eval), because the round's inner loop has no public
/// entry point. Aggregation is internal to `run_round` and stays in
/// `federated.round_self_share`.
fn fedavg_layers(
    w: &WorkloadSpec,
    clients: &[ImageDataset],
    test: &ImageDataset,
    net: &Network,
    channel: &dyn Channel,
    ledger: &mut Ledger,
    m: &mut Layers,
) -> Result<(), String> {
    let config = w.fl_config(0);
    let participants = config.participants_per_round();
    let images = test
        .images
        .slice_first_axis(0, EXTRACT_CHUNK.min(test.len()))
        .map_err(err("slice"))?;
    conv_stem(&images, m)?;

    let mut eval_net = net.clone();
    let secs = micro(|| {
        eval_net
            .forward(&images, NnMode::Eval)
            .map_err(err("forward"))
    })?;
    let eval_us = secs * 1e6 / images.dims()[0] as f64;
    m.insert("nn.eval_us_per_image", eval_us);

    let batch: Vec<usize> = (0..config.batch_size.min(clients[0].len())).collect();
    let subset = clients[0].subset(&batch).map_err(err("subset"))?;
    let sgd = LocalSgdConfig::default();
    let mut train_net = net.clone();
    let mut opt = Sgd::new(sgd.learning_rate)
        .momentum(sgd.momentum)
        .weight_decay(sgd.weight_decay);
    let secs = micro(|| {
        train_net.zero_grad();
        let logits = train_net
            .forward(&subset.images, NnMode::Train)
            .map_err(err("forward"))?;
        let out = cross_entropy(&logits, &subset.labels).map_err(err("loss"))?;
        train_net.backward(&out.grad).map_err(err("backward"))?;
        opt.step(&mut train_net).map_err(err("sgd"))
    })?;
    let train_us = secs * 1e6 / batch.len() as f64;
    m.insert("nn.train_step_us_per_image", train_us);

    let mut rng = StdRng::seed_from_u64(0);
    let stats = ChannelStats::new();
    for _ in 0..REPLAY_ROUNDS {
        ledger.scope(Stage::ReplayRound, |l| {
            l.scope(Stage::ReplaySample, |_| {
                sample_clients(config.num_clients, participants, &mut rng)
            })
            .map_err(err("sample"))?;
            for _ in 0..participants {
                let copy = l.scope(Stage::ReplayBroadcast, |_| net.clone());
                l.scope(Stage::ReplayTransmit, |_| {
                    let mut payload = copy.flatten_params();
                    channel.transmit_f32_stats(&mut payload, &mut rng, &stats);
                    std::hint::black_box(&payload);
                });
            }
            Ok::<_, String>(())
        })?;
    }
    stage_medians(ledger, m);
    let steps = (participants * w.samples_per_client * config.local_epochs) as f64;
    m.insert("federated.stage_local_train_ms", steps * train_us / 1e3);
    m.insert("federated.stage_eval_ms", test.len() as f64 * eval_us / 1e3);
    Ok(())
}
