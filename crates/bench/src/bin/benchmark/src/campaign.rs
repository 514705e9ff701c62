//! One campaign of a workload: set-up, build, rounds, final evaluate,
//! all through public calls, all timed by the benchmark's own ledger.

use fhdnn::channel::{Channel, ChannelStatsSnapshot};
use fhdnn::datasets::features::FeatureDataset;
use fhdnn::datasets::image::ImageDataset;
use fhdnn::datasets::partition::Partition;
use fhdnn::extractor::FeatureExtractor;
use fhdnn::federated::fedavg::{carve_clients, CnnFederation, LocalSgdConfig};
use fhdnn::federated::fedhd::{HdClientData, HdFederation, HdTransport};
use fhdnn::federated::metrics::RoundMetrics;
use fhdnn::hdc::encoder::RandomProjectionEncoder;
use fhdnn::hdc::model::HdModel;
use fhdnn::nn::models::{resnet_lite, ResNetConfig, TrunkArch};
use fhdnn::nn::network::Network;
use fhdnn::system::FhdnnSystem;
use fhdnn::telemetry::{mem, Recorder, Telemetry};
use fhdnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::{Ledger, Stage};
use crate::spec::{Link, Pipeline, WorkloadSpec, MODEL_SEED};

// The seed offsets `ExperimentSpec` uses, so a campaign here draws the
// streams `fhdnn simulate` would draw from the same master seed.
/// The held-out test set is the benchmark's yardstick, not its input:
/// every `--seed` is scored on the same one, so two seeds' accuracies
/// differ by what training saw, not by which test samples were drawn.
const SEED_TEST_SET: u64 = 0xdead_beef;
const SEED_PARTITION: u64 = 0x5eed;
const SEED_EXTRACTOR: u64 = 0xfeed;
const SEED_ENCODER: u64 = 0xe4_c0de;
const SEED_BASELINE: u64 = 0xba5e;

/// Images go through the extractor in chunks of this many, as
/// `FhdnnSystem` does.
pub const EXTRACT_CHUNK: usize = 64;

/// `ExperimentSpec::quick`'s backbone: ResNet-lite, width 8, one block
/// per stage.
pub fn backbone(in_channels: usize) -> ResNetConfig {
    ResNetConfig {
        in_channels,
        base_width: 8,
        blocks_per_stage: 1,
        num_classes: 10,
    }
}

/// Turns any crate's error into the benchmark's `String` error, naming
/// the step that failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Every client's hypervectors and the test set's, as the federation
/// takes them.
#[derive(Debug, Clone)]
pub struct Encoded {
    pub clients: Vec<HdClientData>,
    pub test: HdClientData,
}

/// One client's raw feature rows.
#[derive(Debug, Clone)]
pub struct FeatureShard {
    pub features: Tensor,
    pub labels: Vec<usize>,
}

/// What set-up hands to the timed region.
#[derive(Debug)]
pub enum Inputs {
    Image {
        clients: Vec<ImageDataset>,
        test: ImageDataset,
        extractor: FeatureExtractor,
        /// Filled by the first decomposed build; later campaigns of the
        /// same inputs start from it.
        encoded: Option<Encoded>,
    },
    Features {
        shards: Vec<FeatureShard>,
        test: FeatureDataset,
        num_classes: usize,
        encoded: Option<Encoded>,
    },
    FedAvg {
        clients: Vec<ImageDataset>,
        test: ImageDataset,
        net: Network,
    },
}

fn image_data(
    w: &WorkloadSpec,
    dataset: fhdnn::experiment::Workload,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<(Vec<ImageDataset>, ImageDataset), String> {
    let synth = dataset.spec();
    let (pool, test) = ledger
        .scope(Stage::DatasetsGenerate, |_| {
            let pool = synth.generate(w.train_size(), seed)?;
            let test = synth.generate(w.test_size, SEED_TEST_SET)?;
            Ok::<_, fhdnn::datasets::DatasetError>((pool, test))
        })
        .map_err(err("generate images"))?;
    let clients = ledger.scope(Stage::DatasetsPartition, |_| {
        let mut rng = StdRng::seed_from_u64(seed ^ SEED_PARTITION);
        let parts = Partition::Iid
            .split(&pool.labels, w.clients, &mut rng)
            .map_err(err("partition"))?;
        carve_clients(&pool, &parts).map_err(err("carve clients"))
    })?;
    Ok((clients, test))
}

/// Data synthesis, partition and model construction: everything before
/// the timed region. Runs under a `setup` span.
pub fn setup(w: &WorkloadSpec, seed: u64, ledger: &mut Ledger) -> Result<Inputs, String> {
    ledger.scope(Stage::Setup, |l| match w.pipeline {
        Pipeline::Image { dataset, .. } => {
            let (clients, test) = image_data(w, dataset, seed, l)?;
            let extractor = l.scope(Stage::NnInit, |_| {
                FeatureExtractor::random_with(
                    TrunkArch::ResNet,
                    backbone(dataset.spec().channels),
                    MODEL_SEED ^ SEED_EXTRACTOR,
                )
                .map_err(err("extractor"))
            })?;
            Ok(Inputs::Image {
                clients,
                test,
                extractor,
                encoded: None,
            })
        }
        Pipeline::Features { features, .. } => {
            let (pool, test) = l
                .scope(Stage::DatasetsGenerate, |_| {
                    let pool = features.generate(w.train_size(), seed)?;
                    let test = features.generate(w.test_size, SEED_TEST_SET)?;
                    Ok::<_, fhdnn::datasets::DatasetError>((pool, test))
                })
                .map_err(err("generate features"))?;
            let shards = l.scope(Stage::DatasetsPartition, |_| {
                let mut rng = StdRng::seed_from_u64(seed ^ SEED_PARTITION);
                let parts = Partition::Iid
                    .split(&pool.labels, w.clients, &mut rng)
                    .map_err(err("partition"))?;
                parts
                    .iter()
                    .map(|part| {
                        let mut rows = Vec::with_capacity(part.len() * features.width);
                        for &i in part {
                            rows.extend_from_slice(pool.features.row(i).map_err(err("row"))?);
                        }
                        Ok(FeatureShard {
                            features: Tensor::from_vec(rows, &[part.len(), features.width])
                                .map_err(err("shard"))?,
                            labels: part.iter().map(|&i| pool.labels[i]).collect(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            Ok(Inputs::Features {
                shards,
                test,
                num_classes: features.num_classes,
                encoded: None,
            })
        }
        Pipeline::FedAvg { dataset } => {
            let (clients, test) = image_data(w, dataset, seed, l)?;
            let net = l.scope(Stage::NnInit, |_| {
                let mut rng = StdRng::seed_from_u64(MODEL_SEED ^ SEED_BASELINE);
                resnet_lite(backbone(dataset.spec().channels), &mut rng).map_err(err("resnet"))
            })?;
            Ok(Inputs::FedAvg { clients, test, net })
        }
    })
}

/// How a campaign is observed by the program's own telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `Recorder::disabled()`: what every end-to-end timing uses.
    Off,
    /// `Recorder::in_memory()`, the CLI's default.
    Recorded,
    /// In-memory recorder with `set_fleet_telemetry(true)`.
    Fleet,
}

#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub observe: Observe,
    pub threads: usize,
    /// Build the image pipeline from its public pieces (extract, encode,
    /// `HdFederation::new`) under their own spans instead of through
    /// `FhdnnSystem::new`. The traced run does; timed runs do not.
    pub decomposed: bool,
}

impl Mode {
    pub const TIMED: Mode = Mode {
        observe: Observe::Off,
        threads: 1,
        decomposed: false,
    };
}

/// A campaign's mode with the recorder it implies, as `build` hands
/// them to whichever federation it constructs.
struct Observer {
    mode: Mode,
    telemetry: Telemetry,
}

impl Observer {
    fn new(mode: Mode) -> Self {
        let telemetry = match mode.observe {
            Observe::Off => Recorder::disabled(),
            Observe::Recorded | Observe::Fleet => Recorder::in_memory(),
        };
        Observer { mode, telemetry }
    }

    fn fleet(&self) -> bool {
        self.mode.observe == Observe::Fleet
    }
}

/// A built federation of any of the three pipelines.
#[derive(Debug)]
pub enum Fleet {
    System(Box<FhdnnSystem>),
    Hd {
        fed: Box<HdFederation>,
        test: HdClientData,
    },
    Cnn {
        fed: Box<CnnFederation>,
        test: ImageDataset,
    },
}

impl Fleet {
    pub fn run_round(&mut self, channel: &dyn Channel) -> Result<RoundMetrics, String> {
        match self {
            Fleet::System(sys) => sys.run_round(channel).map_err(err("round")),
            Fleet::Hd { fed, test } => fed.run_round(channel, test).map_err(err("round")),
            Fleet::Cnn { fed, test } => fed.run_round(channel, test).map_err(err("round")),
        }
    }

    /// The final evaluate of the global model on the test set.
    pub fn evaluate(&mut self) -> Result<f32, String> {
        match self {
            Fleet::System(sys) => sys.evaluate().map_err(err("evaluate")),
            Fleet::Hd { fed, test } => fed
                .global()
                .accuracy(&test.hypervectors, &test.labels)
                .map_err(err("evaluate")),
            Fleet::Cnn { fed, test } => fed.evaluate(test).map_err(err("evaluate")),
        }
    }

    pub fn channel_stats(&self) -> ChannelStatsSnapshot {
        match self {
            Fleet::System(sys) => sys.channel_stats(),
            Fleet::Hd { fed, .. } => fed.channel_stats(),
            Fleet::Cnn { fed, .. } => fed.channel_stats(),
        }
    }

    /// The trained HD model; `None` for the CNN baseline.
    pub fn hd_global(&self) -> Option<&HdModel> {
        match self {
            Fleet::System(sys) => Some(sys.global()),
            Fleet::Hd { fed, .. } => Some(fed.global()),
            Fleet::Cnn { .. } => None,
        }
    }
}

/// Peak live heap above the start of the timed region.
///
/// `mem::watermark()` resets the process-wide peak, and every
/// `run_round` opens its own watermark, so one outer scope would only
/// see the last round. The tracker instead reads the peak at each
/// checkpoint (after the build, after every round, after the final
/// evaluate) and keeps the largest; between two resets the allocator's
/// peak is exact, so the largest checkpoint is the campaign's peak.
#[derive(Debug)]
pub struct Peak {
    baseline: u64,
    pub peak_bytes: u64,
}

impl Peak {
    pub fn start() -> Self {
        let _ = mem::watermark();
        Peak {
            baseline: mem::stats().live_bytes,
            peak_bytes: 0,
        }
    }

    pub fn checkpoint(&mut self) {
        let above = mem::stats().peak_bytes.saturating_sub(self.baseline);
        self.peak_bytes = self.peak_bytes.max(above);
    }

    /// Runs `body`, whose allocations are the benchmark's own (a copy
    /// it keeps for a later campaign), and moves the baseline up by
    /// what it left live so the copy is not charged to the program.
    pub fn exclude<T>(&mut self, body: impl FnOnce() -> T) -> T {
        self.checkpoint();
        let before = mem::stats().live_bytes;
        let out = body();
        self.baseline += mem::stats().live_bytes.saturating_sub(before);
        let _ = mem::watermark();
        out
    }
}

fn encode_set(
    encoder: &RandomProjectionEncoder,
    features: &Tensor,
    labels: &[usize],
    ledger: &mut Ledger,
) -> Result<HdClientData, String> {
    let hypervectors = ledger
        .scope(Stage::HdcEncode, |_| encoder.encode_batch(features))
        .map_err(err("encode"))?;
    Ok(HdClientData {
        hypervectors,
        labels: labels.to_vec(),
    })
}

fn new_encoder(
    hd_dim: usize,
    feature_width: usize,
    ledger: &mut Ledger,
) -> Result<RandomProjectionEncoder, String> {
    ledger.scope(Stage::HdcEncoderNew, |_| {
        RandomProjectionEncoder::new(hd_dim, feature_width, MODEL_SEED ^ SEED_ENCODER)
            .map_err(err("encoder"))
    })
}

/// The copy of the encodings a federation consumes. The original stays
/// with the inputs for the run's later campaigns and for the replay;
/// the copy is the benchmark's own work, so it sits under its own span
/// and outside the peak.
fn retained_copy(
    encoded: &Option<Encoded>,
    peak: &mut Peak,
    ledger: &mut Ledger,
) -> Result<Encoded, String> {
    ledger
        .scope(Stage::BenchCopy, |_| peak.exclude(|| encoded.clone()))
        .ok_or_else(|| "no encodings".to_string())
}

fn hd_federation(
    w: &WorkloadSpec,
    seed: u64,
    classes: usize,
    encoded: Encoded,
    transport: HdTransport,
    observer: &Observer,
    ledger: &mut Ledger,
) -> Result<Fleet, String> {
    let test = encoded.test;
    let dim = test.hypervectors.dims()[1];
    let mut fed = ledger.scope(Stage::FederatedNew, |_| {
        let global = HdModel::new(classes, dim).map_err(err("model"))?;
        HdFederation::new(global, encoded.clients, w.fl_config(seed), transport)
            .map_err(err("federation"))
    })?;
    fed.set_telemetry(observer.telemetry.clone());
    fed.set_threads(observer.mode.threads);
    fed.set_fleet_telemetry(observer.fleet());
    Ok(Fleet::Hd {
        fed: Box::new(fed),
        test,
    })
}

/// Extract → encode → federation construction: the time to the first
/// round. Runs under the caller's `build` span.
fn build(
    w: &WorkloadSpec,
    seed: u64,
    inputs: &mut Inputs,
    observer: &Observer,
    peak: &mut Peak,
    ledger: &mut Ledger,
) -> Result<Fleet, String> {
    match (inputs, w.pipeline) {
        (
            Inputs::Image {
                clients,
                test,
                extractor,
                encoded,
            },
            Pipeline::Image {
                hd_dim, transport, ..
            },
        ) => {
            if !observer.mode.decomposed {
                // The CLI's order: a fleet run builds unobserved and
                // attaches its recorder for the rounds only.
                let at_build = if observer.fleet() {
                    Recorder::disabled()
                } else {
                    observer.telemetry.clone()
                };
                let mut sys = FhdnnSystem::new_with_telemetry(
                    extractor,
                    clients,
                    test,
                    hd_dim,
                    MODEL_SEED ^ SEED_ENCODER,
                    w.fl_config(seed),
                    transport,
                    at_build,
                )
                .map_err(err("system"))?;
                sys.set_telemetry(observer.telemetry.clone());
                sys.set_threads(observer.mode.threads);
                sys.set_fleet_telemetry(observer.fleet());
                return Ok(Fleet::System(Box::new(sys)));
            }
            if encoded.is_none() {
                let encoder = new_encoder(hd_dim, extractor.feature_width(), ledger)?;
                let mut encode = |set: &ImageDataset, l: &mut Ledger| {
                    let features = l
                        .scope(Stage::FhdnnExtract, |_| {
                            extractor.extract_chunked(&set.images, EXTRACT_CHUNK)
                        })
                        .map_err(err("extract"))?;
                    encode_set(&encoder, &features, &set.labels, l)
                };
                *encoded = Some(Encoded {
                    clients: clients
                        .iter()
                        .map(|c| encode(c, ledger))
                        .collect::<Result<_, _>>()?,
                    test: encode(test, ledger)?,
                });
            }
            let copy = retained_copy(encoded, peak, ledger)?;
            hd_federation(w, seed, test.num_classes, copy, transport, observer, ledger)
        }
        (
            Inputs::Features {
                shards,
                test,
                num_classes,
                encoded,
            },
            Pipeline::Features {
                features,
                hd_dim,
                transport,
            },
        ) => {
            if encoded.is_none() {
                let encoder = new_encoder(hd_dim, features.width, ledger)?;
                *encoded = Some(Encoded {
                    clients: shards
                        .iter()
                        .map(|s| encode_set(&encoder, &s.features, &s.labels, ledger))
                        .collect::<Result<_, _>>()?,
                    test: encode_set(&encoder, &test.features, &test.labels, ledger)?,
                });
            }
            let copy = retained_copy(encoded, peak, ledger)?;
            hd_federation(w, seed, *num_classes, copy, transport, observer, ledger)
        }
        (Inputs::FedAvg { clients, test, net }, Pipeline::FedAvg { .. }) => {
            let (net, clients, test) = ledger.scope(Stage::BenchCopy, |_| {
                peak.exclude(|| (net.clone(), clients.clone(), test.clone()))
            });
            let mut fed = ledger.scope(Stage::FederatedNew, |_| {
                CnnFederation::new(net, clients, w.fl_config(seed), LocalSgdConfig::default())
                    .map_err(err("federation"))
            })?;
            // Round 0 of the accuracy curve: the untrained global model
            // on the test set, evaluated unobserved.
            ledger
                .scope(Stage::Evaluate, |_| fed.evaluate(&test))
                .map_err(err("baseline evaluate"))?;
            fed.set_telemetry(observer.telemetry.clone());
            fed.set_threads(observer.mode.threads);
            fed.set_fleet_telemetry(observer.fleet());
            Ok(Fleet::Cnn {
                fed: Box::new(fed),
                test,
            })
        }
        _ => Err("inputs do not belong to this workload".into()),
    }
}

/// See [`Rep::signature`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    accuracy_bits: Vec<u32>,
    uplink_bytes: Vec<u64>,
}

/// What one campaign measured, besides the spans in its ledger.
#[derive(Debug)]
pub struct Rep {
    pub fleet: Fleet,
    /// Per-round metrics as the program returned them.
    pub rounds: Vec<RoundMetrics>,
    /// `(allocations, bytes)` per round, from the allocator's counters.
    pub round_allocs: Vec<(u64, u64)>,
    pub final_evaluate: f32,
    pub peak_bytes: u64,
    pub channel: ChannelStatsSnapshot,
    /// Events the program's recorder emitted over the rounds.
    pub events: u64,
}

impl Rep {
    /// Σ `bytes_per_client × participants` per round.
    pub fn uplink_bytes(&self) -> Vec<u64> {
        self.rounds
            .iter()
            .map(|r| r.bytes_per_client * r.participants as u64)
            .collect()
    }

    /// What two same-seed campaigns must share bit for bit: the
    /// accuracy history and the uplink byte totals.
    pub fn signature(&self) -> Signature {
        Signature {
            accuracy_bits: self
                .rounds
                .iter()
                .map(|r| r.test_accuracy.to_bits())
                .collect(),
            uplink_bytes: self.uplink_bytes(),
        }
    }

    /// Index of the first round at or above the target accuracy.
    pub fn crossing(&self, target: f32) -> Option<usize> {
        self.rounds.iter().position(|r| r.test_accuracy >= target)
    }

    /// Mean test accuracy over the last `tail` rounds.
    pub fn final_accuracy(&self, tail: usize) -> f64 {
        let tail = &self.rounds[self.rounds.len().saturating_sub(tail)..];
        tail.iter().map(|r| f64::from(r.test_accuracy)).sum::<f64>() / tail.len().max(1) as f64
    }
}

/// Build, all rounds and the final evaluate under a `campaign` span.
pub fn campaign(
    w: &WorkloadSpec,
    seed: u64,
    inputs: &mut Inputs,
    mode: Mode,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let channel = w.link.channel()?;
    let observer = Observer::new(mode);
    let telemetry = observer.telemetry.clone();
    let mut peak = Peak::start();
    ledger.scope(Stage::Campaign, |l| {
        let mut fleet = l.scope(Stage::Build, |l| {
            build(w, seed, inputs, &observer, &mut peak, l)
        })?;
        peak.checkpoint();
        let events_before = telemetry.events_emitted();
        let mut rounds = Vec::with_capacity(w.rounds);
        let mut round_allocs = Vec::with_capacity(w.rounds);
        l.scope(Stage::Rounds, |l| {
            for _ in 0..w.rounds {
                let before = mem::stats();
                let metrics = l.scope(Stage::RunRound, |_| fleet.run_round(channel.as_ref()))?;
                let after = mem::stats();
                round_allocs.push((
                    after.allocs - before.allocs,
                    after.alloc_bytes - before.alloc_bytes,
                ));
                peak.checkpoint();
                rounds.push(metrics);
            }
            Ok::<_, String>(())
        })?;
        let events = telemetry.events_emitted() - events_before;
        let final_evaluate = l.scope(Stage::Evaluate, |_| fleet.evaluate())?;
        peak.checkpoint();
        Ok(Rep {
            channel: fleet.channel_stats(),
            fleet,
            rounds,
            round_allocs,
            final_evaluate,
            peak_bytes: peak.peak_bytes,
            events,
        })
    })
}

/// Seconds the benchmark spent on its own copies inside `build`.
fn copy_seconds(ledger: &Ledger) -> f64 {
    ledger.total(Stage::BenchCopy)
}

/// `build_s`: the `build` span without the benchmark's own copies.
pub fn build_seconds(ledger: &Ledger) -> f64 {
    ledger.total(Stage::Build) - copy_seconds(ledger)
}

/// `campaign_s`: build + all rounds + final evaluate.
pub fn campaign_seconds(ledger: &Ledger) -> f64 {
    ledger.total(Stage::Campaign) - copy_seconds(ledger)
}

/// Packets one transmission of `symbols` symbols of `symbol_bits` bits
/// is cut into by a packet-loss link.
fn packets(symbols: u64, symbol_bits: u64, packet_bits: u64) -> u64 {
    symbols.div_ceil((packet_bits / symbol_bits).max(1))
}

/// Realised over configured channel damage of a campaign, from the
/// federation's own `ChannelStats`; `None` on a clean link.
pub fn realised_damage_ratio(w: &WorkloadSpec, rep: &Rep) -> Option<f64> {
    let stats = &rep.channel;
    if stats.transmissions == 0 {
        return None;
    }
    let per_transmission = stats.symbols_sent / stats.transmissions;
    let symbol_bits = match w.pipeline {
        Pipeline::Image { transport, .. } | Pipeline::Features { transport, .. } => match transport
        {
            HdTransport::Float => 32,
            HdTransport::Quantized { bitwidth } => u64::from(bitwidth),
            HdTransport::Binary => 1,
        },
        Pipeline::FedAvg { .. } => 32,
    };
    match w.link {
        Link::Clean => None,
        Link::PacketLoss { loss, packet_bits } => {
            let sent =
                stats.transmissions * packets(per_transmission, symbol_bits, packet_bits as u64);
            Some(stats.packets_dropped as f64 / sent as f64 / loss)
        }
        Link::BitError { ber } => {
            Some(stats.bits_flipped as f64 / (stats.symbols_sent * symbol_bits) as f64 / ber)
        }
    }
}

/// The output check. Returns what is wrong with `rep`, nothing if it is
/// sound. `first` is the signature of the run's first same-seed
/// campaign.
pub fn verify(w: &WorkloadSpec, rep: &Rep, first: &Signature) -> Vec<String> {
    let mut wrong = Vec::new();
    let signature = rep.signature();
    if signature.accuracy_bits != first.accuracy_bits {
        wrong.push("accuracy history differs from the first same-seed repetition".into());
    }
    if signature.uplink_bytes != first.uplink_bytes {
        wrong.push("uplink bytes differ from the first same-seed repetition".into());
    }
    let expected_update = match (w.pipeline, &rep.fleet) {
        (Pipeline::Image { transport, .. } | Pipeline::Features { transport, .. }, fleet) => fleet
            .hd_global()
            .map(|g| transport.update_bytes(g.num_classes(), g.dim())),
        (Pipeline::FedAvg { .. }, Fleet::Cnn { fed, .. }) => Some(fed.update_bytes()),
        _ => None,
    };
    let participants = w.fl_config(0).participants_per_round();
    for r in &rep.rounds {
        if Some(r.bytes_per_client) != expected_update || r.participants != participants {
            wrong.push(format!(
                "round {}: {} B x {} participants on the uplink, expected {:?} B x {participants}",
                r.round, r.bytes_per_client, r.participants, expected_update
            ));
            break;
        }
    }
    if let Some(ratio) = realised_damage_ratio(w, rep) {
        if (ratio - 1.0).abs() > w.damage_tolerance {
            wrong.push(format!(
                "realised channel damage is {ratio:.3} of the configured rate"
            ));
        }
    }
    if !rep.final_evaluate.is_finite() {
        wrong.push("the final evaluate is not finite".into());
    }
    let final_accuracy = rep.final_accuracy(w.tail_rounds());
    if !final_accuracy.is_finite() || final_accuracy < f64::from(w.accuracy_floor) {
        wrong.push(format!(
            "final accuracy {final_accuracy:.3} is below the floor {}",
            w.accuracy_floor
        ));
    }
    if rep.crossing(w.target_accuracy).is_none() {
        wrong.push(format!(
            "target accuracy {} never reached",
            w.target_accuracy
        ));
    }
    wrong
}
