//! Federated bundling over HD models — FHDnn's aggregation (paper §3.4.2).
//!
//! Clients hold *pre-encoded* hypervectors: the CNN feature extractor is
//! frozen and never transmitted, so encoding happens once per client and
//! only the HD model `C = [c_1; …; c_K]` crosses the network. Each round:
//!
//! 1. **Broadcast** — the server sends the global HD model.
//! 2. **Local updates** — each sampled client sets its model to the global
//!    one and trains for `E` epochs (one-shot bundling on first contact,
//!    then iterative refinement).
//! 3. **Aggregation** — the server bundles the received client models.
//!    Prototypes are aggregated by averaging over participants; cosine
//!    similarity inference is scale-invariant, so this matches the paper's
//!    sum (Eq. 1) while keeping float magnitudes bounded over hundreds of
//!    rounds.
//!
//! [`HdTransport::Binary`] rounds run a separate *integer* engine: clients
//! refine `i32` sign-counter prototypes, the wire carries the bit-packed
//! sign words directly (no float detour), and the server folds a
//! majority vote per dimension. [`HdExecution`] selects between the
//! SIMD-backed packed learner and the element-wise reference oracle —
//! both produce bit-identical campaigns (`tests/parity.rs`).

use fhdnn_channel::lte::LteLink;
use fhdnn_channel::{Channel, ChannelStats, ChannelStatsSnapshot};
use fhdnn_hdc::model::HdModel;
use fhdnn_hdc::packed::{
    pack_signs_i32, reference::ReferenceHdModel, words_for, PackedBatch, PackedHdModel, WORD_BITS,
};
use fhdnn_hdc::quantizer::{dequantize_into, quantize};
use fhdnn_telemetry::alert::{emit_alerts, AlertEngine};
use fhdnn_telemetry::registry::EVENT_TRACE_ROUND;
use fhdnn_telemetry::task::TaskBuffer;
use fhdnn_telemetry::trace::TaskTrace;
use fhdnn_telemetry::{Recorder, Telemetry};
use fhdnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use fhdnn_telemetry::sketch::DistinctEstimator;

use crate::config::{FlConfig, HdExecution};
use crate::cost::{hd_refine_flops, DeviceProfile};
use crate::health::{
    divergence_summary, elementwise_delta, HealthRecord, RoundSketches, FLEET_MAX_OUTLIERS,
    SATURATION_EPSILON,
};
use crate::metrics::{RoundMetrics, RunHistory};
use crate::parallel::{resolve_threads, run_tasks_traced, split_seed};
use crate::sampling::sample_clients;
use crate::{FedError, Result};

/// How an HD model is serialized on the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HdTransport {
    /// Raw float32 prototypes (analog/uncoded transmission; the AWGN and
    /// packet-loss settings).
    Float,
    /// AGC-quantized `B`-bit integer words (the bit-error setting,
    /// §3.5.2).
    Quantized {
        /// Word bit width `B`.
        bitwidth: u32,
    },
    /// Binarized prototypes: one sign bit per hypervector dimension —
    /// the extreme point of HD communication efficiency. The wire
    /// format *is* the packed in-memory representation
    /// (`fhdnn_hdc::packed`): each class row travels as its `u64` sign
    /// words, and the server aggregates by per-dimension majority vote.
    Binary,
}

impl HdTransport {
    /// Upload size in bytes for a `num_classes × dim` model.
    ///
    /// Quantized transports also carry one float gain per class; at HD
    /// scales (`dim` in the thousands) the gains are negligible and are
    /// not itemized here. Binary counts the packed sign payload: one bit
    /// per dimension, each class row padded to whole bytes — exactly
    /// what `run_round` serializes onto the uplink.
    pub fn update_bytes(&self, num_classes: usize, dim: usize) -> u64 {
        let num_params = (num_classes * dim) as u64;
        match self {
            HdTransport::Float => num_params * 4,
            HdTransport::Quantized { bitwidth } => (num_params * *bitwidth as u64).div_ceil(8),
            HdTransport::Binary => num_classes as u64 * (dim as u64).div_ceil(8),
        }
    }
}

/// One client's local view: encoded hypervectors and labels.
#[derive(Debug, Clone, PartialEq)]
pub struct HdClientData {
    /// Encoded hypervectors, `[m, dim]`.
    pub hypervectors: Tensor,
    /// Labels for each hypervector.
    pub labels: Vec<usize>,
}

impl HdClientData {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the client holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// A federated-bundling run over HD models.
///
/// # Example
///
/// ```no_run
/// use fhdnn_federated::config::FlConfig;
/// use fhdnn_federated::fedhd::{HdClientData, HdFederation, HdTransport};
/// use fhdnn_hdc::model::HdModel;
/// use fhdnn_channel::NoiselessChannel;
///
/// # fn main() -> Result<(), fhdnn_federated::FedError> {
/// # let (clients, test): (Vec<HdClientData>, HdClientData) = unimplemented!();
/// let global = HdModel::new(10, 4096)?;
/// let mut fed = HdFederation::new(global, clients, FlConfig::default(), HdTransport::Float)?;
/// let history = fed.run(&NoiselessChannel::new(), &test, "demo")?;
/// println!("final accuracy {}", history.final_accuracy());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HdFederation {
    global: HdModel,
    clients: Vec<HdClientData>,
    config: FlConfig,
    transport: HdTransport,
    rng: StdRng,
    round: usize,
    straggler_prob: f64,
    adaptive_lr: Option<f32>,
    threads: usize,
    device: DeviceProfile,
    link: LteLink,
    telemetry: Telemetry,
    channel_stats: ChannelStats,
    alerts: AlertEngine,
    fleet_telemetry: bool,
    cohort: DistinctEstimator,
    /// `Some` iff the transport is `Binary`: per-client encodings for
    /// the integer engine selected by `config.execution`.
    binary: Option<BinaryData>,
}

/// One participant's unit of round work, shipped to a pool worker.
struct ClientTask {
    client: usize,
    rng: StdRng,
    buf: TaskBuffer,
}

/// What one arrived client update looks like at the round barrier.
enum ClientUpdate {
    /// Dense float prototypes (`Float`/`Quantized` transports).
    Dense(HdModel),
    /// Packed sign words straight off the wire (`Binary` transport):
    /// `num_classes` rows of `words_for(dim)` words each, plus a
    /// parallel erasure bitmask (set bit = dimension lost in transit,
    /// contributes nothing to the majority vote).
    Bits { words: Vec<u64>, erased: Vec<u64> },
}

/// What comes back from a worker at the round barrier.
struct ClientOutcome {
    client: usize,
    /// `None` when the client straggled (its update never arrived).
    update: Option<ClientUpdate>,
    buf: TaskBuffer,
    stats: ChannelStatsSnapshot,
}

/// Pre-encoded per-client training data for the binary engine, built
/// once at construction when the transport is [`HdTransport::Binary`] —
/// encoding happens once per client, never per round.
#[derive(Debug)]
enum BinaryData {
    /// Bit-packed hypervectors per client (the SIMD hot path).
    Packed(Vec<PackedBatch>),
    /// ±1 integer hypervectors per client (the differential oracle).
    Reference(Vec<Vec<Vec<i32>>>),
}

impl HdFederation {
    /// Creates a federation over pre-encoded client data.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid, client counts mismatch,
    /// or any client's hypervector width differs from the model dimension.
    pub fn new(
        global: HdModel,
        clients: Vec<HdClientData>,
        config: FlConfig,
        transport: HdTransport,
    ) -> Result<Self> {
        config.validate()?;
        if clients.len() != config.num_clients {
            return Err(FedError::InvalidArgument(format!(
                "{} client datasets for {} configured clients",
                clients.len(),
                config.num_clients
            )));
        }
        for (i, c) in clients.iter().enumerate() {
            if c.is_empty() {
                return Err(FedError::InvalidArgument(format!("client {i} has no data")));
            }
            if c.hypervectors.dims() != [c.labels.len(), global.dim()] {
                return Err(FedError::InvalidArgument(format!(
                    "client {i}: hypervectors {:?} vs {} labels and dim {}",
                    c.hypervectors.dims(),
                    c.labels.len(),
                    global.dim()
                )));
            }
        }
        let binary = match transport {
            HdTransport::Binary => {
                // The integer engine indexes prototypes by label
                // directly, so range-check up front (the dense path
                // defers this to `HdModel::one_shot_train`).
                for (i, c) in clients.iter().enumerate() {
                    if let Some(&bad) = c.labels.iter().find(|&&l| l >= global.num_classes()) {
                        return Err(FedError::InvalidArgument(format!(
                            "client {i}: label {bad} out of range for {} classes",
                            global.num_classes()
                        )));
                    }
                }
                Some(match config.execution {
                    HdExecution::Packed => BinaryData::Packed(
                        clients
                            .iter()
                            .map(|c| PackedBatch::from_tensor(&c.hypervectors))
                            .collect::<fhdnn_hdc::Result<_>>()?,
                    ),
                    HdExecution::Reference => {
                        let mut per_client = Vec::with_capacity(clients.len());
                        for c in &clients {
                            let mut vectors = Vec::with_capacity(c.len());
                            for r in 0..c.len() {
                                vectors.push(
                                    c.hypervectors
                                        .row(r)?
                                        .iter()
                                        .map(|&v| if v >= 0.0 { 1 } else { -1 })
                                        .collect::<Vec<i32>>(),
                                );
                            }
                            per_client.push(vectors);
                        }
                        BinaryData::Reference(per_client)
                    }
                })
            }
            _ => None,
        };
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(HdFederation {
            global,
            clients,
            config,
            transport,
            rng,
            round: 0,
            straggler_prob: 0.0,
            adaptive_lr: None,
            threads: 1,
            device: DeviceProfile::raspberry_pi_3b(),
            link: LteLink::error_admitting(),
            telemetry: Recorder::disabled(),
            channel_stats: ChannelStats::new(),
            alerts: AlertEngine::default(),
            fleet_telemetry: false,
            cohort: DistinctEstimator::new(),
            binary,
        })
    }

    /// Attaches a telemetry recorder; subsequent rounds emit spans,
    /// counters and gauges through it. Defaults to the shared disabled
    /// recorder (no-ops).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry recorder.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Cumulative realized channel impairments across all transmissions
    /// so far (bits flipped, dimensions erased, packets dropped, noise
    /// energy).
    pub fn channel_stats(&self) -> ChannelStatsSnapshot {
        self.channel_stats.snapshot()
    }

    /// Switches local refinement to the adaptive (OnlineHD-style)
    /// confidence-weighted rule with the given learning rate; `None`
    /// restores the paper's unit-step refinement.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidArgument`] for a non-positive rate.
    pub fn set_adaptive_lr(&mut self, lr: Option<f32>) -> Result<()> {
        if let Some(lr) = lr {
            if lr <= 0.0 || lr.is_nan() {
                return Err(FedError::InvalidArgument(format!(
                    "adaptive learning rate must be positive, got {lr}"
                )));
            }
        }
        self.adaptive_lr = lr;
        Ok(())
    }

    /// Simulates stragglers: each sampled participant independently fails
    /// to report with probability `prob` (battery death, duty-cycle miss,
    /// radio outage). The server aggregates whatever arrives; if nothing
    /// arrives the round keeps the previous global model.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidArgument`] if `prob ∉ [0, 1)`.
    pub fn set_straggler_prob(&mut self, prob: f64) -> Result<()> {
        if !(0.0..1.0).contains(&prob) {
            return Err(FedError::InvalidArgument(format!(
                "straggler probability must be in [0, 1), got {prob}"
            )));
        }
        self.straggler_prob = prob;
        Ok(())
    }

    /// Sets how many pool threads run per-round client work: `0` means
    /// auto (the machine's available parallelism), `1` (the default)
    /// runs inline on the caller's thread. Round results are
    /// byte-identical at every thread count — per-client RNG streams are
    /// split from the round seed and the barrier reduces in fixed
    /// participant order — so this is purely a wall-clock knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured thread-count knob (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Switches telemetry to fleet mode: per-client emission (per-task
    /// spans/counters, `trace.task` rows, unbounded outlier lists) is
    /// suppressed in favor of the constant-size sketch summaries already
    /// folded into every [`HealthRecord`], so events per round are O(1)
    /// in the cohort size. Sketch percentiles, exemplars, and round-level
    /// counters are unaffected.
    pub fn set_fleet_telemetry(&mut self, fleet: bool) {
        self.fleet_telemetry = fleet;
    }

    /// Whether fleet-mode telemetry suppression is active.
    pub fn fleet_telemetry(&self) -> bool {
        self.fleet_telemetry
    }

    /// Sets the simulated AIoT device whose throughput costs each
    /// client's local-training FLOPs on the trace's simulated lane.
    /// Defaults to the paper's Raspberry Pi 3b profile.
    pub fn set_device_profile(&mut self, device: DeviceProfile) {
        self.device = device;
    }

    /// The simulated AIoT device profile.
    pub fn device_profile(&self) -> &DeviceProfile {
        &self.device
    }

    /// Sets the simulated LTE uplink whose airtime costs each arrived
    /// update on the trace's simulated lane. Defaults to the paper's
    /// error-admitting (5.0 Mbit/s) link — FHDnn transmits uncoded.
    pub fn set_lte_link(&mut self, link: LteLink) {
        self.link = link;
    }

    /// The simulated LTE uplink.
    pub fn lte_link(&self) -> LteLink {
        self.link
    }

    /// The global HD model.
    pub fn global(&self) -> &HdModel {
        &self.global
    }

    /// Upload size of one client update in bytes.
    pub fn update_bytes(&self) -> u64 {
        self.transport
            .update_bytes(self.global.num_classes(), self.global.dim())
    }

    /// Local update on one client's data, starting from the broadcast
    /// copy of the global model. Worker-side: touches no federation
    /// state, so the pool can run it on any thread.
    fn train_client(
        data: &HdClientData,
        local_epochs: usize,
        adaptive_lr: Option<f32>,
        mut local: HdModel,
    ) -> Result<HdModel> {
        // An untrained (all-zero) model bootstraps by one-shot bundling;
        // afterwards the paper's refinement loop takes over.
        let untrained = local.prototypes().as_slice().iter().all(|&v| v == 0.0);
        if untrained {
            local.one_shot_train(&data.hypervectors, &data.labels)?;
        }
        for _ in 0..local_epochs {
            match adaptive_lr {
                Some(lr) => {
                    local.refine_epoch_adaptive(&data.hypervectors, &data.labels, lr)?;
                }
                None => {
                    local.refine_epoch(&data.hypervectors, &data.labels)?;
                }
            }
        }
        Ok(local)
    }

    /// Sends one client update through the uplink. Worker-side: noise is
    /// drawn from the client's split RNG stream, damage is accounted to
    /// the task-local `stats`, and spans/counters go to the task buffer.
    fn transmit_update(
        model: &mut HdModel,
        transport: HdTransport,
        channel: &dyn Channel,
        rng: &mut StdRng,
        stats: &ChannelStats,
        buf: &mut TaskBuffer,
    ) -> Result<()> {
        match transport {
            HdTransport::Float => {
                let span = buf.begin("chan.uplink");
                channel.transmit_f32_stats(model.prototypes_mut().as_mut_slice(), rng, stats);
                buf.end(span);
            }
            HdTransport::Quantized { bitwidth } => {
                // `quantize_instrumented` rebuilt on the task buffer: the
                // same `hdc.quantize` span and extreme-word counters.
                let span = buf.begin("hdc.quantize");
                let mut q = quantize(model, bitwidth)?;
                if buf.enabled() {
                    let max_word = q.max_word();
                    let saturated = q.words.iter().filter(|w| w.abs() == max_word).count() as u64;
                    let zeroed = q.words.iter().filter(|&&w| w == 0).count() as u64;
                    buf.incr("hdc.quant.saturated_words", saturated);
                    buf.incr("hdc.quant.zeroed_words", zeroed);
                }
                buf.end(span);
                {
                    let span = buf.begin("chan.uplink");
                    channel.transmit_words_stats(&mut q.words, bitwidth, rng, stats);
                    buf.end(span);
                }
                dequantize_into(&q, model)?;
            }
            HdTransport::Binary => {
                // Binary rounds never reach the dense worker: `run_round`
                // dispatches them to `run_binary_client_task`.
                return Err(FedError::InvalidArgument(
                    "binary transport uses the packed worker".into(),
                ));
            }
        }
        Ok(())
    }

    /// The full worker: broadcast-clone, local training, straggler draw,
    /// uplink transmission — everything between client selection and the
    /// round barrier.
    #[allow(clippy::too_many_arguments)]
    fn run_client_task(
        mut task: ClientTask,
        global: &HdModel,
        data: &HdClientData,
        local_epochs: usize,
        adaptive_lr: Option<f32>,
        transport: HdTransport,
        straggler_prob: f64,
        channel: &dyn Channel,
    ) -> Result<ClientOutcome> {
        let stats = ChannelStats::new();
        let broadcast = {
            let span = task.buf.begin("round.broadcast");
            let clone = global.clone();
            task.buf.end(span);
            clone
        };
        let mut local = {
            let span = task.buf.begin("round.local_train");
            let trained = Self::train_client(data, local_epochs, adaptive_lr, broadcast);
            task.buf.end(span);
            trained?
        };
        let straggled = straggler_prob > 0.0 && task.rng.gen_bool(straggler_prob);
        let update = if straggled {
            None // straggler: update never arrives
        } else {
            let span = task.buf.begin("round.transmit");
            let sent = Self::transmit_update(
                &mut local,
                transport,
                channel,
                &mut task.rng,
                &stats,
                &mut task.buf,
            );
            task.buf.end(span);
            sent?;
            Some(ClientUpdate::Dense(local))
        };
        Ok(ClientOutcome {
            client: task.client,
            update,
            buf: task.buf,
            stats: stats.snapshot(),
        })
    }

    /// The binary-engine worker: rebuild the broadcast counters as an
    /// integer model, train (one-shot bootstrap on the first contact,
    /// then the paper's refinement), serialize the per-class sign rows
    /// as packed words, and push those words — the wire format *is* the
    /// in-memory representation — through the channel's packed route.
    ///
    /// The `Packed` and `Reference` executions run the same integer
    /// algorithm and serialize identical wire words; `tests/parity.rs`
    /// pins that bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    fn run_binary_client_task(
        mut task: ClientTask,
        counts: &[i32],
        bootstrap: bool,
        num_classes: usize,
        dim: usize,
        data: &BinaryData,
        labels: &[usize],
        local_epochs: usize,
        straggler_prob: f64,
        channel: &dyn Channel,
    ) -> Result<ClientOutcome> {
        let stats = ChannelStats::new();
        let stride = words_for(dim);
        let words = match data {
            BinaryData::Packed(batches) => {
                let batch = &batches[task.client];
                let mut local = {
                    let span = task.buf.begin("round.broadcast");
                    let model = PackedHdModel::from_counts(counts.to_vec(), num_classes, dim);
                    task.buf.end(span);
                    model?
                };
                {
                    let span = task.buf.begin("round.local_train");
                    let trained = (|| -> Result<()> {
                        if bootstrap {
                            local.one_shot_train(batch, labels)?;
                        }
                        for _ in 0..local_epochs {
                            local.refine_epoch(batch, labels)?;
                        }
                        Ok(())
                    })();
                    task.buf.end(span);
                    trained?;
                }
                // The packed rows are already the wire payload — one
                // memcpy per class, no re-encoding.
                let mut words = Vec::with_capacity(num_classes * stride);
                for c in 0..num_classes {
                    words.extend_from_slice(local.packed_row(c));
                }
                words
            }
            BinaryData::Reference(clients) => {
                let vectors = &clients[task.client];
                let mut local = {
                    let span = task.buf.begin("round.broadcast");
                    let model = ReferenceHdModel {
                        protos: counts.to_vec(),
                        num_classes,
                        dim,
                    };
                    task.buf.end(span);
                    model
                };
                {
                    let span = task.buf.begin("round.local_train");
                    if bootstrap {
                        local.one_shot_train(vectors, labels);
                    }
                    for _ in 0..local_epochs {
                        local.refine_epoch(vectors, labels);
                    }
                    task.buf.end(span);
                }
                let mut words = Vec::with_capacity(num_classes * stride);
                for c in 0..num_classes {
                    words.extend_from_slice(&pack_signs_i32(&local.protos[c * dim..(c + 1) * dim]));
                }
                words
            }
        };
        let straggled = straggler_prob > 0.0 && task.rng.gen_bool(straggler_prob);
        let update = if straggled {
            None // straggler: update never arrives
        } else {
            let span = task.buf.begin("round.transmit");
            let mut words = words;
            let mut erased = vec![0u64; num_classes * stride];
            {
                let inner = task.buf.begin("chan.uplink");
                for c in 0..num_classes {
                    channel.transmit_packed_stats(
                        &mut words[c * stride..(c + 1) * stride],
                        &mut erased[c * stride..(c + 1) * stride],
                        dim,
                        &mut task.rng,
                        &stats,
                    );
                }
                task.buf.end(inner);
            }
            task.buf.end(span);
            Some(ClientUpdate::Bits { words, erased })
        };
        Ok(ClientOutcome {
            client: task.client,
            update,
            buf: task.buf,
            stats: stats.snapshot(),
        })
    }

    /// Runs one communication round with the given uplink channel,
    /// evaluating on the provided encoded test set.
    ///
    /// # Errors
    ///
    /// Propagates training, transport, and evaluation failures.
    pub fn run_round(
        &mut self,
        channel: &dyn Channel,
        test: &HdClientData,
    ) -> Result<RoundMetrics> {
        let tel = self.telemetry.clone();
        // Round timing flows through the injectable telemetry clock, so
        // a ManualClock makes `round_seconds` fully deterministic.
        let tick = tel.now_micros();
        // Self-metering baselines: the deltas emitted at round end prove
        // (or disprove) that events/round is O(1) in the cohort size.
        let events_before = tel.events_emitted();
        let sink_bytes_before = tel.sink_bytes_written();
        let trace_dropped_before = tel.counter_value("trace.dropped");
        let chan_before = self.channel_stats.snapshot();
        // Per-round memory watermark. Measured unconditionally: the
        // tracked allocator's counters are pure atomics, so reading them
        // cannot perturb the seeded RNG stream or the model bits.
        let mem = fhdnn_telemetry::mem::watermark();
        // Root span: every stage span below nests under `round`, which is
        // what lets the profiler rebuild the per-round call tree.
        let round_span = tel.span("round");
        let participants = sample_clients(
            self.config.num_clients,
            self.config.participants_per_round(),
            &mut self.rng,
        )?;
        // The server broadcasts float prototypes over a reliable downlink
        // (base stations transmit at much higher power than devices — the
        // paper models the uplink as the lossy direction).
        let downlink_bytes = self.global.num_params() as u64 * 4;
        // The round-start global model doubles as the health baseline:
        // client deltas and the sign-flip rate are measured against it.
        // Pure reads only — the seeded RNG stream is untouched, so runs
        // with and without a recorder stay identical.
        let health_baseline: Option<Vec<f32>> = tel
            .enabled()
            .then(|| self.global.prototypes().as_slice().to_vec());
        // One seed per round, split into one independent stream per
        // client id: scheduling order cannot change what anyone samples,
        // and the master RNG advances identically at every thread count.
        let round_seed: u64 = self.rng.next_u64();
        // Fleet mode hands every task an inert buffer: per-client spans
        // and counters cost one branch and are never emitted, while the
        // round-level channel accounting below survives through the
        // task-local `ChannelStats` snapshots.
        let tasks: Vec<ClientTask> = participants
            .iter()
            .map(|&client| ClientTask {
                client,
                rng: StdRng::seed_from_u64(split_seed(round_seed, client as u64)),
                buf: if self.fleet_telemetry {
                    Recorder::disabled().task_buffer()
                } else {
                    tel.task_buffer()
                },
            })
            .collect();
        let threads = resolve_threads(self.threads);
        // Simulated-lane inputs, fixed before the pool borrows the
        // model: the device profile costs each client's refinement
        // FLOPs, the LTE link costs one update's uplink airtime.
        let (num_classes, dim) = (self.global.num_classes(), self.global.dim());
        let (classes, dim_u64) = (num_classes as u64, dim as u64);
        let sim_uplink_micros =
            (self.link.airtime_seconds(self.update_bytes()) * 1e6).round() as u64;
        let (global, clients) = (&self.global, &self.clients);
        let (local_epochs, adaptive_lr) = (self.config.local_epochs, self.adaptive_lr);
        let (transport, straggler_prob) = (self.transport, self.straggler_prob);
        // Binary rounds broadcast the global model as integer counters —
        // the float prototypes are exactly integer-valued (they only
        // ever hold majority-vote counts), so the conversion is lossless.
        let binary = self.binary.as_ref();
        let global_counts: Option<Vec<i32>> = binary.map(|_| {
            self.global
                .prototypes()
                .as_slice()
                .iter()
                .map(|&v| v as i32)
                .collect()
        });
        let bootstrap = global_counts
            .as_ref()
            .is_some_and(|c| c.iter().all(|&v| v == 0));
        let outcomes = run_tasks_traced(tasks, threads, &tel, |_, task| {
            let data = &clients[task.client];
            match (binary, &global_counts) {
                (Some(bin), Some(counts)) => Self::run_binary_client_task(
                    task,
                    counts,
                    bootstrap,
                    num_classes,
                    dim,
                    bin,
                    &data.labels,
                    local_epochs,
                    straggler_prob,
                    channel,
                ),
                _ => Self::run_client_task(
                    task,
                    global,
                    data,
                    local_epochs,
                    adaptive_lr,
                    transport,
                    straggler_prob,
                    channel,
                ),
            }
        });
        // Fixed-order reduction: fold outcomes in participant order so
        // telemetry replay, channel accounting (non-associative f64 noise
        // energy) and the aggregate below are thread-count-invariant.
        let mut received: Vec<HdModel> = Vec::with_capacity(participants.len());
        let mut received_bits: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(participants.len());
        let mut arrived_ids = Vec::with_capacity(participants.len());
        let mut rows: Vec<TaskTrace> = Vec::with_capacity(participants.len());
        // Fleet aggregation state: one constant-size sketch set absorbs a
        // per-client observation at each fold step, in the same fixed
        // participant order as everything else at this barrier.
        let mut sketches = RoundSketches::new();
        for (outcome, timing) in outcomes {
            let outcome = outcome?;
            tel.absorb_task(outcome.buf);
            self.channel_stats.absorb(&outcome.stats);
            // Simulated device cost is pure arithmetic over already-drawn
            // state, so rows (and the RoundMetrics trace fields below)
            // are identical with or without a recorder attached.
            let samples = self.clients[outcome.client].len() as u64;
            let flops = hd_refine_flops(samples, classes, dim_u64) * local_epochs as u64;
            let sim_compute_micros =
                (self.device.estimate(flops as f64)?.seconds * 1e6).round() as u64;
            if tel.enabled() {
                let arrived = outcome.update.is_some();
                let uplink = if arrived { self.update_bytes() } else { 0 };
                let damage = outcome.stats.bits_flipped
                    + outcome.stats.dims_erased
                    + outcome.stats.packets_dropped;
                let sim_cost = sim_compute_micros + if arrived { sim_uplink_micros } else { 0 };
                sketches.absorb_client(
                    outcome.client as u64,
                    uplink,
                    damage,
                    sim_compute_micros,
                    sim_cost,
                );
                self.cohort.insert(outcome.client as u64);
            }
            rows.push(TaskTrace {
                round: self.round as u64,
                client: outcome.client as u64,
                engine: "fedhd".into(),
                arrived: outcome.update.is_some(),
                timing,
                sim_compute_micros,
                sim_uplink_micros,
            });
            if let Some(update) = outcome.update {
                arrived_ids.push(outcome.client);
                match update {
                    ClientUpdate::Dense(m) => received.push(m),
                    ClientUpdate::Bits { words, erased } => received_bits.push((words, erased)),
                }
            }
        }
        // Bundle then normalize by the participant count: cosine inference
        // is scale-invariant, so mean == the paper's sum, numerically tame.
        // If every participant straggled, keep the previous global model.
        if !received.is_empty() {
            let _span = tel.span("round.aggregate");
            let n = received.len() as f32;
            let mut bundled = HdModel::bundle(&received)?;
            bundled.scale(1.0 / n);
            self.global = bundled;
        }
        // Binary aggregation: per-dimension majority vote over the
        // arrived sign rows, folded in fixed participant order. Erased
        // dimensions abstain. The vote counts become the new global
        // verbatim — sign-dot inference is scale-invariant, so the
        // 1/n normalization of the dense path is unnecessary and
        // would destroy integer exactness.
        if !received_bits.is_empty() {
            let _span = tel.span("round.aggregate");
            let stride = words_for(dim);
            let votes: Vec<i32> = match self.config.execution {
                HdExecution::Packed => {
                    let mut agg = PackedHdModel::new(num_classes, dim)?;
                    for (words, erased) in &received_bits {
                        for c in 0..num_classes {
                            agg.vote_row(
                                c,
                                &words[c * stride..(c + 1) * stride],
                                &erased[c * stride..(c + 1) * stride],
                            );
                        }
                    }
                    agg.repack_all();
                    agg.protos().to_vec()
                }
                HdExecution::Reference => {
                    let mut votes = vec![0i32; num_classes * dim];
                    for (words, erased) in &received_bits {
                        for c in 0..num_classes {
                            fhdnn_hdc::simd::scalar::vote_pm1_masked(
                                &mut votes[c * dim..(c + 1) * dim],
                                &words[c * stride..(c + 1) * stride],
                                &erased[c * stride..(c + 1) * stride],
                            );
                        }
                    }
                    votes
                }
            };
            for (dst, &v) in self
                .global
                .prototypes_mut()
                .as_mut_slice()
                .iter_mut()
                .zip(votes.iter())
            {
                *dst = v as f32;
            }
        }

        let test_accuracy = {
            let _span = tel.span("round.eval");
            match &self.binary {
                None => self.global.accuracy(&test.hypervectors, &test.labels)?,
                Some(_) => {
                    let counts: Vec<i32> = self
                        .global
                        .prototypes()
                        .as_slice()
                        .iter()
                        .map(|&v| v as i32)
                        .collect();
                    match self.config.execution {
                        HdExecution::Packed => {
                            let model = PackedHdModel::from_counts(counts, num_classes, dim)?;
                            let batch = PackedBatch::from_tensor(&test.hypervectors)?;
                            model.accuracy(&batch, &test.labels)? as f32
                        }
                        HdExecution::Reference => {
                            let model = ReferenceHdModel {
                                protos: counts,
                                num_classes,
                                dim,
                            };
                            if test.labels.is_empty() {
                                0.0
                            } else {
                                let mut correct = 0usize;
                                for (r, &label) in test.labels.iter().enumerate() {
                                    let h: Vec<i32> = test
                                        .hypervectors
                                        .row(r)?
                                        .iter()
                                        .map(|&v| if v >= 0.0 { 1 } else { -1 })
                                        .collect();
                                    if model.predict(&h) == label {
                                        correct += 1;
                                    }
                                }
                                (correct as f64 / test.labels.len() as f64) as f32
                            }
                        }
                    }
                }
            }
        };
        drop(round_span);
        // Close the watermark before the health block below: its delta
        // covers the round's compute, not the diagnostics about it.
        let mem_delta = mem.finish();
        let mem_bytes_per_client = mem_delta.alloc_bytes / participants.len().max(1) as u64;
        // Round anatomy: simulated critical path is deterministic at any
        // thread count; the measured half is zero without a recorder.
        let trace_summary = fhdnn_telemetry::trace::summarize_round(&rows);

        if tel.enabled() {
            tel.incr("fl.rounds", 1);
            tel.incr("fl.participants", participants.len() as u64);
            let stragglers = participants.len() - arrived_ids.len();
            if stragglers > 0 {
                tel.incr("fl.stragglers", stragglers as u64);
            }
            // Uplink counts only updates that arrived; with stragglers
            // disabled this equals `bytes_per_client × participants`, the
            // `RunHistory` accounting.
            tel.incr(
                "fl.bytes_up",
                self.update_bytes() * arrived_ids.len() as u64,
            );
            if self.binary.is_some() {
                // Raw `u64` words that crossed the wire this round —
                // the packed-transport view of `fl.bytes_up`.
                tel.incr(
                    "fl.packed_uplink_words",
                    (num_classes * words_for(dim) * arrived_ids.len()) as u64,
                );
            }
            tel.incr("fl.bytes_down", downlink_bytes * participants.len() as u64);
            tel.gauge("fl.test_accuracy", test_accuracy as f64);
            tel.incr("mem.allocs", mem_delta.allocs);
            tel.incr("mem.alloc_bytes", mem_delta.alloc_bytes);
            tel.gauge("mem.peak_bytes", mem_delta.peak_bytes as f64);
            tel.gauge(
                "mem.live_bytes",
                fhdnn_telemetry::mem::stats().live_bytes as f64,
            );
            let chan_delta = self.channel_stats.snapshot().delta(&chan_before);
            crate::emit_channel_delta(&tel, chan_delta);

            // Execution trace: one event per task (dual-lane timing) plus
            // the round's critical-path summary, all on the main thread
            // in participant order so replays are thread-count-stable.
            // Fleet mode keeps only the O(1) summary — the per-task rows
            // are exactly the O(clients) emission being suppressed; their
            // worst offenders survive in the exemplar samplers.
            if !self.fleet_telemetry {
                for row in &rows {
                    tel.record_task_trace(row.clone());
                }
            }
            tel.incr("trace.tasks", rows.len() as u64);
            tel.gauge("trace.worker_utilization", trace_summary.worker_utilization);
            tel.event(
                EVENT_TRACE_ROUND,
                &[
                    ("critical_client", trace_summary.critical_client.into()),
                    ("engine", trace_summary.engine.as_str().into()),
                    ("queue_depth_max", trace_summary.queue_depth_max.into()),
                    ("round", trace_summary.round.into()),
                    (
                        "sim_critical_micros",
                        trace_summary.sim_critical_micros.into(),
                    ),
                    ("sim_round_micros", trace_summary.sim_round_micros.into()),
                    ("tasks", trace_summary.tasks.into()),
                    (
                        "worker_utilization",
                        trace_summary.worker_utilization.into(),
                    ),
                    ("workers", trace_summary.workers.into()),
                ],
            );

            // Flight record: HD diagnostics on the new global model,
            // client-divergence outliers, channel-damage attribution.
            if let Some(baseline) = &health_baseline {
                let new_params = self.global.prototypes().as_slice();
                let aggregate_delta = elementwise_delta(new_params, baseline);
                // Binary updates diverge as their ±1/0 sign view (0 for
                // erased dimensions) — the dense magnitude never crossed
                // the wire, so diagnosing against it would be fiction.
                let deltas: Vec<Vec<f32>> = if self.binary.is_some() {
                    let stride = words_for(dim);
                    received_bits
                        .iter()
                        .map(|(words, erased)| {
                            let mut view = vec![0.0f32; num_classes * dim];
                            for c in 0..num_classes {
                                for i in 0..dim {
                                    let (w, b) = (c * stride + i / WORD_BITS, i % WORD_BITS);
                                    view[c * dim + i] = if erased[w] >> b & 1 == 1 {
                                        0.0
                                    } else if words[w] >> b & 1 == 1 {
                                        1.0
                                    } else {
                                        -1.0
                                    };
                                }
                            }
                            elementwise_delta(&view, baseline)
                        })
                        .collect()
                } else {
                    received
                        .iter()
                        .map(|m| elementwise_delta(m.prototypes().as_slice(), baseline))
                        .collect()
                };
                let mut div = divergence_summary(&deltas, &aggregate_delta, &arrived_ids);
                sketches.absorb_divergence(&div);
                if self.fleet_telemetry {
                    div.outliers.truncate(FLEET_MAX_OUTLIERS);
                }
                let norms = fhdnn_hdc::health::row_norms(&self.global)?;
                let (norm_min, norm_max, norm_mean) = crate::health::norm_stats(&norms);
                let saturation = match self.transport {
                    HdTransport::Quantized { bitwidth } => fhdnn_hdc::health::saturation_fraction(
                        &self.global,
                        bitwidth,
                        SATURATION_EPSILON,
                    )? as f64,
                    // Float transmits no quantized counters; Binary
                    // carries raw sign bits (saturation is meaningless).
                    HdTransport::Float | HdTransport::Binary => 0.0,
                };
                let mut record = HealthRecord {
                    round: self.round as u64,
                    engine: "fedhd".into(),
                    test_accuracy: test_accuracy as f64,
                    participants: participants.len() as u64,
                    arrived: arrived_ids.len() as u64,
                    norm_min,
                    norm_max,
                    norm_mean,
                    saturation,
                    cosine_margin: fhdnn_hdc::health::cosine_margin(&self.global)? as f64,
                    sign_flip_rate: fhdnn_hdc::health::sign_flip_rate_slices(new_params, baseline)
                        as f64,
                    mean_divergence: div.mean,
                    max_abs_z: div.max_abs_z,
                    outlier_clients: div.outliers,
                    bits_flipped: chan_delta.bits_flipped,
                    dims_erased: chan_delta.dims_erased,
                    packets_dropped: chan_delta.packets_dropped,
                    noise_energy: chan_delta.noise_energy,
                    mem_peak_bytes: mem_delta.peak_bytes,
                    mem_allocs: mem_delta.allocs,
                    mem_bytes_per_client,
                    cohort_clients: self.cohort.estimate_rounded(),
                    trace_dropped: tel
                        .counter_value("trace.dropped")
                        .saturating_sub(trace_dropped_before),
                    ..HealthRecord::default()
                };
                sketches.apply(&mut record);
                record.emit(&tel);
                emit_alerts(&tel, &self.alerts.observe(&record.to_sample()));
            }
            tel.observe("fl.round_micros", tel.now_micros().saturating_sub(tick));
            // The observability layer meters itself: everything emitted
            // this round, as seen by the sink. The two `incr`s below are a
            // constant under-count (they cannot observe themselves).
            tel.incr(
                "telemetry.overhead.events",
                tel.events_emitted().saturating_sub(events_before),
            );
            tel.incr(
                "telemetry.overhead.jsonl_bytes",
                tel.sink_bytes_written().saturating_sub(sink_bytes_before),
            );
        }

        let metrics = RoundMetrics {
            round: self.round,
            test_accuracy,
            participants: participants.len(),
            bytes_per_client: self.update_bytes(),
            downlink_bytes_per_client: downlink_bytes,
            round_seconds: tel.now_micros().saturating_sub(tick) as f64 / 1e6,
            mem_peak_bytes: mem_delta.peak_bytes,
            mem_allocs: mem_delta.allocs,
            mem_bytes_per_client,
            trace_critical_client: trace_summary.critical_client,
            trace_sim_round_micros: trace_summary.sim_round_micros,
            trace_worker_utilization: trace_summary.worker_utilization,
        };
        self.round += 1;
        Ok(metrics)
    }

    /// Runs the configured number of rounds, returning the full history.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run(
        &mut self,
        channel: &dyn Channel,
        test: &HdClientData,
        label: impl Into<String>,
    ) -> Result<RunHistory> {
        let mut history = RunHistory::new(label);
        for _ in 0..self.config.rounds {
            history.push(self.run_round(channel, test)?);
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn_channel::packet::PacketLossChannel;
    use fhdnn_channel::NoiselessChannel;
    use fhdnn_datasets::features::FeatureSpec;
    use fhdnn_datasets::partition::Partition;
    use fhdnn_hdc::encoder::RandomProjectionEncoder;

    const DIM: usize = 2048;

    fn encoded_clients(num_clients: usize, seed: u64) -> (Vec<HdClientData>, HdClientData, usize) {
        let spec = FeatureSpec {
            num_classes: 5,
            width: 40,
            noise_std: 0.6,
            class_seed: 11,
        };
        let train = spec.generate(num_clients * 25, seed).unwrap();
        let test = spec.generate(100, seed + 1).unwrap();
        let enc = RandomProjectionEncoder::new(DIM, 40, 3).unwrap();
        let h_train = enc.encode_batch(&train.features).unwrap();
        let h_test = enc.encode_batch(&test.features).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let parts = Partition::Iid
            .split(&train.labels, num_clients, &mut rng)
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
                    hypervectors: Tensor::from_vec(data, &[idx.len(), DIM]).unwrap(),
                    labels,
                }
            })
            .collect();
        (
            clients,
            HdClientData {
                hypervectors: h_test,
                labels: test.labels,
            },
            5,
        )
    }

    fn config(num_clients: usize, rounds: usize) -> FlConfig {
        FlConfig {
            num_clients,
            rounds,
            local_epochs: 2,
            batch_size: 10,
            client_fraction: 0.5,
            seed: 7,
            execution: HdExecution::Packed,
        }
    }

    #[test]
    fn converges_fast_on_separable_data() {
        let (clients, test, k) = encoded_clients(4, 0);
        let global = HdModel::new(k, DIM).unwrap();
        let mut fed = HdFederation::new(global, clients, config(4, 3), HdTransport::Float).unwrap();
        let history = fed.run(&NoiselessChannel::new(), &test, "hd").unwrap();
        assert!(
            history.final_accuracy() > 0.9,
            "accuracy {}",
            history.final_accuracy()
        );
    }

    #[test]
    fn robust_to_packet_loss() {
        let (clients, test, k) = encoded_clients(4, 1);
        let global = HdModel::new(k, DIM).unwrap();
        let mut fed = HdFederation::new(global, clients, config(4, 3), HdTransport::Float).unwrap();
        let channel = PacketLossChannel::new(0.2, 256).unwrap();
        let history = fed.run(&channel, &test, "hd-lossy").unwrap();
        assert!(
            history.final_accuracy() > 0.85,
            "accuracy under 20% loss: {}",
            history.final_accuracy()
        );
    }

    #[test]
    fn quantized_transport_matches_float_when_noiseless() {
        let (clients, test, k) = encoded_clients(4, 2);
        let run = |transport| {
            let global = HdModel::new(k, DIM).unwrap();
            let mut fed =
                HdFederation::new(global, clients.clone(), config(4, 2), transport).unwrap();
            fed.run(&NoiselessChannel::new(), &test, "q")
                .unwrap()
                .final_accuracy()
        };
        let float_acc = run(HdTransport::Float);
        let quant_acc = run(HdTransport::Quantized { bitwidth: 16 });
        assert!(
            (float_acc - quant_acc).abs() < 0.05,
            "float {float_acc} vs quantized {quant_acc}"
        );
    }

    #[test]
    fn quantized_update_is_smaller() {
        let t_f = HdTransport::Float;
        let t_q = HdTransport::Quantized { bitwidth: 8 };
        assert_eq!(t_f.update_bytes(5, 200), 4000);
        assert_eq!(t_q.update_bytes(5, 200), 1000);
    }

    #[test]
    fn binary_update_bytes_count_packed_rows() {
        // One sign bit per dimension, each class row padded to whole
        // bytes — the packed words `run_round` actually serializes, not
        // a contiguous (classes × dim)/8 bitstring.
        let t = HdTransport::Binary;
        assert_eq!(t.update_bytes(5, 2048), 1280);
        assert_eq!(t.update_bytes(5, 2049), 5 * 257, "per-row byte padding");
        assert_eq!(t.update_bytes(1, 1), 1);
    }

    #[test]
    fn binary_transport_learns_and_is_tiny() {
        let (clients, test, k) = encoded_clients(4, 4);
        let global = HdModel::new(k, DIM).unwrap();
        let mut fed =
            HdFederation::new(global, clients, config(4, 3), HdTransport::Binary).unwrap();
        assert_eq!(fed.update_bytes(), (k * DIM) as u64 / 8);
        let history = fed.run(&NoiselessChannel::new(), &test, "binary").unwrap();
        assert!(
            history.final_accuracy() > 0.85,
            "binary transport accuracy {}",
            history.final_accuracy()
        );
        // Regression pin: RoundMetrics carries the packed uplink size.
        for round in &history.rounds {
            assert_eq!(round.bytes_per_client, 1280, "round {}", round.round);
        }
    }

    #[test]
    fn reference_execution_matches_packed_bit_for_bit() {
        // The differential oracle: both binary engines run the same
        // integer algorithm, so whole campaigns must agree exactly —
        // history, channel stats, and every global prototype bit.
        let (clients, test, k) = encoded_clients(4, 12);
        let run = |execution: HdExecution| {
            let global = HdModel::new(k, DIM).unwrap();
            let cfg = FlConfig {
                execution,
                ..config(4, 3)
            };
            let mut fed =
                HdFederation::new(global, clients.clone(), cfg, HdTransport::Binary).unwrap();
            let history = fed.run(&NoiselessChannel::new(), &test, "exec").unwrap();
            let protos: Vec<u32> = fed
                .global()
                .prototypes()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (history, protos, fed.channel_stats())
        };
        let packed = run(HdExecution::Packed);
        let reference = run(HdExecution::Reference);
        assert_eq!(packed.0, reference.0, "histories diverged");
        assert_eq!(packed.1, reference.1, "prototype bits diverged");
        assert_eq!(packed.2, reference.2, "channel stats diverged");
    }

    #[test]
    fn binary_transport_robust_to_bit_errors() {
        use fhdnn_channel::bit_error::BitErrorChannel;
        let (clients, test, k) = encoded_clients(4, 5);
        let global = HdModel::new(k, DIM).unwrap();
        let mut fed =
            HdFederation::new(global, clients, config(4, 3), HdTransport::Binary).unwrap();
        // 1% of sign bits flip: holographic redundancy shrugs it off.
        let ch = BitErrorChannel::new(0.01).unwrap();
        let history = fed.run(&ch, &test, "binary-ber").unwrap();
        assert!(
            history.final_accuracy() > 0.8,
            "binary under BER 1e-2: {}",
            history.final_accuracy()
        );
    }

    #[test]
    fn adaptive_refinement_matches_or_beats_unit_steps() {
        let (clients, test, k) = encoded_clients(4, 7);
        let run = |adaptive: bool| {
            let global = HdModel::new(k, DIM).unwrap();
            let mut fed =
                HdFederation::new(global, clients.clone(), config(4, 3), HdTransport::Float)
                    .unwrap();
            if adaptive {
                fed.set_adaptive_lr(Some(1.0)).unwrap();
            }
            fed.run(&NoiselessChannel::new(), &test, "a")
                .unwrap()
                .final_accuracy()
        };
        let unit = run(false);
        let adaptive = run(true);
        assert!(adaptive > unit - 0.05, "adaptive {adaptive} vs unit {unit}");
    }

    #[test]
    fn stragglers_slow_but_do_not_break_learning() {
        let (clients, test, k) = encoded_clients(4, 6);
        let global = HdModel::new(k, DIM).unwrap();
        let mut fed = HdFederation::new(global, clients, config(4, 5), HdTransport::Float).unwrap();
        fed.set_straggler_prob(0.5).unwrap();
        let history = fed
            .run(&NoiselessChannel::new(), &test, "stragglers")
            .unwrap();
        assert!(
            history.final_accuracy() > 0.85,
            "accuracy with 50% stragglers: {}",
            history.final_accuracy()
        );
        assert!(fed.set_straggler_prob(1.0).is_err());
        assert!(fed.set_straggler_prob(-0.1).is_err());
    }

    #[test]
    fn health_records_emitted_each_round() {
        use fhdnn_telemetry::sink::MemorySink;
        use std::sync::Arc;
        let (clients, test, k) = encoded_clients(4, 8);
        let global = HdModel::new(k, DIM).unwrap();
        let mut fed = HdFederation::new(
            global,
            clients,
            config(4, 2),
            HdTransport::Quantized { bitwidth: 8 },
        )
        .unwrap();
        let sink = Arc::new(MemorySink::new());
        fed.set_telemetry(Recorder::with_sink(sink.clone()));
        fed.run(&NoiselessChannel::new(), &test, "health").unwrap();
        let health: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "health.round")
            .collect();
        assert_eq!(health.len(), 2, "one record per round");
        let parsed = fhdnn_telemetry::jsonl::parse(&health[1].to_json()).unwrap();
        let rec =
            crate::health::HealthRecord::from_event_fields(parsed.get("fields").unwrap()).unwrap();
        assert_eq!(rec.engine, "fedhd");
        assert_eq!(rec.round, 1);
        assert_eq!(rec.participants, 2);
        assert_eq!(rec.arrived, 2);
        assert!(rec.test_accuracy > 0.5, "accuracy {}", rec.test_accuracy);
        assert!(rec.norm_max >= rec.norm_min && rec.norm_min > 0.0);
        assert!(rec.cosine_margin > 0.0, "margin {}", rec.cosine_margin);
        // A noiseless channel attributes zero damage.
        assert_eq!(rec.bits_flipped, 0);
        assert_eq!(rec.dims_erased, 0);
        assert!((rec.noise_energy - 0.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_mode_bounds_emission_and_keeps_sketches() {
        use fhdnn_telemetry::sink::MemorySink;
        use std::sync::Arc;
        let (clients, test, k) = encoded_clients(4, 8);
        let run = |fleet: bool| {
            let global = HdModel::new(k, DIM).unwrap();
            let mut fed = HdFederation::new(
                global,
                clients.clone(),
                config(4, 2),
                HdTransport::Quantized { bitwidth: 8 },
            )
            .unwrap();
            let sink = Arc::new(MemorySink::new());
            fed.set_telemetry(Recorder::with_sink(sink.clone()));
            fed.set_fleet_telemetry(fleet);
            assert_eq!(fed.fleet_telemetry(), fleet);
            let history = fed.run(&NoiselessChannel::new(), &test, "fleet").unwrap();
            (history, sink.events())
        };
        let (verbose_history, verbose) = run(false);
        let (fleet_history, fleet) = run(true);
        // Suppression is observability-only: the model results match.
        assert_eq!(verbose_history, fleet_history);
        // Fleet mode emits strictly fewer events and no per-task rows.
        assert!(
            fleet.len() < verbose.len(),
            "{} vs {}",
            fleet.len(),
            verbose.len()
        );
        assert!(verbose.iter().any(|e| e.name == "trace.task"));
        assert!(fleet.iter().all(|e| e.name != "trace.task"));
        // The sketch summaries survive in the health record.
        let health = fleet.iter().find(|e| e.name == "health.round").unwrap();
        let parsed = fhdnn_telemetry::jsonl::parse(&health.to_json()).unwrap();
        let rec =
            crate::health::HealthRecord::from_event_fields(parsed.get("fields").unwrap()).unwrap();
        assert!(rec.uplink_p99_bytes > 0, "{rec:?}");
        assert!(rec.sim_compute_p99_micros > 0, "{rec:?}");
        assert!(rec.div_p99 >= rec.div_p50, "{rec:?}");
        assert!(rec.cohort_clients >= 2, "{rec:?}");
        assert!(!rec.exemplars.is_empty(), "{rec:?}");
        // The self-metering counters accounted this round's emission.
        let overhead: u64 = fleet
            .iter()
            .filter(|e| e.name == "telemetry.overhead.events")
            .map(|e| {
                let v = fhdnn_telemetry::jsonl::parse(&e.to_json()).unwrap();
                v.get("fields")
                    .and_then(|f| f.get("delta"))
                    .and_then(fhdnn_telemetry::jsonl::Value::as_f64)
                    .unwrap() as u64
            })
            .sum();
        assert!(overhead > 0, "overhead counter must meter emission");
    }

    #[test]
    fn disabled_recorder_matches_enabled_run() {
        // Health bookkeeping must not perturb the seeded RNG stream: the
        // same federation with and without a recorder produces identical
        // round metrics.
        let (clients, test, k) = encoded_clients(4, 9);
        let run = |instrument: bool| {
            let global = HdModel::new(k, DIM).unwrap();
            let mut fed = HdFederation::new(
                global,
                clients.clone(),
                config(4, 3),
                HdTransport::Quantized { bitwidth: 8 },
            )
            .unwrap();
            if instrument {
                fed.set_telemetry(Recorder::in_memory());
            }
            fed.run(&NoiselessChannel::new(), &test, "det").unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The tentpole invariant: the parallel engine is a pure wall-clock
        // knob. Same seed, different pool widths, identical history and
        // byte-identical final prototypes.
        let (clients, test, k) = encoded_clients(4, 10);
        let run = |threads: usize| {
            let global = HdModel::new(k, DIM).unwrap();
            let mut fed = HdFederation::new(
                global,
                clients.clone(),
                config(4, 3),
                HdTransport::Quantized { bitwidth: 8 },
            )
            .unwrap();
            fed.set_straggler_prob(0.3).unwrap();
            fed.set_threads(threads);
            let history = fed.run(&NoiselessChannel::new(), &test, "par").unwrap();
            let protos: Vec<u32> = fed
                .global()
                .prototypes()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (history, protos, fed.channel_stats())
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            assert_eq!(
                serial.0, parallel.0,
                "history diverged at {threads} threads"
            );
            assert_eq!(
                serial.1, parallel.1,
                "prototype bits diverged at {threads} threads"
            );
            assert_eq!(
                serial.2, parallel.2,
                "channel stats diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let (mut clients, _test, k) = encoded_clients(4, 3);
        clients[0].hypervectors = Tensor::zeros(&[clients[0].len(), DIM / 2]);
        let global = HdModel::new(k, DIM).unwrap();
        assert!(HdFederation::new(global, clients, config(4, 2), HdTransport::Float).is_err());
    }
}
