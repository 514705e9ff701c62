//! Federated bundling over HD models — FHDnn's aggregation (paper §3.4.2).
//!
//! Clients hold *pre-encoded* hypervectors: the CNN feature extractor is
//! frozen and never transmitted, so encoding happens once per client and
//! only the HD model `C = [c_1; …; c_K]` crosses the network. The round
//! protocol itself lives in the crate-private `round` module; this module
//! supplies the two HD rules it drives:
//!
//! - **Dense** ([`HdTransport::Float`] / [`HdTransport::Quantized`]) —
//!   each client sets its model to the global one and trains for `E`
//!   epochs (one-shot bundling on first contact, then iterative
//!   refinement); the server bundles the received models, averaging over
//!   participants: cosine inference is scale-invariant, so this matches
//!   the paper's sum (Eq. 1) while keeping float magnitudes bounded over
//!   hundreds of rounds.
//! - **Binary** ([`HdTransport::Binary`]) — a separate *integer* engine:
//!   clients refine `i32` sign-counter prototypes, the wire carries the
//!   bit-packed sign words directly (no float detour), and the server
//!   folds a majority vote per dimension. [`HdExecution`] selects, once at
//!   construction, between the SIMD-backed packed learner — which keeps
//!   the global model as counters and sign words for the life of the
//!   federation and converts nothing per round — and the element-wise
//!   reference oracle, which casts the float global every round; both
//!   produce bit-identical campaigns (`tests/parity.rs`).

use fhdnn_channel::lte::LteLink;
use fhdnn_channel::Channel;
use fhdnn_hdc::health::BinaryRoundHealth;
use fhdnn_hdc::model::HdModel;
use fhdnn_hdc::packed::{
    pack_signs_i32, reference::ReferenceHdModel, words_for, NarrowView, PackedBatch,
    PackedClientModel, PackedHdModel,
};
use fhdnn_hdc::quantizer::{dequantize_into, quantize};
use fhdnn_hdc::simd::NARROW_MAX;
use fhdnn_telemetry::Recorder;
use fhdnn_tensor::Tensor;
use rand::rngs::StdRng;

use crate::config::{FlConfig, HdExecution};
use crate::cost::hd_refine_flops;
use crate::health::{elementwise_delta_into, norm_stats, SATURATION_EPSILON};
use crate::metrics::{RoundMetrics, RunHistory};
use crate::round::{
    claim, driver_accessors, Algorithm, FloatHealth, ModelHealth, RoundDriver, Uplink,
};
use crate::{FedError, Result};

/// How an HD model is serialized on the uplink.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    driver: RoundDriver,
    engine: HdEngine,
}

/// The HD rule this federation runs, chosen once in [`HdFederation::new`]
/// from the transport and `config.execution`.
#[derive(Debug)]
enum HdEngine {
    Dense(Hd<Dense>),
    /// Boxed: its integer health views make it the largest by far.
    Packed(Box<Hd<Packed>>),
    Reference(Hd<Reference>),
}

/// What the HD rules share, and the [`Algorithm`] the driver sees: the
/// global model (float prototypes — under the binary rules the published
/// view of integer majority-vote counts, rewritten by every vote), the
/// clients, the wire format and the round's arrivals.
#[derive(Debug)]
struct Hd<R: HdRule> {
    global: HdModel,
    clients: Vec<HdClientData>,
    transport: HdTransport,
    local_epochs: usize,
    rule: R,
    received: Vec<R::Update>,
    /// Whether this round's health is the rule's own reading
    /// ([`HdRule::own_health`]) of the arrivals `kept` names, not the
    /// float one of `baseline` and `float`.
    own_health: bool,
    /// Per delta slot, the arrival in `received` it keeps.
    kept: Vec<usize>,
    /// The round-start prototypes client deltas and the sign-flip rate
    /// are measured against: refreshed in place in a recorded round whose
    /// health is read the float way, empty otherwise.
    baseline: Vec<f32>,
    float: FloatHealth,
}

/// What differs between the HD rules.
trait HdRule: Sync {
    /// A client's working copy of the model.
    type Local;
    /// What reaches the server from one client.
    type Update: Send + Sync + std::fmt::Debug;

    /// Fixes the form in which `global` is broadcast this round. A rule
    /// that will read a `recorded` round's health off its own state
    /// returns `true`: [`Hd`] then keeps the arrivals for
    /// [`HdRule::own_health`] instead of a float baseline and deltas.
    fn begin_round(&mut self, _global: &HdModel, _recorded: bool) -> bool {
        false
    }
    /// A client's copy of the broadcast model.
    fn broadcast(&self, global: &HdModel) -> Result<Self::Local>;
    /// `epochs` of local training on `client`'s `data`.
    fn train(
        &self,
        client: usize,
        data: &HdClientData,
        local: &mut Self::Local,
        epochs: usize,
    ) -> Result<()>;
    /// Serializes the trained model and sends it through the uplink.
    fn transmit(&self, local: Self::Local, up: &mut Uplink<'_>) -> Result<Self::Update>;
    /// The update's delta from `baseline`, in its wire view, written
    /// over `out`.
    fn delta(update: &Self::Update, baseline: &[f32], out: &mut Vec<f32>);
    /// The new global model from the arrived updates, in arrival order.
    fn aggregate(&mut self, received: &[Self::Update], global: &mut HdModel) -> Result<()>;
    /// Test accuracy of `global`.
    fn accuracy(&mut self, global: &HdModel, test: &HdClientData) -> Result<f32>;
    /// After the vote of a round whose `begin_round` returned `true`: the
    /// model's geometry, its sign-flip rate against the round's start and
    /// the `kept` arrivals' distances from the aggregate delta, each bit
    /// for bit what the float kernels give on [`HdRule::delta`]s. `None`
    /// from a rule that never returns `true` there.
    fn own_health(
        &mut self,
        _kept: &mut dyn Iterator<Item = &Self::Update>,
    ) -> Option<BinaryRoundHealth> {
        None
    }
}

impl<R: HdRule> Hd<R> {
    fn new(
        global: HdModel,
        clients: Vec<HdClientData>,
        transport: HdTransport,
        local_epochs: usize,
        rule: R,
    ) -> Self {
        Hd {
            global,
            clients,
            transport,
            local_epochs,
            rule,
            received: Vec::new(),
            own_health: false,
            kept: Vec::new(),
            baseline: Vec::new(),
            float: FloatHealth::default(),
        }
    }
}

impl<R: HdRule> Algorithm for Hd<R> {
    type Test = HdClientData;
    type Local = R::Local;
    type Update = R::Update;
    const ENGINE: &'static str = "fedhd";

    fn update_bytes(&self) -> u64 {
        self.transport
            .update_bytes(self.global.num_classes(), self.global.dim())
    }

    /// The server broadcasts float prototypes over a reliable downlink
    /// (base stations transmit at much higher power than devices — the
    /// paper models the uplink as the lossy direction).
    fn downlink_bytes(&self) -> u64 {
        self.global.num_params() as u64 * 4
    }

    fn client_flops(&self, client: usize) -> u64 {
        let (classes, dim) = (self.global.num_classes() as u64, self.global.dim() as u64);
        hd_refine_flops(self.clients[client].len() as u64, classes, dim) * self.local_epochs as u64
    }

    fn packed_uplink_words(&self) -> u64 {
        match self.transport {
            HdTransport::Binary => {
                (self.global.num_classes() * words_for(self.global.dim())) as u64
            }
            HdTransport::Float | HdTransport::Quantized { .. } => 0,
        }
    }

    fn begin_round(&mut self, _round: usize, tel: &Recorder) -> Result<()> {
        // Pure reads — the seeded RNG streams are untouched, so runs
        // with and without a recorder stay identical.
        self.own_health = self.rule.begin_round(&self.global, tel.enabled());
        let float = tel.enabled() && !self.own_health;
        self.float.begin_round(float);
        self.baseline.clear();
        if float {
            self.baseline
                .extend_from_slice(self.global.prototypes().as_slice());
        } else {
            self.baseline.shrink_to_fit();
        }
        self.received.clear();
        self.kept.clear();
        Ok(())
    }

    fn broadcast(&self, _client: usize) -> Result<R::Local> {
        self.rule.broadcast(&self.global)
    }

    fn local_update(&self, client: usize, local: &mut R::Local, _rng: &mut StdRng) -> Result<()> {
        let data = &self.clients[client];
        self.rule.train(client, data, local, self.local_epochs)
    }

    fn transmit(&self, local: R::Local, up: &mut Uplink<'_>) -> Result<R::Update> {
        self.rule.transmit(local, up)
    }

    fn fold(&mut self, _client: usize, update: R::Update, slot: Option<usize>) {
        match slot {
            Some(slot) if self.own_health => claim(&mut self.kept, slot, self.received.len()),
            Some(slot) => R::delta(&update, &self.baseline, self.float.slot(slot)),
            None => {}
        }
        self.received.push(update);
    }

    fn finish_aggregate(&mut self) -> Result<()> {
        let done = self.rule.aggregate(&self.received, &mut self.global);
        // The rule's own health reads the arrivals once more.
        if !self.own_health {
            self.received.clear();
        }
        done
    }

    fn evaluate(&mut self, test: &HdClientData) -> Result<f32> {
        self.rule.accuracy(&self.global, test)
    }

    fn health(&mut self) -> Result<ModelHealth> {
        let saturation = match self.transport {
            HdTransport::Quantized { bitwidth } => {
                fhdnn_hdc::health::saturation_fraction(&self.global, bitwidth, SATURATION_EPSILON)?
                    as f64
            }
            // Float transmits no quantized counters; Binary carries raw
            // sign bits (saturation is meaningless).
            HdTransport::Float | HdTransport::Binary => 0.0,
        };
        let mut kept = self.kept.iter().map(|&at| &self.received[at]);
        let (geometry, sign_flip_rate, distances) = match self.rule.own_health(&mut kept) {
            Some(read) => (read.geometry, read.sign_flip_rate as f64, read.distances),
            None => {
                // One pass over the prototypes: every class's `Σx²` is
                // taken once and serves its norm and all of its pairs.
                let geometry = fhdnn_hdc::health::class_geometry(&self.global);
                let params = self.global.prototypes().as_slice();
                let (sign_flip_rate, distances) = self.float.finish(params, &self.baseline);
                (geometry, sign_flip_rate, distances)
            }
        };
        self.received.clear();
        Ok(ModelHealth {
            norms: norm_stats(&geometry.norms),
            saturation,
            cosine_margin: geometry.cosine_margin as f64,
            sign_flip_rate,
            distances,
        })
    }
}

/// The dense rule: float prototypes refined locally, sent raw or through
/// the AGC quantizer, bundled and averaged.
#[derive(Debug)]
struct Dense {
    /// `Some(B)` sends `B`-bit quantized words, `None` raw floats.
    bitwidth: Option<u32>,
    adaptive_lr: Option<f32>,
}

impl HdRule for Dense {
    type Local = HdModel;
    type Update = HdModel;

    fn broadcast(&self, global: &HdModel) -> Result<HdModel> {
        Ok(global.clone())
    }

    fn train(
        &self,
        _client: usize,
        data: &HdClientData,
        local: &mut HdModel,
        epochs: usize,
    ) -> Result<()> {
        // An untrained (all-zero) model bootstraps by one-shot bundling;
        // afterwards the paper's refinement loop takes over.
        let untrained = local.prototypes().as_slice().iter().all(|&v| v == 0.0);
        if untrained {
            local.one_shot_train(&data.hypervectors, &data.labels)?;
        }
        for _ in 0..epochs {
            match self.adaptive_lr {
                Some(lr) => local.refine_epoch_adaptive(&data.hypervectors, &data.labels, lr)?,
                None => local.refine_epoch(&data.hypervectors, &data.labels)?,
            };
        }
        Ok(())
    }

    fn transmit(&self, mut model: HdModel, up: &mut Uplink<'_>) -> Result<HdModel> {
        let Some(bitwidth) = self.bitwidth else {
            let span = up.buf.begin("chan.uplink");
            let payload = model.prototypes_mut().as_mut_slice();
            up.channel.transmit_f32_stats(payload, up.rng, up.stats);
            up.buf.end(span);
            return Ok(model);
        };
        // `quantize_instrumented` rebuilt on the task buffer: the same
        // `hdc.quantize` span and extreme-word counters.
        let span = up.buf.begin("hdc.quantize");
        let mut q = quantize(&model, bitwidth)?;
        if up.buf.enabled() {
            let max_word = q.max_word();
            let saturated = q.words.iter().filter(|w| w.abs() == max_word).count() as u64;
            let zeroed = q.words.iter().filter(|&&w| w == 0).count() as u64;
            up.buf.incr("hdc.quant.saturated_words", saturated);
            up.buf.incr("hdc.quant.zeroed_words", zeroed);
        }
        up.buf.end(span);
        let span = up.buf.begin("chan.uplink");
        up.channel
            .transmit_words_stats(&mut q.words, bitwidth, up.rng, up.stats);
        up.buf.end(span);
        dequantize_into(&q, &mut model)?;
        Ok(model)
    }

    fn delta(update: &HdModel, baseline: &[f32], out: &mut Vec<f32>) {
        elementwise_delta_into(update.prototypes().as_slice(), baseline, out);
    }

    /// Bundle then normalize by the arrival count: cosine inference is
    /// scale-invariant, so mean == the paper's sum, numerically tame.
    fn aggregate(&mut self, received: &[HdModel], global: &mut HdModel) -> Result<()> {
        let mut bundled = HdModel::bundle(received)?;
        bundled.scale(1.0 / received.len() as f32);
        *global = bundled;
        Ok(())
    }

    fn accuracy(&mut self, global: &HdModel, test: &HdClientData) -> Result<f32> {
        Ok(global.accuracy(&test.hypervectors, &test.labels)?)
    }
}

/// One binary update straight off the wire: per class a row of
/// `words_for(dim)` sign words, plus a parallel erasure bitmask (set bit =
/// dimension lost in transit, abstains from the majority vote).
#[derive(Debug)]
struct SignRows {
    words: Vec<u64>,
    erased: Vec<u64>,
    dim: usize,
}

impl SignRows {
    /// Pushes packed sign rows through the channel's packed route — the
    /// wire format *is* the in-memory representation.
    fn send(mut words: Vec<u64>, dim: usize, up: &mut Uplink<'_>) -> SignRows {
        let stride = words_for(dim);
        let mut erased = vec![0u64; words.len()];
        let span = up.buf.begin("chan.uplink");
        for (words, erased) in words.chunks_mut(stride).zip(erased.chunks_mut(stride)) {
            up.channel
                .transmit_packed_stats(words, erased, dim, up.rng, up.stats);
        }
        up.buf.end(span);
        SignRows { words, erased, dim }
    }

    /// Class `c`'s sign words and erasure mask.
    fn row(&self, c: usize) -> (&[u64], &[u64]) {
        let stride = words_for(self.dim);
        let row = c * stride..(c + 1) * stride;
        (&self.words[row.clone()], &self.erased[row])
    }

    /// Binary updates diverge as their ±1/0 sign view (0 for erased
    /// dimensions) — the dense magnitude never crossed the wire, so
    /// diagnosing against it would be fiction. `out[i] = view[i] −
    /// baseline[i]`, a byte of sign bits at a time ([`expand_byte`]).
    fn delta_into(&self, baseline: &[f32], out: &mut Vec<f32>) {
        let stride = words_for(self.dim);
        let classes = self.words.len() / stride;
        assert_eq!(
            baseline.len(),
            classes * self.dim,
            "sign rows and baseline are one model shape"
        );
        // Every value is written below; only a first use grows the buffer.
        out.resize(baseline.len(), 0.0);
        let rows = out.chunks_exact_mut(self.dim);
        let rows = rows.zip(baseline.chunks_exact(self.dim));
        let wire = self.words.chunks_exact(stride);
        let wire = wire.zip(self.erased.chunks_exact(stride));
        for ((out, baseline), (words, erased)) in rows.zip(wire) {
            // Dimension `i` is bit `i % 8` of the row's `i / 8`-th byte.
            let mut bytes = words.iter().zip(erased).flat_map(|(word, erased)| {
                word.to_le_bytes().into_iter().zip(erased.to_le_bytes())
            });
            let (out, out_cut) = out.as_chunks_mut::<8>();
            let (baseline, baseline_cut) = baseline.as_chunks::<8>();
            for ((out, baseline), (signs, erased)) in out.iter_mut().zip(baseline).zip(&mut bytes) {
                expand_byte(out, baseline, signs, erased);
            }
            // `dim` may cut the last byte short.
            if let Some((signs, erased)) = bytes.next() {
                expand_byte(out_cut, baseline_cut, signs, erased);
            }
        }
    }
}

/// `out[b] = view[b] − baseline[b]` for up to eight dimensions of a sign
/// row: `+1.0` where `signs` has bit `b` set and `-1.0` where it does
/// not, `+0.0` where `erased` has it set.
fn expand_byte(out: &mut [f32], baseline: &[f32], signs: u8, erased: u8) {
    let signs = &SIGN_VIEW[usize::from(signs)];
    let erased = &SIGN_VIEW[usize::from(erased)];
    for (((out, &base), &sign), &erased) in out.iter_mut().zip(baseline).zip(signs).zip(erased) {
        // A live dimension reads `-1.0` off the erasure byte: its sign
        // bit, smeared over the word, keeps every bit of `sign`; an
        // erased one reads `+1.0` and keeps none, which is `+0.0`.
        let live = (erased.to_bits() as i32 >> 31) as u32;
        *out = f32::from_bits(sign.to_bits() & live) - base;
    }
}

/// `SIGN_VIEW[byte][bit]` is `+1.0` where `byte` has `bit` set and `-1.0`
/// where it does not.
static SIGN_VIEW: [[f32; 8]; 256] = {
    let mut table = [[-1.0f32; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][bit] = 1.0;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The float global model cast to the integer counters the binary rules
/// work on (lossless once a vote has written it, see [`Hd`]): once at
/// construction under [`Packed`], every round under [`Reference`].
#[derive(Debug, Default)]
struct Counters {
    counts: Vec<i32>,
    /// All zero: clients bootstrap by one-shot bundling before the
    /// paper's refinement loop takes over.
    untrained: bool,
}

impl Counters {
    fn of(global: &HdModel) -> Self {
        let protos = global.prototypes().as_slice();
        let counts: Vec<i32> = protos.iter().map(|&v| v as i32).collect();
        let untrained = counts.iter().all(|&v| v == 0);
        Counters { counts, untrained }
    }
}

/// The vote counts become the new global verbatim — sign-dot inference
/// is scale-invariant, so the 1/n normalization of the dense rule is
/// unnecessary and would destroy integer exactness.
fn store_votes(protos: &mut [f32], votes: &[i32]) {
    for (dst, &v) in protos.iter_mut().zip(votes) {
        *dst = v as f32;
    }
}

/// The binary rule on the SIMD hot path. The global model lives here as
/// the engine uses it — `i32` counters and their sign words, built once
/// from the initial float model — and no round converts it: clients are
/// handed the sign words and copy a class's counters when they first
/// refine it, over hypervectors bit-packed once at construction; the
/// server folds the per-dimension majority vote back into the resident
/// counters and writes the float model of [`Hd`] as their published view.
#[derive(Debug)]
struct Packed {
    batches: Vec<PackedBatch>,
    /// The global model. Its counters equal the `as i32` cast of
    /// [`Hd`]'s float prototypes between rounds: both are written only by
    /// `aggregate`, together.
    model: PackedHdModel,
    /// `model` is all zero: clients bootstrap by one-shot bundling before
    /// the paper's refinement loop takes over.
    untrained: bool,
    /// The test set as last evaluated, re-packed every round over the
    /// same words.
    test: PackedBatch,
    /// The published float view holds exactly the values of `model`'s
    /// counters: from the first vote on, and before it if the initial
    /// global was integral. Until then health is read off the float view,
    /// fractions and all.
    published_exact: bool,
    /// Participants per round: no vote count can exceed it.
    cohort: usize,
    /// `model` as a recorded round began, and after its vote: the integer
    /// view health is read off. Both empty without a recorder and in a
    /// round that reads health the float way.
    start: NarrowView,
    voted: NarrowView,
}

impl HdRule for Packed {
    type Local = PackedClientModel;
    type Update = SignRows;

    /// Health is read off the integer view when that view is the whole
    /// truth and fits the `i16` kernels: the published model is the
    /// counters, the counters narrow, and so will any count this round's
    /// cohort can vote.
    fn begin_round(&mut self, global: &HdModel, recorded: bool) -> bool {
        debug_assert!(
            global
                .prototypes()
                .as_slice()
                .iter()
                .zip(self.model.protos())
                .all(|(&published, &resident)| published as i32 == resident),
            "the resident counters are the cast of the published global"
        );
        let narrow = recorded
            && self.published_exact
            && self.cohort <= NARROW_MAX as usize
            && self.model.narrow_into(&mut self.start);
        if !narrow {
            (self.start, self.voted) = Default::default();
        }
        narrow
    }

    fn broadcast(&self, _global: &HdModel) -> Result<PackedClientModel> {
        Ok(PackedClientModel::of(&self.model))
    }

    fn train(
        &self,
        client: usize,
        data: &HdClientData,
        local: &mut PackedClientModel,
        epochs: usize,
    ) -> Result<()> {
        let batch = &self.batches[client];
        if self.untrained {
            local.one_shot_train(&self.model, batch, &data.labels)?;
        }
        for _ in 0..epochs {
            local.refine_epoch(&self.model, batch, &data.labels)?;
        }
        Ok(())
    }

    fn transmit(&self, local: PackedClientModel, up: &mut Uplink<'_>) -> Result<SignRows> {
        // The packed rows are already the wire payload: they move onto
        // the wire as they are.
        Ok(SignRows::send(local.into_words(), self.model.dim(), up))
    }

    fn delta(update: &SignRows, baseline: &[f32], out: &mut Vec<f32>) {
        update.delta_into(baseline, out);
    }

    /// One class at a time: the row's votes are summed where the row
    /// lives, its signs re-derived, its float view written — the counts
    /// are exact integers, so taking the arrivals row by row instead of
    /// update by update changes no bit.
    fn aggregate(&mut self, received: &[SignRows], global: &mut HdModel) -> Result<()> {
        let dim = global.dim();
        let protos = global.prototypes_mut().as_mut_slice();
        self.untrained = true;
        for (c, published) in protos.chunks_exact_mut(dim).enumerate() {
            let votes = self
                .model
                .revote_row(c, received.iter().map(|rows| rows.row(c)));
            self.untrained &= votes.iter().all(|&v| v == 0);
            store_votes(published, votes);
        }
        self.published_exact = true;
        Ok(())
    }

    fn accuracy(&mut self, _global: &HdModel, test: &HdClientData) -> Result<f32> {
        // Packed anew every round: the caller owns the test set and may
        // have changed it since the last one.
        self.test.pack_tensor(&test.hypervectors)?;
        Ok(self.model.accuracy(&self.test, &test.labels)? as f32)
    }

    fn own_health(
        &mut self,
        kept: &mut dyn Iterator<Item = &SignRows>,
    ) -> Option<BinaryRoundHealth> {
        if self.start.is_empty() {
            return None;
        }
        let narrowed = self.model.narrow_into(&mut self.voted);
        assert!(
            narrowed,
            "a vote count is at most the cohort, which narrows"
        );
        let arrivals = kept.map(|rows| (&rows.words[..], &rows.erased[..]));
        Some(fhdnn_hdc::health::binary_round(
            &self.voted,
            &self.start,
            arrivals,
        ))
    }
}

/// The binary rule on the element-wise `i32` oracle: the same integer
/// algorithm and identical wire words as [`Packed`] (`tests/parity.rs`
/// pins that bit-for-bit), over ±1 integer hypervectors.
#[derive(Debug)]
struct Reference {
    vectors: Vec<Vec<Vec<i32>>>,
    broadcast: Counters,
}

impl Reference {
    fn model(counts: Vec<i32>, global: &HdModel) -> ReferenceHdModel {
        ReferenceHdModel {
            protos: counts,
            num_classes: global.num_classes(),
            dim: global.dim(),
        }
    }
}

impl HdRule for Reference {
    type Local = ReferenceHdModel;
    type Update = SignRows;

    fn begin_round(&mut self, global: &HdModel, _recorded: bool) -> bool {
        self.broadcast = Counters::of(global);
        false
    }

    fn broadcast(&self, global: &HdModel) -> Result<ReferenceHdModel> {
        Ok(Self::model(self.broadcast.counts.clone(), global))
    }

    fn train(
        &self,
        client: usize,
        data: &HdClientData,
        local: &mut ReferenceHdModel,
        epochs: usize,
    ) -> Result<()> {
        let vectors = &self.vectors[client];
        if self.broadcast.untrained {
            local.one_shot_train(vectors, &data.labels);
        }
        for _ in 0..epochs {
            local.refine_epoch(vectors, &data.labels);
        }
        Ok(())
    }

    fn transmit(&self, local: ReferenceHdModel, up: &mut Uplink<'_>) -> Result<SignRows> {
        let mut words = Vec::with_capacity(local.num_classes * words_for(local.dim));
        for row in local.protos.chunks(local.dim) {
            words.extend_from_slice(&pack_signs_i32(row));
        }
        Ok(SignRows::send(words, local.dim, up))
    }

    fn delta(update: &SignRows, baseline: &[f32], out: &mut Vec<f32>) {
        update.delta_into(baseline, out);
    }

    fn aggregate(&mut self, received: &[SignRows], global: &mut HdModel) -> Result<()> {
        let dim = global.dim();
        let mut votes = vec![0i32; global.num_params()];
        for rows in received {
            for (c, votes) in votes.chunks_mut(dim).enumerate() {
                let (words, erased) = rows.row(c);
                fhdnn_hdc::simd::scalar::vote_pm1_masked(votes, words, erased);
            }
        }
        store_votes(global.prototypes_mut().as_mut_slice(), &votes);
        Ok(())
    }

    fn accuracy(&mut self, global: &HdModel, test: &HdClientData) -> Result<f32> {
        let model = Self::model(Counters::of(global).counts, global);
        Ok(model.accuracy(&test.hypervectors, &test.labels)? as f32)
    }
}

/// The ±1 sign view (`sign(0) = +1`) of each row of `[m, dim]` encodings.
fn sign_rows(hypervectors: &Tensor) -> Result<Vec<Vec<i32>>> {
    (0..hypervectors.dims()[0])
        .map(|r| {
            let row = hypervectors.row(r)?;
            Ok(row.iter().map(|&v| if v >= 0.0 { 1 } else { -1 }).collect())
        })
        .collect()
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
        // FHDnn transmits uncoded: the paper's error-admitting link.
        let driver = RoundDriver::new(config, clients.len(), LteLink::error_admitting())?;
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
        if transport == HdTransport::Binary {
            // The integer learners index prototypes by label directly, so
            // range-check up front (the dense rule defers this to
            // `HdModel::one_shot_train`).
            for (i, c) in clients.iter().enumerate() {
                if let Some(&bad) = c.labels.iter().find(|&&l| l >= global.num_classes()) {
                    return Err(FedError::InvalidArgument(format!(
                        "client {i}: label {bad} out of range for {} classes",
                        global.num_classes()
                    )));
                }
            }
        }
        let epochs = config.local_epochs;
        let dense = |global, clients, bitwidth| {
            let rule = Dense {
                bitwidth,
                adaptive_lr: None,
            };
            HdEngine::Dense(Hd::new(global, clients, transport, epochs, rule))
        };
        let engine = match (transport, config.execution) {
            (HdTransport::Float, _) => dense(global, clients, None),
            (HdTransport::Quantized { bitwidth }, _) => dense(global, clients, Some(bitwidth)),
            (HdTransport::Binary, HdExecution::Packed) => {
                let batches = clients
                    .iter()
                    .map(|c| PackedBatch::from_tensor(&c.hypervectors))
                    .collect::<fhdnn_hdc::Result<_>>()?;
                // The one cast of the packed engine's life: a pre-trained
                // or non-integer initial global enters exactly as a
                // per-round cast would have read it.
                let initial = Counters::of(&global);
                // Whether that cast lost anything: a vote writes integers,
                // a caller may have handed in fractions.
                let published = global.prototypes().as_slice().iter();
                let published_exact = published
                    .zip(&initial.counts)
                    .all(|(&v, &count)| v == count as f32);
                let rule = Packed {
                    batches,
                    model: PackedHdModel::from_counts(
                        initial.counts,
                        global.num_classes(),
                        global.dim(),
                    )?,
                    untrained: initial.untrained,
                    test: PackedBatch::default(),
                    published_exact,
                    cohort: config.participants_per_round(),
                    start: NarrowView::default(),
                    voted: NarrowView::default(),
                };
                HdEngine::Packed(Box::new(Hd::new(global, clients, transport, epochs, rule)))
            }
            (HdTransport::Binary, HdExecution::Reference) => {
                let vectors = clients
                    .iter()
                    .map(|c| sign_rows(&c.hypervectors))
                    .collect::<Result<_>>()?;
                let rule = Reference {
                    vectors,
                    broadcast: Counters::default(),
                };
                HdEngine::Reference(Hd::new(global, clients, transport, epochs, rule))
            }
        };
        Ok(HdFederation { driver, engine })
    }

    driver_accessors!();

    /// Switches local refinement to the adaptive (OnlineHD-style)
    /// confidence-weighted rule with the given learning rate; `None`
    /// restores the paper's unit-step refinement. The binary transport's
    /// integer refinement has no step size and ignores it.
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
        if let HdEngine::Dense(hd) = &mut self.engine {
            hd.rule.adaptive_lr = lr;
        }
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
        self.driver.straggler_prob = prob;
        Ok(())
    }

    /// The global HD model.
    pub fn global(&self) -> &HdModel {
        match &self.engine {
            HdEngine::Dense(hd) => &hd.global,
            HdEngine::Packed(hd) => &hd.global,
            HdEngine::Reference(hd) => &hd.global,
        }
    }

    /// Upload size of one client update in bytes.
    pub fn update_bytes(&self) -> u64 {
        match &self.engine {
            HdEngine::Dense(hd) => hd.update_bytes(),
            HdEngine::Packed(hd) => hd.update_bytes(),
            HdEngine::Reference(hd) => hd.update_bytes(),
        }
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
        match &mut self.engine {
            HdEngine::Dense(hd) => self.driver.run_round(hd, channel, test),
            HdEngine::Packed(hd) => self.driver.run_round(hd.as_mut(), channel, test),
            HdEngine::Reference(hd) => self.driver.run_round(hd, channel, test),
        }
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
        for _ in 0..self.driver.rounds() {
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
    use rand::SeedableRng;

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

    /// The per-element expansion `SignRows::delta_into` replaced, kept
    /// verbatim as its oracle: a divide and a modulo per dimension into a
    /// sign view, then a second pass for the difference.
    fn reference_delta(rows: &SignRows, baseline: &[f32]) -> Vec<f32> {
        use fhdnn_hdc::packed::WORD_BITS;
        let mut view = vec![0.0f32; baseline.len()];
        for (c, view) in view.chunks_mut(rows.dim).enumerate() {
            let (words, erased) = rows.row(c);
            for (i, v) in view.iter_mut().enumerate() {
                let (w, b) = (i / WORD_BITS, i % WORD_BITS);
                *v = if erased[w] >> b & 1 == 1 {
                    0.0
                } else if words[w] >> b & 1 == 1 {
                    1.0
                } else {
                    -1.0
                };
            }
        }
        view.iter().zip(baseline).map(|(&x, &y)| x - y).collect()
    }

    #[test]
    fn sign_row_deltas_are_bit_identical_to_the_per_element_expansion() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        // One buffer throughout, as the driver reuses its own: stale
        // values of any earlier shape must all be written over.
        let mut out = Vec::new();
        for dim in [1, 7, 8, 9, 63, 64, 65, 1000, 10_000] {
            for classes in [1, 3, 26] {
                let stride = words_for(dim);
                // Vote counts with both zeros: `+0.0 − +0.0` and
                // `+0.0 − -0.0` are where an erased `-0.0` would show.
                let baseline: Vec<f32> = (0..classes * dim)
                    .map(|i| match i % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-6i32..=6) as f32,
                    })
                    .collect();
                // No erasures, all erased, and a random mask; the bits
                // past `dim` in a row's last word are noise either way.
                for mask in [0, u64::MAX, 1] {
                    let rows = SignRows {
                        words: (0..classes * stride).map(|_| rng.gen()).collect(),
                        erased: (0..classes * stride)
                            .map(|_| if mask == 1 { rng.gen() } else { mask })
                            .collect(),
                        dim,
                    };
                    rows.delta_into(&baseline, &mut out);
                    let want = reference_delta(&rows, &baseline);
                    assert_eq!(out.len(), want.len());
                    for (at, (got, want)) in out.iter().zip(&want).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "dim={dim} classes={classes} mask={mask:#x}: value {at} is {got}, \
                             the per-element expansion gives {want}"
                        );
                    }
                }
            }
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
            (history, global_bits(&fed), fed.channel_stats())
        };
        let packed = run(HdExecution::Packed);
        let reference = run(HdExecution::Reference);
        assert_eq!(packed.0, reference.0, "histories diverged");
        assert_eq!(packed.1, reference.1, "prototype bits diverged");
        assert_eq!(packed.2, reference.2, "channel stats diverged");
    }

    /// Prototype bits of the published global model.
    fn global_bits(fed: &HdFederation) -> Vec<u32> {
        let protos = fed.global().prototypes().as_slice();
        protos.iter().map(|v| v.to_bits()).collect()
    }

    /// The packed rule's bootstrap flag.
    fn untrained(fed: &HdFederation) -> bool {
        match &fed.engine {
            HdEngine::Packed(hd) => hd.rule.untrained,
            _ => panic!("not the packed engine"),
        }
    }

    /// One binary federation per execution over the same clients and
    /// initial model, driven through the same `rounds`; every round both
    /// must agree on the metrics, the global's bits and the channel
    /// damage. The packed rule's `begin_round` asserts on the way that
    /// its resident counters are the cast of the published global.
    fn packed_and_reference_agree(
        initial: &HdModel,
        straggler_prob: f64,
        rounds: &[&dyn Channel],
        mut after_round: impl FnMut(usize, &HdFederation),
    ) -> HdFederation {
        let (clients, test, _) = encoded_clients(4, 12);
        let mut feds = [HdExecution::Packed, HdExecution::Reference].map(|execution| {
            let cfg = FlConfig {
                execution,
                ..config(4, rounds.len())
            };
            let mut fed =
                HdFederation::new(initial.clone(), clients.clone(), cfg, HdTransport::Binary)
                    .unwrap();
            fed.set_straggler_prob(straggler_prob).unwrap();
            fed
        });
        for (round, &channel) in rounds.iter().enumerate() {
            let [packed, reference] = &mut feds;
            let metrics = packed.run_round(channel, &test).unwrap();
            assert_eq!(
                metrics.test_accuracy,
                reference.run_round(channel, &test).unwrap().test_accuracy,
                "round {round}: accuracy"
            );
            assert_eq!(
                global_bits(packed),
                global_bits(reference),
                "round {round}: global"
            );
            assert_eq!(
                packed.channel_stats(),
                reference.channel_stats(),
                "round {round}: channel damage"
            );
            after_round(round, packed);
        }
        let [packed, _] = feds;
        packed
    }

    #[test]
    fn resident_counters_survive_a_round_without_arrivals() {
        let clean: &dyn Channel = &NoiselessChannel::new();
        let initial = HdModel::new(5, DIM).unwrap();
        let mut bits = Vec::new();
        // Everyone straggles (as good as surely): the driver skips
        // `aggregate`, so neither form of the global may move.
        let fed = packed_and_reference_agree(&initial, 1.0 - 1e-12, &[clean; 2], |_, fed| {
            assert!(untrained(fed), "nothing arrived, nothing was voted");
            bits.push(global_bits(fed));
        });
        assert!(bits.iter().all(|b| b.iter().all(|&v| v == 0)));
        assert_eq!(fed.channel_stats().transmissions, 0);
    }

    #[test]
    fn resident_counters_enter_as_the_per_round_cast_would_read_them() {
        let clean: &dyn Channel = &NoiselessChannel::new();
        // A global that two rounds have trained...
        let blank = HdModel::new(5, DIM).unwrap();
        let trained = packed_and_reference_agree(&blank, 0.0, &[clean; 2], |_, _| {});
        let mut initials = vec![trained.global().clone()];
        // ...and one no vote could have written: fractions on both sides
        // of zero, values that truncate to zero, a negative zero.
        let mut fractional = trained.global().clone();
        let values = fractional.prototypes_mut().as_mut_slice();
        for (i, v) in values.iter_mut().enumerate() {
            *v = [0.5, -0.5, 1.75, -2.25, -0.0, 3.0][i % 6] * (1 + i % 3) as f32;
        }
        initials.push(fractional);
        for initial in &initials {
            let before: Vec<u32> = initial
                .prototypes()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            // A round nobody reports from leaves the published view as it
            // was handed in, fractions and all; the next one votes.
            let lossy: &dyn Channel = &PacketLossChannel::new(0.1, 256).unwrap();
            let mut fed = packed_and_reference_agree(initial, 1.0 - 1e-12, &[lossy], |_, fed| {
                assert!(!untrained(fed), "a non-zero initial global is trained");
                assert_eq!(global_bits(fed), before);
            });
            fed.set_straggler_prob(0.0).unwrap();
            let (_, test, _) = encoded_clients(4, 12);
            fed.run_round(lossy, &test).unwrap();
            assert_ne!(global_bits(&fed), before);
            packed_and_reference_agree(initial, 0.3, &[lossy; 3], |_, _| {});
        }
    }

    #[test]
    fn bootstrap_stays_on_until_the_first_vote_lands() {
        // Round 0 loses every packet: all dimensions abstain, the vote is
        // all zero and clients must bootstrap again. Round 1 gets through.
        let black_hole = PacketLossChannel::new(1.0, 256).unwrap();
        let clean = NoiselessChannel::new();
        let initial = HdModel::new(5, DIM).unwrap();
        let rounds: [&dyn Channel; 3] = [&black_hole, &clean, &clean];
        packed_and_reference_agree(&initial, 0.0, &rounds, |round, fed| {
            assert_eq!(untrained(fed), round == 0, "after round {round}");
            let zero = global_bits(fed).iter().all(|&v| v == 0);
            assert_eq!(zero, round == 0, "after round {round}");
        });
    }

    /// Which way the packed federation read its last round's health, with
    /// the state each way must leave behind: the integer view and no
    /// float scratch, or the float baseline and no integer view — and
    /// neither without a recorder.
    fn health_reading(fed: &HdFederation) -> &'static str {
        let HdEngine::Packed(hd) = &fed.engine else {
            panic!("not the packed engine");
        };
        assert!(hd.received.is_empty(), "arrivals are dropped once read");
        let views = (hd.rule.start.is_empty(), hd.rule.voted.is_empty());
        match (hd.own_health, hd.baseline.is_empty()) {
            (true, true) => {
                assert_eq!(views, (false, false));
                assert!(hd.float.is_empty(), "no float scratch");
                "integer"
            }
            (false, false) => {
                assert_eq!(views, (true, true));
                "float"
            }
            (false, true) => {
                assert_eq!(views, (true, true));
                "none"
            }
            (true, false) => panic!("both a float baseline and an integer view"),
        }
    }

    /// A packed federation over the shared clients, recorded, and the
    /// way it read health in each of `stragglers.len()` rounds.
    fn health_readings(initial: HdModel, stragglers: &[f64]) -> Vec<&'static str> {
        let (clients, test, _) = encoded_clients(4, 12);
        let cfg = config(4, stragglers.len());
        let mut fed = HdFederation::new(initial, clients, cfg, HdTransport::Binary).unwrap();
        fed.set_telemetry(Recorder::in_memory());
        let lossy = PacketLossChannel::new(0.1, 256).unwrap();
        let read = |fed: &mut HdFederation, prob: f64| {
            fed.set_straggler_prob(prob).unwrap();
            fed.run_round(&lossy, &test).unwrap();
            health_reading(fed)
        };
        let readings = stragglers.iter().map(|&p| read(&mut fed, p)).collect();
        // Without a recorder nothing is kept, whatever was before.
        fed.set_telemetry(Recorder::disabled());
        assert_eq!(read(&mut fed, 0.0), "none");
        readings
    }

    #[test]
    fn packed_reads_health_off_the_integer_view_when_it_is_the_whole_truth() {
        let nobody = 1.0 - 1e-12;
        let blank = HdModel::new(5, DIM).unwrap();
        assert_eq!(
            health_readings(blank.clone(), &[0.0, nobody, 0.3]),
            ["integer"; 3]
        );
        // Fractions stay published until a vote replaces them, and the
        // round of that vote still measures against them.
        let mut fractional = blank.clone();
        for (i, v) in fractional
            .prototypes_mut()
            .as_mut_slice()
            .iter_mut()
            .enumerate()
        {
            *v = [0.5, -0.5, 1.75, -2.25, -0.0, 3.0][i % 6];
        }
        assert_eq!(
            health_readings(fractional, &[nobody, 0.0, 0.0]),
            ["float", "float", "integer"]
        );
        // Integers throughout, but the round that starts from counts the
        // `i16` kernels do not take reads the float way.
        let mut wide = blank.clone();
        for (i, v) in wide.prototypes_mut().as_mut_slice().iter_mut().enumerate() {
            *v = [1024.0, -5000.0, 0.0][i % 3];
        }
        assert_eq!(
            health_readings(wide, &[nobody, 0.0, 0.0]),
            ["float", "float", "integer"]
        );
        // The widest counts the kernels do take, and a negative zero.
        let mut edge = blank;
        for (i, v) in edge.prototypes_mut().as_mut_slice().iter_mut().enumerate() {
            *v = [1023.0, -1023.0, -0.0][i % 3];
        }
        assert_eq!(health_readings(edge, &[nobody, 0.0]), ["integer"; 2]);
    }

    #[test]
    fn a_cohort_that_could_outvote_the_narrow_range_reads_health_the_float_way() {
        use fhdnn_telemetry::sink::MemorySink;
        use std::sync::Arc;
        // One more participant than a narrowed vote count can hold, every
        // one of them sending the same row: the count does not narrow.
        let cohort = NARROW_MAX as usize + 1;
        let dim = 64;
        let data = HdClientData {
            hypervectors: Tensor::from_vec(vec![1.0; dim], &[1, dim]).unwrap(),
            labels: vec![0],
        };
        let run = |num_clients: usize, execution: HdExecution| {
            let cfg = FlConfig {
                num_clients,
                client_fraction: 1.0,
                execution,
                ..config(num_clients, 2)
            };
            let clients = vec![data.clone(); num_clients];
            let global = HdModel::new(2, dim).unwrap();
            let mut fed = HdFederation::new(global, clients, cfg, HdTransport::Binary).unwrap();
            let sink = Arc::new(MemorySink::new());
            fed.set_telemetry(Recorder::with_sink(sink.clone()));
            let mut readings = Vec::new();
            for _ in 0..2 {
                fed.run_round(&NoiselessChannel::new(), &data).unwrap();
                if execution == HdExecution::Packed {
                    readings.push(health_reading(&fed));
                }
            }
            let votes = fed.global().prototypes().as_slice()[0];
            let health: Vec<String> = sink
                .events()
                .iter()
                .filter(|e| e.name == "health.round")
                .map(|e| {
                    let mut fields = e.fields.clone();
                    fields.retain(|key, _| !key.starts_with("mem_"));
                    format!("{fields:?}")
                })
                .collect();
            (readings, votes, health)
        };
        let (readings, votes, health) = run(cohort, HdExecution::Packed);
        assert_eq!(readings, ["float"; 2]);
        assert_eq!(votes, cohort as f32);
        assert_eq!(health, run(cohort, HdExecution::Reference).2);
        let (readings, votes, health) = run(cohort - 1, HdExecution::Packed);
        assert_eq!(readings, ["integer"; 2]);
        assert_eq!(votes, NARROW_MAX as f32);
        assert_eq!(health, run(cohort - 1, HdExecution::Reference).2);
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
            (history, global_bits(&fed), fed.channel_stats())
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
