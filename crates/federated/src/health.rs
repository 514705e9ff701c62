//! The per-round model-health flight record.
//!
//! Each federated round distills the diagnostics computed by
//! `fhdnn_hdc::health` plus the round's client-divergence and
//! channel-damage attribution into one wire-stable [`HealthRecord`],
//! emitted as a flat `health.round` event through the telemetry sink. The
//! JSONL stream is then enough to reconstruct the full health timeline
//! offline ([`HealthRecord::from_event_fields`]) — which is exactly what
//! the `fhdnn watch --from` dashboard replays.
//!
//! Client outliers use the classic z-score test over per-client cosine
//! divergence from the aggregate update ([`divergence_summary`]): a
//! client whose update points somewhere statistically unlike the
//! consensus is flagged — the FL-at-scale monitoring playbook, applied to
//! HD deltas.

use fhdnn_telemetry::event::FieldValue;
use fhdnn_telemetry::jsonl::Value;
use fhdnn_telemetry::sketch::{QuantileSketch, TopK};
use fhdnn_telemetry::Recorder;

/// |z-score| at or above which a client is flagged an outlier in the
/// record (the alert engine applies its own, typically equal, threshold).
pub const OUTLIER_Z: f32 = 3.0;

/// Relative band of the quantizer clip range counted as saturated by the
/// per-round diagnostics: words with `|w| ≥ (1 − ε)·(2^{B-1}−1)`.
pub const SATURATION_EPSILON: f32 = 0.02;

/// One round's model-health flight record.
///
/// Stable on the wire: [`HealthRecord::from_event_fields`] defaults
/// every absent field, so records written by older (or newer) versions
/// with a different field set still read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthRecord {
    /// Round index (0-based).
    pub round: u64,
    /// Which engine produced the record: `fedhd` or `fedavg`.
    pub engine: String,
    /// Global-model test accuracy after aggregation.
    pub test_accuracy: f64,
    /// Clients sampled this round.
    pub participants: u64,
    /// Client updates that actually arrived (participants minus
    /// stragglers).
    pub arrived: u64,
    /// Smallest per-class prototype L2 norm (full-vector L2 for fedavg).
    pub norm_min: f64,
    /// Largest per-class prototype L2 norm.
    pub norm_max: f64,
    /// Mean per-class prototype L2 norm.
    pub norm_mean: f64,
    /// Counter-saturation fraction of the quantized global model, `[0,1]`;
    /// 0 on transports without a quantizer.
    pub saturation: f64,
    /// Minimum pairwise inter-class cosine separation (1 when fewer than
    /// two classes exist, e.g. fedavg's flat parameter vector).
    pub cosine_margin: f64,
    /// Fraction of model entries whose sign flipped vs the previous
    /// round's model.
    pub sign_flip_rate: f64,
    /// Mean cosine distance of arrived client deltas from the aggregate
    /// delta.
    pub mean_divergence: f64,
    /// Largest |z-score| among the per-client divergences.
    pub max_abs_z: f64,
    /// Client indices whose divergence |z| reached [`OUTLIER_Z`].
    pub outlier_clients: Vec<u64>,
    /// Bits the channel flipped this round.
    pub bits_flipped: u64,
    /// Dimensions the channel erased this round.
    pub dims_erased: u64,
    /// Packets the channel dropped this round.
    pub packets_dropped: u64,
    /// Noise energy the channel injected this round.
    pub noise_energy: f64,
    /// Peak heap bytes above the round-start level (tracked-allocator
    /// watermark); 0 when memory accounting is unavailable.
    pub mem_peak_bytes: u64,
    /// Heap allocations performed during the round (process-wide).
    pub mem_allocs: u64,
    /// Gross bytes allocated during the round, divided by participants.
    pub mem_bytes_per_client: u64,
    /// Median per-client cosine divergence from the aggregate delta
    /// (quantile-sketch estimate, ≤ [`QuantileSketch::MAX_RELATIVE_ERROR`]
    /// relative error).
    pub div_p50: f64,
    /// 95th-percentile per-client divergence (sketch estimate).
    pub div_p95: f64,
    /// 99th-percentile per-client divergence (sketch estimate).
    pub div_p99: f64,
    /// 99th-percentile per-client uplink bytes this round (sketch
    /// estimate; stragglers count as 0).
    pub uplink_p99_bytes: u64,
    /// 99th-percentile per-client channel damage — bits flipped plus dims
    /// erased plus packets dropped (sketch estimate).
    pub damage_p99: u64,
    /// 99th-percentile simulated on-device compute micros (sketch
    /// estimate).
    pub sim_compute_p99_micros: u64,
    /// Distinct clients that have participated in any round so far
    /// (splitmix64-hash cardinality estimate, cumulative).
    pub cohort_clients: u64,
    /// Bounded worst-offender exemplars, `cat:client:score` entries
    /// joined by `|` ([`format_exemplars`]); empty when no sketches ran.
    pub exemplars: String,
    /// Task traces evicted from the bounded trace ring this round.
    pub trace_dropped: u64,
}

impl HealthRecord {
    /// Emits the record as one flat `health.round` event. Outlier client
    /// indices travel as a comma-joined string (the event model has no
    /// array fields); empty means none.
    pub fn emit(&self, tel: &Recorder) {
        if !tel.enabled() {
            return;
        }
        let outliers = self
            .outlier_clients
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        tel.event(
            fhdnn_telemetry::registry::EVENT_HEALTH_ROUND,
            &[
                ("round", FieldValue::U64(self.round)),
                ("engine", FieldValue::Str(self.engine.clone())),
                ("test_accuracy", FieldValue::F64(self.test_accuracy)),
                ("participants", FieldValue::U64(self.participants)),
                ("arrived", FieldValue::U64(self.arrived)),
                ("norm_min", FieldValue::F64(self.norm_min)),
                ("norm_max", FieldValue::F64(self.norm_max)),
                ("norm_mean", FieldValue::F64(self.norm_mean)),
                ("saturation", FieldValue::F64(self.saturation)),
                ("cosine_margin", FieldValue::F64(self.cosine_margin)),
                ("sign_flip_rate", FieldValue::F64(self.sign_flip_rate)),
                ("mean_divergence", FieldValue::F64(self.mean_divergence)),
                ("max_abs_z", FieldValue::F64(self.max_abs_z)),
                ("outlier_clients", FieldValue::Str(outliers)),
                ("bits_flipped", FieldValue::U64(self.bits_flipped)),
                ("dims_erased", FieldValue::U64(self.dims_erased)),
                ("packets_dropped", FieldValue::U64(self.packets_dropped)),
                ("noise_energy", FieldValue::F64(self.noise_energy)),
                ("mem_peak_bytes", FieldValue::U64(self.mem_peak_bytes)),
                ("mem_allocs", FieldValue::U64(self.mem_allocs)),
                (
                    "mem_bytes_per_client",
                    FieldValue::U64(self.mem_bytes_per_client),
                ),
                ("div_p50", FieldValue::F64(self.div_p50)),
                ("div_p95", FieldValue::F64(self.div_p95)),
                ("div_p99", FieldValue::F64(self.div_p99)),
                ("uplink_p99_bytes", FieldValue::U64(self.uplink_p99_bytes)),
                ("damage_p99", FieldValue::U64(self.damage_p99)),
                (
                    "sim_compute_p99_micros",
                    FieldValue::U64(self.sim_compute_p99_micros),
                ),
                ("cohort_clients", FieldValue::U64(self.cohort_clients)),
                ("exemplars", FieldValue::Str(self.exemplars.clone())),
                ("trace_dropped", FieldValue::U64(self.trace_dropped)),
            ],
        );
    }

    /// Rebuilds a record from the `fields` object of a parsed
    /// `health.round` JSONL event ([`fhdnn_telemetry::jsonl`]). Missing
    /// fields default; returns `None` only
    /// if `fields` is not an object.
    pub fn from_event_fields(fields: &Value) -> Option<HealthRecord> {
        let obj = fields.as_obj()?;
        let num = |k: &str| obj.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let int = |k: &str| num(k).max(0.0) as u64;
        let outlier_clients = obj
            .get("outlier_clients")
            .and_then(Value::as_str)
            .map(|s| {
                s.split(',')
                    .filter(|t| !t.is_empty())
                    .filter_map(|t| t.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Some(HealthRecord {
            round: int("round"),
            engine: obj
                .get("engine")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            test_accuracy: num("test_accuracy"),
            participants: int("participants"),
            arrived: int("arrived"),
            norm_min: num("norm_min"),
            norm_max: num("norm_max"),
            norm_mean: num("norm_mean"),
            saturation: num("saturation"),
            cosine_margin: num("cosine_margin"),
            sign_flip_rate: num("sign_flip_rate"),
            mean_divergence: num("mean_divergence"),
            max_abs_z: num("max_abs_z"),
            outlier_clients,
            bits_flipped: int("bits_flipped"),
            dims_erased: int("dims_erased"),
            packets_dropped: int("packets_dropped"),
            noise_energy: num("noise_energy"),
            mem_peak_bytes: int("mem_peak_bytes"),
            mem_allocs: int("mem_allocs"),
            mem_bytes_per_client: int("mem_bytes_per_client"),
            div_p50: num("div_p50"),
            div_p95: num("div_p95"),
            div_p99: num("div_p99"),
            uplink_p99_bytes: int("uplink_p99_bytes"),
            damage_p99: int("damage_p99"),
            sim_compute_p99_micros: int("sim_compute_p99_micros"),
            cohort_clients: int("cohort_clients"),
            exemplars: obj
                .get("exemplars")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            trace_dropped: int("trace_dropped"),
        })
    }

    /// The record as an alert-engine sample.
    pub fn to_sample(&self) -> fhdnn_telemetry::alert::HealthSample {
        fhdnn_telemetry::alert::HealthSample {
            round: self.round,
            accuracy: self.test_accuracy,
            saturation: self.saturation,
            max_client_abs_z: self.max_abs_z,
            dims_erased: self.dims_erased,
            mem_peak_bytes: self.mem_peak_bytes,
            trace_drops: self.trace_dropped,
        }
    }
}

/// Population z-scores of `values`: `(v - mean) / std`. A zero (or
/// undefined) standard deviation yields all-zero scores — no value can be
/// an outlier in a population with no spread.
pub fn zscores(values: &[f32]) -> Vec<f32> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    let var = values
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    let std = var.sqrt();
    if std <= f64::EPSILON {
        return vec![0.0; n];
    }
    values
        .iter()
        .map(|&v| ((v as f64 - mean) / std) as f32)
        .collect()
}

/// Per-round client-divergence summary, as landed in a [`HealthRecord`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DivergenceSummary {
    /// Mean cosine distance of client deltas from the aggregate delta.
    pub mean: f64,
    /// Largest |z-score| among the clients.
    pub max_abs_z: f64,
    /// Client ids whose |z| reached [`OUTLIER_Z`].
    pub outliers: Vec<u64>,
    /// Per-client `(id, cosine distance)` pairs in input order — fuel for
    /// the fleet divergence sketch. Bounded by the caller's delta list
    /// (the full cohort normally, a seeded reservoir under fleet mode).
    pub distances: Vec<(u64, f64)>,
    /// Per-client `(id, |z|)` pairs in input order; empty with fewer than
    /// two clients (no population to score against).
    pub scores: Vec<(u64, f64)>,
}

/// Scores each arrived client's update against the aggregate: cosine
/// distance of `delta_i = update_i − broadcast` from
/// `aggregate_delta = new_global − broadcast`, then
/// [`DivergenceSummary::from_distances`]. `client_ids[i]` labels
/// `deltas[i]` in the outlier list.
///
/// The aggregate's `‖Δ‖²` is taken once and the clients' chains run side
/// by side against it ([`fhdnn_hdc::health::cosine_distances`]); every
/// distance is bit-for-bit the pairwise
/// [`fhdnn_hdc::health::cosine_distance`].
pub fn divergence_summary(
    deltas: &[Vec<f32>],
    aggregate_delta: &[f32],
    client_ids: &[usize],
) -> DivergenceSummary {
    let distances = fhdnn_hdc::health::cosine_distances(deltas, aggregate_delta);
    DivergenceSummary::from_distances(&distances, client_ids)
}

impl DivergenceSummary {
    /// The summary of a round whose clients' deltas lie at `distances`
    /// from the aggregate delta: their mean and z-scores across the
    /// round's clients. `client_ids[i]` labels `distances[i]` in the
    /// outlier list. Fewer than two clients cannot have outliers (no
    /// population).
    pub fn from_distances(distances: &[f32], client_ids: &[usize]) -> DivergenceSummary {
        if distances.is_empty() {
            return DivergenceSummary::default();
        }
        let id_of = |i: usize| client_ids.get(i).copied().unwrap_or(i) as u64;
        let labeled: Vec<(u64, f64)> = distances
            .iter()
            .enumerate()
            .map(|(i, &d)| (id_of(i), d as f64))
            .collect();
        let mean = distances.iter().map(|&d| d as f64).sum::<f64>() / distances.len() as f64;
        if distances.len() < 2 {
            return DivergenceSummary {
                mean,
                distances: labeled,
                ..DivergenceSummary::default()
            };
        }
        let z = zscores(distances);
        let max_abs_z = z.iter().map(|v| v.abs() as f64).fold(0.0, f64::max);
        let outliers = z
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() >= OUTLIER_Z)
            .map(|(i, _)| id_of(i))
            .collect();
        let scores = z
            .iter()
            .enumerate()
            .map(|(i, v)| (id_of(i), v.abs() as f64))
            .collect();
        DivergenceSummary {
            mean,
            max_abs_z,
            outliers,
            distances: labeled,
            scores,
        }
    }
}

/// Worst-offender exemplars kept per category per round.
pub const EXEMPLAR_K: usize = 3;

/// Most outlier client ids a fleet-mode [`HealthRecord`] lists; the full
/// set is unbounded in the cohort size, which is exactly what
/// `--fleet-telemetry` forbids.
pub const FLEET_MAX_OUTLIERS: usize = 8;

/// Seeded-reservoir sample size bounding the per-client divergence deltas
/// the round driver materializes under fleet mode, whichever engine runs
/// (each delta is a full model-sized vector, the O(clients × model)
/// memory ROADMAP item 2 forbids). Divergence percentiles then estimate
/// over this sample.
pub const FLEET_DIVERGENCE_SAMPLE: usize = 32;

/// Constant-size per-round fleet aggregation state: quantile sketches over
/// per-client observations plus bounded top-k worst-offender samplers.
///
/// Both round engines absorb one entry per client at the barrier fold, in
/// fixed participant order; because [`QuantileSketch::merge`] and
/// [`TopK::merge`] are order-invariant, the resulting
/// [`HealthRecord`] percentile fields are byte-identical at any
/// `--threads` and their size never grows with the cohort.
#[derive(Debug, Clone)]
pub struct RoundSketches {
    /// Per-client uplink bytes (stragglers observe 0).
    pub uplink_bytes: QuantileSketch,
    /// Per-client channel damage: bits flipped + dims erased + packets
    /// dropped.
    pub damage: QuantileSketch,
    /// Per-client simulated on-device compute micros.
    pub sim_compute: QuantileSketch,
    /// Per-client cosine divergence from the aggregate delta.
    pub divergence: QuantileSketch,
    /// Highest-|z| divergence offenders.
    pub top_divergence: TopK,
    /// Worst channel-damage offenders.
    pub top_damage: TopK,
    /// Critical-path stragglers by simulated cost (compute + uplink).
    pub top_sim_cost: TopK,
}

impl RoundSketches {
    /// Empty sketches with [`EXEMPLAR_K`]-bounded samplers.
    pub fn new() -> Self {
        RoundSketches {
            uplink_bytes: QuantileSketch::new(),
            damage: QuantileSketch::new(),
            sim_compute: QuantileSketch::new(),
            divergence: QuantileSketch::new(),
            top_divergence: TopK::new(EXEMPLAR_K),
            top_damage: TopK::new(EXEMPLAR_K),
            top_sim_cost: TopK::new(EXEMPLAR_K),
        }
    }

    /// Absorbs one client's barrier-fold observations. `uplink_bytes` is 0
    /// for stragglers; `damage` is the client's bits flipped plus dims
    /// erased plus packets dropped; `sim_cost_micros` is the simulated
    /// critical-path cost (compute plus uplink serialization).
    pub fn absorb_client(
        &mut self,
        client: u64,
        uplink_bytes: u64,
        damage: u64,
        sim_compute_micros: u64,
        sim_cost_micros: u64,
    ) {
        self.uplink_bytes.observe(uplink_bytes as f64);
        self.damage.observe(damage as f64);
        self.sim_compute.observe(sim_compute_micros as f64);
        self.top_damage.offer(client, damage as f64);
        self.top_sim_cost.offer(client, sim_cost_micros as f64);
    }

    /// Absorbs the round's divergence summary: distances feed the
    /// quantile sketch, |z| scores feed the exemplar sampler.
    pub fn absorb_divergence(&mut self, summary: &DivergenceSummary) {
        for &(_, d) in &summary.distances {
            self.divergence.observe(d);
        }
        for &(id, z) in &summary.scores {
            self.top_divergence.offer(id, z);
        }
    }

    /// Merges another partial aggregate (e.g. a per-thread shard) into
    /// this one. Order-invariant, like the underlying sketches.
    pub fn merge(&mut self, other: &RoundSketches) {
        self.uplink_bytes.merge(&other.uplink_bytes);
        self.damage.merge(&other.damage);
        self.sim_compute.merge(&other.sim_compute);
        self.divergence.merge(&other.divergence);
        self.top_divergence.merge(&other.top_divergence);
        self.top_damage.merge(&other.top_damage);
        self.top_sim_cost.merge(&other.top_sim_cost);
    }

    /// Writes the sketch summaries into a record's fleet fields
    /// (percentiles + exemplar string); leaves every other field alone.
    pub fn apply(&self, rec: &mut HealthRecord) {
        rec.div_p50 = self.divergence.quantile(0.50);
        rec.div_p95 = self.divergence.quantile(0.95);
        rec.div_p99 = self.divergence.quantile(0.99);
        rec.uplink_p99_bytes = self.uplink_bytes.quantile(0.99).round() as u64;
        rec.damage_p99 = self.damage.quantile(0.99).round() as u64;
        rec.sim_compute_p99_micros = self.sim_compute.quantile(0.99).round() as u64;
        rec.exemplars =
            format_exemplars(&self.top_divergence, &self.top_damage, &self.top_sim_cost);
    }
}

impl Default for RoundSketches {
    fn default() -> Self {
        RoundSketches::new()
    }
}

/// Renders the three exemplar samplers as a deterministic flat string:
/// `cat:client:score` entries joined by `|`, categories in fixed order
/// `div` (|z|, 4 decimals), `dmg` (integer damage), `crit` (integer sim
/// cost micros). Empty categories contribute nothing.
pub fn format_exemplars(div: &TopK, dmg: &TopK, crit: &TopK) -> String {
    let mut parts = Vec::new();
    for e in div.entries() {
        parts.push(format!("div:{}:{:.4}", e.id, e.score));
    }
    for e in dmg.entries() {
        parts.push(format!("dmg:{}:{}", e.id, e.score as u64));
    }
    for e in crit.entries() {
        parts.push(format!("crit:{}:{}", e.id, e.score as u64));
    }
    parts.join("|")
}

/// Element-wise `a − b` into `out`, reusing its storage (the client
/// delta helper; lengths must already agree — callers subtract models of
/// one shape).
pub fn elementwise_delta_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x - y));
}

/// `(min, max, mean)` of a norm list, all zeros when empty.
pub fn norm_stats(norms: &[f32]) -> (f64, f64, f64) {
    if norms.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = norms.iter().copied().fold(f32::INFINITY, f32::min) as f64;
    let max = norms.iter().copied().fold(0.0f32, f32::max) as f64;
    let mean = norms.iter().map(|&n| n as f64).sum::<f64>() / norms.len() as f64;
    (min, max, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn_telemetry::sink::MemorySink;
    use std::sync::Arc;

    fn record() -> HealthRecord {
        HealthRecord {
            round: 3,
            engine: "fedhd".into(),
            test_accuracy: 0.91,
            participants: 4,
            arrived: 3,
            norm_min: 1.0,
            norm_max: 2.5,
            norm_mean: 1.75,
            saturation: 0.01,
            cosine_margin: 0.85,
            sign_flip_rate: 0.02,
            mean_divergence: 0.1,
            max_abs_z: 1.2,
            outlier_clients: vec![2, 7],
            bits_flipped: 12,
            dims_erased: 3,
            packets_dropped: 1,
            noise_energy: 0.5,
            mem_peak_bytes: 2048,
            mem_allocs: 64,
            mem_bytes_per_client: 256,
            div_p50: 0.11,
            div_p95: 0.28,
            div_p99: 0.33,
            uplink_p99_bytes: 4096,
            damage_p99: 17,
            sim_compute_p99_micros: 90_000,
            cohort_clients: 4,
            exemplars: "div:2:3.1000|dmg:7:17|crit:1:91000".into(),
            trace_dropped: 5,
        }
    }

    #[test]
    fn emit_then_parse_round_trips() {
        let sink = Arc::new(MemorySink::new());
        let tel = fhdnn_telemetry::Recorder::with_sink(sink.clone());
        let rec = record();
        rec.emit(&tel);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "health.round");
        let parsed = fhdnn_telemetry::jsonl::parse(&events[0].to_json()).unwrap();
        let back = HealthRecord::from_event_fields(parsed.get("fields").unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn parse_defaults_missing_fields() {
        let v = fhdnn_telemetry::jsonl::parse(r#"{"round":2,"test_accuracy":0.5}"#).unwrap();
        let rec = HealthRecord::from_event_fields(&v).unwrap();
        assert_eq!(rec.round, 2);
        assert_eq!(rec.test_accuracy, 0.5);
        assert_eq!(rec.engine, "");
        assert_eq!(rec.saturation, 0.0);
        assert!(rec.outlier_clients.is_empty());
        let empty = fhdnn_telemetry::jsonl::parse("{}").unwrap();
        assert_eq!(
            HealthRecord::from_event_fields(&empty),
            Some(HealthRecord::default())
        );
        assert!(HealthRecord::from_event_fields(&fhdnn_telemetry::jsonl::Value::Null).is_none());
    }

    #[test]
    fn zscores_handle_degenerate_populations() {
        assert!(zscores(&[]).is_empty());
        assert_eq!(zscores(&[5.0, 5.0, 5.0]), vec![0.0, 0.0, 0.0]);
        let z = zscores(&[0.0, 0.0, 0.0, 0.0, 10.0]);
        assert!(z[4] > 1.9, "spiked value scores high: {z:?}");
        assert!(z[0] < 0.0);
    }

    #[test]
    fn divergence_summary_shapes() {
        // Empty and singleton populations cannot flag outliers.
        assert_eq!(
            divergence_summary(&[], &[1.0, 0.0], &[]),
            DivergenceSummary::default()
        );
        let one = divergence_summary(&[vec![0.0, 1.0]], &[1.0, 0.0], &[9]);
        assert!((one.mean - 1.0).abs() < 1e-6);
        assert_eq!(one.max_abs_z, 0.0);
        assert!(one.outliers.is_empty());
        // A clear outlier among aligned clients is flagged by id. With 10
        // aligned clients and one inverted, the inverted one's z-score
        // exceeds 3 (mean pulled slightly up, std small).
        let mut deltas: Vec<Vec<f32>> = (0..10).map(|_| vec![1.0, 0.0]).collect();
        deltas.push(vec![-1.0, 0.0]);
        let ids: Vec<usize> = (100..111).collect();
        let s = divergence_summary(&deltas, &[1.0, 0.0], &ids);
        assert!(s.max_abs_z >= OUTLIER_Z as f64, "z {}", s.max_abs_z);
        assert_eq!(s.outliers, vec![110]);
    }

    #[test]
    fn divergence_distances_are_the_pairwise_ones_at_any_client_count() {
        // Chains share blocks seven clients at a time; no distance may
        // depend on which clients it shared one with (the kernel's own
        // wall against the verbatim loop is in `fhdnn_hdc::health`).
        let value = |i: usize| ((i * 2_654_435_761) % 1013) as f32 / 64.0 - 8.0;
        let aggregate: Vec<f32> = (0..1000).map(value).collect();
        for clients in [0, 1, 2, 3, 5, 6, 20, 33] {
            let deltas: Vec<Vec<f32>> = (1..=clients)
                .map(|c| (0..1000).map(|i| value(i * c + c)).collect())
                .collect();
            let ids: Vec<usize> = (0..clients).map(|c| 100 + c).collect();
            let summary = divergence_summary(&deltas, &aggregate, &ids);
            assert_eq!(summary.distances.len(), clients);
            for ((id, got), delta) in summary.distances.iter().zip(&deltas) {
                let want = fhdnn_hdc::health::cosine_distance(delta, &aggregate) as f64;
                assert_eq!(got.to_bits(), want.to_bits(), "client {id} of {clients}");
            }
        }
    }

    #[test]
    fn record_converts_to_alert_sample() {
        let rec = record();
        let s = rec.to_sample();
        assert_eq!(s.round, 3);
        assert_eq!(s.accuracy, 0.91);
        assert_eq!(s.dims_erased, 3);
        assert_eq!(s.max_client_abs_z, 1.2);
        assert_eq!(s.mem_peak_bytes, 2048);
        assert_eq!(s.trace_drops, 5);
    }

    #[test]
    fn round_sketches_summarize_into_record() {
        let mut sk = RoundSketches::new();
        for c in 0..10u64 {
            let uplink = if c == 9 { 0 } else { 1024 };
            sk.absorb_client(c, uplink, c, 50 + 10 * c, 80 + 10 * c);
        }
        let div = DivergenceSummary {
            distances: (0..10).map(|c| (c, 0.1 + 0.01 * c as f64)).collect(),
            scores: (0..10).map(|c| (c, c as f64 / 3.0)).collect(),
            ..DivergenceSummary::default()
        };
        sk.absorb_divergence(&div);
        let mut rec = HealthRecord::default();
        sk.apply(&mut rec);
        // Median divergence of 0.10..0.19 is 0.15 (nearest rank) within
        // the sketch's relative-error bound.
        assert!((rec.div_p50 - 0.15).abs() < 0.15 * 0.04, "{}", rec.div_p50);
        assert!(rec.div_p99 >= rec.div_p50);
        assert!(rec.uplink_p99_bytes >= 1000, "{}", rec.uplink_p99_bytes);
        assert!(rec.damage_p99 >= 8);
        assert!(rec.sim_compute_p99_micros >= 130);
        // Worst offenders by category, highest score first.
        assert!(
            rec.exemplars.starts_with("div:9:3.0000|div:8:"),
            "{}",
            rec.exemplars
        );
        assert!(
            rec.exemplars.contains("|dmg:9:9|dmg:8:8|dmg:7:7|"),
            "{}",
            rec.exemplars
        );
        assert!(
            rec.exemplars.ends_with("crit:9:170|crit:8:160|crit:7:150"),
            "{}",
            rec.exemplars
        );
    }

    #[test]
    fn round_sketches_merge_is_order_invariant() {
        let observe = |sk: &mut RoundSketches, c: u64| {
            sk.absorb_client(c, 100 * c, c % 5, 10 + c, 20 + c);
        };
        let mut serial = RoundSketches::new();
        for c in 0..40 {
            observe(&mut serial, c);
        }
        let mut shards: Vec<RoundSketches> = (0..4).map(|_| RoundSketches::new()).collect();
        for c in 0..40u64 {
            observe(&mut shards[(c % 4) as usize], c);
        }
        let mut forward = RoundSketches::new();
        for s in &shards {
            forward.merge(s);
        }
        let mut backward = RoundSketches::new();
        for s in shards.iter().rev() {
            backward.merge(s);
        }
        let mut a = HealthRecord::default();
        let mut b = HealthRecord::default();
        let mut c = HealthRecord::default();
        serial.apply(&mut a);
        forward.apply(&mut b);
        backward.apply(&mut c);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(serial.uplink_bytes.encode(), forward.uplink_bytes.encode());
    }

    #[test]
    fn elementwise_delta_subtracts_into_the_callers_buffer() {
        let mut out = vec![7.0; 5];
        elementwise_delta_into(&[3.0, 1.0], &[1.0, 1.0], &mut out);
        assert_eq!(out, vec![2.0, 0.0]);
    }
}
