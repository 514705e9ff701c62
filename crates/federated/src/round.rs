//! The one round driver under both federations.
//!
//! The paper compares *one* protocol — sample `C·N` clients, broadcast,
//! local update, lossy uplink, aggregate, evaluate — run with two
//! local-update / aggregation rules (§3.4.2 bundling vs the FedAvg
//! baseline). [`RoundDriver::run_round`] is that protocol; an
//! [`Algorithm`] is one of the rules. The driver alone samples the
//! cohort, splits the round seed, fans client work out over
//! [`crate::parallel`], folds outcomes in participant order, costs the
//! simulated lane and emits every `fl.*`, `mem.*`, `chan.*`, `trace.*`,
//! `health.round`, alert and `telemetry.overhead.*` observation — so a
//! round looks the same to telemetry whichever algorithm ran it.

use fhdnn_channel::lte::LteLink;
use fhdnn_channel::{Channel, ChannelStats, ChannelStatsSnapshot};
use fhdnn_telemetry::alert::{emit_alerts, AlertEngine};
use fhdnn_telemetry::sketch::{DistinctEstimator, Reservoir, Sample};
use fhdnn_telemetry::task::TaskBuffer;
use fhdnn_telemetry::trace::TaskTrace;
use fhdnn_telemetry::{Recorder, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::config::FlConfig;
use crate::cost::DeviceProfile;
use crate::health::{
    DivergenceSummary, HealthRecord, RoundSketches, FLEET_DIVERGENCE_SAMPLE, FLEET_MAX_OUTLIERS,
};
use crate::metrics::RoundMetrics;
use crate::parallel::{resolve_threads, run_tasks_traced, split_seed};
use crate::sampling::sample_clients;
use crate::{FedError, Result};

/// One client's way to the server, as a worker sees it.
pub(crate) struct Uplink<'a> {
    /// The (possibly unreliable) uplink channel.
    pub channel: &'a dyn Channel,
    /// The client's split RNG stream: channel noise is drawn from it.
    pub rng: &'a mut StdRng,
    /// Task-local damage accounting, absorbed at the barrier.
    pub stats: &'a ChannelStats,
    /// Task-local spans and counters, absorbed at the barrier.
    pub buf: &'a mut TaskBuffer,
}

/// The model-sized diagnostics of a round, finished: the freshly
/// aggregated global model against the one the round began with, as they
/// land in a [`HealthRecord`].
pub(crate) struct ModelHealth {
    /// `(min, max, mean)` of the model's row norms.
    pub norms: (f64, f64, f64),
    /// Fraction of counters near the quantizer's clip level.
    pub saturation: f64,
    /// Smallest pairwise class separation (1.0 when there are no classes).
    pub cosine_margin: f64,
    /// Fraction of parameters whose sign the round flipped.
    pub sign_flip_rate: f64,
    /// Per delta slot filled this round, the cosine distance of that
    /// update's delta from the aggregate delta.
    pub distances: Vec<f32>,
}

/// The float form of the divergence diagnostics, which any algorithm can
/// hold and call: one `f32` delta per slot and the aggregate delta, in
/// model-sized buffers kept from round to round so that a steady-state
/// recorded round allocates none of them. Empty until a round runs under
/// an enabled recorder, and dropped again by the first round that does
/// not.
#[derive(Debug, Default)]
pub(crate) struct FloatHealth {
    /// One buffer per delta slot any round has filled; this round's
    /// deltas are the first `filled` of them.
    deltas: Vec<Vec<f32>>,
    filled: usize,
    /// New global minus round-start baseline.
    aggregate_delta: Vec<f32>,
}

impl FloatHealth {
    /// Opens a round: no slot filled yet under a recorder, nothing kept
    /// without one.
    pub(crate) fn begin_round(&mut self, recorded: bool) {
        if recorded {
            self.filled = 0;
        } else {
            *self = FloatHealth::default();
        }
    }

    /// The buffer of delta slot `slot`, for the caller to write an
    /// update's delta from the round-start baseline over whatever it
    /// held, this round or an earlier one. Slots arrive as
    /// [`Algorithm::fold`] is handed them.
    pub(crate) fn slot(&mut self, slot: usize) -> &mut Vec<f32> {
        if slot == self.filled {
            self.filled += 1;
            if self.deltas.len() < self.filled {
                self.deltas.push(Vec::new());
            }
        }
        &mut self.deltas[slot]
    }

    /// Whether no buffer is held: no recorded round has used this since
    /// the last unrecorded one.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.deltas.is_empty() && self.aggregate_delta.capacity() == 0
    }

    /// Closes the round: the sign-flip rate of `params` against
    /// `baseline` and, per filled slot, its delta's cosine distance from
    /// `params − baseline` — the last two fields of a [`ModelHealth`].
    pub(crate) fn finish(&mut self, params: &[f32], baseline: &[f32]) -> (f64, Vec<f32>) {
        let sign_flip_rate = fhdnn_hdc::health::delta_and_sign_flip_rate(
            params,
            baseline,
            &mut self.aggregate_delta,
        );
        let deltas = &self.deltas[..self.filled];
        let distances = fhdnn_hdc::health::cosine_distances(deltas, &self.aggregate_delta);
        (sign_flip_rate as f64, distances)
    }
}

/// One local-update / aggregation rule, driven by [`RoundDriver`].
///
/// The worker-side stages (`broadcast`, `local_update`, `transmit`) take
/// `&self` and run on pool threads; everything else runs on the caller's
/// thread. Per client the driver calls `broadcast → local_update →
/// transmit` (the last skipped for stragglers), then at the barrier
/// `fold` once per arrived update in participant order,
/// `finish_aggregate` if anything arrived, and `evaluate`.
pub(crate) trait Algorithm: Sync {
    /// The evaluation set.
    type Test: ?Sized;
    /// A client's working copy of the model, from broadcast to transmit.
    type Local;
    /// What reaches the server from one client.
    type Update: Send;

    /// Engine tag on trace rows and health records.
    const ENGINE: &'static str;

    /// Upload size of one client update in bytes.
    fn update_bytes(&self) -> u64;
    /// Size of the (reliable) model broadcast in bytes.
    fn downlink_bytes(&self) -> u64;
    /// Local-training FLOPs of `client`, for the simulated device lane.
    fn client_flops(&self, client: usize) -> u64;
    /// Raw `u64` words one update puts on a packed wire (0: not packed).
    fn packed_uplink_words(&self) -> u64 {
        0
    }

    /// Fixes the round's shared inputs before any worker runs. With an
    /// enabled `tel` this is also where the health baseline is taken.
    fn begin_round(&mut self, round: usize, tel: &Recorder) -> Result<()>;

    /// Worker: the client's copy of the broadcast global model.
    fn broadcast(&self, client: usize) -> Result<Self::Local>;
    /// Worker: local training on the client's data, drawing only from the
    /// client's split `rng` stream.
    fn local_update(&self, client: usize, local: &mut Self::Local, rng: &mut StdRng) -> Result<()>;
    /// Worker: serializes the update and pushes it through the uplink.
    fn transmit(&self, local: Self::Local, up: &mut Uplink<'_>) -> Result<Self::Update>;

    /// Barrier: absorbs one arrived update. `slot`, given only when
    /// `begin_round` saw an enabled recorder and only to the updates the
    /// driver's sampler keeps, is the delta slot whose distance
    /// [`Algorithm::health`] will report for this update: slots come in
    /// fill order first (`0`, `1`, …) and then name filled ones to
    /// replace.
    fn fold(&mut self, client: usize, update: Self::Update, slot: Option<usize>);
    /// Barrier: turns the folded updates into the new global model. Not
    /// called when nothing arrived — the previous model stands.
    fn finish_aggregate(&mut self) -> Result<()>;
    /// Test-set accuracy of the current global model.
    fn evaluate(&mut self, test: &Self::Test) -> Result<f32>;

    /// Diagnostics of the current global model against the one the round
    /// began with, and of the updates `fold` was given a slot for against
    /// the aggregate — each delta in the update's wire view. Only called
    /// when `begin_round` saw an enabled recorder. [`FloatHealth`] is the
    /// float way to the last two fields.
    fn health(&mut self) -> Result<ModelHealth>;
}

/// Which arrived clients get a materialized divergence delta — each one
/// is a full model-sized vector, so fleet mode bounds them to a seeded
/// sample and memory stays O(sample × model) at any cohort size.
enum DeltaSlots {
    /// Disabled recorder: nobody reads the deltas.
    Never,
    /// Verbose mode: every arrival, in order.
    All,
    /// Fleet mode: a [`FLEET_DIVERGENCE_SAMPLE`]-slot reservoir.
    Sampled(Reservoir),
}

impl DeltaSlots {
    fn new(enabled: bool, fleet: bool, round_seed: u64) -> Self {
        if !enabled {
            DeltaSlots::Never
        } else if fleet {
            DeltaSlots::Sampled(Reservoir::new(
                FLEET_DIVERGENCE_SAMPLE,
                split_seed(round_seed, u64::MAX),
            ))
        } else {
            DeltaSlots::All
        }
    }

    /// Where the next arrival's delta goes, given `kept` deltas so far;
    /// `None` means it is never computed.
    fn offer(&mut self, kept: usize) -> Option<usize> {
        match self {
            DeltaSlots::Never => None,
            DeltaSlots::All => Some(kept),
            DeltaSlots::Sampled(reservoir) => match reservoir.offer() {
                Sample::Keep(slot) => Some(slot),
                Sample::Skip => None,
            },
        }
    }
}

/// Puts `value` in delta slot `slot` of this round's `slots`: slots
/// arrive in fill order first, then name filled ones to replace — the
/// contract of [`Reservoir::offer`].
pub(crate) fn claim<T>(slots: &mut Vec<T>, slot: usize, value: T) {
    match slots.get_mut(slot) {
        Some(filled) => *filled = value,
        None => slots.push(value),
    }
}

/// What comes back from a worker at the round barrier.
struct Outcome<U> {
    /// `None` when the client straggled (its update never arrived).
    update: Option<U>,
    buf: TaskBuffer,
    stats: ChannelStatsSnapshot,
}

/// The full worker: everything between client selection and the round
/// barrier. Touches no driver state, so the pool can run it anywhere.
fn client_task<A: Algorithm>(
    alg: &A,
    client: usize,
    mut rng: StdRng,
    mut buf: TaskBuffer,
    straggler_prob: f64,
    channel: &dyn Channel,
) -> Result<Outcome<A::Update>> {
    let stats = ChannelStats::new();
    let mut local = {
        let span = buf.begin("round.broadcast");
        let copy = alg.broadcast(client);
        buf.end(span);
        copy?
    };
    {
        let span = buf.begin("round.local_train");
        let trained = alg.local_update(client, &mut local, &mut rng);
        buf.end(span);
        trained?;
    }
    // The straggler draw sits between training and transmission, and is
    // made only when the knob is on: a zero probability must leave the
    // client's stream exactly where training left it.
    let straggled = straggler_prob > 0.0 && rng.gen_bool(straggler_prob);
    let update = if straggled {
        None
    } else {
        let span = buf.begin("round.transmit");
        let mut up = Uplink {
            channel,
            rng: &mut rng,
            stats: &stats,
            buf: &mut buf,
        };
        let sent = alg.transmit(local, &mut up);
        buf.end(span);
        Some(sent?)
    };
    Ok(Outcome {
        update,
        buf,
        stats: stats.snapshot(),
    })
}

/// Everything a federated campaign carries that is not the algorithm:
/// the master RNG and round counter, the execution knobs, the simulated
/// device and link, and the observers.
#[derive(Debug)]
pub(crate) struct RoundDriver {
    config: FlConfig,
    rng: StdRng,
    round: usize,
    pub(crate) straggler_prob: f64,
    pub(crate) threads: usize,
    pub(crate) device: DeviceProfile,
    pub(crate) link: LteLink,
    pub(crate) telemetry: Telemetry,
    pub(crate) channel_stats: ChannelStats,
    alerts: AlertEngine,
    pub(crate) fleet_telemetry: bool,
    cohort: DistinctEstimator,
    /// The client behind each delta slot of the round in progress.
    delta_ids: Vec<usize>,
}

impl RoundDriver {
    /// A driver at round 0 over `datasets` client datasets, with the
    /// library defaults: inline execution, no stragglers, the Raspberry
    /// Pi 3b profile, a disabled recorder.
    pub(crate) fn new(config: FlConfig, datasets: usize, link: LteLink) -> Result<Self> {
        config.validate()?;
        if datasets != config.num_clients {
            return Err(FedError::InvalidArgument(format!(
                "{datasets} client datasets for {} configured clients",
                config.num_clients
            )));
        }
        Ok(RoundDriver {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            round: 0,
            straggler_prob: 0.0,
            threads: 1,
            device: DeviceProfile::raspberry_pi_3b(),
            link,
            telemetry: Recorder::disabled(),
            channel_stats: ChannelStats::new(),
            alerts: AlertEngine::default(),
            fleet_telemetry: false,
            cohort: DistinctEstimator::new(),
            delta_ids: Vec::new(),
        })
    }

    /// The configured campaign length.
    pub(crate) fn rounds(&self) -> usize {
        self.config.rounds
    }

    /// Runs one communication round of `alg` over `channel`.
    pub(crate) fn run_round<A: Algorithm>(
        &mut self,
        alg: &mut A,
        channel: &dyn Channel,
        test: &A::Test,
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
        alg.begin_round(self.round, &tel)?;
        let participants = sample_clients(
            self.config.num_clients,
            self.config.participants_per_round(),
            &mut self.rng,
        )?;
        // One seed per round, split into one independent stream per
        // client id: scheduling order cannot change what anyone samples,
        // and the master RNG advances identically at every thread count.
        let round_seed: u64 = self.rng.next_u64();
        // Fleet mode hands every task an inert buffer: per-client spans
        // and counters cost one branch and are never emitted, while the
        // round-level channel accounting below survives through the
        // task-local `ChannelStats` snapshots.
        let tasks: Vec<(usize, StdRng, TaskBuffer)> = participants
            .iter()
            .map(|&client| {
                (
                    client,
                    StdRng::seed_from_u64(split_seed(round_seed, client as u64)),
                    if self.fleet_telemetry {
                        Recorder::disabled().task_buffer()
                    } else {
                        tel.task_buffer()
                    },
                )
            })
            .collect();
        let (update_bytes, downlink_bytes) = (alg.update_bytes(), alg.downlink_bytes());
        // Simulated lane: the device profile costs each client's local
        // FLOPs, the LTE link one update's uplink airtime.
        let sim_uplink_micros = (self.link.airtime_seconds(update_bytes) * 1e6).round() as u64;
        let straggler_prob = self.straggler_prob;
        let workers: &A = alg;
        let outcomes = run_tasks_traced(
            tasks,
            resolve_threads(self.threads),
            &tel,
            |_, (client, rng, buf)| client_task(workers, client, rng, buf, straggler_prob, channel),
        );
        // Fixed-order reduction: fold outcomes in participant order so
        // telemetry replay, channel accounting (non-associative f64 noise
        // energy) and the aggregate are thread-count-invariant.
        let mut arrived = 0usize;
        let mut rows: Vec<TaskTrace> = Vec::with_capacity(participants.len());
        // Health bookkeeping is pure arithmetic over values the round
        // computes anyway, gated on an enabled recorder so uninstrumented
        // runs pay nothing and the seeded streams never notice.
        let mut slots = DeltaSlots::new(tel.enabled(), self.fleet_telemetry, round_seed);
        self.delta_ids.clear();
        // One constant-size sketch set absorbs a per-client observation
        // at each fold step, in the same fixed participant order; it is
        // also what marks the round as recorded from here on.
        let mut sketches = tel.enabled().then(RoundSketches::new);
        // Outcomes come back in task order == participant order.
        for ((outcome, timing), &client) in outcomes.into_iter().zip(&participants) {
            let outcome = outcome?;
            tel.absorb_task(outcome.buf);
            self.channel_stats.absorb(&outcome.stats);
            // Simulated device cost is pure arithmetic over already-drawn
            // state, so rows (and the RoundMetrics trace fields below)
            // are identical with or without a recorder attached.
            let flops = alg.client_flops(client);
            let sim_compute_micros =
                (self.device.estimate(flops as f64)?.seconds * 1e6).round() as u64;
            let arrives = outcome.update.is_some();
            if let Some(sketches) = &mut sketches {
                let damage = outcome.stats.bits_flipped
                    + outcome.stats.dims_erased
                    + outcome.stats.packets_dropped;
                sketches.absorb_client(
                    client as u64,
                    if arrives { update_bytes } else { 0 },
                    damage,
                    sim_compute_micros,
                    sim_compute_micros + if arrives { sim_uplink_micros } else { 0 },
                );
                self.cohort.insert(client as u64);
            }
            rows.push(TaskTrace {
                round: self.round as u64,
                client: client as u64,
                engine: A::ENGINE.into(),
                arrived: arrives,
                timing,
                sim_compute_micros,
                sim_uplink_micros,
            });
            if let Some(update) = outcome.update {
                arrived += 1;
                // Decided before the fold, so skipped clients never
                // materialize a delta.
                let slot = slots.offer(self.delta_ids.len());
                if let Some(slot) = slot {
                    claim(&mut self.delta_ids, slot, client);
                }
                alg.fold(client, update, slot);
            }
        }
        // If every participant straggled, the previous global model stands.
        if arrived > 0 {
            let _span = tel.span("round.aggregate");
            alg.finish_aggregate()?;
        }
        let test_accuracy = {
            let _span = tel.span("round.eval");
            alg.evaluate(test)?
        };
        drop(round_span);
        // Close the watermark before the health block below: its delta
        // covers the round's compute, not the diagnostics about it.
        let mem_delta = mem.finish();
        let mem_bytes_per_client = mem_delta.alloc_bytes / participants.len().max(1) as u64;
        // Round anatomy: simulated critical path is deterministic at any
        // thread count; the measured half is zero without a recorder.
        let trace_summary = fhdnn_telemetry::trace::summarize_round(&rows);

        if let Some(mut sketches) = sketches {
            tel.incr("fl.rounds", 1);
            tel.incr("fl.participants", participants.len() as u64);
            let stragglers = participants.len() - arrived;
            if stragglers > 0 {
                tel.incr("fl.stragglers", stragglers as u64);
            }
            // Uplink counts only updates that arrived; with stragglers
            // disabled this equals `bytes_per_client × participants`, the
            // `RunHistory` accounting.
            tel.incr("fl.bytes_up", update_bytes * arrived as u64);
            let packed_words = alg.packed_uplink_words();
            if packed_words > 0 {
                // The packed-transport view of `fl.bytes_up`.
                tel.incr("fl.packed_uplink_words", packed_words * arrived as u64);
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
            let traced = rows.len() as u64;
            if !self.fleet_telemetry {
                for row in rows {
                    tel.record_task_trace(row);
                }
            }
            tel.incr("trace.tasks", traced);
            tel.gauge("trace.worker_utilization", trace_summary.worker_utilization);
            trace_summary.emit(&tel);

            // Flight record: model diagnostics on the new global,
            // client-divergence outliers, channel-damage attribution.
            let health = alg.health()?;
            let mut div = DivergenceSummary::from_distances(&health.distances, &self.delta_ids);
            sketches.absorb_divergence(&div);
            if self.fleet_telemetry {
                div.outliers.truncate(FLEET_MAX_OUTLIERS);
            }
            let (norm_min, norm_max, norm_mean) = health.norms;
            let mut record = HealthRecord {
                round: self.round as u64,
                engine: A::ENGINE.into(),
                test_accuracy: test_accuracy as f64,
                participants: participants.len() as u64,
                arrived: arrived as u64,
                norm_min,
                norm_max,
                norm_mean,
                saturation: health.saturation,
                cosine_margin: health.cosine_margin,
                sign_flip_rate: health.sign_flip_rate,
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
            bytes_per_client: update_bytes,
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
}

/// The observer and execution knobs every federation forwards to its
/// [`RoundDriver`] field `driver`, defined once for both public types.
macro_rules! driver_accessors {
    () => {
        /// Attaches a telemetry recorder; subsequent rounds emit spans,
        /// counters and gauges through it. Defaults to the shared disabled
        /// recorder (no-ops).
        pub fn set_telemetry(&mut self, telemetry: fhdnn_telemetry::Telemetry) {
            self.driver.telemetry = telemetry;
        }

        /// The attached telemetry recorder.
        pub fn telemetry(&self) -> &fhdnn_telemetry::Telemetry {
            &self.driver.telemetry
        }

        /// Cumulative realized channel impairments across all
        /// transmissions so far (bits flipped, dimensions erased, packets
        /// dropped, noise energy).
        pub fn channel_stats(&self) -> fhdnn_channel::ChannelStatsSnapshot {
            self.driver.channel_stats.snapshot()
        }

        /// Sets how many pool threads run per-round client work: `0` means
        /// auto (the machine's available parallelism), `1` (the default)
        /// runs inline on the caller's thread. Round results are
        /// byte-identical at every thread count — per-client RNG streams
        /// are split from the round seed and the barrier reduces in fixed
        /// participant order — so this is purely a wall-clock knob.
        pub fn set_threads(&mut self, threads: usize) {
            self.driver.threads = threads;
        }

        /// The configured thread-count knob (`0` = auto).
        pub fn threads(&self) -> usize {
            self.driver.threads
        }

        /// Switches telemetry to fleet mode: per-client emission (per-task
        /// spans/counters, `trace.task` rows, unbounded outlier lists) is
        /// suppressed and the per-client divergence deltas are bounded by
        /// a seeded reservoir sample, so events per round and
        /// health-record size are O(1) in the cohort size. Sketch
        /// percentiles, exemplars, and round-level counters are
        /// unaffected.
        pub fn set_fleet_telemetry(&mut self, fleet: bool) {
            self.driver.fleet_telemetry = fleet;
        }

        /// Whether fleet-mode telemetry suppression is active.
        pub fn fleet_telemetry(&self) -> bool {
            self.driver.fleet_telemetry
        }

        /// Sets the simulated AIoT device whose throughput costs each
        /// client's local-training FLOPs on the trace's simulated lane.
        /// Defaults to the paper's Raspberry Pi 3b profile.
        pub fn set_device_profile(&mut self, device: crate::cost::DeviceProfile) {
            self.driver.device = device;
        }

        /// The simulated AIoT device profile.
        pub fn device_profile(&self) -> &crate::cost::DeviceProfile {
            &self.driver.device
        }

        /// Sets the simulated LTE uplink whose airtime costs each arrived
        /// update on the trace's simulated lane. Defaults to the paper's
        /// link for the engine: error-admitting (5.0 Mbit/s) under FHDnn,
        /// which transmits uncoded; error-free (1.6 Mbit/s) under FedAvg,
        /// which must transmit coded.
        pub fn set_lte_link(&mut self, link: fhdnn_channel::lte::LteLink) {
            self.driver.link = link;
        }

        /// The simulated LTE uplink.
        pub fn lte_link(&self) -> fhdnn_channel::lte::LteLink {
            self.driver.link
        }
    };
}
pub(crate) use driver_accessors;

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    use fhdnn_channel::NoiselessChannel;
    use fhdnn_telemetry::sink::MemorySink;

    use super::*;

    /// The fake the trait exists for: the model is a list of words, a
    /// client's update is `(client, first draw of its stream)`, and every
    /// stage call is logged.
    #[derive(Default)]
    struct Toy {
        model: Vec<u64>,
        folded: Vec<(usize, u64)>,
        worker_log: Mutex<Vec<(usize, &'static str)>>,
        main_log: Vec<&'static str>,
        baseline: Vec<f32>,
        params: Vec<f32>,
        float: FloatHealth,
    }

    impl Toy {
        fn log(&self, client: usize, stage: &'static str) {
            self.worker_log.lock().unwrap().push((client, stage));
        }

        /// The stages worker threads ran for `client`, in call order.
        fn stages(&self, client: usize) -> Vec<&'static str> {
            let log = self.worker_log.lock().unwrap();
            log.iter()
                .filter(|(c, _)| *c == client)
                .map(|(_, s)| *s)
                .collect()
        }
    }

    impl Algorithm for Toy {
        type Test = ();
        type Local = (usize, u64);
        type Update = (usize, u64);
        const ENGINE: &'static str = "fedhd";

        fn update_bytes(&self) -> u64 {
            16
        }
        fn downlink_bytes(&self) -> u64 {
            8
        }
        fn client_flops(&self, client: usize) -> u64 {
            1_000_000 * (client as u64 + 1)
        }
        fn begin_round(&mut self, _round: usize, tel: &Recorder) -> Result<()> {
            self.float.begin_round(tel.enabled());
            self.main_log = vec!["begin_round"];
            self.worker_log.lock().unwrap().clear();
            self.folded.clear();
            self.baseline = vec![self.model.len() as f32];
            Ok(())
        }
        fn broadcast(&self, client: usize) -> Result<(usize, u64)> {
            self.log(client, "broadcast");
            Ok((client, 0))
        }
        fn local_update(
            &self,
            client: usize,
            local: &mut (usize, u64),
            rng: &mut StdRng,
        ) -> Result<()> {
            self.log(client, "local_update");
            local.1 = rng.next_u64();
            Ok(())
        }
        fn transmit(&self, local: (usize, u64), up: &mut Uplink<'_>) -> Result<(usize, u64)> {
            self.log(local.0, "transmit");
            let mut payload = [local.1 as f32];
            up.channel
                .transmit_f32_stats(&mut payload, up.rng, up.stats);
            Ok(local)
        }
        fn fold(&mut self, client: usize, update: (usize, u64), slot: Option<usize>) {
            assert_eq!(client, update.0, "the driver labels updates by sender");
            if let Some(slot) = slot {
                let delta = self.float.slot(slot);
                delta.clear();
                delta.push((update.1 % 7) as f32);
            }
            self.main_log.push("fold");
            self.folded.push(update);
        }
        fn finish_aggregate(&mut self) -> Result<()> {
            self.main_log.push("finish_aggregate");
            self.model = self.folded.iter().map(|&(c, d)| c as u64 ^ d).collect();
            Ok(())
        }
        fn evaluate(&mut self, _test: &()) -> Result<f32> {
            self.main_log.push("evaluate");
            self.params = vec![self.model.len() as f32];
            Ok(self.model.len() as f32 / 16.0)
        }
        fn health(&mut self) -> Result<ModelHealth> {
            let (sign_flip_rate, distances) = self.float.finish(&self.params, &self.baseline);
            Ok(ModelHealth {
                norms: (1.0, 1.0, 1.0),
                saturation: 0.0,
                cosine_margin: 1.0,
                sign_flip_rate,
                distances,
            })
        }
    }

    fn driver(threads: usize, straggler_prob: f64) -> RoundDriver {
        let config = FlConfig {
            num_clients: 16,
            rounds: 4,
            client_fraction: 0.5,
            seed: 11,
            ..FlConfig::default()
        };
        let mut driver = RoundDriver::new(config, 16, LteLink::error_admitting()).unwrap();
        driver.threads = threads;
        driver.straggler_prob = straggler_prob;
        driver
    }

    fn campaign(driver: &mut RoundDriver) -> (Vec<RoundMetrics>, Vec<u64>) {
        let mut toy = Toy::default();
        let rounds = (0..driver.rounds())
            .map(|_| {
                driver
                    .run_round(&mut toy, &NoiselessChannel::new(), &())
                    .unwrap()
            })
            .collect();
        (rounds, toy.model)
    }

    #[test]
    fn stages_run_in_order_and_stragglers_skip_transmit() {
        let mut driver = driver(2, 0.5);
        let mut toy = Toy::default();
        let (mut straggled, mut arrived) = (0, 0);
        for _ in 0..4 {
            let metrics = driver
                .run_round(&mut toy, &NoiselessChannel::new(), &())
                .unwrap();
            assert_eq!(metrics.participants, 8);
            let folded: Vec<usize> = toy.folded.iter().map(|&(c, _)| c).collect();
            // Fold order is participant order: ascending client ids.
            assert!(folded.windows(2).all(|w| w[0] < w[1]), "{folded:?}");
            let sampled: BTreeSet<usize> = toy
                .worker_log
                .lock()
                .unwrap()
                .iter()
                .map(|&(c, _)| c)
                .collect();
            assert_eq!(sampled.len(), 8);
            for &client in &sampled {
                // A straggler still trained; only its transmission is gone.
                let expect: &[&str] = if folded.contains(&client) {
                    &["broadcast", "local_update", "transmit"]
                } else {
                    &["broadcast", "local_update"]
                };
                assert_eq!(toy.stages(client), expect, "client {client}");
            }
            let mut expect = vec!["begin_round"];
            expect.extend(folded.iter().map(|_| "fold"));
            expect.extend(["finish_aggregate", "evaluate"]);
            assert_eq!(toy.main_log, expect);
            arrived += folded.len();
            straggled += 8 - folded.len();
        }
        assert!(straggled > 0 && arrived > 0, "{straggled} vs {arrived}");
    }

    #[test]
    fn thread_count_changes_neither_metrics_nor_model() {
        let mut counts = vec![2, 8];
        counts.extend(
            std::env::var("FHDNN_TEST_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok()),
        );
        let serial = campaign(&mut driver(1, 0.25));
        assert!(!serial.1.is_empty());
        for threads in counts {
            assert_eq!(campaign(&mut driver(threads, 0.25)), serial, "{threads}");
        }
    }

    #[test]
    fn all_straggled_round_keeps_the_model_and_still_reports() {
        let mut driver = driver(1, 0.0);
        let mut toy = Toy::default();
        driver
            .run_round(&mut toy, &NoiselessChannel::new(), &())
            .unwrap();
        let before = toy.model.clone();
        assert_eq!(before.len(), 8);
        // Beyond what `set_straggler_prob` admits: nobody reports.
        driver.straggler_prob = 1.0;
        let metrics = driver
            .run_round(&mut toy, &NoiselessChannel::new(), &())
            .unwrap();
        assert_eq!(toy.model, before);
        assert_eq!(toy.main_log, ["begin_round", "evaluate"]);
        assert_eq!((metrics.round, metrics.participants), (1, 8));
        assert_eq!(metrics.test_accuracy, 0.5);
    }

    #[test]
    fn one_health_and_one_trace_record_per_round() {
        for fleet in [false, true] {
            let mut driver = driver(2, 0.25);
            let sink = Arc::new(MemorySink::new());
            driver.telemetry = Recorder::with_sink(sink.clone());
            driver.fleet_telemetry = fleet;
            let (rounds, _) = campaign(&mut driver);
            let count = |name: &str| sink.events().iter().filter(|e| e.name == name).count();
            assert_eq!(count("health.round"), rounds.len());
            assert_eq!(count("trace.round"), rounds.len());
            let tasks = if fleet { 0 } else { 8 * rounds.len() };
            assert_eq!(count("trace.task"), tasks, "fleet={fleet}");
        }
    }

    #[test]
    fn recorder_changes_only_timing_and_memory_fields() {
        let (plain, plain_model) = campaign(&mut driver(1, 0.25));
        let mut recorded = driver(1, 0.25);
        recorded.telemetry = Recorder::in_memory();
        let (recorded, recorded_model) = campaign(&mut recorded);
        assert_eq!(plain_model, recorded_model);
        for (a, b) in plain.iter().zip(&recorded) {
            // `RoundMetrics` equality already excludes wall-clock and
            // heap fields; utilization is measured, so it differs too.
            assert_eq!(a, b);
            assert_eq!(a.bytes_per_client, 16);
            assert_eq!(a.downlink_bytes_per_client, b.downlink_bytes_per_client);
            assert!(a.trace_sim_round_micros > 0);
        }
    }

    #[test]
    fn health_scratch_lives_under_a_recorder_only_and_is_written_in_place() {
        // 80 arrivals a round: verbose mode keeps a delta for each, fleet
        // mode one per reservoir slot however many replace each other.
        for (fleet, kept) in [(false, 80), (true, FLEET_DIVERGENCE_SAMPLE)] {
            let config = FlConfig {
                num_clients: 80,
                client_fraction: 1.0,
                seed: 3,
                ..FlConfig::default()
            };
            let mut driver = RoundDriver::new(config, 80, LteLink::error_admitting()).unwrap();
            driver.fleet_telemetry = fleet;
            let mut toy = Toy::default();
            let mut round = |driver: &mut RoundDriver| {
                driver
                    .run_round(&mut toy, &NoiselessChannel::new(), &())
                    .unwrap();
                assert_eq!(driver.delta_ids.len(), toy.float.filled);
                let scratch = &toy.float;
                let buffers = scratch.deltas.iter().map(|delta| delta.as_ptr());
                (
                    buffers.collect::<Vec<_>>(),
                    scratch.aggregate_delta.capacity(),
                )
            };
            assert_eq!(round(&mut driver), (Vec::new(), 0), "no recorder, no bytes");
            driver.telemetry = Recorder::in_memory();
            let first = round(&mut driver);
            assert_eq!(first.0.len(), kept, "fleet={fleet}");
            assert!(first.1 > 0);
            // A steady-state round moves no buffer: every delta, replaced
            // reservoir slots included, lands where an earlier one lay.
            assert_eq!(round(&mut driver), first, "fleet={fleet}");
            driver.telemetry = Recorder::disabled();
            assert_eq!(round(&mut driver), (Vec::new(), 0), "fleet={fleet}");
        }
    }

    #[test]
    fn delta_slots_follow_the_recorder_mode() {
        let mut never = DeltaSlots::new(false, true, 9);
        assert!((0..100).all(|kept| never.offer(kept).is_none()));
        let mut all = DeltaSlots::new(true, false, 9);
        assert!((0..100).all(|kept| all.offer(kept) == Some(kept)));
        let sample = |seed: u64| {
            let mut slots = DeltaSlots::new(true, true, seed);
            let mut kept = 0;
            let offers: Vec<Option<usize>> = (0..100)
                .map(|_| {
                    let slot = slots.offer(kept);
                    kept += usize::from(slot == Some(kept));
                    slot
                })
                .collect();
            offers
        };
        let offers = sample(9);
        // The first arrivals fill the sample in order; later ones replace.
        let head: Vec<Option<usize>> = (0..FLEET_DIVERGENCE_SAMPLE).map(Some).collect();
        assert_eq!(offers[..FLEET_DIVERGENCE_SAMPLE], head);
        let distinct: BTreeSet<usize> = offers.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), FLEET_DIVERGENCE_SAMPLE);
        assert!(offers[FLEET_DIVERGENCE_SAMPLE..]
            .iter()
            .any(Option::is_none));
        assert_eq!(offers, sample(9), "one round seed, one sample");
        assert_ne!(offers, sample(10));
    }
}
