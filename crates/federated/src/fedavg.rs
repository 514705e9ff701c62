//! FedAvg over CNNs — the paper's baseline (McMahan et al., as configured
//! in §4).
//!
//! Each round: the server broadcasts the global float32 parameter vector;
//! a sampled fraction `C` of clients trains it for `E` local epochs with
//! batch size `B`; each client's full parameter vector is transmitted
//! uplink through a (possibly unreliable) [`Channel`]; the server averages
//! the received vectors weighted by client sample counts.
//!
//! The round protocol itself lives in the crate-private `round` module;
//! this module supplies the FedAvg rule it drives. Every worker trains
//! its own clone of the broadcast network with an RNG stream split from
//! the round seed, and the barrier folds in fixed participant order, so
//! results are byte-identical at any thread count.

use fhdnn_channel::lte::LteLink;
use fhdnn_channel::Channel;
use fhdnn_datasets::batcher::Batcher;
use fhdnn_datasets::image::ImageDataset;
use fhdnn_nn::loss::{accuracy, cross_entropy};
use fhdnn_nn::optim::{LrSchedule, Sgd};
use fhdnn_nn::{Mode, Network};
use fhdnn_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::config::FlConfig;
use crate::health::{elementwise_delta_into, norm_stats};
use crate::metrics::{RoundMetrics, RunHistory};
use crate::round::{driver_accessors, Algorithm, FloatHealth, ModelHealth, RoundDriver, Uplink};
use crate::{FedError, Result};

/// Local optimizer settings used by every client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSgdConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for LocalSgdConfig {
    fn default() -> Self {
        LocalSgdConfig {
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }
}

/// A FedAvg federation over one CNN architecture.
///
/// Holds the global model and per-client datasets. Each round, every
/// participant trains its own clone of the broadcast network (clients are
/// stateless between rounds, exactly as in FedAvg), so client work is
/// embarrassingly parallel across the round pool.
#[derive(Debug)]
pub struct CnnFederation {
    driver: RoundDriver,
    alg: FedAvg,
}

/// The FedAvg rule: local SGD on a clone of the global network, the full
/// (or a random fraction of the) parameter vector on the wire, a
/// per-coordinate sample-weighted mean at the server.
#[derive(Debug)]
struct FedAvg {
    global: Network,
    clients: Vec<ImageDataset>,
    local_epochs: usize,
    batch_size: usize,
    sgd: LocalSgdConfig,
    upload_fraction: f32,
    lr_schedule: LrSchedule,
    /// This round's learning rate under the schedule.
    lr: f32,
    /// One SGD step on a single sample, in FLOPs.
    per_sample_flops: u64,
    /// The flattened round-start parameters: what unsent coordinates fall
    /// back to, and the health baseline.
    broadcast: Vec<f32>,
    /// The flattened parameters after the last aggregate.
    averaged: Vec<f32>,
    /// The open aggregate; `None` until the round's first update folds.
    sums: Option<Sums>,
    /// The divergence deltas of a recorded round.
    float: FloatHealth,
}

/// Sample-weighted `f64` sums over the arrived updates, per coordinate.
#[derive(Debug)]
struct Sums {
    acc: Vec<f64>,
    weights: Vec<f64>,
    state_acc: Vec<f64>,
    state_weight: f64,
}

/// What reaches the server from one FedAvg client.
struct CnnUpdate {
    /// The transmitted (possibly channel-corrupted) parameter payload.
    payload: Vec<f32>,
    /// `Some(coordinates)` when compressed uploads are on; `None` means
    /// `payload` is the full parameter vector.
    indices: Option<Vec<usize>>,
    /// Running (non-trainable) state after local training, e.g. batch-norm
    /// statistics. Never transmitted — FedAvg uplinks only parameters.
    running_state: Vec<f32>,
}

impl Algorithm for FedAvg {
    type Test = ImageDataset;
    type Local = Network;
    type Update = CnnUpdate;
    const ENGINE: &'static str = "fedavg";

    fn update_bytes(&self) -> u64 {
        let full = self.global.num_params() as f64 * 4.0;
        (full * self.upload_fraction as f64).ceil() as u64
    }

    /// FedAvg broadcasts the full float32 parameter vector downlink.
    fn downlink_bytes(&self) -> u64 {
        self.broadcast.len() as u64 * 4
    }

    fn client_flops(&self, client: usize) -> u64 {
        self.per_sample_flops * self.clients[client].len() as u64 * self.local_epochs as u64
    }

    fn begin_round(&mut self, round: usize, tel: &Recorder) -> Result<()> {
        (self.averaged, self.sums) = (Vec::new(), None);
        self.float.begin_round(tel.enabled());
        {
            let _span = tel.span("round.broadcast");
            self.broadcast = self.global.flatten_params();
        }
        self.lr = self.lr_schedule.lr_at(round, self.sgd.learning_rate);
        let mut dims = self.clients[0].images.dims().to_vec();
        dims[0] = 1;
        self.per_sample_flops = fhdnn_nn::flops::training_flops(&self.global, &dims)?;
        Ok(())
    }

    fn broadcast(&self, _client: usize) -> Result<Network> {
        Ok(self.global.clone())
    }

    fn local_update(&self, client: usize, net: &mut Network, rng: &mut StdRng) -> Result<()> {
        let data = &self.clients[client];
        let mut opt = Sgd::new(self.lr)
            .momentum(self.sgd.momentum)
            .weight_decay(self.sgd.weight_decay);
        let batcher = Batcher::new(data.len(), self.batch_size);
        for _ in 0..self.local_epochs {
            for batch in batcher.epoch(rng) {
                let subset = data.subset(&batch)?;
                net.zero_grad();
                let logits = net.forward(&subset.images, Mode::Train)?;
                let out = cross_entropy(&logits, &subset.labels)?;
                net.backward(&out.grad)?;
                opt.step(net)?;
            }
        }
        Ok(())
    }

    fn transmit(&self, net: Network, up: &mut Uplink<'_>) -> Result<CnnUpdate> {
        let update = net.flatten_params();
        let num_params = update.len();
        let (mut payload, indices) = if self.upload_fraction >= 1.0 {
            (update, None)
        } else {
            // Compressed upload: a fresh random coordinate subset.
            let keep = ((num_params as f64 * self.upload_fraction as f64).ceil() as usize)
                .clamp(1, num_params);
            let mut indices: Vec<usize> = (0..num_params).collect();
            indices.shuffle(up.rng);
            indices.truncate(keep);
            (indices.iter().map(|&i| update[i]).collect(), Some(indices))
        };
        let span = up.buf.begin("chan.uplink");
        up.channel
            .transmit_f32_stats(&mut payload, up.rng, up.stats);
        up.buf.end(span);
        Ok(CnnUpdate {
            payload,
            indices,
            running_state: net.running_state(),
        })
    }

    fn fold(&mut self, client: usize, update: CnnUpdate, slot: Option<usize>) {
        if let Some(slot) = slot {
            update.delta_into(&self.broadcast, self.float.slot(slot));
        }
        let weight = self.clients[client].len() as f64;
        let sums = self.sums.get_or_insert_with(|| Sums {
            acc: vec![0.0; self.broadcast.len()],
            weights: vec![0.0; self.broadcast.len()],
            state_acc: vec![0.0; update.running_state.len()],
            state_weight: 0.0,
        });
        match &update.indices {
            None => {
                for (i, &u) in update.payload.iter().enumerate() {
                    sums.acc[i] += weight * u as f64;
                    sums.weights[i] += weight;
                }
            }
            Some(indices) => {
                for (&i, &u) in indices.iter().zip(&update.payload) {
                    sums.acc[i] += weight * u as f64;
                    sums.weights[i] += weight;
                }
            }
        }
        for (s, &v) in sums.state_acc.iter_mut().zip(&update.running_state) {
            *s += weight * v as f64;
        }
        sums.state_weight += weight;
    }

    fn finish_aggregate(&mut self) -> Result<()> {
        let Some(sums) = self.sums.take() else {
            return Ok(());
        };
        // Coordinates nobody sent keep their previous global value.
        let sent = sums.acc.iter().zip(&sums.weights);
        self.averaged = sent
            .zip(&self.broadcast)
            .map(|((&a, &w), &prev)| if w > 0.0 { (a / w) as f32 } else { prev })
            .collect();
        self.global.load_params(&self.averaged)?;
        // Batch-norm running statistics never ride the (lossy) uplink
        // model update; the server folds them as the same weighted mean
        // so evaluation tracks the clients' activation statistics.
        if sums.state_weight > 0.0 && !sums.state_acc.is_empty() {
            let mean_state: Vec<f32> = sums
                .state_acc
                .iter()
                .map(|&s| (s / sums.state_weight) as f32)
                .collect();
            self.global.load_running_state(&mean_state)?;
        }
        Ok(())
    }

    fn evaluate(&mut self, test: &ImageDataset) -> Result<f32> {
        // Evaluate in chunks to bound peak memory.
        let chunk = 256;
        let mut correct_weighted = 0.0f32;
        let mut seen = 0usize;
        let n = test.len();
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let images = test.images.slice_first_axis(start, end)?;
            let logits = self.global.forward(&images, Mode::Eval)?;
            let batch_acc = accuracy(&logits, &test.labels[start..end])?;
            correct_weighted += batch_acc * (end - start) as f32;
            seen += end - start;
            start = end;
        }
        Ok(if seen == 0 {
            0.0
        } else {
            correct_weighted / seen as f32
        })
    }

    /// The CNN has no class prototypes, so the HD diagnostics degrade to
    /// whole-vector statistics (single norm, no saturation or margin).
    fn health(&mut self) -> Result<ModelHealth> {
        let (sign_flip_rate, distances) = self.float.finish(&self.averaged, &self.broadcast);
        Ok(ModelHealth {
            norms: norm_stats(&[fhdnn_hdc::health::l2_norm(&self.averaged)]),
            saturation: 0.0,
            cosine_margin: 1.0,
            sign_flip_rate,
            distances,
        })
    }
}

impl CnnUpdate {
    /// The update's delta from the round-start parameters `broadcast`,
    /// written over `out`.
    fn delta_into(&self, broadcast: &[f32], out: &mut Vec<f32>) {
        match &self.indices {
            None => elementwise_delta_into(&self.payload, broadcast, out),
            Some(indices) => {
                // Unsent coordinates contribute zero delta.
                out.clear();
                out.resize(broadcast.len(), 0.0);
                for (&i, &u) in indices.iter().zip(&self.payload) {
                    out[i] = u - broadcast[i];
                }
            }
        }
    }
}

impl CnnFederation {
    /// Creates a federation from a freshly-initialized network and one
    /// dataset per client.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is invalid or the client count does
    /// not match `config.num_clients`.
    pub fn new(
        global: Network,
        clients: Vec<ImageDataset>,
        config: FlConfig,
        sgd: LocalSgdConfig,
    ) -> Result<Self> {
        // Conventional FL must transmit coded: the paper's error-free link.
        let driver = RoundDriver::new(config, clients.len(), LteLink::error_free())?;
        if clients.iter().any(ImageDataset::is_empty) {
            return Err(FedError::InvalidArgument("a client has no data".into()));
        }
        let alg = FedAvg {
            global,
            clients,
            local_epochs: config.local_epochs,
            batch_size: config.batch_size,
            sgd,
            upload_fraction: 1.0,
            lr_schedule: LrSchedule::Constant,
            lr: sgd.learning_rate,
            per_sample_flops: 0,
            broadcast: Vec::new(),
            averaged: Vec::new(),
            sums: None,
            float: FloatHealth::default(),
        };
        Ok(CnnFederation { driver, alg })
    }

    driver_accessors!();

    /// Sets the per-round learning-rate schedule applied on top of the
    /// configured base rate (e.g. cosine annealing across the federated
    /// rounds).
    pub fn set_lr_schedule(&mut self, schedule: LrSchedule) {
        self.alg.lr_schedule = schedule;
    }

    /// Enables compressed uploads: each round, every client transmits only
    /// a random `fraction` of its parameters (a fresh coordinate mask per
    /// client per round), and the server averages per coordinate over the
    /// clients that sent it. This is the related-work baseline of reduced
    /// client updates / federated dropout ([4, 5] in the paper) — it
    /// shrinks bytes but, unlike FHDnn, confers no channel robustness.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidArgument`] if `fraction ∉ (0, 1]`.
    pub fn set_upload_fraction(&mut self, fraction: f32) -> Result<()> {
        if fraction <= 0.0 || fraction > 1.0 || fraction.is_nan() {
            return Err(FedError::InvalidArgument(format!(
                "upload fraction must be in (0, 1], got {fraction}"
            )));
        }
        self.alg.upload_fraction = fraction;
        Ok(())
    }

    /// The global model.
    pub fn global(&self) -> &Network {
        &self.alg.global
    }

    /// Upload size of one client update in bytes (float32 parameters,
    /// scaled by the upload fraction when compression is enabled).
    pub fn update_bytes(&self) -> u64 {
        self.alg.update_bytes()
    }

    /// Runs one communication round with the given uplink channel,
    /// returning the per-round metrics (evaluated on `test`).
    ///
    /// # Errors
    ///
    /// Propagates training and evaluation failures.
    pub fn run_round(
        &mut self,
        channel: &dyn Channel,
        test: &ImageDataset,
    ) -> Result<RoundMetrics> {
        self.driver.run_round(&mut self.alg, channel, test)
    }

    /// Runs the configured number of rounds, returning the full history.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run(
        &mut self,
        channel: &dyn Channel,
        test: &ImageDataset,
        label: impl Into<String>,
    ) -> Result<RunHistory> {
        let mut history = RunHistory::new(label);
        for _ in 0..self.driver.rounds() {
            history.push(self.run_round(channel, test)?);
        }
        Ok(history)
    }

    /// Test-set accuracy of the current global model.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures.
    pub fn evaluate(&mut self, test: &ImageDataset) -> Result<f32> {
        self.alg.evaluate(test)
    }
}

/// Builds per-client [`ImageDataset`]s from a global pool and an index
/// partition.
///
/// # Errors
///
/// Propagates subset failures (out-of-range indices).
pub fn carve_clients(pool: &ImageDataset, parts: &[Vec<usize>]) -> Result<Vec<ImageDataset>> {
    parts
        .iter()
        .map(|idx| pool.subset(idx).map_err(FedError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn_channel::NoiselessChannel;
    use fhdnn_datasets::image::SynthSpec;
    use fhdnn_datasets::partition::Partition;
    use fhdnn_nn::models::small_cnn;
    use rand::SeedableRng;

    fn tiny_setup(num_clients: usize, seed: u64) -> (CnnFederation, ImageDataset) {
        let spec = SynthSpec::mnist_like();
        let pool = spec.generate(num_clients * 20, seed).unwrap();
        let test = spec.generate(100, seed + 1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let parts = Partition::Iid
            .split(&pool.labels, num_clients, &mut rng)
            .unwrap();
        let clients = carve_clients(&pool, &parts).unwrap();
        let net = small_cnn(1, 16, 10, &mut rng).unwrap();
        let config = FlConfig {
            num_clients,
            rounds: 3,
            local_epochs: 1,
            batch_size: 10,
            client_fraction: 0.5,
            seed,
            ..FlConfig::default()
        };
        let fed = CnnFederation::new(net, clients, config, LocalSgdConfig::default()).unwrap();
        (fed, test)
    }

    #[test]
    fn round_improves_over_random_chance() {
        let (mut fed, test) = tiny_setup(4, 0);
        let channel = NoiselessChannel::new();
        let mut last = 0.0;
        for _ in 0..3 {
            last = fed.run_round(&channel, &test).unwrap().test_accuracy;
        }
        assert!(
            last > 0.2,
            "accuracy {last} above 10% chance after 3 rounds"
        );
    }

    #[test]
    fn run_returns_full_history() {
        let (mut fed, test) = tiny_setup(4, 1);
        let history = fed.run(&NoiselessChannel::new(), &test, "smoke").unwrap();
        assert_eq!(history.rounds.len(), 3);
        assert_eq!(history.label, "smoke");
        assert!(history.rounds.iter().all(|r| r.participants == 2));
    }

    #[test]
    fn update_bytes_match_param_count() {
        let (fed, _) = tiny_setup(4, 2);
        assert_eq!(fed.update_bytes(), fed.global().num_params() as u64 * 4);
    }

    #[test]
    fn lr_schedule_still_learns() {
        use fhdnn_nn::optim::LrSchedule;
        let (mut fed, test) = tiny_setup(4, 5);
        fed.set_lr_schedule(LrSchedule::Cosine {
            total: 3,
            min_lr: 1e-3,
        });
        let channel = NoiselessChannel::new();
        let mut last = 0.0;
        for _ in 0..3 {
            last = fed.run_round(&channel, &test).unwrap().test_accuracy;
        }
        assert!(last > 0.2, "cosine-annealed accuracy {last}");
    }

    #[test]
    fn compressed_uploads_shrink_bytes_and_still_learn() {
        let (mut fed, test) = tiny_setup(4, 3);
        let full_bytes = fed.update_bytes();
        fed.set_upload_fraction(0.25).unwrap();
        assert!(fed.update_bytes() <= full_bytes / 4 + 4);
        let channel = NoiselessChannel::new();
        let mut last = 0.0;
        for _ in 0..3 {
            last = fed.run_round(&channel, &test).unwrap().test_accuracy;
        }
        assert!(last > 0.15, "compressed-upload accuracy {last}");
    }

    #[test]
    fn upload_fraction_validated() {
        let (mut fed, _) = tiny_setup(4, 4);
        assert!(fed.set_upload_fraction(0.0).is_err());
        assert!(fed.set_upload_fraction(1.5).is_err());
        assert!(fed.set_upload_fraction(0.5).is_ok());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The tentpole invariant, CNN side: same seed, different pool
        // widths, identical history and byte-identical final parameters —
        // with compressed uploads and a noisy channel so both the
        // coordinate masks and the channel draws ride per-client streams.
        use fhdnn_channel::bit_error::BitErrorChannel;
        let run = |threads: usize| {
            let (mut fed, test) = tiny_setup(4, 9);
            fed.set_threads(threads);
            fed.set_upload_fraction(0.5).unwrap();
            let channel = BitErrorChannel::new(1e-4).unwrap();
            let history = fed.run(&channel, &test, "par").unwrap();
            let params: Vec<u32> = fed
                .global()
                .flatten_params()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (history, params, fed.channel_stats())
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
                "parameter bits diverged at {threads} threads"
            );
            assert_eq!(
                serial.2, parallel.2,
                "channel stats diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn fleet_mode_preserves_results_and_bounds_emission() {
        use fhdnn_telemetry::sink::MemorySink;
        use std::sync::Arc;
        let run = |fleet: bool| {
            let (mut fed, test) = tiny_setup(4, 6);
            let sink = Arc::new(MemorySink::new());
            fed.set_telemetry(Recorder::with_sink(sink.clone()));
            fed.set_fleet_telemetry(fleet);
            let history = fed.run(&NoiselessChannel::new(), &test, "fleet").unwrap();
            let params: Vec<u32> = fed
                .global()
                .flatten_params()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (history, params, sink.events())
        };
        let (vh, vp, verbose) = run(false);
        let (fh, fp, fleet) = run(true);
        // The reservoir and inert buffers must not perturb training.
        assert_eq!(vh, fh);
        assert_eq!(vp, fp);
        assert!(fleet.len() < verbose.len());
        assert!(fleet.iter().all(|e| e.name != "trace.task"));
        let health = fleet.iter().find(|e| e.name == "health.round").unwrap();
        let parsed = fhdnn_telemetry::jsonl::parse(&health.to_json()).unwrap();
        let rec =
            crate::health::HealthRecord::from_event_fields(parsed.get("fields").unwrap()).unwrap();
        assert!(rec.uplink_p99_bytes > 0, "{rec:?}");
        assert!(rec.cohort_clients >= 2, "{rec:?}");
        assert!(!rec.exemplars.is_empty(), "{rec:?}");
    }

    #[test]
    fn rejects_client_count_mismatch() {
        let spec = SynthSpec::mnist_like();
        let pool = spec.generate(40, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let parts = Partition::Iid.split(&pool.labels, 2, &mut rng).unwrap();
        let clients = carve_clients(&pool, &parts).unwrap();
        let net = small_cnn(1, 16, 10, &mut rng).unwrap();
        let config = FlConfig {
            num_clients: 4,
            ..FlConfig::default()
        };
        assert!(CnnFederation::new(net, clients, config, LocalSgdConfig::default()).is_err());
    }
}
