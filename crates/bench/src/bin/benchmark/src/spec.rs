//! What the benchmark runs and what it reports: the four workloads and
//! the two metric tables. `BENCHMARK.json` at the repository root lists
//! the same names with their bounds; a test holds the two together.

use fhdnn::channel::bit_error::BitErrorChannel;
use fhdnn::channel::packet::PacketLossChannel;
use fhdnn::channel::{Channel, NoiselessChannel};
use fhdnn::datasets::features::FeatureSpec;
use fhdnn::experiment::Workload;
use fhdnn::federated::config::{FlConfig, HdExecution};
use fhdnn::federated::fedhd::HdTransport;

use crate::json::{self, Value};

/// The contract file, embedded so `compare` and the self-test read the
/// bounds the driver reads.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// Seed of everything that is the system's configuration rather than
/// its input: the frozen extractor's weights, the projection matrix Φ,
/// the FedAvg network's initial weights. `--seed` moves the data, the
/// client sampling and the channel noise; it does not move these,
/// because an untrained extractor's quality differs more between two
/// initialisations than any optimisation would move it.
pub const MODEL_SEED: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees, per workload.
pub static END_TO_END: [MetricDef; 10] = [
    lower("setup_s", "s"),
    lower("campaign_s", "s"),
    lower("build_s", "s"),
    higher("rounds_per_s", "1/s"),
    higher("recorded_rounds_per_s", "1/s"),
    lower("round_ms_p50", "ms"),
    lower("time_to_target_s", "s"),
    lower("uplink_mib_to_target", "MiB"),
    higher("final_accuracy", "fraction"),
    lower("peak_mib", "MiB"),
];

/// Single-layer numbers from the traced run, measured at the running
/// workload's shapes. A layer the workload does not call reports 0.
pub static PER_LAYER: [MetricDef; 47] = [
    higher("tensor.matmul_gmacs", "GMAC/s"),
    lower("tensor.matmul_alloc_bytes", "B"),
    lower("nn.conv2d_fwd_us", "us"),
    lower("nn.conv2d_scratch_bytes", "B"),
    lower("nn.trunk_fwd_us_per_image", "us"),
    lower("nn.train_step_us_per_image", "us"),
    lower("nn.eval_us_per_image", "us"),
    lower("datasets.image_gen_us_per_image", "us"),
    lower("datasets.feature_gen_us_per_sample", "us"),
    lower("datasets.partition_us", "us"),
    lower("fhdnn.extract_s", "s"),
    higher("fhdnn.extract_images_per_s", "1/s"),
    lower("fhdnn.build_residual_share", "fraction"),
    lower("fhdnn.evaluate_ms", "ms"),
    lower("hdc.encode_us_per_sample", "us"),
    lower("hdc.encode_alloc_bytes_per_sample", "B"),
    lower("hdc.pack_us_per_sample", "us"),
    lower("hdc.one_shot_us_per_sample", "us"),
    lower("hdc.refine_us_per_sample", "us"),
    lower("hdc.refine_updates_share", "fraction"),
    lower("hdc.refine_packed_us_per_sample", "us"),
    lower("hdc.quantize_us", "us"),
    lower("hdc.dequantize_us", "us"),
    lower("hdc.bundle_us_per_model", "us"),
    lower("hdc.vote_us_per_model", "us"),
    lower("hdc.predict_us_per_sample", "us"),
    lower("hdc.predict_packed_us_per_sample", "us"),
    lower("channel.f32_pktloss_ns_per_symbol", "ns"),
    lower("channel.words_biterr_ns_per_symbol", "ns"),
    lower("channel.packed_pktloss_ns_per_dim", "ns"),
    lower("channel.biterr_realised_ratio", "ratio"),
    lower("channel.pktloss_realised_ratio", "ratio"),
    lower("federated.round_ms_p90", "ms"),
    lower("federated.round_self_share", "fraction"),
    lower("federated.allocs_per_round", "count"),
    lower("federated.alloc_bytes_per_round", "B"),
    lower("federated.sample_clients_us", "us"),
    lower("federated.stage_broadcast_ms", "ms"),
    lower("federated.stage_local_train_ms", "ms"),
    lower("federated.stage_transmit_ms", "ms"),
    lower("federated.stage_aggregate_ms", "ms"),
    lower("federated.stage_eval_ms", "ms"),
    higher("federated.pool_speedup_t2", "ratio"),
    lower("telemetry.recorded_ratio", "ratio"),
    lower("telemetry.fleet_ratio", "ratio"),
    lower("telemetry.events_per_round", "count"),
    lower("telemetry.allocs_per_round_recorded", "count"),
];

/// The pipeline a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Pipeline {
    /// Frozen CNN → `sign(Φz)` → HD rounds, through `FhdnnSystem`.
    Image {
        dataset: Workload,
        hd_dim: usize,
        transport: HdTransport,
    },
    /// Feature vectors → `sign(Φz)` → HD rounds, through `HdFederation`.
    Features {
        features: FeatureSpec,
        hd_dim: usize,
        transport: HdTransport,
    },
    /// The FedAvg baseline: `resnet_lite` trained by `CnnFederation`.
    FedAvg { dataset: Workload },
}

/// The uplink a workload transmits over.
#[derive(Debug, Clone, Copy)]
pub enum Link {
    Clean,
    PacketLoss { loss: f64, packet_bits: usize },
    BitError { ber: f64 },
}

impl Link {
    pub fn channel(self) -> Result<Box<dyn Channel>, String> {
        Ok(match self {
            Link::Clean => Box::new(NoiselessChannel::new()),
            Link::PacketLoss { loss, packet_bits } => Box::new(
                PacketLossChannel::new(loss, packet_bits).map_err(|e| format!("channel: {e}"))?,
            ),
            Link::BitError { ber } => {
                Box::new(BitErrorChannel::new(ber).map_err(|e| format!("channel: {e}"))?)
            }
        })
    }
}

/// One fixed campaign.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub pipeline: Pipeline,
    pub link: Link,
    pub clients: usize,
    pub samples_per_client: usize,
    pub test_size: usize,
    pub client_fraction: f32,
    pub rounds: usize,
    /// Test accuracy `time_to_target_s` waits for; frozen on the
    /// steepest part of the seed-0 curve (README has the fractions).
    pub target_accuracy: f32,
    /// `final_accuracy` below this fails the run.
    pub accuracy_floor: f32,
    /// Allowed relative gap between realised and configured channel
    /// damage.
    pub damage_tolerance: f64,
}

impl WorkloadSpec {
    pub fn train_size(&self) -> usize {
        self.clients * self.samples_per_client
    }

    /// The paper's §4.3 local settings: `E = 2`, `B = 10`.
    pub fn fl_config(&self, seed: u64) -> FlConfig {
        FlConfig {
            num_clients: self.clients,
            rounds: self.rounds,
            local_epochs: 2,
            batch_size: 10,
            client_fraction: self.client_fraction,
            seed,
            execution: HdExecution::Packed,
        }
    }

    /// Rounds whose mean test accuracy is `final_accuracy`: the last
    /// half. Under a lossy uplink the accuracy of a single round swings
    /// by several points around its level, so one round is not a metric.
    pub fn tail_rounds(&self) -> usize {
        (self.rounds / 2).max(1)
    }

    /// A seconds-scale version for `--smoke` and the self-test: same
    /// code paths, sizes too small for the quality gates to mean
    /// anything, so those are switched off.
    pub fn smoke(mut self) -> Self {
        match &mut self.pipeline {
            Pipeline::Image { hd_dim, .. } | Pipeline::Features { hd_dim, .. } => *hd_dim = 512,
            Pipeline::FedAvg { .. } => {}
        }
        self.clients = self.clients.min(4);
        self.samples_per_client = self.samples_per_client.min(12);
        self.test_size = self.test_size.min(24);
        self.client_fraction = 0.5;
        self.rounds = 2;
        self.target_accuracy = 0.0;
        self.accuracy_floor = 0.0;
        self.damage_tolerance = f64::INFINITY;
        self
    }
}

/// The four campaigns. `BENCHMARK.json` records why each is there.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "image_float_pktloss",
        pipeline: Pipeline::Image {
            dataset: Workload::Mnist,
            hd_dim: 2048,
            transport: HdTransport::Float,
        },
        link: Link::PacketLoss {
            loss: 0.1,
            packet_bits: 1024,
        },
        clients: 20,
        samples_per_client: 60,
        test_size: 500,
        client_fraction: 0.2,
        rounds: 12,
        target_accuracy: 0.5,
        accuracy_floor: 0.5,
        damage_tolerance: 0.1,
    },
    WorkloadSpec {
        name: "feat_quant_biterr",
        pipeline: Pipeline::Features {
            features: FeatureSpec {
                num_classes: 10,
                width: 64,
                noise_std: 2.0,
                class_seed: 0x51,
            },
            hd_dim: 4096,
            transport: HdTransport::Quantized { bitwidth: 8 },
        },
        link: Link::BitError { ber: 1e-3 },
        clients: 40,
        samples_per_client: 15,
        test_size: 600,
        client_fraction: 0.5,
        rounds: 20,
        target_accuracy: 0.7,
        accuracy_floor: 0.8,
        damage_tolerance: 0.1,
    },
    WorkloadSpec {
        name: "wide_binary_fleet",
        pipeline: Pipeline::Features {
            features: FeatureSpec {
                num_classes: 26,
                width: 617,
                noise_std: 0.8,
                class_seed: 0x4953_4f4c,
            },
            hd_dim: 10_000,
            transport: HdTransport::Binary,
        },
        link: Link::PacketLoss {
            loss: 0.1,
            packet_bits: 256,
        },
        clients: 12,
        samples_per_client: 26,
        test_size: 208,
        client_fraction: 0.5,
        rounds: 60,
        target_accuracy: 0.7,
        accuracy_floor: 0.8,
        damage_tolerance: 0.1,
    },
    WorkloadSpec {
        name: "fedavg_cnn_clean",
        pipeline: Pipeline::FedAvg {
            dataset: Workload::Mnist,
        },
        link: Link::Clean,
        clients: 6,
        samples_per_client: 30,
        test_size: 200,
        client_fraction: 0.5,
        rounds: 8,
        target_accuracy: 0.48,
        accuracy_floor: 0.5,
        damage_tolerance: 0.1,
    },
];

pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The embedded `BENCHMARK.json`, parsed.
pub fn contract() -> Result<Value, String> {
    json::parse(BENCHMARK_JSON)
}

/// `bound` of an end-to-end metric, from the contract.
pub fn bound(contract: &Value, metric: &str) -> Option<f64> {
    contract
        .get("end_to_end")?
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn tables_match_the_contract_file() {
        let contract = contract().unwrap();
        assert_eq!(
            names(contract.get("end_to_end").unwrap()),
            table(&END_TO_END)
        );
        assert_eq!(names(contract.get("per_layer").unwrap()), table(&PER_LAYER));
        let listed: Vec<&str> = contract
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        for m in &END_TO_END {
            let b = bound(&contract, m.name).unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
    }
}
