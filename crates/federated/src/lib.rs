//! # fhdnn-federated
//!
//! Federated-learning orchestration for the FHDnn reproduction (DAC 2022).
//!
//! One round driver (the crate-private `round` module: cohort sampling,
//! seed splitting, fan-out, barrier fold, simulated-lane costing and every
//! per-round observation) runs two local-update / aggregation rules behind
//! two public federations with one round/metrics vocabulary:
//!
//! - [`fedavg::CnnFederation`] — the paper's baseline: FedAvg over a CNN.
//!   Each round, a fraction `C` of clients trains the global network for
//!   `E` local epochs with batch size `B` and transmits the full float32
//!   parameter vector through an (optionally unreliable) uplink; the
//!   server averages the updates.
//! - [`fedhd::HdFederation`] — FHDnn's federated bundling (paper §3.4.2):
//!   clients refine class prototypes on locally-encoded hypervectors and
//!   transmit only the HD model — raw, through the AGC quantizer, or as
//!   packed sign bits; the server bundles (sums) or majority-votes them.
//!
//! Support modules: [`config`] (the `E`/`B`/`C` hyperparameters),
//! [`sampling`] (client selection), [`metrics`] (round histories),
//! [`comm`] (update sizes, data transmitted, LTE clock time), [`cost`]
//! (the Table 1 edge-device FLOP/energy model), [`convergence`]
//! (empirical decay-rate fitting for the §3.6 O(1/T) claim) and
//! [`timeline`] (wall-clock campaign reconstruction for the §4.4 clock-time
//! comparison).
//!
//! # Example
//!
//! ```
//! use fhdnn_federated::config::FlConfig;
//!
//! let config = FlConfig {
//!     num_clients: 20,
//!     rounds: 10,
//!     local_epochs: 2,
//!     batch_size: 10,
//!     client_fraction: 0.2,
//!     seed: 42,
//!     ..FlConfig::default()
//! };
//! assert_eq!(config.participants_per_round(), 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod comm;
pub mod config;
pub mod convergence;
pub mod cost;
mod error;
pub mod fedavg;
pub mod fedhd;
pub mod health;
pub mod metrics;
pub mod parallel;
mod round;
pub mod sampling;
pub mod timeline;

pub use error::FedError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FedError>;

/// Emits the per-round channel-impairment delta as `chan.*` counters and
/// gauges. Zero-valued entries are suppressed so clean (noiseless) runs
/// produce no `chan.*` noise in the event stream.
pub(crate) fn emit_channel_delta(
    tel: &fhdnn_telemetry::Recorder,
    delta: fhdnn_channel::ChannelStatsSnapshot,
) {
    for (name, value) in [
        ("chan.transmissions", delta.transmissions),
        ("chan.symbols_sent", delta.symbols_sent),
        ("chan.bits_flipped", delta.bits_flipped),
        ("chan.dims_erased", delta.dims_erased),
        ("chan.packets_dropped", delta.packets_dropped),
        ("chan.crc_rejects", delta.crc_rejects),
    ] {
        if value > 0 {
            tel.incr(name, value);
        }
    }
    if delta.noise_energy > 0.0 {
        tel.gauge("chan.noise_energy", delta.noise_energy);
    }
}
