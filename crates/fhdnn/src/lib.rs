//! # fhdnn
//!
//! A from-scratch Rust reproduction of **FHDnn: Communication Efficient
//! and Robust Federated Learning for AIoT Networks** (Chandrasekaran,
//! Ergun, Lee, Nanjunda, Kang, Rosing — DAC 2022).
//!
//! FHDnn combines two learning paradigms: a **frozen CNN feature
//! extractor** pretrained with SimCLR-style contrastive self-supervision,
//! and a **hyperdimensional (HD) learner** trained federatedly. Clients
//! never transmit the CNN — only the small, integer-valued HD model
//! crosses the (unreliable, low-power) network, which simultaneously:
//!
//! - cuts communication by ~66× vs FedAvg over a ResNet,
//! - cuts local compute/energy by 1.5–6× (no backprop on device),
//! - tolerates packet loss, Gaussian channel noise and bit errors that
//!   make float CNN aggregation collapse.
//!
//! This crate is the top of the reproduction stack; the substrates are
//! separate crates re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`tensor`] | dense f32 tensors |
//! | [`nn`] | CNN layers, ResNet-lite, SGD, FLOP accounting |
//! | [`datasets`] | synthetic MNIST/Fashion/CIFAR/ISOLET + partitioners |
//! | [`contrastive`] | SimCLR pretraining of the extractor |
//! | [`hdc`] | random-projection encoding, HD model, AGC quantizer |
//! | [`channel`] | AWGN / bit-error / packet-loss channels, LTE model |
//! | [`federated`] | FedAvg baseline, federated bundling, cost models |
//! | [`telemetry`] | zero-dependency tracing/metrics: spans, counters, JSONL |
//!
//! # Quickstart
//!
//! ```no_run
//! use fhdnn::experiment::{ExperimentSpec, Workload};
//! use fhdnn::channel::NoiselessChannel;
//!
//! # fn main() -> Result<(), fhdnn::FhdnnError> {
//! // A small end-to-end FHDnn run on the synthetic CIFAR stand-in.
//! let spec = ExperimentSpec::quick(Workload::Cifar);
//! let outcome = spec.run_fhdnn(&NoiselessChannel::new())?;
//! println!(
//!     "FHDnn reached {:.1}% test accuracy in {} rounds",
//!     outcome.history.final_accuracy() * 100.0,
//!     outcome.history.rounds.len()
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
mod error;
pub mod experiment;
pub mod extractor;
pub mod model;
pub mod system;

pub use error::FhdnnError;

pub use fhdnn_channel as channel;
pub use fhdnn_contrastive as contrastive;
pub use fhdnn_datasets as datasets;
pub use fhdnn_federated as federated;
pub use fhdnn_hdc as hdc;
pub use fhdnn_nn as nn;
pub use fhdnn_telemetry as telemetry;
pub use fhdnn_tensor as tensor;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FhdnnError>;
