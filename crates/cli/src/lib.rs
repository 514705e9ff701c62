//! # fhdnn-cli
//!
//! Command-line front end for the FHDnn reproduction: run federated
//! simulations, pretrain and persist feature extractors, and inspect
//! checkpoints — without writing Rust.
//!
//! ```text
//! fhdnn simulate --workload cifar --channel packet:0.2 --rounds 10
//! fhdnn watch --from trace.jsonl
//! fhdnn trace --from trace.jsonl --chrome out.json
//! fhdnn lint --json
//! fhdnn export --from trace.jsonl --prom health.prom
//! fhdnn pretrain --workload fashion --out extractor.bin
//! fhdnn evaluate --ckpt extractor.bin --workload fashion
//! fhdnn info --ckpt extractor.bin
//! ```
//!
//! The library half of the crate holds the argument/spec parsing so it is
//! unit-testable; the `fhdnn` binary is a thin wrapper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel_spec;
pub mod config;
pub mod telemetry_out;
pub mod trace_view;
pub mod watch;

pub use channel_spec::parse_channel;
pub use config::{
    Cli, Command, LintArgs, ProfileArgs, SimulateArgs, TraceArgs, Verbosity, WatchArgs,
};
pub use telemetry_out::{open_telemetry, read_jsonl_lenient};
pub use watch::Dashboard;
