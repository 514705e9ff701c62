//! # fhdnn-bench
//!
//! The reproduction harness: one module per table/figure of the FHDnn
//! paper (DAC 2022), plus the ablations called out in DESIGN.md. The
//! `repro` binary exposes each as a subcommand. Nothing here times
//! anything: cost is measured by the campaign benchmark in
//! `src/bin/benchmark`, a package of its own, and allocation counts are
//! pinned by `tests/alloc.rs`.
//!
//! Every experiment returns a serializable report and also pretty-prints
//! the same rows/series the paper shows, so `repro all --json out/` both
//! regenerates the numbers and archives them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod report;
pub mod tables;

/// Experiment scale: `Quick` finishes in minutes on a laptop; `Standard`
/// is the reproduction scale documented in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-to-minutes scale: few clients, few rounds, random
    /// extractor where pretraining isn't the object of the experiment.
    Quick,
    /// Reproduction scale: 20 clients, contrastive pretraining, more
    /// rounds. CNN baselines take tens of minutes in pure Rust.
    Standard,
}

impl Scale {
    /// Parses `"quick"` or `"standard"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "standard" => Some(Scale::Standard),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("standard"), Some(Scale::Standard));
        assert_eq!(Scale::parse("huge"), None);
    }
}
