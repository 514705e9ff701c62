//! Round-by-round run histories.

/// Metrics recorded after one communication round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundMetrics {
    /// Round index (0-based).
    pub round: usize,
    /// Global-model accuracy on the held-out test set after aggregation.
    pub test_accuracy: f32,
    /// Number of clients that participated.
    pub participants: usize,
    /// Bytes uploaded by each participant this round.
    pub bytes_per_client: u64,
    /// Bytes broadcast to each participant this round (global model).
    pub downlink_bytes_per_client: u64,
    /// Wall-clock duration of the round in seconds.
    pub round_seconds: f64,
    /// Peak heap bytes above the round-start level (tracked-allocator
    /// watermark); 0 when the build has no memory accounting.
    pub mem_peak_bytes: u64,
    /// Heap allocations performed during the round (process-wide).
    pub mem_allocs: u64,
    /// Gross bytes allocated during the round, divided by participants.
    pub mem_bytes_per_client: u64,
    /// The client whose *simulated* AIoT cost (device compute + uplink
    /// airtime, see `cost`) bounded the round barrier. A pure function
    /// of the sampled participants, so part of run identity.
    pub trace_critical_client: u64,
    /// Simulated wall time of the round in microseconds: slowest device
    /// compute, then arriving updates serialized over the shared link.
    pub trace_sim_round_micros: u64,
    /// Measured pool-worker utilization for the round (Σ exec time /
    /// workers × busy span). Scheduling-dependent like `round_seconds`,
    /// and 0 when telemetry is disabled — excluded from equality.
    pub trace_worker_utilization: f64,
}

/// Equality ignores `round_seconds`, the `mem_*` watermarks, and the
/// measured `trace_worker_utilization`: two otherwise identical seeded
/// runs must compare equal even though their wall-clock timings and
/// ambient allocator activity differ (the reproducibility suite relies
/// on this). The *simulated* trace fields (`trace_critical_client`,
/// `trace_sim_round_micros`) are deterministic functions of the round's
/// sampled participants and DO participate in equality.
impl PartialEq for RoundMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.test_accuracy == other.test_accuracy
            && self.participants == other.participants
            && self.bytes_per_client == other.bytes_per_client
            && self.downlink_bytes_per_client == other.downlink_bytes_per_client
            && self.trace_critical_client == other.trace_critical_client
            && self.trace_sim_round_micros == other.trace_sim_round_micros
    }
}

/// The full history of a federated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHistory {
    /// Human-readable run label (dataset, model, channel, …).
    pub label: String,
    /// Per-round metrics in order.
    pub rounds: Vec<RoundMetrics>,
}

impl RunHistory {
    /// Creates an empty history with a label.
    pub fn new(label: impl Into<String>) -> Self {
        RunHistory {
            label: label.into(),
            rounds: Vec::new(),
        }
    }

    /// Appends one round's metrics.
    pub fn push(&mut self, metrics: RoundMetrics) {
        self.rounds.push(metrics);
    }

    /// Final test accuracy, or 0 if no rounds ran.
    pub fn final_accuracy(&self) -> f32 {
        self.rounds.last().map_or(0.0, |r| r.test_accuracy)
    }

    /// Best test accuracy across rounds, or 0 if no rounds ran.
    pub fn best_accuracy(&self) -> f32 {
        self.rounds
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f32::max)
    }

    /// First round (1-based count of rounds elapsed) at which accuracy
    /// reached `target`, or `None` if never.
    pub fn rounds_to_accuracy(&self, target: f32) -> Option<usize> {
        self.rounds
            .iter()
            .position(|r| r.test_accuracy >= target)
            .map(|i| i + 1)
    }

    /// Total bytes moved across all rounds and participants, both
    /// directions (uplink updates plus downlink broadcasts).
    pub fn total_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| (r.bytes_per_client + r.downlink_bytes_per_client) * r.participants as u64)
            .sum()
    }

    /// Total bytes uploaded across all rounds and participants
    /// (uplink only).
    pub fn total_uplink_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.bytes_per_client * r.participants as u64)
            .sum()
    }

    /// Bytes uploaded per client to reach `target` accuracy (the paper's
    /// `data_transmitted = n_rounds × update_size`; uplink only, matching
    /// the paper's accounting), or `None` if the target was never reached.
    pub fn bytes_per_client_to_accuracy(&self, target: f32) -> Option<u64> {
        let n = self.rounds_to_accuracy(target)?;
        Some(self.rounds[..n].iter().map(|r| r.bytes_per_client).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> RunHistory {
        let mut h = RunHistory::new("test");
        for (i, acc) in [0.3f32, 0.5, 0.82, 0.8].iter().enumerate() {
            h.push(RoundMetrics {
                round: i,
                test_accuracy: *acc,
                participants: 4,
                bytes_per_client: 100,
                downlink_bytes_per_client: 40,
                round_seconds: 0.5,
                mem_peak_bytes: 4096,
                mem_allocs: 32,
                mem_bytes_per_client: 1024,
                trace_critical_client: 2,
                trace_sim_round_micros: 1_000_000,
                trace_worker_utilization: 0.75,
            });
        }
        h
    }

    #[test]
    fn accuracy_queries() {
        let h = history();
        assert_eq!(h.final_accuracy(), 0.8);
        assert_eq!(h.best_accuracy(), 0.82);
        assert_eq!(h.rounds_to_accuracy(0.8), Some(3));
        assert_eq!(h.rounds_to_accuracy(0.9), None);
    }

    #[test]
    fn byte_accounting() {
        let h = history();
        assert_eq!(h.total_uplink_bytes(), 4 * 4 * 100);
        assert_eq!(h.total_bytes(), 4 * 4 * (100 + 40));
        assert_eq!(h.bytes_per_client_to_accuracy(0.8), Some(300));
        assert_eq!(h.bytes_per_client_to_accuracy(0.99), None);
    }

    #[test]
    fn equality_ignores_round_seconds() {
        let mut a = history();
        let b = history();
        a.rounds[0].round_seconds = 999.0;
        assert_eq!(a, b);
        // Memory watermarks are environment noise, not run identity.
        a.rounds[0].mem_peak_bytes = u64::MAX;
        a.rounds[0].mem_allocs += 7;
        a.rounds[0].mem_bytes_per_client += 7;
        // Measured worker utilization is scheduling noise too.
        a.rounds[0].trace_worker_utilization = 0.0;
        assert_eq!(a, b);
        // The simulated trace fields are run identity.
        a.rounds[0].trace_sim_round_micros += 1;
        assert_ne!(a, b);
        a.rounds[0].trace_sim_round_micros -= 1;
        a.rounds[0].trace_critical_client += 1;
        assert_ne!(a, b);
        a.rounds[0].trace_critical_client -= 1;
        a.rounds[0].downlink_bytes_per_client += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn empty_history_defaults() {
        let h = RunHistory::new("empty");
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert_eq!(h.total_bytes(), 0);
        assert_eq!(h.total_uplink_bytes(), 0);
        assert_eq!(h.rounds_to_accuracy(0.0), None);
        assert_eq!(h.bytes_per_client_to_accuracy(0.0), None);
    }

    #[test]
    fn unreachable_accuracy_targets() {
        let h = history();
        // Just above the best round: never reached.
        assert_eq!(h.rounds_to_accuracy(0.8201), None);
        assert_eq!(h.bytes_per_client_to_accuracy(0.8201), None);
        // Exactly the best: reached at that round (>= comparison).
        assert_eq!(h.rounds_to_accuracy(0.82), Some(3));
        // A zero target is reached on the first round.
        assert_eq!(h.rounds_to_accuracy(0.0), Some(1));
        // NaN compares false against everything: never reached, not a panic.
        assert_eq!(h.rounds_to_accuracy(f32::NAN), None);
    }
}
