//! Communication-efficiency accounting (paper §4.4).
//!
//! The paper's headline numbers: a ResNet update is 22 MB vs 1 MB for
//! FHDnn (22×), FHDnn converges ~3× faster, so total data to the target
//! accuracy is ~66× smaller (1.65 GB vs 25 MB), and over an LTE link the
//! clock time drops from ~374 h to ~1.1 h. This module turns run
//! histories into exactly those quantities.

use fhdnn_channel::lte::LteLink;

use crate::metrics::RunHistory;

/// Communication cost of one federated run toward a target accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct CommReport {
    /// Run label.
    pub label: String,
    /// Target accuracy the report is computed against.
    pub target_accuracy: f32,
    /// Upload size of one client update in bytes.
    pub update_bytes: u64,
    /// Rounds needed to reach the target (`None` if never reached; the
    /// remaining fields then cover the full run instead).
    pub rounds_to_target: Option<usize>,
    /// Per-client data transmitted until the target (or run end).
    pub bytes_per_client: u64,
    /// Wall-clock uplink time (seconds) until the target (or run end) on
    /// the given LTE link, serialized over participants per round.
    pub uplink_seconds: f64,
}

impl CommReport {
    /// Builds a report from a run history and an LTE link model.
    ///
    /// `data_transmitted = n_rounds × update_size` per the paper; uplink
    /// clock time sums `participants × airtime(update)` over the counted
    /// rounds.
    pub fn from_history(history: &RunHistory, target_accuracy: f32, link: &LteLink) -> Self {
        let rounds_to_target = history.rounds_to_accuracy(target_accuracy);
        let counted = rounds_to_target.unwrap_or(history.rounds.len());
        let update_bytes = history.rounds.first().map_or(0, |r| r.bytes_per_client);
        let bytes_per_client: u64 = history.rounds[..counted]
            .iter()
            .map(|r| r.bytes_per_client)
            .sum();
        let uplink_seconds: f64 = history.rounds[..counted]
            .iter()
            .map(|r| link.round_uplink_seconds(r.bytes_per_client, r.participants))
            .sum();
        CommReport {
            label: history.label.clone(),
            target_accuracy,
            update_bytes,
            rounds_to_target,
            bytes_per_client,
            uplink_seconds,
        }
    }

    /// Ratio of another report's per-client bytes to this one's — e.g.
    /// "ResNet transmits 66× more data than FHDnn".
    ///
    /// Returns `None` when this report transmitted zero bytes.
    pub fn data_reduction_vs(&self, other: &CommReport) -> Option<f64> {
        if self.bytes_per_client == 0 {
            return None;
        }
        Some(other.bytes_per_client as f64 / self.bytes_per_client as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RoundMetrics;

    fn history(label: &str, update: u64, accs: &[f32]) -> RunHistory {
        let mut h = RunHistory::new(label);
        for (i, &a) in accs.iter().enumerate() {
            h.push(RoundMetrics {
                round: i,
                test_accuracy: a,
                participants: 4,
                bytes_per_client: update,
                ..RoundMetrics::default()
            });
        }
        h
    }

    #[test]
    fn report_counts_rounds_to_target() {
        let h = history("hd", 100, &[0.5, 0.82, 0.85]);
        let link = LteLink::error_admitting();
        let r = CommReport::from_history(&h, 0.8, &link);
        assert_eq!(r.rounds_to_target, Some(2));
        assert_eq!(r.bytes_per_client, 200);
    }

    #[test]
    fn unreached_target_counts_whole_run() {
        let h = history("cnn", 1000, &[0.2, 0.3]);
        let link = LteLink::error_free();
        let r = CommReport::from_history(&h, 0.8, &link);
        assert_eq!(r.rounds_to_target, None);
        assert_eq!(r.bytes_per_client, 2000);
    }

    #[test]
    fn reduction_factor_composes_size_and_rounds() {
        let link = LteLink::error_free();
        // FHDnn: 22x smaller updates, 3x fewer rounds => 66x reduction.
        let hd = CommReport::from_history(&history("hd", 1_000_000, &[0.82]), 0.8, &link);
        let cnn =
            CommReport::from_history(&history("cnn", 22_000_000, &[0.1, 0.5, 0.82]), 0.8, &link);
        let factor = hd.data_reduction_vs(&cnn).unwrap();
        assert!((factor - 66.0).abs() < 1e-9, "reduction {factor}");
    }

    /// Regression: the binary transport's accounting follows the packed
    /// wire format — each class row is padded to whole bytes on its own,
    /// so a non-aligned dimensionality costs `classes × ceil(dim/8)`,
    /// not `ceil(classes·dim/8)` of a contiguous bit stream.
    #[test]
    fn binary_transport_accounting_counts_packed_rows() {
        use crate::fedhd::HdTransport;
        let update = HdTransport::Binary.update_bytes(5, 2049);
        assert_eq!(update, 5 * 257, "per-row padding at dim 2049");
        assert_eq!(HdTransport::Binary.update_bytes(10, 2048), 10 * 256);
        let h = history("hd-binary", update, &[0.5, 0.82]);
        let r = CommReport::from_history(&h, 0.8, &LteLink::error_free());
        assert_eq!(r.update_bytes, 5 * 257);
        assert_eq!(r.rounds_to_target, Some(2));
        assert_eq!(r.bytes_per_client, 2 * 5 * 257);
    }

    #[test]
    fn uplink_time_uses_link_rate() {
        let h = history("hd", 125_000, &[0.9]); // 1 Mbit
        let slow = CommReport::from_history(&h, 0.8, &LteLink::error_free());
        let fast = CommReport::from_history(&h, 0.8, &LteLink::error_admitting());
        assert!(slow.uplink_seconds > fast.uplink_seconds);
        // 4 participants x 1 Mbit / 1.6 Mbit/s = 2.5 s.
        assert!((slow.uplink_seconds - 2.5).abs() < 1e-9);
    }
}
