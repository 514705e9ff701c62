//! Wall-clock campaign timelines (paper §4.4's *clock time* framing).
//!
//! The paper's most dramatic number is not bytes but hours: ResNet
//! federated training needs ~374 h of LTE airtime to reach its target
//! while FHDnn needs ~1.1 h. This module reconstructs such timelines from
//! a run history plus the physical models: each round costs the
//! participants' local compute time (device FLOP model) followed by their
//! serialized uplink airtime (LTE model).

use fhdnn_channel::lte::LteLink;

use crate::cost::DeviceProfile;
use crate::metrics::RunHistory;
use crate::Result;

/// Timing of one federated round within a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTiming {
    /// Round index (0-based).
    pub round: usize,
    /// On-device compute seconds (one participant; they run in parallel).
    pub compute_seconds: f64,
    /// Uplink airtime seconds (participants share the band, serialized).
    pub uplink_seconds: f64,
    /// Campaign clock at the end of this round.
    pub cumulative_seconds: f64,
    /// Global-model accuracy after this round.
    pub accuracy: f32,
}

/// A reconstructed campaign timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignTimeline {
    /// Run label.
    pub label: String,
    /// Per-round timings in order.
    pub rounds: Vec<RoundTiming>,
}

impl CampaignTimeline {
    /// Builds a timeline from a run history.
    ///
    /// `local_flops_per_round` is one participant's local training work
    /// per round; participants compute in parallel (the round waits for
    /// one device-compute interval) and then upload over the shared band
    /// in time-division (airtime multiplies by the participant count).
    ///
    /// # Errors
    ///
    /// Propagates device-model failures (non-positive throughput).
    pub fn from_history(
        history: &RunHistory,
        device: &DeviceProfile,
        link: &LteLink,
        local_flops_per_round: f64,
    ) -> Result<Self> {
        let mut clock = 0.0;
        let mut rounds = Vec::with_capacity(history.rounds.len());
        for r in &history.rounds {
            let compute_seconds = device.estimate(local_flops_per_round)?.seconds;
            let uplink_seconds = link.round_uplink_seconds(r.bytes_per_client, r.participants);
            clock += compute_seconds + uplink_seconds;
            rounds.push(RoundTiming {
                round: r.round,
                compute_seconds,
                uplink_seconds,
                cumulative_seconds: clock,
                accuracy: r.test_accuracy,
            });
        }
        Ok(CampaignTimeline {
            label: history.label.clone(),
            rounds,
        })
    }

    /// Total campaign duration in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.cumulative_seconds)
    }

    /// Clock time (seconds) at which the campaign first reached `target`
    /// accuracy, or `None` if it never did.
    pub fn seconds_to_accuracy(&self, target: f32) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.cumulative_seconds)
    }

    /// Fraction of the campaign spent on the uplink (vs computing).
    pub fn uplink_fraction(&self) -> f64 {
        let uplink: f64 = self.rounds.iter().map(|r| r.uplink_seconds).sum();
        let total = self.total_seconds();
        if total == 0.0 {
            0.0
        } else {
            uplink / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RoundMetrics;

    fn history(update_bytes: u64, accs: &[f32]) -> RunHistory {
        let mut h = RunHistory::new("campaign");
        for (i, &a) in accs.iter().enumerate() {
            h.push(RoundMetrics {
                round: i,
                test_accuracy: a,
                participants: 4,
                bytes_per_client: update_bytes,
                ..RoundMetrics::default()
            });
        }
        h
    }

    fn device() -> DeviceProfile {
        DeviceProfile {
            name: "test".into(),
            flops_per_sec: 1e9,
            power_watts: 5.0,
        }
    }

    #[test]
    fn clock_accumulates_compute_and_airtime() {
        let h = history(125_000, &[0.5, 0.8]); // 1 Mbit per update
        let link = LteLink::new(1e6).unwrap(); // 1 s per update
        let t = CampaignTimeline::from_history(&h, &device(), &link, 2e9).unwrap();
        // Per round: 2 s compute + 4 participants x 1 s airtime = 6 s.
        assert!((t.rounds[0].cumulative_seconds - 6.0).abs() < 1e-9);
        assert!((t.total_seconds() - 12.0).abs() < 1e-9);
        assert!((t.uplink_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn time_to_accuracy_interpolates_rounds() {
        let h = history(125_000, &[0.3, 0.7, 0.9]);
        let link = LteLink::new(1e6).unwrap();
        let t = CampaignTimeline::from_history(&h, &device(), &link, 0.0).unwrap();
        // Airtime-only rounds: 4 s each.
        assert_eq!(t.seconds_to_accuracy(0.7), Some(8.0));
        assert_eq!(t.seconds_to_accuracy(0.95), None);
    }

    #[test]
    fn smaller_updates_and_fewer_rounds_compound() {
        // The paper's argument in miniature: 22x smaller updates and 3x
        // fewer rounds compound into a far shorter campaign.
        let link_cnn = LteLink::error_free();
        let link_hd = LteLink::error_admitting();
        let cnn = CampaignTimeline::from_history(
            &history(22_000_000, &[0.2, 0.4, 0.6, 0.7, 0.75, 0.8]),
            &device(),
            &link_cnn,
            5e9,
        )
        .unwrap();
        let hd = CampaignTimeline::from_history(
            &history(1_000_000, &[0.7, 0.8]),
            &device(),
            &link_hd,
            1e9,
        )
        .unwrap();
        let speedup = cnn.seconds_to_accuracy(0.8).unwrap() / hd.seconds_to_accuracy(0.8).unwrap();
        assert!(speedup > 50.0, "campaign speedup {speedup}");
    }

    #[test]
    fn empty_history_is_zero_time() {
        let h = RunHistory::new("empty");
        let t = CampaignTimeline::from_history(&h, &device(), &LteLink::error_free(), 1e9).unwrap();
        assert_eq!(t.total_seconds(), 0.0);
        assert_eq!(t.uplink_fraction(), 0.0);
        assert_eq!(t.seconds_to_accuracy(0.1), None);
    }
}
