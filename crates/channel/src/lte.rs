//! LTE airtime model for federated-learning clock time (paper §4.4).
//!
//! The paper assumes FL over LTE at 5 dB wireless SNR, each client holding
//! one 5 MHz, 10 ms LTE frame in time-division duplexing. Under that
//! budget the traditional (error-free, heavily coded) pipeline sustains
//! 1.6 Mbit/s, while FHDnn's error-admitting transmission runs at
//! 5.0 Mbit/s. Clock time per round is `update_bits / rate`, serialized
//! over the clients sharing the band.

use crate::{ChannelError, Result};

/// Data rate (bit/s) the paper assigns to error-free coded transmission.
pub const ERROR_FREE_RATE_BPS: f64 = 1.6e6;

/// Data rate (bit/s) the paper assigns to error-admitting transmission.
pub const ERROR_ADMITTING_RATE_BPS: f64 = 5.0e6;

/// An LTE uplink shared by the participating clients of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LteLink {
    rate_bps: f64,
}

impl LteLink {
    /// Creates a link with the given sustained data rate in bits/second.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidArgument`] for non-positive rates.
    pub fn new(rate_bps: f64) -> Result<Self> {
        if rate_bps <= 0.0 || !rate_bps.is_finite() {
            return Err(ChannelError::InvalidArgument(format!(
                "rate must be positive and finite, got {rate_bps}"
            )));
        }
        Ok(LteLink { rate_bps })
    }

    /// The paper's error-free (conventional FL) link.
    pub fn error_free() -> Self {
        LteLink {
            rate_bps: ERROR_FREE_RATE_BPS,
        }
    }

    /// The paper's error-admitting (FHDnn) link.
    pub fn error_admitting() -> Self {
        LteLink {
            rate_bps: ERROR_ADMITTING_RATE_BPS,
        }
    }

    /// Sustained rate in bits/second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Airtime in seconds to move `bytes` over the link.
    pub fn airtime_seconds(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / self.rate_bps
    }

    /// Uplink time of one federated round: `participants` clients each
    /// send `update_bytes`, time-division multiplexed over the shared band.
    pub fn round_uplink_seconds(&self, update_bytes: u64, participants: usize) -> f64 {
        self.airtime_seconds(update_bytes) * participants as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_scales_linearly() {
        let link = LteLink::new(1e6).unwrap();
        assert!((link.airtime_seconds(125_000) - 1.0).abs() < 1e-9);
        assert!((link.airtime_seconds(250_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_rates_ordered() {
        assert!(LteLink::error_admitting().rate_bps() > LteLink::error_free().rate_bps());
    }

    #[test]
    fn round_time_scales_with_participants() {
        let link = LteLink::error_free();
        let one = link.round_uplink_seconds(1_000_000, 1);
        let twenty = link.round_uplink_seconds(1_000_000, 20);
        assert!((twenty / one - 20.0).abs() < 1e-9);
    }

    #[test]
    fn paper_22mb_update_takes_minutes_on_error_free_link() {
        // Sanity-check the §4.4 scale: a 22 MB ResNet update at 1.6 Mbit/s
        // is ~110 seconds of airtime per client.
        let t = LteLink::error_free().airtime_seconds(22_000_000);
        assert!((100.0..130.0).contains(&t), "airtime {t} s");
    }

    #[test]
    fn rejects_bad_rates() {
        assert!(LteLink::new(0.0).is_err());
        assert!(LteLink::new(-5.0).is_err());
        assert!(LteLink::new(f64::NAN).is_err());
    }
}
