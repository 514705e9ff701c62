//! Gilbert–Elliott burst-loss channel.
//!
//! LPWAN packet losses are rarely independent: interference, duty-cycle
//! collisions and fading arrive in bursts. The classical Gilbert–Elliott
//! model captures this with a two-state Markov chain — a *Good* state with
//! low loss and a *Bad* state with high loss — and is the standard
//! extension of the paper's independent-loss model (§3.5.3) toward real
//! LoRa/SigFox traces. FHDnn's information dispersal should tolerate
//! bursts as well as independent losses, because consecutive packets carry
//! unrelated hypervector dimensions.

use rand::Rng;
use rand::RngCore;

use crate::{Channel, ChannelError, Result};

/// A two-state Markov packet-erasure channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottChannel {
    /// Loss probability in the Good state.
    good_loss: f64,
    /// Loss probability in the Bad state.
    bad_loss: f64,
    /// P(Good → Bad) per packet.
    p_good_to_bad: f64,
    /// P(Bad → Good) per packet.
    p_bad_to_good: f64,
    /// Packet size in bits.
    packet_bits: usize,
}

impl GilbertElliottChannel {
    /// Creates a burst channel. Typical LPWAN-ish settings: low `good_loss`
    /// (≤1%), high `bad_loss` (≥50%), sticky states
    /// (`p_good_to_bad`, `p_bad_to_good` ≤ 0.2).
    ///
    /// # Errors
    ///
    /// Returns an error if any probability is outside `[0, 1]` or the
    /// packet is smaller than one 32-bit symbol.
    pub fn new(
        good_loss: f64,
        bad_loss: f64,
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        packet_bits: usize,
    ) -> Result<Self> {
        for (name, v) in [
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(ChannelError::InvalidProbability { name, value: v });
            }
        }
        if packet_bits < 32 {
            return Err(ChannelError::InvalidArgument(format!(
                "packet must carry at least one 32-bit symbol, got {packet_bits} bits"
            )));
        }
        Ok(GilbertElliottChannel {
            good_loss,
            bad_loss,
            p_good_to_bad,
            p_bad_to_good,
            packet_bits,
        })
    }

    /// The long-run (stationary) packet loss probability.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            // Chain never leaves its start state (Good).
            return self.good_loss;
        }
        let pi_bad = self.p_good_to_bad / denom;
        (1.0 - pi_bad) * self.good_loss + pi_bad * self.bad_loss
    }

    fn erase_spans<T: Default + Clone>(
        &self,
        payload: &mut [T],
        symbol_bits: usize,
        rng: &mut dyn RngCore,
    ) {
        let span = (self.packet_bits / symbol_bits).max(1);
        let mut bad_state = false;
        let mut start = 0;
        while start < payload.len() {
            let end = (start + span).min(payload.len());
            let loss = if bad_state {
                self.bad_loss
            } else {
                self.good_loss
            };
            if rng.gen_bool(loss) {
                for x in &mut payload[start..end] {
                    *x = T::default();
                }
            }
            let transition = if bad_state {
                self.p_bad_to_good
            } else {
                self.p_good_to_bad
            };
            if rng.gen_bool(transition) {
                bad_state = !bad_state;
            }
            start = end;
        }
    }
}

impl Channel for GilbertElliottChannel {
    fn name(&self) -> &'static str {
        "gilbert-elliott"
    }

    fn transmit_f32(&self, payload: &mut [f32], rng: &mut dyn RngCore) {
        self.erase_spans(payload, 32, rng);
    }

    fn transmit_words(&self, words: &mut [i64], bitwidth: u32, rng: &mut dyn RngCore) {
        self.erase_spans(words, bitwidth.max(1) as usize, rng);
    }

    fn transmit_bipolar(&self, symbols: &mut [i8], rng: &mut dyn RngCore) {
        self.erase_spans(symbols, 1, rng);
    }

    // Exact span accounting (see `PacketLossChannel`): bursts drop whole
    // packets, so every erasure belongs to a dropped span.
    fn transmit_f32_stats(
        &self,
        payload: &mut [f32],
        rng: &mut dyn RngCore,
        stats: &crate::ChannelStats,
    ) {
        let before = payload.to_vec();
        self.transmit_f32(payload, rng);
        stats.record_transmission(payload.len() as u64);
        stats.account_span_erasures(&before, payload, (self.packet_bits / 32).max(1));
    }

    fn transmit_words_stats(
        &self,
        words: &mut [i64],
        bitwidth: u32,
        rng: &mut dyn RngCore,
        stats: &crate::ChannelStats,
    ) {
        let before = words.to_vec();
        self.transmit_words(words, bitwidth, rng);
        stats.record_transmission(words.len() as u64);
        let span = (self.packet_bits / bitwidth.max(1) as usize).max(1);
        stats.account_span_erasures(&before, words, span);
    }

    fn transmit_bipolar_stats(
        &self,
        symbols: &mut [i8],
        rng: &mut dyn RngCore,
        stats: &crate::ChannelStats,
    ) {
        let before = symbols.to_vec();
        self.transmit_bipolar(symbols, rng);
        stats.record_transmission(symbols.len() as u64);
        stats.account_span_erasures(&before, symbols, self.packet_bits.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bursty() -> GilbertElliottChannel {
        GilbertElliottChannel::new(0.01, 0.8, 0.05, 0.2, 32 * 8).unwrap()
    }

    #[test]
    fn stationary_loss_formula() {
        let ch = bursty();
        // pi_bad = 0.05 / 0.25 = 0.2 => 0.8*0.01 + 0.2*0.8 = 0.168.
        assert!((ch.stationary_loss() - 0.168).abs() < 1e-12);
        let stuck = GilbertElliottChannel::new(0.1, 0.9, 0.0, 0.0, 256).unwrap();
        assert_eq!(stuck.stationary_loss(), 0.1);
    }

    #[test]
    fn empirical_loss_matches_stationary() {
        let ch = bursty();
        let mut rng = StdRng::seed_from_u64(0);
        let mut payload = vec![1.0f32; 400_000];
        ch.transmit_f32(&mut payload, &mut rng);
        let lost = payload.iter().filter(|&&x| x == 0.0).count() as f64 / payload.len() as f64;
        assert!(
            (lost - ch.stationary_loss()).abs() < 0.03,
            "lost {lost} vs stationary {}",
            ch.stationary_loss()
        );
    }

    #[test]
    fn losses_are_burstier_than_independent() {
        // Count runs of consecutive lost packets; a bursty channel should
        // produce longer mean runs than an independent channel of equal
        // average loss.
        fn mean_run(losses: &[bool]) -> f64 {
            let mut runs = Vec::new();
            let mut len = 0usize;
            for &l in losses {
                if l {
                    len += 1;
                } else if len > 0 {
                    runs.push(len);
                    len = 0;
                }
            }
            if len > 0 {
                runs.push(len);
            }
            if runs.is_empty() {
                0.0
            } else {
                runs.iter().sum::<usize>() as f64 / runs.len() as f64
            }
        }
        let ch = bursty();
        let rate = ch.stationary_loss();
        let mut rng = StdRng::seed_from_u64(1);
        let span = 8; // floats per packet (256 bits / 32)
        let mut payload = vec![1.0f32; 80_000];
        ch.transmit_f32(&mut payload, &mut rng);
        let ge_losses: Vec<bool> = payload.chunks(span).map(|c| c[0] == 0.0).collect();
        let independent: Vec<bool> = (0..ge_losses.len()).map(|_| rng.gen_bool(rate)).collect();
        assert!(
            mean_run(&ge_losses) > 1.5 * mean_run(&independent),
            "ge {} vs independent {}",
            mean_run(&ge_losses),
            mean_run(&independent)
        );
    }

    #[test]
    fn stats_match_burst_erasures() {
        use crate::ChannelStats;
        let ch = bursty();
        let mut rng = StdRng::seed_from_u64(31);
        let mut payload = vec![1.0f32; 8 * 1000];
        let stats = ChannelStats::new();
        ch.transmit_f32_stats(&mut payload, &mut rng, &stats);
        let zeros = payload.iter().filter(|&&x| x == 0.0).count() as u64;
        let dropped_spans = payload.chunks(8).filter(|c| c[0] == 0.0).count() as u64;
        let snap = stats.snapshot();
        assert_eq!(snap.dims_erased, zeros);
        assert_eq!(snap.packets_dropped, dropped_spans);
        assert!(snap.packets_dropped > 0);
        assert_eq!(snap.bits_flipped, 0);
    }

    #[test]
    fn rejects_invalid_probabilities() {
        assert!(GilbertElliottChannel::new(-0.1, 0.5, 0.1, 0.1, 256).is_err());
        assert!(GilbertElliottChannel::new(0.1, 1.5, 0.1, 0.1, 256).is_err());
        assert!(GilbertElliottChannel::new(0.1, 0.5, 0.1, 0.1, 8).is_err());
    }
}
