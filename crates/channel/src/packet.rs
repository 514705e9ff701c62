//! Packet-erasure channel (paper §3.5.3, Eq. 8).
//!
//! Transport protocols with checksums drop whole packets on any bit error,
//! so the link is bit-error-free but packet-lossy. Under UDP there is no
//! retransmission: a lost packet simply never arrives, and the receiver
//! treats its span of the model as erased (zero). The packet error
//! probability relates to the underlying BER as
//! `p_p = 1 - (1 - p_e)^{N_p}` for packets of `N_p` bits.

use rand::Rng;
use rand::RngCore;

use crate::{Channel, ChannelError, Result};

/// Packet error probability for packets of `packet_bits` bits over a link
/// with bit-error rate `ber` (paper Eq. 8).
///
/// # Panics
///
/// Panics if `ber` is outside `[0, 1]`.
pub fn per_from_ber(ber: f64, packet_bits: u32) -> f64 {
    assert!((0.0..=1.0).contains(&ber), "ber must be a probability");
    1.0 - (1.0 - ber).powi(packet_bits as i32)
}

/// A UDP-style packet-erasure channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketLossChannel {
    loss_prob: f64,
    packet_bits: usize,
}

impl PacketLossChannel {
    /// Creates a channel dropping each packet of `packet_bits` bits with
    /// probability `loss_prob`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid probabilities or packets smaller than
    /// one 32-bit symbol.
    pub fn new(loss_prob: f64, packet_bits: usize) -> Result<Self> {
        if !(0.0..=1.0).contains(&loss_prob) || loss_prob.is_nan() {
            return Err(ChannelError::InvalidProbability {
                name: "loss_prob",
                value: loss_prob,
            });
        }
        if packet_bits < 32 {
            return Err(ChannelError::InvalidArgument(format!(
                "packet must carry at least one 32-bit symbol, got {packet_bits} bits"
            )));
        }
        Ok(PacketLossChannel {
            loss_prob,
            packet_bits,
        })
    }

    /// The packet loss probability.
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// Packet size in bits.
    pub fn packet_bits(&self) -> usize {
        self.packet_bits
    }

    /// Symbols (of `symbol_bits` bits) per packet, at least 1.
    fn symbols_per_packet(&self, symbol_bits: usize) -> usize {
        (self.packet_bits / symbol_bits).max(1)
    }

    fn erase_spans<T: Default + Clone>(
        &self,
        payload: &mut [T],
        symbol_bits: usize,
        rng: &mut dyn RngCore,
    ) {
        let span = self.symbols_per_packet(symbol_bits);
        let mut start = 0;
        while start < payload.len() {
            let end = (start + span).min(payload.len());
            if rng.gen_bool(self.loss_prob) {
                for x in &mut payload[start..end] {
                    *x = T::default();
                }
            }
            start = end;
        }
    }
}

impl Channel for PacketLossChannel {
    fn name(&self) -> &'static str {
        "packet-loss"
    }

    fn transmit_f32(&self, payload: &mut [f32], rng: &mut dyn RngCore) {
        self.erase_spans(payload, 32, rng);
    }

    fn transmit_words(&self, words: &mut [i64], bitwidth: u32, rng: &mut dyn RngCore) {
        self.erase_spans(words, bitwidth.max(1) as usize, rng);
    }

    fn transmit_bipolar(&self, symbols: &mut [i8], rng: &mut dyn RngCore) {
        // One bit per symbol: large spans per packet.
        self.erase_spans(symbols, 1, rng);
    }

    // Exact span accounting: whole packets are either kept or dropped, so
    // per-span diffing attributes every erasure to a dropped packet.
    fn transmit_f32_stats(
        &self,
        payload: &mut [f32],
        rng: &mut dyn RngCore,
        stats: &crate::ChannelStats,
    ) {
        let before = payload.to_vec();
        self.transmit_f32(payload, rng);
        stats.record_transmission(payload.len() as u64);
        stats.account_span_erasures(&before, payload, self.symbols_per_packet(32));
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
        stats.account_span_erasures(
            &before,
            words,
            self.symbols_per_packet(bitwidth.max(1) as usize),
        );
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
        stats.account_span_erasures(&before, symbols, self.symbols_per_packet(1));
    }

    // Packed hot path: erase whole packet spans straight into the
    // erasure bitmask, a word at a time. One gen_bool draw per span,
    // lost or not — the same RNG consumption as `erase_spans` on
    // unpacked symbols. A span counts as a dropped packet only if it
    // still carried live (not previously erased) dimensions, mirroring
    // `account_span_erasures`'s had-data rule.
    fn transmit_packed_stats(
        &self,
        words: &mut [u64],
        erased: &mut [u64],
        live_bits: usize,
        rng: &mut dyn RngCore,
        stats: &crate::ChannelStats,
    ) {
        stats.record_transmission(live_bits as u64);
        let span = self.symbols_per_packet(1);
        let mut dropped = 0u64;
        let mut dims = 0u64;
        let mut start = 0usize;
        while start < live_bits {
            let end = (start + span).min(live_bits);
            if rng.gen_bool(self.loss_prob) {
                let live = erase_bits(words, erased, start, end);
                if live > 0 {
                    dropped += 1;
                    dims += live;
                }
            }
            start = end;
        }
        stats.add_packets_dropped(dropped);
        stats.add_dims_erased(dims);
    }
}

/// Erases dimensions `start..end` (a non-empty range) of a packed row:
/// sets their bits in `erased`, clears them in `words`, and returns how
/// many of them were still live — one mask per `u64` the range overlaps.
fn erase_bits(words: &mut [u64], erased: &mut [u64], start: usize, end: usize) -> u64 {
    let (first, last) = (start / 64, (end - 1) / 64);
    let mut live = 0u64;
    for w in first..=last {
        // The range's share of word `w`, as bit positions `lo..hi`.
        let lo = if w == first { start % 64 } else { 0 };
        let hi = if w == last { (end - 1) % 64 + 1 } else { 64 };
        let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
        live += u64::from((mask & !erased[w]).count_ones());
        erased[w] |= mask;
        words[w] &= !mask;
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn per_formula_matches_closed_form() {
        assert_eq!(per_from_ber(0.0, 1000), 0.0);
        assert!((per_from_ber(1e-3, 1000) - (1.0 - 0.999f64.powi(1000))).abs() < 1e-12);
        assert!((per_from_ber(1.0, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_monotone_in_ber_and_packet_size() {
        assert!(per_from_ber(1e-4, 1000) < per_from_ber(1e-3, 1000));
        assert!(per_from_ber(1e-3, 100) < per_from_ber(1e-3, 10_000));
    }

    #[test]
    fn loss_fraction_matches_probability() {
        let ch = PacketLossChannel::new(0.2, 32 * 8).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut payload = vec![1.0f32; 80_000];
        ch.transmit_f32(&mut payload, &mut rng);
        let lost = payload.iter().filter(|&&x| x == 0.0).count() as f64 / payload.len() as f64;
        assert!((lost - 0.2).abs() < 0.02, "lost fraction {lost}");
    }

    #[test]
    fn losses_are_contiguous_spans() {
        let ch = PacketLossChannel::new(0.5, 32 * 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut payload = vec![1.0f32; 64];
        ch.transmit_f32(&mut payload, &mut rng);
        // Every aligned 4-symbol packet is either fully kept or fully lost.
        for chunk in payload.chunks(4) {
            let zeros = chunk.iter().filter(|&&x| x == 0.0).count();
            assert!(zeros == 0 || zeros == chunk.len(), "{chunk:?}");
        }
    }

    #[test]
    fn words_erased_with_word_granularity() {
        let ch = PacketLossChannel::new(1.0, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut words = vec![9i64; 10];
        ch.transmit_words(&mut words, 16, &mut rng);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn bipolar_spans_erased_to_zero() {
        let ch = PacketLossChannel::new(0.5, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut syms = vec![1i8; 640];
        ch.transmit_bipolar(&mut syms, &mut rng);
        // Whole 64-symbol packets are either kept or zeroed.
        for chunk in syms.chunks(64) {
            let zeros = chunk.iter().filter(|&&s| s == 0).count();
            assert!(zeros == 0 || zeros == 64);
        }
        assert!(syms.contains(&0));
    }

    #[test]
    fn zero_loss_is_identity() {
        let ch = PacketLossChannel::new(0.0, 256).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut payload = vec![2.0f32; 100];
        ch.transmit_f32(&mut payload, &mut rng);
        assert!(payload.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(PacketLossChannel::new(-0.1, 256).is_err());
        assert!(PacketLossChannel::new(1.5, 256).is_err());
        assert!(PacketLossChannel::new(0.1, 16).is_err());
    }

    #[test]
    fn stats_match_realized_erasures() {
        use crate::ChannelStats;
        let ch = PacketLossChannel::new(0.3, 32 * 8).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut payload = vec![1.0f32; 8 * 500];
        let stats = ChannelStats::new();
        ch.transmit_f32_stats(&mut payload, &mut rng, &stats);
        let zeros = payload.iter().filter(|&&x| x == 0.0).count() as u64;
        let dropped_spans = payload.chunks(8).filter(|c| c[0] == 0.0).count() as u64;
        let snap = stats.snapshot();
        assert_eq!(snap.dims_erased, zeros);
        assert_eq!(snap.packets_dropped, dropped_spans);
        assert!(snap.packets_dropped > 0, "lossy channel dropped nothing");
        assert_eq!(snap.bits_flipped, 0, "erasure channel flips no bits");
        assert_eq!(snap.transmissions, 1);
        assert_eq!(snap.symbols_sent, payload.len() as u64);
    }

    #[test]
    fn packed_spans_erase_into_bitmask() {
        use crate::{Channel, ChannelStats};
        let ch = PacketLossChannel::new(0.5, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let live_bits = 2560;
        let mut words = vec![u64::MAX; 40];
        let mut erased = vec![0u64; 40];
        let stats = ChannelStats::new();
        ch.transmit_packed_stats(&mut words, &mut erased, live_bits, &mut rng, &stats);
        // 64-bit packets of 1-bit symbols: each word is one span, fully
        // erased (sign bits cleared, erasure bits set) or untouched.
        let mut dropped = 0u64;
        for (w, e) in words.iter().zip(&erased) {
            assert!(
                (*w == u64::MAX && *e == 0) || (*w == 0 && *e == u64::MAX),
                "word {w:#x} erased {e:#x}"
            );
            if *e == u64::MAX {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "loss_prob 0.5 dropped nothing");
        let snap = stats.snapshot();
        assert_eq!(snap.packets_dropped, dropped);
        assert_eq!(snap.dims_erased, dropped * 64);
        assert_eq!(snap.bits_flipped, 0);
        assert_eq!(snap.symbols_sent, live_bits as u64);
    }

    /// The per-bit erase loop the word masks of [`erase_bits`] replaced,
    /// kept verbatim as their oracle.
    fn transmit_packed_per_bit(
        ch: &PacketLossChannel,
        words: &mut [u64],
        erased: &mut [u64],
        live_bits: usize,
        rng: &mut dyn RngCore,
        stats: &crate::ChannelStats,
    ) {
        stats.record_transmission(live_bits as u64);
        let span = ch.symbols_per_packet(1);
        let mut dropped = 0u64;
        let mut dims = 0u64;
        let mut start = 0usize;
        while start < live_bits {
            let end = (start + span).min(live_bits);
            if rng.gen_bool(ch.loss_prob) {
                let mut live = 0u64;
                for i in start..end {
                    let (w, b) = (i / 64, i % 64);
                    if erased[w] >> b & 1 == 0 {
                        live += 1;
                    }
                    erased[w] |= 1u64 << b;
                    words[w] &= !(1u64 << b);
                }
                if live > 0 {
                    dropped += 1;
                    dims += live;
                }
            }
            start = end;
        }
        stats.add_packets_dropped(dropped);
        stats.add_dims_erased(dims);
    }

    #[test]
    fn word_wise_erasure_is_the_per_bit_loop() {
        use crate::{Channel, ChannelStats};
        let mut seed = 0;
        for live_bits in [1, 63, 64, 65, 130, 1000, 2049] {
            // Spans inside a word, across word boundaries, whole words,
            // and one longer than the row.
            for packet_bits in [1, 7, 63, 64, 65, 100, 256, 1000, live_bits + 77] {
                for loss_prob in [0.0, 0.1, 1.0] {
                    // Nothing, something and everything erased on entry.
                    for entry in [0, 1, u64::MAX] {
                        seed += 1;
                        let case = format!(
                            "live {live_bits} packet {packet_bits} loss {loss_prob} \
                             entry {entry:#x}"
                        );
                        // Built directly: `new` refuses the packets under
                        // 32 bits that put several spans in one word.
                        let ch = PacketLossChannel {
                            loss_prob,
                            packet_bits,
                        };
                        let mut fill = StdRng::seed_from_u64(seed);
                        let n = live_bits.div_ceil(64);
                        let erased: Vec<u64> = (0..n)
                            .map(|_| if entry == 1 { fill.gen() } else { entry })
                            .collect();
                        let words: Vec<u64> =
                            erased.iter().map(|e| fill.gen::<u64>() & !e).collect();
                        let (mut got, mut got_erased) = (words.clone(), erased.clone());
                        let (mut want, mut want_erased) = (words, erased);
                        let (got_stats, want_stats) = (ChannelStats::new(), ChannelStats::new());
                        let mut got_rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
                        let mut want_rng = got_rng.clone();
                        ch.transmit_packed_stats(
                            &mut got,
                            &mut got_erased,
                            live_bits,
                            &mut got_rng,
                            &got_stats,
                        );
                        transmit_packed_per_bit(
                            &ch,
                            &mut want,
                            &mut want_erased,
                            live_bits,
                            &mut want_rng,
                            &want_stats,
                        );
                        assert_eq!(got, want, "{case}: words");
                        assert_eq!(got_erased, want_erased, "{case}: mask");
                        assert_eq!(got_stats.snapshot(), want_stats.snapshot(), "{case}");
                        assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{case}: draws");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_redrop_of_erased_span_counts_nothing() {
        use crate::{Channel, ChannelStats};
        let ch = PacketLossChannel::new(1.0, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        // All dims already erased: re-dropping the span is not a new
        // packet loss (mirrors account_span_erasures' had-data rule).
        let mut words = vec![0u64; 2];
        let mut erased = vec![u64::MAX; 2];
        let stats = ChannelStats::new();
        ch.transmit_packed_stats(&mut words, &mut erased, 128, &mut rng, &stats);
        let snap = stats.snapshot();
        assert_eq!(snap.packets_dropped, 0);
        assert_eq!(snap.dims_erased, 0);
    }

    #[test]
    fn stats_words_use_word_spans() {
        use crate::ChannelStats;
        let ch = PacketLossChannel::new(1.0, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut words = vec![5i64; 12];
        let stats = ChannelStats::new();
        ch.transmit_words_stats(&mut words, 16, &mut rng, &stats);
        let snap = stats.snapshot();
        // 64-bit packets carry four 16-bit words: 12 words = 3 packets,
        // all dropped at loss_prob 1.
        assert_eq!(snap.packets_dropped, 3);
        assert_eq!(snap.dims_erased, 12);
    }
}
