//! Packet-level transport: serialization of model payloads into framed
//! packets with CRC-32 integrity checks.
//!
//! §3.5.3 describes the protocol family FHDnn targets: each packet
//! carries a checksum; any bit error fails the check and the packet is
//! dropped, so the application sees a bit-error-free but packet-lossy
//! stream. This module implements that pipeline concretely:
//!
//! 1. [`Packetizer::packetize`] frames a float payload into packets
//!    (sequence number + payload + CRC-32),
//! 2. the channel corrupts raw packet bytes ([`corrupt_packets`]),
//! 3. [`Packetizer::reassemble`] verifies each CRC, drops failures, and
//!    fills the lost spans with zeros (erasures) — producing exactly the
//!    erasure pattern the higher-level [`crate::packet::PacketLossChannel`]
//!    models statistically.

use rand::RngCore;

use crate::{Channel, ChannelError, Result};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A framed packet: sequence number, raw payload bytes, and CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Position of this packet's span in the original payload.
    pub seq: u32,
    /// Payload bytes (little-endian f32s).
    pub payload: Vec<u8>,
    /// CRC-32 over `seq` (little-endian) followed by `payload`.
    pub crc: u32,
}

impl Packet {
    fn compute_crc(seq: u32, payload: &[u8]) -> u32 {
        let mut buf = Vec::with_capacity(4 + payload.len());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(payload);
        crc32(&buf)
    }

    /// `true` if the stored CRC matches the contents.
    pub fn verify(&self) -> bool {
        Self::compute_crc(self.seq, &self.payload) == self.crc
    }
}

/// Frames float payloads into fixed-size packets and reassembles them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packetizer {
    floats_per_packet: usize,
}

impl Packetizer {
    /// Creates a packetizer carrying `floats_per_packet` f32 values per
    /// packet.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidArgument`] if zero.
    pub fn new(floats_per_packet: usize) -> Result<Self> {
        if floats_per_packet == 0 {
            return Err(ChannelError::InvalidArgument(
                "packets must carry at least one float".into(),
            ));
        }
        Ok(Packetizer { floats_per_packet })
    }

    /// Floats carried per packet.
    pub fn floats_per_packet(&self) -> usize {
        self.floats_per_packet
    }

    /// Frames a payload into CRC-protected packets.
    pub fn packetize(&self, payload: &[f32]) -> Vec<Packet> {
        payload
            .chunks(self.floats_per_packet)
            .enumerate()
            .map(|(i, chunk)| {
                let mut bytes = Vec::with_capacity(chunk.len() * 4);
                for v in chunk {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                let crc = Packet::compute_crc(i as u32, &bytes);
                Packet {
                    seq: i as u32,
                    payload: bytes,
                    crc,
                }
            })
            .collect()
    }

    /// Reassembles a float payload of `total_len` values from received
    /// packets: packets failing their CRC (or missing entirely) leave
    /// zeros in their span. Returns the payload and the number of packets
    /// dropped.
    pub fn reassemble(&self, packets: &[Packet], total_len: usize) -> (Vec<f32>, usize) {
        self.reassemble_inner(packets, total_len, None)
    }

    /// Like [`Packetizer::reassemble`], additionally accounting dropped
    /// packets into `stats` — CRC failures as `crc_rejects` (and drops),
    /// never-arrived packets as plain drops, and all unfilled payload
    /// positions as erased dimensions.
    pub fn reassemble_stats(
        &self,
        packets: &[Packet],
        total_len: usize,
        stats: &crate::ChannelStats,
    ) -> (Vec<f32>, usize) {
        self.reassemble_inner(packets, total_len, Some(stats))
    }

    fn reassemble_inner(
        &self,
        packets: &[Packet],
        total_len: usize,
        stats: Option<&crate::ChannelStats>,
    ) -> (Vec<f32>, usize) {
        let mut out = vec![0.0f32; total_len];
        let mut dropped = total_len.div_ceil(self.floats_per_packet);
        let mut crc_rejects = 0u64;
        let mut filled = 0usize;
        for p in packets {
            if !p.verify() {
                crc_rejects += 1;
                continue;
            }
            let start = p.seq as usize * self.floats_per_packet;
            if start >= total_len {
                continue; // stray sequence number: discard
            }
            dropped = dropped.saturating_sub(1);
            for (j, chunk) in p.payload.chunks_exact(4).enumerate() {
                let idx = start + j;
                if idx >= total_len {
                    break;
                }
                out[idx] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                filled += 1;
            }
        }
        if let Some(stats) = stats {
            stats.record_transmission(total_len as u64);
            stats.add_crc_rejects(crc_rejects);
            stats.add_packets_dropped(dropped as u64);
            stats.add_dims_erased((total_len - filled.min(total_len)) as u64);
        }
        (out, dropped)
    }
}

/// Corrupts raw packet bytes with the given channel's bit-error process
/// (headers and CRCs included, as on a real link). Erased (all-zero)
/// spans from packet-loss channels also invalidate CRCs, so both error
/// processes surface as dropped packets after reassembly.
pub fn corrupt_packets(packets: &mut [Packet], channel: &dyn Channel, rng: &mut dyn RngCore) {
    for p in packets {
        // Reinterpret payload bytes as f32 lanes for the channel, then
        // write them back — the channel sees exactly the bits on the wire.
        let mut lanes: Vec<f32> = p
            .payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        channel.transmit_f32(&mut lanes, rng);
        for (chunk, v) in p.payload.chunks_exact_mut(4).zip(&lanes) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// End-to-end transport: packetize, corrupt with `channel`, reassemble.
/// Returns the received payload and the packet-drop count — the concrete
/// realization of the paper's "CRC detects bit errors ⇒ packet lossy,
/// bit-error-free link".
pub fn transport_through(
    packetizer: &Packetizer,
    payload: &[f32],
    channel: &dyn Channel,
    rng: &mut dyn RngCore,
) -> (Vec<f32>, usize) {
    let mut packets = packetizer.packetize(payload);
    corrupt_packets(&mut packets, channel, rng);
    packetizer.reassemble(&packets, payload.len())
}

/// [`transport_through`] with impairment accounting (CRC rejects, dropped
/// packets, erased dimensions) into `stats`.
pub fn transport_through_stats(
    packetizer: &Packetizer,
    payload: &[f32],
    channel: &dyn Channel,
    rng: &mut dyn RngCore,
    stats: &crate::ChannelStats,
) -> (Vec<f32>, usize) {
    let mut packets = packetizer.packetize(payload);
    corrupt_packets(&mut packets, channel, rng);
    packetizer.reassemble_stats(&packets, payload.len(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_error::BitErrorChannel;
    use crate::packet::per_from_ber;
    use crate::NoiselessChannel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn clean_roundtrip_is_lossless() {
        let pz = Packetizer::new(8).unwrap();
        let payload: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let (rx, dropped) = transport_through(&pz, &payload, &NoiselessChannel::new(), &mut rng);
        assert_eq!(rx, payload);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn corrupted_packets_fail_crc_and_become_erasures() {
        let pz = Packetizer::new(4).unwrap();
        let payload = vec![1.5f32; 16];
        let mut packets = pz.packetize(&payload);
        // Flip one payload bit in packet 1.
        packets[1].payload[0] ^= 0x01;
        assert!(!packets[1].verify());
        let (rx, dropped) = pz.reassemble(&packets, payload.len());
        assert_eq!(dropped, 1);
        assert_eq!(&rx[..4], &[1.5; 4]);
        assert_eq!(&rx[4..8], &[0.0; 4], "corrupted span erased");
        assert_eq!(&rx[8..], &[1.5; 8]);
    }

    #[test]
    fn missing_packets_are_erasures() {
        let pz = Packetizer::new(4).unwrap();
        let payload: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut packets = pz.packetize(&payload);
        packets.remove(0);
        let (rx, dropped) = pz.reassemble(&packets, payload.len());
        assert_eq!(dropped, 1);
        assert_eq!(&rx[..4], &[0.0; 4]);
        assert_eq!(rx[4], 4.0);
    }

    #[test]
    fn empirical_drop_rate_matches_per_formula() {
        // The whole point of Eq. 8: BER p_e on packets of N_p bits drops
        // packets at rate 1-(1-p_e)^{N_p}. Measure it end to end.
        let pz = Packetizer::new(8).unwrap(); // 8 floats = 256 payload bits
        let payload = vec![0.25f32; 8 * 4000];
        let ber = 1e-3;
        let ch = BitErrorChannel::new(ber).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (_, dropped) = transport_through(&pz, &payload, &ch, &mut rng);
        let measured = dropped as f64 / 4000.0;
        // Headers and CRC are not exposed to the channel here, so the
        // effective protected length is the 256 payload bits.
        let expected = per_from_ber(ber, 256);
        assert!(
            (measured - expected).abs() < 0.03,
            "measured {measured} vs Eq.8 {expected}"
        );
    }

    #[test]
    fn stray_sequence_numbers_ignored() {
        let pz = Packetizer::new(4).unwrap();
        let payload = vec![2.0f32; 8];
        let mut packets = pz.packetize(&payload);
        // Forge a packet pointing far past the payload.
        let mut forged = packets[0].clone();
        forged.seq = 1000;
        forged.crc = Packet::compute_crc(1000, &forged.payload);
        packets.push(forged);
        let (rx, _) = pz.reassemble(&packets, payload.len());
        assert_eq!(rx, payload);
    }

    #[test]
    fn rejects_zero_size() {
        assert!(Packetizer::new(0).is_err());
    }

    #[test]
    fn stats_classify_crc_rejects_and_missing_packets() {
        use crate::ChannelStats;
        let pz = Packetizer::new(4).unwrap();
        let payload: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        let mut packets = pz.packetize(&payload);
        packets[1].payload[0] ^= 0x01; // CRC failure
        packets.remove(3); // never arrives
        let stats = ChannelStats::new();
        let (rx, dropped) = pz.reassemble_stats(&packets, payload.len(), &stats);
        assert_eq!(dropped, 2);
        let snap = stats.snapshot();
        assert_eq!(snap.crc_rejects, 1);
        assert_eq!(snap.packets_dropped, 2);
        assert_eq!(
            snap.dims_erased,
            rx.iter().filter(|&&x| x == 0.0).count() as u64
        );
    }

    #[test]
    fn transport_through_stats_counts_end_to_end() {
        use crate::ChannelStats;
        let pz = Packetizer::new(8).unwrap();
        let payload = vec![0.25f32; 8 * 500];
        let ch = BitErrorChannel::new(1e-3).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let stats = ChannelStats::new();
        let (rx, dropped) = transport_through_stats(&pz, &payload, &ch, &mut rng, &stats);
        let snap = stats.snapshot();
        assert_eq!(snap.packets_dropped, dropped as u64);
        assert_eq!(snap.crc_rejects, dropped as u64, "all drops are CRC hits");
        assert!(
            snap.crc_rejects > 0,
            "BER 1e-3 on 256-bit packets drops some"
        );
        assert_eq!(
            snap.dims_erased,
            rx.iter().filter(|&&x| x == 0.0).count() as u64
        );
    }
}
