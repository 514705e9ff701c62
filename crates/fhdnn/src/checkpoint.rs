//! Persistence: save and load a trained FHDnn deployment.
//!
//! A deployment is fully determined by (a) the backbone architecture
//! descriptor plus its trained parameters and batch-norm running
//! statistics, (b) the shared random-projection encoder, and (c) the
//! global HD model. The one checkpoint format is little-endian binary,
//! the raw floats plus 89 bytes of framing, sized for flash-constrained
//! edge devices:
//!
//! ```text
//! magic "FHDN" | u32 version | u8 arch | u32 in_channels | u32 base_width
//! | u32 blocks_per_stage | section(trunk_params) | section(trunk_running)
//! | matrix(phi) | matrix(prototypes) | u32 crc32(all preceding bytes)
//! ```
//!
//! where `section(x)` is `u64 len | len × f32` and `matrix(m)` is
//! `u64 rows | u64 cols | section(m)`. The trailing CRC-32 detects
//! truncation and corruption.
//!
//! # Example
//!
//! ```
//! use fhdnn::checkpoint::FhdnnCheckpoint;
//! use fhdnn::extractor::FeatureExtractor;
//! use fhdnn::hdc::encoder::RandomProjectionEncoder;
//! use fhdnn::hdc::model::HdModel;
//! use fhdnn::nn::models::{ResNetConfig, TrunkArch};
//!
//! # fn main() -> Result<(), fhdnn::FhdnnError> {
//! let backbone = ResNetConfig { in_channels: 1, base_width: 4, blocks_per_stage: 1, num_classes: 10 };
//! let mut extractor = FeatureExtractor::random(backbone, 0)?;
//! let encoder = RandomProjectionEncoder::new(256, extractor.feature_width(), 1)?;
//! let hd = HdModel::new(10, 256)?;
//!
//! let ckpt = FhdnnCheckpoint::capture(TrunkArch::ResNet, backbone, &extractor, &encoder, &hd)?;
//! let bytes = ckpt.to_bytes();
//! let restored = FhdnnCheckpoint::from_bytes(&bytes)?;
//! assert_eq!(restored.to_bytes(), bytes);
//! let (mut ex2, _enc2, _hd2) = restored.restore()?;
//! assert_eq!(ex2.feature_width(), extractor.feature_width());
//! # Ok(())
//! # }
//! ```

use fhdnn_channel::packetizer::crc32;
use fhdnn_hdc::encoder::RandomProjectionEncoder;
use fhdnn_hdc::model::HdModel;
use fhdnn_nn::models::{build_trunk, resnet_feature_width, ResNetConfig, TrunkArch};
use fhdnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::extractor::FeatureExtractor;
use crate::{FhdnnError, Result};

/// Backbone architecture descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackboneDescriptor {
    /// Trunk family.
    pub arch: TrunkArch,
    /// Input channels.
    pub in_channels: usize,
    /// Base width.
    pub base_width: usize,
    /// Blocks per stage.
    pub blocks_per_stage: usize,
}

/// A complete, self-describing FHDnn deployment snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FhdnnCheckpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Backbone architecture.
    pub backbone: BackboneDescriptor,
    /// Trained trunk parameters (flattened, layer order).
    pub trunk_params: Vec<f32>,
    /// Trunk running state (batch-norm statistics, layer order).
    pub trunk_running: Vec<f32>,
    /// The shared random-projection encoder.
    pub encoder: RandomProjectionEncoder,
    /// The global HD model.
    pub hd: HdModel,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"FHDN";

fn put_section(buf: &mut Vec<u8>, values: &[f32]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_matrix(buf: &mut Vec<u8>, matrix: &Tensor) {
    for &dim in matrix.dims() {
        buf.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    put_section(buf, matrix.as_slice());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.data.len() - self.pos {
            return Err(FhdnnError::InvalidArgument(format!(
                "truncated checkpoint: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take returned N bytes"))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A length the file supplies, as an index type.
    fn len(&mut self) -> Result<usize> {
        let n = u64::from_le_bytes(self.array()?);
        usize::try_from(n)
            .map_err(|_| FhdnnError::InvalidArgument(format!("length {n} exceeds address space")))
    }

    fn section(&mut self) -> Result<Vec<f32>> {
        let len = self.len()?;
        // Bound the length by the bytes present before multiplying or
        // allocating for it.
        if len > (self.data.len() - self.pos) / 4 {
            return Err(FhdnnError::InvalidArgument(format!(
                "truncated checkpoint: section of {len} floats at offset {}",
                self.pos
            )));
        }
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of four")))
            .collect())
    }

    /// `u64 rows | u64 cols | section` holding exactly `rows × cols`
    /// floats.
    fn matrix(&mut self, what: &str) -> Result<Tensor> {
        let (rows, cols) = (self.len()?, self.len()?);
        let values = self.section()?;
        if rows.checked_mul(cols) != Some(values.len()) {
            return Err(FhdnnError::InvalidArgument(format!(
                "{what} section holds {} floats for a [{rows}, {cols}] matrix",
                values.len()
            )));
        }
        Ok(Tensor::from_vec(values, &[rows, cols])?)
    }
}

impl FhdnnCheckpoint {
    /// Captures a deployment snapshot from live components.
    ///
    /// # Errors
    ///
    /// Returns an error if the extractor's feature width disagrees with
    /// the backbone descriptor or the encoder.
    pub fn capture(
        arch: TrunkArch,
        backbone: ResNetConfig,
        extractor: &FeatureExtractor,
        encoder: &RandomProjectionEncoder,
        hd: &HdModel,
    ) -> Result<Self> {
        if resnet_feature_width(&backbone) != extractor.feature_width() {
            return Err(FhdnnError::InvalidArgument(format!(
                "backbone descriptor implies width {}, extractor has {}",
                resnet_feature_width(&backbone),
                extractor.feature_width()
            )));
        }
        if encoder.feature_width() != extractor.feature_width() {
            return Err(FhdnnError::InvalidArgument(
                "encoder width disagrees with extractor".into(),
            ));
        }
        if hd.dim() != encoder.dim() {
            return Err(FhdnnError::InvalidArgument(
                "HD model dimension disagrees with encoder".into(),
            ));
        }
        Ok(FhdnnCheckpoint {
            version: CHECKPOINT_VERSION,
            backbone: BackboneDescriptor {
                arch,
                in_channels: backbone.in_channels,
                base_width: backbone.base_width,
                blocks_per_stage: backbone.blocks_per_stage,
            },
            trunk_params: extractor.trunk_params(),
            trunk_running: extractor.trunk_running_state(),
            encoder: encoder.clone(),
            hd: hd.clone(),
        })
    }

    /// Rebuilds the live components from the snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown versions or corrupted state vectors.
    pub fn restore(&self) -> Result<(FeatureExtractor, RandomProjectionEncoder, HdModel)> {
        if self.version != CHECKPOINT_VERSION {
            return Err(FhdnnError::InvalidArgument(format!(
                "unsupported checkpoint version {}",
                self.version
            )));
        }
        let config = ResNetConfig {
            in_channels: self.backbone.in_channels,
            base_width: self.backbone.base_width,
            blocks_per_stage: self.backbone.blocks_per_stage,
            num_classes: 1, // trunk has no classifier; field unused
        };
        // Seed is irrelevant: every parameter is overwritten below.
        let mut rng = StdRng::seed_from_u64(0);
        let mut trunk = build_trunk(self.backbone.arch, config, &mut rng)?;
        trunk.load_params(&self.trunk_params)?;
        trunk.load_running_state(&self.trunk_running)?;
        let extractor = FeatureExtractor::from_pretrained(trunk, resnet_feature_width(&config))?;
        Ok((extractor, self.encoder.clone(), self.hd.clone()))
    }

    /// Serializes the checkpoint into the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.push(match self.backbone.arch {
            TrunkArch::ResNet => 0,
            TrunkArch::MobileNet => 1,
        });
        buf.extend_from_slice(&(self.backbone.in_channels as u32).to_le_bytes());
        buf.extend_from_slice(&(self.backbone.base_width as u32).to_le_bytes());
        buf.extend_from_slice(&(self.backbone.blocks_per_stage as u32).to_le_bytes());
        put_section(&mut buf, &self.trunk_params);
        put_section(&mut buf, &self.trunk_running);
        put_matrix(&mut buf, self.encoder.phi());
        put_matrix(&mut buf, self.hd.prototypes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses a checkpoint from the binary format.
    ///
    /// # Errors
    ///
    /// Returns an error on bad magic, CRC mismatch, unsupported version,
    /// truncation, section lengths that disagree with their matrix
    /// header, or bytes left over after the last section.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        if !data.starts_with(MAGIC) {
            return Err(FhdnnError::InvalidArgument(
                "not an FHDnn checkpoint (bad magic)".into(),
            ));
        }
        if data.len() < 8 {
            return Err(FhdnnError::InvalidArgument("checkpoint too short".into()));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        if crc32(body).to_le_bytes() != crc_bytes {
            return Err(FhdnnError::InvalidArgument(
                "checkpoint CRC mismatch: file corrupted or truncated".into(),
            ));
        }
        let mut r = Reader {
            data: body,
            pos: MAGIC.len(),
        };
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(FhdnnError::InvalidArgument(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let arch = match r.array::<1>()?[0] {
            0 => TrunkArch::ResNet,
            1 => TrunkArch::MobileNet,
            other => {
                return Err(FhdnnError::InvalidArgument(format!(
                    "unknown architecture tag {other}"
                )))
            }
        };
        let in_channels = r.u32()? as usize;
        let base_width = r.u32()? as usize;
        let blocks_per_stage = r.u32()? as usize;
        let trunk_params = r.section()?;
        let trunk_running = r.section()?;
        let encoder = RandomProjectionEncoder::from_matrix(r.matrix("encoder")?)?;
        let hd = HdModel::from_prototypes(r.matrix("hd")?)?;
        if r.pos != body.len() {
            return Err(FhdnnError::InvalidArgument(format!(
                "{} bytes after the last checkpoint section",
                body.len() - r.pos
            )));
        }
        Ok(FhdnnCheckpoint {
            version,
            backbone: BackboneDescriptor {
                arch,
                in_channels,
                base_width,
                blocks_per_stage,
            },
            trunk_params,
            trunk_running,
            encoder,
            hd,
        })
    }
}

#[cfg(test)]
#[path = "../../../tests/proptest_util.rs"]
mod proptest_util;

#[cfg(test)]
mod tests {
    use super::proptest_util::{check, Gen};
    use super::*;
    use fhdnn_datasets::image::SynthSpec;
    use fhdnn_tensor::Tensor;

    fn backbone() -> ResNetConfig {
        ResNetConfig {
            in_channels: 1,
            base_width: 4,
            blocks_per_stage: 1,
            num_classes: 10,
        }
    }

    fn trained_setup() -> (FeatureExtractor, RandomProjectionEncoder, HdModel) {
        let mut extractor = FeatureExtractor::random(backbone(), 3).unwrap();
        let encoder = RandomProjectionEncoder::new(512, extractor.feature_width(), 5).unwrap();
        let data = SynthSpec::mnist_like().generate(60, 0).unwrap();
        let feats = extractor.extract_chunked(&data.images, 32).unwrap();
        let h = encoder.encode_batch(&feats).unwrap();
        let mut hd = HdModel::new(10, 512).unwrap();
        hd.one_shot_train(&h, &data.labels).unwrap();
        (extractor, encoder, hd)
    }

    #[test]
    fn roundtrip_preserves_predictions_exactly() {
        let (mut extractor, encoder, hd) = trained_setup();
        let ckpt =
            FhdnnCheckpoint::capture(TrunkArch::ResNet, backbone(), &extractor, &encoder, &hd)
                .unwrap();
        let restored = FhdnnCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored, ckpt);
        let (mut ex2, enc2, hd2) = restored.restore().unwrap();

        let test = SynthSpec::mnist_like().generate(30, 9).unwrap();
        let feats_a = extractor.extract(&test.images).unwrap();
        let feats_b = ex2.extract(&test.images).unwrap();
        assert_eq!(feats_a, feats_b, "extractor bit-identical after restore");
        let ha = encoder.encode_batch(&feats_a).unwrap();
        let hb = enc2.encode_batch(&feats_b).unwrap();
        assert_eq!(
            hd.predict_batch(&ha).unwrap(),
            hd2.predict_batch(&hb).unwrap()
        );
    }

    #[test]
    fn mobilenet_checkpoints_too() {
        let mut extractor =
            FeatureExtractor::random_with(TrunkArch::MobileNet, backbone(), 4).unwrap();
        let encoder = RandomProjectionEncoder::new(128, extractor.feature_width(), 5).unwrap();
        let hd = HdModel::new(10, 128).unwrap();
        let ckpt =
            FhdnnCheckpoint::capture(TrunkArch::MobileNet, backbone(), &extractor, &encoder, &hd)
                .unwrap();
        let (mut ex2, _, _) = ckpt.restore().unwrap();
        let x = Tensor::ones(&[1, 1, 16, 16]);
        assert_eq!(extractor.extract(&x).unwrap(), ex2.extract(&x).unwrap());
    }

    #[test]
    fn capture_validates_component_agreement() {
        let (extractor, _encoder, hd) = trained_setup();
        let bad_encoder = RandomProjectionEncoder::new(512, 99, 0).unwrap();
        assert!(FhdnnCheckpoint::capture(
            TrunkArch::ResNet,
            backbone(),
            &extractor,
            &bad_encoder,
            &hd
        )
        .is_err());
    }

    #[test]
    fn unknown_version_rejected() {
        let mut ckpt = small_checkpoint();
        ckpt.version = 99;
        assert!(ckpt.restore().is_err());
    }

    #[test]
    fn corrupted_params_rejected() {
        let mut ckpt = small_checkpoint();
        ckpt.trunk_params.pop();
        assert!(ckpt.restore().is_err());
    }

    fn small_checkpoint() -> FhdnnCheckpoint {
        let extractor = FeatureExtractor::random(backbone(), 3).unwrap();
        let encoder = RandomProjectionEncoder::new(128, extractor.feature_width(), 5).unwrap();
        let hd = HdModel::new(10, 128).unwrap();
        FhdnnCheckpoint::capture(TrunkArch::ResNet, backbone(), &extractor, &encoder, &hd).unwrap()
    }

    /// Recomputes the trailing CRC so only the edited field is wrong.
    fn restamp(bytes: &mut [u8]) {
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = small_checkpoint().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(FhdnnCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = small_checkpoint().to_bytes();
        assert!(FhdnnCheckpoint::from_bytes(&bytes[..bytes.len() - 10]).is_err());
        assert!(FhdnnCheckpoint::from_bytes(&bytes[..4]).is_err());
        assert!(FhdnnCheckpoint::from_bytes(b"nope").is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = small_checkpoint().to_bytes();
        bytes[0] = b'X';
        restamp(&mut bytes);
        let err = FhdnnCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn overflowing_matrix_header_is_an_error() {
        // Multiplied unchecked, `2^63 × 2` panics in debug and wraps to 0
        // in release, where it would match the empty section.
        let ckpt = small_checkpoint();
        let bytes = ckpt.to_bytes();
        let hd_floats = ckpt.hd.num_classes() * ckpt.hd.dim();
        let header = bytes.len() - 4 - hd_floats * 4 - 8 - 16;
        let mut bad = bytes[..header].to_vec();
        bad.extend_from_slice(&(1u64 << 63).to_le_bytes());
        bad.extend_from_slice(&2u64.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&[0; 4]);
        restamp(&mut bad);
        let err = FhdnnCheckpoint::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("hd section"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = small_checkpoint().to_bytes();
        bytes.extend_from_slice(&[0; 4]);
        restamp(&mut bytes);
        let err = FhdnnCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("after the last"), "{err}");
    }

    /// Mutation wall over the one checkpoint decoder: truncations, byte
    /// flips, spliced ranges and rewritten length fields, most of them with
    /// a valid CRC. Decoding never panics, and whatever it accepts is
    /// exactly what `to_bytes` would write — no field is read loosely.
    #[test]
    fn mutated_checkpoints_error_or_round_trip_exactly() {
        let ckpt = small_checkpoint();
        let valid = ckpt.to_bytes();

        // Offsets of the eight u64 length fields: two section lengths, then
        // `rows | cols | len` of the encoder and of the HD model.
        let running = 21 + 8 + 4 * ckpt.trunk_params.len();
        let enc = running + 8 + 4 * ckpt.trunk_running.len();
        let hd_at = enc + 24 + 4 * ckpt.encoder.phi().len();
        assert_eq!(hd_at + 24 + 4 * ckpt.hd.prototypes().len() + 4, valid.len());
        let mut lengths = vec![21, running];
        lengths.extend([enc, hd_at].iter().flat_map(|at| [*at, at + 8, at + 16]));

        let hostile_length = |g: &mut Gen, old: u64| match g.usize_below(6) {
            0 => [0, 2, 1 << 32, 1 << 63, u64::MAX][g.usize_below(5)],
            1 => old.wrapping_add(1),
            2 => old.wrapping_sub(1),
            _ => g.next_u64() >> g.usize_below(64),
        };
        let (mut accepted, mut rejected) = (0, 0);
        check(0xC4EC_4B17, 3_000, |case, g| {
            let mut bytes = valid.clone();
            for _ in 0..g.usize_in(1..4) {
                match g.usize_below(5) {
                    0 => bytes.truncate(g.usize_below(bytes.len() + 1)),
                    1 if !bytes.is_empty() => {
                        let at = g.usize_below(bytes.len());
                        bytes[at] ^= 1 << g.usize_below(8);
                    }
                    2 if !bytes.is_empty() => {
                        // Cut a range out, or splice a copy of it back in.
                        let start = g.usize_below(bytes.len());
                        let end = (start + g.usize_below(64)).min(bytes.len());
                        if g.bool() {
                            bytes.drain(start..end);
                        } else {
                            let copy = bytes[start..end].to_vec();
                            bytes.splice(start..start, copy);
                        }
                    }
                    _ => {
                        // Rewrite one length field, sometimes a second so
                        // that a matrix header's product is hostile too.
                        for _ in 0..g.usize_in(1..3) {
                            let at = lengths[g.usize_below(lengths.len())];
                            if let Some(field) = bytes.get_mut(at..at + 8) {
                                let old = u64::from_le_bytes(field.try_into().unwrap());
                                field.copy_from_slice(&hostile_length(g, old).to_le_bytes());
                            }
                        }
                    }
                }
            }
            if g.usize_below(8) != 0 && bytes.len() >= 4 {
                restamp(&mut bytes);
            }
            match FhdnnCheckpoint::from_bytes(&bytes) {
                Ok(c) => {
                    accepted += 1;
                    assert_eq!(c.to_bytes(), bytes, "case {case}: loose decode");
                }
                Err(_) => rejected += 1,
            }
        });
        // Both outcomes are exercised: float-payload flips under a fresh
        // CRC decode, everything structural is refused.
        assert!(accepted > 50 && rejected > 1_000, "{accepted} / {rejected}");
    }
}
