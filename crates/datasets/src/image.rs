//! Procedural image datasets standing in for MNIST, FashionMNIST and
//! CIFAR-10.
//!
//! Each class is defined by a deterministic prototype built from a small
//! number of class-seeded Gaussian blobs plus (for the harder corpora) a
//! class-frequency texture; samples are prototypes under random shift,
//! contrast jitter, and pixel noise. This preserves the properties the
//! paper's experiments rely on:
//!
//! - class structure learnable by both a CNN and an HD classifier,
//! - a difficulty ordering (`cifar_like` > `fashion_like` > `mnist_like`),
//! - spatial coherence, so contrastive augmentations (crop/flip/noise)
//!   keep samples identifiable — the property SimCLR pretraining needs.

use fhdnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, StandardNormal};

use crate::{DatasetError, Result};

/// A labeled image dataset: `[n, c, h, w]` pixels plus integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageDataset {
    /// Pixel data, `[n, channels, size, size]`, roughly in `[-1, 1]`.
    pub images: Tensor,
    /// Per-sample class labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl ImageDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Gathers the samples at `indices` into a new dataset (used to carve
    /// client shards from a global pool).
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<ImageDataset> {
        let per = self.images.len() / self.len().max(1);
        let mut data = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(DatasetError::InvalidArgument(format!(
                    "index {i} out of range for {} samples",
                    self.len()
                )));
            }
            data.extend_from_slice(&self.images.as_slice()[i * per..(i + 1) * per]);
            labels.push(self.labels[i]);
        }
        let mut dims = self.images.dims().to_vec();
        dims[0] = indices.len();
        Ok(ImageDataset {
            images: Tensor::from_vec(data, &dims)?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Copies one sample as a `[1, c, h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if `i` is out of range.
    pub fn sample(&self, i: usize) -> Result<Tensor> {
        self.images
            .slice_first_axis(i, i + 1)
            .map_err(DatasetError::from)
    }
}

/// One Gaussian blob of a class prototype.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Blob {
    cx: f32,
    cy: f32,
    sigma: f32,
    amplitude: f32,
    /// Per-channel weights (up to 3 channels).
    channel_weights: [f32; 3],
}

/// Specification of a synthetic image corpus.
///
/// Use the presets [`SynthSpec::mnist_like`], [`SynthSpec::fashion_like`],
/// [`SynthSpec::cifar_like`], or build a custom one.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Corpus name used in experiment logs.
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Image channels (1 or 3).
    pub channels: usize,
    /// Square image side length.
    pub image_size: usize,
    /// Blobs per class prototype.
    pub blobs_per_class: usize,
    /// Whether prototypes carry a class-frequency sinusoidal texture.
    pub textured: bool,
    /// Std of additive pixel noise per sample.
    pub noise_std: f32,
    /// Maximum absolute shift (pixels) applied per sample.
    pub max_shift: usize,
    /// Contrast jitter half-range (samples scaled by `1 ± jitter`).
    pub contrast_jitter: f32,
    /// Seed defining the class prototypes (not the samples).
    pub class_seed: u64,
}

impl SynthSpec {
    /// MNIST stand-in: grayscale, low noise, small shifts — the easy end.
    pub fn mnist_like() -> Self {
        SynthSpec {
            name: "synthetic-mnist".into(),
            num_classes: 10,
            channels: 1,
            image_size: 16,
            blobs_per_class: 2,
            textured: false,
            noise_std: 0.08,
            max_shift: 2,
            contrast_jitter: 0.1,
            class_seed: 0x4d4e4953, // "MNIS"
        }
    }

    /// FashionMNIST stand-in: grayscale with per-class texture, more noise.
    pub fn fashion_like() -> Self {
        SynthSpec {
            name: "synthetic-fashion".into(),
            num_classes: 10,
            channels: 1,
            image_size: 16,
            blobs_per_class: 3,
            textured: true,
            noise_std: 0.18,
            max_shift: 2,
            contrast_jitter: 0.2,
            class_seed: 0x46415348, // "FASH"
        }
    }

    /// CIFAR-10 stand-in: color, textured, the most intra-class variance —
    /// the hard end of the ordering.
    pub fn cifar_like() -> Self {
        SynthSpec {
            name: "synthetic-cifar".into(),
            num_classes: 10,
            channels: 3,
            image_size: 16,
            blobs_per_class: 3,
            textured: true,
            noise_std: 0.35,
            max_shift: 3,
            contrast_jitter: 0.3,
            class_seed: 0x43494641, // "CIFA"
        }
    }

    /// Deterministic class prototypes, `[num_classes, c, h, w]`.
    fn prototypes(&self) -> Vec<Vec<f32>> {
        let mut protos = Vec::with_capacity(self.num_classes);
        let (s, c) = (self.image_size, self.channels);
        for class in 0..self.num_classes {
            // Per-class RNG: prototypes are independent of sample count.
            let mut rng = StdRng::seed_from_u64(
                self.class_seed ^ (class as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let blobs: Vec<Blob> = (0..self.blobs_per_class)
                .map(|_| Blob {
                    cx: rng.gen_range(0.2..0.8) * s as f32,
                    cy: rng.gen_range(0.2..0.8) * s as f32,
                    sigma: rng.gen_range(0.1..0.25) * s as f32,
                    amplitude: rng.gen_range(0.6..1.2),
                    channel_weights: [
                        rng.gen_range(0.2f32..1.0),
                        rng.gen_range(0.2f32..1.0),
                        rng.gen_range(0.2f32..1.0),
                    ],
                })
                .collect();
            let (tex_fx, tex_fy, tex_amp) = if self.textured {
                (
                    rng.gen_range(0.5..2.5),
                    rng.gen_range(0.5..2.5),
                    rng.gen_range(0.15..0.35),
                )
            } else {
                (0.0, 0.0, 0.0)
            };
            let mut img = vec![0.0f32; c * s * s];
            for ci in 0..c {
                for y in 0..s {
                    for x in 0..s {
                        let mut v = 0.0;
                        for b in &blobs {
                            let dx = x as f32 - b.cx;
                            let dy = y as f32 - b.cy;
                            let r2 = (dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma);
                            v += b.amplitude * b.channel_weights[ci.min(2)] * (-r2).exp();
                        }
                        if self.textured {
                            let phase = std::f32::consts::TAU
                                * (tex_fx * x as f32 + tex_fy * y as f32)
                                / s as f32;
                            v += tex_amp * phase.sin();
                        }
                        img[(ci * s + y) * s + x] = v;
                    }
                }
            }
            // Center and scale the prototype to zero mean, unit-ish range.
            let mean = img.iter().sum::<f32>() / img.len() as f32;
            let max_abs = img
                .iter()
                .map(|v| (v - mean).abs())
                .fold(0.0f32, f32::max)
                .max(1e-6);
            for v in &mut img {
                *v = (*v - mean) / max_abs;
            }
            protos.push(img);
        }
        protos
    }

    /// Generates `n` samples with balanced classes (round-robin labels),
    /// deterministically from `sample_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidArgument`] for empty specs.
    pub fn generate(&self, n: usize, sample_seed: u64) -> Result<ImageDataset> {
        if self.num_classes == 0 || self.channels == 0 || self.image_size == 0 {
            return Err(DatasetError::InvalidArgument(
                "spec dimensions must be positive".into(),
            ));
        }
        if self.channels > 3 {
            return Err(DatasetError::InvalidArgument(
                "at most 3 channels supported".into(),
            ));
        }
        let protos = self.prototypes();
        let (s, c) = (self.image_size, self.channels);
        let per = c * s * s;
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let mut data = Vec::with_capacity(n * per);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.num_classes;
            labels.push(class);
            let proto = &protos[class];
            let shift = self.max_shift as i64;
            let dx = rng.gen_range(-shift..=shift);
            let dy = rng.gen_range(-shift..=shift);
            let contrast = 1.0 + rng.gen_range(-self.contrast_jitter..=self.contrast_jitter);
            for ci in 0..c {
                for y in 0..s as i64 {
                    for x in 0..s as i64 {
                        let (sx, sy) = (x - dx, y - dy);
                        let base = if sx >= 0 && sx < s as i64 && sy >= 0 && sy < s as i64 {
                            proto[(ci * s + sy as usize) * s + sx as usize]
                        } else {
                            0.0
                        };
                        let noise: f32 = StandardNormal.sample(&mut rng);
                        data.push(contrast * base + self.noise_std * noise);
                    }
                }
            }
        }
        Ok(ImageDataset {
            images: Tensor::from_vec(data, &[n, c, s, s])?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Generates an unlabeled pool for contrastive pretraining by mixing
    /// samples across corpora conventions: labels are discarded.
    ///
    /// # Errors
    ///
    /// Propagates generation errors.
    pub fn generate_unlabeled(&self, n: usize, sample_seed: u64) -> Result<Tensor> {
        Ok(self.generate(n, sample_seed)?.images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SynthSpec::mnist_like();
        let a = spec.generate(50, 7).unwrap();
        let b = spec.generate(50, 7).unwrap();
        assert_eq!(a, b);
        let c = spec.generate(50, 8).unwrap();
        assert_ne!(a.images, c.images, "different seeds differ");
    }

    #[test]
    fn labels_are_balanced_round_robin() {
        let spec = SynthSpec::mnist_like();
        let d = spec.generate(30, 0).unwrap();
        for class in 0..10 {
            assert_eq!(d.labels.iter().filter(|&&l| l == class).count(), 3);
        }
    }

    #[test]
    fn shapes_match_spec() {
        let d = SynthSpec::cifar_like().generate(12, 0).unwrap();
        assert_eq!(d.images.dims(), &[12, 3, 16, 16]);
        let d = SynthSpec::mnist_like().generate(12, 0).unwrap();
        assert_eq!(d.images.dims(), &[12, 1, 16, 16]);
    }

    #[test]
    fn same_class_more_similar_than_cross_class() {
        // The defining property of a class-structured corpus: mean
        // intra-class distance < mean inter-class distance.
        let spec = SynthSpec::fashion_like();
        let d = spec.generate(100, 3).unwrap();
        let per = 16 * 16;
        let dist = |i: usize, j: usize| -> f32 {
            let a = &d.images.as_slice()[i * per..(i + 1) * per];
            let b = &d.images.as_slice()[j * per..(j + 1) * per];
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
        };
        let (mut intra, mut ni, mut inter, mut nx) = (0.0, 0, 0.0, 0);
        for i in 0..40 {
            for j in (i + 1)..40 {
                if d.labels[i] == d.labels[j] {
                    intra += dist(i, j);
                    ni += 1;
                } else {
                    inter += dist(i, j);
                    nx += 1;
                }
            }
        }
        let (intra, inter) = (intra / ni as f32, inter / nx as f32);
        assert!(
            intra < inter * 0.8,
            "intra {intra} should be well below inter {inter}"
        );
    }

    #[test]
    fn difficulty_ordering_by_noise() {
        assert!(SynthSpec::cifar_like().noise_std > SynthSpec::fashion_like().noise_std);
        assert!(SynthSpec::fashion_like().noise_std > SynthSpec::mnist_like().noise_std);
    }

    #[test]
    fn subset_gathers_requested_samples() {
        let d = SynthSpec::mnist_like().generate(20, 1).unwrap();
        let s = d.subset(&[3, 5, 7]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels, vec![d.labels[3], d.labels[5], d.labels[7]]);
        assert_eq!(
            s.sample(1).unwrap().as_slice(),
            d.sample(5).unwrap().as_slice()
        );
        assert!(d.subset(&[20]).is_err());
    }

    #[test]
    fn pixel_values_bounded() {
        let d = SynthSpec::cifar_like().generate(50, 2).unwrap();
        // Prototypes are normalized to [-1, 1]; noise and contrast can
        // exceed slightly but values must stay sane.
        assert!(d.images.as_slice().iter().all(|v| v.abs() < 4.0));
    }

    #[test]
    fn rejects_degenerate_specs() {
        let mut spec = SynthSpec::mnist_like();
        spec.num_classes = 0;
        assert!(spec.generate(10, 0).is_err());
        let mut spec = SynthSpec::mnist_like();
        spec.channels = 4;
        assert!(spec.generate(10, 0).is_err());
    }
}
