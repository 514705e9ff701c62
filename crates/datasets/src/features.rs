//! Feature-vector datasets — the ISOLET stand-in for the Figure 5
//! partial-information experiment.

use fhdnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};

use crate::{DatasetError, Result};

/// A labeled feature-vector dataset: `[n, width]` features plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDataset {
    /// Feature matrix `[n, width]`.
    pub features: Tensor,
    /// Per-sample class labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl FeatureDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.features.len() / self.len()
        }
    }
}

/// Specification of a Gaussian-prototype feature corpus.
///
/// The preset [`FeatureSpec::isolet_like`] matches the shape of the UCI
/// ISOLET speech dataset used in the paper's Figure 5: 617 features, 26
/// classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureSpec {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature width.
    pub width: usize,
    /// Std of within-class Gaussian spread (prototypes are unit-std).
    pub noise_std: f32,
    /// Seed defining the class prototypes.
    pub class_seed: u64,
}

impl FeatureSpec {
    /// ISOLET stand-in: 26 classes of 617-wide feature vectors.
    pub fn isolet_like() -> Self {
        FeatureSpec {
            num_classes: 26,
            width: 617,
            noise_std: 0.8,
            class_seed: 0x49534f4c, // "ISOL"
        }
    }

    /// Generates `n` balanced samples deterministically from `sample_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidArgument`] for zero classes or width.
    pub fn generate(&self, n: usize, sample_seed: u64) -> Result<FeatureDataset> {
        if self.num_classes == 0 || self.width == 0 {
            return Err(DatasetError::InvalidArgument(
                "feature spec dimensions must be positive".into(),
            ));
        }
        let mut proto_rng = StdRng::seed_from_u64(self.class_seed);
        let prototypes: Vec<Vec<f32>> = (0..self.num_classes)
            .map(|_| {
                (0..self.width)
                    .map(|_| StandardNormal.sample(&mut proto_rng))
                    .collect()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let mut data = Vec::with_capacity(n * self.width);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.num_classes;
            labels.push(class);
            for &p in &prototypes[class] {
                let noise: f32 = StandardNormal.sample(&mut rng);
                data.push(p + self.noise_std * noise);
            }
        }
        Ok(FeatureDataset {
            features: Tensor::from_vec(data, &[n, self.width])?,
            labels,
            num_classes: self.num_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolet_shape() {
        let d = FeatureSpec::isolet_like().generate(52, 0).unwrap();
        assert_eq!(d.features.dims(), &[52, 617]);
        assert_eq!(d.num_classes, 26);
        assert_eq!(d.width(), 617);
        // Balanced: two samples per class.
        for class in 0..26 {
            assert_eq!(d.labels.iter().filter(|&&l| l == class).count(), 2);
        }
    }

    #[test]
    fn deterministic_generation() {
        let spec = FeatureSpec::isolet_like();
        assert_eq!(spec.generate(10, 5).unwrap(), spec.generate(10, 5).unwrap());
    }

    #[test]
    fn class_structure_present() {
        let d = FeatureSpec::isolet_like().generate(104, 1).unwrap();
        // Nearest-prototype in raw feature space should beat chance by far.
        let w = d.width();
        let mut correct = 0;
        for i in 0..d.len() {
            let xi = d.features.row(i).unwrap();
            let mut best = (f32::MAX, 0usize);
            for j in 0..d.len() {
                if i == j {
                    continue;
                }
                let xj = d.features.row(j).unwrap();
                let dist: f32 = xi.iter().zip(xj).map(|(a, b)| (a - b).powi(2)).sum();
                if dist < best.0 {
                    best = (dist, d.labels[j]);
                }
            }
            if best.1 == d.labels[i] {
                correct += 1;
            }
            let _ = w;
        }
        let acc = correct as f32 / d.len() as f32;
        assert!(acc > 0.8, "nearest-neighbor accuracy {acc}");
    }

    #[test]
    fn rejects_degenerate_specs() {
        let spec = FeatureSpec {
            num_classes: 0,
            width: 10,
            noise_std: 1.0,
            class_seed: 0,
        };
        assert!(spec.generate(5, 0).is_err());
    }
}
