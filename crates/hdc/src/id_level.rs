//! ID–level (record-based) encoding — the classical HD encoder family the
//! paper's reference \[10\] (BRIC, locality-based encoding) belongs to.
//!
//! Each feature position gets a random *ID* hypervector; each quantized
//! feature magnitude gets a *level* hypervector, built so that nearby
//! levels are similar (correlated levels: level 0 is random, each
//! subsequent level flips a fresh `d / (L-1)` slice of dimensions, so
//! level 0 and level L−1 are near-orthogonal). A feature vector encodes
//! as `sign(Σ_j ID_j ⊗ level(x_j))`.
//!
//! FHDnn itself uses random projection (§3.3); this module exists so the
//! two encoder families can be compared in the harness and so the crate
//! stands alone as a general HDC library.

use fhdnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{HdcError, Result};

/// ID–level encoder for fixed-width feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct IdLevelEncoder {
    /// Per-feature ID hypervectors, `[n, d]`, bipolar.
    ids: Tensor,
    /// Level hypervectors, `[levels, d]`, bipolar, correlated.
    levels: Tensor,
    dim: usize,
    feature_width: usize,
    num_levels: usize,
    /// Feature range mapped onto the levels.
    lo: f32,
    hi: f32,
}

impl IdLevelEncoder {
    /// Creates an encoder with `dim`-dimensional hypervectors over
    /// `feature_width` features quantized into `num_levels` levels across
    /// `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] for zero sizes, fewer than
    /// two levels, or an empty range.
    pub fn new(
        dim: usize,
        feature_width: usize,
        num_levels: usize,
        lo: f32,
        hi: f32,
        seed: u64,
    ) -> Result<Self> {
        if dim == 0 || feature_width == 0 {
            return Err(HdcError::InvalidArgument(
                "encoder dimensions must be positive".into(),
            ));
        }
        if num_levels < 2 {
            return Err(HdcError::InvalidArgument(
                "need at least two quantization levels".into(),
            ));
        }
        if lo >= hi || lo.is_nan() || hi.is_nan() {
            return Err(HdcError::InvalidArgument(format!(
                "empty feature range [{lo}, {hi}]"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = Tensor::randn(&[feature_width, dim], 1.0, &mut rng).sign_pm1();
        // Correlated levels: start random, flip a fresh contiguous slice
        // per step so similarity decays linearly with level distance.
        let base = Tensor::randn(&[dim], 1.0, &mut rng).sign_pm1();
        let mut level_data = Vec::with_capacity(num_levels * dim);
        let mut current = base.into_vec();
        level_data.extend_from_slice(&current);
        let slice = dim / (num_levels - 1).max(1);
        for step in 1..num_levels {
            let start = (step - 1) * slice;
            let end = if step == num_levels - 1 {
                dim
            } else {
                (start + slice).min(dim)
            };
            for v in &mut current[start..end] {
                *v = -*v;
            }
            level_data.extend_from_slice(&current);
        }
        Ok(IdLevelEncoder {
            ids,
            levels: Tensor::from_vec(level_data, &[num_levels, dim])?,
            dim,
            feature_width,
            num_levels,
            lo,
            hi,
        })
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Input feature width.
    pub fn feature_width(&self) -> usize {
        self.feature_width
    }

    /// Number of quantization levels.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Quantizes a feature value to its level index (clamped to range).
    pub fn level_of(&self, x: f32) -> usize {
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        ((t * (self.num_levels - 1) as f32).round() as usize).min(self.num_levels - 1)
    }

    /// The level hypervector for index `level`.
    ///
    /// # Errors
    ///
    /// Returns an error if `level` is out of range.
    pub fn level_vector(&self, level: usize) -> Result<Tensor> {
        if level >= self.num_levels {
            return Err(HdcError::InvalidArgument(format!(
                "level {level} out of range for {} levels",
                self.num_levels
            )));
        }
        Ok(Tensor::from_vec(
            self.levels.row(level)?.to_vec(),
            &[self.dim],
        )?)
    }

    /// Encodes a feature batch `[m, n]` into bipolar hypervectors
    /// `[m, d]`: `sign(Σ_j ID_j ⊗ level(x_j))`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn encode_batch(&self, features: &Tensor) -> Result<Tensor> {
        if features.shape().rank() != 2 || features.dims()[1] != self.feature_width {
            return Err(HdcError::InvalidArgument(format!(
                "expected [m, {}] features, got {:?}",
                self.feature_width,
                features.dims()
            )));
        }
        let m = features.dims()[0];
        let mut out = Vec::with_capacity(m * self.dim);
        let mut acc = vec![0.0f32; self.dim];
        for i in 0..m {
            acc.iter_mut().for_each(|a| *a = 0.0);
            let row = features.row(i)?;
            for (j, &x) in row.iter().enumerate() {
                let level = self.level_of(x);
                let id = self.ids.row(j)?;
                let lvl = self.levels.row(level)?;
                for ((a, &idv), &lv) in acc.iter_mut().zip(id).zip(lvl) {
                    *a += idv * lv;
                }
            }
            out.extend(acc.iter().map(|&a| if a >= 0.0 { 1.0 } else { -1.0 }));
        }
        Tensor::from_vec(out, &[m, self.dim]).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HdModel;
    use crate::ops::hamming_similarity;
    use fhdnn_datasets::features::FeatureSpec;

    fn encoder(d: usize) -> IdLevelEncoder {
        IdLevelEncoder::new(d, 16, 16, -3.0, 3.0, 42).unwrap()
    }

    #[test]
    fn level_similarity_decays_with_distance() {
        let enc = encoder(8192);
        let l0 = enc.level_vector(0).unwrap();
        let l1 = enc.level_vector(1).unwrap();
        let l8 = enc.level_vector(8).unwrap();
        let l15 = enc.level_vector(15).unwrap();
        let near = hamming_similarity(&l0, &l1).unwrap();
        let mid = hamming_similarity(&l0, &l8).unwrap();
        let far = hamming_similarity(&l0, &l15).unwrap();
        assert!(near > 0.9, "adjacent levels similar: {near}");
        assert!(
            mid < near && mid > far,
            "monotone decay: {near} {mid} {far}"
        );
        assert!(far < 0.1, "extreme levels near-orthogonal: {far}");
    }

    #[test]
    fn quantization_clamps_and_rounds() {
        let enc = encoder(256);
        assert_eq!(enc.level_of(-10.0), 0);
        assert_eq!(enc.level_of(10.0), 15);
        assert_eq!(enc.level_of(-3.0), 0);
        assert_eq!(enc.level_of(3.0), 15);
        assert_eq!(enc.level_of(0.0), 8, "midpoint rounds to middle level");
    }

    #[test]
    fn encoding_is_bipolar_and_deterministic() {
        let enc = encoder(512);
        let x =
            Tensor::from_vec((0..32).map(|i| (i as f32 / 8.0) - 2.0).collect(), &[2, 16]).unwrap();
        let h1 = enc.encode_batch(&x).unwrap();
        let h2 = enc.encode_batch(&x).unwrap();
        assert_eq!(h1, h2);
        assert!(h1.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn similar_inputs_encode_similarly() {
        let enc = encoder(8192);
        let a = Tensor::from_vec(vec![0.5; 16], &[1, 16]).unwrap();
        let b = Tensor::from_vec(vec![0.7; 16], &[1, 16]).unwrap(); // near a
        let c = Tensor::from_vec(vec![-2.5; 16], &[1, 16]).unwrap(); // far
        let ha = enc.encode_batch(&a).unwrap().reshape(&[8192]).unwrap();
        let hb = enc.encode_batch(&b).unwrap().reshape(&[8192]).unwrap();
        let hc = enc.encode_batch(&c).unwrap().reshape(&[8192]).unwrap();
        let near = hamming_similarity(&ha, &hb).unwrap();
        let far = hamming_similarity(&ha, &hc).unwrap();
        assert!(near > far + 0.15, "locality: near {near} vs far {far}");
    }

    #[test]
    fn classifies_feature_dataset() {
        let spec = FeatureSpec {
            num_classes: 5,
            width: 32,
            noise_std: 0.5,
            class_seed: 3,
        };
        let train = spec.generate(100, 0).unwrap();
        let test = spec.generate(50, 1).unwrap();
        let enc = IdLevelEncoder::new(4096, 32, 32, -4.0, 4.0, 7).unwrap();
        let h_train = enc.encode_batch(&train.features).unwrap();
        let h_test = enc.encode_batch(&test.features).unwrap();
        let mut model = HdModel::new(5, 4096).unwrap();
        model.one_shot_train(&h_train, &train.labels).unwrap();
        model.refine_epoch(&h_train, &train.labels).unwrap();
        let acc = model.accuracy(&h_test, &test.labels).unwrap();
        assert!(acc > 0.8, "id-level encoding accuracy {acc}");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(IdLevelEncoder::new(0, 4, 4, 0.0, 1.0, 0).is_err());
        assert!(IdLevelEncoder::new(64, 4, 1, 0.0, 1.0, 0).is_err());
        assert!(IdLevelEncoder::new(64, 4, 4, 1.0, 1.0, 0).is_err());
        let enc = encoder(64);
        assert!(enc.encode_batch(&Tensor::zeros(&[2, 5])).is_err());
        assert!(enc.level_vector(99).is_err());
    }
}
