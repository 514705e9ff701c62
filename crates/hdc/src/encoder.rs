//! Random-projection hyperdimensional encoding (paper §3.3).
//!
//! Features `z ∈ R^n` are embedded as `φ(z) = sign(Φ z)` where the rows of
//! `Φ ∈ R^{d×n}` are random directions on the unit sphere. The module also
//! provides the paper's Eq. 5 linear reconstruction, which recovers `z`
//! from a (possibly noise-corrupted) projection by averaging over the `d`
//! hyperdimensions — the mechanism behind Figure 4's noise-robustness demo.

use fhdnn_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{HdcError, Result};

/// Encoder mapping `n`-wide features into `d`-dimensional hypervectors.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomProjectionEncoder {
    /// Projection matrix `Φ`, `[d, n]`, rows on the unit sphere.
    phi: Tensor,
    dim: usize,
    feature_width: usize,
}

impl RandomProjectionEncoder {
    /// Creates an encoder with hypervector dimension `dim` over features of
    /// width `feature_width`, deterministically from `seed`.
    ///
    /// Every federated participant constructs the same `Φ` from a shared
    /// seed, which is how the paper's clients agree on the encoding without
    /// ever transmitting it.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if either dimension is zero.
    pub fn new(dim: usize, feature_width: usize, seed: u64) -> Result<Self> {
        if dim == 0 || feature_width == 0 {
            return Err(HdcError::InvalidArgument(
                "encoder dimensions must be positive".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let phi = init::unit_sphere_rows(dim, feature_width, &mut rng);
        Ok(RandomProjectionEncoder {
            phi,
            dim,
            feature_width,
        })
    }

    /// Builds an encoder from an explicit projection matrix `[d, n]`
    /// (e.g. when restoring from a checkpoint). No normalization is
    /// applied: the matrix is used exactly as given.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if `phi` is not a non-empty
    /// rank-2 tensor.
    pub fn from_matrix(phi: Tensor) -> Result<Self> {
        if phi.shape().rank() != 2 || phi.is_empty() {
            return Err(HdcError::InvalidArgument(format!(
                "projection matrix must be non-empty [d, n], got {:?}",
                phi.dims()
            )));
        }
        let (dim, feature_width) = (phi.dims()[0], phi.dims()[1]);
        Ok(RandomProjectionEncoder {
            phi,
            dim,
            feature_width,
        })
    }

    /// The projection matrix `Φ`, `[d, n]`.
    pub fn phi(&self) -> &Tensor {
        &self.phi
    }

    /// Hypervector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Input feature width `n`.
    pub fn feature_width(&self) -> usize {
        self.feature_width
    }

    /// The raw (pre-sign) projection `Φ z` of a feature batch `[m, n]`,
    /// returned as `[m, d]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` is not `[m, n]`.
    pub fn project_batch(&self, features: &Tensor) -> Result<Tensor> {
        if features.shape().rank() != 2 || features.dims()[1] != self.feature_width {
            return Err(HdcError::InvalidArgument(format!(
                "expected [m, {}] features, got {:?}",
                self.feature_width,
                features.dims()
            )));
        }
        features.matmul_nt(&self.phi).map_err(Into::into)
    }

    /// Bipolar encoding `sign(Φ z)` of a feature batch `[m, n]` → `[m, d]`
    /// with entries in `{-1, +1}`.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` is not `[m, n]`.
    pub fn encode_batch(&self, features: &Tensor) -> Result<Tensor> {
        let mut encoded = self.project_batch(features)?;
        sign_pm1_in_place(&mut encoded);
        Ok(encoded)
    }

    /// [`RandomProjectionEncoder::encode_batch`] with telemetry: wraps the
    /// projection in an `hdc.encode` span and counts the produced
    /// hypervectors on `hdc.encoded_vectors`.
    ///
    /// # Errors
    ///
    /// Same as [`RandomProjectionEncoder::encode_batch`].
    pub fn encode_batch_instrumented(
        &self,
        features: &Tensor,
        tel: &fhdnn_telemetry::Recorder,
    ) -> Result<Tensor> {
        let _span = tel.span("hdc.encode");
        let mut encoded = {
            let _span = tel.span("hdc.project");
            self.project_batch(features)?
        };
        {
            let _span = tel.span("hdc.sign");
            sign_pm1_in_place(&mut encoded);
        }
        tel.incr("hdc.encoded_vectors", encoded.dims()[0] as u64);
        Ok(encoded)
    }

    /// Encodes a single feature vector `[n]` → `[d]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `features` is not `[n]`.
    pub fn encode(&self, features: &Tensor) -> Result<Tensor> {
        if features.shape().rank() != 1 {
            return Err(HdcError::InvalidArgument(format!(
                "expected [n] feature vector, got {:?}",
                features.dims()
            )));
        }
        let batch = features.reshape(&[1, features.len()])?;
        let h = self.encode_batch(&batch)?;
        h.reshape(&[self.dim]).map_err(Into::into)
    }

    /// Eq. 5 reconstruction: recovers the encoded information from a
    /// (noisy) raw projection `h̃ = Φ z + n` by
    /// `ẑ_j = (n/d) Σ_i Φ_{i,j} h̃_i`.
    ///
    /// Because the rows of `Φ` are unit vectors, `Φ^T Φ ≈ (d/n) I`, so the
    /// `n/d` factor restores the original scale. Per-dimension noise is
    /// suppressed by the averaging — the paper's information-dispersal
    /// argument (§3.5.1).
    ///
    /// # Errors
    ///
    /// Returns an error if `hypervector` is not `[d]`.
    pub fn reconstruct(&self, hypervector: &Tensor) -> Result<Tensor> {
        if hypervector.shape().rank() != 1 || hypervector.len() != self.dim {
            return Err(HdcError::InvalidArgument(format!(
                "expected [{}] hypervector, got {:?}",
                self.dim,
                hypervector.dims()
            )));
        }
        let h = hypervector.reshape(&[1, self.dim])?;
        let x = h.matmul(&self.phi)?; // [1, n] = h^T Φ
        let scale = self.feature_width as f32 / self.dim as f32;
        x.reshape(&[self.feature_width])
            .map(|t| t.scale(scale))
            .map_err(Into::into)
    }
}

/// [`Tensor::sign_pm1`] without the second `[m, d]` tensor.
fn sign_pm1_in_place(projection: &mut Tensor) {
    projection.map_assign(|x| if x >= 0.0 { 1.0 } else { -1.0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_by_seed() {
        let a = RandomProjectionEncoder::new(256, 8, 1).unwrap();
        let b = RandomProjectionEncoder::new(256, 8, 1).unwrap();
        let c = RandomProjectionEncoder::new(256, 8, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn encode_is_bipolar() {
        let enc = RandomProjectionEncoder::new(128, 4, 0).unwrap();
        let z = Tensor::from_vec(vec![0.3, -0.1, 0.9, 0.0], &[1, 4]).unwrap();
        let h = enc.encode_batch(&z).unwrap();
        assert!(h.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
    }

    #[test]
    fn instrumented_encode_matches_and_counts() {
        let enc = RandomProjectionEncoder::new(128, 4, 0).unwrap();
        let z = Tensor::from_vec(vec![0.3, -0.1, 0.9, 0.0, 1.0, 2.0, -3.0, 0.5], &[2, 4]).unwrap();
        let tel = fhdnn_telemetry::Recorder::in_memory();
        let h = enc.encode_batch_instrumented(&z, &tel).unwrap();
        assert_eq!(h.as_slice(), enc.encode_batch(&z).unwrap().as_slice());
        assert_eq!(tel.counter_value("hdc.encoded_vectors"), 2);
        assert_eq!(tel.span_stat("hdc.encode").count, 1);
    }

    #[test]
    fn wide_encode_is_the_sign_of_the_sequential_projection() {
        // The paper's d = 10 000 over ISOLET's 617 features. Nine samples
        // make one full panel of the blocked matmul and one single row.
        let enc = RandomProjectionEncoder::new(10_000, 617, 11).unwrap();
        let z = Tensor::randn(&[9, 617], 1.0, &mut StdRng::seed_from_u64(12));
        let projected = enc.project_batch(&z).unwrap();
        let encoded = enc.encode_batch(&z).unwrap();
        for i in 0..9 {
            let sample = z.row(i).unwrap();
            for j in 0..10_000 {
                let direction = enc.phi().row(j).unwrap();
                let dot: f32 = sample.iter().zip(direction).map(|(x, y)| x * y).sum();
                let at = i * 10_000 + j;
                assert_eq!(
                    projected.as_slice()[at].to_bits(),
                    dot.to_bits(),
                    "[{i}, {j}]"
                );
                let sign = if dot >= 0.0 { 1.0 } else { -1.0 };
                assert_eq!(encoded.as_slice()[at], sign, "[{i}, {j}]");
            }
        }
    }

    #[test]
    fn encode_single_matches_batch() {
        let enc = RandomProjectionEncoder::new(64, 4, 3).unwrap();
        let z = Tensor::from_vec(vec![1.0, -2.0, 0.5, 0.1], &[4]).unwrap();
        let single = enc.encode(&z).unwrap();
        let batch = enc.encode_batch(&z.reshape(&[1, 4]).unwrap()).unwrap();
        assert_eq!(single.as_slice(), batch.as_slice());
    }

    #[test]
    fn reconstruction_recovers_input() {
        // With d >> n, (n/d) Φ^T Φ z ≈ z.
        let enc = RandomProjectionEncoder::new(8192, 16, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let z =
            Tensor::from_vec((0..16).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[16]).unwrap();
        let proj = enc.project_batch(&z.reshape(&[1, 16]).unwrap()).unwrap();
        let recon = enc.reconstruct(&proj.reshape(&[8192]).unwrap()).unwrap();
        let err = recon.mse(&z).unwrap();
        let signal = z.norm_sq() / 16.0;
        assert!(err < signal * 0.05, "mse {err} vs signal power {signal}");
    }

    #[test]
    fn reconstruction_suppresses_hd_noise() {
        // Adding unit-variance noise in HD space must barely affect the
        // reconstruction — the Figure 4 phenomenon.
        let enc = RandomProjectionEncoder::new(8192, 16, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let z =
            Tensor::from_vec((0..16).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[16]).unwrap();
        let proj = enc
            .project_batch(&z.reshape(&[1, 16]).unwrap())
            .unwrap()
            .reshape(&[8192])
            .unwrap();
        let noise = Tensor::randn(&[8192], 1.0, &mut rng);
        let noisy = proj.add(&noise).unwrap();
        let recon = enc.reconstruct(&noisy).unwrap();
        let err = recon.mse(&z).unwrap();
        let signal = z.norm_sq() / 16.0;
        assert!(err < signal * 0.1, "mse {err} vs signal power {signal}");
    }

    #[test]
    fn from_matrix_roundtrips() {
        let enc = RandomProjectionEncoder::new(64, 8, 9).unwrap();
        let rebuilt = RandomProjectionEncoder::from_matrix(enc.phi().clone()).unwrap();
        assert_eq!(rebuilt, enc);
        assert!(RandomProjectionEncoder::from_matrix(Tensor::zeros(&[4])).is_err());
        assert!(RandomProjectionEncoder::from_matrix(Tensor::zeros(&[0, 4])).is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        let enc = RandomProjectionEncoder::new(32, 4, 0).unwrap();
        assert!(enc.encode_batch(&Tensor::zeros(&[2, 5])).is_err());
        assert!(enc.encode(&Tensor::zeros(&[2, 4])).is_err());
        assert!(enc.reconstruct(&Tensor::zeros(&[16])).is_err());
        assert!(RandomProjectionEncoder::new(0, 4, 0).is_err());
    }
}
