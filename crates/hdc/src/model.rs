//! The HD classifier: class prototypes, refinement, and federated
//! bundling (paper §3.4).

use fhdnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{HdcError, Result};

/// A hyperdimensional classifier: one prototype hypervector per class.
///
/// The complete model `C = [c_1; …; c_K]` is exactly the object a FHDnn
/// client transmits each round; it stays integer-valued because training
/// only ever adds or subtracts bipolar (±1) sample hypervectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HdModel {
    /// Class prototypes, `[num_classes, dim]`.
    prototypes: Tensor,
    num_classes: usize,
    dim: usize,
}

impl HdModel {
    /// Creates an untrained (all-zero) model.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if either dimension is zero.
    pub fn new(num_classes: usize, dim: usize) -> Result<Self> {
        if num_classes == 0 || dim == 0 {
            return Err(HdcError::InvalidArgument(
                "model dimensions must be positive".into(),
            ));
        }
        Ok(HdModel {
            prototypes: Tensor::zeros(&[num_classes, dim]),
            num_classes,
            dim,
        })
    }

    /// Builds a model from an existing prototype matrix `[k, d]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `prototypes` is not rank 2.
    pub fn from_prototypes(prototypes: Tensor) -> Result<Self> {
        if prototypes.shape().rank() != 2 {
            return Err(HdcError::InvalidArgument(format!(
                "prototypes must be [classes, dim], got {:?}",
                prototypes.dims()
            )));
        }
        let (num_classes, dim) = (prototypes.dims()[0], prototypes.dims()[1]);
        if num_classes == 0 || dim == 0 {
            return Err(HdcError::InvalidArgument(
                "model dimensions must be positive".into(),
            ));
        }
        Ok(HdModel {
            prototypes,
            num_classes,
            dim,
        })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The prototype matrix `[num_classes, dim]`.
    pub fn prototypes(&self) -> &Tensor {
        &self.prototypes
    }

    /// Mutable access to the prototype matrix — used by channel models to
    /// corrupt a model in transit.
    pub fn prototypes_mut(&mut self) -> &mut Tensor {
        &mut self.prototypes
    }

    /// Number of scalar parameters (`num_classes * dim`) — the model's
    /// update size in communication accounting.
    pub fn num_params(&self) -> usize {
        self.prototypes.len()
    }

    fn check_batch(&self, hypervectors: &Tensor, labels: &[usize]) -> Result<()> {
        if hypervectors.shape().rank() != 2 || hypervectors.dims()[1] != self.dim {
            return Err(HdcError::InvalidArgument(format!(
                "expected [m, {}] hypervectors, got {:?}",
                self.dim,
                hypervectors.dims()
            )));
        }
        if hypervectors.dims()[0] != labels.len() {
            return Err(HdcError::InvalidArgument(format!(
                "{} hypervectors vs {} labels",
                hypervectors.dims()[0],
                labels.len()
            )));
        }
        for &l in labels {
            if l >= self.num_classes {
                return Err(HdcError::LabelOutOfRange {
                    label: l,
                    num_classes: self.num_classes,
                });
            }
        }
        Ok(())
    }

    /// One-shot training: bundles each sample hypervector into its class
    /// prototype, `c_k += Σ h_i^k` (paper §3.4.1).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or out-of-range labels.
    pub fn one_shot_train(&mut self, hypervectors: &Tensor, labels: &[usize]) -> Result<()> {
        self.check_batch(hypervectors, labels)?;
        for (i, &label) in labels.iter().enumerate() {
            let h = hypervectors.row(i)?;
            let proto = self.prototypes.row_mut(label)?;
            for (p, &v) in proto.iter_mut().zip(h) {
                *p += v;
            }
        }
        Ok(())
    }

    /// One epoch of iterative refinement: for each mispredicted sample,
    /// subtracts its hypervector from the wrongly-predicted prototype and
    /// adds it to the correct one (paper §3.4.1). Returns the number of
    /// updates performed (0 means the epoch was already fully correct).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or out-of-range labels.
    pub fn refine_epoch(&mut self, hypervectors: &Tensor, labels: &[usize]) -> Result<usize> {
        self.check_batch(hypervectors, labels)?;
        let mut updates = 0;
        for (i, &label) in labels.iter().enumerate() {
            let h = hypervectors.row(i)?;
            let pred = self.predict_slice(h)?;
            if pred != label {
                {
                    let wrong = self.prototypes.row_mut(pred)?;
                    for (p, &v) in wrong.iter_mut().zip(h) {
                        *p -= v;
                    }
                }
                let right = self.prototypes.row_mut(label)?;
                for (p, &v) in right.iter_mut().zip(h) {
                    *p += v;
                }
                updates += 1;
            }
        }
        Ok(updates)
    }

    /// One epoch of *adaptive* refinement (OnlineHD-style): mispredicted
    /// samples update prototypes with a magnitude proportional to how
    /// confidently wrong the model was — `c_true += lr·(1 − δ_true)·h` and
    /// `c_pred −= lr·(1 − δ_pred)·h`, where `δ` are cosine similarities.
    ///
    /// Compared to the paper's unit-step refinement this converges in
    /// fewer epochs on hard data at the cost of non-integer prototypes
    /// (the AGC quantizer handles those transparently). Returns the number
    /// of updates performed.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, out-of-range labels, or a
    /// non-positive learning rate.
    pub fn refine_epoch_adaptive(
        &mut self,
        hypervectors: &Tensor,
        labels: &[usize],
        lr: f32,
    ) -> Result<usize> {
        if lr <= 0.0 || lr.is_nan() {
            return Err(HdcError::InvalidArgument(format!(
                "learning rate must be positive, got {lr}"
            )));
        }
        self.check_batch(hypervectors, labels)?;
        let mut updates = 0;
        for (i, &label) in labels.iter().enumerate() {
            let h = hypervectors.row(i)?;
            let sims = self.similarities_slice(h)?;
            let pred = sims
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, _)| k)
                .unwrap_or(0);
            if pred != label {
                let w_true = lr * (1.0 - sims[label]);
                let w_pred = lr * (1.0 - sims[pred]);
                {
                    let wrong = self.prototypes.row_mut(pred)?;
                    for (p, &v) in wrong.iter_mut().zip(h) {
                        *p -= w_pred * v;
                    }
                }
                let right = self.prototypes.row_mut(label)?;
                for (p, &v) in right.iter_mut().zip(h) {
                    *p += w_true * v;
                }
                updates += 1;
            }
        }
        Ok(updates)
    }

    fn similarities_slice(&self, h: &[f32]) -> Result<Vec<f32>> {
        let h_norm = h.iter().map(|x| x * x).sum::<f32>().sqrt();
        (0..self.num_classes)
            .map(|k| {
                let proto = self.prototypes.row(k)?;
                let dot: f32 = proto.iter().zip(h).map(|(a, b)| a * b).sum();
                let p_norm = proto.iter().map(|x| x * x).sum::<f32>().sqrt();
                Ok(if p_norm == 0.0 || h_norm == 0.0 {
                    0.0
                } else {
                    dot / (p_norm * h_norm)
                })
            })
            .collect()
    }

    fn predict_slice(&self, h: &[f32]) -> Result<usize> {
        let mut best = (f32::NEG_INFINITY, 0usize);
        let h_norm = h.iter().map(|x| x * x).sum::<f32>().sqrt();
        for k in 0..self.num_classes {
            let proto = self.prototypes.row(k)?;
            let dot: f32 = proto.iter().zip(h).map(|(a, b)| a * b).sum();
            let p_norm = proto.iter().map(|x| x * x).sum::<f32>().sqrt();
            let sim = if p_norm == 0.0 || h_norm == 0.0 {
                0.0
            } else {
                dot / (p_norm * h_norm)
            };
            if sim > best.0 {
                best = (sim, k);
            }
        }
        Ok(best.1)
    }

    /// Cosine similarities between a batch of hypervectors `[m, d]` and all
    /// prototypes, returned as `[m, num_classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn similarities(&self, hypervectors: &Tensor) -> Result<Tensor> {
        if hypervectors.shape().rank() != 2 || hypervectors.dims()[1] != self.dim {
            return Err(HdcError::InvalidArgument(format!(
                "expected [m, {}] hypervectors, got {:?}",
                self.dim,
                hypervectors.dims()
            )));
        }
        let mut dots = hypervectors.matmul_nt(&self.prototypes)?;
        let proto_norms: Vec<f32> = (0..self.num_classes)
            .map(|k| {
                self.prototypes
                    .row(k)
                    .map(|r| r.iter().map(|x| x * x).sum::<f32>().sqrt())
            })
            .collect::<std::result::Result<_, _>>()?;
        let m = hypervectors.dims()[0];
        for i in 0..m {
            let h_norm = hypervectors
                .row(i)?
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
                .sqrt();
            let row = dots.row_mut(i)?;
            for (x, &pn) in row.iter_mut().zip(&proto_norms) {
                let denom = pn * h_norm;
                *x = if denom == 0.0 { 0.0 } else { *x / denom };
            }
        }
        Ok(dots)
    }

    /// Predicted class of each hypervector in a `[m, d]` batch.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn predict_batch(&self, hypervectors: &Tensor) -> Result<Vec<usize>> {
        self.similarities(hypervectors)?
            .argmax_rows()
            .map_err(Into::into)
    }

    /// Classification accuracy of the model on a labeled batch.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn accuracy(&self, hypervectors: &Tensor, labels: &[usize]) -> Result<f32> {
        let preds = self.predict_batch(hypervectors)?;
        if preds.len() != labels.len() {
            return Err(HdcError::InvalidArgument(format!(
                "{} predictions vs {} labels",
                preds.len(),
                labels.len()
            )));
        }
        if labels.is_empty() {
            return Ok(0.0);
        }
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f32 / labels.len() as f32)
    }

    /// Federated bundling (paper Eq. 1): element-wise sum of client models
    /// into a fresh global model.
    ///
    /// # Errors
    ///
    /// Returns an error if `models` is empty or shapes disagree.
    pub fn bundle(models: &[HdModel]) -> Result<HdModel> {
        let first = models
            .first()
            .ok_or_else(|| HdcError::InvalidArgument("bundle of zero models".into()))?;
        let mut sum = first.prototypes.clone();
        for m in &models[1..] {
            if m.num_classes != first.num_classes || m.dim != first.dim {
                return Err(HdcError::InvalidArgument(format!(
                    "cannot bundle [{}, {}] with [{}, {}]",
                    m.num_classes, m.dim, first.num_classes, first.dim
                )));
            }
            sum.add_assign(&m.prototypes)?;
        }
        HdModel::from_prototypes(sum)
    }

    /// Scales every prototype entry (used to average rather than sum, and
    /// by the channel simulators).
    pub fn scale(&mut self, s: f32) {
        self.prototypes.scale_assign(s);
    }

    /// Binarizes the model to bipolar symbols for 1-bit-per-dimension
    /// transmission: `+1` for non-negative entries, `-1` otherwise
    /// (matching the paper's `sign(0) = +1` convention).
    pub fn to_bipolar(&self) -> Vec<i8> {
        self.prototypes
            .as_slice()
            .iter()
            .map(|&v| if v >= 0.0 { 1i8 } else { -1 })
            .collect()
    }

    /// Reconstructs a model from received bipolar symbols (`0` denotes an
    /// erased dimension, neutral under cosine-similarity inference).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidArgument`] if the symbol count is not
    /// `num_classes * dim`.
    pub fn from_bipolar(symbols: &[i8], num_classes: usize, dim: usize) -> Result<Self> {
        if symbols.len() != num_classes * dim {
            return Err(HdcError::InvalidArgument(format!(
                "{} symbols for a [{num_classes}, {dim}] model",
                symbols.len()
            )));
        }
        let data: Vec<f32> = symbols.iter().map(|&s| s as f32).collect();
        HdModel::from_prototypes(Tensor::from_vec(data, &[num_classes, dim])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::RandomProjectionEncoder;
    use fhdnn_datasets::features::FeatureSpec;

    fn toy_encoded(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let spec = FeatureSpec {
            num_classes: 4,
            width: 32,
            noise_std: 0.5,
            class_seed: 99,
        };
        let data = spec.generate(n, seed).unwrap();
        let enc = RandomProjectionEncoder::new(2048, 32, 7).unwrap();
        let h = enc.encode_batch(&data.features).unwrap();
        (h, data.labels)
    }

    #[test]
    fn one_shot_learns_separable_classes() {
        let (h, labels) = toy_encoded(80, 0);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        let (ht, lt) = toy_encoded(40, 1);
        let acc = model.accuracy(&ht, &lt).unwrap();
        assert!(acc > 0.9, "one-shot accuracy {acc}");
    }

    #[test]
    fn refinement_does_not_hurt_training_accuracy() {
        let (h, labels) = toy_encoded(80, 2);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        let before = model.accuracy(&h, &labels).unwrap();
        for _ in 0..3 {
            model.refine_epoch(&h, &labels).unwrap();
        }
        let after = model.accuracy(&h, &labels).unwrap();
        assert!(after >= before - 1e-6, "refine {before} -> {after}");
    }

    #[test]
    fn refine_returns_zero_when_converged() {
        let (h, labels) = toy_encoded(40, 3);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        for _ in 0..20 {
            if model.refine_epoch(&h, &labels).unwrap() == 0 {
                return;
            }
        }
        panic!("refinement did not converge on separable data");
    }

    #[test]
    fn prototypes_stay_integer_valued() {
        // Bipolar bundling and refinement only ever add/subtract ±1.
        let (h, labels) = toy_encoded(60, 4);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        model.refine_epoch(&h, &labels).unwrap();
        assert!(model
            .prototypes()
            .as_slice()
            .iter()
            .all(|v| v.fract() == 0.0));
    }

    #[test]
    fn bundling_sums_prototypes() {
        let mut a = HdModel::new(2, 4).unwrap();
        let mut b = HdModel::new(2, 4).unwrap();
        a.prototypes_mut().as_mut_slice()[0] = 1.0;
        b.prototypes_mut().as_mut_slice()[0] = 2.0;
        let g = HdModel::bundle(&[a, b]).unwrap();
        assert_eq!(g.prototypes().as_slice()[0], 3.0);
    }

    #[test]
    fn bundle_rejects_mismatched_models() {
        let a = HdModel::new(2, 4).unwrap();
        let b = HdModel::new(3, 4).unwrap();
        assert!(HdModel::bundle(&[a, b]).is_err());
        assert!(HdModel::bundle(&[]).is_err());
    }

    #[test]
    fn label_out_of_range_rejected() {
        let mut model = HdModel::new(2, 8).unwrap();
        let h = Tensor::ones(&[1, 8]);
        assert!(matches!(
            model.one_shot_train(&h, &[5]),
            Err(HdcError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn similarities_bounded_by_one() {
        let (h, labels) = toy_encoded(20, 5);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        let sims = model.similarities(&h).unwrap();
        assert!(sims.as_slice().iter().all(|&s| (-1.0..=1.0).contains(&s)));
    }

    #[test]
    fn untrained_model_predicts_without_panicking() {
        let model = HdModel::new(3, 16).unwrap();
        let preds = model.predict_batch(&Tensor::ones(&[2, 16])).unwrap();
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn adaptive_refinement_converges_at_least_as_fast() {
        // On hard data, confidence-weighted updates should need no more
        // epochs than unit steps to stop making mistakes.
        let spec = fhdnn_datasets::features::FeatureSpec {
            num_classes: 4,
            width: 32,
            noise_std: 2.0,
            class_seed: 99,
        };
        let data = spec.generate(120, 0).unwrap();
        let enc = crate::encoder::RandomProjectionEncoder::new(2048, 32, 7).unwrap();
        let h = enc.encode_batch(&data.features).unwrap();
        let epochs_to_converge = |adaptive: bool| -> usize {
            let mut m = HdModel::new(4, 2048).unwrap();
            m.one_shot_train(&h, &data.labels).unwrap();
            for e in 1..=20 {
                let updates = if adaptive {
                    m.refine_epoch_adaptive(&h, &data.labels, 1.0).unwrap()
                } else {
                    m.refine_epoch(&h, &data.labels).unwrap()
                };
                if updates == 0 {
                    return e;
                }
            }
            21
        };
        assert!(epochs_to_converge(true) <= epochs_to_converge(false) + 1);
    }

    #[test]
    fn adaptive_refinement_validates_lr() {
        let mut m = HdModel::new(2, 8).unwrap();
        let h = Tensor::ones(&[1, 8]);
        assert!(m.refine_epoch_adaptive(&h, &[0], 0.0).is_err());
        assert!(m.refine_epoch_adaptive(&h, &[0], -1.0).is_err());
        assert!(m.refine_epoch_adaptive(&h, &[0], 0.5).is_ok());
    }

    #[test]
    fn bipolar_roundtrip_preserves_predictions() {
        let (h, labels) = toy_encoded(40, 7);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        let syms = model.to_bipolar();
        let binary = HdModel::from_bipolar(&syms, 4, 2048).unwrap();
        // Binarization keeps the dominant signs; accuracy should be close.
        let full = model.accuracy(&h, &labels).unwrap();
        let bin = binary.accuracy(&h, &labels).unwrap();
        assert!(bin > full - 0.1, "binary {bin} vs full {full}");
    }

    #[test]
    fn from_bipolar_validates_length() {
        assert!(HdModel::from_bipolar(&[1, -1], 2, 2).is_err());
        let m = HdModel::from_bipolar(&[1, -1, 0, 1], 2, 2).unwrap();
        assert_eq!(m.prototypes().as_slice(), &[1.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let (h, labels) = toy_encoded(20, 6);
        let mut model = HdModel::new(4, 2048).unwrap();
        model.one_shot_train(&h, &labels).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: HdModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }
}
