//! The HD classifier: class prototypes, refinement, and federated
//! bundling (paper §3.4).

use fhdnn_tensor::linalg::matmul_nt_into;
use fhdnn_tensor::Tensor;

use crate::{HdcError, Result};

/// Samples a refine epoch scores per GEMM call. One packed panel of the
/// kernel: a block of samples is the packed operand whenever the model
/// has at least as many classes, and a misprediction re-scores at most
/// `REFINE_BLOCK - 1` later rows.
const REFINE_BLOCK: usize = 8;

/// Rows whose sum-of-squares chains [`norms_into`] keeps in flight.
const NORM_LANES: usize = 8;

/// Euclidean norms of `N` equally long rows. Each is the one chain
/// `sqrt(((-0.0 + x₀²) + x₁²) + …)` that
/// `row.iter().map(|x| x * x).sum::<f32>().sqrt()` computes; the `N`
/// chains advance side by side — parallel across rows, never within one —
/// so no result depends on `N`.
fn norms<const N: usize>(rows: [&[f32]; N]) -> [f32; N] {
    let d = rows.iter().map(|row| row.len()).min().unwrap_or(0);
    let rows = rows.map(|row| &row[..d]);
    let mut sums = [-0.0f32; N];
    for q in 0..d {
        for (sum, row) in sums.iter_mut().zip(rows) {
            // BOUNDS: every row was cut to `d` values above and `q < d`.
            let x = row[q];
            *sum += x * x;
        }
    }
    sums.map(f32::sqrt)
}

/// `out[i] = ‖rows[i]‖` for row-major `rows: [out.len(), d]`, `NORM_LANES`
/// rows at a time.
fn norms_into(rows: &[f32], d: usize, out: &mut [f32]) {
    for (group, norms_out) in rows.chunks(NORM_LANES * d).zip(out.chunks_mut(NORM_LANES)) {
        // A short last group repeats its first row and drops the spare
        // norms.
        let mut lanes = [&group[..d]; NORM_LANES];
        for (lane, row) in lanes.iter_mut().zip(group.chunks_exact(d)) {
            *lane = row;
        }
        norms_out.copy_from_slice(&norms(lanes)[..norms_out.len()]);
    }
}

/// Cosine similarity of one sample and one prototype from their dot
/// product and norms; a zero norm on either side scores `0.0`.
fn cosine(dot: f32, p_norm: f32, h_norm: f32) -> f32 {
    if p_norm == 0.0 || h_norm == 0.0 {
        0.0
    } else {
        dot / (p_norm * h_norm)
    }
}

/// A hyperdimensional classifier: one prototype hypervector per class.
///
/// The complete model `C = [c_1; …; c_K]` is exactly the object a FHDnn
/// client transmits each round; it stays integer-valued because training
/// only ever adds or subtracts bipolar (±1) sample hypervectors.
#[derive(Debug, Clone, PartialEq)]
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
        // First maximum under `>`: NaN similarities never win.
        self.refine_with(hypervectors, labels, |sims, label| {
            let mut best = (f32::NEG_INFINITY, 0usize);
            for (k, &sim) in sims.iter().enumerate() {
                if sim > best.0 {
                    best = (sim, k);
                }
            }
            (best.1 != label).then_some((best.1, 1.0, 1.0))
        })
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
        // Last maximum under the total order: a positive NaN wins.
        self.refine_with(hypervectors, labels, |sims, label| {
            let pred = sims
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(k, _)| k);
            // BOUNDS: `pred` indexes `sims` and `check_batch` bounded `label`.
            (pred != label).then(|| (pred, lr * (1.0 - sims[pred]), lr * (1.0 - sims[label])))
        })
    }

    /// The dense scorer: `dots[i][c] = rows[i] · c_c` against every
    /// prototype by one GEMM, and `row_norms[i] = ‖rows[i]‖` side by side,
    /// for row-major `rows: [row_norms.len(), dim]`.
    fn score(
        &self,
        rows: &[f32],
        dots: &mut [f32],
        row_norms: &mut [f32],
        panels: &mut Vec<f32>,
    ) -> Result<()> {
        matmul_nt_into(rows, self.prototypes.as_slice(), self.dim, dots, panels)?;
        norms_into(rows, self.dim, row_norms);
        Ok(())
    }

    /// The walk under both refine epochs. Visits the samples in order;
    /// `rule` sees a sample's cosine similarities to the current
    /// prototypes and its label and returns `None`, or `(pred, w_pred,
    /// w_true)` to apply `c_pred -= w_pred·h` and `c_label += w_true·h`.
    ///
    /// Samples are scored [`REFINE_BLOCK`] at a time. An update changes
    /// two prototypes, so only their two norms and their dots with the
    /// block's later rows are computed again: every similarity a sample
    /// is judged by is the one a per-sample loop over the updated model
    /// would compute, chain for chain. Allocates a fixed number of
    /// buffers per call.
    fn refine_with(
        &mut self,
        hypervectors: &Tensor,
        labels: &[usize],
        mut rule: impl FnMut(&[f32], usize) -> Option<(usize, f32, f32)>,
    ) -> Result<usize> {
        self.check_batch(hypervectors, labels)?;
        let (k, d) = (self.num_classes, self.dim);
        let mut scratch = vec![0.0f32; (2 + REFINE_BLOCK) * k];
        let (proto_norms, scratch) = scratch.split_at_mut(k);
        let (sims, dots) = scratch.split_at_mut(k);
        norms_into(self.prototypes.as_slice(), d, proto_norms);
        let mut row_norms = [0.0f32; REFINE_BLOCK];
        let mut column = [0.0f32; REFINE_BLOCK];
        let mut panels = Vec::new();
        let mut updates = 0;
        let blocks = hypervectors.as_slice().chunks(REFINE_BLOCK * d);
        for (rows, block_labels) in blocks.zip(labels.chunks(REFINE_BLOCK)) {
            let dots = &mut dots[..block_labels.len() * k];
            self.score(
                rows,
                dots,
                &mut row_norms[..block_labels.len()],
                &mut panels,
            )?;
            let mut later = rows;
            for (t, (&label, &h_norm)) in block_labels.iter().zip(&row_norms).enumerate() {
                let (h, rest) = later.split_at(d);
                later = rest;
                let (scored, later_dots) = dots.split_at_mut((t + 1) * k);
                let h_dots = &scored[t * k..];
                for ((sim, &dot), &p_norm) in sims.iter_mut().zip(h_dots).zip(proto_norms.iter()) {
                    *sim = cosine(dot, p_norm, h_norm);
                }
                let Some((pred, w_pred, w_true)) = rule(sims, label) else {
                    continue;
                };
                for (p, &v) in self.prototypes.row_mut(pred)?.iter_mut().zip(h) {
                    *p -= w_pred * v;
                }
                for (p, &v) in self.prototypes.row_mut(label)?.iter_mut().zip(h) {
                    *p += w_true * v;
                }
                updates += 1;
                let [pred_norm, label_norm] =
                    norms([self.prototypes.row(pred)?, self.prototypes.row(label)?]);
                for (class, norm) in [(pred, pred_norm), (label, label_norm)] {
                    // BOUNDS: `rule` names a class it was shown; `check_batch`
                    // bounded `label`.
                    proto_norms[class] = norm;
                    let fresh = &mut column[..later.len() / d];
                    matmul_nt_into(later, self.prototypes.row(class)?, d, fresh, &mut panels)?;
                    for (row_dots, &dot) in later_dots.chunks_exact_mut(k).zip(&*fresh) {
                        row_dots[class] = dot;
                    }
                }
            }
        }
        Ok(updates)
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
        let (m, k) = (hypervectors.dims()[0], self.num_classes);
        let (mut sims, mut h_norms) = (vec![0.0f32; m * k], vec![0.0f32; m]);
        self.score(
            hypervectors.as_slice(),
            &mut sims,
            &mut h_norms,
            &mut Vec::new(),
        )?;
        let mut proto_norms = vec![0.0f32; k];
        norms_into(self.prototypes.as_slice(), self.dim, &mut proto_norms);
        for (row, &h_norm) in sims.chunks_exact_mut(k).zip(&h_norms) {
            for (x, &pn) in row.iter_mut().zip(&proto_norms) {
                let denom = pn * h_norm;
                *x = if denom == 0.0 { 0.0 } else { *x / denom };
            }
        }
        Ok(Tensor::from_vec(sims, &[m, k])?)
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The per-sample loops the dense paths were before they were
    /// blocked, kept as the reference: every dot and every norm one
    /// sequential `.sum()`, all `K` prototype norms taken again for each
    /// sample.
    mod reference {
        use super::super::HdModel;
        use fhdnn_tensor::Tensor;

        fn norm(row: &[f32]) -> f32 {
            row.iter().map(|x| x * x).sum::<f32>().sqrt()
        }

        fn similarities_slice(model: &HdModel, h: &[f32]) -> Vec<f32> {
            let h_norm = norm(h);
            (0..model.num_classes)
                .map(|k| {
                    let proto = model.prototypes.row(k).unwrap();
                    let dot: f32 = proto.iter().zip(h).map(|(a, b)| a * b).sum();
                    let p_norm = norm(proto);
                    if p_norm == 0.0 || h_norm == 0.0 {
                        0.0
                    } else {
                        dot / (p_norm * h_norm)
                    }
                })
                .collect()
        }

        fn predict_slice(model: &HdModel, h: &[f32]) -> usize {
            let mut best = (f32::NEG_INFINITY, 0usize);
            for (k, sim) in similarities_slice(model, h).into_iter().enumerate() {
                if sim > best.0 {
                    best = (sim, k);
                }
            }
            best.1
        }

        /// For each sample in turn, the class after the one `refine_epoch`
        /// predicts on reaching it — given which it updates at every visit.
        pub fn wrong_labels(model: &HdModel, hypervectors: &Tensor) -> Vec<usize> {
            let mut model = model.clone();
            (0..hypervectors.dims()[0])
                .map(|i| {
                    let one =
                        Tensor::from_vec(hypervectors.row(i).unwrap().to_vec(), &[1, model.dim])
                            .unwrap();
                    let label = (predict_slice(&model, one.as_slice()) + 1) % model.num_classes;
                    assert_eq!(refine_epoch(&mut model, &one, &[label]), 1);
                    label
                })
                .collect()
        }

        pub fn refine_epoch(model: &mut HdModel, hypervectors: &Tensor, labels: &[usize]) -> usize {
            let mut updates = 0;
            for (i, &label) in labels.iter().enumerate() {
                let h = hypervectors.row(i).unwrap();
                let pred = predict_slice(model, h);
                if pred != label {
                    for (p, &v) in model.prototypes.row_mut(pred).unwrap().iter_mut().zip(h) {
                        *p -= v;
                    }
                    for (p, &v) in model.prototypes.row_mut(label).unwrap().iter_mut().zip(h) {
                        *p += v;
                    }
                    updates += 1;
                }
            }
            updates
        }

        pub fn refine_epoch_adaptive(
            model: &mut HdModel,
            hypervectors: &Tensor,
            labels: &[usize],
            lr: f32,
        ) -> usize {
            let mut updates = 0;
            for (i, &label) in labels.iter().enumerate() {
                let h = hypervectors.row(i).unwrap();
                let sims = similarities_slice(model, h);
                let pred = sims
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(k, _)| k)
                    .unwrap_or(0);
                if pred != label {
                    let w_true = lr * (1.0 - sims[label]);
                    let w_pred = lr * (1.0 - sims[pred]);
                    for (p, &v) in model.prototypes.row_mut(pred).unwrap().iter_mut().zip(h) {
                        *p -= w_pred * v;
                    }
                    for (p, &v) in model.prototypes.row_mut(label).unwrap().iter_mut().zip(h) {
                        *p += w_true * v;
                    }
                    updates += 1;
                }
            }
            updates
        }

        pub fn similarities(model: &HdModel, hypervectors: &Tensor) -> Vec<f32> {
            let proto_norms: Vec<f32> = (0..model.num_classes)
                .map(|k| norm(model.prototypes.row(k).unwrap()))
                .collect();
            let mut out = Vec::new();
            for i in 0..hypervectors.dims()[0] {
                let h = hypervectors.row(i).unwrap();
                let h_norm = norm(h);
                for (k, &pn) in proto_norms.iter().enumerate() {
                    let proto = model.prototypes.row(k).unwrap();
                    let dot: f32 = proto.iter().zip(h).map(|(a, b)| a * b).sum();
                    let denom = pn * h_norm;
                    out.push(if denom == 0.0 { 0.0 } else { dot / denom });
                }
            }
            out
        }
    }

    fn same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: value {at} is {g:e} ({:#010x}), the per-sample loop gives {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits(),
            );
        }
    }

    /// Two epochs of each refine rule and one `similarities`, on the
    /// dense paths and on the reference loops, from the same start.
    fn assert_matches_reference(start: &HdModel, h: &Tensor, labels: &[usize], what: &str) {
        let (mut plain, mut plain_ref) = (start.clone(), start.clone());
        let (mut adaptive, mut adaptive_ref) = (start.clone(), start.clone());
        for epoch in 0..2 {
            let what = format!("{what}, epoch {epoch}");
            let got = plain.refine_epoch(h, labels).unwrap();
            let want = reference::refine_epoch(&mut plain_ref, h, labels);
            assert_eq!(got, want, "{what}: refine_epoch update count");
            same_bits(
                plain.prototypes.as_slice(),
                plain_ref.prototypes.as_slice(),
                &format!("{what}: refine_epoch prototypes"),
            );
            let got = adaptive.refine_epoch_adaptive(h, labels, 0.37).unwrap();
            let want = reference::refine_epoch_adaptive(&mut adaptive_ref, h, labels, 0.37);
            assert_eq!(got, want, "{what}: refine_epoch_adaptive update count");
            same_bits(
                adaptive.prototypes.as_slice(),
                adaptive_ref.prototypes.as_slice(),
                &format!("{what}: refine_epoch_adaptive prototypes"),
            );
        }
        for model in [start, &plain, &adaptive] {
            same_bits(
                model.similarities(h).unwrap().as_slice(),
                &reference::similarities(model, h),
                &format!("{what}: similarities"),
            );
        }
    }

    /// Bipolar samples with non-uniform labels, so one-shot prototypes
    /// mispredict some of them.
    fn bipolar(m: usize, d: usize, k: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        let values = (0..m * d)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let labels = (0..m).map(|_| rng.gen_range(0..k)).collect();
        (Tensor::from_vec(values, &[m, d]).unwrap(), labels)
    }

    #[test]
    fn dense_paths_are_bit_identical_to_the_per_sample_loops_at_every_block_edge() {
        let block = REFINE_BLOCK;
        let mut rng = StdRng::seed_from_u64(14);
        for d in [1, 63, 64, 65, 4096] {
            for k in [1, 2, 10, 26] {
                for m in [0, 1, block - 1, block, block + 1, 3 * block + 1] {
                    let (h, labels) = bipolar(m, d, k, &mut rng);
                    let what = format!("m={m} k={k} d={d}");
                    // All-zero model: every norm guard fires, class 0 wins.
                    let zero = HdModel::new(k, d).unwrap();
                    assert_matches_reference(&zero, &h, &labels, &format!("{what} zero model"));
                    // One-shot on other data: integer prototypes, some
                    // samples mispredicted.
                    let mut trained = zero.clone();
                    let (other, other_labels) = bipolar(2 * k, d, k, &mut rng);
                    trained.one_shot_train(&other, &other_labels).unwrap();
                    assert_matches_reference(&trained, &h, &labels, &format!("{what} one-shot"));
                    // Averaged, as after bundling or dequantizing.
                    trained.scale(1.0 / 3.0);
                    assert_matches_reference(&trained, &h, &labels, &format!("{what} scaled"));
                }
            }
        }
    }

    #[test]
    fn dense_paths_are_bit_identical_on_damaged_and_degenerate_inputs() {
        let (k, d, m) = (10, 65, 3 * REFINE_BLOCK + 1);
        let mut rng = StdRng::seed_from_u64(15);
        let (mut h, labels) = bipolar(m, d, k, &mut rng);
        let mut model = HdModel::new(k, d).unwrap();
        let (other, other_labels) = bipolar(4 * k, d, k, &mut rng);
        model.one_shot_train(&other, &other_labels).unwrap();
        // All-zero samples, early and late in a block.
        for row in [1, REFINE_BLOCK + 2] {
            h.row_mut(row).unwrap().fill(0.0);
        }
        assert_matches_reference(&model, &h, &labels, "zero samples");
        // Exact ties: classes 2, 3 and 7 share one prototype.
        let shared = model.prototypes.row(2).unwrap().to_vec();
        for class in [3, 7] {
            model
                .prototypes
                .row_mut(class)
                .unwrap()
                .copy_from_slice(&shared);
        }
        assert_matches_reference(&model, &h, &labels, "tied prototypes");
        // What bit errors on the float transport leave behind.
        for (class, at, damage) in [
            (4, 5, f32::NAN),
            (5, 0, f32::INFINITY),
            (5, 9, f32::NEG_INFINITY),
            (6, 64, 3.0e38),
            (8, 1, 1.0e-41),
        ] {
            model.prototypes.row_mut(class).unwrap()[at] = damage;
            assert_matches_reference(&model, &h, &labels, &format!("damage {damage:e}"));
        }
    }

    #[test]
    fn dense_refine_is_bit_identical_when_every_visit_mispredicts() {
        for (k, d) in [(2, 64), (10, 4096), (26, 65)] {
            let m = 3 * REFINE_BLOCK + 1;
            let mut rng = StdRng::seed_from_u64(16);
            let (h, own) = bipolar(m, d, k, &mut rng);
            let mut model = HdModel::new(k, d).unwrap();
            model.one_shot_train(&h, &own).unwrap();
            // Label each sample with the class after the one the loop
            // predicts when it gets there: every visit updates and every
            // in-block re-score runs.
            let labels = reference::wrong_labels(&model, &h);
            let mut churned = model.clone();
            assert_eq!(churned.refine_epoch(&h, &labels).unwrap(), m);
            assert_matches_reference(&model, &h, &labels, &format!("churn k={k} d={d}"));
        }
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
}
