//! Bit-packed bipolar hypervectors and the integer HD kernels on top.
//!
//! FHDnn's learner operates on bipolar (±1) hypervectors: `sign(Φz)`
//! encodings bundled into integer-valued class prototypes (§3.3). A
//! bipolar vector carries one bit of information per dimension, so the
//! natural machine representation is one *bit* per dimension: 64
//! dimensions per `u64` word, `bit = 1 ⇔ value ≥ 0` (the same
//! `sign(0) = +1` convention as [`Tensor::sign_pm1`] and
//! [`crate::model::HdModel::to_bipolar`]). Dot products between two
//! packed bipolar vectors collapse to popcounts:
//!
//! ```text
//! dot(a, b) = dim − 2 · hamming(a, b) = dim − 2 · popcount(a ⊕ b)
//! ```
//!
//! which is where the speedups in `BENCH_kernels.json` come from — a
//! cacheline of packed words covers 512 dimensions.
//!
//! The module deliberately ships **two** implementations of the same
//! binary-HD algorithm:
//!
//! - [`PackedHdModel`] — the fast path: packed encodings, `i32`
//!   prototype accumulators updated in chunks, popcount similarity
//!   against sign-packed prototypes;
//! - [`mod@reference`] — a naive element-wise `i32` path with no packing
//!   and no chunking.
//!
//! `tests/parity.rs` holds them to *exact* agreement (sums, argmaxes and
//! refinement trajectories, not tolerances) across dimensions, class
//! counts and seeds; the packed path is only trusted because the dumb
//! path shadows it.

use fhdnn_tensor::Tensor;

use crate::error::HdcError;
use crate::Result;

/// Bits per packing word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `dim` packed dimensions.
#[must_use]
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Packs a slice of sign values into `u64` words, one bit per element
/// (`bit = 1 ⇔ value ≥ 0`). Pad bits beyond `values.len()` are zero —
/// an invariant every popcount kernel in this module relies on.
#[must_use]
pub fn pack_signs(values: &[f32]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(values.len())];
    crate::simd::pack_f32_into(values, &mut words);
    words
}

/// [`pack_signs`] into a caller-provided buffer of exactly
/// `words_for(values.len())` words — the zero-allocation variant the
/// hot paths and the allocation-regression suite lean on. Clears `out`
/// first, so pad bits stay zero.
pub fn pack_signs_into(values: &[f32], out: &mut [u64]) {
    debug_assert_eq!(out.len(), words_for(values.len()));
    crate::simd::pack_f32_into(values, out);
}

/// [`pack_signs`] for integer inputs (`bit = 1 ⇔ value ≥ 0`).
#[must_use]
pub fn pack_signs_i32(values: &[i32]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(values.len())];
    crate::simd::pack_i32_into(values, &mut words);
    words
}

/// Hamming distance between two packed bipolar vectors of `dim`
/// dimensions. Pad bits are zero in both operands, so they never
/// contribute.
#[must_use]
pub fn hamming(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    crate::simd::hamming(a, b)
}

/// Dot product of two packed ±1 vectors of `dim` dimensions:
/// `dim − 2·hamming`. Exact — every term is ±1 and the sum is integer.
#[must_use]
pub fn dot_packed(a: &[u64], b: &[u64], dim: usize) -> i64 {
    dim as i64 - 2 * hamming(a, b) as i64
}

/// A batch of bipolar hypervectors packed one bit per dimension, row
/// after row (`stride = words_for(dim)` words per row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBatch {
    words: Vec<u64>,
    rows: usize,
    dim: usize,
    stride: usize,
}

impl PackedBatch {
    /// Packs the signs of a `[rows, dim]` tensor of encoded
    /// hypervectors — the packed form of `sign(Φz)`.
    ///
    /// # Errors
    ///
    /// Rejects tensors that are not rank-2.
    pub fn from_tensor(x: &Tensor) -> Result<Self> {
        if x.shape().rank() != 2 {
            return Err(HdcError::InvalidArgument(format!(
                "expected a [rows, dim] tensor, got {:?}",
                x.dims()
            )));
        }
        // BOUNDS: the rank-2 check above guarantees dims() has exactly
        // two elements.
        let (rows, dim) = (x.dims()[0], x.dims()[1]);
        Ok(Self::from_rows(x.as_slice(), rows, dim))
    }

    /// Packs `rows` rows of `dim` sign values laid out contiguously.
    #[must_use]
    pub fn from_rows(data: &[f32], rows: usize, dim: usize) -> Self {
        debug_assert_eq!(data.len(), rows * dim);
        let stride = words_for(dim);
        let mut words = vec![0u64; rows * stride];
        // BOUNDS: r < rows, so the data slice ends at rows*dim =
        // data.len() and the word slice at rows*stride = words.len().
        for r in 0..rows {
            crate::simd::pack_f32_into(
                &data[r * dim..(r + 1) * dim],
                &mut words[r * stride..(r + 1) * stride],
            );
        }
        PackedBatch {
            words,
            rows,
            dim,
            stride,
        }
    }

    /// Number of packed rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensions per row.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Packed words of row `r`.
    // BOUNDS: slicing panics (by design) on r >= rows — the indexing
    // contract callers rely on; words.len() is exactly rows * stride.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Unpacks row `r` back to ±1 integers (for the reference path).
    // BOUNDS: i < dim <= stride * WORD_BITS, so i / WORD_BITS < stride =
    // words.len(); WORD_BITS is a nonzero constant.
    #[must_use]
    pub fn unpack_row(&self, r: usize) -> Vec<i32> {
        let words = self.row(r);
        (0..self.dim)
            .map(|i| {
                if words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1 {
                    1
                } else {
                    -1
                }
            })
            .collect()
    }
}

/// Binary-HD learner over bit-packed encodings: integer prototype
/// accumulators (`c_k ← c_k ± h`) with popcount similarity against the
/// sign-packed prototypes. This is the packed counterpart of the dense
/// [`crate::model::HdModel`] pipeline restricted to bipolar inputs, and
/// the exact mirror of [`mod@reference`]'s naive path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedHdModel {
    /// Integer prototype accumulators, `num_classes × dim` row-major.
    protos: Vec<i32>,
    /// Sign-packed prototypes (`bit = 1 ⇔ proto ≥ 0`), kept in lockstep
    /// with `protos` so prediction never re-packs untouched rows.
    packed: Vec<u64>,
    num_classes: usize,
    dim: usize,
    stride: usize,
}

impl PackedHdModel {
    /// An all-zero model (`sign(0) = +1`, so fresh packed rows are all
    /// ones in the live bits).
    ///
    /// # Errors
    ///
    /// Rejects zero classes or dimensions.
    pub fn new(num_classes: usize, dim: usize) -> Result<Self> {
        if num_classes == 0 || dim == 0 {
            return Err(HdcError::InvalidArgument(format!(
                "PackedHdModel needs at least one class and one dimension, got {num_classes}x{dim}"
            )));
        }
        let stride = words_for(dim);
        let mut model = PackedHdModel {
            protos: vec![0; num_classes * dim],
            packed: vec![0; num_classes * stride],
            num_classes,
            dim,
            stride,
        };
        for c in 0..num_classes {
            model.repack_row(c);
        }
        Ok(model)
    }

    /// Builds a model from existing integer prototypes.
    ///
    /// # Errors
    ///
    /// Rejects a length mismatch between `protos` and
    /// `num_classes × dim`.
    pub fn from_counts(protos: Vec<i32>, num_classes: usize, dim: usize) -> Result<Self> {
        if protos.len() != num_classes * dim || num_classes == 0 || dim == 0 {
            return Err(HdcError::InvalidArgument(format!(
                "expected {num_classes}x{dim} = {} prototype counts, got {}",
                num_classes * dim,
                protos.len()
            )));
        }
        let stride = words_for(dim);
        let mut model = PackedHdModel {
            protos,
            packed: vec![0; num_classes * stride],
            num_classes,
            dim,
            stride,
        };
        for c in 0..num_classes {
            model.repack_row(c);
        }
        Ok(model)
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The integer prototype accumulators, `num_classes × dim` row-major.
    #[must_use]
    pub fn protos(&self) -> &[i32] {
        &self.protos
    }

    /// Sign-packed words of class `c`'s prototype.
    // BOUNDS: slicing panics (by design) on c >= num_classes;
    // packed.len() is exactly num_classes * stride.
    #[must_use]
    pub fn packed_row(&self, c: usize) -> &[u64] {
        &self.packed[c * self.stride..(c + 1) * self.stride]
    }

    /// Re-derives the packed signs of class `c` from its accumulators.
    // BOUNDS: c < num_classes at every call site (constructors iterate
    // 0..num_classes; updates go through check_batch's label check).
    fn repack_row(&mut self, c: usize) {
        crate::simd::pack_i32_into(
            &self.protos[c * self.dim..(c + 1) * self.dim],
            &mut self.packed[c * self.stride..(c + 1) * self.stride],
        );
    }

    /// Adds (`delta = +1`) or subtracts (`delta = −1`) the packed ±1
    /// vector `h` into class `c`'s accumulators, then refreshes that
    /// row's packed signs.
    // BOUNDS: c is a checked label (check_batch) or a predict_packed
    // result, both < num_classes; protos.len() = num_classes * dim.
    fn accumulate(&mut self, c: usize, h: &[u64], delta: i32) {
        crate::simd::accumulate_pm1(&mut self.protos[c * self.dim..(c + 1) * self.dim], h, delta);
        self.repack_row(c);
    }

    /// Majority-vote fold of one received sign row into class `c`'s
    /// accumulators: each live dimension contributes `+1` or `−1`
    /// according to its bit in `words`, and dimensions whose bit is set
    /// in the `erased` mask (lost in transit) contribute nothing. The
    /// caller is expected to [`PackedHdModel::repack_all`] once the
    /// whole cohort is folded — re-deriving signs per vote would be
    /// wasted work in the aggregation loop.
    // BOUNDS: slicing panics (by design) on c >= num_classes, matching
    // the indexing contract of packed_row.
    pub fn vote_row(&mut self, c: usize, words: &[u64], erased: &[u64]) {
        crate::simd::vote_pm1_masked(
            &mut self.protos[c * self.dim..(c + 1) * self.dim],
            words,
            erased,
        );
    }

    /// Refreshes every row's packed signs from the accumulators — the
    /// closing bracket of a [`PackedHdModel::vote_row`] fold.
    pub fn repack_all(&mut self) {
        for c in 0..self.num_classes {
            self.repack_row(c);
        }
    }

    /// One-shot training (§3.3, step 2): bundles every hypervector into
    /// its label's prototype, `c_k ← c_k + h`.
    ///
    /// # Errors
    ///
    /// Rejects dimension mismatches, label/row count mismatches, and
    /// out-of-range labels.
    pub fn one_shot_train(&mut self, batch: &PackedBatch, labels: &[usize]) -> Result<()> {
        self.check_batch(batch, labels)?;
        for (r, &label) in labels.iter().enumerate() {
            // `batch` is a distinct object, so its rows can be borrowed
            // straight into the accumulator: the whole loop is
            // allocation-free (pinned by `tests/alloc.rs`).
            self.accumulate(label, batch.row(r), 1);
        }
        Ok(())
    }

    /// Predicts the class of one packed hypervector: the argmax of
    /// `dot(sign(c_k), h) = dim − 2·popcount(packed_k ⊕ h)` with
    /// first-max tie-breaking (the same `>` rule as
    /// [`HdModel::refine_epoch`](crate::model::HdModel::refine_epoch)).
    #[must_use]
    pub fn predict_packed(&self, h: &[u64]) -> usize {
        let mut best = (i64::MIN, 0usize);
        for c in 0..self.num_classes {
            let dot = dot_packed(self.packed_row(c), h, self.dim);
            if dot > best.0 {
                best = (dot, c);
            }
        }
        best.1
    }

    /// Similarity scores (`dot(sign(c_k), h)`) of one packed
    /// hypervector against every class.
    #[must_use]
    pub fn similarities_packed(&self, h: &[u64]) -> Vec<i64> {
        let mut out = vec![0i64; self.num_classes];
        self.similarities_into(h, &mut out);
        out
    }

    /// [`PackedHdModel::similarities_packed`] into a caller-provided
    /// buffer of exactly `num_classes` scores — the zero-allocation
    /// variant for callers scoring many vectors against a fixed model.
    pub fn similarities_into(&self, h: &[u64], out: &mut [i64]) {
        debug_assert_eq!(out.len(), self.num_classes);
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = dot_packed(self.packed_row(c), h, self.dim);
        }
    }

    /// One epoch of mispredict-driven refinement (§3.3, step 3): for
    /// each sample, if the predicted class differs from the label, the
    /// hypervector is subtracted from the predicted prototype and added
    /// to the label's. Returns the number of updates.
    ///
    /// # Errors
    ///
    /// Rejects dimension mismatches, label/row count mismatches, and
    /// out-of-range labels.
    pub fn refine_epoch(&mut self, batch: &PackedBatch, labels: &[usize]) -> Result<usize> {
        self.check_batch(batch, labels)?;
        let mut updates = 0;
        for (r, &label) in labels.iter().enumerate() {
            let pred = self.predict_packed(batch.row(r));
            if pred != label {
                self.accumulate(pred, batch.row(r), -1);
                self.accumulate(label, batch.row(r), 1);
                updates += 1;
            }
        }
        Ok(updates)
    }

    /// Fraction of the batch classified correctly.
    ///
    /// # Errors
    ///
    /// Rejects dimension and label/row count mismatches.
    pub fn accuracy(&self, batch: &PackedBatch, labels: &[usize]) -> Result<f64> {
        self.check_batch(batch, labels)?;
        // BOUNDS: the early return keeps the divisor labels.len()
        // nonzero (and f64 division cannot trap regardless).
        if labels.is_empty() {
            return Ok(0.0);
        }
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(r, &label)| self.predict_packed(batch.row(r)) == label)
            .count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// Federated bundling: element-wise sum of every model's integer
    /// accumulators. Exact for integers — commutative and associative
    /// regardless of client order, which `tests/parity.rs` and the
    /// property suite pin down.
    ///
    /// # Errors
    ///
    /// Rejects an empty list or mismatched shapes.
    pub fn bundle(models: &[PackedHdModel]) -> Result<PackedHdModel> {
        let first = models
            .first()
            .ok_or_else(|| HdcError::InvalidArgument("cannot bundle zero models".into()))?;
        let mut sum = first.protos.clone();
        // BOUNDS: first() succeeded above, so models.len() >= 1 and the
        // [1..] range is valid (possibly empty).
        for m in &models[1..] {
            if m.num_classes != first.num_classes || m.dim != first.dim {
                return Err(HdcError::InvalidArgument(format!(
                    "cannot bundle {}x{} into {}x{}",
                    m.num_classes, m.dim, first.num_classes, first.dim
                )));
            }
            crate::simd::add_assign_i32(&mut sum, &m.protos);
        }
        PackedHdModel::from_counts(sum, first.num_classes, first.dim)
    }

    fn check_batch(&self, batch: &PackedBatch, labels: &[usize]) -> Result<()> {
        if batch.dim() != self.dim {
            return Err(HdcError::InvalidArgument(format!(
                "batch dimension {} does not match model dimension {}",
                batch.dim(),
                self.dim
            )));
        }
        if batch.rows() != labels.len() {
            return Err(HdcError::InvalidArgument(format!(
                "{} rows but {} labels",
                batch.rows(),
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.num_classes) {
            return Err(HdcError::LabelOutOfRange {
                label: bad,
                num_classes: self.num_classes,
            });
        }
        Ok(())
    }
}

/// The naive `i32` reference path: the same binary-HD algorithm as
/// [`PackedHdModel`], written element by element with no packing and no
/// chunking. Slow on purpose — it exists so the differential suite can
/// hold the packed kernels to exact agreement.
pub mod reference {
    use super::Result;
    use crate::error::HdcError;

    /// `sign(v)` with the `sign(0) = +1` convention.
    #[must_use]
    pub fn sign_i32(v: i32) -> i32 {
        if v >= 0 {
            1
        } else {
            -1
        }
    }

    /// Exact element-wise dot product of two `i32` vectors.
    #[must_use]
    pub fn dot_i32(a: &[i32], b: &[i32]) -> i64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| x as i64 * y as i64)
            .sum()
    }

    /// The reference learner: integer prototypes, sign-of-prototype
    /// similarity, identical update and tie-break rules to
    /// [`super::PackedHdModel`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReferenceHdModel {
        /// Integer prototype accumulators, `num_classes × dim`.
        pub protos: Vec<i32>,
        /// Number of classes.
        pub num_classes: usize,
        /// Hypervector dimensionality.
        pub dim: usize,
    }

    impl ReferenceHdModel {
        /// An all-zero reference model.
        ///
        /// # Errors
        ///
        /// Rejects zero classes or dimensions.
        pub fn new(num_classes: usize, dim: usize) -> Result<Self> {
            if num_classes == 0 || dim == 0 {
                return Err(HdcError::InvalidArgument(format!(
                    "ReferenceHdModel needs at least one class and one dimension, got {num_classes}x{dim}"
                )));
            }
            Ok(ReferenceHdModel {
                protos: vec![0; num_classes * dim],
                num_classes,
                dim,
            })
        }

        // BOUNDS: c < num_classes at every call site (predict and
        // similarity loop over 0..num_classes).
        fn row(&self, c: usize) -> &[i32] {
            &self.protos[c * self.dim..(c + 1) * self.dim]
        }

        /// `dot(sign(c_k), h)` for a ±1 hypervector `h`.
        #[must_use]
        pub fn similarity(&self, c: usize, h: &[i32]) -> i64 {
            self.row(c)
                .iter()
                .zip(h.iter())
                .map(|(&p, &x)| (sign_i32(p) * x) as i64)
                .sum()
        }

        /// Argmax of [`ReferenceHdModel::similarity`] with first-max
        /// tie-breaking.
        #[must_use]
        pub fn predict(&self, h: &[i32]) -> usize {
            let mut best = (i64::MIN, 0usize);
            for c in 0..self.num_classes {
                let sim = self.similarity(c, h);
                if sim > best.0 {
                    best = (sim, c);
                }
            }
            best.1
        }

        /// Fraction of a `[rows, dim]` tensor of encoded hypervectors
        /// classified correctly, each row read as its ±1 sign view
        /// (`sign(0) = +1`) — the oracle for
        /// [`super::PackedHdModel::accuracy`]. Zero for an empty set.
        ///
        /// # Errors
        ///
        /// Rejects a tensor with fewer rows than labels.
        // BOUNDS: the early return keeps the divisor labels.len()
        // nonzero (and f64 division cannot trap regardless).
        pub fn accuracy(&self, hypervectors: &super::Tensor, labels: &[usize]) -> Result<f64> {
            if labels.is_empty() {
                return Ok(0.0);
            }
            let mut correct = 0usize;
            for (r, &label) in labels.iter().enumerate() {
                let h: Vec<i32> = hypervectors
                    .row(r)?
                    .iter()
                    .map(|&v| if v >= 0.0 { 1 } else { -1 })
                    .collect();
                if self.predict(&h) == label {
                    correct += 1;
                }
            }
            Ok(correct as f64 / labels.len() as f64)
        }

        /// One-shot bundling of ±1 hypervectors into label prototypes.
        // BOUNDS: the reference path deliberately panics on labels >=
        // num_classes, mirroring the packed path's checked error.
        pub fn one_shot_train(&mut self, vectors: &[Vec<i32>], labels: &[usize]) {
            for (h, &label) in vectors.iter().zip(labels.iter()) {
                for (p, &x) in self.protos[label * self.dim..(label + 1) * self.dim]
                    .iter_mut()
                    .zip(h.iter())
                {
                    *p += x;
                }
            }
        }

        /// One epoch of mispredict-driven refinement; returns the update
        /// count.
        // BOUNDS: pred < num_classes by construction of predict; labels
        // out of range panic by design (see one_shot_train).
        pub fn refine_epoch(&mut self, vectors: &[Vec<i32>], labels: &[usize]) -> usize {
            let mut updates = 0;
            for (h, &label) in vectors.iter().zip(labels.iter()) {
                let pred = self.predict(h);
                if pred != label {
                    for (p, &x) in self.protos[pred * self.dim..(pred + 1) * self.dim]
                        .iter_mut()
                        .zip(h.iter())
                    {
                        *p -= x;
                    }
                    for (p, &x) in self.protos[label * self.dim..(label + 1) * self.dim]
                        .iter_mut()
                        .zip(h.iter())
                    {
                        *p += x;
                    }
                    updates += 1;
                }
            }
            updates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_bits_stay_zero_for_odd_dims() {
        for dim in [1, 63, 64, 65, 127, 1000] {
            let values = vec![1.0f32; dim];
            let words = pack_signs(&values);
            assert_eq!(words.len(), words_for(dim));
            let set: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
            assert_eq!(set, dim as u64, "dim {dim}: every live bit set, no pad");
        }
    }

    #[test]
    fn dot_packed_matches_definition() {
        // a = +1 everywhere, b = −1 on the first 3 of 70 dims.
        let dim = 70;
        let a = pack_signs(&vec![1.0; dim]);
        let mut b_vals = vec![1.0f32; dim];
        for v in b_vals.iter_mut().take(3) {
            *v = -1.0;
        }
        let b = pack_signs(&b_vals);
        assert_eq!(hamming(&a, &b), 3);
        assert_eq!(dot_packed(&a, &b, dim), dim as i64 - 6);
    }

    #[test]
    fn sign_zero_packs_as_plus_one() {
        let words = pack_signs(&[0.0, -0.0, -1.0]);
        // IEEE −0.0 ≥ 0.0 is true, so both zeros pack as +1.
        assert_eq!(words[0] & 0b111, 0b011);
    }

    #[test]
    fn one_shot_then_predict_roundtrip() {
        // Two orthogonal-ish patterns; each class should recall its own.
        let dim = 100;
        let mut data = vec![-1.0f32; 2 * dim];
        for v in data.iter_mut().take(dim) {
            *v = 1.0;
        }
        let batch = PackedBatch::from_rows(&data, 2, dim);
        let mut model = PackedHdModel::new(2, dim).unwrap();
        model.one_shot_train(&batch, &[0, 1]).unwrap();
        assert_eq!(model.predict_packed(batch.row(0)), 0);
        assert_eq!(model.predict_packed(batch.row(1)), 1);
        assert_eq!(model.accuracy(&batch, &[0, 1]).unwrap(), 1.0);
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let dim = 130;
        let values: Vec<f32> = (0..dim)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut out = vec![u64::MAX; words_for(dim)];
        pack_signs_into(&values, &mut out);
        assert_eq!(out, pack_signs(&values), "stale bits must be cleared");

        let mut data = vec![-1.0f32; 2 * dim];
        for v in data.iter_mut().take(dim) {
            *v = 1.0;
        }
        let batch = PackedBatch::from_rows(&data, 2, dim);
        let mut model = PackedHdModel::new(2, dim).unwrap();
        model.one_shot_train(&batch, &[0, 1]).unwrap();
        let mut sims = vec![0i64; 2];
        model.similarities_into(batch.row(0), &mut sims);
        assert_eq!(sims, model.similarities_packed(batch.row(0)));
    }

    #[test]
    fn bundle_sums_counts() {
        let a = PackedHdModel::from_counts(vec![1, -2, 3, 4], 2, 2).unwrap();
        let b = PackedHdModel::from_counts(vec![10, 20, -30, 40], 2, 2).unwrap();
        let sum = PackedHdModel::bundle(&[a, b]).unwrap();
        assert_eq!(sum.protos(), &[11, 18, -27, 44]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(PackedHdModel::new(0, 4).is_err());
        assert!(PackedHdModel::from_counts(vec![0; 5], 2, 2).is_err());
        let mut model = PackedHdModel::new(2, 4).unwrap();
        let batch = PackedBatch::from_rows(&[1.0; 6], 2, 3);
        assert!(model.one_shot_train(&batch, &[0, 1]).is_err());
        let ok = PackedBatch::from_rows(&[1.0; 8], 2, 4);
        assert!(model.one_shot_train(&ok, &[0]).is_err());
        assert!(model.one_shot_train(&ok, &[0, 7]).is_err());
        assert!(PackedHdModel::bundle(&[]).is_err());
    }
}
