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
//! which is where the packed engine's speed comes from — a cacheline of
//! packed words covers 512 dimensions (`tests/parity.rs` holds packed
//! similarity at least 4× ahead of the `i32` path at d = 10 000).
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
use crate::simd::NARROW_MAX;
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
/// after row (`stride = words_for(dim)` words per row). The default is
/// the empty batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        let mut batch = PackedBatch::default();
        batch.pack_tensor(x)?;
        Ok(batch)
    }

    /// [`PackedBatch::from_tensor`] over this batch's own word buffer:
    /// whatever it held is replaced, and packing a tensor of the shape it
    /// already has allocates nothing — for a caller that packs the same
    /// set again and again.
    ///
    /// # Errors
    ///
    /// Rejects tensors that are not rank-2 (the batch is left as it was).
    pub fn pack_tensor(&mut self, x: &Tensor) -> Result<()> {
        if x.shape().rank() != 2 {
            return Err(HdcError::InvalidArgument(format!(
                "expected a [rows, dim] tensor, got {:?}",
                x.dims()
            )));
        }
        // BOUNDS: the rank-2 check above guarantees dims() has exactly
        // two elements.
        let (rows, dim) = (x.dims()[0], x.dims()[1]);
        self.pack_rows(x.as_slice(), rows, dim);
        Ok(())
    }

    /// Packs `rows` rows of `dim` sign values laid out contiguously.
    #[must_use]
    pub fn from_rows(data: &[f32], rows: usize, dim: usize) -> Self {
        let mut batch = PackedBatch::default();
        batch.pack_rows(data, rows, dim);
        batch
    }

    fn pack_rows(&mut self, data: &[f32], rows: usize, dim: usize) {
        debug_assert_eq!(data.len(), rows * dim);
        let stride = words_for(dim);
        // Every word is written below: `pack_f32_into` clears its row.
        self.words.resize(rows * stride, 0);
        // BOUNDS: r < rows, so the data slice ends at rows*dim =
        // data.len() and the word slice at rows*stride = words.len().
        for r in 0..rows {
            crate::simd::pack_f32_into(
                &data[r * dim..(r + 1) * dim],
                &mut self.words[r * stride..(r + 1) * stride],
            );
        }
        (self.rows, self.dim, self.stride) = (rows, dim, stride);
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

/// Where a binary-HD learner keeps its class rows. Prediction reads
/// every class's sign words; an update writes one class's counters and
/// re-derives that row's sign words from them. A [`PackedHdModel`] owns
/// both for every class; a [`PackedClientModel`] owns the sign words and
/// takes a class's counters from the broadcast model the first time it
/// writes them. The learner ([`one_shot`], [`refine`]) is written once,
/// over this trait.
trait ClassRows {
    /// Number of classes.
    fn num_classes(&self) -> usize;
    /// Hypervector dimensionality.
    fn dim(&self) -> usize;
    /// The sign words of every class, row after row.
    fn signs(&self) -> &[u64];
    /// Class `c`'s counters and sign words, to be updated together.
    fn row_mut(&mut self, c: usize) -> (&mut [i32], &mut [u64]);
}

/// The argmax of `dot(sign(c_k), h) = dim − 2·popcount(packed_k ⊕ h)`
/// over the rows of `signs`, with first-max tie-breaking (the same `>`
/// rule as [`HdModel::refine_epoch`](crate::model::HdModel::refine_epoch)).
// BOUNDS: every constructor rejects dim == 0, so the chunk size
// words_for(dim) is at least one.
fn predict(signs: &[u64], dim: usize, h: &[u64]) -> usize {
    let mut best = (i64::MIN, 0usize);
    for (c, row) in signs.chunks_exact(words_for(dim)).enumerate() {
        let dot = dot_packed(row, h, dim);
        if dot > best.0 {
            best = (dot, c);
        }
    }
    best.1
}

/// Adds (`delta = +1`) or subtracts (`delta = −1`) the packed ±1 vector
/// `h` into class `c`'s counters, then refreshes that row's sign words.
fn accumulate<R: ClassRows>(rows: &mut R, c: usize, h: &[u64], delta: i32) {
    let (counters, signs) = rows.row_mut(c);
    crate::simd::accumulate_pm1(counters, h, delta);
    crate::simd::pack_i32_into(counters, signs);
}

/// One-shot training (§3.3, step 2): `c_k ← c_k + h` for every sample.
fn one_shot<R: ClassRows>(rows: &mut R, batch: &PackedBatch, labels: &[usize]) -> Result<()> {
    check_batch(rows.num_classes(), rows.dim(), batch, labels)?;
    for (r, &label) in labels.iter().enumerate() {
        // `batch` is a distinct object, so its rows can be borrowed
        // straight into the accumulator: the loop allocates nothing
        // beyond what `row_mut` does (pinned by `tests/alloc.rs`).
        accumulate(rows, label, batch.row(r), 1);
    }
    Ok(())
}

/// One epoch of mispredict-driven refinement (§3.3, step 3); returns the
/// number of updates.
fn refine<R: ClassRows>(rows: &mut R, batch: &PackedBatch, labels: &[usize]) -> Result<usize> {
    check_batch(rows.num_classes(), rows.dim(), batch, labels)?;
    let mut updates = 0;
    for (r, &label) in labels.iter().enumerate() {
        let h = batch.row(r);
        let pred = predict(rows.signs(), rows.dim(), h);
        if pred != label {
            accumulate(rows, pred, h, -1);
            accumulate(rows, label, h, 1);
            updates += 1;
        }
    }
    Ok(updates)
}

/// What a learner of `num_classes × dim` asks of a labelled batch.
fn check_batch(
    num_classes: usize,
    dim: usize,
    batch: &PackedBatch,
    labels: &[usize],
) -> Result<()> {
    if batch.dim() != dim {
        return Err(HdcError::InvalidArgument(format!(
            "batch dimension {} does not match model dimension {dim}",
            batch.dim(),
        )));
    }
    if batch.rows() != labels.len() {
        return Err(HdcError::InvalidArgument(format!(
            "{} rows but {} labels",
            batch.rows(),
            labels.len()
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
        return Err(HdcError::LabelOutOfRange {
            label: bad,
            num_classes,
        });
    }
    Ok(())
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
    fn repack_row(&mut self, c: usize) {
        let (counters, signs) = self.row_mut(c);
        crate::simd::pack_i32_into(counters, signs);
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
        let (counters, _) = self.row_mut(c);
        crate::simd::vote_pm1_masked(counters, words, erased);
    }

    /// Refreshes every row's packed signs from the accumulators — the
    /// closing bracket of a [`PackedHdModel::vote_row`] fold.
    pub fn repack_all(&mut self) {
        for c in 0..self.num_classes {
            self.repack_row(c);
        }
    }

    /// Replaces class `c`'s accumulators by the majority vote over
    /// `arrivals` — each one received `(words, erased)` row, read as
    /// [`PackedHdModel::vote_row`] reads it — refreshes the row's packed
    /// signs and returns the new counts. This is the fold of a whole
    /// cohort into a fresh model, one class at a time and in place: the
    /// row being voted stays in cache and no second model exists. The
    /// sums are exact integers, so the order of `arrivals` is immaterial;
    /// none at all leaves the row zero.
    // BOUNDS: slicing panics (by design) on c >= num_classes, matching
    // the indexing contract of packed_row.
    pub fn revote_row<'a>(
        &mut self,
        c: usize,
        arrivals: impl IntoIterator<Item = (&'a [u64], &'a [u64])>,
    ) -> &[i32] {
        let (counters, signs) = self.row_mut(c);
        counters.fill(0);
        for (words, erased) in arrivals {
            crate::simd::vote_pm1_masked(counters, words, erased);
        }
        crate::simd::pack_i32_into(counters, signs);
        counters
    }

    /// Writes the model as it stands — counters narrowed to `i16`, sign
    /// words copied — over `out`, reusing its storage. Returns `false`,
    /// leaving `out` empty, if a counter lies further than [`NARROW_MAX`]
    /// from zero.
    pub fn narrow_into(&self, out: &mut NarrowView) -> bool {
        // NARROW_MAX is all ones, so the magnitudes OR-ed together exceed
        // it exactly when one of them does.
        const { assert!((NARROW_MAX + 1).count_ones() == 1) };
        let mut magnitudes = 0u32;
        out.counts.clear();
        out.counts.extend(self.protos.iter().map(|&count| {
            magnitudes |= count.unsigned_abs();
            count as i16
        }));
        if magnitudes > u32::from(NARROW_MAX.unsigned_abs()) {
            *out = NarrowView::default();
            return false;
        }
        out.signs.clear();
        out.signs.extend_from_slice(&self.packed);
        out.dim = self.dim;
        true
    }

    /// One-shot training (§3.3, step 2): bundles every hypervector into
    /// its label's prototype, `c_k ← c_k + h`.
    ///
    /// # Errors
    ///
    /// Rejects dimension mismatches, label/row count mismatches, and
    /// out-of-range labels.
    pub fn one_shot_train(&mut self, batch: &PackedBatch, labels: &[usize]) -> Result<()> {
        one_shot(self, batch, labels)
    }

    /// Predicts the class of one packed hypervector: the argmax of
    /// `dot(sign(c_k), h) = dim − 2·popcount(packed_k ⊕ h)` with
    /// first-max tie-breaking (the same `>` rule as
    /// [`HdModel::refine_epoch`](crate::model::HdModel::refine_epoch)).
    #[must_use]
    pub fn predict_packed(&self, h: &[u64]) -> usize {
        predict(&self.packed, self.dim, h)
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
        refine(self, batch, labels)
    }

    /// Fraction of the batch classified correctly.
    ///
    /// # Errors
    ///
    /// Rejects dimension and label/row count mismatches.
    pub fn accuracy(&self, batch: &PackedBatch, labels: &[usize]) -> Result<f64> {
        check_batch(self.num_classes, self.dim, batch, labels)?;
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
}

impl ClassRows for PackedHdModel {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn signs(&self) -> &[u64] {
        &self.packed
    }

    fn row_mut(&mut self, c: usize) -> (&mut [i32], &mut [u64]) {
        // BOUNDS: c is below num_classes at every internal call site
        // (constructors and repack_all iterate 0..num_classes, labels
        // pass check_batch, predictions come from `predict`), and the
        // public row folds panic on anything else by contract;
        // protos.len() = num_classes * dim, packed.len() = num_classes *
        // stride.
        (
            &mut self.protos[c * self.dim..(c + 1) * self.dim],
            &mut self.packed[c * self.stride..(c + 1) * self.stride],
        )
    }
}

/// A [`PackedHdModel`] at one moment as health diagnostics read it
/// ([`crate::health::binary_round`]): its counters narrowed to `i16` and
/// its sign words. Only [`PackedHdModel::narrow_into`] fills one, and only
/// with counters within [`NARROW_MAX`] of zero — the range the `i16`
/// kernels are exact in. The default is empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NarrowView {
    counts: Vec<i16>,
    signs: Vec<u64>,
    dim: usize,
}

impl NarrowView {
    /// `true` until a model has been narrowed into this view.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The narrowed counters, `num_classes × dim` row-major.
    pub(crate) fn counts(&self) -> &[i16] {
        &self.counts
    }

    /// The sign words of every class, row after row.
    pub(crate) fn signs(&self) -> &[u64] {
        &self.signs
    }

    /// Dimensions per class row.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }
}

/// A client's working copy of a broadcast [`PackedHdModel`], copy on
/// write: it is handed the model's sign words — all that prediction
/// reads, and exactly the payload it will send back — and takes a
/// class's counters from the broadcast model the first time training
/// accumulates into that class. A refinement epoch that mispredicts
/// nothing copies nothing. Trained against the model it was taken from,
/// it ends with the sign words (and, in every class it wrote, the
/// counters) a full clone of that model trained on the same batches
/// would hold: both run the one learner in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedClientModel {
    /// Sign words of every class, row after row.
    packed: Vec<u64>,
    /// Per class, its counters once written; empty while the class
    /// still stands as broadcast.
    counters: Vec<Vec<i32>>,
    dim: usize,
}

impl PackedClientModel {
    /// The copy a client receives of `base`: its sign words.
    #[must_use]
    pub fn of(base: &PackedHdModel) -> Self {
        PackedClientModel {
            packed: base.packed.clone(),
            counters: vec![Vec::new(); base.num_classes],
            dim: base.dim,
        }
    }

    /// One-shot training as [`PackedHdModel::one_shot_train`] does it,
    /// on top of the counters of `base`, the model this copy was taken
    /// from.
    ///
    /// # Errors
    ///
    /// Rejects a `base` of another shape, dimension mismatches,
    /// label/row count mismatches, and out-of-range labels.
    pub fn one_shot_train(
        &mut self,
        base: &PackedHdModel,
        batch: &PackedBatch,
        labels: &[usize],
    ) -> Result<()> {
        one_shot(&mut self.over(base)?, batch, labels)
    }

    /// One refinement epoch as [`PackedHdModel::refine_epoch`] runs it,
    /// on top of the counters of `base`, the model this copy was taken
    /// from. Returns the number of updates.
    ///
    /// # Errors
    ///
    /// As [`PackedClientModel::one_shot_train`].
    pub fn refine_epoch(
        &mut self,
        base: &PackedHdModel,
        batch: &PackedBatch,
        labels: &[usize],
    ) -> Result<usize> {
        refine(&mut self.over(base)?, batch, labels)
    }

    /// The sign words of every class, row after row — the wire payload
    /// of the binary transport.
    #[must_use]
    pub fn into_words(self) -> Vec<u64> {
        self.packed
    }

    /// This copy as a learner over `base`'s counters.
    fn over<'a>(&'a mut self, base: &'a PackedHdModel) -> Result<CopyOnWrite<'a>> {
        if base.num_classes != self.counters.len() || base.dim != self.dim {
            return Err(HdcError::InvalidArgument(format!(
                "a copy of a {}x{} model cannot train over a {}x{} one",
                self.counters.len(),
                self.dim,
                base.num_classes,
                base.dim
            )));
        }
        Ok(CopyOnWrite { base, copy: self })
    }
}

/// A [`PackedClientModel`] together with the model whose counters it
/// copies on first write.
struct CopyOnWrite<'a> {
    base: &'a PackedHdModel,
    copy: &'a mut PackedClientModel,
}

impl ClassRows for CopyOnWrite<'_> {
    fn num_classes(&self) -> usize {
        self.base.num_classes
    }

    fn dim(&self) -> usize {
        self.base.dim
    }

    fn signs(&self) -> &[u64] {
        &self.copy.packed
    }

    fn row_mut(&mut self, c: usize) -> (&mut [i32], &mut [u64]) {
        // BOUNDS: c is a checked label or a `predict` result, both below
        // num_classes = counters.len(); `over` checked that base and
        // copy are one shape, so the base row and the sign row exist too.
        let (dim, stride) = (self.base.dim, self.base.stride);
        let counters = &mut self.copy.counters[c];
        if counters.is_empty() {
            counters.extend_from_slice(&self.base.protos[c * dim..(c + 1) * dim]);
        }
        (
            counters,
            &mut self.copy.packed[c * stride..(c + 1) * stride],
        )
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A random ±1 batch with random labels, and its rows as the
    /// reference learner takes them.
    fn labelled_batch(
        rng: &mut StdRng,
        samples: usize,
        dim: usize,
        classes: usize,
    ) -> (PackedBatch, Vec<Vec<i32>>, Vec<usize>) {
        let values: Vec<f32> = (0..samples * dim)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let batch = PackedBatch::from_rows(&values, samples, dim);
        let rows = (0..samples).map(|r| batch.unpack_row(r)).collect();
        let labels = (0..samples).map(|_| rng.gen_range(0..classes)).collect();
        (batch, rows, labels)
    }

    #[test]
    fn client_copy_trains_like_a_full_clone_and_like_the_reference() {
        use super::reference::ReferenceHdModel;
        // The grid of `tests/parity.rs`, with the degenerate and the
        // paper-scale ends added.
        for dim in [1, 63, 64, 65, 1000, 1001, 2048, 10_000] {
            for classes in [1, 2, 26] {
                for trained_base in [false, true] {
                    let case = format!("dim {dim} classes {classes} trained {trained_base}");
                    let mut rng = StdRng::seed_from_u64((dim * 100 + classes) as u64);
                    let mut base = PackedHdModel::new(classes, dim).unwrap();
                    if trained_base {
                        let (batch, _, labels) = labelled_batch(&mut rng, 30, dim, classes);
                        base.one_shot_train(&batch, &labels).unwrap();
                    }
                    let (batch, rows, labels) = labelled_batch(&mut rng, 30, dim, classes);

                    let mut full = base.clone();
                    let mut reference = ReferenceHdModel {
                        protos: base.protos().to_vec(),
                        num_classes: classes,
                        dim,
                    };
                    let mut copy = PackedClientModel::of(&base);
                    // The classes some learner step accumulates into.
                    let mut written = vec![false; classes];
                    if !trained_base {
                        full.one_shot_train(&batch, &labels).unwrap();
                        reference.one_shot_train(&rows, &labels);
                        copy.one_shot_train(&base, &batch, &labels).unwrap();
                        for &label in &labels {
                            written[label] = true;
                        }
                    }
                    for epoch in 0..3 {
                        // The reference epoch a sample at a time, to see
                        // which classes each of its updates writes.
                        let mut reference_updates = 0;
                        for (row, &label) in rows.iter().zip(&labels) {
                            let pred = reference.predict(row);
                            if reference.refine_epoch(std::slice::from_ref(row), &[label]) == 1 {
                                written[pred] = true;
                                written[label] = true;
                                reference_updates += 1;
                            }
                        }
                        let full_updates = full.refine_epoch(&batch, &labels).unwrap();
                        let copy_updates = copy.refine_epoch(&base, &batch, &labels).unwrap();
                        assert_eq!(copy_updates, full_updates, "{case} epoch {epoch}");
                        assert_eq!(copy_updates, reference_updates, "{case} epoch {epoch}");
                        assert_eq!(full.protos(), reference.protos, "{case} epoch {epoch}");
                        let stride = words_for(dim);
                        for (c, &written) in written.iter().enumerate() {
                            let counters = &full.protos()[c * dim..(c + 1) * dim];
                            let signs = &copy.packed[c * stride..(c + 1) * stride];
                            assert_eq!(
                                signs,
                                full.packed_row(c),
                                "{case} epoch {epoch}: sign words of class {c}"
                            );
                            assert_eq!(signs, pack_signs_i32(counters));
                            // Unwritten classes hold no counters at all.
                            assert_eq!(
                                copy.counters[c],
                                if written { counters } else { &[] },
                                "{case} epoch {epoch}: class {c} written: {written}"
                            );
                        }
                    }
                    let mut wire = Vec::new();
                    for c in 0..classes {
                        wire.extend_from_slice(full.packed_row(c));
                    }
                    assert_eq!(copy.into_words(), wire, "{case}: the payload");
                }
            }
        }
    }

    #[test]
    fn a_client_that_mispredicts_nothing_copies_nothing() {
        // Two opposite patterns, each recalled by its own class.
        let dim = 100;
        let mut data = vec![-1.0f32; 2 * dim];
        for v in data.iter_mut().take(dim) {
            *v = 1.0;
        }
        let batch = PackedBatch::from_rows(&data, 2, dim);
        let mut base = PackedHdModel::new(2, dim).unwrap();
        base.one_shot_train(&batch, &[0, 1]).unwrap();
        let mut copy = PackedClientModel::of(&base);
        assert_eq!(copy.refine_epoch(&base, &batch, &[0, 1]).unwrap(), 0);
        assert_eq!(copy, PackedClientModel::of(&base));
        // A mislabelled epoch writes both classes, from the base's counts.
        let mut full = base.clone();
        let updates = full.refine_epoch(&batch, &[1, 1]).unwrap();
        assert!(updates > 0);
        assert_eq!(copy.refine_epoch(&base, &batch, &[1, 1]).unwrap(), updates);
        assert_eq!(copy.counters[0], full.protos()[..dim]);
        assert_eq!(copy.counters[1], full.protos()[dim..]);
    }

    #[test]
    fn client_copy_rejects_another_models_counters() {
        let base = PackedHdModel::new(2, 64).unwrap();
        let batch = PackedBatch::from_rows(&[1.0; 128], 2, 64);
        let mut copy = PackedClientModel::of(&base);
        for other in [
            PackedHdModel::new(3, 64).unwrap(),
            PackedHdModel::new(2, 65).unwrap(),
        ] {
            assert!(copy.one_shot_train(&other, &batch, &[0, 1]).is_err());
            assert!(copy.refine_epoch(&other, &batch, &[0, 1]).is_err());
        }
        assert!(copy.refine_epoch(&base, &batch, &[0]).is_err());
        assert!(copy.refine_epoch(&base, &batch, &[0, 2]).is_err());
        assert_eq!(copy, PackedClientModel::of(&base), "errors write nothing");
    }

    #[test]
    fn revote_row_is_a_fresh_models_fold_in_place() {
        for dim in [1, 63, 64, 65, 1000, 10_000] {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let (classes, stride) = (3, words_for(dim));
            let live = |w: usize| match (dim % WORD_BITS, w + 1 == stride) {
                (pad, true) if pad > 0 => u64::MAX >> (WORD_BITS - pad),
                _ => u64::MAX,
            };
            // Arrivals with no erasures, random ones, and all erased.
            let arrivals: Vec<(Vec<u64>, Vec<u64>)> = [0, 1, u64::MAX]
                .into_iter()
                .map(|mask| {
                    let mut row = || -> Vec<u64> {
                        (0..classes * stride)
                            .map(|w| rng.gen::<u64>() & live(w % stride))
                            .collect()
                    };
                    let (words, noise) = (row(), row());
                    let erased = noise.iter().map(|&n| if mask == 1 { n } else { mask });
                    (words, erased.collect())
                })
                .collect();
            let mut fresh = PackedHdModel::new(classes, dim).unwrap();
            for (words, erased) in &arrivals {
                for c in 0..classes {
                    let row = c * stride..(c + 1) * stride;
                    fresh.vote_row(c, &words[row.clone()], &erased[row]);
                }
            }
            fresh.repack_all();
            // A resident model holding an earlier round's counts.
            let stale: Vec<i32> = (0..classes * dim).map(|_| rng.gen_range(-9..=9)).collect();
            let mut resident = PackedHdModel::from_counts(stale, classes, dim).unwrap();
            for c in 0..classes {
                let row = c * stride..(c + 1) * stride;
                let rows = arrivals
                    .iter()
                    .map(|(words, erased)| (&words[row.clone()], &erased[row.clone()]));
                let votes = resident.revote_row(c, rows).to_vec();
                assert_eq!(votes, fresh.protos()[c * dim..(c + 1) * dim], "dim {dim}");
            }
            assert_eq!(resident, fresh, "dim {dim}");
            // No arrivals: the zero row, whose signs are all +1.
            assert!(resident.revote_row(1, []).iter().all(|&v| v == 0));
            let blank = PackedHdModel::new(classes, dim).unwrap();
            assert_eq!(resident.packed_row(1), blank.packed_row(1));
        }
    }

    #[test]
    fn a_counter_out_of_the_narrow_range_empties_the_view() {
        use crate::simd::NARROW_MAX;
        let max = i32::from(NARROW_MAX);
        let mut view = NarrowView::default();
        for (edge, fits) in [
            (max, true),
            (-max, true),
            (max + 1, false),
            (-max - 1, false),
        ] {
            let model = PackedHdModel::from_counts(vec![0, edge, 0, 0], 2, 2).unwrap();
            assert_eq!(model.narrow_into(&mut view), fits, "{edge}");
            assert_eq!(view.is_empty(), !fits, "{edge}");
            if fits {
                assert_eq!(view.counts(), [0, edge as i16, 0, 0]);
                assert_eq!(
                    view.signs(),
                    [model.packed_row(0), model.packed_row(1)].concat()
                );
                assert_eq!(view.dim(), 2);
            }
        }
        let far = PackedHdModel::from_counts(vec![i32::MIN, 65_536, 0, 0], 2, 2).unwrap();
        assert!(
            !far.narrow_into(&mut view),
            "values whose low half is small"
        );
    }

    #[test]
    fn repacking_a_batch_in_place_equals_packing_it_fresh() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut kept = PackedBatch::default();
        assert_eq!((kept.rows(), kept.dim()), (0, 0));
        // Grows, shrinks, changes stride: stale words never show.
        for (rows, dim) in [(4, 130), (4, 130), (9, 64), (2, 1), (3, 1000), (0, 7)] {
            let data: Vec<f32> = (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = Tensor::from_vec(data, &[rows, dim]).unwrap();
            kept.pack_tensor(&x).unwrap();
            assert_eq!(
                kept,
                PackedBatch::from_tensor(&x).unwrap(),
                "[{rows}, {dim}]"
            );
        }
        let before = kept.clone();
        assert!(kept.pack_tensor(&Tensor::zeros(&[2, 3, 4])).is_err());
        assert_eq!(kept, before, "a rejected tensor leaves the batch alone");
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
