//! Model-health diagnostics over HD models.
//!
//! FHDnn's robustness story (paper §4–5) is that the integer HD model
//! degrades *gracefully* under channel damage — which means degradation is
//! observable long before final accuracy is printed, if anyone looks. This
//! module computes the per-round signals worth looking at:
//!
//! - [`row_norms`] — per-class prototype L2 norms. A collapsing norm means
//!   a class stopped accumulating evidence; an exploding one dominates the
//!   AGC quantizer's gain and squeezes every other class into few bits.
//! - [`saturation_fraction`] — the share of quantized counters within a
//!   relative `ε` of the clip range `±(2^{B-1}-1)`. High saturation is the
//!   observable symptom of a bit width too narrow for the prototype's
//!   dynamic range (or of bit-error damage inflating outliers).
//! - [`cosine_margin`] — the minimum pairwise inter-class separation
//!   `1 − cos(c_i, c_j)`. Shrinking margins predict misclassification
//!   before accuracy moves, because cosine inference *is* the margin.
//! - [`sign_flip_rate`] — the fraction of prototype entries whose sign
//!   changed against the previous round's model. Healthy convergence
//!   settles signs; a sign-flip spike marks a catastrophically damaged or
//!   diverging round.
//! - [`cosine_distance`] / [`cosine_distances`] — the building block of
//!   per-client update divergence in the federated layer.
//!
//! [`class_geometry`] takes the norms and the margin from one pass over
//! the prototypes, which is how a recorded round reads them.
//!
//! Everything here is pure arithmetic over existing state: no RNG and no
//! model-sized allocation (the returned vectors, one 32 KiB block of
//! widened values and, for the margin, one `f64` per class pair), safe to
//! compute only when a telemetry recorder is enabled without perturbing
//! seeded runs.
//!
//! # Reductions
//!
//! Every sum below is one `f64` chain over ascending indices, each term
//! the exact product of two widened `f32`s — the chain the plain loop
//! `for q { sum += x[q] as f64 * y[q] as f64 }` runs. Such a chain cannot
//! be split without changing its rounding, but independent chains can run
//! side by side: the kernels widen a block of rows into `f64` lanes,
//! transposed so that the values one step of every chain needs are
//! adjacent, and then advance several chains per instruction. No result
//! depends on how many chains share a block (DESIGN.md §15).

use crate::model::HdModel;
use crate::packed::{words_for, NarrowView, WORD_BITS};
use crate::quantizer::quantize;
use crate::simd::{dot_i16, signed_sums_i16};
use crate::Result;

/// Side of the square register tile of [`accumulate_tile`]: `TILE × TILE`
/// chains in flight, enough to hide the latency of an `f64` add. Also
/// the four rows [`pack4`] widens at a time.
const TILE: usize = 4;

/// Rows whose chains [`row_norms`] and [`cosine_distances`] keep in
/// flight: a group of rows of the one, the shared vector and up to seven
/// rows scored against it of the other.
const LANES: usize = 8;

/// `f64` values in the widened block the tile kernels stream: 32 KiB, so
/// a block is written and read back without leaving the first-level cache.
const BLOCK_VALUES: usize = 4096;

/// `start + Σ x²` over each of `N` rows (cut to the shortest), in `f64`:
/// `N` chains side by side, parallel across rows and never within one.
fn sums_of_squares<const N: usize>(rows: [&[f32]; N], start: f64) -> [f64; N] {
    let d = rows.iter().map(|row| row.len()).min().unwrap_or(0);
    let rows = rows.map(|row| &row[..d]);
    let mut sums = [start; N];
    for q in 0..d {
        for (sum, row) in sums.iter_mut().zip(rows) {
            // BOUNDS: every row was cut to `d` values above and `q < d`.
            let x = row[q] as f64;
            *sum += x * x;
        }
    }
    sums
}

/// L2 norm of a slice.
pub fn l2_norm(v: &[f32]) -> f32 {
    // From `-0.0`, where `Iterator::sum` starts: the norm of nothing.
    let [sum] = sums_of_squares([v], -0.0);
    sum.sqrt() as f32
}

/// Per-class prototype L2 norms, `[num_classes]`.
///
/// # Errors
///
/// None today; the signature predates the slice-based kernels.
pub fn row_norms(model: &HdModel) -> Result<Vec<f32>> {
    let (rows, d) = (model.prototypes().as_slice(), model.dim());
    let mut norms = Vec::with_capacity(model.num_classes());
    for group in rows.chunks(LANES * d) {
        // A short last group repeats its first row and drops the spare
        // sums.
        let mut lanes = [&group[..d]; LANES];
        for (lane, row) in lanes.iter_mut().zip(group.chunks_exact(d)) {
            *lane = row;
        }
        let sums = sums_of_squares(lanes, -0.0);
        norms.extend(sums[..group.len() / d].iter().map(|sum| sum.sqrt() as f32));
    }
    Ok(norms)
}

/// Counter-saturation fraction: the share of `bitwidth`-bit quantized
/// words with `|w| ≥ (1 − epsilon) · (2^{B-1} − 1)`, i.e. within a
/// relative `epsilon` of the AGC clip range.
///
/// The AGC gain pins each class's largest magnitude at full scale, so a
/// healthy model saturates a handful of words per class; a fraction
/// approaching the prototype width means the quantizer is clipping real
/// signal (bit width too narrow, or damage-inflated outliers have crushed
/// the gain).
///
/// # Errors
///
/// Same as [`quantize`] (`bitwidth` outside `2..=32`).
pub fn saturation_fraction(model: &HdModel, bitwidth: u32, epsilon: f32) -> Result<f32> {
    let q = quantize(model, bitwidth)?;
    if q.words.is_empty() {
        return Ok(0.0);
    }
    let clip = q.max_word() as f32;
    let threshold = (clip * (1.0 - epsilon.clamp(0.0, 1.0))).max(1.0);
    let saturated = q
        .words
        .iter()
        .filter(|w| w.unsigned_abs() as f32 >= threshold)
        .count();
    Ok(saturated as f32 / q.words.len() as f32)
}

/// Widens four equally long rows into lanes `lane..lane + 4` of a block's
/// `width`-wide columns: `block[q][lane + r] = rows[r][q]`.
fn pack4(block: &mut [f64], width: usize, lane: usize, rows: [&[f32]; 4]) {
    let [r0, r1, r2, r3] = rows;
    let columns = block.chunks_exact_mut(width);
    for ((((column, &a), &b), &c), &d) in columns.zip(r0).zip(r1).zip(r2).zip(r3) {
        column[lane..lane + 4].copy_from_slice(&[a as f64, b as f64, c as f64, d as f64]);
    }
}

/// Cosine distance from a pair's three sums, `dot = Σ a·b`, `na = Σ a²`
/// and `nb = Σ b²`, with the degenerate conventions of
/// [`cosine_distance`].
fn distance_from(dot: f64, na: f64, nb: f64) -> f32 {
    if na == 0.0 && nb == 0.0 {
        return 0.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - dot / (na.sqrt() * nb.sqrt())) as f32
}

/// One block's worth of every lane's chain against lane 0:
/// `dots[l] += Σ_q block[q][l] · block[q][0]` and
/// `squares[l] += Σ_q block[q][l]²`, ascending in `q`.
///
/// Out of line, like the GEMM micro-kernel: inlined into its caller's
/// loops the accumulators were seen to go through the stack.
#[inline(never)]
fn accumulate_against_first<const L: usize>(
    block: &[f64],
    dots: &mut [f64; L],
    squares: &mut [f64; L],
) {
    let (mut dot, mut square) = (*dots, *squares);
    let (columns, _) = block.as_chunks::<L>();
    for column in columns {
        let y = column[0];
        for ((dot, square), &x) in dot.iter_mut().zip(&mut square).zip(column) {
            *dot += x * y;
            *square += x * x;
        }
    }
    (*dots, *squares) = (dot, square);
}

/// Scores up to `L − 1` rows, each at least as long as `shared`, against
/// it in one pass: lane 0 is `shared`, whose `Σ shared²` so rides along
/// once for the whole group, and spare lanes repeat it (their sums are
/// dropped).
fn score_group<const L: usize, R: AsRef<[f32]>>(
    group: &[R],
    shared: &[f32],
    block: &mut [f64; BLOCK_VALUES],
    distances: &mut Vec<f32>,
) {
    let n = shared.len();
    let mut lanes = [shared; L];
    for (lane, row) in lanes[1..].iter_mut().zip(group) {
        *lane = &row.as_ref()[..n];
    }
    let (mut dots, mut squares) = ([0.0f64; L], [0.0f64; L]);
    let columns = BLOCK_VALUES / L;
    for q0 in (0..n).step_by(columns) {
        let part = lanes.map(|lane| &lane[q0..n.min(q0 + columns)]);
        let block = &mut block[..part[0].len() * L];
        for lane in (0..L).step_by(TILE) {
            let rows = [part[lane], part[lane + 1], part[lane + 2], part[lane + 3]];
            pack4(block, L, lane, rows);
        }
        accumulate_against_first(block, &mut dots, &mut squares);
    }
    let scored = dots[1..].iter().zip(&squares[1..]).take(group.len());
    distances.extend(scored.map(|(&dot, &square)| distance_from(dot, square, squares[0])));
}

/// Cosine distance `1 − cos(row, shared)` of every row from one shared
/// vector, each exactly [`cosine_distance`]`(row, shared)`: the rows'
/// `(Σ row·shared, Σ row²)` chains run up to seven at a time against the
/// widened `shared`.
pub fn cosine_distances<R: AsRef<[f32]>>(rows: &[R], shared: &[f32]) -> Vec<f32> {
    let mut distances = Vec::with_capacity(rows.len());
    let mut block = [0.0f64; BLOCK_VALUES];
    // A pair is scored over the length it shares, as `zip` would, and the
    // rows of one group must share one length with `shared`.
    let shared_len = |row: &R| row.as_ref().len().min(shared.len());
    let mut rest = rows;
    while let Some(first) = rest.first() {
        let n = shared_len(first);
        let alike = rest.iter().take(LANES - 1);
        let alike = alike.take_while(|row| shared_len(row) == n).count();
        let (group, later) = rest.split_at(alike);
        rest = later;
        // A few rows leave half the lanes spare: pack half as many.
        if group.len() < TILE {
            score_group::<TILE, R>(group, &shared[..n], &mut block, &mut distances);
        } else {
            score_group::<LANES, R>(group, &shared[..n], &mut block, &mut distances);
        }
    }
    distances
}

/// Cosine distance `1 − cos(a, b)`, in `[0, 2]`.
///
/// Conventions for degenerate inputs: two zero vectors are identical
/// (distance 0); one zero vector against a nonzero one is maximally
/// uninformative (distance 1, the orthogonal reading).
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    cosine_distances(&[a], b)[0]
}

/// One block's worth of a `TILE × TILE` tile of chains:
/// `sums[r][l] += Σ_q block[q][i0 + r] · block[q][j0 + l]`, ascending in
/// `q`. Out of line for the reason [`accumulate_against_first`] is.
#[inline(never)]
fn accumulate_tile(
    block: &[f64],
    width: usize,
    (i0, j0): (usize, usize),
    sums: &mut [[f64; TILE]; TILE],
) {
    let mut acc = *sums;
    for column in block.chunks_exact(width) {
        let (Some(xs), Some(ys)) = (
            column[i0..].first_chunk::<TILE>(),
            column[j0..].first_chunk::<TILE>(),
        ) else {
            break;
        };
        for (acc_row, &x) in acc.iter_mut().zip(xs) {
            for (sum, &y) in acc_row.iter_mut().zip(ys) {
                *sum += x * y;
            }
        }
    }
    *sums = acc;
}

/// Per-class norms and the minimum pairwise separation of one model, as
/// [`class_geometry`] reads them off a single pass over the prototypes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassGeometry {
    /// Per-class prototype L2 norms: [`row_norms`].
    pub norms: Vec<f32>,
    /// Minimum pairwise inter-class separation: [`cosine_margin`].
    pub cosine_margin: f32,
}

/// [`ClassGeometry`] of `k` row-major `d`-wide rows (`d > 0`): every
/// `Σ_q rᵢ[q]·rⱼ[q]` with `j ≥ i` — the pair dots and, on the diagonal,
/// each row's `Σ x²`, taken once — as tiles of chains over the widened
/// rows, a block of columns at a time. A tile's sums park in `tiles`
/// between blocks, so each chain still runs over ascending `q`.
fn geometry_of(rows: &[f32], k: usize, d: usize) -> ClassGeometry {
    let side = k.div_ceil(TILE);
    let width = side * TILE;
    let mut tiles = vec![[[0.0f64; TILE]; TILE]; side * side];
    let columns = (BLOCK_VALUES / width.max(1)).max(1);
    let mut block = vec![0.0f64; columns * width];
    for q0 in (0..d).step_by(columns) {
        let run = columns.min(d - q0);
        let block = &mut block[..run * width];
        for lane in (0..width).step_by(TILE) {
            // A short last group repeats its first row; the sums of the
            // spare lanes are never read.
            let row = |r: usize| {
                let class = if lane + r < k { lane + r } else { lane };
                &rows[class * d + q0..][..run]
            };
            pack4(block, width, lane, [row(0), row(1), row(2), row(3)]);
        }
        for i in 0..side {
            for j in i..side {
                accumulate_tile(block, width, (i * TILE, j * TILE), &mut tiles[i * side + j]);
            }
        }
    }
    geometry_from_sums(k, |i, j| {
        tiles[i / TILE * side + j / TILE][i % TILE][j % TILE]
    })
}

/// [`ClassGeometry`] of `k` rows from their pair sums:
/// `sum(i, j) = Σ_q rᵢ[q]·rⱼ[q]` for `j ≥ i`.
fn geometry_from_sums(k: usize, sum: impl Fn(usize, usize) -> f64) -> ClassGeometry {
    let squares: Vec<f64> = (0..k).map(|i| sum(i, i)).collect();
    // `min` ignores a NaN distance, as the pairwise fold always has.
    let mut margin = if k < 2 { 1.0 } else { f32::INFINITY };
    for i in 0..k {
        for j in (i + 1)..k {
            margin = margin.min(distance_from(sum(i, j), squares[i], squares[j]));
        }
    }
    ClassGeometry {
        norms: squares.iter().map(|square| square.sqrt() as f32).collect(),
        cosine_margin: margin,
    }
}

/// Norms and margin of `model` from one pass over its prototypes; each
/// field is bit-for-bit what [`row_norms`] / [`cosine_margin`] return.
pub fn class_geometry(model: &HdModel) -> ClassGeometry {
    geometry_of(
        model.prototypes().as_slice(),
        model.num_classes(),
        model.dim(),
    )
}

/// Minimum pairwise inter-class separation: `min_{i<j} 1 − cos(c_i, c_j)`.
///
/// 0 means two prototypes point the same way (inference cannot tell the
/// classes apart); values near 1 mean near-orthogonal prototypes — the
/// healthy HD regime. Returns 1.0 for models with fewer than two classes
/// (nothing to confuse).
///
/// # Errors
///
/// None today; the signature predates the slice-based kernels.
pub fn cosine_margin(model: &HdModel) -> Result<f32> {
    Ok(class_geometry(model).cosine_margin)
}

/// Whether an entry changed sign, under the paper's `sign(0) = +1`.
fn sign_flipped(x: f32, y: f32) -> bool {
    (x >= 0.0) != (y >= 0.0)
}

/// Fraction of entries whose sign differs between two equal-length slices
/// (using the paper's `sign(0) = +1` convention, matching
/// [`HdModel::to_bipolar`]). Returns 0.0 for empty slices.
pub fn sign_flip_rate_slices(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let flips = a
        .iter()
        .zip(b)
        .filter(|(&x, &y)| sign_flipped(x, y))
        .count();
    flips as f32 / n as f32
}

/// `current − previous` element-wise into `out` (reusing its storage)
/// and, from the same pass, [`sign_flip_rate_slices`]`(current, previous)`;
/// both over the length the two slices share.
pub fn delta_and_sign_flip_rate(current: &[f32], previous: &[f32], out: &mut Vec<f32>) -> f32 {
    let mut flips = 0usize;
    out.clear();
    out.extend(current.iter().zip(previous).map(|(&x, &y)| {
        flips += usize::from(sign_flipped(x, y));
        x - y
    }));
    if out.is_empty() {
        return 0.0;
    }
    flips as f32 / out.len() as f32
}

/// Fraction of prototype entries whose sign flipped between two rounds'
/// models.
///
/// # Errors
///
/// Returns an error if the models' shapes disagree.
pub fn sign_flip_rate(current: &HdModel, previous: &HdModel) -> Result<f32> {
    if current.num_classes() != previous.num_classes() || current.dim() != previous.dim() {
        return Err(crate::HdcError::InvalidArgument(format!(
            "sign-flip rate between [{}, {}] and [{}, {}] models",
            current.num_classes(),
            current.dim(),
            previous.num_classes(),
            previous.dim()
        )));
    }
    Ok(sign_flip_rate_slices(
        current.prototypes().as_slice(),
        previous.prototypes().as_slice(),
    ))
}

/// What a recorded round of the binary engine reports of its model, read
/// off the integer view by [`binary_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryRoundHealth {
    /// [`class_geometry`] of the model after the vote.
    pub geometry: ClassGeometry,
    /// [`sign_flip_rate`] of the model after the vote against the one
    /// the round began with.
    pub sign_flip_rate: f32,
    /// Per arrival, the [`cosine_distance`] of its delta (wire view minus
    /// round-start model) from the aggregate delta (model after the vote
    /// minus round-start model).
    pub distances: Vec<f32>,
}

/// Dimensions a received row of `dim` lost in transit: the set bits of
/// its erasure mask, whatever the pad bits of the last word hold.
fn erased_dims(erased: &[u64], dim: usize) -> u64 {
    let Some((&last, full)) = erased.split_last() else {
        return 0;
    };
    let pad = erased.len() * WORD_BITS - dim;
    let full: u64 = full.iter().map(|word| u64::from(word.count_ones())).sum();
    full + u64::from((last & (u64::MAX >> pad)).count_ones())
}

/// The model-sized fields of a binary round's health record without a
/// float in sight: `now` is the global model after the vote, `start` the
/// one the round began with, and each arrival the `(sign words, erasure
/// mask)` of one received update, class rows one after another as
/// [`NarrowView`] lays them out.
///
/// Every field is bit for bit what the float kernels of this module give
/// on the models' float views — counters cast to `f32`, an arrival read
/// as `+1.0` / `−1.0` per sign bit and `0.0` where erased. Each of their
/// `f64` chains sums integers (products of counters and view values no
/// larger than [`NARROW_MAX`](crate::simd::NARROW_MAX)), so every partial
/// sum is an integer below 2⁵³, no step rounds, and the chain ends on the
/// exact integer sum — which the `i16` kernels of [`crate::simd`] reach
/// directly. With `c` the counters now, `b` at the start, `g = c − b` and
/// `v` an arrival's view:
///
/// * norms and margin come from the pair dots `Σ cᵢ·cⱼ`;
/// * a sign flipped where the sign words differ;
/// * `‖g‖² = Σc² − 2·Σb·c + Σb²`, once;
/// * per arrival `Σ(v−b)·g = (Σv·c − Σv·b) − (Σb·c − Σb²)` and
///   `‖v−b‖² = live − 2·Σv·b + Σb²`, where `live` counts the dimensions
///   that arrived — two signed sums and a popcount.
///
/// # Panics
///
/// If a view is empty, or the views or an arrival differ in shape.
pub fn binary_round<'a>(
    now: &NarrowView,
    start: &NarrowView,
    arrivals: impl IntoIterator<Item = (&'a [u64], &'a [u64])>,
) -> BinaryRoundHealth {
    let (c, b, d) = (now.counts(), start.counts(), now.dim());
    assert!(
        !c.is_empty() && c.len() == b.len() && d == start.dim(),
        "views of {} and {} counters, {d} and {} wide",
        c.len(),
        b.len(),
        start.dim()
    );
    let k = c.len() / d;
    let mut dots = vec![0i64; k * k];
    for (i, row) in c.chunks_exact(d).enumerate() {
        for (j, other) in c.chunks_exact(d).enumerate().skip(i) {
            dots[i * k + j] = dot_i16(row, other);
        }
    }
    let geometry = geometry_from_sums(k, |i, j| dots[i * k + j] as f64);
    let flips = crate::packed::hamming(now.signs(), start.signs());

    let cc: i64 = (0..k).map(|i| dots[i * k + i]).sum();
    let (bc, bb) = (dot_i16(b, c), dot_i16(b, b));
    let aggregate_square = cc - 2 * bc + bb;
    let stride = words_for(d);
    let distances = arrivals.into_iter().map(|(words, erased)| {
        assert!(
            words.len() == k * stride && erased.len() == k * stride,
            "an arrival of {} sign and {} erasure words for {k} rows of {stride}",
            words.len(),
            erased.len()
        );
        let wire = words.chunks_exact(stride).zip(erased.chunks_exact(stride));
        let rows = c.chunks_exact(d).zip(b.chunks_exact(d));
        let (mut vc, mut vb, mut lost) = (0i64, 0i64, 0u64);
        for ((c_row, b_row), (words, erased)) in rows.zip(wire) {
            let (row_vc, row_vb) = signed_sums_i16(c_row, b_row, words, erased);
            vc += row_vc;
            vb += row_vb;
            lost += erased_dims(erased, d);
        }
        let live = c.len() as i64 - lost as i64;
        let dot = (vc - vb) - (bc - bb);
        let square = live - 2 * vb + bb;
        distance_from(dot as f64, square as f64, aggregate_square as f64)
    });
    BinaryRoundHealth {
        distances: distances.collect(),
        geometry,
        sign_flip_rate: flips as f32 / c.len() as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhdnn_tensor::Tensor;

    fn model_with(values: &[f32], k: usize, d: usize) -> HdModel {
        HdModel::from_prototypes(Tensor::from_vec(values.to_vec(), &[k, d]).unwrap()).unwrap()
    }

    /// The per-pair loops the kernels replaced, kept verbatim as the
    /// oracle: one sequential chain per sum, both norms recomputed for
    /// every pair.
    mod reference {
        pub fn l2_norm(v: &[f32]) -> f32 {
            v.iter()
                .map(|x| (*x as f64) * (*x as f64))
                .sum::<f64>()
                .sqrt() as f32
        }

        pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
            let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
            for (&x, &y) in a.iter().zip(b) {
                dot += x as f64 * y as f64;
                na += x as f64 * x as f64;
                nb += y as f64 * y as f64;
            }
            if na == 0.0 && nb == 0.0 {
                return 0.0;
            }
            if na == 0.0 || nb == 0.0 {
                return 1.0;
            }
            (1.0 - dot / (na.sqrt() * nb.sqrt())) as f32
        }

        pub fn cosine_margin(rows: &[f32], k: usize, d: usize) -> f32 {
            if k < 2 {
                return 1.0;
            }
            let mut margin = f32::INFINITY;
            for i in 0..k {
                for j in (i + 1)..k {
                    let (a, b) = (&rows[i * d..][..d], &rows[j * d..][..d]);
                    margin = margin.min(cosine_distance(a, b));
                }
            }
            margin
        }
    }

    /// Bit equality, any NaN matching any NaN (Rust leaves NaN payloads
    /// unspecified).
    fn same_bits(got: f32, want: f32, what: &str) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: {got:e} ({:#010x}), the pairwise loop gives {want:e} ({:#010x})",
            got.to_bits(),
            want.to_bits(),
        );
    }

    /// What a vector of the wall is filled with.
    #[derive(Debug, Clone, Copy)]
    enum Fill {
        /// Small integers: the binary engine's vote counts and ±1/0 deltas.
        Counts,
        /// Floats in `(-1, 1)` with `±0.0` and subnormals mixed in.
        Floats,
        /// [`Fill::Floats`] with `±3e38` entries: squares only `f64` holds.
        Huge,
        /// [`Fill::Floats`] with `±inf` and NaN entries.
        NonFinite,
    }

    const FILLS: [Fill; 4] = [Fill::Counts, Fill::Floats, Fill::Huge, Fill::NonFinite];

    /// A deterministic stream of test values (xorshift64).
    struct Values(u64);

    impl Values {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn value(&mut self, fill: Fill) -> f32 {
            let (pick, bits) = (self.next() % 16, self.next());
            let unit = (bits % 2001) as f32 / 1000.0 - 1.0;
            match (fill, pick) {
                (Fill::Counts, _) => (bits % 41) as f32 - 20.0,
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                (_, 2) => f32::from_bits((bits % 0x0080_0000) as u32),
                (_, 3) => -1.0e-40,
                (Fill::Huge, 4) => 3.0e38,
                (Fill::Huge, 5) => -3.0e38,
                (Fill::NonFinite, 4) => f32::INFINITY,
                (Fill::NonFinite, 5) => f32::NEG_INFINITY,
                (Fill::NonFinite, 6) => f32::NAN,
                _ => unit,
            }
        }

        fn vector(&mut self, len: usize, fill: Fill) -> Vec<f32> {
            (0..len).map(|_| self.value(fill)).collect()
        }
    }

    #[test]
    fn geometry_is_bit_identical_to_the_pairwise_loops() {
        let mut values = Values(0x9E37_79B9_7F4A_7C15);
        for k in [0, 1, 2, 3, 7, 8, 9, 26] {
            for d in [1, 63, 64, 65, 1000, 10_000] {
                for fill in FILLS {
                    let mut rows = values.vector(k * d, fill);
                    // All-zero rows: the degenerate-distance conventions,
                    // one zero row against a live one and two together.
                    for zeroed in [1, 5, 6] {
                        if zeroed < k && !matches!(fill, Fill::NonFinite) {
                            rows[zeroed * d..][..d].fill(0.0);
                        }
                    }
                    let what = format!("k={k} d={d} {fill:?}");
                    let got = geometry_of(&rows, k, d);
                    assert_eq!(got.norms.len(), k, "{what}");
                    for (class, &norm) in got.norms.iter().enumerate() {
                        let want = reference::l2_norm(&rows[class * d..][..d]);
                        same_bits(norm, want, &format!("{what}: norm {class}"));
                    }
                    let want = reference::cosine_margin(&rows, k, d);
                    same_bits(got.cosine_margin, want, &format!("{what}: margin"));
                    if k == 0 {
                        continue;
                    }
                    // The public wrappers agree with the fused pass.
                    let model = model_with(&rows, k, d);
                    let whole = class_geometry(&model);
                    let norms = row_norms(&model).unwrap();
                    assert_eq!(norms.len(), k, "{what}");
                    for ((&alone, &fused), &core) in norms.iter().zip(&whole.norms).zip(&got.norms)
                    {
                        same_bits(alone, core, &format!("{what}: row_norms"));
                        same_bits(fused, core, &format!("{what}: class_geometry"));
                    }
                    let margin = cosine_margin(&model).unwrap();
                    same_bits(margin, got.cosine_margin, &format!("{what}: cosine_margin"));
                    same_bits(
                        whole.cosine_margin,
                        margin,
                        &format!("{what}: fused margin"),
                    );
                }
            }
        }
    }

    #[test]
    fn margin_ignores_nan_pairs_like_the_fold_it_replaced() {
        // Row 1 is NaN: both of its pairs score NaN and `min` drops them,
        // leaving the one finite pair; with every pair NaN nothing is
        // ever taken and the fold's start shows.
        let nan = f32::NAN;
        let got = geometry_of(&[1.0, 0.0, nan, nan, 0.0, 1.0], 3, 2);
        assert_eq!(got.cosine_margin, 1.0);
        assert!(got.norms[1].is_nan());
        let got = geometry_of(&[nan, 0.0, nan, nan, 0.0, nan], 3, 2);
        assert_eq!(got.cosine_margin, f32::INFINITY);
    }

    #[test]
    fn distances_are_bit_identical_to_the_pairwise_loop() {
        let mut values = Values(0xD1B5_4A32_D192_ED03);
        for clients in [0, 1, 2, 3, 5, 6, 20, 33] {
            for d in [0, 1, 63, 64, 65, 1000, 10_000] {
                for fill in FILLS {
                    let what = format!("clients={clients} d={d} {fill:?}");
                    let shared = values.vector(d, fill);
                    let mut rows: Vec<Vec<f32>> =
                        (0..clients).map(|_| values.vector(d, fill)).collect();
                    if clients > 2 && !matches!(fill, Fill::NonFinite) {
                        rows[2].fill(0.0);
                    }
                    let got = cosine_distances(&rows, &shared);
                    assert_eq!(got.len(), clients, "{what}");
                    for (client, (&got, row)) in got.iter().zip(&rows).enumerate() {
                        let want = reference::cosine_distance(row, &shared);
                        same_bits(got, want, &format!("{what}: client {client}"));
                        same_bits(cosine_distance(row, &shared), want, &what);
                    }
                    // Against an all-zero aggregate: 0.0 or 1.0 apiece.
                    let still = vec![0.0f32; d];
                    for (&got, row) in cosine_distances(&rows, &still).iter().zip(&rows) {
                        let want = reference::cosine_distance(row, &still);
                        same_bits(got, want, &format!("{what}: zero aggregate"));
                    }
                }
            }
        }
    }

    #[test]
    fn distances_cut_each_pair_to_the_length_it_shares() {
        let mut values = Values(7);
        let shared = values.vector(100, Fill::Floats);
        let rows: Vec<Vec<f32>> = [100, 100, 64, 64, 130, 0, 100, 1, 1, 100]
            .iter()
            .map(|&len| values.vector(len, Fill::Floats))
            .collect();
        for (got, row) in cosine_distances(&rows, &shared).iter().zip(&rows) {
            let want = reference::cosine_distance(row, &shared);
            same_bits(*got, want, &format!("{} values", row.len()));
        }
    }

    #[test]
    fn l2_norm_is_the_one_chain_the_iterator_sum_ran() {
        let mut values = Values(11);
        for d in [0, 1, 2, 63, 64, 65, 1000] {
            for fill in FILLS {
                let v = values.vector(d, fill);
                same_bits(
                    l2_norm(&v),
                    reference::l2_norm(&v),
                    &format!("d={d} {fill:?}"),
                );
            }
        }
    }

    #[test]
    fn fused_delta_pass_matches_the_two_it_replaced() {
        let mut values = Values(13);
        let mut out = vec![9.0; 3];
        for (a_len, b_len) in [(0, 0), (0, 5), (1, 1), (65, 65), (1000, 1000), (70, 64)] {
            for fill in FILLS {
                let (a, b) = (values.vector(a_len, fill), values.vector(b_len, fill));
                let rate = delta_and_sign_flip_rate(&a, &b, &mut out);
                same_bits(rate, sign_flip_rate_slices(&a, &b), "flip rate");
                assert_eq!(out.len(), a_len.min(b_len));
                for ((&got, &x), &y) in out.iter().zip(&a).zip(&b) {
                    same_bits(got, x - y, "delta");
                }
            }
        }
    }

    /// The float views `binary_round` is specified against: counters
    /// cast to `f32`, an arrival one `±1.0` per sign bit, `0.0` if erased.
    fn float_view(counts: &[i32]) -> Vec<f32> {
        counts.iter().map(|&count| count as f32).collect()
    }

    fn wire_view(words: &[u64], erased: &[u64], k: usize, d: usize) -> Vec<f32> {
        let stride = words_for(d);
        let mut view = Vec::with_capacity(k * d);
        for class in 0..k {
            for i in 0..d {
                let (w, bit) = (class * stride + i / WORD_BITS, i % WORD_BITS);
                view.push(if erased[w] >> bit & 1 == 1 {
                    0.0
                } else if words[w] >> bit & 1 == 1 {
                    1.0
                } else {
                    -1.0
                });
            }
        }
        view
    }

    #[test]
    fn binary_round_is_bit_identical_to_the_float_kernels() {
        use crate::packed::PackedHdModel;
        use crate::simd::NARROW_MAX;
        let mut values = Values(0xA076_1D64_78BD_642F);
        let max = i32::from(NARROW_MAX);
        for (k, d) in [
            (1, 1),
            (2, 15),
            (3, 16),
            (5, 63),
            (26, 64),
            (5, 65),
            (26, 1000),
            (26, 10_000),
        ] {
            // Vote-sized counts, counts over the whole narrow range with
            // both ends present, and a model nothing has voted on.
            for spread in [3, max, 0] {
                let mut counts = |pin: bool| -> Vec<i32> {
                    let mut counts: Vec<i32> = (0..k * d)
                        .map(|_| (values.next() % (2 * spread as u64 + 1)) as i32 - spread)
                        .collect();
                    if pin {
                        counts[0] = spread;
                        counts[k * d - 1] = -spread;
                    }
                    counts
                };
                let (now, start) = (counts(true), counts(false));
                let stride = words_for(d);
                // Nothing erased, everything erased, a random mask; pad
                // bits are noise in the sign words and the mask alike.
                let arrivals: Vec<(Vec<u64>, Vec<u64>)> = [0, u64::MAX, 1, 1, 1]
                    .into_iter()
                    .map(|mask| {
                        let words = (0..k * stride).map(|_| values.next()).collect();
                        let erased = (0..k * stride)
                            .map(|_| if mask == 1 { values.next() } else { mask })
                            .collect();
                        (words, erased)
                    })
                    .collect();
                let what = format!("k={k} d={d} spread={spread}");

                let mut views = [NarrowView::default(), NarrowView::default()];
                for (view, counts) in views.iter_mut().zip([&now, &start]) {
                    let model = PackedHdModel::from_counts(counts.clone(), k, d).unwrap();
                    assert!(model.narrow_into(view), "{what}");
                }
                let wire = arrivals.iter().map(|(w, e)| (w.as_slice(), e.as_slice()));
                let got = binary_round(&views[0], &views[1], wire);

                let (now, start) = (float_view(&now), float_view(&start));
                let geometry = geometry_of(&now, k, d);
                for (&got, &want) in got.geometry.norms.iter().zip(&geometry.norms) {
                    same_bits(got, want, &format!("{what}: norm"));
                }
                assert_eq!(got.geometry.norms.len(), k, "{what}");
                same_bits(
                    got.geometry.cosine_margin,
                    geometry.cosine_margin,
                    &format!("{what}: margin"),
                );
                let mut aggregate = Vec::new();
                let rate = delta_and_sign_flip_rate(&now, &start, &mut aggregate);
                same_bits(got.sign_flip_rate, rate, &format!("{what}: sign flips"));
                let deltas: Vec<Vec<f32>> = arrivals
                    .iter()
                    .map(|(words, erased)| {
                        let view = wire_view(words, erased, k, d);
                        view.iter().zip(&start).map(|(&v, &b)| v - b).collect()
                    })
                    .collect();
                let distances = cosine_distances(&deltas, &aggregate);
                assert_eq!(got.distances.len(), arrivals.len(), "{what}");
                for (&got, &want) in got.distances.iter().zip(&distances) {
                    same_bits(got, want, &format!("{what}: distance"));
                }
            }
        }
    }

    #[test]
    fn binary_round_without_arrivals_or_a_vote_reports_a_still_model() {
        use crate::packed::PackedHdModel;
        let model = PackedHdModel::from_counts(vec![2, -1, 0, 3, 1, 1], 2, 3).unwrap();
        let mut view = NarrowView::default();
        assert!(model.narrow_into(&mut view));
        let got = binary_round(&view, &view, []);
        assert_eq!(got.sign_flip_rate, 0.0);
        assert!(got.distances.is_empty());
        let floats = float_view(&[2, -1, 0, 3, 1, 1]);
        assert_eq!(got.geometry, geometry_of(&floats, 2, 3));
        // An arrival against an aggregate that did not move: distance 1,
        // or 0 if the arrival's own delta is zero too.
        let all = [u64::MAX; 2];
        let none = [0u64; 2];
        assert_eq!(
            binary_round(&view, &view, [(&all[..], &none[..])]).distances,
            [1.0]
        );
        let blank = PackedHdModel::new(2, 3).unwrap();
        assert!(blank.narrow_into(&mut view));
        assert_eq!(
            binary_round(&view, &view, [(&none[..], &all[..])]).distances,
            [0.0]
        );
    }

    #[test]
    fn row_norms_are_per_class_l2() {
        let m = model_with(&[3.0, 4.0, 0.0, 0.0], 2, 2);
        let norms = row_norms(&m).unwrap();
        assert!((norms[0] - 5.0).abs() < 1e-6);
        assert_eq!(norms[1], 0.0);
    }

    #[test]
    fn saturation_counts_words_near_clip() {
        // Gains pin each row's max at the clip; the 0.5 entries land at
        // half scale, well outside a 10% epsilon band.
        let m = model_with(&[1.0, 0.5, -1.0, 0.5], 2, 2);
        let f = saturation_fraction(&m, 8, 0.1).unwrap();
        assert!((f - 0.5).abs() < 1e-6, "fraction {f}");
        // With epsilon = 1 every nonzero word counts.
        assert!(saturation_fraction(&m, 8, 1.0).unwrap() >= 0.99);
        assert!(saturation_fraction(&m, 1, 0.1).is_err());
    }

    #[test]
    fn all_zero_model_has_zero_saturation() {
        let m = HdModel::new(2, 4).unwrap();
        assert_eq!(saturation_fraction(&m, 8, 0.05).unwrap(), 0.0);
    }

    #[test]
    fn cosine_distance_conventions() {
        assert!(cosine_distance(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        assert_eq!(cosine_distance(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn margin_detects_aligned_prototypes() {
        let orth = model_with(&[1.0, 0.0, 0.0, 1.0], 2, 2);
        assert!((cosine_margin(&orth).unwrap() - 1.0).abs() < 1e-6);
        let aligned = model_with(&[1.0, 1.0, 2.0, 2.0], 2, 2);
        assert!(cosine_margin(&aligned).unwrap() < 1e-6);
        let single = model_with(&[1.0, 2.0], 1, 2);
        assert_eq!(cosine_margin(&single).unwrap(), 1.0);
    }

    #[test]
    fn sign_flips_use_sign_zero_is_positive() {
        // 0.0 → +, so 0.0 vs -1.0 flips but 0.0 vs 2.0 does not.
        assert_eq!(sign_flip_rate_slices(&[0.0, 0.0], &[2.0, -1.0]), 0.5);
        assert_eq!(sign_flip_rate_slices(&[], &[]), 0.0);
        let a = model_with(&[1.0, -1.0], 1, 2);
        let b = model_with(&[1.0, 1.0], 1, 2);
        assert!((sign_flip_rate(&a, &b).unwrap() - 0.5).abs() < 1e-6);
        let wrong = model_with(&[1.0, 1.0, 1.0], 1, 3);
        assert!(sign_flip_rate(&a, &wrong).is_err());
    }
}
