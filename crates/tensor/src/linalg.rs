//! Matrix multiplication and related rank-2 linear algebra.
//!
//! [`Tensor::matmul_nt`] is the one kernel under `sign(Φz)` encoding, the
//! conv (im2col · Wᵀ) and linear forward passes and HD scoring. It is a
//! packed, register-blocked GEMM in safe portable Rust. The operand with
//! fewer rows is interleaved, `MC` rows and `KC` columns at a time, into
//! `[KC][MR]` panels; the other is read in place, `NR` rows at a time,
//! once per `MC` packed rows; and an `MR × NR` micro-kernel keeps one
//! accumulator per output in registers. For the encoder that packs the
//! feature batch and streams Φ once; for a convolution it packs the
//! filters and streams the im2col buffer once. The only scratch is the
//! `min(m, n, MC) × min(k, KC)` panel buffer. [`matmul_nt_into`] is the
//! kernel's borrowed entry — rows of one matrix against rows of another,
//! into the caller's output and panel buffers — and [`Tensor::matmul_nt`]
//! wraps it.
//!
//! **Reduction-order contract.** Every output `out[i][j]` is one chain
//! `((-0.0 + a[i][0]·b[j][0]) + a[i][1]·b[j][1]) + …` in ascending `k`,
//! a rounded multiply then a rounded add — exactly what
//! `a_row.iter().zip(b_row).map(|(x, y)| x * y).sum()` computes (`-0.0`
//! is where `f32`'s `Sum` starts). The kernel vectorises *across*
//! outputs, never *within* a dot product, so the result is bit-identical
//! for every shape and on every target (up to which NaN payload a NaN
//! output carries, which Rust leaves unspecified); there is no FMA, no
//! split `k` sum, no dispatch and therefore nothing for a SIMD/scalar
//! parity suite to compare. Rows longer than `KC` are taken `KC` columns
//! at a time, and each chain picks up from the `f32` partial sum it left
//! in the output — the same chain, parked in memory once per `KC` terms.
//! The tests below hold it to the naive loop bit for bit.
//!
//! [`Tensor::matmul`] and [`Tensor::matmul_tn`] are lane-parallel axpy
//! loops whose zero-skip matters for non-finite inputs; they are left as
//! they are.

use crate::{Result, Tensor, TensorError};

/// Rows per packed panel: the lanes the micro-kernel vectorises over (two
/// 4-lane registers on the x86-64 and aarch64 baselines).
const MR: usize = 8;
/// Streamed rows per register tile: `MR × NR` accumulators fill 8 of the
/// 16 baseline vector registers, leaving room for the panel column and the
/// broadcast values.
const NR: usize = 4;
/// Rows packed at a time. With `KC` bounds the scratch (an L2-sized block
/// at the encoder's `k = 617`) and sets how often the other operand is
/// re-read: once per `MC` packed rows.
const MC: usize = 64;
/// Columns packed at a time, so that the scratch is at most `MC × KC`
/// floats however long the rows are and an `MR`-row panel (32 KiB) stays
/// in L1 at HD widths. Every `k` the encoder and the CNN use is below it.
const KC: usize = 1024;

/// `out[p · lane_stride + s · row_stride] = Σ_q lanes[p][q] · streamed[s][q]`
/// for row-major `lanes: [_, k]` and `streamed: [_, k]`, `k > 0`.
///
/// `lanes` is packed and vectorised over, `streamed` is read in place.
/// Which operand of `matmul_nt` plays which part changes the work, not
/// the result: every output is the same chain over `q` either way.
/// `packed` is grown to the panel buffer's size and otherwise reused.
fn gemm_nt(
    lanes: &[f32],
    streamed: &[f32],
    k: usize,
    out: &mut [f32],
    lane_stride: usize,
    row_stride: usize,
    packed: &mut Vec<f32>,
) {
    let lane_count = lanes.len() / k;
    let panel_len = MC.min(lane_count).next_multiple_of(MR) * KC.min(k);
    if packed.len() < panel_len {
        packed.resize(panel_len, 0.0);
    }
    for (block, lane_block) in lanes.chunks(MC * k).enumerate() {
        // After the first `KC` columns every chain picks up from the
        // partial sum it left in `out`.
        for q0 in (0..k).step_by(KC) {
            let columns = q0..k.min(q0 + KC);
            let (kc, resume) = (columns.len(), q0 > 0);
            let panels = &mut packed[..(lane_block.len() / k).next_multiple_of(MR) * kc];
            for (src, panel) in lane_block
                .chunks(MR * k)
                .zip(panels.chunks_exact_mut(MR * kc))
            {
                pack_panel(src, k, columns.clone(), panel);
            }
            for (group, row_group) in streamed.chunks(NR * k).enumerate() {
                // A short last group repeats its first row: the tile computes
                // those sums and stores only the real ones.
                let mut rows = [&row_group[columns.clone()]; NR];
                for (slot, row) in rows.iter_mut().zip(row_group.chunks_exact(k)) {
                    *slot = &row[columns.clone()];
                }
                let live_rows = row_group.len() / k;
                for (index, panel) in panels.chunks_exact(MR * kc).enumerate() {
                    let lane0 = block * MC + index * MR;
                    let live = (lane_count - lane0).min(MR);
                    let tile_out = &mut out[lane0 * lane_stride + group * NR * row_stride..];
                    let strides = (lane_stride, row_stride);
                    // A short last panel runs the same kernel over as few lanes
                    // as hold it, so a single row costs one lane, not eight.
                    match live {
                        1 => tile::<1>(panel, rows, tile_out, strides, live, live_rows, resume),
                        2..=4 => tile::<4>(panel, rows, tile_out, strides, live, live_rows, resume),
                        _ => tile::<MR>(panel, rows, tile_out, strides, live, live_rows, resume),
                    }
                }
            }
        }
    }
}

/// Interleaves `columns` of up to `MR` rows of `k` values into a
/// `[columns][MR]` panel. Lanes past the last row keep what they held:
/// their sums are never stored.
fn pack_panel(rows: &[f32], k: usize, columns: std::ops::Range<usize>, panel: &mut [f32]) {
    let (panel_columns, _) = panel.as_chunks_mut::<MR>();
    for (lane, row) in rows.chunks_exact(k).enumerate() {
        for (column, &value) in panel_columns.iter_mut().zip(&row[columns.clone()]) {
            column[lane] = value;
        }
    }
}

/// Runs the micro-kernel over the first `L` lanes of one panel against
/// `NR` streamed rows and stores the `live_lanes × live_rows` real sums at
/// the given `(lane, row)` strides. With `resume` the chains start from
/// the sums already there instead of from `-0.0`.
fn tile<const L: usize>(
    panel: &[f32],
    rows: [&[f32]; NR],
    out: &mut [f32],
    (lane_stride, row_stride): (usize, usize),
    live_lanes: usize,
    live_rows: usize,
    resume: bool,
) {
    let parked = resume.then(|| {
        let mut sums = [[-0.0f32; L]; NR];
        for (row, sums_row) in sums.iter_mut().enumerate().take(live_rows) {
            for (lane, sum) in sums_row.iter_mut().enumerate().take(live_lanes) {
                *sum = out[lane * lane_stride + row * row_stride];
            }
        }
        sums
    });
    let acc = micro_kernel::<L>(panel.as_chunks::<MR>().0, rows, parked.as_ref());
    for (row, acc_row) in acc.iter().enumerate().take(live_rows) {
        for (lane, &sum) in acc_row.iter().enumerate().take(live_lanes) {
            out[lane * lane_stride + row * row_stride] = sum;
        }
    }
}

/// `acc[s][p] = start[s][p] + Σ_q panel[q][p] · rows[s][q]`: `L × NR`
/// independent chains, each ascending in `q` from its `start` (`-0.0`
/// without one) with a separate multiply and add. The two inner loops
/// have constant trip counts and unroll into `NR` broadcast-multiply-adds
/// over the panel column.
///
/// Out of line so that its code does not depend on the caller: inlined
/// next to the strided store it was seen to compile to scalar code.
#[inline(never)]
fn micro_kernel<const L: usize>(
    panel: &[[f32; MR]],
    rows: [&[f32]; NR],
    start: Option<&[[f32; L]; NR]>,
) -> [[f32; L]; NR] {
    let mut acc = start.copied().unwrap_or([[-0.0f32; L]; NR]);
    let [r0, r1, r2, r3] = rows;
    for ((((column, &x0), &x1), &x2), &x3) in panel.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        for (acc_row, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (sum, &lane) in acc_row.iter_mut().zip(column) {
                *sum += lane * x;
            }
        }
    }
    acc
}

/// `out[i][j] = a[i] · b[j]` for row-major `a: [m, k]`, `b: [n, k]` and
/// `out: [m, n]`, all borrowed: the slice-level entry to the kernel under
/// [`Tensor::matmul_nt`], for callers that score rows of tensors they
/// already hold into a buffer they reuse. `panels` is the kernel's
/// scratch; it is grown to `min(m, n, 64)` rows (rounded up to 8) of
/// `min(k, 1024)` floats and never shrunk, so one `Vec` serves any number
/// of calls with at most one allocation per shape. Each output is the
/// chain the [module docs](self) describe.
///
/// # Errors
///
/// Returns an error if `a` or `b` is not a whole number of `k`-wide rows
/// or `out` is not `m × n` long. With `k = 0` both operands must be empty
/// and every output is the empty sum, `-0.0`.
pub fn matmul_nt_into(
    a: &[f32],
    b: &[f32],
    k: usize,
    out: &mut [f32],
    panels: &mut Vec<f32>,
) -> Result<()> {
    if k == 0 && a.is_empty() && b.is_empty() {
        out.fill(-0.0);
        return Ok(());
    }
    let (m, n) = (a.len().checked_div(k), b.len().checked_div(k));
    let (Some(m), Some(n)) = (m, n) else {
        return Err(TensorError::InvalidArgument(
            "matmul_nt_into: rows of zero width cannot hold values".into(),
        ));
    };
    if a.len() != m * k || b.len() != n * k || out.len() != m * n {
        return Err(TensorError::InvalidArgument(format!(
            "matmul_nt_into: {} and {} values are not [m, {k}] and [n, {k}] with {} outputs",
            a.len(),
            b.len(),
            out.len()
        )));
    }
    // Pack whichever operand has fewer rows: less to interleave, less
    // scratch, and the larger one is then read once per `MC` of them.
    if n < m {
        gemm_nt(b, a, k, out, 1, n, panels);
    } else {
        gemm_nt(a, b, k, out, n, 1, panels);
    }
    Ok(())
}

impl Tensor {
    fn as_matrix(&self) -> Result<(usize, usize)> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        Ok((self.dims()[0], self.dims()[1]))
    }

    /// Matrix product of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not rank 2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.as_matrix()?;
        let (k2, n) = other.as_matrix()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [k2, n],
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self^T * other` without materializing the transpose:
    /// `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// Used by linear-layer weight gradients (`x^T · dy`).
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        let (k, m) = self.as_matrix()?;
        let (k2, n) = other.as_matrix()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [k2, n],
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                if a_pi == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_pi * b_pj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self * other^T`: `[m, k] x [n, k]^T -> [m, n]`.
    ///
    /// Used by linear-layer input gradients (`dy · W`) when the weight is
    /// stored `[out, in]`, by the conv and linear forward passes, by the
    /// random-projection encoder and by HD similarity against a prototype
    /// matrix. Each output is the sequential `f32` sum of its products in
    /// ascending `k` (see the [module docs](self) for the contract).
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.as_matrix()?;
        let (n, k2) = other.as_matrix()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [k2, n],
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_nt_into(
            self.as_slice(),
            other.as_slice(),
            k,
            &mut out,
            &mut Vec::new(),
        )?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix–vector product: `[m, n] x [n] -> [m]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        let (m, n) = self.as_matrix()?;
        if v.shape().rank() != 1 || v.len() != n {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        let a = self.as_slice();
        let x = v.as_slice();
        let out = (0..m)
            .map(|i| {
                a[i * n..(i + 1) * n]
                    .iter()
                    .zip(x)
                    .map(|(p, q)| p * q)
                    .sum()
            })
            .collect();
        Tensor::from_vec(out, &[m])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = self.as_matrix()?;
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Outer product of two rank-1 tensors: `[m] x [n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either input is not rank 1.
    pub fn outer(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape().rank() != 1 || other.shape().rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: self.shape().rank().max(other.shape().rank()),
            });
        }
        let (m, n) = (self.len(), other.len());
        let mut out = Vec::with_capacity(m * n);
        for &a in self.as_slice() {
            for &b in other.as_slice() {
                out.push(a * b);
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn m(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn matmul_known_values() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = m(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = m(&[0.0; 6], 2, 3);
        let b = m(&[0.0; 6], 2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = m(&[1.0, 0.0, -1.0, 2.0, 0.5, 1.0], 3, 2);
        let expect = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(a.matmul_tn(&b).unwrap(), expect);
    }

    #[test]
    fn matmul_nt_equals_matmul_transpose() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = m(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        let expect = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(a.matmul_nt(&b).unwrap(), expect);
    }

    /// The loop `matmul_nt` was before it was blocked, kept as the
    /// reference: one sequential `.sum()` per output.
    fn naive_nt(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[0];
        let (a, b) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                out[i * n + j] = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
        }
        out
    }

    /// Normal draws (so any other association of a sum rounds
    /// differently); with `specials`, one value in sixteen is a signed
    /// zero, a subnormal, an infinity or a NaN.
    fn fill(rows: usize, cols: usize, rng: &mut StdRng, specials: bool) -> Tensor {
        const SPECIALS: [f32; 7] = [
            0.0,
            -0.0,
            1.0e-41,
            -1.0e-41,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut t = Tensor::randn(&[rows, cols], 30.0, rng);
        if specials {
            for x in t.as_mut_slice() {
                if rng.gen_range(0..16) == 0 {
                    *x = SPECIALS[rng.gen_range(0..SPECIALS.len())];
                }
            }
        }
        t
    }

    fn assert_bit_identical(a: &Tensor, b: &Tensor) {
        let got = a.matmul_nt(b).unwrap();
        let want = naive_nt(a, b);
        assert_eq!(got.dims(), &[a.dims()[0], b.dims()[0]]);
        for (at, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{:?} x {:?}^T differs at {at}: {g:e} ({:#010x}) vs naive {w:e} ({:#010x})",
                a.dims(),
                b.dims(),
                g.to_bits(),
                w.to_bits(),
            );
        }
    }

    #[test]
    fn matmul_nt_is_bit_identical_to_the_sequential_sum_at_every_blocking_edge() {
        let mut edges = vec![0, 1, 2 * MC + 3];
        for block in [MR, NR, MC] {
            edges.extend([block - 1, block, block + 1]);
        }
        edges.sort_unstable();
        edges.dedup();
        let mut rng = StdRng::seed_from_u64(13);
        for &m in &edges {
            for &n in &edges {
                for &k in &edges {
                    for specials in [false, true] {
                        let a = fill(m, k, &mut rng, specials);
                        let b = fill(n, k, &mut rng, specials);
                        assert_bit_identical(&a, &b);
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_nt_is_bit_identical_on_the_encoder_shape() {
        // One client of the paper's ISOLET set-up: 26 samples, 617
        // features, d = 10 000.
        let mut rng = StdRng::seed_from_u64(617);
        let a = fill(26, 617, &mut rng, false);
        let phi = fill(10_000, 617, &mut rng, false);
        assert_bit_identical(&a, &phi);
    }

    #[test]
    fn matmul_nt_is_bit_identical_when_rows_span_column_slices() {
        // Chains parked in the output between `KC`-column slices, with
        // every lane count the tiles distinguish on either side.
        let mut rng = StdRng::seed_from_u64(1024);
        for k in [KC - 1, KC, KC + 1, 2 * KC + 3] {
            for (m, n) in [(1, 1), (1, 5), (3, 2), (8, 10), (9, 4), (MC + 1, 7)] {
                for specials in [false, true] {
                    let a = fill(m, k, &mut rng, specials);
                    let b = fill(n, k, &mut rng, specials);
                    assert_bit_identical(&a, &b);
                    assert_bit_identical(&b, &a);
                }
            }
        }
    }

    #[test]
    fn matmul_nt_into_scores_borrowed_rows_and_reuses_its_panels() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = fill(11, 70, &mut rng, false);
        let b = fill(6, 70, &mut rng, false);
        let want = naive_nt(&a, &b);
        let mut panels = Vec::new();
        // Rows 3..11 of `a` against rows 1..3 of `b`, then all of both,
        // through one scratch with stale panels in it.
        let mut part = [0.0f32; 8 * 2];
        matmul_nt_into(
            &a.as_slice()[3 * 70..],
            &b.as_slice()[70..3 * 70],
            70,
            &mut part,
            &mut panels,
        )
        .unwrap();
        for (i, row) in part.chunks_exact(2).enumerate() {
            assert_eq!(row, &want[(i + 3) * 6 + 1..(i + 3) * 6 + 3]);
        }
        let capacity = panels.capacity();
        let mut all = vec![0.0f32; 11 * 6];
        matmul_nt_into(a.as_slice(), b.as_slice(), 70, &mut all, &mut panels).unwrap();
        assert_eq!(all, want);
        assert_eq!(
            panels.capacity(),
            capacity,
            "6 lanes fit the 2-lane call's panel"
        );
        assert_eq!(a.matmul_nt(&b).unwrap().as_slice(), &want[..]);
    }

    #[test]
    fn matmul_nt_into_rejects_ragged_operands() {
        let (a, b, mut panels) = ([1.0f32; 12], [1.0f32; 8], Vec::new());
        assert!(matmul_nt_into(&a, &b, 4, &mut [0.0; 6], &mut panels).is_ok());
        assert!(matmul_nt_into(&a, &b, 4, &mut [0.0; 5], &mut panels).is_err());
        assert!(matmul_nt_into(&a, &b, 5, &mut [0.0; 2], &mut panels).is_err());
        assert!(matmul_nt_into(&a, &b, 0, &mut [0.0; 6], &mut panels).is_err());
        let mut empty_sums = [1.0f32; 6];
        matmul_nt_into(&[], &[], 0, &mut empty_sums, &mut panels).unwrap();
        assert!(empty_sums
            .iter()
            .all(|s| s.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn matvec_known_values() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let v = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        let out = a.matvec(&v).unwrap();
        assert_eq!(out.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn outer_product() {
        let u = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let v = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let o = u.outer(&v).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }
}
