//! Matrix multiplication and related rank-2 linear algebra.
//!
//! Every product in the workspace — `sign(Φz)` encoding, HD scoring, the
//! linear layers and all four products of a convolution — runs on one
//! register-blocked micro-kernel in safe portable Rust, driven by
//! [`gemm_into`]. One operand supplies the **lanes** the kernel vectorises
//! over, the other is **streamed**, `NR` rows at a time, and an `MR × NR`
//! tile keeps one accumulator per output in registers:
//!
//! * [`Lanes::Rows`] are interleaved, `MC` rows and `KC` columns at a
//!   time, into `[KC][MR]` panels — the only scratch, at most
//!   `min(rows, MC) × min(k, KC)` floats. [`matmul_nt_into`] packs
//!   whichever operand has fewer rows: the feature batch under the
//!   encoder, which then streams Φ once.
//! * [`Lanes::Columns`] already lie side by side in memory and are read
//!   where they are; only a last panel of fewer than `MR` columns is
//!   copied out. This is how a convolution reads its column buffer and
//!   its NCHW gradient planes.
//!
//! [`Tensor::matmul_nt`], [`Tensor::matmul`] and [`Tensor::matmul_tn`]
//! are wrappers that allocate the output and the scratch and give the
//! side with more outputs the lanes.
//!
//! **Reduction-order contract.** Every output is one [`Chain`]: its
//! products in ascending `k`, a rounded multiply then a rounded add, from
//! a stated start. [`Chain::Sum`] is
//! `((-0.0 + l[0]·s[0]) + l[1]·s[1]) + …` — exactly what
//! `l.iter().zip(s).map(|(x, y)| x * y).sum()` computes (`-0.0` is where
//! `f32`'s `Sum` starts). [`Chain::Axpy`] starts at `+0.0` and leaves out
//! every term whose factor from one named operand is zero, which is what
//! an axpy loop that skips zero multiplicands computes (`0 · ∞` never
//! enters the sum). The kernel does not branch on it: it adds `+0.0` in
//! place of such a term, and since a chain that starts at `+0.0` can
//! never hold `-0.0`, adding `+0.0` and adding nothing are the same. Nor
//! does it mask where it need not: a zero times a *finite* value is a
//! zero, which adds nothing either, so zero factors' terms are taken out
//! only where the other operand — the four streamed rows of a tile, or
//! the block's 64 lanes — holds an infinity or a NaN. Chains longer than
//! `KC` are taken `KC` terms at a time, and each picks up from the `f32`
//! partial sum it left in the output — the same chain, parked in memory
//! once per `KC` terms; [`Chain::AxpyResume`] lets a caller do the same
//! across calls.
//!
//! **What is guaranteed, and by what.** The kernel vectorises *across*
//! outputs, never *within* a chain, there is no FMA and no split `k` sum,
//! so the result is bit-identical for every shape, whichever operand
//! supplies the lanes, and on every target (up to which NaN payload a NaN
//! output carries, which Rust leaves unspecified). That covers the one
//! dispatch there is: on x86-64 the micro-kernel's body is compiled twice,
//! for the baseline target (4-lane SSE2) and under
//! `#[target_feature(enable = "avx2")]` (a panel column in one 8-lane
//! register). The wide twin runs where [`simd::backend`] — the detector
//! the packed HD kernels use, so `FHDNN_NO_SIMD=1` governs both — finds
//! the feature and the product is at least `WIDE_MIN_MACS` long, since
//! 256-bit multiplies lower the core's clock for everything that follows
//! them; shorter products stay on the baseline twin. The twins are
//! one source text with the same multiplies and adds in the same order;
//! only the width of an instruction differs. The tests below hold all of
//! it (in them every product goes the wide way): the naive loops bit for
//! bit on the detected backend and again in a child process forced scalar
//! (`the_naive_loops_hold_the_baseline_twin_too`), and the two twins of
//! every instantiation against each other over NaN, ±∞, ±0, 3e38 and
//! subnormal operands
//! (`both_twins_of_every_instantiation_agree_bit_for_bit`).

use crate::simd;
use crate::{Result, Tensor, TensorError};

/// Lanes per panel: what the micro-kernel vectorises over (two 4-lane
/// registers on the x86-64 and aarch64 baselines, one 8-lane register
/// under AVX2).
const MR: usize = 8;
/// Streamed rows per register tile: `MR × NR` accumulators fill 8 of the
/// 16 baseline vector registers, leaving room for the panel column and the
/// broadcast values.
const NR: usize = 4;
/// Lanes taken at a time. With `KC` bounds the scratch (an L2-sized block
/// at the encoder's `k = 617`) and sets how often the streamed operand is
/// re-read: once per `MC` lanes.
const MC: usize = 64;
/// Columns taken at a time, so that the scratch is at most `MC × KC`
/// floats however long the chains are and an `MR`-lane panel (32 KiB)
/// stays in L1 at HD widths. Every `k` the encoder and the CNN use is
/// below it.
const KC: usize = 1024;
/// Multiply-adds a product needs before it runs on the AVX2 twin: some
/// four milliseconds of baseline work. A core that has executed 256-bit
/// multiplies is clocked lower for milliseconds afterwards (4.2 → 3.0–3.3
/// GHz on the reference box), and all the code around the product pays
/// that, so the wide twin is for products long enough to earn it back —
/// the encoder's — and not for the sub-millisecond ones of a convolution,
/// between which a training step does as much work again outside the
/// kernel: there it widened the spread between a quiet and a busy host
/// more than it raised the median. Unit tests send every product the wide
/// way, so that the oracles hold both twins.
const WIDE_MIN_MACS: usize = if cfg!(test) { 1 } else { 1 << 26 };

/// How every output's chain of products starts and which terms it holds
/// (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// From `-0.0`, every term: the sequential `f32` sum of the products.
    Sum,
    /// From `+0.0`, the terms whose factor from the named operand is not
    /// zero.
    Axpy(Zeros),
    /// As [`Chain::Axpy`], from the value already in the output, which
    /// must be one such a chain left there.
    AxpyResume(Zeros),
}

/// The operand of [`gemm_into`] whose zeros a [`Chain::Axpy`] skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zeros {
    /// The operand supplying the lanes.
    Lanes,
    /// The streamed operand.
    Streamed,
}

impl Chain {
    /// The value a chain starts from; `None` picks up the output's.
    fn start(self) -> Option<f32> {
        match self {
            Chain::Sum => Some(-0.0),
            Chain::Axpy(_) => Some(0.0),
            Chain::AxpyResume(_) => None,
        }
    }

    /// The operand whose zero factors take their terms out of the chain.
    fn zeros(self) -> Option<Zeros> {
        match self {
            Chain::Sum => None,
            Chain::Axpy(zeros) | Chain::AxpyResume(zeros) => Some(zeros),
        }
    }
}

/// The operand of [`gemm_into`] whose values the kernel vectorises over:
/// `count` lanes of `k` values each.
#[derive(Debug, Clone, Copy)]
pub enum Lanes<'a> {
    /// Lane `p` is row `p` of a `[count, k]` matrix stored as `k / run`
    /// consecutive row-major `[count, run]` slabs — an NCHW batch read as
    /// `[channels, images · positions]` is that with `run` the positions
    /// of one image; `run = k` is plain row-major. Packed into panels.
    Rows {
        /// The slabs, `count · k` values.
        data: &'a [f32],
        /// Columns per slab; divides `k`.
        run: usize,
    },
    /// Lane `p` is column `p` of a row-major `[k, count]` matrix whose
    /// rows start `stride` values apart. Read in place.
    Columns {
        /// From row 0, column 0 to at least the last lane of row `k - 1`.
        data: &'a [f32],
        /// How many columns are lanes.
        count: usize,
        /// Distance between rows, at least `count`.
        stride: usize,
    },
}

/// Where [`gemm_into`] leaves the output for lane `p` and streamed row
/// `s`: at `data[p * lane_stride + s * row_stride]`.
#[derive(Debug)]
pub struct Out<'a> {
    /// The buffer written (and, for [`Chain::AxpyResume`], read).
    pub data: &'a mut [f32],
    /// Distance between the outputs of consecutive lanes.
    pub lane_stride: usize,
    /// Distance between the outputs of consecutive streamed rows.
    pub row_stride: usize,
}

/// `out[p, s] = Σ_q lane_p[q] · streamed[s][q]` for row-major
/// `streamed: [_, k]`, every output the one `chain` the
/// [module docs](self) describe. Which operand of a product supplies the
/// lanes changes the work, not the result. `panels` is the packing
/// scratch: grown to at most `min(count, 64)` lanes (rounded up to 8) of
/// `min(k, 1024)` floats and never shrunk, so one `Vec` serves any number
/// of calls; [`Lanes::Columns`] touch it only when `count` is not a
/// multiple of 8.
///
/// # Errors
///
/// Returns an error if an operand is not a whole number of `k`-long lanes
/// or rows, or `out` does not reach its last output. With `k = 0` both
/// operands must be empty and all of `out.data` is set to the chain's
/// start.
pub fn gemm_into(
    lanes: Lanes<'_>,
    streamed: &[f32],
    k: usize,
    out: Out<'_>,
    chain: Chain,
    panels: &mut Vec<f32>,
) -> Result<()> {
    let invalid = |what: &str| TensorError::InvalidArgument(format!("gemm_into: {what}"));
    if k == 0 {
        let (Lanes::Rows { data, .. } | Lanes::Columns { data, .. }) = lanes;
        if !data.is_empty() || !streamed.is_empty() {
            return Err(invalid("chains of zero length cannot hold values"));
        }
        if let Some(start) = chain.start() {
            out.data.fill(start);
        }
        return Ok(());
    }
    let count = match lanes {
        Lanes::Rows { data, run } => {
            if run == 0 || !k.is_multiple_of(run) || !data.len().is_multiple_of(k) {
                return Err(invalid("lane rows are not whole slabs of whole runs"));
            }
            data.len() / k
        }
        Lanes::Columns {
            data,
            count,
            stride,
        } => {
            if stride < count || (count > 0 && data.len() < (k - 1) * stride + count) {
                return Err(invalid("lane columns do not reach the last row"));
            }
            count
        }
    };
    if !streamed.len().is_multiple_of(k) {
        return Err(invalid("the streamed operand is not whole rows"));
    }
    let rows = streamed.len() / k;
    if count == 0 || rows == 0 {
        return Ok(());
    }
    if out.data.len() <= (count - 1) * out.lane_stride + (rows - 1) * out.row_stride {
        return Err(invalid("the output does not reach its last value"));
    }
    gemm(lanes, count, streamed, k, out, chain, panels);
    Ok(())
}

/// [`gemm_into`] past its checks.
fn gemm(
    lanes: Lanes<'_>,
    count: usize,
    streamed: &[f32],
    k: usize,
    out: Out<'_>,
    chain: Chain,
    packed: &mut Vec<f32>,
) {
    // Rows are packed a block at a time; of columns only a short last
    // panel is.
    let packed_lanes = match lanes {
        Lanes::Rows { .. } => MC.min(count).next_multiple_of(MR),
        Lanes::Columns { .. } if !count.is_multiple_of(MR) => MR,
        Lanes::Columns { .. } => 0,
    };
    if packed.len() < packed_lanes * KC.min(k) {
        packed.resize(packed_lanes * KC.min(k), 0.0);
    }
    let wide = count.saturating_mul(streamed.len()) >= WIDE_MIN_MACS;
    for block in (0..count).step_by(MC) {
        let block_lanes = MC.min(count - block);
        // After the first `KC` columns every chain picks up from the
        // partial sum it left in `out`.
        for q0 in (0..k).step_by(KC) {
            let columns = q0..k.min(q0 + KC);
            let kc = columns.len();
            let start = if q0 > 0 { None } else { chain.start() };
            match lanes {
                Lanes::Rows { data, run } => {
                    for (index, panel) in packed[..block_lanes.next_multiple_of(MR) * kc]
                        .chunks_exact_mut(MR * kc)
                        .enumerate()
                    {
                        let lane0 = block + index * MR;
                        let rows = lane0..count.min(lane0 + MR);
                        pack_rows(data, count, run, rows, columns.clone(), panel);
                    }
                }
                Lanes::Columns { data, stride, .. } if !block_lanes.is_multiple_of(MR) => {
                    let lanes = block + block_lanes / MR * MR..count;
                    pack_columns(&data[q0 * stride..], stride, lanes, &mut packed[..MR * kc]);
                }
                Lanes::Columns { .. } => {}
            }
            // The block's panels as the tiles read them: packed, or where
            // the columns lie.
            let mut panels = [Panel {
                columns: &[],
                stride: MR,
            }; MC / MR];
            let panels = &mut panels[..block_lanes.div_ceil(MR)];
            for (index, panel) in panels.iter_mut().enumerate() {
                let lane0 = block + index * MR;
                *panel = match lanes {
                    Lanes::Columns { data, stride, .. } if lane0 + MR <= count => Panel {
                        columns: &data[q0 * stride + lane0..],
                        stride,
                    },
                    Lanes::Columns { .. } => Panel {
                        columns: &packed[..MR * kc],
                        stride: MR,
                    },
                    Lanes::Rows { .. } => Panel {
                        columns: &packed[index * MR * kc..][..MR * kc],
                        stride: MR,
                    },
                };
            }
            let panels = &*panels;
            // A zero times a finite value is a zero, and adding a zero of
            // either sign to a chain that never holds `-0.0` adds nothing:
            // a zero factor's term needs taking out only where the other
            // factor may be an infinity or a NaN.
            let finite_lanes = chain.zeros() == Some(Zeros::Streamed)
                && panels.iter().all(|panel| panel.all_finite(kc));
            for (group, row_group) in streamed.chunks(NR * k).enumerate() {
                // A short last group repeats its first row: the tiles compute
                // those sums and store only the real ones.
                let mut rows = [&row_group[columns.clone()]; NR];
                for (slot, row) in rows.iter_mut().zip(row_group.chunks_exact(k)) {
                    *slot = &row[columns.clone()];
                }
                let finite_rows =
                    chain.zeros() == Some(Zeros::Lanes) && rows.iter().all(|row| all_finite(row));
                let masked = if finite_lanes || finite_rows {
                    None
                } else {
                    chain.zeros()
                };
                let first = block * out.lane_stride + group * NR * out.row_stride;
                let (block_out, strides) =
                    (&mut out.data[first..], (out.lane_stride, out.row_stride));
                let live = (block_lanes, row_group.len() / k);
                match masked {
                    None => {
                        tiles::<false, false>(panels, rows, block_out, strides, live, start, wide);
                    }
                    Some(Zeros::Lanes) => {
                        tiles::<true, false>(panels, rows, block_out, strides, live, start, wide);
                    }
                    Some(Zeros::Streamed) => {
                        tiles::<false, true>(panels, rows, block_out, strides, live, start, wide);
                    }
                }
            }
        }
    }
}

/// Whether no value is an infinity or a NaN (all exponent bits set).
fn all_finite(values: &[f32]) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    let non_finite = values.iter().fold(0, |any, x| {
        any | u32::from(x.to_bits() & EXPONENT == EXPONENT)
    });
    non_finite == 0
}

/// Interleaves `columns` of up to `MR` `rows` of a slabbed `[count, _]`
/// matrix (see [`Lanes::Rows`]) into a `[columns][MR]` panel. Lanes past
/// the last row keep what they held: their sums are never stored.
fn pack_rows(
    data: &[f32],
    count: usize,
    run: usize,
    rows: std::ops::Range<usize>,
    columns: std::ops::Range<usize>,
    panel: &mut [f32],
) {
    let (panel_columns, _) = panel.as_chunks_mut::<MR>();
    for (lane, row) in rows.enumerate() {
        let mut column = columns.start;
        while column < columns.end {
            let (slab, at) = (column / run, column % run);
            let take = (run - at).min(columns.end - column);
            let from = (slab * count + row) * run + at;
            for (slot, &value) in panel_columns[column - columns.start..]
                .iter_mut()
                .zip(&data[from..from + take])
            {
                slot[lane] = value;
            }
            column += take;
        }
    }
}

/// Copies columns `lanes` (fewer than `MR`) of every row of `data` that
/// `panel` has room for into a `[rows][MR]` panel.
fn pack_columns(data: &[f32], stride: usize, lanes: std::ops::Range<usize>, panel: &mut [f32]) {
    let (panel_columns, _) = panel.as_chunks_mut::<MR>();
    for (slot, row) in panel_columns.iter_mut().zip(data.chunks(stride)) {
        slot[..lanes.len()].copy_from_slice(&row[lanes.clone()]);
    }
}

/// `k` columns of up to `MR` lanes: column `q`'s lanes lie side by side
/// from `columns[q * stride]` (a packed panel has `stride == MR`).
#[derive(Clone, Copy)]
struct Panel<'a> {
    columns: &'a [f32],
    stride: usize,
}

impl Panel<'_> {
    /// Whether none of the first `k` columns holds an infinity or a NaN in
    /// its `MR` lanes (a packed panel's spare lanes count: stale values
    /// there can only ask for masking that was not needed).
    fn all_finite(&self, k: usize) -> bool {
        let mut columns = self.columns.chunks(self.stride).take(k);
        columns.all(|column| all_finite(&column[..MR.min(column.len())]))
    }
}

/// A register tile per panel of one block of `live.0` lanes against one
/// group of `live.1` streamed rows, `out` starting at the block's first
/// lane and the group's first row. A short last panel runs over as few
/// lanes as hold it, so that a single lane costs one, not eight.
fn tiles<const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    panels: &[Panel<'_>],
    rows: [&[f32]; NR],
    out: &mut [f32],
    strides: (usize, usize),
    (live_lanes, live_rows): (usize, usize),
    start: Option<f32>,
    wide: bool,
) {
    for (index, &panel) in panels.iter().enumerate() {
        let out = &mut out[index * MR * strides.0..];
        let live = ((live_lanes - index * MR).min(MR), live_rows);
        match live.0 {
            1 => tile_over::<1, SKIP_LANES, SKIP_STREAMED>(
                panel, rows, out, strides, live, start, wide,
            ),
            2..=4 => tile_over::<4, SKIP_LANES, SKIP_STREAMED>(
                panel, rows, out, strides, live, start, wide,
            ),
            _ => tile_over::<MR, SKIP_LANES, SKIP_STREAMED>(
                panel, rows, out, strides, live, start, wide,
            ),
        }
    }
}

/// Runs the micro-kernel over the first `L` lanes of a panel against `NR`
/// streamed rows and stores the `live_lanes × live_rows` real sums at the
/// given `(lane, row)` strides from `out[0]`. Without a `start` the chains
/// pick up from the sums already there.
///
/// Out of line: nine of these inlined into [`gemm`] spilled the loop's
/// indices around every tile, which showed at the encoder's shortest
/// chains (`k = 32`, where a tile is some 250 cycles).
#[inline(never)]
fn tile_over<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    panel: Panel<'_>,
    rows: [&[f32]; NR],
    out: &mut [f32],
    (lane_stride, row_stride): (usize, usize),
    (live_lanes, live_rows): (usize, usize),
    start: Option<f32>,
    wide: bool,
) {
    let at = |lane: usize, row: usize| lane * lane_stride + row * row_stride;
    // `L` live lanes side by side in the output move a row at a time.
    let whole_rows = lane_stride == 1 && live_lanes == L;
    let parked = start.is_none().then(|| {
        let mut sums = [[0.0f32; L]; NR];
        for (row, sums_row) in sums.iter_mut().enumerate().take(live_rows) {
            if whole_rows {
                sums_row.copy_from_slice(&out[at(0, row)..][..L]);
                continue;
            }
            for (lane, sum) in sums_row.iter_mut().enumerate().take(live_lanes) {
                *sum = out[at(lane, row)];
            }
        }
        sums
    });
    let sums = micro_kernel::<L, SKIP_LANES, SKIP_STREAMED>(
        panel,
        rows,
        start.unwrap_or(0.0),
        parked.as_ref(),
        wide,
    );
    if row_stride == 1 && live_rows == NR {
        // A lane's `NR` sums side by side in the output move together.
        for lane in 0..live_lanes {
            out[at(lane, 0)..][..NR].copy_from_slice(&sums.map(|sums_row| sums_row[lane]));
        }
        return;
    }
    for (row, sums_row) in sums.iter().enumerate().take(live_rows) {
        if whole_rows {
            out[at(0, row)..][..L].copy_from_slice(sums_row);
            continue;
        }
        for (lane, &sum) in sums_row.iter().enumerate().take(live_lanes) {
            out[at(lane, row)] = sum;
        }
    }
}

/// The micro-kernel on the AVX2 twin if the product is `wide` (see
/// [`WIDE_MIN_MACS`]) and the detected [`simd::backend`] has it, on the
/// baseline twin otherwise: one body, compiled for the baseline target and
/// once more for AVX2, with the same separate multiplies and adds in the
/// same order, so which twin runs changes how many lanes an instruction
/// holds and no bit of any sum.
///
/// The start is a scalar to splat, or parked sums behind a reference:
/// taking the `L × NR` array by value measured 10–18 % slower on every
/// product (the accumulators went through the stack).
#[inline(always)]
#[allow(unsafe_code)]
fn micro_kernel<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    panel: Panel<'_>,
    rows: [&[f32]; NR],
    fresh: f32,
    parked: Option<&[[f32; L]; NR]>,
    wide: bool,
) -> [[f32; L]; NR] {
    match (simd::backend(), wide) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend()` returns `Backend::Avx2` only after
        // `is_x86_feature_detected!("avx2")` found the feature on this CPU.
        (simd::Backend::Avx2, true) => unsafe {
            micro_kernel_avx2::<L, SKIP_LANES, SKIP_STREAMED>(panel, rows, fresh, parked)
        },
        _ => micro_kernel_baseline::<L, SKIP_LANES, SKIP_STREAMED>(panel, rows, fresh, parked),
    }
}

/// [`micro_kernel_body`] as the baseline target compiles it (4-lane SSE2
/// on x86-64).
///
/// Out of line so that its code does not depend on the caller: inlined
/// next to the strided store it was seen to compile to scalar code.
#[inline(never)]
fn micro_kernel_baseline<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    panel: Panel<'_>,
    rows: [&[f32]; NR],
    fresh: f32,
    parked: Option<&[[f32; L]; NR]>,
) -> [[f32; L]; NR] {
    micro_kernel_body::<L, SKIP_LANES, SKIP_STREAMED>(panel, rows, fresh, parked)
}

/// [`micro_kernel_body`] compiled with AVX2 on: a panel column is one
/// 8-lane register. No FMA — that feature is not enabled, and Rust never
/// contracts a multiply and an add on its own.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
fn micro_kernel_avx2<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    panel: Panel<'_>,
    rows: [&[f32]; NR],
    fresh: f32,
    parked: Option<&[[f32; L]; NR]>,
) -> [[f32; L]; NR] {
    micro_kernel_body::<L, SKIP_LANES, SKIP_STREAMED>(panel, rows, fresh, parked)
}

/// `acc[s][p] = start[s][p] + Σ_q panel[q][p] · rows[s][q]`: `L × NR`
/// independent chains, each ascending in `q` with a separate multiply and
/// add. With `SKIP_LANES` a term whose lane value is zero, with
/// `SKIP_STREAMED` one whose streamed value is zero, is added as `+0.0`
/// whatever the other factor is. The two inner loops have constant trip
/// counts and unroll into `NR` broadcast-multiply-adds over the panel
/// column.
///
/// Inlined into its two shells, which is what compiles it twice.
#[inline(always)]
fn micro_kernel_body<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    panel: Panel<'_>,
    rows: [&[f32]; NR],
    fresh: f32,
    parked: Option<&[[f32; L]; NR]>,
) -> [[f32; L]; NR] {
    let mut acc = parked.copied().unwrap_or([[fresh; L]; NR]);
    let k = rows.iter().map(|row| row.len()).min().unwrap_or(0);
    let [r0, r1, r2, r3] = rows.map(|row| &row[..k]);
    if panel.stride == MR {
        // A packed panel is an array of columns: nothing to check per step.
        let (columns, _) = panel.columns.as_chunks::<MR>();
        for ((((column, &x0), &x1), &x2), &x3) in columns.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            if let Some(column) = column.first_chunk::<L>() {
                step::<L, SKIP_LANES, SKIP_STREAMED>(&mut acc, column, [x0, x1, x2, x3]);
            }
        }
    } else {
        for q in 0..k {
            let Some(column) = panel
                .columns
                .get(q * panel.stride..)
                .and_then(|rest| rest.first_chunk::<L>())
            else {
                break;
            };
            step::<L, SKIP_LANES, SKIP_STREAMED>(&mut acc, column, [r0[q], r1[q], r2[q], r3[q]]);
        }
    }
    acc
}

/// One column's term onto each of the `L × NR` chains of
/// [`micro_kernel_body`]. A function, not a closure, so that it can be
/// told to inline: left to itself the masked 8-lane instantiation was
/// compiled once, for the baseline target, and called from both shells.
#[inline(always)]
fn step<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
    acc: &mut [[f32; L]; NR],
    column: &[f32; L],
    xs: [f32; NR],
) {
    // All ones where a term counts, `+0.0`'s bits where it does not.
    let keep = |skip: bool, factor: f32| if skip && factor == 0.0 { 0 } else { u32::MAX };
    let keep_lanes = column.map(|lane| keep(SKIP_LANES, lane));
    for (acc_row, x) in acc.iter_mut().zip(xs) {
        let keep_row = keep(SKIP_STREAMED, x);
        for ((sum, &lane), keep_lane) in acc_row.iter_mut().zip(column).zip(keep_lanes) {
            *sum += f32::from_bits((lane * x).to_bits() & keep_lane & keep_row);
        }
    }
}

/// `out[i][j] = a[i] · b[j]` for row-major `a: [m, k]`, `b: [n, k]` and
/// `out: [m, n]`, all borrowed, every output a [`Chain::Sum`]:
/// [`gemm_into`] with whichever operand has fewer rows as the lanes —
/// less to interleave, less scratch, and the larger one is then read once
/// per 64 of them. For callers that score rows of tensors they already
/// hold into a buffer they reuse; `panels` as for [`gemm_into`].
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
    let (m, n) = (a.len() / k.max(1), b.len() / k.max(1));
    if k > 0 && out.len() != m * n {
        return Err(TensorError::InvalidArgument(format!(
            "matmul_nt_into: {} and {} values are not [m, {k}] and [n, {k}] with {} outputs",
            a.len(),
            b.len(),
            out.len()
        )));
    }
    let (lanes, streamed, lane_stride, row_stride) =
        if n < m { (b, a, 1, n) } else { (a, b, n, 1) };
    gemm_into(
        Lanes::Rows {
            data: lanes,
            run: k,
        },
        streamed,
        k,
        Out {
            data: out,
            lane_stride,
            row_stride,
        },
        Chain::Sum,
        panels,
    )
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

    /// `[m, n]` from an operand whose zeros are skipped (`[m, k]` rows or,
    /// with `transposed`, `[k, m]` columns) and `other: [k, n]`, every
    /// output a [`Chain::Axpy`]. The side with more outputs supplies the
    /// lanes, and whichever operand is then not laid out as the kernel
    /// reads it — the smaller one — is transposed first.
    fn axpy_product(&self, transposed: bool, other: &Tensor) -> Result<Tensor> {
        let (m, k) = match (self.as_matrix()?, transposed) {
            ((k, m), true) | ((m, k), false) => (m, k),
        };
        let (k2, n) = other.as_matrix()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs: [m, k],
                rhs: [k2, n],
            });
        }
        let mut out = vec![0.0f32; m * n];
        let flipped; // whichever operand has to be transposed
        let (lanes, streamed, zeros, (lane_stride, row_stride)) = if m > n {
            flipped = other.transpose()?;
            let data = self.as_slice();
            let lanes = match transposed {
                true => Lanes::Columns {
                    data,
                    count: m,
                    stride: m,
                },
                false => Lanes::Rows { data, run: k },
            };
            (lanes, flipped.as_slice(), Zeros::Lanes, (n, 1))
        } else {
            let lanes = Lanes::Columns {
                data: other.as_slice(),
                count: n,
                stride: n,
            };
            let streamed = if transposed {
                flipped = self.transpose()?;
                flipped.as_slice()
            } else {
                self.as_slice()
            };
            (lanes, streamed, Zeros::Streamed, (1, n))
        };
        gemm_into(
            lanes,
            streamed,
            k,
            Out {
                data: &mut out,
                lane_stride,
                row_stride,
            },
            Chain::Axpy(zeros),
            &mut Vec::new(),
        )?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Every output is a [`Chain::Axpy`] that skips the zeros of `self`:
    /// used for input gradients (`dy · W`), where `dy` is sparse behind a
    /// ReLU.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not rank 2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.axpy_product(false, other)
    }

    /// `self^T * other` without materializing the product's transpose:
    /// `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// Used by linear-layer weight gradients (`dy^T · x`); every output is
    /// a [`Chain::Axpy`] that skips the zeros of `self`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        self.axpy_product(true, other)
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

    /// The loop `matmul` was before it moved onto the kernel, kept as the
    /// reference: one axpy per nonzero `a[i][p]`.
    fn axpy_nn(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let (a, b) = (a.as_slice(), b.as_slice());
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
        out
    }

    /// The loop `matmul_tn` was, likewise.
    fn axpy_tn(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (k, m, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let (a, b) = (a.as_slice(), b.as_slice());
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
        out
    }

    /// Sets three values in ten to a signed zero, as a ReLU does to the
    /// gradients the axpy chains skip.
    fn sparse(mut t: Tensor, rng: &mut StdRng) -> Tensor {
        for x in t.as_mut_slice() {
            match rng.gen_range(0..10) {
                0 | 1 => *x = 0.0,
                2 => *x = -0.0,
                _ => {}
            }
        }
        t
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} differs at {at}: {g:e} ({:#010x}) vs the loop's {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits(),
            );
        }
    }

    #[test]
    fn matmul_and_matmul_tn_are_bit_identical_to_the_axpy_loops() {
        // Zeros in the left operand meet infinities and NaNs in the right
        // one: skipped by the loops, so never `0 · ∞` in the kernel.
        let edges = [0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65];
        let mut rng = StdRng::seed_from_u64(15);
        for &m in &edges {
            for &n in &edges {
                for &k in &edges {
                    for specials in [false, true] {
                        let b = fill(k, n, &mut rng, specials);
                        let a = sparse(fill(m, k, &mut rng, specials), &mut rng);
                        let what = format!("[{m}, {k}] x [{k}, {n}]");
                        let got = a.matmul(&b).unwrap();
                        assert_eq!(got.dims(), &[m, n]);
                        assert_same_bits(got.as_slice(), &axpy_nn(&a, &b), &what);
                        let a = sparse(fill(k, m, &mut rng, specials), &mut rng);
                        let what = format!("[{k}, {m}]^T x [{k}, {n}]");
                        let got = a.matmul_tn(&b).unwrap();
                        assert_eq!(got.dims(), &[m, n]);
                        assert_same_bits(got.as_slice(), &axpy_tn(&a, &b), &what);
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_chains_skip_zero_factors_and_never_hold_a_negative_zero() {
        // `0 · ∞` and `-0 · NaN` stay out of the sum, and products that are
        // all `-0.0` still sum to the `+0.0` the chain started from —
        // with the skipped zeros streamed (two rows, two lanes) and with
        // them in the lanes (a third row makes the left operand the wider).
        let b = m(
            &[
                f32::INFINITY,
                f32::NAN,
                f32::NAN,
                f32::NEG_INFINITY,
                1.5,
                -0.0,
            ],
            3,
            2,
        );
        let a = m(&[0.0, -0.0, 2.0, 0.0, -0.0, 0.0], 2, 3);
        let want = [3.0f32, 0.0, 0.0, 0.0];
        assert_same_bits(a.matmul(&b).unwrap().as_slice(), &want, "zeros streamed");
        let a = m(&[0.0, -0.0, 2.0, 0.0, -0.0, 0.0, -0.0, 0.0, -4.0], 3, 3);
        let want = [3.0f32, 0.0, 0.0, 0.0, -6.0, 0.0];
        assert_same_bits(a.matmul(&b).unwrap().as_slice(), &want, "zeros in lanes");
    }

    #[test]
    fn gemm_into_reads_slabbed_rows_and_strided_columns_where_they_lie() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut panels = Vec::new();
        for (count, run, slabs, rows) in [(3, 5, 4, 6), (8, 16, 2, 9), (13, 1, 7, 1), (70, 4, 3, 5)]
        {
            let k = run * slabs;
            // `[slabs][count][run]`, and the same matrix as plain rows.
            let slabbed = sparse(fill(slabs * count, run, &mut rng, true), &mut rng);
            let mut plain = vec![0.0f32; count * k];
            for (at, &x) in slabbed.as_slice().iter().enumerate() {
                let (slab, lane, column) = (at / (count * run), at / run % count, at % run);
                plain[lane * k + slab * run + column] = x;
            }
            let plain = Tensor::from_vec(plain, &[count, k]).unwrap();
            let streamed = fill(rows, k, &mut rng, true);
            let want = axpy_nn(&plain, &streamed.transpose().unwrap());

            // Lanes as slabbed rows, in two calls that resume each chain.
            let mut got = vec![f32::NAN; count * rows];
            let cut = slabs / 2 * run;
            for (columns, chain) in [
                (0..cut, Chain::Axpy(Zeros::Lanes)),
                (cut..k, Chain::AxpyResume(Zeros::Lanes)),
            ] {
                let part = slabbed.as_slice()[columns.start * count..columns.end * count].to_vec();
                let streamed_part: Vec<f32> = streamed
                    .as_slice()
                    .chunks(k)
                    .flat_map(|row| row[columns.clone()].to_vec())
                    .collect();
                let out = Out {
                    data: &mut got,
                    lane_stride: rows,
                    row_stride: 1,
                };
                let lanes = Lanes::Rows { data: &part, run };
                gemm_into(
                    lanes,
                    &streamed_part,
                    columns.len(),
                    out,
                    chain,
                    &mut panels,
                )
                .unwrap();
            }
            assert_same_bits(&got, &want, "slabbed rows");

            // Lanes as columns `2..2 + count` of a wider matrix, outputs
            // transposed into a wider buffer.
            let stride = count + 5;
            let mut wide = vec![f32::NAN; k * stride];
            for (at, &x) in plain.as_slice().iter().enumerate() {
                wide[at % k * stride + 2 + at / k] = x;
            }
            let mut got = vec![f32::NAN; rows * (count + 1)];
            let lanes = Lanes::Columns {
                data: &wide[2..(k - 1) * stride + 2 + count],
                count,
                stride,
            };
            let out = Out {
                data: &mut got,
                lane_stride: 1,
                row_stride: count + 1,
            };
            gemm_into(
                lanes,
                streamed.as_slice(),
                k,
                out,
                Chain::Axpy(Zeros::Lanes),
                &mut panels,
            )
            .unwrap();
            for (row, got_row) in got.chunks(count + 1).enumerate() {
                let want_row: Vec<f32> = (0..count).map(|lane| want[lane * rows + row]).collect();
                assert_same_bits(&got_row[..count], &want_row, "strided columns");
                assert!(got_row[count].is_nan(), "wrote past the last lane");
            }
        }
    }

    /// Both twins of one instantiation over a packed and a strided panel,
    /// from a fresh and from a parked start: the baseline shell called as
    /// it is, the AVX2 shell through [`micro_kernel`] (its one caller).
    fn twins_agree<const L: usize, const SKIP_LANES: bool, const SKIP_STREAMED: bool>(
        rng: &mut StdRng,
    ) {
        const HARD: [f32; 9] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            3.0e38,
            -3.0e38,
            1.0e-41,
            -1.0e-41,
        ];
        let k = 37;
        // One value in 64 hard leaves half the chains finite, where every
        // rounding shows; one in 4 leaves none.
        let mut hard = |rows: usize, cols: usize, one_in: u32| {
            let mut t = fill(rows, cols, rng, false);
            for x in t.as_mut_slice() {
                if rng.gen_range(0..one_in) == 0 {
                    *x = HARD[rng.gen_range(0..HARD.len())];
                }
            }
            t
        };
        for stride in [MR, MR + 3] {
            for parked in [false, true] {
                for one_in in [64, 4] {
                    let columns = hard(k, stride, one_in);
                    let streamed = hard(NR, k, one_in);
                    let sums = hard(NR, L, one_in);
                    let panel = Panel {
                        columns: columns.as_slice(),
                        stride,
                    };
                    let mut rows = [streamed.as_slice(); NR];
                    for (slot, row) in rows.iter_mut().zip(streamed.as_slice().chunks_exact(k)) {
                        *slot = row;
                    }
                    let mut start = [[0.0f32; L]; NR];
                    for (start_row, row) in start.iter_mut().zip(sums.as_slice().chunks_exact(L)) {
                        start_row.copy_from_slice(row);
                    }
                    let start = parked.then_some(&start);
                    let baseline = micro_kernel_baseline::<L, SKIP_LANES, SKIP_STREAMED>(
                        panel, rows, -0.0, start,
                    );
                    let dispatched = micro_kernel::<L, SKIP_LANES, SKIP_STREAMED>(
                        panel, rows, -0.0, start, true,
                    );
                    let what = format!(
                        "L = {L}, skip ({SKIP_LANES}, {SKIP_STREAMED}), stride {stride}, \
                         parked {parked}, one in {one_in} hard"
                    );
                    assert_same_bits(dispatched.as_flattened(), baseline.as_flattened(), &what);
                }
            }
        }
    }

    #[test]
    fn both_twins_of_every_instantiation_agree_bit_for_bit() {
        if simd::backend() == simd::Backend::Scalar {
            eprintln!("skipped: no second twin on the scalar backend");
            return;
        }
        let mut rng = StdRng::seed_from_u64(17);
        twins_agree::<1, false, false>(&mut rng);
        twins_agree::<1, true, false>(&mut rng);
        twins_agree::<1, false, true>(&mut rng);
        twins_agree::<4, false, false>(&mut rng);
        twins_agree::<4, true, false>(&mut rng);
        twins_agree::<4, false, true>(&mut rng);
        twins_agree::<MR, false, false>(&mut rng);
        twins_agree::<MR, true, false>(&mut rng);
        twins_agree::<MR, false, true>(&mut rng);
    }

    #[test]
    fn the_naive_loops_hold_the_baseline_twin_too() {
        // The backend is decided once per process, so the oracle tests of
        // this module run again in a child that is told to stay scalar.
        if simd::backend() == simd::Backend::Scalar {
            return; // this process is such a run already
        }
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "linalg::tests::matmul_nt_is_bit_identical",
                "linalg::tests::matmul_and_matmul_tn_are_bit_identical",
                "linalg::tests::axpy_chains_skip_zero_factors",
                "linalg::tests::gemm_into_reads_slabbed_rows",
            ])
            .env("FHDNN_NO_SIMD", "1")
            .output()
            .unwrap();
        let report = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "{report}");
        assert!(report.contains("test result: ok. 6 passed"), "{report}");
    }

    #[test]
    fn gemm_into_rejects_operands_that_do_not_fit() {
        let (data, streamed, mut panels) = ([1.0f32; 24], [1.0f32; 8], Vec::new());
        let mut buffer = [0.0f32; 12];
        let mut run = |lanes, streamed: &[f32], k, len, lane_stride, row_stride| {
            let out = Out {
                data: &mut buffer[..len],
                lane_stride,
                row_stride,
            };
            gemm_into(lanes, streamed, k, out, Chain::Sum, &mut panels)
        };
        let rows = |run| Lanes::Rows { data: &data, run };
        let columns = |count, stride| Lanes::Columns {
            data: &data,
            count,
            stride,
        };
        assert!(run(rows(2), &streamed, 4, 12, 2, 1).is_ok());
        assert!(run(rows(3), &streamed, 4, 12, 2, 1).is_err());
        assert!(run(rows(0), &streamed, 4, 12, 2, 1).is_err());
        assert!(run(rows(5), &streamed, 5, 12, 2, 1).is_err());
        assert!(run(rows(4), &streamed[..7], 4, 12, 2, 1).is_err());
        assert!(run(rows(4), &streamed, 4, 11, 2, 1).is_err());
        assert!(run(rows(4), &streamed, 0, 12, 2, 1).is_err());
        assert!(run(columns(6, 6), &streamed, 4, 12, 1, 6).is_ok());
        assert!(run(columns(3, 7), &streamed, 4, 6, 1, 3).is_ok());
        assert!(run(columns(4, 7), &streamed, 4, 8, 1, 4).is_err());
        assert!(run(columns(6, 5), &streamed, 4, 12, 1, 6).is_err());
        assert!(run(columns(6, 6), &streamed, 4, 12, 1, 7).is_err());
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
