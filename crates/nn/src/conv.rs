//! 2-D convolution on the blocked GEMM kernel, straight from and to NCHW.

use std::ops::Range;

use fhdnn_tensor::linalg::{gemm_into, Chain, Lanes, Out, Zeros};
use fhdnn_tensor::{init, Tensor};
use rand::Rng;

use crate::{Layer, Mode, NnError, Param, Result};

/// Output positions lowered to columns at a time: enough whole images to
/// fill the GEMM's lanes and keep `dW`'s chains long at the smallest
/// feature maps, few enough that the widest layer's column block stays in
/// L2. An image with more positions than this is a block of its own.
const BLOCK_POSITIONS: usize = 512;

/// Channels whose gradient planes are summed side by side for `db`.
const BIAS_LANES: usize = 8;

/// Geometry of a convolution: kernel size, stride, and zero padding
/// (square, same in both spatial dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Kernel height and width.
    pub kernel: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Zero padding added on each side.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial size for an input of spatial size `s`.
    ///
    /// Returns `None` if the kernel does not fit.
    pub fn output_size(&self, s: usize) -> Option<usize> {
        let padded = s + 2 * self.padding;
        if padded < self.kernel {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }

    /// Along one axis of input size `s`: which of `outputs` outputs read
    /// inside the input through kernel element `tap` (output `o` reads
    /// input `o * stride + tap - padding`), and what the first of them
    /// reads.
    fn inside(&self, tap: usize, s: usize, outputs: usize) -> (Range<usize>, usize) {
        let lo = self.padding.saturating_sub(tap).div_ceil(self.stride);
        let hi = (s + self.padding)
            .saturating_sub(tap)
            .div_ceil(self.stride)
            .min(outputs);
        if lo < hi {
            (lo..hi, lo * self.stride + tap - self.padding)
        } else {
            (0..0, 0)
        }
    }
}

/// A 2-D convolution layer over `[batch, in_c, h, w]` inputs.
///
/// Weights are stored `[out_c, in_c * k * k]`. The input is lowered, a
/// block of whole images at a time, to a **transposed column buffer**
/// `[in_c * k * k][positions]`: row `(ci, ky, kx)` holds, for every output
/// position of the block, the input value that kernel element reads there,
/// so filling it is one contiguous copy per output row. All four products
/// then run on the one GEMM kernel ([`gemm_into`]) with output positions
/// as its lanes, reading and writing the NCHW planes where they lie:
///
/// * `y = W · cols + b`, image by image into its `[out_c][oh · ow]` planes;
/// * `dW = g · colsᵀ`, one chain per weight over the positions of the
///   whole batch, picked up block after block;
/// * `db`, the sum of each channel's gradient planes;
/// * `dx`: `Wᵀ · g` into the same column layout, each row of which is then
///   added back to the input rows it was copied from.
///
/// Every output element is the same chain of the same rounded products in
/// the same order as lowering to `[positions][in_c * k * k]` rows,
/// multiplying by `Wᵀ` and scattering back computes (DESIGN.md §15 has
/// the argument, the tests below the reference). [`Layer::flops`] counts
/// that product.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    cache: Option<ConvCache>,
}

/// What `backward` needs of a training-mode `forward`: the column blocks
/// of the whole batch, one after the other.
#[derive(Debug, Clone)]
struct ConvCache {
    cols: Vec<f32>,
    input_dims: Vec<usize>,
}

/// The shapes of one call: the layer's input channels and geometry with
/// the batch's sizes.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    geom: ConvGeometry,
    channels: usize,
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl Lowering {
    /// Output positions per image.
    fn positions(&self) -> usize {
        self.oh * self.ow
    }

    /// Rows of the column buffer: one per `(channel, ky, kx)`.
    fn taps(&self) -> usize {
        self.channels * self.geom.kernel * self.geom.kernel
    }

    /// Images per block.
    fn block_images(&self) -> usize {
        (BLOCK_POSITIONS / self.positions()).clamp(1, self.n.max(1))
    }

    /// The batch as consecutive blocks of images; the last may be short.
    fn blocks(&self) -> impl Iterator<Item = Range<usize>> {
        let (n, images) = (self.n, self.block_images());
        (0..n)
            .step_by(images)
            .map(move |first| first..n.min(first + images))
    }

    /// `(channel, ky, kx)` of a row of the column buffer.
    fn tap(&self, row: usize) -> (usize, usize, usize) {
        let k = self.geom.kernel;
        (row / (k * k), row / k % k, row % k)
    }

    /// Fills `cols: [taps][images · positions]` from the NCHW input `x`:
    /// zeros where a tap reads the padding, and per `(tap, image, output
    /// row)` one copy of the input row's inside part (a strided gather when
    /// `stride > 1`). Where output and input rows are equally long and the
    /// stride is 1, an image's inside rows follow one another at the same
    /// pitch on both sides, so they move as a single copy and the columns
    /// that wrapped around a row end are zeroed afterwards.
    fn lower(&self, x: &[f32], images: Range<usize>, cols: &mut [f32]) {
        let (stride, w, plane_len) = (self.geom.stride, self.w, self.h * self.w);
        let width = images.len() * self.positions();
        let same_pitch = stride == 1 && self.ow == w;
        for (row, cols_row) in cols.chunks_exact_mut(width).enumerate() {
            let (ci, ky, kx) = self.tap(row);
            let (rows_inside, first_row) = self.geom.inside(ky, self.h, self.oh);
            let (inside, first) = self.geom.inside(kx, w, self.ow);
            if rows_inside.len() < self.oh || inside.len() < self.ow {
                cols_row.fill(0.0);
            }
            if rows_inside.is_empty() || inside.is_empty() {
                continue;
            }
            let per_image = cols_row.chunks_exact_mut(self.positions());
            for (image, out_plane) in images.clone().zip(per_image) {
                let plane = &x[(image * self.channels + ci) * plane_len..][..plane_len];
                if same_pitch {
                    let from = first_row * w + first;
                    let run = same_pitch_run(w, &rows_inside, &inside);
                    out_plane[run.clone()].copy_from_slice(&plane[from..from + run.len()]);
                    zero_wrapped(&mut out_plane[run], w, inside.len());
                    continue;
                }
                let out_rows = out_plane[rows_inside.start * self.ow..rows_inside.end * self.ow]
                    .chunks_exact_mut(self.ow);
                let in_rows = plane[first_row * w..].chunks(stride * w);
                for (out_row, in_row) in out_rows.zip(in_rows) {
                    let out_row = &mut out_row[inside.clone()];
                    if stride == 1 {
                        out_row.copy_from_slice(&in_row[first..first + out_row.len()]);
                    } else {
                        let in_row = &in_row[first..first + (out_row.len() - 1) * stride + 1];
                        for (at, o) in out_row.iter_mut().enumerate() {
                            *o = in_row[at * stride];
                        }
                    }
                }
            }
        }
    }

    /// The reverse of [`Lowering::lower`] for gradients: adds every row of
    /// `dcols: [taps][images · positions]` to the input rows of `dx` it
    /// was lowered from. Rows are visited last to first, so each input
    /// pixel receives its terms by descending `(ky, kx)` — which is
    /// ascending output position `(oy, ox)`, the order of a scatter that
    /// walks the outputs. At the same pitch (see `lower`) the wrapped
    /// columns of `dcols` are zeroed first and an image's inside rows are
    /// added as one run: a sum that started at `+0.0` is never `-0.0`, so
    /// adding `+0.0` to it changes nothing.
    fn raise(&self, dcols: &mut [f32], images: Range<usize>, dx: &mut [f32]) {
        let (stride, w, plane_len) = (self.geom.stride, self.w, self.h * self.w);
        let width = images.len() * self.positions();
        let same_pitch = stride == 1 && self.ow == w;
        for (row, dcols_row) in dcols.chunks_exact_mut(width).enumerate().rev() {
            let (ci, ky, kx) = self.tap(row);
            let (rows_inside, first_row) = self.geom.inside(ky, self.h, self.oh);
            let (inside, first) = self.geom.inside(kx, w, self.ow);
            if rows_inside.is_empty() || inside.is_empty() {
                continue;
            }
            let per_image = dcols_row.chunks_exact_mut(self.positions());
            for (image, g_plane) in images.clone().zip(per_image) {
                let plane = &mut dx[(image * self.channels + ci) * plane_len..][..plane_len];
                if same_pitch {
                    let from = first_row * w + first;
                    let g_run = &mut g_plane[same_pitch_run(w, &rows_inside, &inside)];
                    zero_wrapped(g_run, w, inside.len());
                    for (o, &v) in plane[from..].iter_mut().zip(&*g_run) {
                        *o += v;
                    }
                    continue;
                }
                let g_rows = g_plane[rows_inside.start * self.ow..rows_inside.end * self.ow]
                    .chunks_exact(self.ow);
                let in_rows = plane[first_row * w..].chunks_mut(stride * w);
                for (g_row, in_row) in g_rows.zip(in_rows) {
                    let g_row = &g_row[inside.clone()];
                    if stride == 1 {
                        for (o, &v) in in_row[first..].iter_mut().zip(g_row) {
                            *o += v;
                        }
                    } else {
                        let in_row = &mut in_row[first..first + (g_row.len() - 1) * stride + 1];
                        for (at, &v) in g_row.iter().enumerate() {
                            in_row[at * stride] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Where output and input rows are both `w` long and the stride is 1:
/// the positions of a plane from the first inside column of the first
/// inside row to the last of the last, which one tap reads from (and
/// whose gradients go back to) equally many consecutive input values.
fn same_pitch_run(w: usize, rows_inside: &Range<usize>, inside: &Range<usize>) -> Range<usize> {
    rows_inside.start * w + inside.start..(rows_inside.end - 1) * w + inside.end
}

/// Zeroes the columns of such a run that wrapped around a row end: it
/// starts at an inside column, so of every `w` values the first `inside`
/// are real and the rest lie in the padding.
fn zero_wrapped(run: &mut [f32], w: usize, inside: usize) {
    for gap in inside..w {
        for wrapped in run.iter_mut().skip(gap).step_by(w) {
            *wrapped = 0.0;
        }
    }
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channels, zero kernel, or
    /// zero stride.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        geom: ConvGeometry,
        rng: &mut R,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 {
            return Err(NnError::InvalidConfig(
                "conv channels must be positive".into(),
            ));
        }
        if geom.kernel == 0 || geom.stride == 0 {
            return Err(NnError::InvalidConfig(
                "conv kernel and stride must be positive".into(),
            ));
        }
        let fan_in = in_channels * geom.kernel * geom.kernel;
        let weight = init::kaiming_normal(&[out_channels, fan_in], fan_in, rng);
        Ok(Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            geom,
            cache: None,
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn lowering(&self, dims: &[usize]) -> Result<Lowering> {
        if dims.len() != 4 || dims[1] != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: "Conv2d",
                detail: format!("expected [batch, {}, h, w], got {dims:?}", self.in_channels),
            });
        }
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let fit = |s: usize, axis: &str| {
            self.geom
                .output_size(s)
                .ok_or_else(|| NnError::BadInputShape {
                    layer: "Conv2d",
                    detail: format!("kernel {} does not fit {axis} {s}", self.geom.kernel),
                })
        };
        Ok(Lowering {
            geom: self.geom,
            channels: self.in_channels,
            n,
            h,
            w,
            oh: fit(h, "height")?,
            ow: fit(w, "width")?,
        })
    }
}

/// `sums[c] = ((0.0 + g[0][c][0]) + g[0][c][1]) + …` over every image's
/// plane `c` of `g: [_, sums.len(), positions]` in turn: one chain per
/// channel, [`BIAS_LANES`] of them advancing side by side.
fn plane_sums(g: &[f32], positions: usize, sums: &mut [f32]) {
    let channels = sums.len();
    for (group, sums) in sums.chunks_mut(BIAS_LANES).enumerate() {
        let mut lanes = [0.0f32; BIAS_LANES];
        for image in g.chunks_exact(channels * positions) {
            let planes = &image[group * BIAS_LANES * positions..];
            // A short last group repeats its first plane and drops the
            // spare sums.
            let mut rows = [&planes[..positions]; BIAS_LANES];
            for (row, plane) in rows.iter_mut().zip(planes.chunks_exact(positions)) {
                *row = plane;
            }
            for q in 0..positions {
                for (lane, row) in lanes.iter_mut().zip(rows) {
                    *lane += row[q];
                }
            }
        }
        sums.copy_from_slice(&lanes[..sums.len()]);
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let low = self.lowering(input.dims())?;
        let (oc, taps, positions) = (self.out_channels, low.taps(), low.positions());
        // Training keeps every block for `backward`; evaluation reuses one.
        let kept_images = if mode == Mode::Train {
            low.n
        } else {
            low.block_images()
        };
        let mut cols = vec![0.0f32; taps * kept_images * positions];
        let mut out = vec![0.0f32; low.n * oc * positions];
        let mut panels = Vec::new();
        let mut kept = 0;
        for images in low.blocks() {
            let width = images.len() * positions;
            let block = &mut cols[kept..kept + taps * width];
            low.lower(input.as_slice(), images.clone(), block);
            for (slot, image) in images.enumerate() {
                let planes = &mut out[image * oc * positions..][..oc * positions];
                gemm_into(
                    Lanes::Columns {
                        data: &block[slot * positions..],
                        count: positions,
                        stride: width,
                    },
                    self.weight.value.as_slice(),
                    taps,
                    Out {
                        data: planes,
                        lane_stride: 1,
                        row_stride: positions,
                    },
                    Chain::Sum,
                    &mut panels,
                )?;
                let biases = self.bias.value.as_slice();
                for (plane, &b) in planes.chunks_exact_mut(positions).zip(biases) {
                    for y in plane {
                        *y += b;
                    }
                }
            }
            if mode == Mode::Train {
                kept += taps * width;
            }
        }
        if mode == Mode::Train {
            self.cache = Some(ConvCache {
                cols,
                input_dims: input.dims().to_vec(),
            });
        }
        Ok(Tensor::from_vec(out, &[low.n, oc, low.oh, low.ow])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let low = self.lowering(&cache.input_dims)?;
        let (oc, taps, positions) = (self.out_channels, low.taps(), low.positions());
        if grad_output.dims() != [low.n, oc, low.oh, low.ow] {
            return Err(NnError::BadInputShape {
                layer: "Conv2d",
                detail: format!(
                    "grad shape {:?} != output shape [{}, {oc}, {}, {}]",
                    grad_output.dims(),
                    low.n,
                    low.oh,
                    low.ow
                ),
            });
        }
        let g = grad_output.as_slice();
        let mut db = vec![0.0f32; oc];
        plane_sums(g, positions, &mut db);
        for (grad, sum) in self.bias.grad.as_mut_slice().iter_mut().zip(db) {
            *grad += sum;
        }

        let weight_t = self.weight.value.transpose()?;
        let mut dw = vec![0.0f32; oc * taps];
        let mut dcols = vec![0.0f32; taps * low.block_images() * positions];
        let mut dx = vec![0.0f32; low.n * low.channels * low.h * low.w];
        let mut panels = Vec::new();
        let (mut chain, mut kept) = (Chain::Axpy(Zeros::Lanes), 0);
        for images in low.blocks() {
            let width = images.len() * positions;
            let block = &cache.cols[kept..kept + taps * width];
            kept += taps * width;
            // dW = g · colsᵀ: lanes are the gradient's channels, the chain
            // runs over the batch's positions and skips zero gradients.
            gemm_into(
                Lanes::Rows {
                    data: &g[images.start * oc * positions..images.end * oc * positions],
                    run: positions,
                },
                block,
                width,
                Out {
                    data: &mut dw,
                    lane_stride: taps,
                    row_stride: 1,
                },
                chain,
                &mut panels,
            )?;
            chain = Chain::AxpyResume(Zeros::Lanes);
            // dcols = Wᵀ · g: lanes are an image's positions, the chain runs
            // over output channels and skips zero gradients.
            let dblock = &mut dcols[..taps * width];
            for (slot, image) in images.clone().enumerate() {
                gemm_into(
                    Lanes::Columns {
                        data: &g[image * oc * positions..][..oc * positions],
                        count: positions,
                        stride: positions,
                    },
                    weight_t.as_slice(),
                    oc,
                    Out {
                        data: &mut dblock[slot * positions..],
                        lane_stride: 1,
                        row_stride: width,
                    },
                    Chain::Axpy(Zeros::Lanes),
                    &mut panels,
                )?;
            }
            low.raise(dblock, images, &mut dx);
        }
        for (grad, sum) in self.weight.grad.as_mut_slice().iter_mut().zip(dw) {
            *grad += sum;
        }
        Ok(Tensor::from_vec(dx, &cache.input_dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn output_dims(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        let low = self.lowering(input_dims)?;
        Ok(vec![low.n, self.out_channels, low.oh, low.ow])
    }

    fn flops(&self, input_dims: &[usize]) -> Result<u64> {
        let out = self.output_dims(input_dims)?;
        let fan_in = (self.in_channels * self.geom.kernel * self.geom.kernel) as u64;
        let positions = (out[0] * out[2] * out[3]) as u64;
        Ok(positions * self.out_channels as u64 * (2 * fan_in + 1))
    }
}

/// The pipeline `Conv2d` ran before it moved onto the blocked kernel, kept
/// as the reference the layer is held to bit for bit: lower to
/// `[positions][taps]` rows element by element, multiply with sequential
/// sums and zero-skipping axpy loops, reorder to and from NCHW, scatter
/// the column gradients back output by output.
#[cfg(test)]
mod reference {
    use super::Lowering;

    /// Lowers `[n, c, h, w]` to rows `[n*oh*ow, c*k*k]`.
    pub fn im2col(low: &Lowering, x: &[f32]) -> Vec<f32> {
        let (c, k, s, p) = (
            low.channels,
            low.geom.kernel,
            low.geom.stride,
            low.geom.padding as isize,
        );
        let (n, h, w, oh, ow) = (low.n, low.h, low.w, low.oh, low.ow);
        let col_w = c * k * k;
        let mut cols = vec![0.0f32; n * oh * ow * col_w];
        for bi in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * col_w;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * s + ky) as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let src_base = ((bi * c + ci) * h + iy as usize) * w;
                            let dst_base = row + (ci * k + ky) * k;
                            for kx in 0..k {
                                let ix = (ox * s + kx) as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                cols[dst_base + kx] = x[src_base + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    /// Scatters column gradients back to input layout (col2im).
    pub fn col2im(low: &Lowering, dcols: &[f32]) -> Vec<f32> {
        let (c, k, s, p) = (
            low.channels,
            low.geom.kernel,
            low.geom.stride,
            low.geom.padding as isize,
        );
        let (n, h, w, oh, ow) = (low.n, low.h, low.w, low.oh, low.ow);
        let col_w = c * k * k;
        let mut dx = vec![0.0f32; n * c * h * w];
        for bi in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * col_w;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * s + ky) as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst_base = ((bi * c + ci) * h + iy as usize) * w;
                            let src_base = row + (ci * k + ky) * k;
                            for kx in 0..k {
                                let ix = (ox * s + kx) as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                dx[dst_base + ix as usize] += dcols[src_base + kx];
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    /// Reorders `[n*positions, oc]` rows to `[n, oc, positions]`.
    fn rows_to_nchw(rows: &[f32], n: usize, oc: usize, positions: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows.len()];
        for bi in 0..n {
            for at in 0..positions {
                for co in 0..oc {
                    out[(bi * oc + co) * positions + at] = rows[(bi * positions + at) * oc + co];
                }
            }
        }
        out
    }

    /// Reorders `[n, oc, positions]` back to `[n*positions, oc]` rows.
    fn nchw_to_rows(planes: &[f32], n: usize, oc: usize, positions: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; planes.len()];
        for bi in 0..n {
            for co in 0..oc {
                for at in 0..positions {
                    out[(bi * positions + at) * oc + co] = planes[(bi * oc + co) * positions + at];
                }
            }
        }
        out
    }

    /// `y` in NCHW: `cols · Wᵀ` by sequential sums, plus the bias.
    pub fn forward(low: &Lowering, cols: &[f32], weight: &[f32], bias: &[f32]) -> Vec<f32> {
        let (taps, oc) = (low.taps(), bias.len());
        let mut scores = Vec::with_capacity(cols.len() / taps * oc);
        for col in cols.chunks_exact(taps) {
            for (w_row, b) in weight.chunks_exact(taps).zip(bias) {
                let dot: f32 = col.iter().zip(w_row).map(|(x, y)| x * y).sum();
                scores.push(dot + b);
            }
        }
        rows_to_nchw(&scores, low.n, oc, low.positions())
    }

    /// `(dx, dW, db)` of one pass: `gᵀ · cols` and `g · W` by axpy loops
    /// that skip zero gradients, `db` the column sums of `g`.
    pub fn backward(
        low: &Lowering,
        cols: &[f32],
        weight: &[f32],
        g_nchw: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let taps = low.taps();
        let oc = weight.len() / taps;
        let g_rows = nchw_to_rows(g_nchw, low.n, oc, low.positions());
        let (mut dw, mut db) = (vec![0.0f32; oc * taps], vec![0.0f32; oc]);
        let mut dcols = vec![0.0f32; cols.len()];
        let per_position = g_rows.chunks_exact(oc).zip(cols.chunks_exact(taps));
        for ((g_row, col), dcol) in per_position.zip(dcols.chunks_exact_mut(taps)) {
            for (co, &g) in g_row.iter().enumerate() {
                db[co] += g;
                if g == 0.0 {
                    continue;
                }
                for (o, &x) in dw[co * taps..(co + 1) * taps].iter_mut().zip(col) {
                    *o += g * x;
                }
                for (o, &x) in dcol.iter_mut().zip(&weight[co * taps..(co + 1) * taps]) {
                    *o += g * x;
                }
            }
        }
        (col2im(low, &dcols), dw, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const G3X3: ConvGeometry = ConvGeometry {
        kernel: 3,
        stride: 1,
        padding: 1,
    };

    #[test]
    fn geometry_output_size() {
        assert_eq!(G3X3.output_size(16), Some(16));
        let g = ConvGeometry {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(g.output_size(16), Some(8));
        let big = ConvGeometry {
            kernel: 7,
            stride: 1,
            padding: 0,
        };
        assert_eq!(big.output_size(4), None);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, G3X3, &mut rng).unwrap();
        // Set the kernel to a delta at the center: output == input.
        conv.weight.value.map_assign(|_| 0.0);
        conv.weight.value.as_mut_slice()[4] = 1.0;
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_convolution_value() {
        let mut rng = StdRng::seed_from_u64(0);
        let geom = ConvGeometry {
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let mut conv = Conv2d::new(1, 1, geom, &mut rng).unwrap();
        conv.weight
            .value
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        conv.bias.value.as_mut_slice()[0] = 0.5;
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        // Window at (0,0): 1*1+2*2+4*3+5*4 = 37, plus bias.
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice()[0], 37.5);
    }

    #[test]
    fn stride_two_downsamples() {
        let mut rng = StdRng::seed_from_u64(1);
        let geom = ConvGeometry {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let mut conv = Conv2d::new(3, 8, geom, &mut rng).unwrap();
        let y = conv
            .forward(&Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 4, G3X3, &mut rng).unwrap();
        assert!(conv
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .is_err());
        assert!(conv.forward(&Tensor::zeros(&[8, 8]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 3, G3X3, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let base = y.sum();
        let dx = conv.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 1e-2;
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let yp = conv.forward(&xp, Mode::Eval).unwrap().sum();
            let num = (yp - base) / eps;
            assert!(
                (num - dx.as_slice()[i]).abs() < 0.05,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.as_slice()[i]
            );
        }
        for i in (0..conv.weight.value.len()).step_by(7) {
            let orig = conv.weight.value.as_slice()[i];
            conv.weight.value.as_mut_slice()[i] = orig + eps;
            let yp = conv.forward(&x, Mode::Eval).unwrap().sum();
            conv.weight.value.as_mut_slice()[i] = orig;
            let num = (yp - base) / eps;
            assert!(
                (num - conv.weight.grad.as_slice()[i]).abs() < 0.05,
                "dW[{i}]: numeric {num} vs analytic {}",
                conv.weight.grad.as_slice()[i]
            );
        }
    }

    /// Normal draws; with `specials`, one value in sixteen is a signed
    /// zero, a subnormal, a huge value, an infinity or a NaN.
    fn fill(dims: &[usize], rng: &mut StdRng, specials: bool) -> Tensor {
        const SPECIALS: [f32; 8] = [
            0.0,
            -0.0,
            1.0e-41,
            3.0e38,
            -3.0e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut t = Tensor::randn(dims, 2.0, rng);
        if specials {
            for x in t.as_mut_slice() {
                if rng.gen_range(0..16) == 0 {
                    *x = SPECIALS[rng.gen_range(0..SPECIALS.len())];
                }
            }
        }
        t
    }

    /// A gradient as it arrives behind a ReLU: three values in ten are an
    /// exact zero of either sign.
    fn sparse_gradient(dims: &[usize], rng: &mut StdRng, specials: bool) -> Tensor {
        let mut g = fill(dims, rng, specials);
        for x in g.as_mut_slice() {
            match rng.gen_range(0..10) {
                0 | 1 => *x = 0.0,
                2 => *x = -0.0,
                _ => {}
            }
        }
        g
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} differs at {at}: {g:e} ({:#010x}) vs the reference's {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits(),
            );
        }
    }

    /// Holds one layer on one input to the reference pipeline: `y` in
    /// both modes, then `dx` and the accumulated `weight.grad` and
    /// `bias.grad` over two backward passes with no `zero_grad` between.
    fn assert_matches_reference(conv: &mut Conv2d, dims: [usize; 4], specials: bool, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let low = conv.lowering(&dims).unwrap();
        let geom = conv.geom;
        let what = |part: &str| format!("{part} of {geom:?} {dims:?} specials={specials}");
        let (mut dw_want, mut db_want) =
            (vec![0.0f32; conv.weight.len()], vec![0.0; conv.bias.len()]);
        for pass in 0..2 {
            let x = fill(&dims, &mut rng, specials);
            let cols = reference::im2col(&low, x.as_slice());
            let weight = conv.weight.value.as_slice().to_vec();
            let y_want = reference::forward(&low, &cols, &weight, conv.bias.value.as_slice());
            let y = conv.forward(&x, Mode::Eval).unwrap();
            assert_same_bits(y.as_slice(), &y_want, &what("eval y"));
            let y = conv.forward(&x, Mode::Train).unwrap();
            assert_same_bits(y.as_slice(), &y_want, &what("train y"));

            let g = sparse_gradient(y.dims(), &mut rng, specials);
            let (dx_want, dw, db) = reference::backward(&low, &cols, &weight, g.as_slice());
            for (acc, d) in dw_want.iter_mut().zip(dw).chain(db_want.iter_mut().zip(db)) {
                *acc += d;
            }
            let dx = conv.backward(&g).unwrap();
            assert_eq!(dx.dims(), &dims);
            assert_same_bits(dx.as_slice(), &dx_want, &what("dx"));
            let pass = format!("pass {pass} weight.grad");
            assert_same_bits(conv.weight.grad.as_slice(), &dw_want, &what(&pass));
            assert_same_bits(conv.bias.grad.as_slice(), &db_want, &what("bias.grad"));
        }
    }

    fn conv(
        ic: usize,
        oc: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Conv2d {
        let geom = ConvGeometry {
            kernel,
            stride,
            padding,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(ic, oc, geom, &mut rng).unwrap();
        conv.bias.value = Tensor::randn(&[oc], 1.0, &mut rng);
        conv
    }

    #[test]
    fn every_model_layer_is_bit_identical_to_the_reference_pipeline() {
        // (in, out, kernel, stride, padding, input size): `resnet_lite`'s
        // stem, stages and shortcuts, then `small_cnn`'s two layers. A
        // batch of 70 ends every layer's last block short.
        let layers = [
            (3, 8, 3, 1, 1, 16),
            (8, 8, 3, 1, 1, 16),
            (8, 16, 3, 2, 1, 16),
            (8, 16, 1, 2, 0, 16),
            (16, 16, 3, 1, 1, 8),
            (16, 32, 3, 2, 1, 8),
            (16, 32, 1, 2, 0, 8),
            (32, 32, 3, 1, 1, 4),
            (1, 8, 3, 1, 1, 16),
            (8, 16, 3, 1, 1, 8),
        ];
        for (at, &(ic, oc, kernel, stride, padding, size)) in layers.iter().enumerate() {
            for n in [1, 3, 10, 64, 70] {
                let seed = (at * 100 + n) as u64;
                let mut layer = conv(ic, oc, kernel, stride, padding, seed);
                assert_matches_reference(&mut layer, [n, ic, size, size], n == 3, seed);
            }
        }
    }

    #[test]
    fn odd_shapes_are_bit_identical_to_the_reference_pipeline() {
        // (in, out, kernel, stride, padding, h, w): output channels and
        // positions that fill no panel, every kernel size, stride 3,
        // padding of none and of more than half the kernel, a kernel
        // larger than the unpadded image, an image larger than a block.
        let shapes = [
            (2, 1, 1, 1, 0, 5, 5),
            (3, 5, 2, 1, 0, 6, 7),
            (2, 13, 5, 1, 2, 5, 9),
            (1, 5, 7, 1, 3, 4, 4),
            (3, 13, 3, 3, 1, 11, 10),
            (2, 5, 2, 3, 2, 7, 5),
            (1, 1, 3, 2, 3, 3, 3),
            (2, 5, 5, 2, 2, 2, 3),
            (1, 13, 1, 3, 1, 8, 8),
            (1, 5, 3, 1, 1, 25, 23),
        ];
        for (at, &(ic, oc, kernel, stride, padding, h, w)) in shapes.iter().enumerate() {
            for n in [1, 3, 10, 64, 70] {
                for specials in [false, true] {
                    let seed = (at * 1000 + n * 2 + usize::from(specials)) as u64;
                    let mut layer = conv(ic, oc, kernel, stride, padding, seed);
                    if specials {
                        layer.weight.value = fill(
                            &[oc, ic * kernel * kernel],
                            &mut StdRng::seed_from_u64(seed),
                            true,
                        );
                    }
                    assert_matches_reference(&mut layer, [n, ic, h, w], specials, seed);
                }
            }
        }
    }

    #[test]
    fn zero_weights_keep_the_negative_zero_the_sum_starts_from() {
        // Products of `+0.0` weights and negative inputs are all `-0.0`,
        // so the chain never leaves its `-0.0` start, and `-0.0 + -0.0`
        // bias is `-0.0`; a chain started at `+0.0` would give `+0.0`.
        let mut layer = conv(2, 3, 1, 1, 0, 5);
        layer.weight.value.map_assign(|_| 0.0);
        layer.bias.value.map_assign(|_| -0.0);
        let x = Tensor::full(&[2, 2, 3, 3], -1.5);
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert!(y
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_matches_reference(&mut layer, [3, 2, 3, 3], false, 6);
    }

    #[test]
    fn zero_gradients_skip_non_finite_activations_and_weights() {
        // An all-zero gradient (either sign) against infinite activations
        // and weights: every term is skipped, no `0 · ∞` reaches a sum.
        let mut layer = conv(1, 2, 3, 1, 1, 7);
        layer.weight.value.map_assign(|_| f32::INFINITY);
        let x = Tensor::full(&[1, 1, 4, 4], f32::NEG_INFINITY);
        let y = layer.forward(&x, Mode::Train).unwrap();
        // Channel 1's gradient is all `-0.0`: its `db` chain still ends at
        // the `+0.0` it starts from, which shows in a `-0.0` accumulator.
        let mut g = Tensor::zeros(y.dims());
        g.as_mut_slice()[3] = -0.0;
        g.as_mut_slice()[16..].fill(-0.0);
        layer.bias.grad.map_assign(|_| -0.0);
        let dx = layer.backward(&g).unwrap();
        let all_zero = |t: &Tensor| t.as_slice().iter().all(|v| v.to_bits() == 0);
        assert!(all_zero(&dx) && all_zero(&layer.weight.grad) && all_zero(&layer.bias.grad));
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, G3X3, &mut rng).unwrap();
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn flops_positive_and_scale_with_batch() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(3, 16, G3X3, &mut rng).unwrap();
        let f1 = conv.flops(&[1, 3, 16, 16]).unwrap();
        let f2 = conv.flops(&[2, 3, 16, 16]).unwrap();
        assert!(f1 > 0);
        assert_eq!(f2, 2 * f1);
    }
}
