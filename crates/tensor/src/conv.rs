//! NCHW tensors and 2-D convolution: direct, im2col-lowered, and
//! implicit-GEMM.
//!
//! The paper treats convolutions as matrix multiplications "for
//! simplicity and connection to high performance computing literature"
//! (its footnote 1); im2col is the lowering that makes this literal.
//! The executed kernel here is [`conv2d`], an *implicit*-GEMM: the
//! GEMM core ([`crate::gemm`]) takes the column matrix as its broadcast
//! operand and reads it in place through [`Im2colMap`] — the separable
//! offset map `idx(k, m) = col_base[m] + k_off[k]`, two small tables
//! and one add per element — so **no `(in_c·kh·kw) × (n·oh·ow)` column
//! matrix is ever materialized, nor packed**: only the small weight
//! operand is (see [`conv_scratch_words`]). Each output pixel is a row
//! of the product and lands straight in the NCHW output. Padding is not
//! the map's business: a padded convolution zero-extends its input
//! once. The backward pass is two gathers through the same map: `∆W`
//! is the column matrix read by tap rows against `∆Yᵀ`
//! ([`conv2d_backward_weights`]), and `∆X` is the forward kernel itself
//! run on the output gradient framed in zeros, with the kernel rotated
//! and its channel roles swapped ([`conv2d_backward_data`]) — each `∆X`
//! element summed in one order, whichever rows of it are asked for.
//!
//! [`conv2d_direct`] remains the independent reference the GEMM paths
//! cross-check against; [`conv2d_im2col`] keeps the materialized
//! lowering for verification, and [`conv2d_im2col_ref`] and
//! [`conv2d_backward_ref`] freeze the pre-packing executed paths
//! (materialized im2col + the frozen blocked matmul, col2im for `∆X`)
//! as the benchmark baselines.

use std::borrow::Cow;
use std::ops::Range;

use crate::gemm;
use crate::matmul::{matmul, matmul_at_b, matmul_ref};
use crate::matrix::Matrix;

/// A dense NCHW tensor: `n` samples × `c` channels × `h` × `w`, with
/// width running fastest in memory — the layout the paper's Fig. 3
/// discusses (and why domain decomposition slices along height).
#[derive(Clone, PartialEq, Debug)]
pub struct Tensor4 {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    data: Vec<f64>,
}

/// `(n, c, h, w)`.
type Shape = (usize, usize, usize, usize);
/// `[samples, rows, columns]`: the extent of a block of a [`Tensor4`]
/// (all channels of it), or the `[sample, row, column]` it starts at.
pub type Nhw = [usize; 3];

impl Tensor4 {
    /// An all-zeros tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Builds a tensor element-wise.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(n * c * h * w);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        data.push(f(ni, ci, hi, wi));
                    }
                }
            }
        }
        Tensor4 { n, c, h, w, data }
    }

    /// Wraps an NCHW buffer without copying it.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "buffer does not match shape");
        Tensor4 { n, c, h, w, data }
    }

    /// The NCHW buffer, without copying it.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    #[inline]
    fn idx(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f64 {
        self.data[self.idx(n, c, h, w)]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f64) {
        let i = self.idx(n, c, h, w);
        self.data[i] = v;
    }

    /// Adds `v` at an element.
    #[inline]
    pub fn add_at(&mut self, n: usize, c: usize, h: usize, w: usize, v: f64) {
        let i = self.idx(n, c, h, w);
        self.data[i] += v;
    }

    /// Raw buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(n, c, h, w)`.
    pub fn shape(&self) -> Shape {
        (self.n, self.c, self.h, self.w)
    }

    /// The one body under every strip, frame and shard copier: calls
    /// `run(d, s, len)` with the buffer offsets of every contiguous run
    /// that the `size` block at `at` of a `dst`-shaped tensor shares
    /// with the one at `from` of a `src`-shaped tensor, in ascending
    /// order — a whole `rows·columns` run per plane where the block
    /// spans both widths, else a row.
    fn block_runs(
        (dst, at): (Shape, Nhw),
        (src, from): (Shape, Nhw),
        size: Nhw,
        mut run: impl FnMut(usize, usize, usize),
    ) {
        let fits = |(n, _, h, w): Shape, o: Nhw| {
            o[0] + size[0] <= n && o[1] + size[1] <= h && o[2] + size[2] <= w
        };
        assert!(
            src.1 == dst.1 && fits(src, from) && fits(dst, at),
            "block {size:?} from {from:?} of {src:?} to {at:?} of {dst:?}"
        );
        let ((_, c, dh, dw), (_, _, sh, sw), [samples, rows, cols]) = (dst, src, size);
        let flat = cols == dw && cols == sw;
        let (runs, len) = if flat { (1, rows * cols) } else { (rows, cols) };
        if len == 0 {
            return;
        }
        for plane in 0..samples * c {
            let d0 = ((at[0] * c + plane) * dh + at[1]) * dw + at[2];
            let s0 = ((from[0] * c + plane) * sh + from[1]) * sw + from[2];
            for r in 0..runs {
                run(d0 + r * dw, s0 + r * sw, len);
            }
        }
    }

    /// Copies the `size` block at `from` in `src` onto the block at
    /// `at` here.
    pub fn copy_block(&mut self, at: Nhw, src: &Tensor4, from: Nhw, size: Nhw) {
        let (dst, src_shape) = (self.shape(), src.shape());
        Self::block_runs((dst, at), (src_shape, from), size, |d, s, len| {
            self.data[d..d + len].copy_from_slice(&src.data[s..s + len]);
        });
    }

    /// Copies samples `n`, rows `rows` and columns `cols` of every
    /// channel into a new tensor.
    pub fn block(&self, n: Range<usize>, rows: Range<usize>, cols: Range<usize>) -> Tensor4 {
        let from = [n.start, rows.start, cols.start];
        let (n, h, w) = (n.len(), rows.len(), cols.len());
        let mut data = Vec::with_capacity(n * self.c * h * w);
        // The new tensor is exactly the block: its runs arrive back to
        // back.
        let dst = ((n, self.c, h, w), [0; 3]);
        Self::block_runs(dst, (self.shape(), from), [n, h, w], |_, s, len| {
            data.extend_from_slice(&self.data[s..s + len]);
        });
        Tensor4::from_vec(n, self.c, h, w, data)
    }

    /// Copies rows `h0..h1` (all samples, channels, widths) into a new
    /// tensor — the strip a domain-parallel rank owns.
    pub fn row_strip(&self, h0: usize, h1: usize) -> Tensor4 {
        assert!(
            h0 <= h1 && h1 <= self.h,
            "row strip {h0}..{h1} out of {}",
            self.h
        );
        self.block(0..self.n, h0..h1, 0..self.w)
    }

    /// Writes `strip` back into rows `h0..`.
    pub fn set_row_strip(&mut self, h0: usize, strip: &Tensor4) {
        self.copy_block([0, h0, 0], strip, [0; 3], self.strip_size(strip));
    }

    /// `strip` as a block, checked to span this tensor's samples,
    /// channels and width.
    fn strip_size(&self, strip: &Tensor4) -> [usize; 3] {
        assert_eq!((strip.n, strip.c, strip.w), (self.n, self.c, self.w));
        [strip.n, strip.h, strip.w]
    }

    /// A copy framed in zeros: `above` / `below` extra rows and `side`
    /// extra columns on the left and on the right of every plane.
    pub fn zero_extend(&self, above: usize, below: usize, side: usize) -> Tensor4 {
        let (h, w) = (self.h + above + below, self.w + 2 * side);
        let mut ext = Tensor4::zeros(self.n, self.c, h, w);
        if self.h * self.w > 0 {
            let planes = ext
                .data
                .chunks_exact_mut(h * w)
                .zip(self.data.chunks_exact(self.h * self.w));
            for (dst, src) in planes {
                for (d, s) in dst[above * w..]
                    .chunks_exact_mut(w)
                    .zip(src.chunks_exact(self.w))
                {
                    for (d, &s) in d[side..].iter_mut().zip(s) {
                        *d = s;
                    }
                }
            }
        }
        ext
    }

    /// Flattens into a matrix with one *column* per sample (the `d × B`
    /// layout of the paper's activation matrices `X_i`).
    pub fn to_columns(&self) -> Matrix {
        let d = self.c * self.h * self.w;
        Matrix::from_fn(d, self.n, |row, col| self.data[col * d + row])
    }

    /// Inverse of [`Tensor4::to_columns`].
    pub fn from_columns(m: &Matrix, c: usize, h: usize, w: usize) -> Tensor4 {
        assert_eq!(m.rows(), c * h * w, "column layout mismatch");
        let n = m.cols();
        let d = c * h * w;
        let mut t = Tensor4::zeros(n, c, h, w);
        for col in 0..n {
            for row in 0..d {
                t.data[col * d + row] = m.get(row, col);
            }
        }
        t
    }

    /// Largest absolute element-wise difference.
    pub fn max_abs_diff(&self, other: &Tensor4) -> f64 {
        assert_eq!(self.shape(), other.shape(), "tensor shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether all elements are within `tol`.
    pub fn approx_eq(&self, other: &Tensor4, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

/// Convolution hyper-parameters. Weights are stored as a
/// `out_c × (in_c·kh·kw)` [`Matrix`], which is exactly the `W_i` of the
/// paper's Eq. 2: `|W_i| = (kh·kw·X_C)·Y_C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input channels `X_C`.
    pub in_c: usize,
    /// Output channels `Y_C` (number of filters).
    pub out_c: usize,
    /// Kernel height `k_h`.
    pub kh: usize,
    /// Kernel width `k_w`.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dParams {
    /// Output spatial size for an `h × w` input:
    /// `⌊(x + 2·pad − k)/stride⌋ + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad >= self.kh && w + 2 * self.pad >= self.kw,
            "conv kernel {}x{} does not fit a {h}x{w} input with pad {}",
            self.kh,
            self.kw,
            self.pad
        );
        let oh = (h + 2 * self.pad - self.kh) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kw) / self.stride + 1;
        (oh, ow)
    }

    /// Number of weights, `(kh·kw·in_c)·out_c` (Eq. 2).
    pub fn weight_count(&self) -> usize {
        self.kh * self.kw * self.in_c * self.out_c
    }

    /// The im2col patch length `in_c·kh·kw`.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kh * self.kw
    }
}

/// Calls `f(col, row, at)` for every tap of every output pixel of an
/// `n × p.in_c × h × w` input that lands in it (padding reads zero and
/// is skipped), pixel by pixel and each pixel's taps in ascending order:
/// `col = (n·oh + oy)·ow + ox` and `row = (ic·kh + ky)·kw + kx` index
/// [`im2col`]'s matrix, and `at` is the input's flat index.
fn each_tap(
    n: usize,
    h: usize,
    w: usize,
    p: &Conv2dParams,
    mut f: impl FnMut(usize, usize, usize),
) {
    let (oh, ow) = p.out_hw(h, w);
    let inside =
        |o: usize, k: usize, len: usize| (o * p.stride + k).checked_sub(p.pad).filter(|&i| i < len);
    for col in 0..n * oh * ow {
        let (ni, oy, ox) = (col / (oh * ow), col / ow % oh, col % ow);
        for ic in 0..p.in_c {
            for ky in 0..p.kh {
                let Some(iy) = inside(oy, ky, h) else {
                    continue;
                };
                for kx in 0..p.kw {
                    if let Some(ix) = inside(ox, kx, w) {
                        f(
                            col,
                            (ic * p.kh + ky) * p.kw + kx,
                            ((ni * p.in_c + ic) * h + iy) * w + ix,
                        );
                    }
                }
            }
        }
    }
}

/// Direct convolution: `out[n][oc][oh][ow] = Σ w[oc][ic,kh,kw] · in[…]`,
/// each sum a plain `+=` over the taps in ascending order.
pub fn conv2d_direct(input: &Tensor4, weights: &Matrix, p: &Conv2dParams) -> Tensor4 {
    assert_conv_shapes(input, weights, p);
    let (oh, ow) = p.out_hw(input.h, input.w);
    let (hw, x) = (oh * ow, input.as_slice());
    let mut out = Tensor4::zeros(input.n, p.out_c, oh, ow);
    let od = out.as_mut_slice();
    each_tap(input.n, input.h, input.w, p, |col, row, at| {
        for oc in 0..p.out_c {
            od[(col / hw * p.out_c + oc) * hw + col % hw] += weights.get(oc, row) * x[at];
        }
    });
    out
}

/// im2col: unrolls all receptive fields into a
/// `(in_c·kh·kw) × (n·oh·ow)` matrix so convolution becomes `W · cols`.
pub fn im2col(input: &Tensor4, p: &Conv2dParams) -> Matrix {
    let (oh, ow) = p.out_hw(input.h, input.w);
    let mut m = Matrix::zeros(p.patch_len(), input.n * oh * ow);
    each_tap(input.n, input.h, input.w, p, |col, row, at| {
        m.set(row, col, input.as_slice()[at])
    });
    m
}

/// col2im: scatter-adds a `(in_c·kh·kw) × (n·oh·ow)` gradient matrix
/// back onto input coordinates (the adjoint of [`im2col`]).
pub fn col2im(cols: &Matrix, n: usize, h: usize, w: usize, p: &Conv2dParams) -> Tensor4 {
    let (oh, ow) = p.out_hw(h, w);
    assert_eq!(cols.rows(), p.patch_len(), "col2im row mismatch");
    assert_eq!(cols.cols(), n * oh * ow, "col2im col mismatch");
    let mut out = Tensor4::zeros(n, p.in_c, h, w);
    let od = out.as_mut_slice();
    each_tap(n, h, w, p, |col, row, at| od[at] += cols.get(row, col));
    out
}

/// `product(W, im2col(X))`, laid out as NCHW.
fn lowered(
    x: &Tensor4,
    w: &Matrix,
    p: &Conv2dParams,
    product: fn(&Matrix, &Matrix) -> Matrix,
) -> Tensor4 {
    let (oh, ow) = p.out_hw(x.h, x.w);
    let y = product(w, &im2col(x, p)); // out_c × (n·oh·ow)
    Tensor4::from_fn(x.n, p.out_c, oh, ow, |n, oc, oy, ox| {
        y.get(oc, (n * oh + oy) * ow + ox)
    })
}

/// Convolution via im2col + matmul. Must agree with
/// [`conv2d_direct`] to rounding error.
pub fn conv2d_im2col(input: &Tensor4, weights: &Matrix, p: &Conv2dParams) -> Tensor4 {
    lowered(input, weights, p, matmul)
}

/// The pre-packing executed convolution (materialized im2col + the
/// frozen blocked [`matmul_ref`]), kept as the measured baseline for
/// kernel speedups. Not used by any compute path; benchmarks only.
pub fn conv2d_im2col_ref(input: &Tensor4, weights: &Matrix, p: &Conv2dParams) -> Tensor4 {
    lowered(input, weights, p, matmul_ref)
}

/// Separable im2col offset map for implicit-GEMM convolution over an
/// *unpadded* NCHW buffer.
///
/// The virtual column matrix element at `(kidx, col)` — with
/// `kidx = (ic·kh + ky)·kw + kx` matching the weight-column layout and
/// `col = (n·oh + oy)·ow + ox` matching the output layout — lives at
/// flat input index
/// `((n·C + ic)·H + oy·s + ky)·W + ox·s + kx`, which splits into a
/// column-only and a patch-only term:
///
/// ```text
/// idx(kidx, col) = col_base[col] + k_off[kidx]
/// col_base[(n, oy, ox)]  = n·C·H·W + oy·s·W + ox·s
/// k_off[(ic, ky, kx)]    = ic·H·W + ky·W + kx
/// ```
///
/// Two `u32` tables of `m + k` entries, built by nested loops with no
/// division, replace any per-element index arithmetic; without padding
/// every tap is in bounds, so there is no validity test either. The
/// forward reads it by pixel rows — as does `∆X`, run on the framed
/// output gradient — and `∆W` by tap rows, through the same two tables.
pub struct Im2colMap {
    /// Per output column `(n, oy, ox)`: flat index of its patch origin.
    pub col_base: Vec<u32>,
    /// Per patch row `(ic, ky, kx)`: offset from the patch origin.
    pub k_off: Vec<u32>,
}

impl Im2colMap {
    /// Builds the tables for an unpadded `n × p.in_c × h × w` input
    /// (`p.pad` is ignored: the caller has already zero-extended).
    pub fn new(p: &Conv2dParams, n: usize, h: usize, w: usize) -> Self {
        assert!(
            n * p.in_c * h * w <= u32::MAX as usize,
            "conv input of {n}x{}x{h}x{w} overflows the u32 offset tables",
            p.in_c
        );
        let flat = Conv2dParams { pad: 0, ..*p };
        let (oh, ow) = flat.out_hw(h, w);
        let mut col_base = Vec::with_capacity(n * oh * ow);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    col_base.push((ni * p.in_c * h * w + oy * p.stride * w + ox * p.stride) as u32);
                }
            }
        }
        let mut k_off = Vec::with_capacity(p.patch_len());
        for ic in 0..p.in_c {
            for ky in 0..p.kh {
                for kx in 0..p.kw {
                    k_off.push((ic * h * w + ky * w + kx) as u32);
                }
            }
        }
        Im2colMap { col_base, k_off }
    }
}

/// The input a pad-free kernel runs on: `input` itself when `pad == 0`,
/// else one zero-extended copy (O(input) words, made once per call).
fn padded<'a>(input: &'a Tensor4, p: &Conv2dParams) -> Cow<'a, Tensor4> {
    if p.pad > 0 {
        Cow::Owned(input.zero_extend(p.pad, p.pad, p.pad))
    } else {
        Cow::Borrowed(input)
    }
}

fn assert_conv_shapes(input: &Tensor4, weights: &Matrix, p: &Conv2dParams) {
    assert_eq!(input.c, p.in_c, "input channel mismatch");
    assert_eq!(weights.rows(), p.out_c, "weight rows must be out_c");
    assert_eq!(
        weights.cols(),
        p.patch_len(),
        "weight cols must be in_c*kh*kw"
    );
}

/// Per pixel `(n, oy, ox)` of an NCHW tensor of `c` channels of `hw`
/// pixels each, in pixel order: the word of its channel 0, channel `ch`
/// being `ch·hw` further — the rows a convolution's product lands in.
fn pixel_offsets(n: usize, c: usize, hw: usize) -> Vec<u32> {
    assert!(
        n * c * hw <= u32::MAX as usize,
        "{n}x{c}x{hw} overflows u32 offsets"
    );
    (0..n)
        .flat_map(|ni| (ni * c * hw..ni * c * hw + hw).map(|w| w as u32))
        .collect()
}

/// Transient words the implicit-GEMM forward allocates beyond its
/// output: the packed `Wᵀ` panel, the offset tables (`Im2colMap`'s two
/// and the output's pixel offsets), and (when `pad > 0`) the
/// zero-extended input — bounded by the blocking constants, the
/// pixel count and the input size, never by the
/// `(in_c·kh·kw) × (n·oh·ow)` column matrix that [`im2col`] would
/// materialize, and with no `out_c × (n·oh·ow)` staging.
pub fn conv_scratch_words(batch: usize, h: usize, w: usize, p: &Conv2dParams) -> usize {
    let (oh, ow) = p.out_hw(h, w);
    let m = batch * oh * ow;
    let padded_input = if p.pad > 0 {
        batch * p.in_c * (h + 2 * p.pad) * (w + 2 * p.pad)
    } else {
        0
    };
    let tables = (2 * m + p.patch_len()).div_ceil(2); // u32 entries
    gemm::panel_words(p.out_c, p.patch_len()) + tables + padded_input
}

/// Implicit-GEMM convolution: `Yᵀ = im2col(X)ᵀ · Wᵀ`, one row per output
/// pixel — the executed forward kernel. The column matrix is the
/// microkernel's broadcast operand, read in place through
/// [`Im2colMap`] (`x[col_base[pix] + k_off[tap]]`); only `Wᵀ` is
/// packed, and each pixel's row lands straight in the NCHW output.
/// Agrees with [`conv2d_direct`] to rounding error, bit-for-bit with
/// [`conv2d_im2col`], and is bit-reproducible run-to-run
/// ([`crate::gemm`]'s determinism contract).
pub fn conv2d(input: &Tensor4, weights: &Matrix, p: &Conv2dParams) -> Tensor4 {
    assert_conv_shapes(input, weights, p);
    let (oh, ow) = p.out_hw(input.h, input.w);
    let (m, k) = (input.n * oh * ow, p.patch_len());
    let mut out = Tensor4::zeros(input.n, p.out_c, oh, ow);
    if m == 0 || k == 0 || p.out_c == 0 {
        return out;
    }
    let x = padded(input, p);
    let map = Im2colMap::new(p, x.n, x.h, x.w);
    let rows = pixel_offsets(input.n, p.out_c, oh * ow);
    let wv = weights.as_slice();
    gemm::gemm_in_place(
        gemm::Offsets::new(x.as_slice(), &map.col_base, &map.k_off),
        |kk, j0, dst| gemm::gather_lanes(wv, j0 * k + kk, k, dst),
        gemm::Scatter::new(out.as_mut_slice(), &rows, p.out_c, oh * ow),
    );
    out
}

/// The weight gradient of a convolution alone,
/// `dWᵀ = im2col(X) · ∆Yᵀ`, one row per tap: the column matrix read in
/// place through [`Im2colMap`] (`x[k_off[tap] + col_base[pix]]`), only
/// `∆Yᵀ` packed, each row landing in a column of `dW`.
/// [`conv2d_backward`]'s `dW`, to the bit, without its `∆X` half — all
/// the backward of a layer whose input gradient nobody reads (a
/// network's first convolution).
pub fn conv2d_backward_weights(
    input: &Tensor4,
    weights: &Matrix,
    dy: &Tensor4,
    p: &Conv2dParams,
) -> Matrix {
    assert_conv_shapes(input, weights, p);
    let (oh, ow) = p.out_hw(input.h, input.w);
    assert_eq!(
        (dy.n, dy.c, dy.h, dy.w),
        (input.n, p.out_c, oh, ow),
        "dy shape mismatch"
    );
    let (m, k, oc, hw) = (input.n * oh * ow, p.patch_len(), p.out_c, oh * ow);
    let mut dw = Matrix::zeros(oc, k);
    if m == 0 || k == 0 || oc == 0 {
        return dw;
    }
    let x = padded(input, p);
    let map = Im2colMap::new(p, x.n, x.h, x.w);
    let (pixels, taps) = (
        pixel_offsets(input.n, oc, hw),
        (0..k as u32).collect::<Vec<_>>(),
    );
    let dyv = dy.as_slice();
    gemm::gemm_in_place(
        gemm::Offsets::new(x.as_slice(), &map.k_off, &map.col_base),
        |kk, j0, dst| gemm::gather_lanes(dyv, pixels[kk] as usize + j0 * hw, hw, dst),
        gemm::Scatter::new(dw.as_mut_slice(), &taps, oc, k),
    );
    dw
}

/// The input gradient of a convolution: rows `x_rows` of its
/// `w`-column `∆X`, from the output-gradient rows `oy0..oy0 + dy.h`,
/// which must hold every `∆Y` row those `∆X` rows read.
///
/// It is the forward kernel, a gather: `∆X = conv2d(∆Y′, W′)` at
/// stride 1 and no padding, where `∆Y′` is `∆Y` framed in zeros and
/// `W′` is `W` with its kernel rotated and its `in_c` / `out_c` roles
/// swapped. A stride `s > 1` splits the kernel into its `s²` phases —
/// the taps that reach rows and columns of one residue mod `s` — and
/// stacks them as `W′`'s output channels, so `∆Y′` is not spread and no
/// tap multiplies a zero the stride put there; `∆X` is those channels
/// interleaved. Rows whose taps overhang `∆Y` run in bands with the
/// overhanging taps cropped. A cropped tap only ever adds an exact
/// zero, so every element is the same ascending-k fold whichever rows
/// are asked for: a strip of `∆X` is the same rows of the whole to the
/// bit.
pub fn conv2d_backward_data(
    dy: &Tensor4,
    oy0: usize,
    weights: &Matrix,
    p: &Conv2dParams,
    x_rows: Range<usize>,
    w: usize,
) -> Tensor4 {
    assert_eq!(dy.c, p.out_c, "dy channel mismatch");
    assert_eq!(weights.shape(), (p.out_c, p.patch_len()), "weight shape");
    let (s, pad, n) = (p.stride, p.pad, dy.n);
    let mut dx = Tensor4::zeros(n, p.in_c, x_rows.len(), w);
    if x_rows.is_empty() || w == 0 {
        return dx;
    }
    // W′ as `(ic, φy, φx) × out_c × th × tw`: tap `(ty, tx)` of phase
    // `(φy, φx)` is `W`'s tap `(s·(th − 1 − ty) + φy, s·(tw − 1 − tx) +
    // φx)`, or zero past the kernel.
    let (th, tw, m) = (p.kh.div_ceil(s), p.kw.div_ceil(s), p.in_c * s * s);
    let split = |k: usize, t: usize| (0..k).map(|i| (i % s, t - 1 - i / s)).collect::<Vec<_>>();
    let (by_ky, by_kx) = (split(p.kh, th), split(p.kw, tw));
    let mut flipped = Tensor4::zeros(m, p.out_c, th, tw);
    for (oc, w_oc) in weights.as_slice().chunks_exact(p.patch_len()).enumerate() {
        for (ic, w_ic) in w_oc.chunks_exact(p.kh * p.kw).enumerate() {
            for (&(py, ty), w_row) in by_ky.iter().zip(w_ic.chunks_exact(p.kw)) {
                for (&(px, tx), &v) in by_kx.iter().zip(w_row) {
                    flipped.set((ic * s + py) * s + px, oc, ty, tx, v);
                }
            }
        }
    }
    let run = Conv2dParams {
        in_c: p.out_c,
        out_c: m,
        kw: tw,
        stride: 1,
        pad: 0,
        ..*p
    };
    // ∆X row `iy` is phase `(iy + pad) % s` of coarse row `Y = (iy +
    // pad) / s`, whose tap `(t, u)` reads ∆Y row `Y + 1 + t − th` and
    // column `X + 1 + u − tw` (zero outside `dy`). A band of coarse rows
    // runs the tap rows that land on rows of `dy`, or all of them when
    // the products the rest would skip (each `n·xs.len()` a tap row) do
    // not outnumber the `m` kernel rows the band's own copy of `W′`
    // costs a tap row — so `ext`, ∆Y framed in zeros, needs `th − 1`
    // rows above and below and `side` columns each side.
    let coarse = |lo: usize, hi: usize| (lo + pad) / s..(hi - 1 + pad) / s + 1;
    let (ys, xs) = (coarse(x_rows.start, x_rows.end), coarse(0, w));
    let side = (tw - 1)
        .saturating_sub(xs.start)
        .max(xs.end.saturating_sub(dy.w));
    let ext = dy.zero_extend(th - 1, th - 1, side);
    // Rows counted from `th` above ∆Y's first: `dy` holds `held`, and
    // `ext`'s first row is `top`.
    let held = oy0 + th..oy0 + th + dy.h;
    let top = oy0 + 1;
    let taps = |y: usize| {
        let reach = |row: usize| row.saturating_sub(y + 1).min(th);
        let worth = |t: &Range<usize>| (th - t.len()) * n * xs.len() >= m * t.len();
        Some(reach(held.start)..reach(held.end)).filter(worth)
    };
    let col = |ix: usize| ((ix + pad) % s, (ix + pad) / s - xs.start);
    let cols: Vec<_> = (0..w).map(col).collect();
    let mut y = ys.start;
    while y < ys.end {
        let t = taps(y).unwrap_or(0..th);
        let end = (y..ys.end)
            .find(|&z| taps(z).unwrap_or(0..th) != t)
            .unwrap_or(ys.end);
        if !t.is_empty() {
            let rows = y + 1 + t.start - top..end + t.end - top;
            let framed = ext.block(0..n, rows, xs.start + 1 + side - tw..xs.end + side);
            let w_t = flipped.block(0..m, t.clone(), 0..tw).into_vec();
            let w_t = Matrix::from_vec(m, w_t.len() / m, w_t);
            let g = conv2d(&framed, &w_t, &Conv2dParams { kh: t.len(), ..run });
            if s == 1 {
                dx.copy_block([0, y - ys.start, 0], &g, [0; 3], [n, end - y, w]);
            } else {
                // Interleave: `∆X[ic, iy, ix]` is `g[(ic, φy, φx), Y − y, X −
                // xs.start]`.
                let (gv, gh, gw) = (g.as_slice(), end - y, xs.len());
                let planes = dx.as_mut_slice().chunks_exact_mut(x_rows.len() * w);
                for (plane, out) in planes.enumerate() {
                    for (iy, row) in x_rows.clone().zip(out.chunks_exact_mut(w)) {
                        let (py, cy) = ((iy + pad) % s, (iy + pad) / s);
                        if (y..end).contains(&cy) {
                            let base = ((plane * s + py) * s * gh + cy - y) * gw;
                            for (v, &(px, cx)) in row.iter_mut().zip(&cols) {
                                *v = gv[base + px * gh * gw + cx];
                            }
                        }
                    }
                }
            }
        }
        y = end;
    }
    dx
}

/// Backward pass of a convolution given the output gradient `dy`
/// (shaped like the forward output). Returns `(dW, dX)`:
/// `dW = ∆Y · im2col(X)ᵀ` ([`conv2d_backward_weights`]) and `dX` by
/// [`conv2d_backward_data`] over every row — the conv instantiation of
/// the paper's §7.2 derivation, neither half materializing a
/// `patch_len × (n·oh·ow)` matrix. Equal to [`conv2d_backward_ref`]'s
/// `dW` to the bit and its `dX` to rounding.
pub fn conv2d_backward(
    input: &Tensor4,
    weights: &Matrix,
    dy: &Tensor4,
    p: &Conv2dParams,
) -> (Matrix, Tensor4) {
    let dw = conv2d_backward_weights(input, weights, dy, p);
    let dx = conv2d_backward_data(dy, 0, weights, p, 0..input.h, input.w);
    (dw, dx)
}

/// The materialized-lowering backward (im2col + matmul variants +
/// col2im), kept for cross-checking and as the benchmark baseline for
/// the implicit path. Not used by any compute path.
pub fn conv2d_backward_ref(
    input: &Tensor4,
    weights: &Matrix,
    dy: &Tensor4,
    p: &Conv2dParams,
) -> (Matrix, Tensor4) {
    let (oh, ow) = p.out_hw(input.h, input.w);
    assert_eq!((dy.c, dy.h, dy.w), (p.out_c, oh, ow), "dy shape mismatch");
    let cols = im2col(input, p);
    // Reshape dy into out_c × (n·oh·ow).
    let dy_m = Matrix::from_fn(p.out_c, input.n * oh * ow, |oc, col| {
        let n = col / (oh * ow);
        let rem = col % (oh * ow);
        dy.get(n, oc, rem / ow, rem % ow)
    });
    let dw = crate::matmul::matmul_a_bt(&dy_m, &cols);
    let dcols = matmul_at_b(weights, &dy_m);
    let dx = col2im(&dcols, input.n, input.h, input.w, p);
    (dw, dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_input(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_fn(n, c, h, w, |a, b, y, x| {
            ((a * 7 + b * 5 + y * 3 + x) as f64 * 0.1).sin()
        })
    }

    fn test_weights(p: &Conv2dParams) -> Matrix {
        Matrix::from_fn(p.out_c, p.patch_len(), |i, j| {
            ((i * 13 + j) as f64 * 0.07).cos()
        })
    }

    #[test]
    fn out_shape_formula() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 96,
            kh: 11,
            kw: 11,
            stride: 4,
            pad: 0,
        };
        assert_eq!(p.out_hw(227, 227), (55, 55)); // AlexNet conv1
        let p2 = Conv2dParams {
            in_c: 96,
            out_c: 256,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        assert_eq!(p2.out_hw(27, 27), (27, 27)); // AlexNet conv2 (same-pad)
    }

    #[test]
    fn weight_count_matches_eq2() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 96,
            kh: 11,
            kw: 11,
            stride: 4,
            pad: 0,
        };
        assert_eq!(p.weight_count(), 11 * 11 * 3 * 96);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv with identity channel mixing.
        let p = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let w = Matrix::eye(2);
        let x = test_input(1, 2, 4, 4);
        let y = conv2d_direct(&x, &w, &p);
        assert!(y.approx_eq(&x, 1e-15));
    }

    #[test]
    fn im2col_path_matches_direct() {
        for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            let p = Conv2dParams {
                in_c: 3,
                out_c: 4,
                kh: 3,
                kw: 3,
                stride,
                pad,
            };
            let x = test_input(2, 3, 7, 6);
            let w = test_weights(&p);
            let direct = conv2d_direct(&x, &w, &p);
            let lowered = conv2d_im2col(&x, &w, &p);
            assert!(
                direct.approx_eq(&lowered, 1e-12),
                "stride={stride} pad={pad}: {}",
                direct.max_abs_diff(&lowered)
            );
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let p = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let x = test_input(1, 2, 5, 5);
        let w = test_weights(&p);
        // Loss = sum(conv(x, w)); dy = ones.
        let (oh, ow) = p.out_hw(x.h, x.w);
        let dy = Tensor4::from_fn(1, 3, oh, ow, |_, _, _, _| 1.0);
        let (dw, dx) = conv2d_backward(&x, &w, &dy, &p);
        let loss =
            |w: &Matrix, x: &Tensor4| -> f64 { conv2d_direct(x, w, &p).as_slice().iter().sum() };
        let eps = 1e-6;
        // Check a few weight gradients.
        for &(i, j) in &[(0, 0), (1, 5), (2, 17)] {
            let mut wp = w.clone();
            wp.set(i, j, w.get(i, j) + eps);
            let num = (loss(&wp, &x) - loss(&w, &x)) / eps;
            assert!(
                (num - dw.get(i, j)).abs() < 1e-4,
                "dW[{i}][{j}]: fd={num} analytic={}",
                dw.get(i, j)
            );
        }
        // Check a few input gradients.
        for &(c, h, ww) in &[(0, 0, 0), (1, 2, 3), (0, 4, 4)] {
            let mut xp = x.clone();
            xp.set(0, c, h, ww, x.get(0, c, h, ww) + eps);
            let num = (loss(&w, &xp) - loss(&w, &x)) / eps;
            assert!(
                (num - dx.get(0, c, h, ww)).abs() < 1e-4,
                "dX[{c}][{h}][{ww}]: fd={num} analytic={}",
                dx.get(0, c, h, ww)
            );
        }
    }

    #[test]
    fn implicit_gemm_matches_direct() {
        for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)] {
            let p = Conv2dParams {
                in_c: 3,
                out_c: 4,
                kh: 3,
                kw: 3,
                stride,
                pad,
            };
            let x = test_input(2, 3, 7, 6);
            let w = test_weights(&p);
            let direct = conv2d_direct(&x, &w, &p);
            let implicit = conv2d(&x, &w, &p);
            assert!(
                direct.approx_eq(&implicit, 1e-12),
                "stride={stride} pad={pad}: {}",
                direct.max_abs_diff(&implicit)
            );
        }
    }

    #[test]
    fn implicit_backward_matches_materialized_reference() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 5,
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        let x = test_input(2, 3, 9, 8);
        let w = test_weights(&p);
        let (oh, ow) = p.out_hw(x.h, x.w);
        let dy = Tensor4::from_fn(2, 5, oh, ow, |a, b, y, xx| {
            ((a + b * 3 + y * 2 + xx) as f64 * 0.05).cos()
        });
        let (dw_i, dx_i) = conv2d_backward(&x, &w, &dy, &p);
        let (dw_r, dx_r) = conv2d_backward_ref(&x, &w, &dy, &p);
        assert_eq!(dw_i.as_slice(), dw_r.as_slice());
        // ∆X is a gather, col2im a scatter: the same sums, other orders.
        assert!(
            dx_i.max_abs_diff(&dx_r) <= 1e-12,
            "{}",
            dx_i.max_abs_diff(&dx_r)
        );
    }

    #[test]
    fn implicit_forward_and_backward_are_bit_reproducible() {
        // AlexNet-conv2-flavored shape, shrunk: big enough that the
        // GEMM crosses KC panels and multiple column blocks.
        let p = Conv2dParams {
            in_c: 24,
            out_c: 16,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        let x = test_input(2, 24, 13, 13);
        let w = test_weights(&p);
        let y1 = conv2d(&x, &w, &p);
        let y2 = conv2d(&x, &w, &p);
        assert_eq!(y1.as_slice(), y2.as_slice());
        let (oh, ow) = p.out_hw(x.h, x.w);
        let dy = Tensor4::from_fn(2, 16, oh, ow, |a, b, yy, xx| {
            ((a * 11 + b * 7 + yy * 3 + xx) as f64 * 0.03).sin()
        });
        let (dw1, dx1) = conv2d_backward(&x, &w, &dy, &p);
        let (dw2, dx2) = conv2d_backward(&x, &w, &dy, &p);
        assert_eq!(dw1.as_slice(), dw2.as_slice());
        assert_eq!(dx1.as_slice(), dx2.as_slice());
    }

    #[test]
    fn implicit_conv_never_materializes_the_column_matrix() {
        // AlexNet conv2 at batch 8: the im2col matrix would be
        // patch_len × n·oh·ow words; the implicit path's transient
        // scratch must stay well under it and be bounded by the
        // blocking, table and padded-input terms.
        let p = Conv2dParams {
            in_c: 96,
            out_c: 256,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        let (batch, h, w) = (8, 27, 27);
        let (oh, ow) = p.out_hw(h, w);
        let m = batch * oh * ow;
        let col_matrix_words = p.patch_len() * m;
        let scratch = conv_scratch_words(batch, h, w, &p);
        let padded_input = batch * p.in_c * (h + 2 * p.pad) * (w + 2 * p.pad);
        // The packed `Wᵀ` panel, three u32 tables, the padded input: no
        // `out_c × m` staging.
        assert!(
            scratch <= gemm::KC * gemm::NC + padded_input + m + p.patch_len(),
            "scratch {scratch} exceeds blocking + tables + O(input) bound"
        );
        assert!(
            scratch * 3 < col_matrix_words,
            "scratch {scratch} is not well under the {col_matrix_words}-word column matrix"
        );
    }

    #[test]
    fn offset_tables_agree_with_materialized_im2col() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 2,
            kh: 3,
            kw: 2,
            stride: 2,
            pad: 1,
        };
        let x = test_input(2, 3, 6, 5);
        let cols = im2col(&x, &p);
        let xp = x.zero_extend(p.pad, p.pad, p.pad);
        let map = Im2colMap::new(&p, xp.n, xp.h, xp.w);
        assert_eq!(
            (map.k_off.len(), map.col_base.len()),
            (cols.rows(), cols.cols())
        );
        for (kidx, &off) in map.k_off.iter().enumerate() {
            for (col, &base) in map.col_base.iter().enumerate() {
                assert_eq!(
                    xp.as_slice()[(base + off) as usize],
                    cols.get(kidx, col),
                    "({kidx}, {col})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv kernel 5x3 does not fit a 2x7 input with pad 1")]
    fn out_hw_rejects_a_kernel_larger_than_the_padded_input() {
        let p = Conv2dParams {
            in_c: 1,
            out_c: 1,
            kh: 5,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let _ = p.out_hw(2, 7);
    }

    #[test]
    #[should_panic(expected = "weight cols must be in_c*kh*kw")]
    fn backward_rejects_a_mismatched_weight_matrix() {
        let p = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        let x = test_input(1, 2, 6, 6);
        let dy = Tensor4::zeros(1, 3, 4, 4);
        // One weight column short of in_c·kh·kw.
        let w = Matrix::zeros(3, p.patch_len() - 1);
        let _ = conv2d_backward(&x, &w, &dy, &p);
    }

    #[test]
    fn zero_extend_frames_in_zeros() {
        let x = test_input(2, 3, 4, 5);
        let ext = x.zero_extend(2, 1, 3);
        assert_eq!((ext.n, ext.c, ext.h, ext.w), (2, 3, 7, 11));
        assert_eq!(ext.get(1, 2, 2, 3), x.get(1, 2, 0, 0));
        assert_eq!(ext.get(1, 2, 5, 7), x.get(1, 2, 3, 4));
        let framed: f64 = ext.as_slice().iter().map(|v| v.abs()).sum();
        let inner: f64 = x.as_slice().iter().map(|v| v.abs()).sum();
        assert_eq!(framed, inner);
        assert_eq!(Tensor4::zeros(1, 2, 0, 3).zero_extend(1, 1, 0).h, 2);
    }

    #[test]
    fn row_strip_roundtrip() {
        let x = test_input(2, 3, 8, 5);
        let strip = x.row_strip(2, 6);
        assert_eq!((strip.n, strip.c, strip.h, strip.w), (2, 3, 4, 5));
        let mut y = Tensor4::zeros(2, 3, 8, 5);
        y.set_row_strip(2, &strip);
        assert_eq!(y.get(0, 1, 3, 2), x.get(0, 1, 3, 2));
        assert_eq!(y.get(0, 1, 0, 2), 0.0);
    }

    #[test]
    fn to_columns_roundtrip() {
        let x = test_input(3, 2, 4, 5);
        let m = x.to_columns();
        assert_eq!(m.shape(), (2 * 4 * 5, 3));
        let back = Tensor4::from_columns(&m, 2, 4, 5);
        assert!(back.approx_eq(&x, 0.0));
    }

    #[test]
    fn one_by_one_conv_needs_no_padding_rows() {
        // The paper notes 1x1 convolutions need no halo; sanity-check
        // that their receptive field is a single pixel.
        let p = Conv2dParams {
            in_c: 4,
            out_c: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let x = test_input(1, 4, 6, 6);
        let w = test_weights(&p);
        let full = conv2d_direct(&x, &w, &p);
        let top = conv2d_direct(&x.row_strip(0, 3), &w, &p);
        let bottom = conv2d_direct(&x.row_strip(3, 6), &w, &p);
        let mut stitched = Tensor4::zeros(1, 2, 6, 6);
        stitched.set_row_strip(0, &top);
        stitched.set_row_strip(3, &bottom);
        assert!(stitched.approx_eq(&full, 1e-14));
    }

    /// `conv2d` against the materialized lowering and
    /// `conv2d_backward_weights` against `conv2d_backward_ref`'s `dW`,
    /// both to the bit.
    fn in_place_products_match_lowering(n: usize, h: usize, w: usize, p: &Conv2dParams) {
        let (x, wt) = (test_input(n, p.in_c, h, w), test_weights(p));
        assert_eq!(
            conv2d(&x, &wt, p),
            conv2d_im2col(&x, &wt, p),
            "{p:?} on {h}x{w}"
        );
        let (oh, ow) = p.out_hw(h, w);
        let dy = Tensor4::from_fn(n, p.out_c, oh, ow, |a, b, y, xx| {
            ((a * 3 + b * 5 + y + xx * 2) as f64 * 0.06).cos()
        });
        let dw = conv2d_backward_weights(&x, &wt, &dy, p);
        assert_eq!(dw, conv2d_backward_ref(&x, &wt, &dy, p).0, "dW {p:?}");
    }

    #[test]
    fn in_place_products_cross_k_panels_and_fork_bit_identically() {
        // A 300-tap patch crosses a KC panel in the forward; 2·27·27
        // pixels cross one in `∆W`; 1458·20·300 multiply-adds pass the
        // 2²³ fork, so row blocks run on the pool in both.
        let p = Conv2dParams {
            in_c: 12,
            out_c: 20,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        assert!(p.patch_len() > gemm::KC && 2 * 27 * 27 * 20 * p.patch_len() >= 1 << 23);
        in_place_products_match_lowering(2, 27, 27, &p);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn implicit_forward_matches_direct_on_random_shapes(
            n in 1usize..3, in_c in 1usize..4, out_c in 1usize..5,
            kh in 1usize..5, kw in 1usize..5,
            stride in 1usize..4, pad in 0usize..3,
            extra_h in 0usize..5, extra_w in 0usize..5,
        ) {
            // Input at least as big as the kernel so out_hw stays valid.
            let h = kh + extra_h;
            let w = kw + extra_w;
            let p = Conv2dParams { in_c, out_c, kh, kw, stride, pad };
            let x = test_input(n, in_c, h, w);
            let wt = test_weights(&p);
            let direct = conv2d_direct(&x, &wt, &p);
            let implicit = conv2d(&x, &wt, &p);
            prop_assert!(
                direct.approx_eq(&implicit, 1e-12),
                "diff {}", direct.max_abs_diff(&implicit)
            );
            // Same fold as the materialized lowering: equal to the bit.
            prop_assert_eq!(implicit, conv2d_im2col(&x, &wt, &p));
        }

        #[test]
        fn implicit_backward_matches_reference_on_random_shapes(
            n in 1usize..3, in_c in 1usize..4, out_c in 1usize..4,
            kh in 1usize..5, kw in 1usize..5,
            stride in 1usize..4, pad in 0usize..3,
            extra_h in 0usize..4, extra_w in 0usize..4,
        ) {
            let h = kh + extra_h;
            let w = kw + extra_w;
            let p = Conv2dParams { in_c, out_c, kh, kw, stride, pad };
            let x = test_input(n, in_c, h, w);
            let wt = test_weights(&p);
            let (oh, ow) = p.out_hw(h, w);
            let dy = Tensor4::from_fn(n, out_c, oh, ow, |a, b, y, xx| {
                ((a * 5 + b * 3 + y * 2 + xx) as f64 * 0.04).sin()
            });
            let (dw_i, dx_i) = conv2d_backward(&x, &wt, &dy, &p);
            let (dw_r, dx_r) = conv2d_backward_ref(&x, &wt, &dy, &p);
            prop_assert_eq!(dw_i.as_slice(), dw_r.as_slice());
            prop_assert!(dx_i.max_abs_diff(&dx_r) <= 1e-12, "dX {}", dx_i.max_abs_diff(&dx_r));
        }

        #[test]
        fn in_place_products_are_the_lowering_to_the_bit(
            n in 1usize..3, in_c in 1usize..13, out_c in 1usize..21,
            kh in 1usize..6, kw in 1usize..6,
            stride in 1usize..4, pad in 0usize..3,
            extra_h in 0usize..6, extra_w in 0usize..6,
        ) {
            // `out_c` off multiples of NR, pixel counts off multiples of
            // MR, and patches up to 300 taps, past one KC panel.
            let (h, w) = (kh + extra_h, kw + extra_w);
            let p = Conv2dParams { in_c, out_c, kh, kw, stride, pad };
            in_place_products_match_lowering(n, h, w, &p);
        }

        #[test]
        fn the_weight_half_is_the_backward_dw_to_the_bit(
            n in 0usize..3, in_c in 1usize..4, out_c in 0usize..4,
            kh in 1usize..5, kw in 1usize..5,
            stride in 1usize..4, pad in 0usize..3,
            extra_h in 0usize..4, extra_w in 0usize..4,
        ) {
            // Strided, padded, 1×1, and empty (no sample or no output
            // channel) shapes alike.
            let (h, w) = (kh + extra_h, kw + extra_w);
            let p = Conv2dParams { in_c, out_c, kh, kw, stride, pad };
            let x = test_input(n, in_c, h, w);
            let wt = test_weights(&p);
            let (oh, ow) = p.out_hw(h, w);
            let dy = Tensor4::from_fn(n, out_c, oh, ow, |a, b, y, xx| {
                ((a * 3 + b * 5 + y + xx * 2) as f64 * 0.06).cos()
            });
            let half = conv2d_backward_weights(&x, &wt, &dy, &p);
            prop_assert_eq!(half, conv2d_backward(&x, &wt, &dy, &p).0);
        }
    }
}
