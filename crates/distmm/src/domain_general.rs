//! Domain-parallel convolution and pooling (the paper's Fig. 3) for
//! *any* stride, padding and kernel.
//!
//! Every rank replicates the filter weights and owns a horizontal strip
//! of every image in the batch shard (the paper: "for NCHW format, it
//! is best to distribute along the height to avoid non-contiguous
//! memory accesses"). Each rank's block of the output height needs a
//! window of the input partition: for a stride-1 same-padded kernel
//! that is its own strip plus a fixed `⌊k/2⌋`-row halo from each
//! neighbour (nothing at all for 1×1); strided convolutions (AlexNet's
//! conv1, 11×11/4) and overlapping pooling (AlexNet's 3×3/2) change
//! the activation height between layers, so the window is arbitrary.
//! This module computes the windows and moves them with
//! [`crate::rows::fetch_rows`] — pair-wise, non-blocking,
//! overlap-proportional traffic: Eq. 7's boundary terms.
//!
//! A convolution moves two windows, the two halos Eq. 7 prices: its
//! input window forward and, for `∆X`, the window of `∆Y` rows its own
//! `∆X` rows read — `∆X` is a gather,
//! `tensor::conv::conv2d_backward_data`, so a rank computes exactly its
//! own rows and sends none back. Max-pooling moves the same
//! two windows: its input window forward, and backward the `∆Y` rows
//! whose windows touch its own `∆X` rows, each with its argmax (a
//! global input position) in the same message; the rank keeps the
//! gradients that land in its rows. Either way a rank charges the rows
//! it can compute from its own strip while the boundary rows are in
//! flight, so a large enough interior hides the exchange. A padded
//! convolution runs pad-free on its input window framed in the zeros
//! the global padding implies, laid into that frame straight from the
//! strip and the received rows. The forward keeps those received rows,
//! the [`Halo`], and `∆W` re-frames the same window from the strip and
//! the halo: one `X` halo per convolution and iteration, as Eq. 7
//! charges, and no second message.
//!
//! Row partitions are always `block_ranges` of the *output* height, so
//! consecutive layers chain without global knowledge beyond shapes.

use std::ops::Range;

use collectives::{allreduce, ReduceOp};
use mpsim::{Communicator, Result};
use tensor::conv::{conv2d, conv2d_backward_data, conv2d_backward_weights, Conv2dParams, Tensor4};
use tensor::pool::{maxpool2d, maxpool2d_backward_rows, Pool2dParams};
use tensor::Matrix;

use crate::rows::{fetch_rows, Frame, Halo, NO_FRAME};

/// The per-rank block partition of `h` rows.
pub use collectives::chunks::block_ranges as row_partition;

/// For an output row range and vertical kernel geometry, the
/// *unclipped* input row window `[o0·s − pad, (o1−1)·s − pad + k)` and
/// its clip against `[0, in_h)`, returning
/// `(clipped_range, zeros_above, zeros_below)`.
fn input_window(
    out_range: &Range<usize>,
    k: usize,
    stride: usize,
    pad: usize,
    in_h: usize,
) -> (Range<usize>, usize, usize) {
    if out_range.is_empty() {
        return (0..0, 0, 0);
    }
    let lo_raw = out_range.start as isize * stride as isize - pad as isize;
    let hi_raw = (out_range.end as isize - 1) * stride as isize - pad as isize + k as isize;
    let lo = lo_raw.max(0) as usize;
    let hi = (hi_raw.max(0) as usize).min(in_h);
    let zeros_above = (lo as isize - lo_raw).max(0) as usize;
    let zeros_below = (hi_raw - hi as isize).max(0) as usize;
    (lo..hi.max(lo), zeros_above, zeros_below)
}

/// The inverse of [`input_window`]: the output rows whose (unclipped)
/// input windows touch the non-empty input row range `rows` — the `∆Y`
/// rows a block of `∆X` rows reads.
fn output_window(
    rows: &Range<usize>,
    k: usize,
    stride: usize,
    pad: usize,
    out_h: usize,
) -> Range<usize> {
    let hi = ((rows.end - 1 + pad) / stride + 1).min(out_h);
    let lo = (rows.start + pad + 1).saturating_sub(k);
    lo.div_ceil(stride).min(hi)..hi
}

/// One exchange's row bookkeeping on one rank, derived from shapes
/// alone (identical tables on every rank): a product whose rows are
/// split over the ranks reads a window of an operand split the same
/// way.
struct Windows {
    /// Every rank's block of the operand's rows.
    read_part: Vec<Range<usize>>,
    /// This rank's block of the product's rows.
    made: Range<usize>,
    /// Every rank's (clipped) window of the operand.
    needed: Vec<Range<usize>>,
    /// How many of `made`'s rows read this rank's own block only —
    /// computable while the rest of the window is in flight. All of
    /// them for a 1×1 kernel or a single rank.
    interior: usize,
}

fn windows(
    comm: &Communicator,
    (made_h, read_h): (usize, usize),
    window: impl Fn(&Range<usize>) -> Range<usize>,
) -> Windows {
    let (size, me) = (comm.size(), comm.rank());
    let (read_part, made_part) = (row_partition(read_h, size), row_partition(made_h, size));
    let mine = &read_part[me];
    let interior = made_part[me]
        .clone()
        .map(|o| window(&(o..o + 1)))
        .filter(|rows| rows.is_empty() || (mine.start <= rows.start && rows.end <= mine.end))
        .count();
    // A rank with no rows reads none.
    let read = |rows: &Range<usize>| if rows.is_empty() { 0..0 } else { window(rows) };
    Windows {
        made: made_part[me].clone(),
        needed: made_part.iter().map(read).collect(),
        interior,
        read_part,
    }
}

impl Windows {
    /// Fetches this rank's window of `x`, charging `flops` per row made
    /// as the forward charges its rows: the interior ones while the
    /// window is in flight, the boundary ones after it landed — Fig. 3.
    /// `go` runs while the window is in flight too, before the interior
    /// rows.
    fn fetch(&self, c: &Communicator, x: &Tensor4, flops: f64, go: impl FnOnce()) -> Result<Halo> {
        let halo = fetch_rows(c, x, &self.read_part, &self.needed, || {
            go();
            c.advance_flops(flops * self.interior as f64)
        })?;
        c.advance_flops(flops * (self.made.len() - self.interior) as f64);
        Ok(halo)
    }
}

/// One convolution's input window on this rank: the row table, the
/// zeros the global padding puts around the window, and the `2·|W|`
/// flops per row of the rank's output block (the forward's or `∆W`'s).
fn input_rows(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    p: &Conv2dParams,
    in_h: usize,
) -> (Windows, Frame, f64) {
    let (out_h, out_w) = p.out_hw(in_h, x_strip.w);
    let window = |out: &Range<usize>| input_window(out, p.kh, p.stride, p.pad, in_h);
    let win = windows(comm, (out_h, in_h), |out| window(out).0);
    let (_, above, below) = window(&win.made);
    let row_flops = 2.0 * weights.len() as f64 * (out_w * x_strip.n) as f64;
    (win, (above, below, p.pad), row_flops)
}

/// Domain-parallel convolution forward. `x_strip` covers this rank's
/// block of the input height (`row_partition(in_h, P)`); the result
/// covers its block of the output height. Any stride, padding, and
/// (possibly non-square) kernel. Also returns the input rows the
/// neighbours sent, which [`conv_backward_partial`] forms `∆W` from.
pub fn conv_forward_halo(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    p: &Conv2dParams,
    in_h: usize,
) -> Result<(Tensor4, Halo)> {
    let (win, frame, row_flops) = input_rows(comm, x_strip, weights, p, in_h);
    let halo = win.fetch(comm, x_strip, row_flops, || ())?;
    let (made, local) = (win.made.len(), Conv2dParams { pad: 0, ..*p });
    if made == 0 {
        let out_w = p.out_hw(in_h, x_strip.w).1;
        return Ok((Tensor4::zeros(x_strip.n, p.out_c, 0, out_w), halo));
    }
    let y = conv2d(&halo.frame(x_strip, frame), weights, &local);
    debug_assert_eq!(y.h, made, "local conv yields exactly my output rows");
    Ok((y, halo))
}

/// [`conv_forward_halo`] without the halo.
pub fn conv_forward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    p: &Conv2dParams,
    in_h: usize,
) -> Result<Tensor4> {
    Ok(conv_forward_halo(comm, x_strip, weights, p, in_h)?.0)
}

/// Domain-parallel convolution backward: returns
/// `(∆W all-reduced over the communicator, ∆X strip over this rank's
/// input block)`. With no forward to keep a halo from, it fetches the
/// input window itself, then runs [`conv_backward_partial`],
/// [`conv_backward_data`] and one all-reduce.
pub fn conv_backward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    dy_strip: &Tensor4,
    p: &Conv2dParams,
    in_h: usize,
) -> Result<(Matrix, Tensor4)> {
    let (win, ..) = input_rows(comm, x_strip, weights, p, in_h);
    let halo = win.fetch(comm, x_strip, 0.0, || ())?;
    let mut dw = conv_backward_partial(comm, x_strip, halo, weights, dy_strip, p, in_h);
    let dx = conv_backward_data(comm, weights, dy_strip, p, in_h, x_strip.w, || ())?;
    // ∆W: sum over all strips — the same all-reduce pure batch
    // parallelism needs (Eq. 7's third term).
    allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum)?;
    Ok((dw, dx))
}

/// The `∆W` half of the backward: this rank's strip-partial `∆W`,
/// *not* summed over the communicator (a trainer sums it with the other
/// layers' and the other batch shards' in one reduction). It re-frames
/// the input window from `x_strip` and the `halo` the forward kept
/// ([`conv_forward_halo`]) and sends no message: the one `X` halo
/// Eq. 7 charges a convolution is the forward's. Its `2·|W|` flops per
/// output pixel are charged where it runs — in flight under the `∆Y`
/// window of [`conv_backward_data`] when the layer has a `∆X` half, on
/// their own for the first convolution — and the halo is dropped once
/// `∆W` is formed.
pub fn conv_backward_partial(
    comm: &Communicator,
    x_strip: &Tensor4,
    halo: Halo,
    weights: &Matrix,
    dy_strip: &Tensor4,
    p: &Conv2dParams,
    in_h: usize,
) -> Matrix {
    let (win, frame, row_flops) = input_rows(comm, x_strip, weights, p, in_h);
    comm.advance_flops(row_flops * win.made.len() as f64);
    if win.made.is_empty() {
        return Matrix::zeros(weights.rows(), weights.cols());
    }
    let local = Conv2dParams { pad: 0, ..*p };
    conv2d_backward_weights(&halo.frame(x_strip, frame), weights, dy_strip, &local)
}

/// The `∆X` half of the backward: the `∆X` strip over this rank's block
/// of the `in_h × in_w` input. The rank fetches the `∆Y` rows its own
/// `∆X` rows read — Eq. 7's backward halo, `⌊k/2⌋` rows from each
/// neighbour for a stride-1 same-padded kernel — and gathers its rows
/// from them, charging `2·|W|` flops per `∆X` pixel as the forward
/// charges its rows. Nothing is sent back.
///
/// `in_flight` runs while the `∆Y` rows are in flight, as
/// [`fetch_rows`]'s does: a trainer forms the layer's `∆W`
/// ([`conv_backward_partial`]) there, so its GEMM hides the fetch.
pub fn conv_backward_data(
    comm: &Communicator,
    weights: &Matrix,
    dy_strip: &Tensor4,
    p: &Conv2dParams,
    in_h: usize,
    in_w: usize,
    in_flight: impl FnOnce(),
) -> Result<Tensor4> {
    let (out_h, _) = p.out_hw(in_h, in_w);
    let win = windows(comm, (in_h, out_h), |rows| {
        output_window(rows, p.kh, p.stride, p.pad, out_h)
    });
    let flops = 2.0 * weights.len() as f64 * (in_w * dy_strip.n) as f64;
    let dy = win.fetch(comm, dy_strip, flops, in_flight)?;
    let dy = dy.frame(dy_strip, NO_FRAME);
    let oy0 = win.needed[comm.rank()].start;
    Ok(conv2d_backward_data(&dy, oy0, weights, p, win.made, in_w))
}

/// Domain-parallel max-pool forward. Returns the output strip and its
/// argmax, as global flat input positions (`h·in_w + w`), for
/// [`pool_backward`]. Charges `k²` compares per output pixel, the
/// interior rows' while the boundary rows are in flight.
pub fn pool_forward(
    comm: &Communicator,
    x_strip: &Tensor4,
    p: &Pool2dParams,
    in_h: usize,
) -> Result<(Tensor4, Vec<usize>)> {
    let (out_h, out_w) = p.out_hw(in_h, x_strip.w);
    let win = windows(comm, (out_h, in_h), |o| {
        input_window(o, p.k, p.stride, 0, in_h).0
    });
    let flops = (x_strip.n * x_strip.c * out_w * p.k * p.k) as f64;
    let window = win.fetch(comm, x_strip, flops, || ())?;
    let window = window.frame(x_strip, NO_FRAME);
    if win.made.is_empty() {
        return Ok((Tensor4::zeros(x_strip.n, x_strip.c, 0, out_w), Vec::new()));
    }
    let (y, mut argmax) = maxpool2d(&window, p);
    debug_assert_eq!(y.h, win.made.len());
    let shift = win.needed[comm.rank()].start * x_strip.w;
    argmax.iter_mut().for_each(|at| *at += shift);
    Ok((y, argmax))
}

/// Domain-parallel max-pool backward: the `∆X` strip over this rank's
/// block of the `in_h × in_w` input. The rank fetches the `∆Y` rows
/// whose windows touch its own `∆X` rows, their argmax (as
/// [`pool_forward`] returns it, exact in `f64`) riding along as `C`
/// more channels — one message per neighbour — and adds the gradients
/// that land in its rows in serial order. Nothing is sent back.
pub fn pool_backward(
    comm: &Communicator,
    dy_strip: &Tensor4,
    argmax: &[usize],
    p: &Pool2dParams,
    in_h: usize,
    in_w: usize,
) -> Result<Tensor4> {
    let (out_h, _) = p.out_hw(in_h, in_w);
    let win = windows(comm, (in_h, out_h), |rows| {
        output_window(rows, p.k, p.stride, 0, out_h)
    });
    let (n, c, h, w) = dy_strip.shape();
    let dy_at = Tensor4::from_fn(n, 2 * c, h, w, |s, ci, y, x| match ci.checked_sub(c) {
        None => dy_strip.get(s, ci, y, x),
        Some(ci) => argmax[((s * c + ci) * h + y) * w + x] as f64,
    });
    let got = win.fetch(comm, &dy_at, 0.0, || ())?.frame(&dy_at, NO_FRAME);
    // Sample `s` is `half` gradients, then their `half` argmax.
    let (half, d) = (c * got.h * w, got.as_slice());
    let grads = (0..n * half).map(|i| {
        let at = i / half * 2 * half + i % half;
        (d[at], d[at + half] as usize)
    });
    let dy_shape = (n, c, got.h, w);
    Ok(maxpool2d_backward_rows(grads, dy_shape, win.made, in_w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::part_range;
    use mpsim::{NetModel, World};
    use tensor::conv::{conv2d_backward, conv2d_direct};
    use tensor::init;
    use tensor::pool::maxpool2d_backward;

    fn check_conv(p_ranks: usize, params: Conv2dParams, h: usize, w: usize) {
        let x = init::uniform_tensor(2, params.in_c, h, w, -1.0, 1.0, 51);
        let wt = init::uniform(params.out_c, params.patch_len(), -0.4, 0.4, 52);
        let y_ref = conv2d_direct(&x, &wt, &params);
        let (oh, _) = params.out_hw(h, w);
        let dy = init::uniform_tensor(2, params.out_c, y_ref.h, y_ref.w, -1.0, 1.0, 53);
        let (dw_ref, dx_ref) = conv2d_backward(&x, &wt, &dy, &params);
        let out = World::run(p_ranks, NetModel::free(), |comm| {
            let ip = part_range(h, p_ranks, comm.rank());
            let op = part_range(oh, p_ranks, comm.rank());
            let x_strip = x.row_strip(ip.start, ip.end);
            kept_halo_reframes_the_window(comm, &x, &x_strip, &wt, &params);
            let y = conv_forward(comm, &x_strip, &wt, &params, h).unwrap();
            let dy_strip = dy.row_strip(op.start, op.end);
            let (dw, dx) = conv_backward(comm, &x_strip, &wt, &dy_strip, &params, h).unwrap();
            (y, dw, dx)
        });
        for (r, (y, dw, dx)) in out.iter().enumerate() {
            let op = part_range(oh, p_ranks, r);
            let expect_y = y_ref.row_strip(op.start, op.end);
            assert!(
                y.approx_eq(&expect_y, 1e-9),
                "P={p_ranks} k={} s={} pad={} rank {r} Y: {}",
                params.kh,
                params.stride,
                params.pad,
                y.max_abs_diff(&expect_y)
            );
            assert!(dw.approx_eq(&dw_ref, 1e-8), "rank {r} dW");
            // Every ∆X element is summed on one rank in one order.
            let ip = part_range(h, p_ranks, r);
            assert_eq!(
                *dx,
                dx_ref.row_strip(ip.start, ip.end),
                "P={p_ranks} rank {r} dX"
            );
        }
    }

    /// The frame and the kept halo are copies saved, not different
    /// results. To the bit, the halo the forward keeps re-frames to the
    /// window a fresh fetch frames (what `∆W` fetched before the forward
    /// kept it), to that fetch's plain window zero-extended, and to the
    /// whole input's rows zero-extended. Runs on every rank of every
    /// `check_conv` shape: the ranks with no rows, the 1-row strips
    /// shorter than the halo, and the strided or padded windows holding
    /// part of the own strip or none of it included.
    fn kept_halo_reframes_the_window(
        comm: &Communicator,
        x: &Tensor4,
        x_strip: &Tensor4,
        wt: &Matrix,
        p: &Conv2dParams,
    ) {
        let (win, frame, _) = input_rows(comm, x_strip, wt, p, x.h);
        let (above, below, side) = frame;
        let wanted = &win.needed[comm.rank()];
        let (_, kept) = conv_forward_halo(comm, x_strip, wt, p, x.h).unwrap();
        let fetched = win.fetch(comm, x_strip, 0.0, || ()).unwrap();
        let window = kept.frame(x_strip, frame);
        assert_eq!(window, fetched.frame(x_strip, frame));
        let plain = fetched.frame(x_strip, NO_FRAME);
        assert_eq!(window, plain.zero_extend(above, below, side));
        let whole = x.row_strip(wanted.start, wanted.end);
        assert_eq!(window, whole.zero_extend(above, below, side));
    }

    #[test]
    fn strided_conv_matches_serial() {
        // AlexNet-conv1-style: big kernel, stride > 1, no padding.
        let params = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kh: 5,
            kw: 5,
            stride: 2,
            pad: 0,
        };
        for p in [1, 2, 3, 4] {
            check_conv(p, params, 17, 9);
        }
    }

    #[test]
    fn the_backward_is_its_two_halves_and_one_all_reduce() {
        // Strided and padded: the windows are wider than a halo and
        // misaligned with the strips.
        let p = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kh: 5,
            kw: 5,
            stride: 2,
            pad: 1,
        };
        let (h, w) = (17, 9);
        let (oh, ow) = p.out_hw(h, w);
        let x = init::uniform_tensor(2, p.in_c, h, w, -1.0, 1.0, 81);
        let wt = init::uniform(p.out_c, p.patch_len(), -0.4, 0.4, 82);
        let dy = init::uniform_tensor(2, p.out_c, oh, ow, -1.0, 1.0, 83);
        for pd in [1, 2, 4] {
            // 0: the full backward; 1: the forward, the ∆W half from its
            // halo and the sum; 2: the ∆X half alone.
            let run = |which| {
                World::run_with_stats(pd, NetModel::cori_knl(), |comm| {
                    let (ip, op) = (
                        part_range(h, pd, comm.rank()),
                        part_range(oh, pd, comm.rank()),
                    );
                    let xs = x.row_strip(ip.start, ip.end);
                    let dys = dy.row_strip(op.start, op.end);
                    let none = || Tensor4::zeros(0, 0, 0, 0);
                    match which {
                        0 => conv_backward(comm, &xs, &wt, &dys, &p, h).unwrap(),
                        1 => {
                            let (_, halo) = conv_forward_halo(comm, &xs, &wt, &p, h).unwrap();
                            let mut dw = conv_backward_partial(comm, &xs, halo, &wt, &dys, &p, h);
                            allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum).unwrap();
                            (dw, none())
                        }
                        _ => {
                            let dx = conv_backward_data(comm, &wt, &dys, &p, h, w, || ()).unwrap();
                            (Matrix::zeros(0, 0), dx)
                        }
                    }
                })
            };
            let ((full, fs), (half, hs), (data, ds)) = (run(0), run(1), run(2));
            for ((f, h), d) in full.iter().zip(&half).zip(&data) {
                assert_eq!(f.0, h.0, "pd={pd}: ∆W to the bit");
                assert_eq!(f.1, d.1, "pd={pd}: ∆X to the bit");
            }
            assert_eq!(
                fs.total_msgs(),
                hs.total_msgs() + ds.total_msgs(),
                "pd={pd}"
            );
            assert_eq!(fs.total_words(), hs.total_words() + ds.total_words());
            assert_eq!(pd > 1, ds.total_msgs() > 0, "pd={pd}: a ∆Y window to fetch");
        }
    }

    #[test]
    fn strided_padded_conv_matches_serial() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        // Over 4 ranks the windows of ranks 0 and 2 hold part of their
        // own strips.
        for p in [1, 2, 4] {
            check_conv(p, params, 12, 7);
        }
        // Stride past the kernel: over 4 ranks the windows of ranks 1
        // and 2 hold none of their own strips (3..6 reads 0..2, 6..9
        // reads 3..6).
        let sparse = Conv2dParams {
            stride: 4,
            ..params
        };
        for p in [2, 4] {
            check_conv(p, sparse, 12, 7);
        }
    }

    /// A stride-1 "same"-padded `k × k` kernel: the fixed-halo shape
    /// class of Fig. 3.
    fn same_pad(in_c: usize, out_c: usize, k: usize) -> Conv2dParams {
        Conv2dParams {
            in_c,
            out_c,
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        }
    }

    #[test]
    fn same_pad_conv_matches_serial() {
        // (ranks, kernel, height). The 1-row strips of (4, 5, 4) are
        // shorter than the 2-row halo: the window spans three owners.
        // The last two leave ranks with no rows (`pd > h`).
        for (p, k, h) in [
            (1, 3, 12),
            (2, 3, 12),
            (3, 3, 12),
            (4, 3, 12),
            (2, 5, 13),
            (3, 5, 13),
            (4, 1, 8),
            (4, 5, 4),
            (4, 3, 3),
            (4, 3, 2),
        ] {
            check_conv(p, same_pad(3, 4, k), h, 6);
        }
    }

    #[test]
    fn rect_kernel_conv_matches_serial() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 5,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        check_conv(2, params, 14, 8);
    }

    fn check_pool(p_ranks: usize, pool: Pool2dParams, h: usize, w: usize) {
        let x = init::uniform_tensor(2, 3, h, w, -1.0, 1.0, 61);
        let (y_ref, _) = maxpool2d(&x, &pool);
        let dy = init::uniform_tensor(2, 3, y_ref.h, y_ref.w, -1.0, 1.0, 62);
        let (_, argmax_ref) = maxpool2d(&x, &pool);
        let dx_ref = maxpool2d_backward(&dy, &argmax_ref, h, w);
        let (oh, _) = pool.out_hw(h, w);
        let out = World::run(p_ranks, NetModel::free(), |comm| {
            let ip = part_range(h, p_ranks, comm.rank());
            let op = part_range(oh, p_ranks, comm.rank());
            let x_strip = x.row_strip(ip.start, ip.end);
            let (y, argmax) = pool_forward(comm, &x_strip, &pool, h).unwrap();
            let dy_strip = dy.row_strip(op.start, op.end);
            let dx = pool_backward(comm, &dy_strip, &argmax, &pool, h, w).unwrap();
            (y, dx)
        });
        for (r, (y, dx)) in out.iter().enumerate() {
            let op = part_range(oh, p_ranks, r);
            assert!(
                y.approx_eq(&y_ref.row_strip(op.start, op.end), 1e-12),
                "pool P={p_ranks} rank {r} Y"
            );
            let ip = part_range(h, p_ranks, r);
            // Every ∆X element is summed on one rank in serial order.
            assert_eq!(
                *dx,
                dx_ref.row_strip(ip.start, ip.end),
                "pool {pool:?} h={h} P={p_ranks} rank {r} dX"
            );
        }
    }

    #[test]
    fn overlapping_pool_matches_serial() {
        // AlexNet-style 3x3 stride-2 overlapping pooling. On h = 7 over
        // 4 ranks the strips (2, 2, 2, 1 rows) are shorter than the
        // window and rank 3 holds no ∆Y row.
        let pool = Pool2dParams { k: 3, stride: 2 };
        for p in [1, 2, 3, 4] {
            check_pool(p, pool, 13, 7);
        }
        check_pool(4, pool, 7, 7);
        // Stride 1: an input maximal in several windows of two strips
        // gets gradients from both (12 x 9 on 2 ranks has such cells),
        // and on h = 6 over 4 ranks every window straddles a boundary.
        let dense = Pool2dParams { k: 3, stride: 1 };
        for p in [2, 3, 4] {
            check_pool(p, dense, 12, 9);
        }
        check_pool(4, dense, 6, 5);
    }

    #[test]
    fn non_overlapping_pool_matches_serial() {
        let pool = Pool2dParams { k: 2, stride: 2 };
        for p in [1, 2, 4] {
            check_pool(p, pool, 16, 6);
        }
        // Stride past the window: rows no window reads get ∆X zero, and
        // a strip of them fetches no ∆Y row.
        for p in [2, 3, 4] {
            check_pool(p, Pool2dParams { k: 2, stride: 3 }, 11, 5);
        }
    }

    /// The traffic of one forward convolution over `p_ranks` strips.
    fn forward_traffic(params: Conv2dParams, x: &Tensor4, p_ranks: usize) -> mpsim::WorldStats {
        let wt = init::uniform(params.out_c, params.patch_len(), -0.4, 0.4, 72);
        let (_, stats) = World::run_with_stats(p_ranks, NetModel::cori_knl(), |comm| {
            let ip = part_range(x.h, p_ranks, comm.rank());
            let strip = x.row_strip(ip.start, ip.end);
            conv_forward(comm, &strip, &wt, &params, x.h).unwrap();
        });
        stats
    }

    #[test]
    fn same_pad_traffic_is_eq7s_halo() {
        let (b, c, h, w) = (2usize, 3usize, 12usize, 5usize);
        let x = init::uniform_tensor(b, c, h, w, -1.0, 1.0, 35);
        // 1x1: no halo, no message at all (the paper's special case).
        let none = forward_traffic(same_pad(c, 2, 1), &x, 4);
        assert_eq!((none.total_msgs(), none.total_words()), (0, 0));
        // 3x3: 3 interior boundaries, 2 directions each: 6 messages of
        // B · X_W · X_C · ⌊kh/2⌋ = 2·5·3·1 = 30 words.
        let halo = forward_traffic(same_pad(c, 2, 3), &x, 4);
        assert_eq!(halo.total_msgs(), 6);
        assert_eq!(halo.total_words(), 6 * (b * w * c) as u64);
    }

    #[test]
    fn strided_traffic_stays_boundary_proportional() {
        // A stride-2 conv misaligns strips, so the windows are no
        // longer the fixed halo of the same-pad case — but they still
        // move far less than gathering whole activations.
        let p_ranks = 4;
        let x = init::uniform_tensor(1, 2, 16, 4, -1.0, 1.0, 71);
        let strided = Conv2dParams {
            stride: 2,
            ..same_pad(2, 2, 3)
        };
        let words = forward_traffic(strided, &x, p_ranks).total_words();
        assert!(words > 0);
        assert!(words < x.len() as u64 * p_ranks as u64);
    }

    #[test]
    fn halo_hides_behind_interior_compute() {
        // Slow compute, fast network: the interior rows outlast the
        // halo transfer, so the exchange costs no communication time.
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: 1e6,
        };
        let params = same_pad(2, 2, 3);
        let x = init::uniform_tensor(1, 2, 16, 4, -1.0, 1.0, 44);
        let w = init::uniform(2, params.patch_len(), -0.5, 0.5, 45);
        let clocks = World::run(2, model, |comm| {
            let rng = part_range(16, 2, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            conv_forward(comm, &strip, &w, &params, 16).unwrap();
            comm.clock()
        });
        // 8 output rows each, 7 of them interior; the lump and the
        // split charge the same compute.
        let all_rows = 2.0 * w.len() as f64 * (8 * 4) as f64 / model.flops;
        for c in &clocks {
            assert!(c.comm < 1e-9, "halo exposed: comm = {}", c.comm);
            assert!((c.compute - all_rows).abs() < 1e-12, "{}", c.compute);
        }
    }
}
