//! Domain parallelism for *arbitrary* convolutions and pooling.
//!
//! The optimized path in [`crate::domain`] covers the stride-1
//! same-padded kernels where the halo has fixed width and can overlap
//! compute. Strided convolutions (AlexNet's conv1, 11×11/4) and
//! overlapping pooling (AlexNet's 3×3/2) change the activation height
//! between layers, so each rank's output block needs an arbitrary
//! window of the input partition. This module computes those windows
//! and uses [`crate::rows::fetch_rows`] / [`crate::rows::scatter_add_rows`]
//! for the exchanges — pair-wise, overlap-proportional traffic, the
//! general form of the paper's Eq. 7 boundary terms.
//!
//! Row partitions are always `block_ranges` of the *output* height, so
//! consecutive layers chain without global knowledge beyond shapes.

use std::ops::Range;

use collectives::{allreduce, ReduceOp};
use mpsim::{Communicator, Result};
use tensor::conv::{conv2d, conv2d_backward, Conv2dParams, Tensor4};
use tensor::pool::{maxpool2d, maxpool2d_backward, Pool2dParams};
use tensor::Matrix;

use crate::rows::{fetch_rows, scatter_add_rows};

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

/// General domain-parallel convolution forward. `x_strip` covers this
/// rank's block of the input height (`row_partition(in_h, P)`); the
/// result covers its block of the output height. Any stride, padding,
/// and (possibly non-square) kernel.
pub fn conv_forward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    p: &Conv2dParams,
    in_h: usize,
) -> Result<Tensor4> {
    let size = comm.size();
    let me = comm.rank();
    let (out_h, out_w) = p.out_hw(in_h, x_strip.w);
    let in_part = row_partition(in_h, size);
    let out_part = row_partition(out_h, size);
    let windows: Vec<(Range<usize>, usize, usize)> = out_part
        .iter()
        .map(|r| input_window(r, p.kh, p.stride, p.pad, in_h))
        .collect();
    let needed: Vec<Range<usize>> = windows.iter().map(|(r, _, _)| r.clone()).collect();
    let window = fetch_rows(comm, x_strip, &in_part, &needed)?;
    let my_out = &out_part[me];
    if my_out.is_empty() {
        return Ok(Tensor4::zeros(x_strip.n, p.out_c, 0, out_w));
    }
    let (_, za, zb) = windows[me];
    // The fetched window framed in the zeros the global padding
    // implies: `za`/`zb` synthetic rows, `pad` columns on each side.
    let ext = window.zero_extend(za, zb, p.pad);
    let flops = 2.0 * weights.len() as f64 * (my_out.len() * out_w * x_strip.n) as f64;
    comm.advance_flops(flops);
    let local = Conv2dParams { pad: 0, ..*p };
    let y = conv2d(&ext, weights, &local);
    debug_assert_eq!(
        y.h,
        my_out.len(),
        "local conv yields exactly my output rows"
    );
    debug_assert_eq!(y.w, out_w);
    Ok(y)
}

/// General domain-parallel convolution backward: returns
/// `(∆W all-reduced over the communicator, ∆X strip over this rank's
/// input block)`.
pub fn conv_backward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    dy_strip: &Tensor4,
    p: &Conv2dParams,
    in_h: usize,
) -> Result<(Matrix, Tensor4)> {
    let size = comm.size();
    let me = comm.rank();
    let (out_h, _) = p.out_hw(in_h, x_strip.w);
    let in_part = row_partition(in_h, size);
    let out_part = row_partition(out_h, size);
    let windows: Vec<(Range<usize>, usize, usize)> = out_part
        .iter()
        .map(|r| input_window(r, p.kh, p.stride, p.pad, in_h))
        .collect();
    let needed: Vec<Range<usize>> = windows.iter().map(|(r, _, _)| r.clone()).collect();
    let window = fetch_rows(comm, x_strip, &in_part, &needed)?;

    let flops = 4.0 * weights.len() as f64 * (dy_strip.h * dy_strip.w * dy_strip.n) as f64;
    comm.advance_flops(flops);

    let (mut dw, dx_window) = if out_part[me].is_empty() {
        (
            Matrix::zeros(weights.rows(), weights.cols()),
            Tensor4::zeros(x_strip.n, p.in_c, 0, x_strip.w),
        )
    } else {
        let (_, za, zb) = windows[me];
        let ext = window.zero_extend(za, zb, p.pad);
        let local = Conv2dParams { pad: 0, ..*p };
        let (dw, dx_ext) = conv2d_backward(&ext, weights, dy_strip, &local);
        // Peel the synthetic zero rows and the horizontal padding.
        (dw, dx_ext.peel(za, zb, p.pad))
    };
    allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum)?;
    let dx = scatter_add_rows(comm, &dx_window, &needed, &in_part)?;
    Ok((dw, dx))
}

/// General domain-parallel max-pool forward. Returns the output strip
/// and the argmax table (relative to the fetched window) needed by
/// [`pool_backward`].
pub fn pool_forward(
    comm: &Communicator,
    x_strip: &Tensor4,
    p: &Pool2dParams,
    in_h: usize,
) -> Result<(Tensor4, Vec<usize>)> {
    let size = comm.size();
    let me = comm.rank();
    let (out_h, out_w) = p.out_hw(in_h, x_strip.w);
    let in_part = row_partition(in_h, size);
    let out_part = row_partition(out_h, size);
    let needed: Vec<Range<usize>> = out_part
        .iter()
        .map(|r| input_window(r, p.k, p.stride, 0, in_h).0)
        .collect();
    let window = fetch_rows(comm, x_strip, &in_part, &needed)?;
    if out_part[me].is_empty() {
        return Ok((Tensor4::zeros(x_strip.n, x_strip.c, 0, out_w), Vec::new()));
    }
    comm.advance_flops((x_strip.n * x_strip.c * out_part[me].len() * out_w * p.k * p.k) as f64);
    let (y, argmax) = maxpool2d(&window, p);
    debug_assert_eq!(y.h, out_part[me].len());
    Ok((y, argmax))
}

/// General domain-parallel max-pool backward: routes output gradients
/// to the argmax positions (which may live in neighbours' rows) and
/// scatter-adds them home.
pub fn pool_backward(
    comm: &Communicator,
    dy_strip: &Tensor4,
    argmax: &[usize],
    p: &Pool2dParams,
    in_h: usize,
    in_w: usize,
) -> Result<Tensor4> {
    let size = comm.size();
    let me = comm.rank();
    let (out_h, _) = p.out_hw(in_h, in_w);
    let in_part = row_partition(in_h, size);
    let out_part = row_partition(out_h, size);
    let needed: Vec<Range<usize>> = out_part
        .iter()
        .map(|r| input_window(r, p.k, p.stride, 0, in_h).0)
        .collect();
    let dx_window = if out_part[me].is_empty() {
        Tensor4::zeros(dy_strip.n, dy_strip.c, 0, in_w)
    } else {
        maxpool2d_backward(dy_strip, argmax, needed[me].len(), in_w)
    };
    scatter_add_rows(comm, &dx_window, &needed, &in_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::part_range;
    use mpsim::{NetModel, World};
    use tensor::conv::conv2d_direct;
    use tensor::init;

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
            let ip = part_range(h, p_ranks, r);
            let expect_dx = dx_ref.row_strip(ip.start, ip.end);
            assert!(
                dx.approx_eq(&expect_dx, 1e-9),
                "P={p_ranks} rank {r} dX: {}",
                dx.max_abs_diff(&expect_dx)
            );
        }
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
    fn strided_padded_conv_matches_serial() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        for p in [1, 2, 4] {
            check_conv(p, params, 12, 7);
        }
    }

    #[test]
    fn same_pad_conv_agrees_with_optimized_path() {
        let params = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        check_conv(3, params, 12, 6);
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
            assert!(
                dx.approx_eq(&dx_ref.row_strip(ip.start, ip.end), 1e-12),
                "pool P={p_ranks} rank {r} dX"
            );
        }
    }

    #[test]
    fn overlapping_pool_matches_serial() {
        // AlexNet-style 3x3 stride-2 overlapping pooling.
        let pool = Pool2dParams { k: 3, stride: 2 };
        for p in [1, 2, 3, 4] {
            check_pool(p, pool, 13, 7);
        }
    }

    #[test]
    fn non_overlapping_pool_matches_serial() {
        let pool = Pool2dParams { k: 2, stride: 2 };
        for p in [1, 2, 4] {
            check_pool(p, pool, 16, 6);
        }
    }

    #[test]
    fn strided_traffic_exceeds_same_pad_halo() {
        // A stride-2 conv misaligns strips, so the windows move more
        // than the fixed 1-row halo of the same-pad case — but still
        // far less than gathering whole activations.
        let h = 16;
        let p_ranks = 4;
        let x = init::uniform_tensor(1, 2, h, 4, -1.0, 1.0, 71);
        let same = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let strided = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        let wt = init::uniform(2, same.patch_len(), -0.4, 0.4, 72);
        let words = |params: Conv2dParams| {
            let (_, stats) = World::run_with_stats(p_ranks, NetModel::free(), |comm| {
                let ip = part_range(h, p_ranks, comm.rank());
                let strip = x.row_strip(ip.start, ip.end);
                conv_forward(comm, &strip, &wt, &params, h).unwrap();
            });
            stats.total_words()
        };
        let full_activation = (x.len()) as u64;
        assert!(words(strided) > 0);
        assert!(words(strided) < full_activation * p_ranks as u64);
        let _ = words(same);
    }
}
