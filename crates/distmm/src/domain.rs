//! Domain-parallel convolution (the paper's Fig. 3).
//!
//! Every rank replicates the filter weights and owns a horizontal strip
//! of every image in the batch shard (the paper: "for NCHW format, it
//! is best to distribute along the height to avoid non-contiguous
//! memory accesses"). A convolution with kernel `k > 1` needs
//! `⌊k/2⌋` boundary rows from each neighbour — the halo — exchanged
//! pair-wise and non-blocking so it overlaps with the interior
//! convolution. 1×1 convolutions need no communication at all.
//!
//! Scope: `stride = 1`, square odd kernels with "same" padding
//! (`pad = k/2`) on strips at least `k/2` rows tall (shorter ones are
//! rejected; [`crate::domain_general`] takes any height, stride and
//! kernel) — the shape class domain parallelism targets (the
//! interior 3×3/5×5/1×1 layers of AlexNet/VGG/ResNet, where activations
//! are large). Strided layers are still *costed* by the analytic model
//! (`integrated::cost::domain`); executing them would only change
//! strip-boundary bookkeeping, not the communication structure.

use collectives::halo::{exchange_1d, Halo};
use collectives::{allreduce, ReduceOp};
use mpsim::{Communicator, Error, Result};
use tensor::conv::{conv2d, conv2d_backward, Conv2dParams, Tensor4};
use tensor::Matrix;

const DX_UP_TAG: u64 = (1 << 48) + 96;
const DX_DOWN_TAG: u64 = (1 << 48) + 97;

fn validate(p: &Conv2dParams) {
    assert_eq!(p.stride, 1, "domain-parallel conv supports stride 1");
    assert_eq!(p.kh, p.kw, "domain-parallel conv supports square kernels");
    assert_eq!(p.kh % 2, 1, "domain-parallel conv supports odd kernels");
    assert_eq!(
        p.pad,
        p.kh / 2,
        "domain-parallel conv supports same-padding"
    );
}

/// Builds the zero-padded extended strip: `k2` halo (or zero) rows
/// above and below, and `k2` zero columns left and right, so the
/// convolution can run with `pad = 0`. A strip shorter than the halo
/// would need rows from beyond its neighbour: the sender checks its own
/// height and the receiver what arrived, so every rank that touches a
/// short strip fails the same way.
fn extend_strip(x_strip: &Tensor4, halo: Halo, k2: usize) -> Result<Tensor4> {
    let (n, c, h, w) = (x_strip.n, x_strip.c, x_strip.h, x_strip.w);
    let halos = [(halo.from_prev, 0), (halo.from_next, h + k2)];
    let mut received = halos.iter().flat_map(|(rows, _)| rows);
    if h < k2 || received.any(|rows| rows.len() != n * c * k2 * w) {
        return Err(Error::CollectiveMismatch(format!(
            "a {h}-row strip or its neighbour is shorter than the {k2}-row halo: \
             use distmm::domain_general, which fetches rows from any number of ranks"
        )));
    }
    let mut ext = x_strip.zero_extend(k2, k2, k2);
    for (rows, h0) in halos {
        if let Some(rows) = rows {
            // Framed in zero columns, a halo is a row strip of `ext`.
            ext.set_row_strip(
                h0,
                &Tensor4::from_vec(n, c, k2, w, rows).zero_extend(0, 0, k2),
            );
        }
    }
    Ok(ext)
}

/// Domain-parallel forward convolution. `x_strip` is this rank's strip
/// of the input (all `B/Pc` samples, all channels, a contiguous block
/// of rows). Returns the matching strip of the output. The halo
/// exchange is overlapped with the interior convolution.
pub fn forward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    p: &Conv2dParams,
) -> Result<Tensor4> {
    validate(p);
    let k2 = p.kh / 2;
    if k2 == 0 || comm.size() == 1 {
        // 1x1 kernels: zero communication (the paper's special case);
        // single rank: nothing to exchange.
        let flops = 2.0 * weights.len() as f64 * (x_strip.h * x_strip.w * x_strip.n) as f64;
        comm.advance_flops(flops);
        let zero_pad = Conv2dParams { pad: p.pad, ..*p };
        return Ok(conv2d(x_strip, weights, &zero_pad));
    }

    let top_rows = x_strip.row_strip(0, k2.min(x_strip.h));
    let bot_rows = x_strip.row_strip(x_strip.h.saturating_sub(k2), x_strip.h);

    let out_w = x_strip.w; // same-pad
    let per_row_flops = 2.0 * weights.len() as f64 * (out_w * x_strip.n) as f64;
    let interior_rows = x_strip.h.saturating_sub(2 * k2);

    let (halo, ()) = exchange_1d(comm, top_rows.as_slice(), bot_rows.as_slice(), || {
        // Interior rows can be convolved while halos are in flight.
        comm.advance_flops(per_row_flops * interior_rows as f64);
    })?;

    let ext = extend_strip(x_strip, halo, k2)?;
    // Boundary rows are charged after the wait.
    comm.advance_flops(per_row_flops * (x_strip.h - interior_rows) as f64);
    let zero_pad = Conv2dParams { pad: 0, ..*p };
    Ok(conv2d(&ext, weights, &zero_pad))
}

/// Domain-parallel backward convolution. Given this rank's strips of
/// the input and the output gradient, returns `(∆W, ∆X_strip)` where
/// `∆W` is all-reduced across the communicator (each rank sees the full
/// weight gradient, as in pure batch parallelism) and `∆X_strip` is the
/// strip of the input gradient, including cross-boundary contributions
/// exchanged with neighbours.
pub fn backward(
    comm: &Communicator,
    x_strip: &Tensor4,
    weights: &Matrix,
    dy_strip: &Tensor4,
    p: &Conv2dParams,
) -> Result<(Matrix, Tensor4)> {
    validate(p);
    let k2 = p.kh / 2;
    let r = comm.rank();
    let size = comm.size();

    let flops = 4.0 * weights.len() as f64 * (dy_strip.h * dy_strip.w * dy_strip.n) as f64;
    comm.advance_flops(flops);

    if k2 == 0 || size == 1 {
        let (mut dw, dx) = conv2d_backward(x_strip, weights, dy_strip, p);
        allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum)?;
        return Ok((dw, dx));
    }

    // Re-exchange input halos (a real implementation would have cached
    // them from the forward pass; the communication volume is the same
    // either way, which is what the cost model charges).
    let top_rows = x_strip.row_strip(0, k2.min(x_strip.h));
    let bot_rows = x_strip.row_strip(x_strip.h.saturating_sub(k2), x_strip.h);
    let (halo, ()) = exchange_1d(comm, top_rows.as_slice(), bot_rows.as_slice(), || ())?;
    let ext = extend_strip(x_strip, halo, k2)?;

    // Backward on the extended strip with pad 0: output shape equals
    // dy_strip exactly.
    let zero_pad = Conv2dParams { pad: 0, ..*p };
    let (mut dw, dx_ext) = conv2d_backward(&ext, weights, dy_strip, &zero_pad);

    // ∆W: sum over all strips (and batch shards) — the same all-reduce
    // pure batch parallelism needs (Eq. 7's third term).
    allreduce(comm, dw.as_mut_slice(), ReduceOp::Sum)?;

    // ∆X: peel off the width padding and the halo rows; the halo-row
    // gradients belong to the neighbours, so exchange and add them.
    let (n, c, h, w) = (x_strip.n, x_strip.c, x_strip.h, x_strip.w);
    let mut dx = dx_ext.peel(k2, k2, k2);
    if r > 0 {
        comm.send_vec(r - 1, DX_UP_TAG, dx_ext.peel(0, h + k2, k2).into_vec())?;
    }
    if r + 1 < size {
        comm.send_vec(r + 1, DX_DOWN_TAG, dx_ext.peel(h + k2, 0, k2).into_vec())?;
    }
    if r + 1 < size {
        let from_next = comm.recv(r + 1, DX_UP_TAG)?;
        dx.add_row_strip(h - k2, &Tensor4::from_vec(n, c, k2, w, from_next));
    }
    if r > 0 {
        let from_prev = comm.recv(r - 1, DX_DOWN_TAG)?;
        dx.add_row_strip(0, &Tensor4::from_vec(n, c, k2, w, from_prev));
    }
    Ok((dw, dx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::part_range;
    use mpsim::{NetModel, World};
    use tensor::conv::conv2d_direct;
    use tensor::init;

    fn check_forward(p_ranks: usize, k: usize, h: usize) {
        let params = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        };
        let x = init::uniform_tensor(2, 3, h, 6, -1.0, 1.0, 31);
        let w = init::uniform(4, params.patch_len(), -0.5, 0.5, 32);
        let y_ref = conv2d_direct(&x, &w, &params);
        let out = World::run(p_ranks, NetModel::free(), |comm| {
            let rng = part_range(h, p_ranks, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &w, &params).unwrap()
        });
        for (r, y_strip) in out.iter().enumerate() {
            let rng = part_range(h, p_ranks, r);
            let expect = y_ref.row_strip(rng.start, rng.end);
            assert!(
                y_strip.approx_eq(&expect, 1e-10),
                "P={p_ranks} k={k} rank {r}: {}",
                y_strip.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn forward_matches_serial_3x3() {
        for p in [1, 2, 3, 4] {
            check_forward(p, 3, 12);
        }
    }

    #[test]
    fn forward_matches_serial_5x5() {
        check_forward(2, 5, 13);
        check_forward(3, 5, 13);
    }

    #[test]
    fn forward_matches_serial_1x1() {
        check_forward(4, 1, 8);
    }

    #[test]
    fn one_by_one_conv_sends_nothing() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let x = init::uniform_tensor(1, 2, 8, 4, -1.0, 1.0, 33);
        let w = init::uniform(2, 2, -0.5, 0.5, 34);
        let (_, stats) = World::run_with_stats(4, NetModel::cori_knl(), |comm| {
            let rng = part_range(8, 4, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &w, &params).unwrap();
        });
        assert_eq!(
            stats.total_words(),
            0,
            "Eq. 7: no halo for 1x1 convolutions"
        );
    }

    #[test]
    fn halo_volume_matches_eq7_term() {
        // Forward halo: each interior rank sends floor(k/2) rows of
        // B*W*C words in each direction.
        let params = Conv2dParams {
            in_c: 3,
            out_c: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let (b, h, w) = (2usize, 12usize, 5usize);
        let x = init::uniform_tensor(b, 3, h, w, -1.0, 1.0, 35);
        let wts = init::uniform(2, params.patch_len(), -0.5, 0.5, 36);
        let (_, stats) = World::run_with_stats(4, NetModel::cori_knl(), |comm| {
            let rng = part_range(h, 4, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &wts, &params).unwrap();
        });
        // 3 interior boundaries, 2 directions each: 6 messages of
        // B * X_W * X_C * floor(kh/2) = 2*5*3*1 = 30 words.
        assert_eq!(stats.total_msgs(), 6);
        assert_eq!(stats.total_words(), 6 * (b * w * 3) as u64);
    }

    #[test]
    fn backward_matches_serial() {
        let params = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let (b, h, w) = (2usize, 12usize, 5usize);
        let x = init::uniform_tensor(b, 2, h, w, -1.0, 1.0, 41);
        let wts = init::uniform(3, params.patch_len(), -0.5, 0.5, 42);
        let dy = init::uniform_tensor(b, 3, h, w, -1.0, 1.0, 43);
        let (dw_ref, dx_ref) = conv2d_backward(&x, &wts, &dy, &params);
        for p_ranks in [1, 2, 3, 4] {
            let out = World::run(p_ranks, NetModel::free(), |comm| {
                let rng = part_range(h, p_ranks, comm.rank());
                backward(
                    comm,
                    &x.row_strip(rng.start, rng.end),
                    &wts,
                    &dy.row_strip(rng.start, rng.end),
                    &params,
                )
                .unwrap()
            });
            for (r, (dw, dx)) in out.iter().enumerate() {
                assert!(dw.approx_eq(&dw_ref, 1e-9), "P={p_ranks} rank {r} dW");
                let rng = part_range(h, p_ranks, r);
                let expect = dx_ref.row_strip(rng.start, rng.end);
                assert!(
                    dx.approx_eq(&expect, 1e-9),
                    "P={p_ranks} rank {r} dX: {}",
                    dx.max_abs_diff(&expect)
                );
            }
        }
    }

    #[test]
    fn strip_shorter_than_the_halo_is_an_error_on_every_rank() {
        // h/P = 1 < k/2 = 2: each neighbour can ship one halo row of the
        // two a 5x5 kernel needs (this indexed out of bounds before).
        let params = Conv2dParams {
            in_c: 1,
            out_c: 1,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        let x = init::uniform_tensor(1, 1, 4, 6, -1.0, 1.0, 46);
        let w = init::uniform(1, params.patch_len(), -0.5, 0.5, 47);
        let out = World::run(4, NetModel::free(), |comm| {
            let rng = part_range(4, 4, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            let fwd = forward(comm, &strip, &w, &params).map(drop);
            (fwd, backward(comm, &strip, &w, &strip, &params).map(drop))
        });
        for (r, results) in out.into_iter().enumerate() {
            for res in [results.0, results.1] {
                match res {
                    Err(Error::CollectiveMismatch(msg)) => assert!(
                        msg.contains("1-row strip")
                            && msg.contains("2-row halo")
                            && msg.contains("domain_general"),
                        "rank {r}: {msg}"
                    ),
                    other => panic!("rank {r}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn halo_overlaps_with_interior_compute() {
        // With a slow network but large interior, the forward halo is
        // fully hidden: comm time stays at zero... except the wait can
        // only be free if compute covers the transfer.
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: 1e6,
        }; // slow compute
        let params = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let x = init::uniform_tensor(1, 2, 16, 4, -1.0, 1.0, 44);
        let w = init::uniform(2, params.patch_len(), -0.5, 0.5, 45);
        let out = World::run(2, model, |comm| {
            let rng = part_range(16, 2, comm.rank());
            let strip = x.row_strip(rng.start, rng.end);
            forward(comm, &strip, &w, &params).unwrap();
            comm.clock()
        });
        for c in &out {
            assert!(
                c.comm < 1e-9,
                "halo fully hidden behind interior compute: comm={}",
                c.comm
            );
            assert!(c.compute > 0.0);
        }
    }
}
