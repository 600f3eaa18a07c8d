//! Domain-parallel convolution (the paper's Fig. 3): split every image
//! of the batch into horizontal strips across ranks, exchange only the
//! `⌊k/2⌋`-row halos (the window exchange of `distmm::domain_general`,
//! which is all a stride-1 same-padded kernel asks of it), and verify
//! the stitched result matches the serial convolution — including the
//! backward pass, whose `∆X` strips gather from a fetched `∆Y` halo and
//! equal the serial `∆X`'s rows to the bit. Also demonstrates the
//! paper's 1×1 special case (no halo either way), and AlexNet's
//! overlapping 3×3/2 max-pool, whose `∆X` is a gather too: each rank
//! fetches the `∆Y` rows, argmax alongside, whose windows touch its
//! rows, and its strip equals the serial `∆X`'s rows to the bit.
//!
//! ```text
//! cargo run --example domain_conv
//! ```

use integrated_parallelism::distmm::domain_general::{
    conv_backward, conv_forward, pool_backward, pool_forward,
};
use integrated_parallelism::distmm::part_range;
use integrated_parallelism::mpsim::{NetModel, World};
use integrated_parallelism::tensor::conv::{conv2d_backward, conv2d_direct, Conv2dParams};
use integrated_parallelism::tensor::init;
use integrated_parallelism::tensor::pool::{maxpool2d, maxpool2d_backward, Pool2dParams};

fn main() {
    let p_ranks = 4;
    let (batch, h, w) = (8usize, 32usize, 24usize);

    for (label, k) in [("3x3", 3usize), ("5x5", 5), ("1x1", 1)] {
        let params = Conv2dParams {
            in_c: 16,
            out_c: 32,
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        };
        let x = init::uniform_tensor(batch, params.in_c, h, w, -1.0, 1.0, 7);
        let weights = init::uniform(params.out_c, params.patch_len(), -0.2, 0.2, 8);
        let dy = init::uniform_tensor(batch, params.out_c, h, w, -1.0, 1.0, 9);

        // Serial reference.
        let y_ref = conv2d_direct(&x, &weights, &params);
        let (dw_ref, dx_ref) = conv2d_backward(&x, &weights, &dy, &params);

        // Domain-parallel run: each rank owns a strip of rows.
        let (results, stats) = World::run_with_stats(p_ranks, NetModel::cori_knl(), |comm| {
            let rng = part_range(h, p_ranks, comm.rank());
            let x_strip = x.row_strip(rng.start, rng.end);
            let dy_strip = dy.row_strip(rng.start, rng.end);
            let y_strip = conv_forward(comm, &x_strip, &weights, &params, h).unwrap();
            let (dw, dx_strip) =
                conv_backward(comm, &x_strip, &weights, &dy_strip, &params, h).unwrap();
            (y_strip, dw, dx_strip)
        });

        // Verify strip by strip.
        let mut worst: f64 = 0.0;
        for (r, (y_strip, dw, dx_strip)) in results.iter().enumerate() {
            let rng = part_range(h, p_ranks, r);
            worst = worst.max(y_strip.max_abs_diff(&y_ref.row_strip(rng.start, rng.end)));
            worst = worst.max(dw.max_abs_diff(&dw_ref));
            // Every ∆X element is summed on one rank in one order: the
            // strip is the serial ∆X's rows to the bit.
            assert_eq!(
                *dx_strip,
                dx_ref.row_strip(rng.start, rng.end),
                "{label} rank {r}"
            );
        }
        assert!(worst < 1e-8, "{label}: mismatch {worst}");
        println!(
            "{label} conv over {p_ranks} ranks: max |err| = {worst:.2e}, words moved = {}, \
             messages = {}",
            stats.total_words(),
            stats.total_msgs()
        );
    }

    // AlexNet's overlapping pool on its 27 x 27 conv2 output.
    let pool = Pool2dParams { k: 3, stride: 2 };
    let (ph, pw) = (27usize, 27usize);
    let x = init::uniform_tensor(batch, 16, ph, pw, -1.0, 1.0, 10);
    let (y_ref, argmax_ref) = maxpool2d(&x, &pool);
    let dy = init::uniform_tensor(batch, 16, y_ref.h, y_ref.w, -1.0, 1.0, 11);
    let dx_ref = maxpool2d_backward(&dy, &argmax_ref, ph, pw);
    let strips = |r| (part_range(ph, p_ranks, r), part_range(y_ref.h, p_ranks, r));
    let (results, stats) = World::run_with_stats(p_ranks, NetModel::cori_knl(), |comm| {
        let (ip, op) = strips(comm.rank());
        let (y, argmax) = pool_forward(comm, &x.row_strip(ip.start, ip.end), &pool, ph).unwrap();
        let dy_strip = dy.row_strip(op.start, op.end);
        let dx = pool_backward(comm, &dy_strip, &argmax, &pool, ph, pw).unwrap();
        (y, dx)
    });
    for (r, (y, dx)) in results.iter().enumerate() {
        let (ip, op) = strips(r);
        assert_eq!(
            *y,
            y_ref.row_strip(op.start, op.end),
            "3x3/2 pool rank {r} Y"
        );
        assert_eq!(
            *dx,
            dx_ref.row_strip(ip.start, ip.end),
            "3x3/2 pool rank {r} dX"
        );
    }
    println!(
        "3x3/2 max-pool over {p_ranks} ranks: Y and dX strips equal the serial rows to the bit, \
         words moved = {}, messages = {}",
        stats.total_words(),
        stats.total_msgs()
    );
    println!(
        "\nnote the 1x1 convolution's halo traffic: neither pass moves a row, exactly\n\
         as the paper's Eq. 7 predicts (only the ∆W all-reduce remains)."
    );
}
