//! Cross-crate integration for domain parallelism: a chain of
//! mini-AlexNet stages on strips, and property-based geometry sweeps of
//! the window-exchange kernels against the serial ones.

use proptest::prelude::*;

use integrated_parallelism::distmm::dist::part_range;
use integrated_parallelism::distmm::domain_general;
use integrated_parallelism::mpsim::{NetModel, World};
use integrated_parallelism::tensor::conv::{conv2d_backward, conv2d_direct, Conv2dParams};
use integrated_parallelism::tensor::init;
use integrated_parallelism::tensor::pool::{maxpool2d, Pool2dParams};

#[test]
fn mini_alexnet_stage_chain_runs_under_domain_split() {
    // Drive the first two stages of the miniature AlexNet (strided
    // conv + overlapping pool) through the general kernels and verify
    // against serial, strip by strip.
    let conv1 = Conv2dParams {
        in_c: 3,
        out_c: 8,
        kh: 7,
        kw: 7,
        stride: 2,
        pad: 0,
    };
    let pool1 = Pool2dParams { k: 3, stride: 2 };
    let (b, h, w) = (2usize, 35usize, 35usize);
    let x = init::uniform_tensor(b, 3, h, w, -1.0, 1.0, 86);
    let wt = init::uniform(8, conv1.patch_len(), -0.2, 0.2, 87);
    let y1_ref = conv2d_direct(&x, &wt, &conv1);
    let (y2_ref, _) = maxpool2d(&y1_ref, &pool1);
    let p_ranks = 3;
    let out = World::run(p_ranks, NetModel::free(), |comm| {
        let rng = part_range(h, p_ranks, comm.rank());
        let strip = x.row_strip(rng.start, rng.end);
        let y1 = domain_general::conv_forward(comm, &strip, &wt, &conv1, h).unwrap();
        let (y2, _argmax) = domain_general::pool_forward(comm, &y1, &pool1, y1_ref.h).unwrap();
        y2
    });
    for (r, y2) in out.iter().enumerate() {
        let orng = part_range(y2_ref.h, p_ranks, r);
        let expect = y2_ref.row_strip(orng.start, orng.end);
        assert!(y2.approx_eq(&expect, 1e-10), "rank {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn general_conv_matches_serial_for_random_geometry(
        p_ranks in 1usize..5,
        kh in prop::sample::select(vec![1usize, 3, 5, 7]),
        stride in 1usize..4,
        pad in 0usize..3,
        h in 10usize..24,
        seed in 0u64..500,
    ) {
        // Keep geometry valid: padded height must fit the kernel, and
        // enough output rows for the ranks.
        prop_assume!(h + 2 * pad >= kh);
        let params = Conv2dParams { in_c: 2, out_c: 3, kh, kw: kh, stride, pad };
        let (oh, _) = params.out_hw(h, 8);
        prop_assume!(oh >= 1);
        let x = init::uniform_tensor(2, 2, h, 8, -1.0, 1.0, seed);
        let wt = init::uniform(3, params.patch_len(), -0.4, 0.4, seed + 1);
        let y_ref = conv2d_direct(&x, &wt, &params);
        let dy = init::uniform_tensor(2, 3, y_ref.h, y_ref.w, -1.0, 1.0, seed + 2);
        let (dw_ref, dx_ref) = conv2d_backward(&x, &wt, &dy, &params);
        let out = World::run(p_ranks, NetModel::free(), |comm| {
            let ip = part_range(h, p_ranks, comm.rank());
            let op = part_range(oh, p_ranks, comm.rank());
            let strip = x.row_strip(ip.start, ip.end);
            let y = domain_general::conv_forward(comm, &strip, &wt, &params, h).unwrap();
            let dy_strip = dy.row_strip(op.start, op.end);
            let (dw, dx) =
                domain_general::conv_backward(comm, &strip, &wt, &dy_strip, &params, h)
                    .unwrap();
            (y, dw, dx)
        });
        for (r, (y, dw, dx)) in out.iter().enumerate() {
            let op = part_range(oh, p_ranks, r);
            prop_assert!(y.approx_eq(&y_ref.row_strip(op.start, op.end), 1e-9),
                "rank {r} Y (k={kh} s={stride} pad={pad} h={h} P={p_ranks})");
            prop_assert!(dw.approx_eq(&dw_ref, 1e-8), "rank {r} dW");
            // Every ∆X element is summed on one rank in one order.
            let ip = part_range(h, p_ranks, r);
            prop_assert_eq!(dx, &dx_ref.row_strip(ip.start, ip.end), "rank {}", r);
        }
    }

    #[test]
    fn general_pool_matches_serial_for_random_geometry(
        p_ranks in 1usize..5,
        k in 2usize..4,
        stride in 1usize..4,
        h in 8usize..20,
        seed in 0u64..500,
    ) {
        prop_assume!(h >= k);
        let pool = Pool2dParams { k, stride };
        let (oh, _) = pool.out_hw(h, 6);
        prop_assume!(oh >= 1);
        let x = init::uniform_tensor(2, 2, h, 6, -1.0, 1.0, seed);
        let (y_ref, _) = maxpool2d(&x, &pool);
        let out = World::run(p_ranks, NetModel::free(), |comm| {
            let ip = part_range(h, p_ranks, comm.rank());
            let strip = x.row_strip(ip.start, ip.end);
            let (y, _) = domain_general::pool_forward(comm, &strip, &pool, h).unwrap();
            y
        });
        for (r, y) in out.iter().enumerate() {
            let op = part_range(oh, p_ranks, r);
            prop_assert!(
                y.approx_eq(&y_ref.row_strip(op.start, op.end), 1e-12),
                "rank {r} (k={k} s={stride} h={h} P={p_ranks})"
            );
        }
    }
}
