//! Allocation budget of the domain-parallel CNN trainer's steady state.
//!
//! The counting `#[global_allocator]` of `tests/common` measures the
//! bytes requested from the system allocator by `train_cnn_domain` on
//! `mini_alexnet` (B = 16, a 2×2 grid) at `iters = 2` and at
//! `iters = 4`; the difference is what two steady-state iterations
//! cost, all four ranks together, with set-up (grids, shards, weight
//! replicas) cancelled out. The budget pins that number so the copies
//! this path used to make around every convolution — the fetched
//! window copied again into its zero frame, `∆X` peeled out of the
//! frame and cut again into per-owner strips before the scatter —
//! cannot creep back unnoticed.
//!
//! | commit | bytes per two steady-state iterations |
//! |---|---|
//! | d299425 | 31 031 232 |
//! | 51fda08: one copy per strip window | 22 175 424 |
//! | 1ae2799 | 18 616 256 |
//! | the conv `∆W` in one bucket over the grid | 18 853 312 |
//! | `∆X` gathered from a fetched `∆Y` window, no scatter | 18 395 200 |
//! | max-pool `∆X` gathered too (its parent: 19 478 336 on the same host) | 19 367 424 |
//! | the forward's halo kept for `∆W`, no second fetch (its parent: 19 367 424 on the same host) | 19 130 112 |
//! | the head's `∆W` sum under the trunk backward, each `∆W` under its `∆Y` window (its parent: 19 113 984 on the same host) | 19 113 984 |
//!
//! The budget is 0.8 × d299425's figure. The conv `∆W` bucket is
//! allocated once, at `Σ |W_conv|` (9 336 words, 74 688 B a rank and
//! iteration); grown partial by partial it would be reallocated three
//! times. What is left is what a layer hands on: every stage's output
//! and gradient, per convolution the input rows its neighbours sent
//! (fetched once, in the forward, and kept until `∆W` is formed), the
//! framed input window laid from them and the strip for the forward and
//! again for `∆W`, and the `∆Y` window with its zero frame and the
//! rotated kernel `∆X` is gathered with, one message buffer per strip
//! boundary, LRN's scale and power planes, the gradient
//! buckets and the GEMM staging buffers — `Tensor4` stays off
//! `tensor::recycle`'s free list (EXPERIMENTS.md, *`cnn_domain` without
//! `powf`*, has the measurement that says why).

mod common;

use common::{allocated, Counting};
use integrated_parallelism::dnn::zoo::mini_alexnet;
use integrated_parallelism::integrated::cnn::{synthetic_images, train_cnn_domain};
use integrated_parallelism::integrated::trainer::TrainConfig;
use integrated_parallelism::integrated::MachineModel;

#[global_allocator]
static ALLOC: Counting = Counting;

const PARENT_BYTES: u64 = 31_031_232;
const BUDGET: u64 = PARENT_BYTES / 5 * 4;

fn allocated_by(iters: usize) -> u64 {
    let net = mini_alexnet();
    let (x, labels) = synthetic_images(&net, 16, 3);
    let cfg = TrainConfig {
        lr: 0.02,
        iters,
        seed: 5,
    };
    let model = MachineModel::cori_knl().net_model();
    let before = allocated();
    let r = train_cnn_domain(&net, &x, &labels, &cfg, 2, 2, model);
    let after = allocated();
    assert_eq!(r.losses().len(), iters);
    after - before
}

#[test]
fn two_steady_state_cnn_iterations_stay_within_the_allocation_budget() {
    // Warm the thread-local GEMM scratch and the fibre-stack slabs the
    // way any second run in a process finds them.
    allocated_by(2);
    let (two, four) = (allocated_by(2), allocated_by(4));
    let steady = four.saturating_sub(two);
    println!("allocated: iters=2 {two} B, iters=4 {four} B, steady-state pair {steady} B");
    assert!(
        steady <= BUDGET,
        "two steady-state iterations allocated {steady} B, budget {BUDGET} B \
         (parent commit: {PARENT_BYTES} B)"
    );
}
