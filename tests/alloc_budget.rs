//! Allocation budget of the 1.5D trainer's steady state.
//!
//! A counting `#[global_allocator]` measures the bytes requested from
//! the system allocator by `train_1p5d_scheduled` on a 2×2 grid at
//! `iters = 2` and at `iters = 4`; the difference is what two
//! steady-state iterations cost, all four ranks together, with set-up
//! (grid, shards, scheduler) cancelled out. The budget pins that number
//! so the per-step copies this path used to make (`to_vec` per ring
//! step, blocks + `vcat`, `clone()`-then-activate, a `calloc` per GEMM
//! output and per B̃ panel) cannot creep back unnoticed.
//!
//! Measured on this test's network (`mlp [256, 192, 128, 10]`, B = 128):
//!
//! | commit | bytes per two steady-state iterations |
//! |---|---|
//! | parent (b5199d6) | 25 197 984 |
//! | this change | 10 680 576 |
//!
//! The budget is half the parent's figure. What is left is one fresh
//! buffer per GEMM output that leaves the rank's hands or outlives the
//! layer (`∆W` into its bucket, `∆X`, each layer's `Y`), the partial
//! that travels the forward ring, one first block per all-reduce, and
//! the `∆Y` row block: inside a busy world the free list is empty by
//! design (`tensor::recycle`), so these still reach the allocator.

mod common;

use common::{allocated, Counting};
use integrated_parallelism::dnn::zoo::mlp;
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d_scheduled, TrainConfig,
};
use integrated_parallelism::integrated::MachineModel;

#[global_allocator]
static ALLOC: Counting = Counting;

const PARENT_BYTES: u64 = 25_197_984;
const BUDGET: u64 = PARENT_BYTES / 2;

fn allocated_by(iters: usize) -> u64 {
    let net = mlp("alloc-budget", &[256, 192, 128, 10]);
    let (x, labels) = synthetic_data(&net, 128, 3);
    let cfg = TrainConfig {
        lr: 0.1,
        iters,
        seed: 5,
    };
    let model = MachineModel::cori_knl().net_model();
    let before = allocated();
    let r = train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 2, model, OverlapPlan::default());
    let after = allocated();
    assert_eq!(r.losses().len(), iters);
    after - before
}

#[test]
fn two_steady_state_iterations_stay_within_the_allocation_budget() {
    // Warm the thread-local scratch and the free list's high-water mark
    // the way any second run in a process finds them.
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
