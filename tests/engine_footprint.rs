//! What the event engine asks the allocator for is linear in P.
//!
//! A counting `#[global_allocator]` measures the bytes requested by an
//! idle world, `World::run(P, |_| ())`, at P = 512, 1 024 and 2 048. Per
//! rank the engine holds a fibre, a mailbox, scheduler state and the
//! rank's `Inner`; per world one fault plan and **one** member table.
//! A member table per rank (the parent of the change that added this
//! test) is 8·P² bytes per world: 2 of 3.5 MB at P = 512, 32 of 38 MB
//! at P = 2 048 — growth > 3× per doubling where linear is 2×.
//!
//! Fibre stacks are `mmap`ed slabs, not allocator memory, and are not
//! counted here (`mpsim`'s unit tests count slab mappings). The
//! threaded oracle keeps P² channel senders by construction and is not
//! measured.

mod common;

use common::{allocated, Counting};
use integrated_parallelism::mpsim::{Backend, NetModel, RunOpts, World};

#[global_allocator]
static ALLOC: Counting = Counting;

fn idle_world_bytes(p: usize) -> u64 {
    let opts = RunOpts {
        backend: Some(Backend::Events),
        ..RunOpts::default()
    };
    let before = allocated();
    let (out, _, _) = World::run_opts(p, NetModel::free(), opts, |_| ());
    let after = allocated();
    assert_eq!(out.len(), p);
    after - before
}

#[test]
fn an_idle_world_requests_bytes_linear_in_p() {
    let sizes = [512, 1024, 2048];
    let bytes = sizes.map(idle_world_bytes);
    println!("idle world, bytes requested at P = {sizes:?}: {bytes:?}");
    for (p, pair) in sizes.iter().zip(bytes.windows(2)) {
        let growth = pair[1] as f64 / pair[0] as f64;
        assert!(
            growth <= 2.2,
            "P = {p} -> {}: {} -> {} bytes, {growth:.2}x per doubling (linear is 2x)",
            2 * p,
            pair[0],
            pair[1]
        );
    }
}
