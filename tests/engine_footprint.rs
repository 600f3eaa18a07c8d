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
//! threaded oracle runs this same fabric with one parked OS thread per
//! rank, whose stacks the allocator does not see either; it is not
//! measured.
//!
//! A world sharded over several workers asks for the same bytes per
//! rank — the shards split the scheduler state, they do not copy it —
//! plus a constant per worker, and its helper threads sleep once it
//! has returned: the process's CPU time stands still.

mod common;

use common::{allocated, Counting};
use integrated_parallelism::mpsim::{Backend, NetModel, RunOpts, World};

#[global_allocator]
static ALLOC: Counting = Counting;

fn idle_world_bytes(p: usize, workers: usize) -> u64 {
    let opts = RunOpts {
        backend: Some(Backend::EventsOn(workers)),
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
    let bytes = sizes.map(|p| idle_world_bytes(p, 1));
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

    // The first sharded world starts the helper threads; the second is
    // the steady state that is measured.
    idle_world_bytes(2048, 4);
    for workers in [2, 4] {
        let sharded = idle_world_bytes(2048, workers);
        println!(
            "idle world at P = 2048 on {workers} workers: {sharded} bytes, {:.1} per rank",
            sharded as f64 / 2048.0
        );
        assert!(
            sharded <= bytes[2] + 1024 * workers as u64,
            "{workers} workers: {sharded} bytes against one worker's {}",
            bytes[2]
        );
    }

    // Helpers parked: user + system time of the whole process, in clock
    // ticks, does not move across a 100 ms sleep (one tick of slack for
    // a tick boundary falling inside the window).
    let cpu_ticks = || {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux procfs");
        let after_comm = stat.rsplit_once(')').expect("comm field").1;
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    };
    let before = cpu_ticks();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let burnt = cpu_ticks() - before;
    assert!(
        burnt <= 1,
        "{burnt} clock ticks of CPU while every worker should sleep"
    );
}
