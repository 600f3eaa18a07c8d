//! The reference kernel: a fixed piece of work that belongs to the
//! benchmark, not to the program, timed before and after every pass.
//!
//! The shared 2-vCPU hosts this runs on change speed by up to half for
//! minutes at a time, for every workload alike — more than any bound a
//! regression gate could use, and no statistic taken inside one run
//! removes it. The reference kernel sees the same machine in the same
//! seconds, so a pass timed in units of it (`wall_rel`) holds still
//! where `wall_s` does not: between two ten-seed sweeps an hour apart
//! the median `wall_s` moved by up to 47 %, the median `wall_rel` by at
//! most 9 % (README.md, "How steady it is").
//!
//! Two parts of about equal time: dependent fused multiply-adds over an
//! L1-resident array (the GEMM and conv microkernels) and small boxed
//! allocations, written, read and freed (envelopes, mailboxes, shard
//! buffers). A third part, a copy through a buffer larger than L2, was
//! tried and dropped: it followed the workloads worst and cost 8 MB of
//! `peak_rss_mb`.

use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on a fresh, quiet box of the kind
/// this was written on. `setup_s` has to be in seconds, so it is the
/// set-up's time in units of the reference kernel times this: the
/// seconds the set-up takes on a machine on which the kernel takes 25 ms.
pub const NOMINAL_S: f64 = 0.025;

pub struct Reference {
    a: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            a: (0..4096).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect(),
        };
        // Once untimed: page in the array, warm the allocator's bins.
        r.run();
        r
    }

    /// Seconds the fixed work took just now (≈ 25 ms).
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        // 4096 × 1000 multiply-adds on eight dependent chains.
        let mut acc = [0.0f64; 8];
        for _ in 0..1000 {
            for chunk in self.a.chunks_exact(8) {
                for (s, &x) in acc.iter_mut().zip(chunk) {
                    *s = x.mul_add(0.999_999, *s * 1e-9);
                }
            }
        }
        black_box(acc);
        // 500 000 boxed nodes: allocate and fill one, read and free the
        // one before it.
        let mut head: Option<Box<(u64, Box<[u64; 32]>)>> = None;
        let mut sum = 0u64;
        for i in 0..500_000u64 {
            let node = Box::new((i, Box::new([i; 32])));
            if let Some(prev) = head.replace(node) {
                sum = sum.wrapping_add(prev.0 ^ prev.1[(i % 32) as usize]);
            }
        }
        black_box((sum, head));
        t.elapsed().as_secs_f64()
    }
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}
