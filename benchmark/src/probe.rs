//! Per-layer probes for the traced run.
//!
//! The engine runs ranks one at a time on one host thread, so host
//! time is additive and a layer's busy time can be replayed from
//! outside by calling its public functions directly. Two kinds:
//!
//! * **micro-probes** (this file): `mpsim` rings and the five
//!   collectives at the workload's world and group size. Measured on
//!   every workload, so their times are defined everywhere.
//! * **replays** (each workload's `replay`): the pass's `tensor`,
//!   `collectives` and `distmm` calls on its own shard shapes, whose
//!   totals peel the onion `core ⊇ distmm ⊇ {tensor, collectives ⊇
//!   mpsim}`.

use std::time::Instant;

use crate::api::{
    allgather_bruck, allreduce_recursive_doubling, allreduce_ring, bruck_allgather, exchange_1d,
    halo_transfer, iallreduce, matmul, matmul_a_bt, matmul_at_b, matmul_flops,
    recursive_doubling_allreduce, ring_allreduce_exact, uniform, Communicator, NetModel, ReduceOp,
    TraceConfig, World,
};
use crate::trace::Tracer;

/// Work and time of one class of kernel calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    pub flops: f64,
    pub secs: f64,
}

impl Rate {
    pub fn add(&mut self, flops: f64, secs: f64) {
        self.flops += flops;
        self.secs += secs;
    }

    /// 0 when the workload has no call of this class.
    pub fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops / self.secs * 1e-9
        } else {
            0.0
        }
    }
}

/// What a workload's `replay` measured: one pass's worth of each
/// layer's calls, in host seconds.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub gemm: Rate,
    /// GEMMs whose batch-shard dimension is at most 32 columns (also
    /// counted in `gemm`).
    pub gemm_skinny: Rate,
    pub conv_fwd: Rate,
    pub conv_bwd: Rate,
    /// Pooling and LRN kernels (time only; no FLOP count).
    pub other_tensor_s: f64,
    /// Replay of the pass's collective calls, and of its distmm calls
    /// (which contain their tensor and collective calls).
    pub collectives_s: f64,
    pub distmm_s: f64,
    /// Mean host µs of one rank's `forward` / `backward` call.
    pub distmm_fwd_us: f64,
    pub distmm_bwd_us: f64,
    /// Executed transfer s of the distmm replay / Σ `layer_cost`.
    pub distmm_virt_comm_ratio: f64,
    pub halo_words: u64,
    pub halo_host_us: f64,
    /// The same task on a single worker.
    pub serial_s: f64,
    /// chaos_ft: host ms per plan, and `Oracle::check` / bare trainer.
    pub plan_ms: Vec<f64>,
    pub oracle_overhead: f64,
}

impl Layers {
    pub fn tensor_flops(&self) -> f64 {
        self.gemm.flops + self.conv_fwd.flops + self.conv_bwd.flops
    }

    pub fn tensor_busy_s(&self) -> f64 {
        self.gemm.secs + self.conv_fwd.secs + self.conv_bwd.secs + self.other_tensor_s
    }

    /// Replays `count` times the three GEMMs one FC layer costs one
    /// rank — `W·X`, `∆Y·Xᵀ`, `Wᵀ·∆Y` — on a `rows × d_in` weight shard
    /// and `cols` batch columns.
    pub fn replay_fc_gemms(
        &mut self,
        tr: &mut Tracer,
        rows: usize,
        d_in: usize,
        cols: usize,
        count: u64,
    ) {
        let shard = |r, c| uniform(r, c, -0.1, 0.1, 7);
        let (w, x, dy) = (shard(rows, d_in), shard(d_in, cols), shard(rows, cols));
        tr.span("tensor", format!("gemm {rows}x{d_in}x{cols}"), |tr| {
            tr.count("calls", (3 * count) as f64);
            let secs = time_calls(count, || {
                std::hint::black_box(matmul(&w, &x));
            }) + time_calls(count, || {
                std::hint::black_box(matmul_a_bt(&dy, &x));
            }) + time_calls(count, || {
                std::hint::black_box(matmul_at_b(&w, &dy));
            });
            let flops = 3.0 * count as f64 * matmul_flops(rows, d_in, cols);
            self.gemm.add(flops, secs);
            if cols <= 32 {
                self.gemm_skinny.add(flops, secs);
            }
        });
    }
}

/// Host seconds of `count` calls of `f`: the calls are made for real
/// until 5 ms have passed (at least three), and the remainder is
/// scaled, so a shape called ten thousand times costs 5 ms to replay.
pub fn time_calls(count: u64, mut f: impl FnMut()) -> f64 {
    if count == 0 {
        return 0.0;
    }
    f();
    let t = Instant::now();
    let mut reps = 0u64;
    while reps < count && (reps < 3 || t.elapsed().as_secs_f64() < 5e-3) {
        f();
        reps += 1;
    }
    t.elapsed().as_secs_f64() / reps as f64 * count as f64
}

#[derive(Debug, Clone, Copy)]
pub struct ProbeDims {
    /// Largest world the workload spawns.
    pub p: usize,
    /// Its characteristic collective: group size and words per rank.
    pub group: usize,
    pub words: usize,
    /// Words one halo message carries (the group's, for workloads
    /// without a halo).
    pub halo_words: usize,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct MpsimProbe {
    pub spawn_us_per_rank: f64,
    pub ns_per_envelope: f64,
    pub ns_per_word: f64,
    pub trace_overhead: f64,
}

fn model() -> NetModel {
    NetModel::cori_knl()
}

/// Every rank passes `words` to its right neighbour `steps` times.
fn ring(comm: &Communicator, words: usize, steps: usize) {
    let (p, r) = (comm.size(), comm.rank());
    let buf = vec![r as f64; words];
    for s in 0..steps {
        let got = comm
            .sendrecv((r + 1) % p, &buf, (r + p - 1) % p, s as u64)
            .expect("ring step");
        std::hint::black_box(got);
    }
}

pub fn mpsim_probe(p: usize, tr: &mut Tracer) -> MpsimProbe {
    let (probe, _) = tr.span("mpsim", "probe:mpsim", |tr| {
        let worlds = (8192 / p).max(2);
        let (_, spawn_total) = tr.span("mpsim", "spawn", |tr| {
            tr.count("ranks", (worlds * p) as f64);
            for _ in 0..worlds {
                World::run_with_stats(p, model(), |_| ());
            }
        });
        let spawn_s = spawn_total / worlds as f64;

        // Envelope-bound: 8-word payloads at the workload's P.
        let steps = (100_000 / p).max(4);
        let envelopes = (steps * p) as f64;
        let (_, small_s) = tr.span("mpsim", "ring8", |tr| {
            tr.count("envelopes", envelopes);
            World::run_with_stats(p, model(), |c| ring(c, 8, steps));
        });
        let ns_per_envelope = (small_s - spawn_s).max(0.0) / envelopes * 1e9;

        // Payload-bound: 65 536-word payloads. The world is capped at
        // 16 ranks — every rank holds one payload in flight, and 4096
        // of them would be 2 GiB.
        let pb = p.clamp(2, 16);
        let big_envelopes = (128 / pb * pb) as f64;
        let big_words = big_envelopes * 65_536.0;
        let (_, big_s) = tr.span("mpsim", "ring65536", |tr| {
            tr.count("words", big_words);
            World::run_with_stats(pb, model(), |c| ring(c, 65_536, 128 / pb));
        });
        let copy_ns = (big_s - spawn_s * pb as f64 / p as f64) * 1e9;

        // The engine's own event tracer, off and on, same ring.
        let tsteps = (steps / 4).max(4);
        let mut traced = |cfg: TraceConfig, name: &'static str| {
            tr.span("mpsim", name, |_| {
                World::run_traced_with_stats(p, model(), cfg, |c| ring(c, 8, tsteps));
            })
            .1
        };
        let off = traced(TraceConfig::disabled(), "ring8_trace_off");
        let on = traced(TraceConfig::enabled(), "ring8_trace_on");

        MpsimProbe {
            spawn_us_per_rank: spawn_s / p as f64 * 1e6,
            ns_per_envelope,
            ns_per_word: (copy_ns - big_envelopes * ns_per_envelope).max(0.0) / big_words,
            trace_overhead: on / off,
        }
    });
    probe
}

/// Host µs per whole-group call and executed / closed-form virtual
/// time for one collective.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectiveProbe {
    pub host_us: f64,
    pub virt_ratio: f64,
}

/// The five collectives, in `BENCHMARK.json` order.
pub const COLLECTIVES: [&str; 5] = [
    "allreduce_ring",
    "allgather_bruck",
    "iallreduce",
    "allreduce_rd",
    "halo",
];

/// Calls each collective directly in a world of the workload's group
/// size (capped at 64 ranks: a ring over 4096 ranks is 33 M envelopes)
/// on the workload's word count (capped at 65 536).
pub fn collective_probes(dims: &ProbeDims, tr: &mut Tracer) -> [CollectiveProbe; 5] {
    let g = dims.group.clamp(2, 64);
    // Recursive doubling needs a power of two.
    let g2 = 1usize << g.ilog2();
    let n = dims.words.clamp(1, 65_536);
    let h = dims.halo_words.clamp(1, 65_536);
    let m = model();
    let mut out = [CollectiveProbe::default(); 5];
    tr.span("collectives", "probe:collectives", |tr| {
        let mut run = |name: &'static str,
                       size: usize,
                       closed_form_s: f64,
                       body: &(dyn Fn(&Communicator) + Sync)| {
            // Enough calls that the world's spawn cost is a few percent
            // of what is measured.
            let reps = (2_000_000 / (size * n.max(64))).clamp(3, 256);
            let (virt, secs) = tr.span("collectives", name, |tr| {
                tr.count("calls", reps as f64);
                tr.count("group", size as f64);
                let (_, stats) = World::run_with_stats(size, m, |c| {
                    for _ in 0..reps {
                        body(c);
                    }
                });
                stats.makespan()
            });
            CollectiveProbe {
                host_us: secs / reps as f64 * 1e6,
                virt_ratio: virt / (reps as f64 * closed_form_s),
            }
        };
        out[0] = run(
            "allreduce_ring",
            g,
            ring_allreduce_exact(g, n as f64).seconds(&m),
            &|c| {
                let mut d = vec![c.rank() as f64; n];
                allreduce_ring(c, &mut d, ReduceOp::Sum).expect("allreduce_ring");
            },
        );
        out[1] = run(
            "allgather_bruck",
            g,
            bruck_allgather(g, (n * g) as f64).seconds(&m),
            &|c| {
                let d = vec![c.rank() as f64; n];
                std::hint::black_box(allgather_bruck(c, &d).expect("allgather_bruck"));
            },
        );
        out[2] = run(
            "iallreduce",
            g,
            ring_allreduce_exact(g, n as f64).seconds(&m),
            &|c| {
                let d = vec![c.rank() as f64; n];
                let h = iallreduce(c, d, ReduceOp::Sum).expect("iallreduce");
                std::hint::black_box(h.wait().expect("iallreduce wait"));
            },
        );
        out[3] = run(
            "allreduce_rd",
            g2,
            recursive_doubling_allreduce(g2, n as f64).seconds(&m),
            &|c| {
                let mut d = vec![c.rank() as f64; n];
                allreduce_recursive_doubling(c, &mut d, ReduceOp::Sum).expect("allreduce_rd");
            },
        );
        // Both neighbours' rows arrive concurrently: one transfer.
        out[4] = run(
            "halo",
            g.max(3),
            halo_transfer(h as f64).seconds(&m),
            &|c| {
                let d = vec![c.rank() as f64; h];
                std::hint::black_box(exchange_1d(c, &d, &d, || ()).expect("halo"));
            },
        );
    });
    out
}
