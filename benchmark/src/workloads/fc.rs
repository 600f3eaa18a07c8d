//! `fc_1p5d` — the paper's Eq. 8 path: the scheduled 1.5D trainer on an
//! FC stack over every power-of-two `Pr × Pc` grid of P = 8 and P = 16.
//!
//! Not P = 4: there a layer's shard GEMM reaches `tensor`'s 2²³ mnk
//! threshold and forks over both cores, and a fork-join on every core
//! of a shared host measures the host's scheduler (`wall_s` rose 45 %
//! and scattered under a neighbour's load; single-threaded passes did
//! not). From P = 8 on every product stays on the calling thread.
//!
//! Chosen because every layer does real work here: `tensor` GEMMs on
//! shard shapes (skinny when `B/Pc ≤ 32`), `distmm::onep5d`, blocking
//! and non-blocking ring collectives, and the trainer's bucket
//! scheduler — with few envelopes (≤ 6.5 k per grid), so the engine is
//! not the bottleneck.

use std::collections::BTreeMap;

use crate::api::{
    allgatherv_ring, allreduce, backward, forward, integrated_model_batch, layer_cost, mlp,
    part_range, synthetic_data, train_1p5d_scheduled, train_serial, uniform, Grid,
    LayerParallelism, MachineModel, Matrix, Network, OverlapPlan, ReduceOp, TrainConfig, World,
};
use crate::probe::{Layers, ProbeDims};
use crate::trace::Tracer;
use crate::workloads::{executed_transfer_secs, pow2_grids, Pass, Workload};

pub struct Fc {
    net: Network,
    x: Matrix,
    labels: Vec<usize>,
    cfg: TrainConfig,
    grids: Vec<(usize, usize)>,
    serial_losses: Vec<f64>,
}

impl Fc {
    pub fn setup(seed: u64, smoke: bool) -> Fc {
        let (net, b, iters, ps): (_, usize, usize, &[usize]) = if smoke {
            (mlp("fc-smoke", &[64, 48, 32, 10]), 64, 2, &[4])
        } else {
            (
                mlp("alexnet-fc-exec", &[384, 256, 256, 10]),
                512,
                2,
                &[8, 16],
            )
        };
        let (x, labels) = synthetic_data(&net, b, seed);
        let cfg = TrainConfig {
            lr: 0.1,
            iters,
            seed: seed.wrapping_add(11),
        };
        let serial_losses = train_serial(&net, &x, &labels, &cfg).losses;
        Fc {
            grids: ps.iter().flat_map(|&p| pow2_grids(p)).collect(),
            net,
            x,
            labels,
            cfg,
            serial_losses,
        }
    }
}

pub fn fc_dims(net: &Network) -> Vec<(usize, usize)> {
    net.weighted_layers()
        .iter()
        .map(|l| (l.d_in(), l.d_out()))
        .collect()
}

impl Workload for Fc {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let machine = MachineModel::cori_knl();
        let wlayers = self.net.weighted_layers();
        let b = self.x.cols();
        // The widest batch grid is the one whose ∆W rings the
        // scheduler has to hide.
        let widest = *self.grids.iter().max_by_key(|g| g.1).expect("grids");
        let mut pass = Pass::new();
        for &(pr, pc) in &self.grids {
            pass.operation(&format!("grid {pr}x{pc}"), |sim, broken| {
                let (r, _) = tr.span("core", format!("train_1p5d_scheduled {pr}x{pc}"), |_| {
                    train_1p5d_scheduled(
                        &self.net,
                        &self.x,
                        &self.labels,
                        &self.cfg,
                        pr,
                        pc,
                        machine.net_model(),
                        OverlapPlan::default(),
                    )
                });
                let (losses, div) = (r.losses(), r.replica_divergence());
                sim.absorb_training(&r.stats, &losses, &self.serial_losses, div, broken);
                sim.absorb_eq_ratio(
                    executed_transfer_secs(&r.stats) / self.cfg.iters as f64,
                    integrated_model_batch(&wlayers, b as f64, pr, pc).seconds(&machine),
                );
                if (pr, pc) == widest {
                    sim.overlap_fraction = r.measured_overlap_fraction();
                }
            });
        }
        pass
    }

    fn sizes(&self) -> String {
        format!(
            "{} B={} iters={} grids={:?}",
            self.net.name,
            self.x.cols(),
            self.cfg.iters,
            self.grids
        )
    }

    fn probe_dims(&self) -> ProbeDims {
        let p = self.grids.iter().map(|g| g.0 * g.1).max().expect("grids");
        let widest = fc_dims(&self.net)
            .iter()
            .map(|d| d.0 * d.1)
            .max()
            .expect("layers");
        ProbeDims {
            p,
            group: p,
            words: widest,
            halo_words: widest / p,
        }
    }

    fn replay(&self, tr: &mut Tracer, _pass_s: f64) -> Layers {
        let mut layers = replay_fc(tr, &self.net, self.x.cols(), self.cfg.iters, &self.grids);
        let (_, serial_s) = tr.span("core", "train_serial", |_| {
            train_serial(&self.net, &self.x, &self.labels, &self.cfg)
        });
        layers.serial_s = serial_s * self.grids.len() as f64;
        layers
    }
}

/// Replays one pass of an FC workload layer by layer: for every grid,
/// `iters` iterations of every layer's forward and backward at the
/// `distmm`, `collectives` and `tensor` level, on shards of exactly the
/// shapes the trainer hands down. The blocking `forward`/`backward`
/// stand in for the scheduler's non-blocking variants (same products,
/// same volumes), which is part of what `core.self_s` then holds.
pub fn replay_fc(
    tr: &mut Tracer,
    net: &Network,
    b: usize,
    iters: usize,
    grids: &[(usize, usize)],
) -> Layers {
    let machine = MachineModel::cori_knl();
    let model = machine.net_model();
    let wlayers = net.weighted_layers();
    let dims: &[(usize, usize)] = &fc_dims(net);
    let mut out = Layers::default();
    // Shard shapes depend only on (layer, i, j); values do not matter
    // to the kernels' cost, so one seed serves.
    let shard = |rows: usize, cols: usize| uniform(rows, cols, -0.1, 0.1, 7);

    // distmm: forward-only and backward-only worlds, so each direction
    // has its own wall-clock (a span inside a rank would also cover
    // the ranks that ran while it was blocked).
    let (mut fwd_s, mut bwd_s, mut rank_calls) = (0.0, 0.0, 0u64);
    let (mut executed, mut closed) = (0.0, 0.0);
    tr.span("distmm", "probe:distmm", |tr| {
        for &(pr, pc) in grids {
            let w: Vec<Vec<Matrix>> = dims
                .iter()
                .map(|&(d_in, d_out)| {
                    (0..pr)
                        .map(|i| shard(part_range(d_out, pr, i).len(), d_in))
                        .collect()
                })
                .collect();
            let xs: Vec<Vec<Matrix>> = dims
                .iter()
                .map(|&(d_in, _)| {
                    (0..pc)
                        .map(|j| shard(d_in, part_range(b, pc, j).len()))
                        .collect()
                })
                .collect();
            let dys: Vec<Vec<Matrix>> = dims
                .iter()
                .map(|&(_, d_out)| {
                    (0..pc)
                        .map(|j| shard(d_out, part_range(b, pc, j).len()))
                        .collect()
                })
                .collect();
            let mut world = |name: String, is_fwd: bool| {
                tr.span("distmm", name, |tr| {
                    tr.count("rank_calls", (pr * pc * iters * dims.len()) as f64);
                    let (_, stats) = World::run_with_stats(pr * pc, model, |comm| {
                        let grid = Grid::new(comm, pr, pc).expect("grid tiles the world");
                        for _ in 0..iters {
                            for l in 0..dims.len() {
                                let (w, x) = (&w[l][grid.i], &xs[l][grid.j]);
                                if is_fwd {
                                    std::hint::black_box(forward(&grid, w, x).expect("forward"));
                                } else {
                                    let dy = &dys[l][grid.j];
                                    std::hint::black_box(
                                        backward(&grid, w, x, dy).expect("backward"),
                                    );
                                }
                            }
                        }
                    });
                    executed_transfer_secs(&stats)
                })
            };
            let (ef, tf) = world(format!("onep5d::forward {pr}x{pc}"), true);
            let (eb, tb) = world(format!("onep5d::backward {pr}x{pc}"), false);
            fwd_s += tf;
            bwd_s += tb;
            rank_calls += (pr * pc * iters * dims.len()) as u64;
            executed += ef + eb;
            for l in &wlayers {
                let c = layer_cost(l, LayerParallelism::ModelBatch { pr, pc }, b as f64, false);
                closed += c.seconds(&machine) * iters as f64;
            }
        }
    });
    out.distmm_s = fwd_s + bwd_s;
    out.distmm_fwd_us = fwd_s / rank_calls as f64 * 1e6;
    out.distmm_bwd_us = bwd_s / rank_calls as f64 * 1e6;
    out.distmm_virt_comm_ratio = executed / closed;

    // collectives: the same call sequence on buffers of the same sizes.
    let ((), coll_s) = tr.span("collectives", "probe:collectives_replay", |tr| {
        for &(pr, pc) in grids {
            tr.span("collectives", format!("rings {pr}x{pc}"), |_| {
                World::run_with_stats(pr * pc, model, |comm| {
                    let (row, col) = comm.grid(pr, pc).expect("grid tiles the world");
                    let (i, j) = (comm.rank() / pc, comm.rank() % pc);
                    let bloc = part_range(b, pc, j).len();
                    for _ in 0..iters {
                        for &(_, d_out) in dims {
                            if pr > 1 {
                                let part = vec![0.5; part_range(d_out, pr, i).len() * bloc];
                                std::hint::black_box(
                                    allgatherv_ring(&col, &part).expect("allgatherv"),
                                );
                            }
                        }
                        for &(d_in, d_out) in dims.iter().rev() {
                            let mut dw = vec![0.5; part_range(d_out, pr, i).len() * d_in];
                            allreduce(&row, &mut dw, ReduceOp::Sum).expect("dW allreduce");
                            let mut dx = vec![0.5; d_in * bloc];
                            allreduce(&col, &mut dx, ReduceOp::Sum).expect("dX allreduce");
                        }
                    }
                });
            });
        }
    });
    out.collectives_s = coll_s;

    // tensor: the three GEMMs per layer, per distinct shard shape.
    tr.span("tensor", "probe:tensor", |tr| {
        let mut shapes: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
        for &(pr, pc) in grids {
            for &(d_in, d_out) in dims {
                for i in 0..pr {
                    for j in 0..pc {
                        let rows = part_range(d_out, pr, i).len();
                        let bloc = part_range(b, pc, j).len();
                        if rows > 0 && bloc > 0 {
                            *shapes.entry((rows, d_in, bloc)).or_insert(0) += iters as u64;
                        }
                    }
                }
            }
        }
        for (&(rows, d_in, bloc), &count) in &shapes {
            out.replay_fc_gemms(tr, rows, d_in, bloc, count);
        }
    });
    out
}
