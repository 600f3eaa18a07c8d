//! `cnn_domain` — the paper's third dimension (Eq. 7/9): integrated
//! batch + domain parallel training of `mini_alexnet` on four `pd × pc`
//! grids.
//!
//! Chosen because `tensor::conv` forward/backward and the strip
//! redistribution of `distmm::domain_general` dominate here, while GEMM
//! and ring all-reduce do little: a conv-kernel or domain-path change
//! shows on this workload, and an FC change must not.

use std::collections::BTreeMap;

use crate::api::{
    allgatherv_ring, allreduce, conv2d, conv2d_backward, conv_backward, conv_forward,
    integrated_full, layer_cost, lrn_backward, lrn_forward, maxpool2d, maxpool2d_backward,
    mini_alexnet, part_range, row_partition, synthetic_images, train_cnn_domain, train_cnn_serial,
    uniform, uniform_tensor, Conv2dParams, LayerParallelism, LayerSpec, LrnParams, MachineModel,
    Network, Pool2dParams, ReduceOp, Tensor4, TrainConfig, World,
};
use crate::probe::{time_calls, Layers, ProbeDims};
use crate::trace::Tracer;
use crate::workloads::{executed_transfer_secs, Pass, Workload};

pub struct Cnn {
    net: Network,
    x: Tensor4,
    labels: Vec<usize>,
    cfg: TrainConfig,
    grids: Vec<(usize, usize)>,
    serial_losses: Vec<f64>,
}

/// A trunk stage with the input shape it sees.
enum Stage {
    Conv(Conv2dParams),
    Pool(Pool2dParams),
    Lrn,
}

struct Trunk {
    /// (stage, in_c, in_h, in_w).
    stages: Vec<(Stage, usize, usize, usize)>,
    /// FC head `(d_in, d_out)`.
    fcs: Vec<(usize, usize)>,
    /// Shape entering the FC head.
    out: (usize, usize, usize),
}

fn trunk_of(net: &Network) -> Trunk {
    let mut t = Trunk {
        stages: Vec::new(),
        fcs: Vec::new(),
        out: (net.input.c, net.input.h, net.input.w),
    };
    for (spec, i, o) in net.layers() {
        let stage = match *spec {
            LayerSpec::Conv {
                out_c,
                kh,
                kw,
                stride,
                pad,
            } => Stage::Conv(Conv2dParams {
                in_c: i.c,
                out_c,
                kh,
                kw,
                stride,
                pad,
            }),
            LayerSpec::MaxPool { k, stride } => Stage::Pool(Pool2dParams { k, stride }),
            LayerSpec::LocalResponseNorm => Stage::Lrn,
            LayerSpec::FullyConnected { .. } => {
                t.fcs.push((i.dim(), o.dim()));
                continue;
            }
            _ => continue,
        };
        t.stages.push((stage, i.c, i.h, i.w));
        t.out = (o.c, o.h, o.w);
    }
    t
}

impl Cnn {
    pub fn setup(seed: u64, smoke: bool) -> Cnn {
        let net = mini_alexnet();
        let (b, iters, grids) = if smoke {
            (16, 1, vec![(2, 2)])
        } else {
            (64, 2, vec![(1, 4), (2, 4), (4, 4), (4, 2)])
        };
        let (x, labels) = synthetic_images(&net, b, seed);
        let cfg = TrainConfig {
            lr: 0.05,
            iters,
            seed: seed.wrapping_add(11),
        };
        let serial_losses = train_cnn_serial(&net, &x, &labels, &cfg).losses;
        Cnn {
            net,
            x,
            labels,
            cfg,
            grids,
            serial_losses,
        }
    }
}

impl Workload for Cnn {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let machine = MachineModel::cori_knl();
        let wlayers = self.net.weighted_layers();
        let mut pass = Pass::new();
        for &(pd, pc) in &self.grids {
            pass.operation(&format!("grid {pd}x{pc}"), |sim, broken| {
                let (r, _) = tr.span("core", format!("train_cnn_domain {pd}x{pc}"), |_| {
                    train_cnn_domain(
                        &self.net,
                        &self.x,
                        &self.labels,
                        &self.cfg,
                        pd,
                        pc,
                        machine.net_model(),
                    )
                });
                let (losses, div) = (r.losses(), r.replica_divergence());
                sim.absorb_training(&r.stats, &losses, &self.serial_losses, div, broken);
                // Eq. 9: conv layers domain-parallel, the replicated FC
                // head batch-parallel.
                let assign: Vec<LayerParallelism> = wlayers
                    .iter()
                    .map(|l| {
                        if l.is_conv() {
                            LayerParallelism::Domain { pd, pc }
                        } else {
                            LayerParallelism::ModelBatch { pr: 1, pc }
                        }
                    })
                    .collect();
                sim.absorb_eq_ratio(
                    executed_transfer_secs(&r.stats) / self.cfg.iters as f64,
                    integrated_full(&wlayers, &assign, self.x.n as f64).seconds(&machine),
                );
            });
        }
        pass
    }

    fn sizes(&self) -> String {
        format!(
            "{} B={} iters={} grids={:?}",
            self.net.name, self.x.n, self.cfg.iters, self.grids
        )
    }

    fn probe_dims(&self) -> ProbeDims {
        let p = self.grids.iter().map(|g| g.0 * g.1).max().expect("grids");
        let pd = self.grids.iter().map(|g| g.0).max().expect("grids");
        let widest = self
            .net
            .weighted_layers()
            .iter()
            .filter(|l| l.is_conv())
            .map(|l| l.weights)
            .max()
            .expect("conv layers");
        // conv2's boundary: two rows of its 12×17 input per image.
        ProbeDims {
            p,
            group: pd,
            words: widest,
            halo_words: self.x.n / p * 8 * 8 * 2,
        }
    }

    fn replay(&self, tr: &mut Tracer, _pass_s: f64) -> Layers {
        let machine = MachineModel::cori_knl();
        let model = machine.net_model();
        let trunk = trunk_of(&self.net);
        let (b, iters) = (self.x.n, self.cfg.iters);
        let mut out = Layers::default();
        let convs: Vec<(Conv2dParams, usize, usize)> = trunk
            .stages
            .iter()
            .filter_map(|(s, _, h, w)| match s {
                Stage::Conv(p) => Some((*p, *h, *w)),
                _ => None,
            })
            .collect();
        let conv_layers: Vec<_> = self
            .net
            .weighted_layers()
            .into_iter()
            .filter(|l| l.is_conv())
            .collect();

        // distmm: every conv layer's domain-parallel forward and
        // backward on strips of the trainer's shapes.
        let (mut fwd_s, mut bwd_s, mut rank_calls) = (0.0, 0.0, 0u64);
        let (mut executed, mut closed) = (0.0, 0.0);
        tr.span("distmm", "probe:distmm", |tr| {
            for &(pd, pc) in &self.grids {
                let b_loc = b / pc;
                let weights: Vec<_> = convs
                    .iter()
                    .map(|(p, _, _)| uniform(p.out_c, p.patch_len(), -0.1, 0.1, 7))
                    .collect();
                // Input strips, or output-gradient strips, per layer and
                // strip index.
                let strips = |of_output: bool| {
                    convs
                        .iter()
                        .map(|(p, h, w)| {
                            let (c, full_h, sw) = if of_output {
                                let (oh, ow) = p.out_hw(*h, *w);
                                (p.out_c, oh, ow)
                            } else {
                                (p.in_c, *h, *w)
                            };
                            row_partition(full_h, pd)
                                .iter()
                                .map(|r| uniform_tensor(b_loc, c, r.len(), sw, -1.0, 1.0, 7))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                };
                let (xs, dys) = (strips(false), strips(true));
                let mut world = |name: String, is_fwd: bool| {
                    tr.span("distmm", name, |tr| {
                        tr.count("rank_calls", (pd * pc * iters * convs.len()) as f64);
                        let (_, stats) = World::run_with_stats(pd * pc, model, |comm| {
                            let i = comm.rank() / pc;
                            let (_, col) = comm.grid(pd, pc).expect("grid tiles the world");
                            for _ in 0..iters {
                                for (l, (p, in_h, _)) in convs.iter().enumerate() {
                                    let (x, w) = (&xs[l][i], &weights[l]);
                                    if is_fwd {
                                        std::hint::black_box(
                                            conv_forward(&col, x, w, p, *in_h).expect("conv fwd"),
                                        );
                                    } else {
                                        std::hint::black_box(
                                            conv_backward(&col, x, w, &dys[l][i], p, *in_h)
                                                .expect("conv bwd"),
                                        );
                                    }
                                }
                            }
                        });
                        tr.count("words", stats.total_words() as f64);
                        (executed_transfer_secs(&stats), stats.total_words())
                    })
                };
                let ((ef, halo), tf) = world(format!("conv_forward {pd}x{pc}"), true);
                let ((eb, _), tb) = world(format!("conv_backward {pd}x{pc}"), false);
                fwd_s += tf;
                bwd_s += tb;
                rank_calls += (pd * pc * iters * convs.len()) as u64;
                out.halo_words += halo;
                executed += ef + eb;
                for l in &conv_layers {
                    let c = layer_cost(l, LayerParallelism::Domain { pd, pc }, b as f64, false);
                    closed += c.seconds(&machine) * iters as f64;
                }
            }
        });
        out.distmm_s = fwd_s + bwd_s;
        out.distmm_fwd_us = fwd_s / rank_calls as f64 * 1e6;
        out.distmm_bwd_us = bwd_s / rank_calls as f64 * 1e6;
        out.distmm_virt_comm_ratio = executed / closed;

        // collectives: the strip gather and the ∆W all-reduces.
        let (c0, h0, w0) = trunk.out;
        let ((), coll_s) = tr.span("collectives", "probe:collectives_replay", |tr| {
            for &(pd, pc) in &self.grids {
                tr.span("collectives", format!("rings {pd}x{pc}"), |_| {
                    World::run_with_stats(pd * pc, model, |comm| {
                        let i = comm.rank() / pc;
                        let (row, col) = comm.grid(pd, pc).expect("grid tiles the world");
                        let b_loc = b / pc;
                        for _ in 0..iters {
                            if pd > 1 {
                                let strip =
                                    vec![0.5; b_loc * c0 * part_range(h0, pd, i).len() * w0];
                                std::hint::black_box(
                                    allgatherv_ring(&col, &strip).expect("strip gather"),
                                );
                            }
                            for &(d_in, d_out) in trunk.fcs.iter().rev() {
                                let mut dw = vec![0.5; d_in * d_out];
                                allreduce(&row, &mut dw, ReduceOp::Sum).expect("fc dW");
                            }
                            for (p, _, _) in convs.iter().rev() {
                                let mut dw = vec![0.5; p.weight_count()];
                                allreduce(&col, &mut dw, ReduceOp::Sum).expect("conv dW strips");
                                allreduce(&row, &mut dw, ReduceOp::Sum).expect("conv dW batch");
                            }
                        }
                    });
                });
            }
        });
        out.collectives_s = coll_s;

        // tensor: every kernel call of the pass, per distinct shape.
        tr.span("tensor", "probe:tensor", |tr| {
            // (stage index, output rows or strip rows, b_loc) -> calls.
            let mut shapes: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
            let mut fc_calls: BTreeMap<usize, u64> = BTreeMap::new();
            for &(pd, pc) in &self.grids {
                let b_loc = b / pc;
                *fc_calls.entry(b_loc).or_insert(0) += (pd * pc * iters) as u64;
                for (s, (stage, _, h, w)) in trunk.stages.iter().enumerate() {
                    let split = match stage {
                        Stage::Conv(p) => p.out_hw(*h, *w).0,
                        Stage::Pool(p) => p.out_hw(*h, *w).0,
                        Stage::Lrn => *h,
                    };
                    for r in row_partition(split, pd) {
                        if !r.is_empty() {
                            *shapes.entry((s, r.len(), b_loc)).or_insert(0) += (pc * iters) as u64;
                        }
                    }
                }
            }
            for (&(s, rows, b_loc), &count) in &shapes {
                let (stage, c, _, w) = &trunk.stages[s];
                let (c, w) = (*c, *w);
                match stage {
                    Stage::Conv(p) => {
                        // The fetched window, vertically extended and
                        // horizontally padded, convolved without pad.
                        let local = Conv2dParams { pad: 0, ..*p };
                        let ext_h = (rows - 1) * p.stride + p.kh;
                        let x = uniform_tensor(b_loc, c, ext_h, w + 2 * p.pad, -1.0, 1.0, 7);
                        let wt = uniform(p.out_c, p.patch_len(), -0.1, 0.1, 7);
                        let dy = conv2d(&x, &wt, &local);
                        let work = 2.0 * p.weight_count() as f64 * (dy.len() / p.out_c) as f64;
                        tr.span("tensor", format!("conv2d stage{s} rows{rows}"), |tr| {
                            tr.count("calls", count as f64);
                            let secs = time_calls(count, || {
                                std::hint::black_box(conv2d(&x, &wt, &local));
                            });
                            out.conv_fwd.add(work * count as f64, secs);
                        });
                        tr.span(
                            "tensor",
                            format!("conv2d_backward stage{s} rows{rows}"),
                            |tr| {
                                tr.count("calls", count as f64);
                                let secs = time_calls(count, || {
                                    std::hint::black_box(conv2d_backward(&x, &wt, &dy, &local));
                                });
                                out.conv_bwd.add(2.0 * work * count as f64, secs);
                            },
                        );
                    }
                    Stage::Pool(p) => {
                        let win_h = (rows - 1) * p.stride + p.k;
                        let x = uniform_tensor(b_loc, c, win_h, w, -1.0, 1.0, 7);
                        let (y, argmax) = maxpool2d(&x, p);
                        tr.span("tensor", format!("maxpool2d stage{s} rows{rows}"), |tr| {
                            tr.count("calls", (2 * count) as f64);
                            out.other_tensor_s += time_calls(count, || {
                                std::hint::black_box(maxpool2d(&x, p));
                            }) + time_calls(count, || {
                                std::hint::black_box(maxpool2d_backward(&y, &argmax, win_h, w));
                            });
                        });
                    }
                    Stage::Lrn => {
                        let p = LrnParams::alexnet();
                        let x = uniform_tensor(b_loc, c, rows, w, -1.0, 1.0, 7);
                        tr.span("tensor", format!("lrn stage{s} rows{rows}"), |tr| {
                            tr.count("calls", (2 * count) as f64);
                            out.other_tensor_s += time_calls(count, || {
                                std::hint::black_box(lrn_forward(&x, &p));
                            }) + time_calls(count, || {
                                std::hint::black_box(lrn_backward(&x, &x, &p));
                            });
                        });
                    }
                }
            }
            // The replicated FC head.
            for (&b_loc, &count) in &fc_calls {
                for &(d_in, d_out) in &trunk.fcs {
                    out.replay_fc_gemms(tr, d_out, d_in, b_loc, count);
                }
            }
        });
        out.halo_host_us = (fwd_s - out.conv_fwd.secs).max(0.0) / rank_calls as f64 * 1e6;

        let (_, serial_s) = tr.span("core", "train_cnn_serial", |_| {
            train_cnn_serial(&self.net, &self.x, &self.labels, &self.cfg)
        });
        out.serial_s = serial_s * self.grids.len() as f64;
        out
    }
}
