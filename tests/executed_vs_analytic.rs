//! Cross-crate validation: the *executed* distributed algorithms on
//! the `mpsim` virtual cluster incur exactly the communication the
//! paper's closed forms charge (bandwidth terms; the paper substitutes
//! `⌈log P⌉` for ring latency, so latency is zeroed here and checked
//! separately against the Thakur-exact forms in `collectives`).

use integrated_parallelism::collectives::cost::{allreduce_exact, CostTerms};
use integrated_parallelism::distmm::dist::{col_shard, part_range, row_shard};
use integrated_parallelism::distmm::domain_general;
use std::borrow::Cow;

use integrated_parallelism::distmm::onep5d::{
    backward, backward_dw_deferred, dy_block, forward, Grid,
};
use integrated_parallelism::dnn::zoo::{mini_alexnet, mlp};
use integrated_parallelism::dnn::{LayerSpec, NetworkBuilder, Shape, WeightedLayer};
use integrated_parallelism::integrated::cnn::{synthetic_images, train_cnn_domain_traced};
use integrated_parallelism::integrated::cost::integrated::{
    integrated_full, integrated_model_batch, layer_cost,
};
use integrated_parallelism::integrated::cost::{pure_domain, CommCost};
use integrated_parallelism::integrated::overlap::{OverlapPlan, DEFAULT_BUCKET_WORDS};
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d, train_1p5d_scheduled, train_1p5d_scheduled_traced, TrainConfig,
};
use integrated_parallelism::integrated::{LayerParallelism, MachineModel};
use integrated_parallelism::mpsim::{EventKind, NetModel, TraceConfig, World};
use integrated_parallelism::tensor::conv::Conv2dParams;
use integrated_parallelism::tensor::init;
use integrated_parallelism::tensor::matmul::matmul_at_b;
use integrated_parallelism::tensor::pool::Pool2dParams;
use integrated_parallelism::tensor::Matrix;

/// A bandwidth-only machine: α = 0 so the executed ring latency and
/// the paper's `⌈log P⌉` latency both vanish.
fn bandwidth_only() -> (NetModel, MachineModel) {
    let machine = MachineModel {
        alpha: 0.0,
        bandwidth: 1e6,
        word_bytes: 1,
        flops: 1.0,
    };
    let mut net = machine.net_model();
    net.flops = f64::INFINITY; // isolate communication
    (net, machine)
}

/// Eq. 8's cost of the chain `layers`, `eq8` per layer, as the 1.5D path
/// runs it. Eq. 8 prices each `∆X` sum as an all-reduce over `Pr`, but the
/// layer below reads only its row block, so the executed sum is that
/// all-reduce's reduce-scatter half: half the words, in `log₂Pr` of its
/// `2·log₂Pr` α-steps. The top of a chain of two or more layers with
/// `d_out < 2·d_in` is input-split: the gather of its input and its `∆X`
/// sum are gone, and its output's gather is an all-reduce, twice the
/// gather's α-steps and words.
fn as_executed(layers: &[WeightedLayer], eq8: &[CommCost]) -> CommCost {
    let mut run = eq8.to_vec();
    for c in &mut run {
        c.dx_allreduce = c.dx_allreduce * 0.5;
    }
    let top = &layers[layers.len() - 1];
    if let ([.., below, top_cost], true) = (&mut run[..], top.d_out() < 2 * top.d_in()) {
        below.allgather = CostTerms::ZERO;
        top_cost.dx_allreduce = CostTerms::ZERO;
        top_cost.allgather = top_cost.allgather * 2.0;
    }
    run.into_iter().fold(CommCost::ZERO, |a, c| a + c)
}

#[test]
fn executed_1p5d_layer_matches_eq8_bandwidth() {
    // Dimensions chosen so every collective splits evenly (ring
    // all-reduce chunks, all-gather blocks) and the executed volume is
    // exactly the closed form.
    let (d_out, d_in, b) = (16usize, 12usize, 24usize);
    let (pr, pc) = (4usize, 6usize);
    let (sim, machine) = bandwidth_only();

    let w = init::xavier(d_out, d_in, 1);
    let x = init::uniform(d_in, b, -1.0, 1.0, 2);
    let dy = init::uniform(d_out, b, -1.0, 1.0, 3);

    let times = World::run(pr * pc, sim, |comm| {
        let grid = Grid::new(comm, pr, pc).unwrap();
        let wl = row_shard(&w, pr, grid.i);
        let xl = col_shard(&x, pc, grid.j);
        let dyl = col_shard(&dy, pc, grid.j);
        let _y = forward(&grid, &wl, &xl).unwrap();
        let (_dw, _dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
        comm.clock().comm
    });

    // The matching Eq. 8 per-layer cost (not the first layer, so the
    // ∆X sum is included), its ∆X sum run as the reduce-scatter.
    let net = NetworkBuilder::new("one-layer", Shape::flat(d_in))
        .layer(LayerSpec::FullyConnected { out: d_out })
        .build()
        .unwrap();
    let layers = net.weighted_layers();
    let eq8 = layer_cost(
        &layers[0],
        LayerParallelism::ModelBatch { pr, pc },
        b as f64,
        false,
    );
    let expect = as_executed(&layers, &[eq8]);
    let expect_secs = expect.total().words * machine.beta();
    for (r, &t) in times.iter().enumerate() {
        assert!(
            (t - expect_secs).abs() < 1e-12,
            "rank {r}: executed {t} vs Eq. 8 {expect_secs}"
        );
    }
}

/// One `train_1p5d` iteration of the benchmark's `alexnet-fc-exec`
/// (`[384, 256, 256, 10]`, B = 512) moves exactly Eq. 8's words on its
/// busiest rank as the 1.5D path runs it ([`as_executed`]): each ∆X sum
/// its reduce-scatter half, and only for layers 2..L, since nothing
/// reads the gradient of the network input ("we do not need to
/// backpropagate the gradient beyond the first layer"); the input-split
/// top gathers no input, sums no ∆X and all-reduces its logits. A trainer
/// that still summed layer 1's ∆X would be over by `(B/Pc)·(Pr−1)/Pr·384`
/// on every grid with `Pr > 1`, one whose ∆X sums were all-reduces by
/// `(B/Pc)·(Pr−1)/Pr·256` a layer, and one that split the top by its
/// rows by `(B/Pc)·(Pr−1)/Pr·(2·256 − 10)`.
///
/// On the free model every all-reduce runs recursive halving, whose
/// words are the ring's and Eq. 8's, and every gather over a
/// power-of-two `Pr` doubles. Every shard divides evenly on every grid
/// of P ∈ {8, 16} — the top's are `256/Pr` input columns, where a row
/// split cut its 10 rows raggedly for `Pr ≥ 4` — so the match is exact
/// on all nine.
#[test]
fn executed_fc_iteration_matches_eq8_words_on_the_busiest_rank() {
    let net = mlp("alexnet-fc-exec", &[384, 256, 256, 10]);
    let b = 512;
    let (x, labels) = synthetic_data(&net, b, 3);
    let cfg = TrainConfig {
        lr: 0.1,
        iters: 1,
        seed: 5,
    };
    let layers = net.weighted_layers();
    for (pr, pc) in [
        (1, 8),
        (2, 4),
        (4, 2),
        (8, 1),
        (1, 16),
        (2, 8),
        (4, 4),
        (8, 2),
        (16, 1),
    ] {
        let run = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::free());
        let busiest = run.stats.ranks.iter().map(|r| r.words_sent).max().unwrap() as f64;
        let eq8 = integrated_model_batch(&layers, b as f64, pr, pc).layers;
        let eq8: Vec<CommCost> = eq8.iter().map(|l| l.cost).collect();
        let executed = as_executed(&layers, &eq8).total().words;
        assert_eq!(busiest, executed, "grid {pr}x{pc}");
    }
}

/// The benchmark's `fc_1p5d` workload — `alexnet-fc-exec`, B = 512,
/// every power-of-two grid of P ∈ {8, 16}, the scheduled trainer under
/// the default plan on Cori KNL — spends on its busiest rank, blocking
/// and channel transfers together, at most 5 % more per iteration than
/// Eq. 8 charges: `core.eq8_ratio_max` ≤ 1.05. The rings' `2(P−1)`
/// α-steps put it at 1.281; the selected schedules pay Eq. 8's
/// `⌈log₂P⌉` steps or fewer.
#[test]
fn executed_fc_transfer_time_is_eq8s_within_five_percent() {
    let machine = MachineModel::cori_knl();
    let net = mlp("alexnet-fc-exec", &[384, 256, 256, 10]);
    let b = 512;
    let (x, labels) = synthetic_data(&net, b, 3);
    let cfg = TrainConfig {
        lr: 0.1,
        iters: 1,
        seed: 5,
    };
    let layers = net.weighted_layers();
    for p in [8usize, 16] {
        for pr in (0..=p.trailing_zeros()).map(|k| 1 << k) {
            let pc = p / pr;
            let plan = OverlapPlan::default();
            let model = machine.net_model();
            let run = train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, model, plan);
            let executed = (run.stats.ranks.iter())
                .map(|r| r.transfer_secs + r.channel_secs)
                .fold(0.0, f64::max);
            let eq8 = integrated_model_batch(&layers, b as f64, pr, pc).seconds(&machine);
            let ratio = executed / eq8;
            assert!(ratio <= 1.05, "grid {pr}x{pc}: {ratio} × Eq. 8");
        }
    }
}

/// FNV-1a over the bits of every weight of `ms`, in order.
fn fnv<'a>(ms: impl Iterator<Item = &'a Matrix>) -> u64 {
    let bytes = ms.flat_map(|m| m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 1.5D `∆X` sum is a reduce-scatter: each rank receives only the
/// rows of `∆Y` the layer below reads. On every grid of the benchmark's
/// `fc_1p5d` (`alexnet-fc-exec`, B = 512, two iterations of the scheduled
/// trainer on Cori KNL, every power-of-two grid of P ∈ {8, 16}):
///
/// * each rank's `∆X` of layers 2 and 3 — summed over `Pr` when split
///   by rows, as these are — is exactly
///   its row block of the serial `∆X` (on integer-valued operands, where
///   every summation order is exact);
/// * the busiest rank sends exactly the closed forms of what runs:
///   layer 1's output gathered, layer 2's `∆X` reduce-scattered
///   (`(Pr−1)/Pr·d_in·B/Pc`, half the all-reduce's words), the
///   input-split top's logits all-reduced, and the `∆W` buckets. On the
///   grids that split no shard raggedly when the sums were all-reduces
///   (`BEFORE`, its words then; `Pr ≤ 2`), that is `BEFORE`'s words less
///   half of layer 2's `∆X` all-reduce, all of the top's, the gather of
///   the top's input and the logits' gather, plus the logits' all-reduce;
/// * the makespan is below the one the all-reduces left (`BEFORE`),
///   and equal to it on `Pr = 1`, which sums no `∆X`; there the weights
///   are the bits they were while the top was split by its rows.
#[test]
fn executed_fc_dx_sum_is_a_reduce_scatter() {
    // Every rank's final weight shards on 1 × 8 and 1 × 16, recorded
    // while the top was split by its rows.
    const PR1: [u64; 2] = [0xa0e4_a067_bd00_6805, 0x7e79_ecd2_8fd0_e6e5];
    // ((Pr, Pc), makespan, busiest rank's words) with all-reduced ∆X.
    const BEFORE: [((usize, usize), f64, u64); 9] = [
        ((1, 8), 4.620878506666667e-4, 582_400),
        ((2, 4), 3.7033565866666674e-4, 447_488),
        ((4, 2), 5.355943253333332e-4, 677_376),
        ((8, 1), 1.0368169813333337e-3, 1_386_496),
        ((1, 16), 4.929105919999999e-4, 624_000),
        ((2, 8), 3.3810116266666653e-4, 390_144),
        ((4, 4), 3.7943449599999986e-4, 422_144),
        ((8, 2), 5.9220352e-4, 735_232),
        ((16, 1), 1.1168798720000003e-3, 1_485_824),
    ];
    let dims = [384, 256, 256, 10];
    let net = mlp("alexnet-fc-exec", &dims);
    let (b, iters) = (512, 2);
    let (x, labels) = synthetic_data(&net, b, 7);
    let cfg = TrainConfig {
        lr: 0.1,
        iters,
        seed: 18,
    };
    let model = MachineModel::cori_knl().net_model();
    // Small integers: every product and partial sum is exact.
    let ints = |rows: usize, cols: usize, seed: usize| {
        Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3 + seed) % 5) as f64 - 2.0)
    };
    for ((pr, pc), makespan, words) in BEFORE {
        let grid = format!("grid {pr}x{pc}");
        for (l, d) in dims.windows(2).enumerate().skip(1) {
            let (d_in, d_out) = (d[0], d[1]);
            let (w, dy) = (ints(d_out, d_in, l), ints(d_out, b, l + 1));
            let x = init::uniform(d_in, b, -1.0, 1.0, 2);
            let serial = matmul_at_b(&w, &dy);
            let blocks = World::run(pr * pc, model, |comm| {
                let g = Grid::new(comm, pr, pc).unwrap();
                let (wl, xl) = (row_shard(&w, pr, g.i), col_shard(&x, pc, g.j));
                let dy_i = dy_block(&g, Cow::Owned(col_shard(&dy, pc, g.j)));
                backward_dw_deferred(&g, &wl, &xl, &dy_i, None, false)
                    .unwrap()
                    .1
            });
            for (r, dx) in blocks.iter().enumerate() {
                let (rows, cols) = (part_range(d_in, pr, r / pc), part_range(b, pc, r % pc));
                let want = serial.col_block(cols.start, cols.end);
                let want = want.row_block(rows.start, rows.end);
                assert!(*dx == want, "{grid} layer {l} rank {r}: ∆X rows");
            }
        }
        let run = train_1p5d_scheduled(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            OverlapPlan::default(),
        );
        let busiest = run.stats.ranks.iter().map(|r| r.words_sent).max().unwrap();
        let half_dx = (pr - 1) * 256 * (b / pc) / pr;
        // What runs, per iteration: layer 1's output gathered and its ∆X
        // reduce-scattered, the input-split top's logits all-reduced, and
        // the ∆W buckets (filled top-down, launched at 8 192 words) summed
        // over the row group.
        let ar = |p: usize, n: usize| allreduce_exact(p, n as f64, &model).words as usize;
        let (frac, logits) = (|n: usize| (pr - 1) * n * (b / pc) / pr, 10 * b / pc);
        let (mut buckets, mut bucket) = (0, 0);
        for shard in [10 * 256 / pr, 256 * 256 / pr, 384 * 256 / pr] {
            bucket += shard;
            if bucket >= DEFAULT_BUCKET_WORDS {
                (buckets, bucket) = (buckets + ar(pc, bucket), 0);
            }
        }
        let iteration = frac(256) + frac(256) + ar(pr, logits) + buckets + ar(pc, bucket);
        assert_eq!(busiest, (iters * iteration) as u64, "{grid}: words");
        if pr <= 2 {
            // No shard was ragged then: the top's gather of its input and
            // its ∆X sum are gone, and its logits' gather is an all-reduce.
            let top = 3 * frac(256) + frac(10) - ar(pr, logits);
            assert_eq!(words - busiest, (iters * (half_dx + top)) as u64, "{grid}");
        }
        // Pr = 1 has no ∆X sum: its clock is the all-reduce's to the bit,
        // and its weights are the output-split top's (one column block is
        // the whole matrix).
        let now = run.stats.makespan();
        let faster = if pr == 1 {
            let digest = fnv(run.per_rank.iter().flat_map(|r| &r.weight_shards));
            assert_eq!(digest, PR1[pc / 16], "{grid}: weights");
            now == makespan
        } else {
            now < makespan
        };
        assert!(faster, "{grid}: makespan {now:e} vs {makespan:e}");
    }
}

/// Per rank and iteration, on every grid of the benchmark's `fc_1p5d`
/// with `Pr > 1`, the scheduled trainer runs `L − 2` activation gathers
/// and `L − 2` ∆X reduce-scatters — layer 1's output and layer 2's ∆X;
/// the input-split top takes its input as the row block layer 2 left it
/// and needs no ∆X sum — and one blocking all-reduce, the logits'.
/// Every other non-blocking launch is a ∆W bucket (none over `Pc = 1`).
#[test]
fn executed_fc_grids_gather_and_scatter_l_minus_2_times() {
    let net = mlp("alexnet-fc-exec", &[384, 256, 256, 10]);
    let (l, b, iters) = (3, 512, 2);
    let (x, labels) = synthetic_data(&net, b, 7);
    let cfg = TrainConfig {
        lr: 0.1,
        iters,
        seed: 18,
    };
    let model = MachineModel::cori_knl().net_model();
    for (pr, pc) in [(2, 4), (4, 2), (8, 1), (2, 8), (4, 4), (8, 2), (16, 1)] {
        let (run, trace) = train_1p5d_scheduled_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::enabled(),
            OverlapPlan::default(),
        );
        let ranks_iters = (pr * pc * iters) as u64;
        let flushes: usize = (trace.ranks.iter())
            .map(|r| r.instant_count("sched", "bucket_flush"))
            .sum();
        let buckets = if pc > 1 { flushes as u64 } else { 0 };
        let (ar, ag, nb_ar, nb_ag) = run.stats.total_collective_calls();
        let grid = format!("grid {pr}x{pc}");
        assert_eq!(ag, ranks_iters * (l - 2), "{grid}: gathers");
        assert_eq!(
            nb_ar - buckets,
            ranks_iters * (l - 2),
            "{grid}: reduce-scatters"
        );
        assert_eq!((ar, nb_ag), (ranks_iters, 0), "{grid}: the logits' sum");
    }
}

#[test]
fn executed_pure_batch_and_model_match_eq8_degenerations() {
    let (d_out, d_in, b) = (16usize, 8usize, 16usize);
    let (sim, machine) = bandwidth_only();
    let w = init::xavier(d_out, d_in, 1);
    let x = init::uniform(d_in, b, -1.0, 1.0, 2);
    let dy = init::uniform(d_out, b, -1.0, 1.0, 3);

    let net = NetworkBuilder::new("one-layer", Shape::flat(d_in))
        .layer(LayerSpec::FullyConnected { out: d_out })
        .build()
        .unwrap();
    let layers = net.weighted_layers();

    for (pr, pc) in [(1usize, 8usize), (8, 1)] {
        let times = World::run(pr * pc, sim, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&w, pr, grid.i);
            let xl = col_shard(&x, pc, grid.j);
            let dyl = col_shard(&dy, pc, grid.j);
            let _y = forward(&grid, &wl, &xl).unwrap();
            let (_dw, _dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            comm.clock().comm
        });
        let eq8 = layer_cost(
            &layers[0],
            LayerParallelism::ModelBatch { pr, pc },
            b as f64,
            false,
        );
        let expect = as_executed(&layers, &[eq8]);
        let expect_secs = expect.total().words * machine.beta();
        for &t in &times {
            assert!(
                (t - expect_secs).abs() < 1e-12,
                "grid {pr}x{pc}: executed {t} vs analytic {expect_secs}"
            );
        }
    }
}

#[test]
fn executed_halo_forward_matches_eq7_term() {
    // An interior rank's exposed forward-halo time equals Eq. 7's
    // `α + β·B·X_W·X_C·⌊kh/2⌋` when nothing overlaps it.
    let params = Conv2dParams {
        in_c: 3,
        out_c: 4,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let (b, h, w) = (4usize, 16usize, 5usize);
    let machine = MachineModel {
        alpha: 1e-3,
        bandwidth: 1e6,
        word_bytes: 1,
        flops: 1.0,
    };
    let mut sim = machine.net_model();
    sim.flops = f64::INFINITY; // no interior compute to hide the halo
    let p_ranks = 4;

    let x = init::uniform_tensor(b, 3, h, w, -1.0, 1.0, 5);
    let wts = init::uniform(4, params.patch_len(), -0.5, 0.5, 6);
    let times = World::run(p_ranks, sim, |comm| {
        let rng = part_range(h, p_ranks, comm.rank());
        let strip = x.row_strip(rng.start, rng.end);
        let _ = domain_general::conv_forward(comm, &strip, &wts, &params, h).unwrap();
        comm.clock().comm
    });

    // Eq. 7 forward halo volume for this layer.
    let volume = (b * w * 3) as f64 * (params.kh / 2) as f64;
    let expect = machine.alpha + volume * machine.beta();
    for (r, &t) in times.iter().enumerate() {
        if r > 0 && r + 1 < p_ranks {
            assert!(
                (t - expect).abs() < 1e-12,
                "interior rank {r}: {t} vs Eq. 7 term {expect}"
            );
        } else {
            // Boundary ranks exchange with one neighbour only; the two
            // directions overlap, so the time is still one transfer.
            assert!(t <= expect + 1e-12, "boundary rank {r}: {t}");
        }
    }
}

#[test]
fn executed_halo_backward_matches_eq7_term() {
    // Eq. 7 prices two one-way halos per convolution, `X` forward and
    // `∆Y` backward. On mini_alexnet's conv2–5 (stride 1, same padding)
    // split over three strips, the backward as the trainer runs it — the
    // ∆X half, with the ∆W half formed from the input rows the forward
    // kept while its ∆Y window is in flight — sends nothing for ∆W and runs one row exchange, the `∆Y` window,
    // and scatters nothing back: the whole backward is the `∆Y` fetch,
    // which receives Eq. 7's backward term, `B·Y_W·Y_C·⌊k/2⌋` words, from
    // each neighbour.
    let net = mini_alexnet();
    let (b, pd) = (2usize, 3usize);
    for l in net.weighted_layers().iter().filter(|l| l.is_conv()).skip(1) {
        let (kh, kw) = l.halo_kernel();
        let (x_shape, y_shape) = (l.in_shape, l.out_shape);
        let p = Conv2dParams {
            in_c: x_shape.c,
            out_c: y_shape.c,
            kh,
            kw,
            stride: 1,
            pad: kh / 2,
        };
        assert_eq!(p.out_hw(x_shape.h, x_shape.w), (y_shape.h, y_shape.w));
        let x = init::uniform_tensor(b, p.in_c, x_shape.h, x_shape.w, -1.0, 1.0, 3);
        let dy = init::uniform_tensor(b, p.out_c, y_shape.h, y_shape.w, -1.0, 1.0, 4);
        let wts = init::uniform(p.out_c, p.patch_len(), -0.5, 0.5, 5);
        // What each rank sends in the forward and in the backward, by
        // which halves of the backward run: the ∆W half, the ∆X half, or
        // both.
        let run = |dw: bool, dx: bool| {
            World::run(pd, NetModel::free(), |comm| {
                let ip = part_range(x_shape.h, pd, comm.rank());
                let op = part_range(y_shape.h, pd, comm.rank());
                let (xs, dys) = (
                    x.row_strip(ip.start, ip.end),
                    dy.row_strip(op.start, op.end),
                );
                let sent = || {
                    let s = comm.stats();
                    (s.msgs_sent, s.words_sent)
                };
                let (_, halo) =
                    domain_general::conv_forward_halo(comm, &xs, &wts, &p, x_shape.h).unwrap();
                let forward = sent();
                let weights_half = || {
                    if dw {
                        let _ = domain_general::conv_backward_partial(
                            comm, &xs, halo, &wts, &dys, &p, x_shape.h,
                        );
                    }
                };
                if dx {
                    let (h, w) = (x_shape.h, x_shape.w);
                    domain_general::conv_backward_data(comm, &wts, &dys, &p, h, w, weights_half)
                        .unwrap();
                } else {
                    weights_half();
                }
                let all = sent();
                (forward, (all.0 - forward.0, all.1 - forward.1))
            })
        };
        let (weights_half, data_half, both) = (run(true, false), run(false, true), run(true, true));
        let fwd = (b * x_shape.w * x_shape.c * (kh / 2)) as u64;
        let bwd = (b * y_shape.w * y_shape.c * (kw / 2)) as u64;
        let eq7 = layer_cost(l, LayerParallelism::Domain { pd, pc: 1 }, b as f64, false).halo;
        assert_eq!(
            (eq7.alpha, eq7.words),
            (2.0, (fwd + bwd) as f64),
            "{}",
            l.name
        );
        // The X window, fetched once: in the forward.
        assert_eq!(both[1].0, (2, 2 * fwd), "{}: the X window", l.name);
        // The ∆Y fetch: each neighbour sends the interior rank one
        // message of Eq. 7's backward term, and nothing to anyone else.
        for r in [0, 2] {
            assert_eq!(
                data_half[r].1,
                (1, bwd),
                "{}: ∆Y rows from rank {r}",
                l.name
            );
        }
        assert_eq!(data_half[1].1, (2, 2 * bwd), "{}: the ∆Y window", l.name);
        for r in 0..pd {
            assert_eq!(
                weights_half[r].1,
                (0, 0),
                "{} rank {r}: ∆W sends nothing",
                l.name
            );
            assert_eq!(
                both[r].1, data_half[r].1,
                "{} rank {r}: the backward is the ∆Y fetch alone",
                l.name
            );
        }
    }
}

/// A convolution moves the two windows Eq. 7 prices and no third, in
/// the trainer as in the layer test above, and a batch crosses the end
/// of the domain prefix once each way. Per iteration every rank of
/// `train_cnn_domain` runs one fetch per convolution and pool forward
/// (its input window) and one per pool and convolution above conv1
/// backward (the `∆Y` window; a pool's carries its argmax as `C` more
/// channels), and no other: the `∆W` half re-frames the forward's halo.
/// The prefix ends in front of the first convolution or pool whose
/// input's strips, `⌊in_h / Pd⌋` rows, are shorter than its kernel (on
/// `mini_alexnet` conv2 at every `Pd ≥ 2`: 7-row input, 5-row kernel),
/// or at the end of the trunk. There one relayout hands the column group
/// whole images, and one carries `∆X` back to strips; past it each
/// stage's fetch runs on a one-rank group. Read off each rank's
/// `distmm/fetch_rows` and `distmm/relayout` spans, in order, by name
/// and by the channels each moved (the span's `c`), on 1×4, 2×4, 4×4
/// and 4×2.
#[test]
fn executed_cnn_iteration_fetches_each_window_once() {
    let net = mini_alexnet();
    let (x, labels) = synthetic_images(&net, 8, 5);
    let iters = 2;
    let cfg = TrainConfig {
        lr: 0.02,
        iters,
        seed: 9,
    };
    // One iteration's moves over `pd` strips: the forward in layer
    // order, then the backward down to the first convolution.
    let iteration = |pd: usize| -> Vec<(&str, f64)> {
        // The prefix's end: the first stage whose strips miss a kernel,
        // or the head.
        let boundary = net
            .layers()
            .position(|(spec, i, _)| match spec {
                LayerSpec::Conv { kh: k, .. } | LayerSpec::MaxPool { k, .. } => i.h / pd < *k,
                LayerSpec::FullyConnected { .. } => true,
                _ => false,
            })
            .expect("a head");
        let (mut forward, mut backward, mut above_conv1) = (Vec::new(), Vec::new(), false);
        for (n, (spec, i, o)) in net.layers().enumerate() {
            if n == boundary {
                forward.push(("relayout", i.c));
                backward.push(("relayout", i.c));
            }
            let pool = match spec {
                LayerSpec::Conv { .. } => false,
                LayerSpec::MaxPool { .. } => true,
                _ => continue,
            };
            forward.push(("fetch_rows", i.c));
            if above_conv1 {
                backward.push(("fetch_rows", o.c << usize::from(pool)));
            }
            above_conv1 = true;
        }
        (forward.into_iter())
            .chain(backward.into_iter().rev())
            .map(|(name, c)| (name, c as f64))
            .collect()
    };
    for (pd, pc) in [(1, 4), (2, 4), (4, 4), (4, 2)] {
        let expect = iteration(pd).repeat(iters);
        let (run, trace) = train_cnn_domain_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pd,
            pc,
            NetModel::cori_knl(),
            TraceConfig::enabled(),
        );
        assert!(run.replica_divergence() == 0.0, "grid {pd}x{pc}");
        for rank in &trace.ranks {
            assert_eq!(rank.dropped, 0, "grid {pd}x{pc}: the whole trace kept");
            let moved: Vec<(&str, f64)> = (rank.events.iter())
                .filter(|ev| {
                    (ev.cat, ev.kind) == ("distmm", EventKind::Span)
                        && ["fetch_rows", "relayout"].contains(&ev.name)
                })
                .map(|ev| (ev.name, ev.arg("c").expect("annotated")))
                .collect();
            assert_eq!(moved, expect, "grid {pd}x{pc} rank {}", rank.rank);
        }
        if pd > 1 {
            let at = |name| expect.iter().position(|m| m.0 == name);
            assert_eq!(
                at("relayout"),
                Some(2),
                "grid {pd}x{pc}: conv1 and pool1 fetch on strips, conv2 on whole images"
            );
        }
    }
}

/// Max-pooling's `∆X` is a gather too. On `mini_alexnet`'s two 3×3/2
/// pools over 2, 3 and 4 strips, a rank's pool backward sends each
/// neighbour the `∆Y` rows whose windows touch that neighbour's `∆X`
/// rows, each with its argmax in the same message — `2·B·Y_W·Y_C` words
/// a row, 1 792 for pool1 and 1 152 for pool2 at `B = 16` — and no `∆X`
/// row (1 920 and 1 344 words).
#[test]
fn executed_pool_backward_is_one_fetch() {
    let net = mini_alexnet();
    let b = 16usize;
    let pools = net.layers().filter_map(|(spec, x, y)| match *spec {
        LayerSpec::MaxPool { k, stride } => Some((Pool2dParams { k, stride }, x, y)),
        _ => None,
    });
    for (p, x_shape, y_shape) in pools {
        let (in_h, c) = (x_shape.h, x_shape.c);
        let x = init::uniform_tensor(b, c, in_h, x_shape.w, -1.0, 1.0, 11);
        let dy = init::uniform_tensor(b, c, y_shape.h, y_shape.w, -1.0, 1.0, 12);
        // The ∆Y rows whose windows touch a block of ∆X rows.
        let reads = |rows: &std::ops::Range<usize>| {
            (0..y_shape.h)
                .filter(|oy| oy * p.stride < rows.end && oy * p.stride + p.k > rows.start)
                .collect::<Vec<_>>()
        };
        let row_words = (2 * b * y_shape.w * c) as u64;
        for pd in [2, 3, 4] {
            let sent = World::run(pd, NetModel::free(), |comm| {
                let (ip, op) = (
                    part_range(in_h, pd, comm.rank()),
                    part_range(y_shape.h, pd, comm.rank()),
                );
                let xs = x.row_strip(ip.start, ip.end);
                let (_, argmax) = domain_general::pool_forward(comm, &xs, &p, in_h).unwrap();
                let dys = dy.row_strip(op.start, op.end);
                let before = comm.stats();
                domain_general::pool_backward(comm, &dys, &argmax, &p, in_h, x_shape.w).unwrap();
                let after = comm.stats();
                (
                    after.msgs_sent - before.msgs_sent,
                    after.words_sent - before.words_sent,
                )
            });
            for (r, &got) in sent.iter().enumerate() {
                let mine = part_range(y_shape.h, pd, r);
                let rows_to = |q| match part_range(in_h, pd, q) {
                    rows if rows.is_empty() => 0,
                    rows => reads(&rows).iter().filter(|oy| mine.contains(oy)).count(),
                };
                let rows: Vec<_> = (0..pd).filter(|&q| q != r).map(rows_to).collect();
                let msgs = rows.iter().filter(|&&n| n > 0).count() as u64;
                let words = rows.iter().sum::<usize>() as u64 * row_words;
                assert_eq!(got, (msgs, words), "{p:?} over {pd} strips, rank {r}");
            }
        }
    }
}

#[test]
fn executed_domain_backward_weight_allreduce_matches_eq7_batch_term() {
    // With a 1x1 kernel the halo vanishes and domain backward's only
    // collective is the ∆W ring all-reduce — Eq. 7's third sum.
    let params = Conv2dParams {
        in_c: 4,
        out_c: 4,
        kh: 1,
        kw: 1,
        stride: 1,
        pad: 0,
    };
    let (b, h, w) = (2usize, 8usize, 4usize);
    let (sim, machine) = bandwidth_only();
    let p_ranks = 4;

    let x = init::uniform_tensor(b, 4, h, w, -1.0, 1.0, 7);
    let wts = init::uniform(4, params.patch_len(), -0.5, 0.5, 8);
    let dy = init::uniform_tensor(b, 4, h, w, -1.0, 1.0, 9);
    let times = World::run(p_ranks, sim, |comm| {
        let rng = part_range(h, p_ranks, comm.rank());
        let _ = domain_general::conv_backward(
            comm,
            &x.row_strip(rng.start, rng.end),
            &wts,
            &dy.row_strip(rng.start, rng.end),
            &params,
            h,
        )
        .unwrap();
        comm.clock().comm
    });

    let net = NetworkBuilder::new("one-conv", Shape::new(4, h, w))
        .layer(LayerSpec::Conv {
            out_c: 4,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        })
        .build()
        .unwrap();
    let layers = net.weighted_layers();
    let analytic = pure_domain(&layers, b as f64, p_ranks);
    let expect = analytic.total.dw_allreduce.words * machine.beta();
    for &t in &times {
        assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
    }
}

/// Eq. 9 prices every layer's `∆W` sum on `mini_alexnet` as one
/// all-reduce over all `P = Pd·Pc` ranks at full `|W|` — `2|W|(P−1)/P`
/// words a rank, recursive halving's — under the assignment the trainer
/// runs: conv1 on strips (`Domain { pd, pc }`), and conv2–5 and the FC
/// head on whole images over the world (`ModelBatch { pr: 1, pc: P }`),
/// since no strip of conv2's 7-row input holds its 5-row kernel at
/// `Pd ≥ 2`. The trainer sums every conv layer's partial `∆W` in one
/// bucket over the whole grid (9 336 words) and the head's in its own
/// buckets over the same world (3 776), so each rank launches every
/// layer's `|W|` in world sums. Summing per layer in two stages (one
/// all-reduce over the `Pd` strips, one over the `Pc` batch shards)
/// would send `2|W|((Pd−1)/Pd + (Pc−1)/Pc)` or, by recursive doubling,
/// more.
///
/// Under `cori_knl` the conv bucket runs halving and sends exactly
/// Eq. 9's conv term. The head's buckets are α-bound there and run
/// recursive doubling (`log₂P` steps of the whole bucket): they send
/// `allreduce_exact`'s words, which exceed Eq. 9's head term (by 4 720
/// words a rank on 8 ranks, 8 024 on 16). On a bandwidth-only machine
/// every sum runs halving and the words sent are `integrated_full`'s
/// `∆W` words to the word.
///
/// The words are counted where they travel: every channel transfer a
/// rank receives while the last non-blocking sum it launched spans the
/// whole grid is charged to that sum (the conv bucket by its size; every step of the head's sums is issued
/// before the conv bucket is launched), and is a word its peer sent in
/// that reduction.
#[test]
fn executed_conv_dw_words_are_eq9s_one_world_allreduce() {
    let net = mini_alexnet();
    let b = 8;
    let (x, labels) = synthetic_images(&net, b, 5);
    let iters = 2;
    let cfg = TrainConfig {
        lr: 0.02,
        iters,
        seed: 9,
    };
    let layers = net.weighted_layers();
    let words = |conv: bool| -> usize {
        (layers.iter())
            .filter(|l| l.is_conv() == conv)
            .map(|l| l.weights)
            .sum()
    };
    let (conv_words, head_words) = (words(true), words(false));
    let per_iter = |v: f64| v / iters as f64;
    for (pd, pc) in [(2, 4), (4, 2), (4, 4)] {
        let p = pd * pc;
        let assign: Vec<_> = (0..layers.len())
            .map(|k| match k {
                0 => LayerParallelism::Domain { pd, pc },
                _ => LayerParallelism::ModelBatch { pr: 1, pc: p },
            })
            .collect();
        let eq9 = |conv: bool| -> f64 {
            (layers.iter().zip(&assign))
                .filter(|(l, _)| l.is_conv() == conv)
                .map(|(l, &a)| layer_cost(l, a, b as f64, false).dw_allreduce.words)
                .sum()
        };
        let (eq9_conv, eq9_head) = (eq9(true), eq9(false));
        assert_eq!(
            eq9_conv + eq9_head,
            integrated_full(&layers, &assign, b as f64)
                .total
                .dw_allreduce
                .words,
            "grid {pd}x{pc}: Eq. 9's ∆W words, layer by layer"
        );
        for (machine, model) in [
            ("cori_knl", NetModel::cori_knl()),
            ("bandwidth-only", bandwidth_only().0),
        ] {
            let grid = format!("{machine} {pd}x{pc}");
            let (run, trace) = train_cnn_domain_traced(
                &net,
                &x,
                &labels,
                &cfg,
                pd,
                pc,
                model,
                TraceConfig::enabled(),
            );
            assert!(run.replica_divergence() == 0.0, "{grid}");
            // Per rank, [conv, head]: words launched, words sent, and the
            // words the schedule each launch picks sends.
            let (mut launched, mut sent, mut priced) =
                (vec![[0.0; 2]; p], vec![[0.0; 2]; p], vec![[0.0; 2]; p]);
            for rank in &trace.ranks {
                assert_eq!(rank.dropped, 0, "{grid}: the whole trace kept");
                let mut bucket = None;
                for ev in &rank.events {
                    let arg = |k| ev.arg(k).expect("annotated");
                    match (ev.cat, ev.name, ev.kind) {
                        ("nb", "iallreduce_launch", EventKind::Instant) => {
                            let n = arg("words");
                            bucket = (arg("p") == p as f64)
                                .then_some(usize::from(n != conv_words as f64));
                            if let Some(k) = bucket {
                                launched[rank.rank][k] += n;
                                priced[rank.rank][k] += allreduce_exact(p, n, &model).words;
                            }
                        }
                        ("channel", "xfer", EventKind::Span) => {
                            if let Some(k) = bucket {
                                sent[arg("peer") as usize][k] += arg("words");
                            }
                        }
                        _ => {}
                    }
                }
            }
            for r in 0..p {
                let [launched, sent, priced] =
                    [launched[r], sent[r], priced[r]].map(|v| v.map(per_iter));
                assert_eq!(
                    launched,
                    [conv_words as f64, head_words as f64],
                    "{grid} rank {r}: every ∆W word in a world sum"
                );
                assert_eq!(
                    sent[0], eq9_conv,
                    "{grid} rank {r}: conv ∆W words sent against Eq. 9"
                );
                assert_eq!(
                    sent[1], priced[1],
                    "{grid} rank {r}: head ∆W words sent against the schedule run"
                );
                // Recursive doubling's excess over Eq. 9's halving words.
                let excess = match (machine, p) {
                    ("cori_knl", 8) => 4_720.0,
                    ("cori_knl", _) => 8_024.0,
                    _ => 0.0,
                };
                assert_eq!(
                    sent[1] - eq9_head,
                    excess,
                    "{grid} rank {r}: head ∆W words sent against Eq. 9"
                );
            }
        }
    }
}

/// The CNN backward runs its sums under the trunk backward (Fig. 8,
/// run). At `cnn_domain`'s shapes (`mini_alexnet`, `B = 64`, two
/// iterations) on 2×4, 4×4 and 4×2, on every rank and in every
/// iteration:
///
/// * the FC head's `∆W` sum is issued before the trunk backward and
///   drained in the first `optimizer_step` of the iteration, one bucket
///   with words on the channel. Conv2–5 run on whole images past the
///   domain prefix, so the trunk backward under it is short, and the sum
///   spans all `P` ranks: it is only partly hidden, and rank 0's drain
///   waits 4.0, 11.1 and 3.6 µs of 13.6, 18.1 and 13.6 µs charged;
/// * conv2–5's `∆W` GEMMs run inside their `∆Y` fetch: a compute span of
///   exactly the layer's `∆W` flops, on this rank's whole images, nests
///   in that layer's backward `fetch_rows` span. Past the prefix that
///   fetch runs on a one-rank group, so nothing is in flight under it;
/// * each grid's makespan is below the one it had when the head's sum
///   was waited before the trunk backward began and each `∆W` was formed
///   before its `∆Y` fetch (`BEFORE`).
#[test]
fn executed_cnn_backward_hides_the_head_sum_and_each_dw_gemm() {
    const BEFORE: [((usize, usize), f64); 3] = [
        ((2, 4), 1.5277523199999995e-4),
        ((4, 4), 1.6845838933333333e-4),
        ((4, 2), 1.8491411199999988e-4),
    ];
    let net = mini_alexnet();
    let b = 64;
    let (x, labels) = synthetic_images(&net, b, 7);
    let iters = 2;
    let cfg = TrainConfig {
        lr: 0.05,
        iters,
        seed: 18,
    };
    // One iteration's fetches: the forward's, one per conv and pool,
    // then the backward's above conv1, last layer first — a conv's as
    // `Some((|W|, Y_H, Y_W))`, a pool's as `None`.
    let (mut forward, mut backward, mut above_conv1) = (0, Vec::new(), false);
    for (spec, i, o) in net.layers() {
        let conv = match spec {
            LayerSpec::Conv { .. } => Some(spec.weight_count(i)),
            LayerSpec::MaxPool { .. } => None,
            _ => continue,
        };
        forward += 1;
        if above_conv1 {
            backward.push(conv.map(|w| (w, o.h, o.w)));
        }
        above_conv1 |= conv.is_some();
    }
    backward.reverse();
    let per_iter = forward + backward.len();
    for ((pd, pc), before) in BEFORE {
        let (run, trace) = train_cnn_domain_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pd,
            pc,
            MachineModel::cori_knl().net_model(),
            TraceConfig::enabled(),
        );
        let grid = format!("grid {pd}x{pc}");
        assert!(run.replica_divergence() == 0.0, "{grid}");
        let makespan = run.stats.makespan();
        assert!(
            makespan < before,
            "{grid}: makespan {makespan:e} vs {before:e}"
        );
        for rank in &trace.ranks {
            let r = rank.rank;
            assert_eq!(rank.dropped, 0, "{grid}: the whole trace kept");
            let ev = &rank.events;
            // Guard spans are recorded when they close: a span's
            // children are the deeper events right before it.
            let children = |at: usize| {
                let depth = ev[at].depth;
                ev[..at].iter().rev().take_while(move |e| e.depth > depth)
            };
            let spans = |cat, name| {
                (0..ev.len()).filter(move |&k| {
                    (ev[k].cat, ev[k].name, ev[k].kind) == (cat, name, EventKind::Span)
                })
            };
            let steps: Vec<usize> = spans("trainer", "optimizer_step").collect();
            assert_eq!(
                steps.len(),
                2 * iters,
                "{grid} rank {r}: the head's step, then the trunk's"
            );
            for &head in steps.iter().step_by(2) {
                let drains: Vec<_> = children(head).filter(|e| e.cat == "drain").collect();
                assert_eq!(drains.len(), 1, "{grid} rank {r}: one head bucket");
                assert!(
                    drains[0].arg("charged") > Some(0.0),
                    "{grid} rank {r}: a head sum on the channel"
                );
            }
            let fetches: Vec<usize> = spans("distmm", "fetch_rows").collect();
            assert_eq!(fetches.len(), per_iter * iters, "{grid} rank {r}");
            // Past the prefix rank (i, j) holds these images of batch
            // shard j whole.
            let (i, j) = (r / pc, r % pc);
            let images = part_range(part_range(b, pc, j).len(), pd, i).len();
            for (k, &at) in fetches.iter().enumerate() {
                let Some(&Some((w, y_h, y_w))) =
                    (k % per_iter).checked_sub(forward).map(|n| &backward[n])
                else {
                    continue;
                };
                let dw_flops = (2 * w * y_w * images * y_h) as f64;
                let fetch = &ev[at];
                let in_flight = children(at).any(|e| {
                    e.cat == "compute"
                        && e.arg("flops") == Some(dw_flops)
                        && fetch.t0 <= e.t0
                        && e.t1 <= fetch.t1
                });
                assert!(
                    in_flight,
                    "{grid} rank {r} fetch {k}: ∆W ({dw_flops} flops) in flight"
                );
            }
        }
    }
}

#[test]
fn single_straggler_link_inflates_ring_allreduce_by_exactly_the_delay() {
    use integrated_parallelism::collectives::ring::allreduce_ring;
    use integrated_parallelism::collectives::ReduceOp;
    use integrated_parallelism::mpsim::{FaultPlan, Span};

    // Bandwidth-only, evenly dividing blocks: the fault-free ring
    // all-reduce runs in perfect lockstep with zero slack, so a single
    // delayed message cannot be absorbed — it must shift every rank's
    // completion by exactly the injected delay.
    let (sim, _machine) = bandwidth_only();
    let p = 6usize;
    let n = 24usize;
    let run = |plan: FaultPlan| {
        World::run_with_faults(p, sim, plan, |comm| {
            let mut data = vec![(comm.rank() + 1) as f64; n];
            allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
            (data, comm.now())
        })
    };
    let (clean, _) = run(FaultPlan::default());

    let delay = 0.375;
    let plan = FaultPlan::new(1).straggle(2, 3, delay, 0.0, Span::Once(0));
    let (slow, stats) = run(plan);

    for (r, ((dc, tc), (ds, ts))) in clean.iter().zip(&slow).enumerate() {
        assert_eq!(dc, ds, "rank {r}: numbers unaffected by the straggler");
        let inflation = ts - tc;
        assert!(
            (inflation - delay).abs() < 1e-12,
            "rank {r}: inflated by {inflation}, injected {delay}"
        );
    }
    // The injected wait is attributed to the receiving rank's stats.
    assert!((stats.total_straggler_wait() - delay).abs() < 1e-12);
    assert!((stats.ranks[3].straggler_wait - delay).abs() < 1e-12);
}
