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
use integrated_parallelism::dnn::{LayerSpec, NetworkBuilder, Shape};
use integrated_parallelism::integrated::cnn::{synthetic_images, train_cnn_domain_traced, CnnSpec};
use integrated_parallelism::integrated::cost::integrated::{
    integrated_full, integrated_model_batch, layer_cost,
};
use integrated_parallelism::integrated::cost::pure_domain;
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::plan::{plan, Collective};
use integrated_parallelism::integrated::trainer::{
    extract_fc_layers, synthetic_data, train_1p5d, train_1p5d_scheduled, FcLayer, TrainConfig,
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

/// What the collectives `ran` cost a rank under `model`, each priced by
/// the closed form of the schedule that runs it ([`Collective::cost`]).
fn priced(ran: &[Collective], model: &NetModel) -> CostTerms {
    ran.iter().map(|c| c.cost(model)).sum()
}

/// The most words any rank's plan ([`plan`]) sends in one iteration of
/// the chain `layers` with batch `b` on the `pr × pc` grid, scheduled
/// under `model` or blocking, each collective priced under `price`.
fn planned_busiest(
    layers: &[FcLayer],
    b: usize,
    (pr, pc): (usize, usize),
    model: Option<&NetModel>,
    price: &NetModel,
) -> f64 {
    let ran = |r| {
        priced(
            &plan(layers, b, &[(pr, pc)], r, false, model).collectives,
            price,
        )
    };
    (0..pr * pc).map(|r| ran(r).words).fold(0.0, f64::max)
}

/// One `d_out × d_in` layer's forward and backward with batch `b`, as
/// `distmm` runs them on each of `grids` on a bandwidth-only machine,
/// take each rank exactly the time of its plan's words ([`plan`]: the
/// layer with its ∆X formed, less the gather that hands a trunk the
/// full-depth ∆X, which `backward` leaves to its caller): Eq. 8's gather
/// and ∆W all-reduce, and the ∆X sum as the reduce-scatter half of Eq. 8's
/// all-reduce.
fn one_layer_runs_its_plan((d_out, d_in, b): (usize, usize, usize), grids: &[(usize, usize)]) {
    let (sim, machine) = bandwidth_only();
    let w = init::xavier(d_out, d_in, 1);
    let x = init::uniform(d_in, b, -1.0, 1.0, 2);
    let dy = init::uniform(d_out, b, -1.0, 1.0, 3);
    let net = NetworkBuilder::new("one-layer", Shape::flat(d_in))
        .layer(LayerSpec::FullyConnected { out: d_out })
        .build()
        .unwrap();
    for &(pr, pc) in grids {
        let times = World::run(pr * pc, sim, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&w, pr, grid.i);
            let xl = col_shard(&x, pc, grid.j);
            let dyl = col_shard(&dy, pc, grid.j);
            let _y = forward(&grid, &wl, &xl).unwrap();
            let (_dw, _dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            comm.clock().comm
        });
        for (r, &t) in times.iter().enumerate() {
            let plan = plan(&extract_fc_layers(&net), b, &[(pr, pc)], r, true, None);
            let ran = &plan.collectives[..plan.collectives.len() - 1];
            let expect = priced(ran, &sim).words * machine.beta();
            assert!(
                (t - expect).abs() < 1e-12,
                "grid {pr}x{pc} rank {r}: executed {t} vs the plan {expect}"
            );
        }
    }
}

#[test]
fn executed_1p5d_layer_matches_eq8_bandwidth() {
    // Dimensions chosen so every collective splits evenly (ring
    // all-reduce chunks, all-gather blocks) and the executed volume is
    // exactly the closed form.
    one_layer_runs_its_plan((16, 12, 24), &[(4, 6)]);
}

/// One `train_1p5d` iteration of the benchmark's `alexnet-fc-exec`
/// (`[384, 256, 256, 10]`, B = 512) moves exactly the words of its plan
/// ([`plan`]) on its busiest rank, each collective priced by the schedule
/// that runs it: each ∆X sum Eq. 8's all-reduce's reduce-scatter half,
/// and only for layers 2..L, since nothing reads the gradient of the
/// network input ("we do not need to backpropagate the gradient beyond
/// the first layer"); the input-split top gathers no input, sums no ∆X
/// and all-reduces its logits.
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
    let (layers, free) = (extract_fc_layers(&net), NetModel::free());
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
        let run = train_1p5d(&net, &x, &labels, &cfg, pr, pc, free);
        let busiest = run.stats.ranks.iter().map(|r| r.words_sent).max().unwrap() as f64;
        let planned = planned_busiest(&layers, b, (pr, pc), None, &free);
        assert_eq!(busiest, planned, "grid {pr}x{pc}");
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
/// * the busiest rank sends exactly what its plan ([`plan`]) lists, each
///   collective priced by the schedule that runs it: layer 1's output
///   gathered, layer 2's `∆X` reduce-scattered, the input-split top's
///   logits all-reduced, and the `∆W` buckets the rule cuts (`CUTS`). That
///   is `WORDS`, the words recorded when the plan was introduced;
/// * the makespan is below the one the all-reduces left (`BEFORE`); on
///   `Pr = 1`, which sums no `∆X`, it is `PR1_MAKESPAN` to the bit, and
///   the weights are the bits they were while the top was split by its
///   rows.
#[test]
fn executed_fc_dx_sum_is_a_reduce_scatter() {
    // Every rank's final weight shards on 1 × 8 and 1 × 16, recorded
    // while the top was split by its rows.
    const PR1: [u64; 2] = [0xa0e4_a067_bd00_6805, 0x7e79_ecd2_8fd0_e6e5];
    // The makespans on 1 × 8 and 1 × 16 under the rule's buckets. `BEFORE`
    // holds them under the 8 192-word buckets, `[T L1][L0]` on both (the
    // top's, layer 1's and layer 0's ∆W; 68 096 and 98 304 words on 1 × 8):
    // Pr = 1 sums no ∆X, so the whole difference is the buckets'. The rule
    // cuts `[T][L1 L0]` on 1 × 8 (18.92 µs faster) and one bucket on
    // 1 × 16 (27.81 µs faster), each the least makespan of the four cuts
    // of the three layers, as `overlap`'s oracle test checks.
    const PR1_MAKESPAN: [f64; 2] = [4.4316970666666674e-4, 4.6510489599999993e-4];
    // The number of layers in each bucket the rule cuts, top first, per
    // grid of `BEFORE`. Where Pc > 1 each is the cut of least makespan
    // among the four of the three layers (`[T L1 L0]`, `[T L1][L0]`,
    // `[T][L1 L0]`, `[T][L1][L0]`); Pc = 1 sums nothing and keeps one
    // bucket.
    const CUTS: [&[usize]; 9] = [
        &[1, 2],
        &[1, 2],
        &[1, 1, 1],
        &[3],
        &[3],
        &[3],
        &[3],
        &[2, 1],
        &[3],
    ];
    // ((Pr, Pc), makespan) with all-reduced ∆X.
    const BEFORE: [((usize, usize), f64); 9] = [
        ((1, 8), 4.620878506666667e-4),
        ((2, 4), 3.7033565866666674e-4),
        ((4, 2), 5.355943253333332e-4),
        ((8, 1), 1.0368169813333337e-3),
        ((1, 16), 4.929105919999999e-4),
        ((2, 8), 3.3810116266666653e-4),
        ((4, 4), 3.7943449599999986e-4),
        ((8, 2), 5.9220352e-4),
        ((16, 1), 1.1168798720000003e-3),
    ];
    // The busiest rank's words over the two iterations, per grid of
    // `BEFORE`.
    const WORDS: [u64; 9] = [
        588_800, 318_976, 290_048, 489_472, 624_000, 325_248, 228_224, 286_336, 532_480,
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
    let layers = extract_fc_layers(&net);
    for ((((pr, pc), makespan), cut), words) in BEFORE.into_iter().zip(CUTS).zip(WORDS) {
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
        let planned = planned_busiest(&layers, b, (pr, pc), Some(&model), &model);
        assert_eq!(
            busiest as f64,
            iters as f64 * planned,
            "{grid}: words against the plan"
        );
        assert_eq!(busiest, words, "{grid}: words");
        // Each bucket's layers, top first, as the rule cut them.
        let rule = plan(&layers, b, &[(pr, pc)], 0, false, Some(&model));
        let mut grads = rule.grads().into_iter();
        let cuts: Vec<usize> = (cut.iter())
            .map(|&n| grads.by_ref().take(n).map(|g| g.words).sum())
            .collect();
        assert_eq!(rule.buckets, Some(cuts), "{grid}: the rule's cut");
        // Pr = 1 has no ∆X sum: its clock is the buckets' alone, and its
        // weights are the output-split top's (one column block is the
        // whole matrix).
        let now = run.stats.makespan();
        if pr == 1 {
            let digest = fnv(run.per_rank.iter().flat_map(|r| &r.weight_shards));
            assert_eq!(digest, PR1[pc / 16], "{grid}: weights");
            assert_eq!(now, PR1_MAKESPAN[pc / 16], "{grid}: makespan");
        }
        assert!(now < makespan, "{grid}: makespan {now:e} vs {makespan:e}");
    }
}

#[test]
fn executed_pure_batch_and_model_match_eq8_degenerations() {
    one_layer_runs_its_plan((16, 8, 16), &[(1, 8), (8, 1)]);
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
/// `train_cnn_domain` runs, in order, the trunk exchanges its plan lists
/// (`CnnSpec::plans`): one fetch per convolution and pool forward (its
/// input window), one relayout to whole images and one back to strips
/// where the prefix ends, and one fetch per pool and convolution above
/// conv1 backward (the `∆Y` window; a pool's carries its argmax as `C`
/// more channels), and no other: the `∆W` half re-frames the forward's
/// halo. It receives in each exactly the words the plan's row lists.
/// Read off each rank's `distmm/fetch_rows` and `distmm/relayout` spans,
/// in order, by name and by the words each received (the span's
/// `words`), on 1×4, 2×4, 4×4 and 4×2. The prefix ends in front of the
/// first convolution or pool whose input's strips, `⌊in_h / Pd⌋` rows,
/// are shorter than its kernel (on `mini_alexnet` conv2 at every
/// `Pd ≥ 2`: 7-row input, 5-row kernel); past it each stage's fetch runs
/// on a one-rank group and receives nothing.
#[test]
fn executed_cnn_iteration_fetches_each_window_once() {
    let net = mini_alexnet();
    let spec = CnnSpec::of(&net).expect("a CNN");
    let (x, labels) = synthetic_images(&net, 8, 5);
    let iters = 2;
    let cfg = TrainConfig {
        lr: 0.02,
        iters,
        seed: 9,
    };
    // Each window once: a fetch per conv and pool forward, one per pool
    // and conv above conv1 backward, and a relayout each way.
    let is_window = |s: &LayerSpec| matches!(s, LayerSpec::Conv { .. } | LayerSpec::MaxPool { .. });
    let moves = 2 * net.layers().filter(|(s, ..)| is_window(s)).count() - 1 + 2;
    for (pd, pc) in [(1, 4), (2, 4), (4, 4), (4, 2)] {
        let model = NetModel::cori_knl();
        let plans = spec.plans(8, (pd, pc), &model);
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
        assert!(run.replica_divergence() == 0.0, "grid {pd}x{pc}");
        for rank in &trace.ranks {
            assert_eq!(rank.dropped, 0, "grid {pd}x{pc}: the whole trace kept");
            let rows = &plans[rank.rank].trunk;
            assert_eq!(rows.len(), moves, "grid {pd}x{pc}: each window once");
            let words = |got: &[usize]| got.iter().sum::<usize>() as f64;
            let expect: Vec<(&str, f64)> = rows.iter().map(|r| (r.0, words(&r.1))).collect();
            let moved: Vec<(&str, f64)> = (rank.events.iter())
                .filter(|ev| {
                    (ev.cat, ev.kind) == ("distmm", EventKind::Span)
                        && ["fetch_rows", "relayout"].contains(&ev.name)
                })
                .map(|ev| (ev.name, ev.arg("words").expect("annotated")))
                .collect();
            assert_eq!(
                moved,
                expect.repeat(iters),
                "grid {pd}x{pc} rank {}",
                rank.rank
            );
            let at = expect.iter().position(|m| m.0 == "relayout");
            let prefix = if pd > 1 { Some(2) } else { Some(7) };
            assert_eq!(
                at, prefix,
                "grid {pd}x{pc}: at Pd ≥ 2 conv1 and pool1 fetch on strips, conv2 on whole images"
            );
        }
        let sent: f64 = (plans.iter().flat_map(|p| &p.trunk))
            .map(|r| r.1.iter().sum::<usize>() as f64)
            .sum();
        assert_eq!(pd > 1, sent > 0.0, "grid {pd}x{pc}: strips exchange rows");
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
/// `Pd ≥ 2`. The trainer sums the head's `∆W` and every conv layer's
/// partial `∆W` as one chain of buckets over the whole grid, so each
/// rank launches every layer's `|W|` in world sums. Summing per layer in
/// two stages (one all-reduce over the `Pd` strips, one over the `Pc`
/// batch shards) would send `2|W|((Pd−1)/Pd + (Pc−1)/Pc)` or, by
/// recursive doubling, more.
///
/// On these grids (P = 8 and 16) every bucket runs halving, and each
/// rank sends Eq. 9's `∆W` words, `integrated_full`'s, to the word. Under
/// `cori_knl` the rule cuts one bucket of all 13 112 words: at B = 8 the
/// trunk backward and its gap (the relayout back to strips and pool1's
/// `∆Y` fetch) are too short to hide a head sum behind. On the
/// bandwidth-only machine, where compute is free but the gap is not, it
/// cuts the top FC layer's 320 words apart from the other 12 792: with
/// α = 0 halving wins at every size, so the split sends no word above
/// Eq. 9. (While the head's buckets were cut apart from the trunk's they
/// were α-bound under `cori_knl` and ran recursive doubling, 4 720 words
/// a rank over Eq. 9 on 8 ranks and 8 024 on 16.)
///
/// The words are counted where they travel: every channel transfer a
/// rank receives while the last non-blocking sum it launched spans the
/// whole grid is charged to that sum, and is a word its peer sent in that
/// reduction. (A launch over one rank, the head's `∆X` reduce-scatter on
/// the `1 × P` grid, moves nothing and is not traced.)
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
    let words: usize = layers.iter().map(|l| l.weights).sum();
    let per_iter = |v: f64| v / iters as f64;
    for (pd, pc) in [(2, 4), (4, 2), (4, 4)] {
        let p = pd * pc;
        let assign: Vec<_> = (0..layers.len())
            .map(|k| match k {
                0 => LayerParallelism::Domain { pd, pc },
                _ => LayerParallelism::ModelBatch { pr: 1, pc: p },
            })
            .collect();
        let eq9: f64 = (layers.iter().zip(&assign))
            .map(|(l, &a)| layer_cost(l, a, b as f64, false).dw_allreduce.words)
            .sum();
        assert_eq!(
            eq9,
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
            // Per rank: words launched, words sent, and the words the
            // schedule each launch picks sends.
            let (mut launched, mut sent, mut priced) = (vec![0.0; p], vec![0.0; p], vec![0.0; p]);
            for rank in &trace.ranks {
                assert_eq!(rank.dropped, 0, "{grid}: the whole trace kept");
                let mut world = false;
                for ev in &rank.events {
                    let arg = |k| ev.arg(k).expect("annotated");
                    match (ev.cat, ev.name, ev.kind) {
                        ("nb", "iallreduce_launch", EventKind::Instant) => {
                            let n = arg("words");
                            world = arg("p") == p as f64;
                            if world {
                                launched[rank.rank] += n;
                                priced[rank.rank] += allreduce_exact(p, n, &model).words;
                            }
                        }
                        ("channel", "xfer", EventKind::Span) if world => {
                            sent[arg("peer") as usize] += arg("words");
                        }
                        _ => {}
                    }
                }
            }
            for r in 0..p {
                let [launched, sent, priced] = [launched[r], sent[r], priced[r]].map(per_iter);
                assert_eq!(
                    launched, words as f64,
                    "{grid} rank {r}: every ∆W word in a world sum"
                );
                assert_eq!(sent, priced, "{grid} rank {r}: against the schedule run");
                assert_eq!(sent, eq9, "{grid} rank {r}: ∆W words sent against Eq. 9");
            }
        }
    }
}

/// The CNN backward runs its sums under the trunk backward (Fig. 8,
/// run). At `cnn_domain`'s shapes (`mini_alexnet`, `B = 64`, two
/// iterations) on 1×4, 2×4, 4×4 and 4×2, on every rank and in every
/// iteration:
///
/// * one `optimizer_step` after the trunk backward drains every `∆W`
///   bucket of the head and the trunk, in launch order, each with words
///   on the channel, and the first with time hidden under the backward.
///   On 1×4 the bucket rule cuts the head's `∆W` (3 776 words) apart
///   from the trunk's (9 336): the head's sum is launched as the head's
///   backward ends and runs under the trunk backward, and rank 0's drain
///   waits 2.6 µs of its 9.0 µs charged. On 2×4 and 4×2 it cuts conv1's
///   1 176 words apart from the rest, whose sum runs while the relayout
///   back to strips and pool1's `∆Y` fetch block the backward; on 4×4
///   that gap is shorter, and it cuts one bucket of all 13 112 words;
/// * the plan prices that gap (conv1's `Grad::gap`) at what it takes on
///   the rank that waits longest, to rounding: from the backward
///   relayout span's start to the end of pool1's `∆Y` fetch, 6.39, 5.49
///   and 6.99 µs on 2×4, 4×4 and 4×2;
/// * conv2–5's `∆W` GEMMs run inside their `∆Y` fetch: a compute span of
///   exactly the layer's `∆W` flops, on this rank's whole images, nests
///   in that layer's backward `fetch_rows` span. Past the prefix that
///   fetch runs on a one-rank group, so nothing is in flight under it;
/// * each grid's makespan is below the one it had when the head's sum
///   was waited before the trunk backward began and each `∆W` was formed
///   before its `∆Y` fetch (`BEFORE`; 1×4 was not recorded then).
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
    let spec = CnnSpec::of(&net).expect("a CNN");
    let buckets = |grid| {
        [((1, 4), 2), ((2, 4), 2), ((4, 4), 1), ((4, 2), 2)][..]
            .iter()
            .find(|g| g.0 == grid)
            .expect("a grid")
            .1
    };
    for ((pd, pc), before) in [((1, 4), f64::INFINITY)].into_iter().chain(BEFORE) {
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
        let model = MachineModel::cori_knl().net_model();
        let plan = &spec.plans(b, (pd, pc), &model)[0];
        let priced = plan.below.last().expect("conv1").gap.seconds(&model);
        // Each iteration's backward relayout, to the end of the fetch after
        // it: pool1's. On one strip (1×4) nothing is sent, and the gap is 0.
        let mut waited = 0.0f64;
        for rank in &trace.ranks {
            let moves: Vec<_> = (rank.events.iter())
                .filter(|e| (e.cat, e.kind) == ("distmm", EventKind::Span))
                .collect();
            let relayouts = (0..moves.len()).filter(|&k| moves[k].name == "relayout");
            for k in relayouts.skip(1).step_by(2).filter(|_| pd > 1) {
                waited = waited.max(moves[k + 1].t1 - moves[k].t0);
            }
        }
        assert!(
            (priced - waited).abs() <= 1e-9 * waited,
            "{grid}: the gap priced {priced:e} vs {waited:e}"
        );
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
            assert_eq!(steps.len(), iters, "{grid} rank {r}: one step");
            for &step in &steps {
                let mut drains: Vec<_> = children(step).filter(|e| e.cat == "drain").collect();
                drains.reverse();
                let buckets = buckets((pd, pc));
                assert_eq!(drains.len(), buckets, "{grid} rank {r}: the rule's buckets");
                for d in &drains {
                    assert!(d.arg("charged") > Some(0.0), "{grid} rank {r}: a sum");
                }
                assert!(
                    buckets == 1 || drains[0].arg("hidden") > Some(0.0),
                    "{grid} rank {r}: the first bucket's sum under the trunk backward"
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
