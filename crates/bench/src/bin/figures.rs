//! The paper's analytic evaluation, one row per table, figure or
//! analysis (DESIGN.md §4): Table 1, Fig. 4, Figs. 6–10, the Eq. 5 and
//! Eq. 6 analyses, §4's SUMMA, bounds and memory comparisons, three
//! ablations and two syntheses. Each row is a function of the Table 1
//! setup and the `--csv` flag that returns the text it prints.
//!
//! ```text
//! cargo run -p bench --bin figures                # every row, in index order
//! cargo run -p bench --bin figures -- fig6 fig7   # the named rows, in order
//! cargo run -p bench --bin figures -- --csv fig4  # CSV instead of aligned tables
//! ```
//!
//! An unknown row or flag exits 2 and lists the rows.

use bench::figures::{pure_batch_baseline, subfigure_table};
use bench::{Args, Setup};
use collectives::cost::{ceil_log2, frac, CostTerms};
use collectives::recursive::{allreduce_rabenseifner, allreduce_recursive_doubling};
use collectives::ring::allreduce_ring;
use collectives::ReduceOp;
use dnn::stats::NetworkStats;
use dnn::zoo::{alexnet, mlp, resnet18ish, rnn_unrolled, vgg16};
use dnn::{Network, WeightedLayer};
use integrated::bounds::{layer_lower_bound, optimal_pr_continuous};
use integrated::compute::{ComputeModel, RooflineComputeModel};
use integrated::cost::{
    batch_over_model_volume_ratio, crossover_batch, integrated_model_batch, pure, pure_batch,
    pure_model,
};
use integrated::memory::footprint;
use integrated::optimizer::{
    best, evaluate, sweep_conv_batch_fc_grids, sweep_domain_strategies, sweep_uniform_grids,
    Evaluation,
};
use integrated::overlap::{fig8_total, PAPER_BACKPROP_FRACTION};
use integrated::report::{fmt_seconds, fmt_speedup, Table};
use integrated::summa_analysis::{
    memory_1p5d, memory_2d, volume_1p5d, volume_summa_stationary_a, volume_summa_stationary_c,
};
use integrated::{MachineModel, Strategy};
use mpsim::{Communicator, NetModel, World};

/// A row: its name, and the function that returns the text it prints
/// for the Table 1 setup and the flags.
type Row = (&'static str, fn(&Setup, &Args) -> String);

/// Every row, in DESIGN.md §4's order, which is the order `figures`
/// prints them in when none is named.
const ROWS: [Row; 17] = [
    ("table1", table1),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("eq5_crossover", eq5_crossover),
    ("redistribution", redistribution),
    ("summa_compare", summa_compare),
    ("bounds_compare", bounds_compare),
    ("memory_table", memory_table),
    ("ablation_collectives", ablation_collectives),
    ("ablation_latency", ablation_latency),
    ("ablation_wordsize", ablation_wordsize),
    ("network_sweep", network_sweep),
    ("scaling_summary", scaling_summary),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, rows) = select(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let setup = Setup::table1();
    for (_, row) in rows {
        print!("{}", row(&setup, &args));
    }
}

/// Reads `[--csv] [row…]`: the flag, and the named rows in order (every
/// row when none is named). Any other argument is an `Err` that lists the
/// rows.
fn select(argv: &[String]) -> Result<(Args, Vec<Row>), String> {
    let mut args = Args::default();
    let mut rows = Vec::new();
    for a in argv {
        if a == "--csv" {
            args.csv = true;
        } else if let Some(&named) = ROWS.iter().find(|(name, _)| name == a) {
            rows.push(named);
        } else {
            let names: Vec<&str> = ROWS.iter().map(|&(name, _)| name).collect();
            return Err(format!(
                "figures: unknown row or flag `{a}`\nusage: figures [--csv] [row...]\nrows: {}",
                names.join(" ")
            ));
        }
    }
    if rows.is_empty() {
        rows = ROWS.to_vec();
    }
    Ok((args, rows))
}

/// The paper's **Table 1**: the fixed options of the simulation study
/// (network architecture, training set, computing platform), then the
/// per-layer Eq. 2 quantities the cost model consumes, for
/// cross-checking against the architecture.
fn table1(setup: &Setup, args: &Args) -> String {
    let stats = NetworkStats::of(&setup.net);
    let mut t = Table::new(
        "Table 1: fixed simulation parameters",
        &["fixed option", "relevant parameters"],
    );
    t.row(vec![
        "Network architecture: AlexNet".into(),
        format!(
            "{} conv and {} fully connected layers; parameters: {:.1}M",
            stats.conv_layers,
            stats.fc_layers,
            stats.total_weights as f64 / 1e6
        ),
    ]);
    t.row(vec![
        "Training images: ImageNet LSVRC-2012".into(),
        format!(
            "training images: {:.1}M; number of categories: {}",
            setup.n_samples / 1e6,
            dnn::zoo::IMAGENET_CLASSES
        ),
    ]);
    t.row(vec![
        "Computing platform: NERSC Cori (Intel KNL)".into(),
        format!(
            "latency: alpha = {:.0}us; inverse bw: 1/beta = {:.0}GB/s; word = {}B",
            setup.machine.alpha * 1e6,
            setup.machine.bandwidth / 1e9,
            setup.machine.word_bytes
        ),
    ]);

    let mut d = Table::new(
        "AlexNet weighted layers (Eq. 2 quantities)",
        &["layer", "input", "output", "d_in", "d_out", "|W|"],
    );
    for l in setup.net.weighted_layers() {
        d.row(vec![
            l.name.clone(),
            l.in_shape.to_string(),
            l.out_shape.to_string(),
            l.d_in().to_string(),
            l.d_out().to_string(),
            l.weights.to_string(),
        ]);
    }
    args.render(&t) + &args.render(&d)
}

/// The paper's **Fig. 4**: one-epoch AlexNet training time on a single
/// KNL across batch sizes 1…2048. The calibrated curve is the
/// substitution documented in DESIGN.md; the roofline column shows the
/// parametric alternative producing the same shape (fastest near
/// B = 256, driven by hardware-utilization of level-3 BLAS).
fn fig4(setup: &Setup, args: &Args) -> String {
    let roofline = RooflineComputeModel::knl();
    let mut t = Table::new(
        "Fig. 4: one-epoch AlexNet time on a single KNL vs batch size",
        &[
            "batch",
            "epoch (calibrated)",
            "epoch (roofline)",
            "iter (calibrated)",
        ],
    );
    for k in 0..=11 {
        let b = 1usize << k;
        t.row(vec![
            b.to_string(),
            fmt_seconds(setup.compute.epoch_seconds(b as f64)),
            fmt_seconds(roofline.epoch_time(&setup.net, b as f64, setup.n_samples)),
            fmt_seconds(setup.compute.iteration_time(&setup.net, b as f64)),
        ]);
    }
    let best = setup.compute.best_batch();
    args.render(&t)
        + &format!(
            "best workload: B = {best} ({}) — the paper reports the fastest epoch at B = 256\n",
            fmt_seconds(setup.compute.epoch_seconds(best))
        )
}

/// A grid sweep at one `(B, P)`, as `integrated::optimizer` runs them.
type Sweep =
    fn(&Network, &[WeightedLayer], f64, usize, &MachineModel, &dyn ComputeModel) -> Vec<Evaluation>;

/// Runs `sweep` on the Table 1 setup at one `(B, P)`.
fn sweep_at(setup: &Setup, sweep: Sweep, b: f64, p: usize) -> Vec<Evaluation> {
    let layers = setup.net.weighted_layers();
    sweep(&setup.net, &layers, b, p, &setup.machine, &setup.compute)
}

/// The strong-scaling subfigures (a)–(d) of Figs. 6–8: `(tag, B, P)`.
const STRONG: [(&str, f64, usize); 4] = [
    ("a", 2048.0, 8),
    ("b", 2048.0, 32),
    ("c", 2048.0, 128),
    ("d", 2048.0, 512),
];

/// Figs. 6, 7 and 9's one body: runs `sweep` at each `(tag, B, P)`
/// point and renders its subfigure under `title(tag, B, P)`.
fn subfigures(
    setup: &Setup,
    args: &Args,
    sweep: Sweep,
    points: &[(&str, f64, usize)],
    title: impl Fn(&str, f64, usize) -> String,
) -> String {
    let mut out = String::new();
    for &(tag, b, p) in points {
        let evals = sweep_at(setup, sweep, b, p);
        out += &subfigure_table(&title(tag, b, p), setup, b, &evals, args);
        out.push('\n');
    }
    out
}

/// The paper's **Fig. 6**: strong scaling of the integrated model+batch
/// approach with the *same grid in every layer* ("some amount of model
/// parallelism is used for both convolutional and FC layers when
/// Pr > 1"). Fixed mini-batch B = 2048; one subfigure per process
/// count; one row per `Pr × Pc` configuration; speedup of the best
/// configuration over pure batch printed under each subfigure, as the
/// paper does in bold.
fn fig6(setup: &Setup, args: &Args) -> String {
    subfigures(setup, args, sweep_uniform_grids, &STRONG, |tag, b, p| {
        format!("Fig. 6({tag}): B = {b}, P = {p}, same grid in all layers")
    })
}

/// The paper's **Fig. 7**: the improved strong-scaling configuration —
/// pure batch parallelism in convolutional layers (`Pr = 1, Pc = P`)
/// with the `Pr × Pc` grid only in the fully connected layers. Compare
/// the best rows against Fig. 6's: the paper highlights the
/// "significant improvement" (2.5× total, 9.7× comm at B = 2048,
/// P = 512 in its run).
fn fig7(setup: &Setup, args: &Args) -> String {
    subfigures(
        setup,
        args,
        sweep_conv_batch_fc_grids,
        &STRONG,
        |tag, b, p| format!("Fig. 7({tag}): B = {b}, P = {p}, conv pure-batch + FC grid"),
    )
}

/// The paper's **Fig. 8**: Fig. 7 with *perfect overlap* of
/// communication and backpropagation compute. The paper: the all-reduce
/// can run while the transpose convolutions of the next layers execute,
/// hiding the two-thirds of communication that happens during backprop;
/// "even in this setting there is 2.0× speedup".
fn fig8(setup: &Setup, args: &Args) -> String {
    let mut out = format!(
        "overlappable fraction: {PAPER_BACKPROP_FRACTION:.3} (backprop all-reduces, per the paper)\n\n"
    );
    for (tag, b, p) in STRONG {
        let evals = sweep_at(setup, sweep_conv_batch_fc_grids, b, p);
        let mut t = Table::new(
            format!("Fig. 8({tag}): B = {b}, P = {p}, perfect comm/backprop overlap"),
            &[
                "config",
                "compute",
                "comm",
                "total (no overlap)",
                "total (overlap)",
            ],
        );
        let mut rows: Vec<(String, f64)> = Vec::new();
        for e in &evals {
            let overlapped = fig8_total(e.comm_seconds, e.compute_seconds);
            rows.push((e.strategy.name.clone(), overlapped));
            t.row(vec![
                e.strategy.name.clone(),
                fmt_seconds(e.compute_seconds),
                fmt_seconds(e.comm_seconds),
                fmt_seconds(e.total_seconds),
                fmt_seconds(overlapped),
            ]);
        }
        out += &args.render(&t);
        if let Some(baseline) = pure_batch_baseline(&evals) {
            let base_overlapped = fig8_total(baseline.comm_seconds, baseline.compute_seconds);
            let best = rows
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty");
            out += &format!(
                "best: {}  speedup vs pure batch (both overlapped): {}\n\n",
                best.0,
                fmt_speedup(base_overlapped / best.1)
            );
        }
    }
    out
}

/// The paper's **Fig. 9**: weak scaling — the mini-batch size and the
/// process count grow together, sweeping the grid configurations for
/// each `(B, P)` pair (grids chosen per the Eq. 8 complexity, as in
/// Fig. 7's conv-batch + FC-grid layout).
fn fig9(setup: &Setup, args: &Args) -> String {
    let points = [
        ("a", 256.0, 16),
        ("b", 512.0, 32),
        ("c", 1024.0, 64),
        ("d", 2048.0, 128),
        ("e", 4096.0, 256),
    ];
    subfigures(
        setup,
        args,
        sweep_conv_batch_fc_grids,
        &points,
        |tag, b, p| format!("Fig. 9({tag}): weak scaling, B = {b}, P = {p}"),
    )
}

/// The paper's **Fig. 10**: extending the strong-scaling limit of pure
/// batch parallelism with domain parallelism. Fixed B = 512; P grows to
/// 4096. At P = 512 each process already holds a single sample (the
/// batch-parallel limit); beyond that, each image is split into
/// P/512 = 2, 4, 8 horizontal parts (domain parallelism in the conv
/// layers), with `Pr × Pc` grids in the FC layers.
fn fig10(setup: &Setup, args: &Args) -> String {
    let b = 512.0;
    let mut out = String::new();
    let mut best_totals: Vec<(usize, f64)> = Vec::new();
    for (tag, p) in [("a", 512usize), ("b", 1024), ("c", 2048), ("d", 4096)] {
        let evals = sweep_at(setup, sweep_domain_strategies, b, p);
        let parts = p / 512;
        let title = format!(
            "Fig. 10({tag}): B = {b}, P = {p} (each image in {parts} part{})",
            if parts == 1 { "" } else { "s" }
        );
        out += &subfigure_table(&title, setup, b, &evals, args);
        out.push('\n');
        best_totals.push((p, best(&evals).total_seconds));
    }
    out += "strong scaling beyond the batch limit (best per P):\n";
    let t512 = best_totals[0].1;
    for (p, t) in &best_totals {
        out += &format!(
            "  P = {p:>5}: {}  (speedup vs P=512: {:.2}x)\n",
            fmt_seconds(*t),
            t512 / t
        );
    }
    out
}

/// The paper's **Eq. 5** analysis: the model-vs-batch
/// communication-volume crossover per convolutional layer. The paper's
/// worked example — AlexNet 3×3 filters on 13×13×384 activations —
/// gives model parallelism the lower volume "for B ≤ 12". This row
/// prints the crossover batch for every weighted layer of AlexNet,
/// VGG-16 and the ResNet-18-style stack.
fn eq5_crossover(_: &Setup, args: &Args) -> String {
    let mut out = String::new();
    for net in [alexnet(), vgg16(), resnet18ish()] {
        let mut t = Table::new(
            format!("Eq. 5 crossover — {}", net.name),
            &[
                "layer",
                "kind",
                "input",
                "output",
                "B* = 2|W|/(3d)",
                "ratio@B=32",
                "model wins for",
            ],
        );
        for l in net.weighted_layers() {
            let b_star = crossover_batch(&l);
            t.row(vec![
                l.name.clone(),
                if l.is_conv() {
                    "conv".into()
                } else {
                    "fc".into()
                },
                l.in_shape.to_string(),
                l.out_shape.to_string(),
                format!("{b_star:.1}"),
                format!("{:.3}", batch_over_model_volume_ratio(&l, 32.0)),
                format!("B < {:.0}", b_star.floor()),
            ]);
        }
        out += &args.render(&t);
        out.push('\n');
    }
    out + "paper check: AlexNet conv4 (3x3 on 13x13x384) crossover should land near B = 12-14.\n"
}

/// The Eq. 6 redistribution analysis: switching the activations of a
/// layer from a batch distribution to a model distribution costs one
/// all-gather, `α⌈log P⌉ + β·B·(P−1)/P·d_i`, which the paper argues is
/// "asymptotically free because the subsequent model parallel step has
/// communication cost that is three times the cost of the
/// redistribution". This row prints that ratio per AlexNet layer — the
/// justification for mixing per-layer grids in Figs. 7 and 10.
fn redistribution(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let m = &setup.machine;
    let (b, p) = (2048.0, 512usize);

    let model = pure_model(&layers, b, p);
    let mut t = Table::new(
        format!("Eq. 6 redistribution vs the model-parallel step, B = {b}, P = {p}"),
        &["layer", "redistribute X_i", "model-parallel layer", "ratio"],
    );
    for (l, lc) in layers.iter().zip(&model.layers) {
        let redist = m.seconds(pure::redistribution(l.d_in(), b, p));
        let step = lc.cost.seconds(m);
        t.row(vec![
            l.name.clone(),
            fmt_seconds(redist),
            fmt_seconds(step),
            if redist > 0.0 {
                format!("{:.2}x", step / redist)
            } else {
                "-".into()
            },
        ]);
    }
    args.render(&t)
        + "\ninterior layers show the ~3x ratio of the paper's argument (all-gather of Y_i\n\
           plus a double-volume ∆X all-reduce over comparable d); the first layer has no\n\
           ∆X term, so its ratio is ~1-2x — still amortized over the three products.\n"
}

/// The paper's **§4 Discussion** comparison: 1.5D vs 2-D SUMMA
/// (stationary-A and stationary-C) forward-communication volumes and
/// per-process memory, across grids, in both regimes (`|W| > B·d`: FC
/// layers; `|W| < B·d`: conv layers). The claims checked:
/// stationary-A approaches but never beats 1.5D; when the weights are
/// the smaller matrix every 2D variant is asymptotically slower; 2D
/// memory is optimal while 1.5D replicates.
fn summa_compare(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let b = 2048.0;
    let p = 512usize;

    let mut out = String::new();
    // fc2 (the paper's fc7: 4096x4096 weights, d = 4096) is the
    // |W| > B·d regime; conv2 is the |W| < B·d regime.
    for name in ["fc2", "conv2"] {
        let l = layers
            .iter()
            .find(|l| l.name == name)
            .expect("layer exists");
        let w = l.weights as f64;
        let bd = b * l.d_out() as f64;
        let regime = if w > bd { "|W| > B*d" } else { "|W| < B*d" };
        let mut t = Table::new(
            format!(
                "1.5D vs SUMMA — {} ({regime}): |W| = {:.2e}, B*d = {:.2e}, P = {p}",
                l.name, w, bd
            ),
            &[
                "grid",
                "vol 1.5D",
                "vol 2D stat-A",
                "vol 2D stat-C",
                "mem 1.5D",
                "mem 2D",
            ],
        );
        // The Discussion's claim, checked numerically over this sweep.
        let mut never_beaten = true;
        for k in 0..=9 {
            let pr = 1usize << k;
            let pc = p / pr;
            let vol_1p5d = volume_1p5d(bd, pr, pc);
            let vol_a = volume_summa_stationary_a(bd, pr, pc);
            never_beaten &= vol_a >= vol_1p5d;
            t.row(vec![
                format!("{pr}x{pc}"),
                format!("{vol_1p5d:.3e}"),
                format!("{vol_a:.3e}"),
                format!("{:.3e}", volume_summa_stationary_c(w, bd, pr, pc)),
                format!("{:.3e}", memory_1p5d(w, bd, pr, pc)),
                format!("{:.3e}", memory_2d(w, bd, p)),
            ]);
        }
        out += &args.render(&t);
        out += &format!("stationary-A never beats 1.5D over this sweep: {never_beaten}\n\n");
    }
    out
}

/// Communication lower bounds vs achieved volumes — the step the
/// paper's conclusion gestures at ("lower bounds for training DNNs").
/// Per AlexNet layer at B = 2048, P = 512: the memory-dependent
/// Irony–Toledo–Tiskin bound (at each schedule's own memory footprint)
/// next to the Eq. 8 words of pure batch, the best grid, and pure
/// model, plus the closed-form continuous optimum `Pr*`.
fn bounds_compare(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let (b, p) = (2048.0, 512usize);

    let pr_star = optimal_pr_continuous(&layers, b, p);
    let pr_best = {
        let m = &setup.machine;
        (0..=9)
            .map(|k| 1usize << k)
            .min_by(|&a, &c| {
                let wa = integrated_model_batch(&layers, b, a, p / a).total.total();
                let wc = integrated_model_batch(&layers, b, c, p / c).total.total();
                m.seconds(wa).partial_cmp(&m.seconds(wc)).expect("finite")
            })
            .expect("non-empty")
    };
    let head = format!(
        "continuous optimum Pr* = {pr_star:.1}; best power-of-two grid: {pr_best}x{}\n\n",
        p / pr_best
    );

    let mem_for = |l: &WeightedLayer, pr: usize, pc: usize| -> f64 {
        l.weights as f64 / pr as f64 + 2.0 * (l.d_in() + l.d_out()) as f64 * b / pc as f64
    };
    let words_for = |pr: usize, pc: usize, idx: usize| -> f64 {
        integrated_model_batch(&layers, b, pr, pc).layers[idx]
            .cost
            .total()
            .words
    };

    let mut t = Table::new(
        format!("per-layer words/iteration, B = {b}, P = {p} (bound at each schedule's memory)"),
        &[
            "layer",
            "bound@batch",
            "achieved 1x512",
            "bound@best",
            "achieved best",
            "achieved 512x1",
        ],
    );
    for (idx, l) in layers.iter().enumerate() {
        let bound_batch = layer_lower_bound(l, b, p as f64, mem_for(l, 1, 512));
        let bound_best = layer_lower_bound(l, b, p as f64, mem_for(l, pr_best, p / pr_best));
        t.row(vec![
            l.name.clone(),
            format!("{bound_batch:.2e}"),
            format!("{:.2e}", words_for(1, 512, idx)),
            format!("{bound_best:.2e}"),
            format!("{:.2e}", words_for(pr_best, p / pr_best, idx)),
            format!("{:.2e}", words_for(512, 1, idx)),
        ]);
    }
    head + &args.render(&t)
        + "\nthe replicated memory of these schedules is large enough that the memory-\n\
           dependent bound is often zero — the paper's communication is driven by the\n\
           synchronization semantics of SGD (every process must see the summed ∆W each\n\
           iteration), not by the matmul bounds alone. Tightening bounds for that setting\n\
           is exactly the open problem the paper's conclusion names.\n"
}

/// The paper's **§4 Discussion** memory analysis: the 1.5D approach
/// "cuts down the model replication cost by a factor of Pr, at the cost
/// of an increase in data replication by a factor of Pc" — per-process
/// memory across grid configurations for AlexNet at B = 2048, P = 512.
fn memory_table(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let b = 2048.0;
    let p = 512usize;

    let mut t = Table::new(
        format!("Per-process memory, AlexNet, B = {b}, P = {p} (GB at fp32)"),
        &[
            "config",
            "weights",
            "weight grads",
            "activations",
            "total GB",
        ],
    );
    let gb = |words: f64| words * setup.machine.word_bytes as f64 / 1e9;
    let grids = (0..=9).map(|k| Strategy::uniform_grid(1 << k, p >> k, layers.len()));
    // Then a domain-parallel row for contrast (weights fully replicated,
    // but activations split across all P).
    for s in grids.chain([Strategy::pure_domain(p, layers.len())]) {
        let f = footprint(&s, &layers, b);
        t.row(vec![
            s.name,
            format!("{:.3}", gb(f.weights)),
            format!("{:.3}", gb(f.weight_grads)),
            format!("{:.3}", gb(f.activations)),
            format!("{:.3}", gb(f.total())),
        ]);
    }
    args.render(&t)
}

/// An all-reduce algorithm, called by its name in `collectives`.
type AllReduce = fn(&Communicator, &mut [f64], ReduceOp) -> mpsim::Result<()>;

/// The latest virtual clock over `p` ranks that each sum `n` words with
/// `allreduce` under the Cori model.
fn timed(p: usize, n: usize, allreduce: AllReduce) -> f64 {
    let out = World::run(p, NetModel::cori_knl(), |comm| {
        let mut data = vec![comm.rank() as f64; n];
        allreduce(comm, &mut data, ReduceOp::Sum).unwrap();
        comm.now()
    });
    out.iter().cloned().fold(0.0, f64::max)
}

/// Ablation: the collective algorithms the paper's analysis assumes
/// (ring all-reduce, Bruck all-gather) vs the standard alternatives —
/// *executed* on the simulated cluster under the Table-1 α/β, across
/// message sizes. Shows where the ring's `(P−1)·α` latency loses to
/// logarithmic algorithms (small messages) and where its optimal
/// bandwidth wins (the gradient-sized messages DNN training actually
/// sends), justifying the paper's choice.
fn ablation_collectives(_: &Setup, args: &Args) -> String {
    let p = 16usize;
    let mut t = Table::new(
        format!("all-reduce algorithms, executed virtual time, P = {p} (Cori alpha/beta)"),
        &[
            "words",
            "ring",
            "recursive-doubling",
            "rabenseifner",
            "winner",
        ],
    );
    let algorithms: [AllReduce; 3] = [
        allreduce_ring,
        allreduce_recursive_doubling,
        allreduce_rabenseifner,
    ];
    // Sizes are multiples of P so Rabenseifner's recursive halving
    // splits evenly.
    for exp in [4usize, 8, 12, 16, 20] {
        let n = 1usize << exp;
        let [ring, rd, rab] = algorithms.map(|allreduce| timed(p, n, allreduce));
        let winner = if ring <= rd && ring <= rab {
            "ring"
        } else if rab <= rd {
            "rabenseifner"
        } else {
            "recursive-doubling"
        };
        t.row(vec![
            n.to_string(),
            fmt_seconds(ring),
            fmt_seconds(rd),
            fmt_seconds(rab),
            winner.to_string(),
        ]);
    }
    args.render(&t)
        + "\nAlexNet's ∆W messages are 10^5-10^7 words, firmly in the bandwidth-bound\n\
           regime where the ring (and Rabenseifner) bandwidth 2n(P-1)/P is optimal —\n\
           the paper's assumed algorithm is the right one for its workload.\n"
}

/// Ablation: the paper writes its all-reduce terms with `⌈log₂ P⌉`
/// latency while assuming the ring algorithm, whose true latency is
/// `2(P−1)·α` (Thakur et al.). This row quantifies the error that
/// substitution introduces in the Eq. 4 / Eq. 8 totals across P for
/// AlexNet — justifying (or bounding) the simplification.
fn ablation_latency(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let m = &setup.machine;

    let mut t = Table::new(
        "Eq. 4 (pure batch, AlexNet): paper's ceil(log P) latency vs Thakur ring latency",
        &["P", "paper form", "ring-exact form", "relative error"],
    );
    for k in 1..=12 {
        let p = 1usize << k;
        let paper = pure_batch(&layers, p).seconds(m);
        // Ring-exact: same bandwidth, 2(P-1) alphas per layer.
        let ring: CostTerms = layers
            .iter()
            .map(|l| CostTerms::new(2.0 * (p as f64 - 1.0), 2.0 * frac(p) * l.weights as f64))
            .sum();
        let ring = m.seconds(ring);
        t.row(vec![
            p.to_string(),
            fmt_seconds(paper),
            fmt_seconds(ring),
            format!("{:+.3}%", (paper - ring) / ring * 100.0),
        ]);
    }
    let alpha_share = |p: usize| {
        let bw: f64 = layers
            .iter()
            .map(|l| 2.0 * frac(p) * l.weights as f64)
            .sum::<f64>()
            * m.beta();
        let lat = layers.len() as f64 * 2.0 * ceil_log2(p) * m.alpha;
        lat / (lat + bw) * 100.0
    };
    args.render(&t)
        + &format!(
            "\nlatency share of Eq. 4 at P=512: {:.4}% — the message sizes are so large that\n\
             the paper's log-vs-linear latency substitution is immaterial for AlexNet; it\n\
             would matter for networks with thousands of tiny layers or alpha in the ms range.\n",
            alpha_share(512)
        )
}

/// Ablation: gradient precision. The paper's Table 1 implies fp32
/// words; half-precision gradients halve every bandwidth term while
/// leaving latency and compute untouched, shifting the best grid and
/// shrinking the integrated approach's advantage (there is less
/// communication to save). Swept here at B = 2048, P = 512.
fn ablation_wordsize(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let (b, p) = (2048.0, 512usize);

    let mut t = Table::new(
        format!("gradient word size ablation, AlexNet, B = {b}, P = {p} (Fig. 7 family)"),
        &[
            "word",
            "pure-batch comm",
            "best config",
            "best comm",
            "total speedup",
            "comm speedup",
        ],
    );
    for (label, bytes) in [("fp16", 2usize), ("fp32", 4), ("fp64", 8)] {
        let machine = setup.machine.with_word_bytes(bytes);
        let evals = sweep_conv_batch_fc_grids(&setup.net, &layers, b, p, &machine, &setup.compute);
        let base = pure_batch_baseline(&evals).expect("pure batch present");
        let bst = best(&evals);
        t.row(vec![
            label.to_string(),
            fmt_seconds(base.comm_seconds),
            bst.strategy.name.clone(),
            fmt_seconds(bst.comm_seconds),
            fmt_speedup(base.total_seconds / bst.total_seconds),
            fmt_speedup(base.comm_seconds / bst.comm_seconds),
        ]);
    }
    args.render(&t)
        + "\nhalving the word size halves all bandwidth terms uniformly, so the best grid\n\
           barely moves, but the *total* speedup shrinks as compute dominates — a cheap\n\
           preview of why mixed-precision training reduced the pressure for model\n\
           parallelism on AlexNet-scale networks.\n"
}

/// Architecture dependence of the integrated approach: the paper's
/// analysis "is generally applicable to any neural network" — this
/// sweep runs the full strategy search for every zoo architecture at
/// the same `(B, P)` and reports each network's best strategy, its
/// speedup over pure batch, and the continuous optimum `Pr*`. FC-heavy
/// networks (AlexNet, VGG, RNN, MLP) gain a lot; the conv-dominated
/// ResNet-style stack gains little — matching the paper's observation
/// that the savings come from the `|W|/Pr` reduction of the ∆W
/// all-reduce.
fn network_sweep(_: &Setup, args: &Args) -> String {
    let machine = MachineModel::cori_knl();
    let compute = RooflineComputeModel::knl();
    let (b, p) = (2048.0, 512usize);

    let mut t = Table::new(
        format!("architecture sweep, B = {b}, P = {p}"),
        &[
            "network",
            "params",
            "FC share",
            "Pr*",
            "best strategy",
            "total speedup",
            "comm speedup",
        ],
    );
    for net in [
        alexnet(),
        vgg16(),
        resnet18ish(),
        mlp("mlp-4x4096", &[4096, 4096, 4096, 4096, 1000]),
        rnn_unrolled(1024, 2048, 8, 100),
    ] {
        let layers = net.weighted_layers();
        let stats = NetworkStats::of(&net);
        let mut evals = sweep_uniform_grids(&net, &layers, b, p, &machine, &compute);
        evals.extend(sweep_conv_batch_fc_grids(
            &net, &layers, b, p, &machine, &compute,
        ));
        let base = pure_batch_baseline(&evals).expect("pure batch present");
        let bst = best(&evals);
        t.row(vec![
            net.name.clone(),
            format!("{:.1}M", stats.total_weights as f64 / 1e6),
            format!(
                "{:.0}%",
                stats.fc_weights as f64 / stats.total_weights as f64 * 100.0
            ),
            format!("{:.0}", optimal_pr_continuous(&layers, b, p)),
            bst.strategy.name.clone(),
            fmt_speedup(base.total_seconds / bst.total_seconds),
            fmt_speedup(base.comm_seconds / bst.comm_seconds),
        ]);
    }
    args.render(&t)
}

/// The "money table": across the whole process-count range, the best
/// strategy of each family (pure batch, uniform grid = Fig. 6,
/// conv-batch+FC-grid = Fig. 7, domain = Fig. 10) for AlexNet, with
/// epoch times and the winning family — the paper's entire evaluation
/// story in one view.
fn scaling_summary(setup: &Setup, args: &Args) -> String {
    let layers = setup.net.weighted_layers();
    let b = 512.0; // one batch size spanning both regimes (P ≤ B and P > B)

    let mut t = Table::new(
        format!("AlexNet end-to-end: best of each family, B = {b} (epoch seconds)"),
        &[
            "P",
            "pure batch",
            "uniform grid (Fig6)",
            "conv-batch+FC (Fig7)",
            "domain (Fig10)",
            "winner",
        ],
    );
    for k in 3..=12 {
        let p = 1usize << k;
        let epoch = |e: &Evaluation| e.epoch_seconds(setup.n_samples, b);
        let mut cells = vec![p.to_string()];
        let mut candidates: Vec<(String, f64)> = Vec::new();

        if p as f64 <= b {
            let pure = evaluate(
                Strategy::pure_batch(p, layers.len()),
                &setup.net,
                &layers,
                b,
                &setup.machine,
                &setup.compute,
            );
            cells.push(fmt_seconds(epoch(&pure)));
            candidates.push(("pure batch".into(), epoch(&pure)));
            let uni = sweep_at(setup, sweep_uniform_grids, b, p);
            let u = best(&uni);
            cells.push(format!("{} {}", fmt_seconds(epoch(u)), u.strategy.name));
            candidates.push(("uniform".into(), epoch(u)));
            let split = sweep_at(setup, sweep_conv_batch_fc_grids, b, p);
            let s = best(&split);
            cells.push(format!("{} {}", fmt_seconds(epoch(s)), s.strategy.name));
            candidates.push(("conv-batch+fc".into(), epoch(s)));
        } else {
            cells.push("-".into());
            cells.push("-".into());
            cells.push("-".into());
        }
        let dom = sweep_at(setup, sweep_domain_strategies, b, p);
        if dom.is_empty() {
            cells.push("-".into());
        } else {
            let d = best(&dom);
            cells.push(format!("{} {}", fmt_seconds(epoch(d)), d.strategy.name));
            candidates.push(("domain".into(), epoch(d)));
        }
        let winner = candidates
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        cells.push(winner);
        t.row(cells);
    }
    args.render(&t)
        + "\nthe storyline in one table: pure batch suffices at small P, the integrated\n\
           grid takes over as the ∆W all-reduce saturates, restricting model parallelism\n\
           to FC layers is better still, and past P = B only domain parallelism keeps\n\
           scaling — each transition is a figure of the paper.\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rows_are_design_md_index_in_its_order() {
        let design = include_str!("../../../../DESIGN.md");
        let index = &design[design.find("## 4. ").unwrap()..design.find("## 5. ").unwrap()];
        let listed: Vec<&str> = index
            .split("--bin figures -- ")
            .skip(1)
            .map(|s| s.split('`').next().unwrap())
            .collect();
        let names: Vec<&str> = ROWS.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, listed);
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), 17);
    }

    #[test]
    fn every_row_renders_text_and_csv() {
        let setup = Setup::table1();
        for (name, row) in ROWS {
            for csv in [false, true] {
                let text = row(&setup, &Args { csv });
                assert!(!text.trim().is_empty(), "{name} (csv: {csv}) is empty");
            }
        }
    }

    #[test]
    fn rows_are_picked_in_order_and_anything_else_lists_them() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (args, rows) = select(&argv(&["fig7", "--csv", "table1"])).unwrap();
        assert!(args.csv);
        assert_eq!(
            rows.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
            ["fig7", "table1"]
        );
        assert_eq!(select(&[]).unwrap().1.len(), 17);
        for bad in ["fig5", "--bin"] {
            let err = select(&argv(&[bad])).expect_err("an unknown argument is an Err");
            assert!(err.contains(bad));
            assert!(ROWS.iter().all(|(name, _)| err.contains(name)), "{err}");
        }
    }
}
