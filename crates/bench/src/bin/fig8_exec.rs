//! An *executed* Fig. 8 — overlap measured, not assumed. Where
//! `fig8` applies the paper's closed-form "2/3 of communication hides
//! behind backprop" to the analytic Fig. 7 times, this binary runs the
//! same SGD iterations on the simulated cluster two ways — blocking
//! per-layer ∆W all-reduces and ∆X reduce-scatters (`train_1p5d`), and non-blocking
//! ones (`train_1p5d_scheduled`: each ∆X sum behind its layer's ∆W GEMM,
//! the ∆W sums in the buckets [`integrated::overlap::buckets`] cuts from
//! the α–β model) — and reports
//! the makespans actually achieved next to the analytic
//! `overlapped_total` bounds. It exits non-zero unless each makespan is
//! its plans' replay ([`integrated::plan::replay`]) within 1e-12, and
//! some grid of each P runs faster scheduled.
//!
//! The network is an FC stack in the spirit of the Table 1 AlexNet
//! tail at reduced scale (the trainer executes fully-connected layers;
//! AlexNet's convolutions have no weights to all-reduce in the 1.5D ∆W
//! path anyway — the paper's Fig. 8 overlap story is about exactly
//! these FC all-reduces). The batch is sized so the per-layer backward
//! GEMMs can genuinely cover the ∆W sums: overlap fractions are a
//! property of the compute/comm ratio, not of the engine alone.
//!
//! The `frac` column is the executed overlap fraction,
//! hidden/(hidden + exposed) channel transfer time: the share of
//! non-blocking traffic that compute actually covered. Grids with
//! pc = 1 are annotated `degenerate`: every row group is a single rank,
//! so no ∆W sum is launched and only the ∆X sums are counted.
//!
//! Alongside the table it writes `BENCH_overlap.json` with the raw
//! per-grid numbers for downstream tooling. Every number in it is
//! virtual, so the full sweep reproduces the committed file byte for
//! byte.
//!
//! ```text
//! cargo run --release -p bench --bin fig8_exec                 # full sweep
//! cargo run --release -p bench --bin fig8_exec -- --smoke      # CI gate
//! ```

use bench::parse_args;
use dnn::zoo::mlp;
use integrated::overlap::{overlapped_total, OverlapPlan, PAPER_BACKPROP_FRACTION};
use integrated::plan::{plan, replay, Collective, CommPlan};
use integrated::report::{fmt_seconds, Table};
use integrated::trainer::{
    extract_fc_layers, synthetic_data, train_1p5d, train_1p5d_scheduled, TrainConfig,
};
use mpsim::NetModel;

fn main() {
    let args = parse_args();
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Full: FC stack with B large enough that backward can hide a
    // pc=2 ∆W sum (compute/comm scales with B/(pc-1) on the fixed
    // machine model, independent of layer widths). --smoke shrinks the
    // stack for CI but keeps the batch in the hiding regime.
    let (net, b, iters, ps): (_, usize, usize, &[usize]) = if smoke {
        (mlp("alexnet-fc-smoke", &[256, 192, 192, 10]), 384, 2, &[4])
    } else {
        (
            mlp("alexnet-fc-exec", &[384, 256, 256, 10]),
            512,
            3,
            &[4, 16],
        )
    };
    let cfg = TrainConfig {
        lr: 0.1,
        iters,
        seed: 11,
    };
    let (x, labels) = synthetic_data(&net, b, 42);
    let (model, layers) = (NetModel::cori_knl(), extract_fc_layers(&net));

    // One JSON object per grid, in sweep order.
    let mut grids = Vec::new();
    for &p in ps {
        let cols = [
            "grid",
            "serialized",
            "scheduled",
            "saved",
            "Fig.8 (2/3) pred",
            "frac",
            "nb ARs",
            "note",
        ];
        let title = format!(
            "executed Fig. 8: {} B={b}, P={p}, {iters} iterations",
            net.name
        );
        let (mut t, mut faster) = (Table::new(title, &cols), false);
        for pr in (0..=p.trailing_zeros()).map(|k| 1 << k) {
            let pc = p / pr;
            let plans = |m| -> Vec<CommPlan> {
                (0..p)
                    .map(|rank| plan(&layers, b, &[(pr, pc)], rank, false, m))
                    .collect()
            };
            let (blocking, scheduled) = (plans(None), plans(Some(&model)));
            let ser = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
            let sch = train_1p5d_scheduled(
                &net,
                &x,
                &labels,
                &cfg,
                pr,
                pc,
                model,
                OverlapPlan::default(),
            );
            let (t_ser, t_sch) = (ser.stats.makespan(), sch.stats.makespan());
            // Sanity: identical synchronous-SGD trajectories (up to
            // bucket reduction-order noise).
            for (a, o) in ser.losses().iter().zip(sch.losses()) {
                assert!((a - o).abs() < 1e-9, "trajectory diverged: {a} vs {o}");
            }
            // Perfect overlap of the scheduled run's own two-timeline split
            // on its slowest rank: max(channel, compute + blocking comm).
            let floor = sch
                .stats
                .clocks
                .iter()
                .zip(&sch.stats.ranks)
                .map(|(c, r)| overlapped_total(r.channel_secs, c.comm + c.compute, 1.0))
                .fold(0.0, f64::max);
            // Each run is `iters` times its plans' slowest replay: every
            // shard divides evenly, so no rank waits on a peer.
            for (run, t, plans) in [
                ("serialized", t_ser, &blocking),
                ("scheduled", t_sch, &scheduled),
            ] {
                let slowest = plans.iter().map(|plan| replay(plan, &model));
                let replayed = iters as f64 * slowest.fold(0.0, f64::max);
                let off = (t - replayed).abs();
                assert!(
                    off <= 1e-12 * t,
                    "{pr}x{pc}: {run} {t:e}, replayed {replayed:e}"
                );
            }
            let fig8_pred = overlapped_total(
                ser.stats.max_comm(),
                ser.stats.max_compute(),
                PAPER_BACKPROP_FRACTION,
            );
            // Every launch over a group of more than one is counted: the
            // plans' ∆X reduce-scatters and ∆W buckets. With pc = 1 every
            // bucket's row group is a single rank, and only the ∆X sums count.
            let (_, _, nb_ar, _) = sch.stats.total_collective_calls();
            let launched = (scheduled.iter().flat_map(|p| &p.collectives))
                .filter(|&&Collective(_, nb, p, _)| nb && p > 1)
                .count();
            assert_eq!(nb_ar, (iters * launched) as u64, "{pr}x{pc}: launches");
            let (degenerate, frac) = (pc == 1, sch.measured_overlap_fraction());
            faster |= !degenerate && t_sch < t_ser;
            grids.push(format!(
                "    {{\"p\": {p}, \"pr\": {pr}, \"pc\": {pc}, \"degenerate\": {degenerate}, \
                 \"serialized_secs\": {t_ser:.9}, \"scheduled_secs\": {t_sch:.9}, \
                 \"analytic_floor_secs\": {floor:.9}, \"fig8_pred_secs\": {fig8_pred:.9}, \
                 \"measured_overlap_fraction\": {frac:.6}, \"nb_allreduces\": {nb_ar}}}"
            ));
            let note = if degenerate {
                "degenerate (pc=1: no ∆W ring)"
            } else {
                ""
            };
            t.row(vec![
                format!("{pr}x{pc}"),
                fmt_seconds(t_ser),
                fmt_seconds(t_sch),
                format!("{:.2}%", 100.0 * (t_ser - t_sch) / t_ser),
                fmt_seconds(fig8_pred),
                format!("{frac:.3}"),
                nb_ar.to_string(),
                note.to_string(),
            ]);
        }
        print!("{}", if args.csv { t.to_csv() } else { t.render() });
        println!();
        // The gate: some grid that sums ∆W runs faster scheduled.
        assert!(faster, "P={p}: no grid runs faster scheduled");
    }

    // The workspace links no JSON library, so the JSON is written by
    // hand (same convention as recovery_sweep).
    let json = format!(
        "{{\n  \"bench\": \"fig8_exec\",\n  \"network\": \"{}\",\n  \"batch\": {b},\n  \
         \"iters\": {iters},\n  \"paper_backprop_fraction\": {PAPER_BACKPROP_FRACTION},\n  \
         \"grids\": [\n{}\n  ]\n}}\n",
        net.name,
        grids.join(",\n")
    );
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    eprintln!("wrote BENCH_overlap.json");
}
