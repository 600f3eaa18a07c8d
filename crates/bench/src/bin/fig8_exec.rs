//! An *executed* Fig. 8 — overlap measured, not assumed. Where
//! `fig8` applies the paper's closed-form "2/3 of communication hides
//! behind backprop" to the analytic Fig. 7 times, this binary runs the
//! same SGD iterations on the simulated cluster two ways — blocking
//! per-layer ∆W all-reduces and ∆X reduce-scatters (`train_1p5d`), and non-blocking
//! ones under the default plan (`train_1p5d_scheduled`: each ∆X sum
//! behind its layer's ∆W GEMM, the ∆W sums bucketed) — and reports
//! the makespans actually achieved next to the analytic
//! `overlapped_total` bounds.
//!
//! The network is an FC stack in the spirit of the Table 1 AlexNet
//! tail at reduced scale (the trainer executes fully-connected layers;
//! AlexNet's convolutions have no weights to all-reduce in the 1.5D ∆W
//! path anyway — the paper's Fig. 8 overlap story is about exactly
//! these FC all-reduces). The batch is sized so the per-layer backward
//! GEMMs plus the next iteration's forward can genuinely cover the ∆W
//! rings: overlap fractions are a property of the compute/comm ratio,
//! not of the engine alone.
//!
//! The `frac` column is the executed overlap fraction,
//! hidden/(hidden + exposed) channel transfer time: the share of
//! non-blocking traffic that compute actually covered. Grids with
//! pc = 1 are annotated `degenerate`: every row group is a single rank,
//! so no ∆W sum is launched and only the ∆X sums are counted.
//!
//! With `--autotune`, the autotuner ([`integrated::overlap::autotune`])
//! picks a bucket size per grid from a measured ladder and the tuned
//! outcome joins the table and the JSON.
//! The tuned plan is asserted never slower than the scheduled default
//! (the autotuner evaluates the default as candidate zero, so this
//! holds by construction).
//!
//! Alongside the table it writes `BENCH_overlap.json` with the raw
//! per-grid numbers for downstream tooling.
//!
//! ```text
//! cargo run --release -p bench --bin fig8_exec                 # full sweep
//! cargo run --release -p bench --bin fig8_exec -- --autotune   # + autotuner
//! cargo run --release -p bench --bin fig8_exec -- --smoke      # CI gate
//! ```

use std::fmt::Write as _;

use bench::parse_args;
use collectives::cost::{allreduce_exact, reduce_scatter_exact};
use distmm::dist::part_range;
use dnn::zoo::mlp;
use dnn::Network;
use integrated::overlap::{autotune, overlapped_total, OverlapPlan, PAPER_BACKPROP_FRACTION};
use integrated::report::{fmt_seconds, Table};
use integrated::trainer::{synthetic_data, train_1p5d, train_1p5d_scheduled, TrainConfig};
use mpsim::NetModel;

struct Row {
    p: usize,
    pr: usize,
    pc: usize,
    serialized: f64,
    scheduled: f64,
    analytic_floor: f64,
    fig8_pred: f64,
    scheduled_fraction: f64,
    /// [`saving_floor`] over the run's iterations.
    saving_floor: f64,
    nb_allreduces: u64,
    degenerate: bool,
    tuned: Option<(OverlapPlan, f64, f64)>,
}

/// The least `plan` must save over the serialized run per iteration, from
/// the terms that remain once backprop stops at the first layer (the
/// last grid row's shard shapes, the largest where rows split raggedly:
/// the floor is exact where every shard divides evenly). The top of the
/// chain is input-split, as the trainer takes it when `d_out < 2·d_in`:
/// its shard is a block of its input columns, and it has no ∆X sum, so
/// nothing of it hides. Every collective is priced by the closed form of the
/// schedule it runs: each ∆W sum by [`allreduce_exact`], each ∆X sum by
/// [`reduce_scatter_exact`] (the layer below reads only its rows). Fusing the `L` per-layer ∆W
/// sums into the plan's buckets saves what the per-layer sums cost
/// beyond the buckets' — the latency of each sum fused away, since a
/// minimum of affine costs is subadditive. Every ∆X sum rides the
/// channel the buckets use. Until the iteration's first bucket is on
/// it, each layer's ∆X sum has the channel to itself and hides behind
/// the layer's ∆W GEMM, up to the shorter of the two. Once the first
/// bucket is on the channel, the backward GEMMs still ahead of the main
/// timeline (every lower layer's ∆W GEMM and, above layer 0, its ∆X
/// GEMM) run under that bucket's transfer, hiding up to its length. A
/// lower layer's ∆X sum queues on the bucket's channel: it earns nothing
/// and takes its own length out of that window. The later buckets may
/// hide more behind the same work, but nothing runs beside the drain
/// point after backward, so the floor counts only the first.
fn saving_floor(
    net: &Network,
    b: usize,
    (pr, pc): (usize, usize),
    plan: &OverlapPlan,
    m: &NetModel,
) -> f64 {
    let bloc = (b / pc) as f64;
    let allreduce = |p: usize, words: f64| allreduce_exact(p, words, m).seconds(m);
    let (mut staged, mut fused, mut first, mut under, mut dx_hidden) = (0.0, 0.0, None, 0.0, 0.0);
    let layers = net.weighted_layers();
    for (l, layer) in layers.iter().enumerate().rev() {
        let split_in = l > 0 && l + 1 == layers.len() && layer.d_out() < 2 * layer.d_in();
        let (d_in, d_out) = (layer.d_in(), layer.d_out());
        let (d, w) = [(d_out, d_in), (d_in, d_out)][split_in as usize];
        let words = (part_range(d, pr, pr - 1).len() * w) as f64;
        let gemm = 2.0 * words * bloc / m.flops;
        let dx_sum = if l > 0 && !split_in {
            reduce_scatter_exact(pr, d_in as f64 * bloc).seconds(m)
        } else {
            0.0
        };
        if first.is_some() {
            under += if l > 0 { 2.0 * gemm - dx_sum } else { gemm };
        } else {
            dx_hidden += gemm.min(dx_sum);
        }
        fused += allreduce(pc, words);
        staged += words;
        // A full bucket launches; layer 0 flushes the remainder (after
        // it nothing runs that `first` could hide).
        if staged >= plan.bucket_words as f64 || l == 0 {
            first = first.or(Some(allreduce(pc, staged)));
            fused -= allreduce(pc, staged);
            staged = 0.0;
        }
    }
    fused + dx_hidden + under.max(0.0).min(first.unwrap_or(0.0))
}

fn main() {
    let args = parse_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tune = std::env::args().any(|a| a == "--autotune");

    // Full: FC stack with B large enough that backward + the next
    // forward can hide a pc=2 ∆W ring (compute/comm scales with
    // B/(pc-1) on the fixed machine model, independent of layer
    // widths). --smoke shrinks the stack for CI but keeps the batch in
    // the hiding regime.
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
    let model = NetModel::cori_knl();
    let plan = OverlapPlan::default();

    let mut rows: Vec<Row> = Vec::new();
    for &p in ps {
        let mut cols = vec![
            "grid",
            "serialized",
            "scheduled",
            "saved",
            "Fig.8 (2/3) pred",
            "frac",
            "nb ARs",
        ];
        if tune {
            cols.extend_from_slice(&["tuned", "frac tuned"]);
        }
        cols.push("note");
        let mut t = Table::new(
            format!(
                "executed Fig. 8: {} B={b}, P={p}, {iters} iterations",
                net.name
            ),
            &cols,
        );
        for k in 0.. {
            let pr = 1usize << k;
            if pr > p {
                break;
            }
            let pc = p / pr;
            let ser = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
            let sch = train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, model, plan);
            let t_ser = ser.stats.makespan();
            let t_sch = sch.stats.makespan();
            // Sanity: identical synchronous-SGD trajectories (up to
            // bucket reduction-order noise).
            for (a, o) in ser.losses().iter().zip(sch.losses()) {
                assert!((a - o).abs() < 1e-9, "trajectory diverged: {a} vs {o}");
            }
            // No execution can beat perfect overlap of its own
            // two-timeline split: on every rank the makespan covers
            // both the concurrent channel's transfers and the main
            // timeline (compute + blocking comm), so it is bounded
            // below by `overlapped_total(channel, main, 1.0)` =
            // max(channel, main). (The serialized run's comm is NOT a
            // valid floor — bucket fusion legitimately removes latency
            // terms before any overlap happens.)
            let floor = sch
                .stats
                .clocks
                .iter()
                .zip(&sch.stats.ranks)
                .map(|(c, r)| overlapped_total(r.channel_secs, c.comm + c.compute, 1.0))
                .fold(0.0, f64::max);
            assert!(
                t_sch >= floor - 1e-9,
                "{pr}x{pc}: scheduled makespan {t_sch} beats the analytic floor {floor}"
            );
            let fig8_pred = overlapped_total(
                ser.stats.max_comm(),
                ser.stats.max_compute(),
                PAPER_BACKPROP_FRACTION,
            );
            let (_, _, nb_ar, _) = sch.stats.total_collective_calls();
            let degenerate = pc == 1;
            if degenerate {
                // Each ∆X reduce-scatter launches as a non-blocking
                // all-reduce and is counted as one: every layer's but
                // the first's and the input-split top's.
                let dx_sums = (iters * (net.weighted_layers().len() - 2) * p) as u64;
                assert_eq!(
                    nb_ar, dx_sums,
                    "{pr}x1: single-member row groups must launch no ∆W sums"
                );
            }
            let tuned = if tune {
                let report = autotune(&net, &x, &labels, &cfg, pr, pc, model);
                let out = report.chosen_outcome();
                assert!(
                    out.makespan <= t_sch * 1.02 + 1e-12,
                    "{pr}x{pc}: autotuned plan slower than default ({} vs {t_sch})",
                    out.makespan
                );
                Some((report.chosen, out.makespan, out.overlap_fraction))
            } else {
                None
            };
            rows.push(Row {
                p,
                pr,
                pc,
                serialized: t_ser,
                scheduled: t_sch,
                analytic_floor: floor,
                fig8_pred,
                scheduled_fraction: sch.measured_overlap_fraction(),
                saving_floor: iters as f64 * saving_floor(&net, b, (pr, pc), &plan, &model),
                nb_allreduces: nb_ar,
                degenerate,
                tuned,
            });
            let r = rows.last().expect("just pushed");
            let mut cells = vec![
                format!("{pr}x{pc}"),
                fmt_seconds(t_ser),
                fmt_seconds(t_sch),
                format!("{:.2}%", 100.0 * (t_ser - t_sch) / t_ser),
                fmt_seconds(r.fig8_pred),
                format!("{:.3}", r.scheduled_fraction),
                r.nb_allreduces.to_string(),
            ];
            if let Some((tp, mk, frac)) = &r.tuned {
                cells.push(format!("{} ({}w)", fmt_seconds(*mk), tp.bucket_words));
                cells.push(format!("{frac:.3}"));
            } else if tune {
                cells.extend_from_slice(&[String::new(), String::new()]);
            }
            cells.push(if r.degenerate {
                "degenerate (pc=1: no ∆W ring)".to_string()
            } else {
                String::new()
            });
            t.row(cells);
        }
        print!("{}", if args.csv { t.to_csv() } else { t.render() });
        println!();
    }

    // Acceptance gate, per swept P, on some overlap-enabled grid. What
    // executed overlap must buy, derived from the terms left once the
    // gradient stops at the input (`saving_floor`): the latency bucket
    // fusion removes, the ∆X sums hidden behind their ∆W GEMMs, plus the
    // backward work that runs under the first bucket's all-reduce — a
    // positive saving, met exactly where every shard divides evenly.
    for &p in ps {
        let met = rows.iter().filter(|r| r.p == p && !r.degenerate).any(|r| {
            let saved = r.serialized - r.scheduled;
            let floor = r.saving_floor;
            floor > 0.0 && saved >= floor * (1.0 - 1e-9)
        });
        assert!(met, "P={p}: no grid saves its derived floor");
    }

    // The workspace links no JSON library, so the JSON is written by
    // hand (same convention as recovery_sweep).
    let mut json = format!(
        "{{\n  \"bench\": \"fig8_exec\",\n  \"network\": \"{}\",\n  \"batch\": {b},\n  \
         \"iters\": {iters},\n  \"paper_backprop_fraction\": {PAPER_BACKPROP_FRACTION},\n  \
         \"autotuned\": {tune},\n  \"grids\": [\n",
        net.name
    );
    for (i, r) in rows.iter().enumerate() {
        let tuned = match &r.tuned {
            Some((tp, mk, frac)) => format!(
                ", \"autotune\": {{\"bucket_words\": {}, \"makespan_secs\": {:.9}, \
                 \"overlap_fraction\": {:.6}}}",
                tp.bucket_words, mk, frac
            ),
            None => String::new(),
        };
        let _ = writeln!(
            json,
            "    {{\"p\": {}, \"pr\": {}, \"pc\": {}, \"degenerate\": {}, \
             \"serialized_secs\": {:.9}, \"scheduled_secs\": {:.9}, \
             \"analytic_floor_secs\": {:.9}, \"fig8_pred_secs\": {:.9}, \
             \"measured_overlap_fraction\": {:.6}, \"nb_allreduces\": {}{}}}{}",
            r.p,
            r.pr,
            r.pc,
            r.degenerate,
            r.serialized,
            r.scheduled,
            r.analytic_floor,
            r.fig8_pred,
            r.scheduled_fraction,
            r.nb_allreduces,
            tuned,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    eprintln!("wrote BENCH_overlap.json");
}
