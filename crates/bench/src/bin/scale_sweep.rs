//! Large-P executed strong scaling on the discrete-event backend — the
//! Fig. 6/7 methodology pushed past the thread-per-rank wall.
//!
//! For each P (default `1024,4096`; override with `SCALE_PS`, up to
//! 65536) the sweep executes a 1.5D training *communication skeleton*
//! on a `pr × pc` grid: per iteration and weighted layer every rank
//! charges its share of the step FLOPs, all-reduces the layer's
//! gradient shard (`|W|/pr` words) across its row group of `pc` batch
//! shards, and all-reduces the activation halo (`d·b/pc` words) across
//! its column group of `pr` model shards. Both collectives use
//! recursive doubling over the implicit group — `⌈log g⌉·(α + n·β)` —
//! matching the paper's logarithmic-latency assumption, so the per-grid
//! makespans trace the Eq. 8 U-curve while every message is *really*
//! sent, matched, and reduced (a checksum of the reduced values is
//! reported per grid point).
//!
//! Grid points per P: `pr ∈ {1, P^¼, P^½, P^¾, P}` (powers of two,
//! deduped) — batch-only through model-only. Shards smaller than one
//! word clamp to 1 word, so degenerate grids stay executable.
//!
//! One grid at a time: `wall_secs` and `envelopes_per_sec` are per-grid
//! host numbers, so no other world may be running while a grid is
//! timed, and the sweep's peak memory is one grid's.
//!
//! Alongside the table it writes `BENCH_scale.json` with virtual
//! makespan, wall-clock seconds, envelope counts, and throughput per
//! grid point.
//!
//! ```text
//! cargo run --release -p bench --bin scale_sweep
//! SCALE_PS=1024,4096,16384,65536 cargo run --release -p bench --bin scale_sweep
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bench::parse_args;
use dnn::zoo::mlp;
use integrated::report::{fmt_seconds, Table};
use mpsim::{Communicator, NetModel, Result as MpResult, World};

/// Fingerprint of a reduced vector: FNV-1a over the little-endian bytes
/// of its words. It is the artifact's own definition — `BENCH_scale.json`
/// records its sums from commit to commit, so it must not follow the
/// wire checksum ([`mpsim::fault::checksum`]) when that changes.
fn checksum(words: &[f64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Recursive-doubling all-reduce (sum) over the implicit group
/// `{base + k·stride : k < g}`; `g` must be a power of two and the
/// caller a member. Cost: `log₂(g)·(α + n·β)`.
fn allreduce_rd_group(
    comm: &Communicator,
    data: &mut [f64],
    base: usize,
    stride: usize,
    g: usize,
    tag_base: u64,
) -> MpResult<()> {
    let local = (comm.rank() - base) / stride;
    let mut d = 1usize;
    let mut step = 0u64;
    while d < g {
        let partner = base + (local ^ d) * stride;
        let incoming = comm.sendrecv(partner, data, partner, tag_base + step)?;
        for (x, y) in data.iter_mut().zip(&incoming) {
            *x += y;
        }
        d <<= 1;
        step += 1;
    }
    Ok(())
}

/// One grid point's executed measurements.
struct Point {
    p: usize,
    pr: usize,
    pc: usize,
    makespan: f64,
    wall_secs: f64,
    envelopes: u64,
    words: u64,
    checksum: u64,
}

/// Deduped power-of-two `pr` candidates `{1, P^¼, P^½, P^¾, P}`.
fn grid_points(p: usize) -> Vec<(usize, usize)> {
    let k = p.trailing_zeros() as usize;
    let mut prs: Vec<usize> = [0, k / 4, k / 2, 3 * k / 4, k]
        .iter()
        .map(|&e| 1usize << e)
        .collect();
    prs.sort_unstable();
    prs.dedup();
    prs.into_iter().map(|pr| (pr, p / pr)).collect()
}

fn run_point(
    p: usize,
    (pr, pc): (usize, usize),
    layer_words: &[usize],
    act_words: &[usize],
    flops_per_rank: f64,
    iters: usize,
    model: NetModel,
) -> Point {
    let start = Instant::now();
    let nlayers = layer_words.len() as u64;
    let (outs, stats) = World::run_with_stats(p, model, |comm| {
        let r = comm.rank();
        let (i, j) = (r / pc, r % pc);
        let mut acc = 0u64;
        for it in 0..iters as u64 {
            for (l, (&w, &a)) in layer_words.iter().zip(act_words).enumerate() {
                let l = l as u64;
                comm.advance_flops(flops_per_rank / (iters as f64 * nlayers as f64));
                // Gradient shard all-reduce across the row's pc batch
                // shards (Eq. 8's ∆W reduction).
                let mut grad: Vec<f64> = (0..w.div_ceil(pr).max(1))
                    .map(|e| (r + e) as f64 * 1e-3)
                    .collect();
                let tag = 10_000 + ((it * nlayers + l) * 2) * 64;
                allreduce_rd_group(comm, &mut grad, i * pc, 1, pc, tag)?;
                acc = acc.wrapping_add(checksum(&grad));
                // Activation exchange across the column's pr model
                // shards (the allgather the 1.5D forward pays).
                let mut act: Vec<f64> = (0..a.div_ceil(pc).max(1))
                    .map(|e| (r * 3 + e) as f64 * 1e-3)
                    .collect();
                allreduce_rd_group(comm, &mut act, j, pc, pr, tag + 64)?;
                acc = acc.wrapping_add(checksum(&act));
            }
        }
        Ok::<u64, mpsim::Error>(acc)
    });
    // Wrapping-add fold: every rank in a group holds identical reduced
    // values, so an XOR fold would cancel pairwise to 0.
    let mut acc = 0u64;
    for o in outs {
        acc = acc.wrapping_add(o.expect("skeleton rank failed"));
    }
    Point {
        p,
        pr,
        pc,
        makespan: stats.makespan(),
        wall_secs: start.elapsed().as_secs_f64(),
        envelopes: stats.total_msgs(),
        words: stats.total_words(),
        checksum: acc,
    }
}

fn main() {
    let args = parse_args();
    let ps: Vec<usize> = std::env::var("SCALE_PS")
        .unwrap_or_else(|_| "1024,4096".into())
        .split(',')
        .map(|s| {
            let p: usize = s.trim().parse().expect("SCALE_PS entries must be integers");
            assert!(
                p.is_power_of_two() && p <= 65536,
                "SCALE_PS entries must be powers of two <= 65536, got {p}"
            );
            p
        })
        .collect();
    let iters: usize = std::env::var("SCALE_ITERS")
        .map(|s| s.parse().expect("SCALE_ITERS must be an integer"))
        .unwrap_or(2);

    // A small weight-heavy MLP: large enough that word volumes shape
    // the curve, small enough that the P=65536 smoke stays in memory.
    let net = mlp("mlp-scale", &[32, 64, 64, 10]);
    let layers = net.weighted_layers();
    let b = 64usize;
    let layer_words: Vec<usize> = layers.iter().map(|l| l.weights).collect();
    let act_words: Vec<usize> = layers.iter().map(|l| l.d_out() * b).collect();
    let flops: f64 = layers
        .iter()
        .map(|l| l.train_flops_per_sample() * b as f64)
        .sum();
    let model = NetModel::cori_knl();

    let mut all: Vec<Point> = Vec::new();
    for &p in &ps {
        let sweep_start = Instant::now();
        let rank_flops = flops / p as f64;
        let run = |grid| run_point(p, grid, &layer_words, &act_words, rank_flops, iters, model);
        let points: Vec<Point> = grid_points(p).into_iter().map(run).collect();
        let sweep_wall = sweep_start.elapsed().as_secs_f64();

        let mut t = Table::new(
            format!(
                "executed scaling skeleton: {} B={b}, P={p}, {iters} iterations \
                 (sweep wall {sweep_wall:.1}s)",
                net.name
            ),
            &[
                "grid",
                "makespan",
                "wall",
                "envelopes",
                "env/sec",
                "words moved",
            ],
        );
        for s in points {
            t.row(vec![
                format!("{}x{}", s.pr, s.pc),
                fmt_seconds(s.makespan),
                format!("{:.2}s", s.wall_secs),
                s.envelopes.to_string(),
                format!("{:.0}", s.envelopes as f64 / s.wall_secs.max(1e-9)),
                s.words.to_string(),
            ]);
            all.push(s);
        }
        print!("{}", if args.csv { t.to_csv() } else { t.render() });
        println!();
    }

    // The workspace links no JSON library, so the JSON is written by hand.
    let mut json = String::from(
        "{\n  \"bench\": \"scale_sweep\",\n  \"network\": \"mlp-scale\",\n  \"points\": [\n",
    );
    for (i, s) in all.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"p\": {}, \"pr\": {}, \"pc\": {}, \"makespan_secs\": {:.6e}, \
             \"wall_secs\": {:.4}, \"envelopes\": {}, \"envelopes_per_sec\": {:.0}, \
             \"words\": {}, \"checksum\": {}}}{}",
            s.p,
            s.pr,
            s.pc,
            s.makespan,
            s.wall_secs,
            s.envelopes,
            s.envelopes as f64 / s.wall_secs.max(1e-9),
            s.words,
            s.checksum,
            if i + 1 == all.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    eprintln!("wrote BENCH_scale.json");
}
