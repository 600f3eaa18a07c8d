//! Kernel throughput sweep: packed GEMM and implicit-GEMM convolution
//! versus the frozen pre-packing kernels, over the `dnn::zoo` layer
//! shapes — the single-node compute term the paper's Eq. 5–9 divide all
//! communication against.
//!
//! For every shape in [`bench::kernels`] — the zoo layers, and the
//! layer shards `chaos_ft` and `fc_1p5d` actually multiply, in all
//! three orientations — this measures GFLOP/s of the new kernel and its
//! frozen baseline (`matmul_ref`, `conv2d_im2col_ref`,
//! `conv2d_backward_ref`), prints a table, and writes
//! `BENCH_kernels.json` with per-shape rates and speedups like the
//! other `BENCH_*.json` producers.
//!
//! It is also the CI perf gate (`kernel-smoke` job): the run **panics**
//! if the packed GEMM fails to beat the frozen kernel on the largest
//! GEMM shape, if any orientation of `chaos_ft`'s 24×64×8 shard runs
//! under ¼ of the same run's `square_512` rate (a tile-scale product
//! that has fallen off the packed kernel reads ≈ 0.1), if any
//! `mini_alexnet` conv row (what `cnn_domain` runs, forward and
//! backward) runs under 0.2 of it (0.27 and up today), if the implicit
//! convolution fails to beat the materialized reference on the AlexNet
//! conv2 acceptance shape, or if any backward row (AlexNet conv2 and the `mini_alexnet` strip
//! windows) fails to beat `conv2d_backward_ref` — a silent kernel
//! regression fails the build. It also reports, in GB/s, the kernels
//! that move words instead of multiplying them — in-place ReLU forward
//! and backward on an `fc_1p5d` activation, the envelope checksum on a
//! 4 096-word payload, LRN forward and backward on `mini_alexnet`'s two
//! normalisation inputs — and on an AVX2 host fails if ReLU or the
//! checksum falls under 4 GB/s (the byte-serial checksum ran at ≈ 0.7,
//! the clone-then-branch ReLU at ≈ 2.4) or `lrn_forward` under 0.7
//! (three `powf` per element and a 4-D index per access ran at ≈ 0.3).
//!
//! ```text
//! cargo run --release -p bench --bin kernel_sweep            # full sweep
//! cargo run --release -p bench --bin kernel_sweep -- --smoke # CI-sized
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bench::kernels::{
    conv_backward_shapes, conv_shapes, gemm_shapes, measure_gbps, measure_gflops, CHECKSUM_WORDS,
    ELEMENTWISE_SHAPE, LRN_SHAPES, SHARD_SHAPES,
};
use bench::parse_args;
use integrated::report::Table;
use mpsim::fault::checksum;
use tensor::activation::{relu_backward_in_place, relu_in_place};
use tensor::conv::{conv2d, conv2d_backward, conv2d_backward_ref, conv2d_im2col_ref};
use tensor::gemm::fma_kernel_available;
use tensor::init;
use tensor::lrn::{lrn_backward, lrn_forward, LrnParams};
use tensor::matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, matmul_at_b_into, matmul_flops,
    matmul_into, matmul_ref,
};
use tensor::Matrix;

/// One measured comparison row.
struct Row {
    kind: &'static str,
    shape: String,
    dims: String,
    flops: f64,
    new_gflops: f64,
    ref_gflops: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.new_gflops / self.ref_gflops.max(1e-12)
    }
}

/// One measured word-moving kernel (no frozen twin: the bodies these
/// replaced are gone, their rates are in EXPERIMENTS.md).
struct StreamRow {
    kind: &'static str,
    shape: &'static str,
    dims: String,
    bytes: f64,
    gbps: f64,
}

/// Floor, in GB/s, under which `relu` and `checksum` fail the run on an
/// AVX2 host.
const STREAM_GATE_GBPS: f64 = 4.0;
/// The same for `lrn_forward`, whose words each cost two square roots
/// and a division: about half of what the plane-wise body measures.
const LRN_GATE_GBPS: f64 = 0.7;

/// Share of the same run's `square_512` GFLOP/s under which a
/// `chaos_ft` 24×64×8 row fails the run.
const SHARD_GATE_RATIO: f64 = 0.25;
/// The same share for every `mini_alexnet` conv row, forward and
/// backward: packing the im2col operand, they read 0.19–0.35 of
/// `square_512`; read in place, 0.27–0.35 at the thinnest row
/// (`mini_alexnet_conv1_strip_bwd`) and 0.4–1.1 on the others.
const MINI_GATE_RATIO: f64 = 0.2;

/// The floor a word-moving row is held to on an AVX2 host; the other
/// rows are reported, not gated.
fn stream_floor(shape: &str) -> f64 {
    match shape {
        "relu" | "envelope_checksum" => STREAM_GATE_GBPS,
        "lrn_forward" => LRN_GATE_GBPS,
        _ => 0.0,
    }
}

fn main() {
    let args = parse_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke keeps CI in seconds; the full sweep averages more reps.
    let (warmup, reps) = if smoke { (1, 2) } else { (2, 8) };
    let start = Instant::now();

    let mut rows: Vec<Row> = Vec::new();

    for s in gemm_shapes() {
        let (a, b) = s.operands(11);
        rows.push(Row {
            kind: "gemm",
            shape: s.name.clone(),
            dims: format!("{}x{}x{}", s.m, s.k, s.n),
            flops: s.flops(),
            new_gflops: measure_gflops(s.flops(), warmup, reps, || matmul(&a, &b)),
            ref_gflops: measure_gflops(s.flops(), warmup, reps, || matmul_ref(&a, &b)),
        });
    }

    // The transposed orientations on the acceptance square, measured
    // against the same frozen AB kernel (the pre-packing at_b/a_bt
    // kernels were within noise of it).
    {
        let n = 512usize;
        let flops = (2 * n * n * n) as f64;
        let a = init::uniform(n, n, -1.0, 1.0, 13);
        let b = init::uniform(n, n, -1.0, 1.0, 14);
        let ref_gf = measure_gflops(flops, warmup, reps, || matmul_ref(&a, &b));
        rows.push(Row {
            kind: "gemm",
            shape: "square_512_at_b".into(),
            dims: format!("{n}x{n}x{n}"),
            flops,
            new_gflops: measure_gflops(flops, warmup, reps, || matmul_at_b(&a, &b)),
            ref_gflops: ref_gf,
        });
        rows.push(Row {
            kind: "gemm",
            shape: "square_512_a_bt".into(),
            dims: format!("{n}x{n}x{n}"),
            flops,
            new_gflops: measure_gflops(flops, warmup, reps, || matmul_a_bt(&a, &b)),
            ref_gflops: ref_gf,
        });
    }

    // The layer-shard products the trainers issue, each orientation into
    // one reused output; the reference is the frozen AB kernel on the
    // same m×k×n.
    for (workload, w_rows, d_in, b) in SHARD_SHAPES {
        let w = init::uniform(w_rows, d_in, -1.0, 1.0, 31);
        let x = init::uniform(d_in, b, -1.0, 1.0, 32);
        let dy = init::uniform(w_rows, b, -1.0, 1.0, 33);
        let mut c = Matrix::zeros(0, 0);
        type Into = fn(&Matrix, &Matrix, &mut Matrix);
        let products: [(&str, Into, &Matrix, &Matrix, [usize; 3]); 3] = [
            ("w_x", matmul_into, &w, &x, [w_rows, d_in, b]),
            ("dy_xt", matmul_a_bt_into, &dy, &x, [w_rows, b, d_in]),
            ("wt_dy", matmul_at_b_into, &w, &dy, [d_in, w_rows, b]),
        ];
        for (tag, product, l, r, [m, k, n]) in products {
            let flops = matmul_flops(m, k, n);
            let (ra, rb) = (
                init::uniform(m, k, -1.0, 1.0, 34),
                init::uniform(k, n, -1.0, 1.0, 35),
            );
            rows.push(Row {
                kind: "gemm_shard",
                shape: format!("{workload}_{w_rows}x{d_in}x{b}_{tag}"),
                dims: format!("{m}x{k}x{n}"),
                flops,
                new_gflops: measure_gflops(flops, warmup, reps, || product(l, r, &mut c)),
                ref_gflops: measure_gflops(flops, warmup, reps, || matmul_ref(&ra, &rb)),
            });
        }
    }

    for s in conv_shapes() {
        let (x, w) = s.operands(17);
        rows.push(Row {
            kind: "conv",
            shape: s.name.clone(),
            dims: format!(
                "b{} {}c {}x{} k{} s{} p{}",
                s.batch, s.p.in_c, s.h, s.w, s.p.kh, s.p.stride, s.p.pad
            ),
            flops: s.flops(),
            new_gflops: measure_gflops(s.flops(), warmup, reps, || conv2d(&x, &w, &s.p)),
            ref_gflops: measure_gflops(s.flops(), warmup, reps, || conv2d_im2col_ref(&x, &w, &s.p)),
        });
    }

    // Backward charges both products, so FLOPs are 2× the forward.
    for s in conv_backward_shapes() {
        let (x, w) = s.operands(19);
        let (oh, ow) = s.p.out_hw(s.h, s.w);
        let dy = init::uniform_tensor(s.batch, s.p.out_c, oh, ow, -1.0, 1.0, 21);
        let flops = 2.0 * s.flops();
        rows.push(Row {
            kind: "conv_bwd",
            shape: format!("{}_bwd", s.name),
            dims: format!(
                "b{} {}c {}x{} k{} s{} p{}",
                s.batch, s.p.in_c, s.h, s.w, s.p.kh, s.p.stride, s.p.pad
            ),
            flops,
            new_gflops: measure_gflops(flops, warmup, reps, || conv2d_backward(&x, &w, &dy, &s.p)),
            ref_gflops: measure_gflops(flops, warmup, reps, || {
                conv2d_backward_ref(&x, &w, &dy, &s.p)
            }),
        });
    }

    // Word-moving kernels. The select-based ReLU pair is data
    // independent, so timing it on one buffer over and over is fair.
    let mut streams: Vec<StreamRow> = Vec::new();
    {
        let (d, b) = ELEMENTWISE_SHAPE;
        let bytes = (d * b * 8) as f64;
        let pre = init::uniform(d, b, -1.0, 1.0, 23);
        let mut act = pre.clone();
        let mut grad = init::uniform(d, b, -1.0, 1.0, 24);
        let dims = format!("{d}x{b}");
        streams.push(StreamRow {
            kind: "elementwise",
            shape: "relu",
            dims: dims.clone(),
            bytes,
            gbps: measure_gbps(bytes, warmup, reps, || relu_in_place(act.as_mut_slice())),
        });
        streams.push(StreamRow {
            kind: "elementwise",
            shape: "relu_backward",
            dims,
            bytes,
            gbps: measure_gbps(bytes, warmup, reps, || {
                relu_backward_in_place(pre.as_slice(), grad.as_mut_slice())
            }),
        });
        let payload = init::uniform(1, CHECKSUM_WORDS, -1.0, 1.0, 25);
        let bytes = (CHECKSUM_WORDS * 8) as f64;
        streams.push(StreamRow {
            kind: "checksum",
            shape: "envelope_checksum",
            dims: format!("{CHECKSUM_WORDS} words"),
            bytes,
            gbps: measure_gbps(bytes, warmup, reps, || checksum(payload.as_slice())),
        });
    }
    // LRN with AlexNet's constants; GB/s of activation payload.
    for (n, c, h, w) in LRN_SHAPES {
        let p = LrnParams::alexnet();
        let x = init::uniform_tensor(n, c, h, w, -1.0, 1.0, 26);
        let dy = init::uniform_tensor(n, c, h, w, -1.0, 1.0, 27);
        let bytes = (x.len() * 8) as f64;
        let dims = format!("{n}x{c}x{h}x{w}");
        streams.push(StreamRow {
            kind: "lrn",
            shape: "lrn_forward",
            dims: dims.clone(),
            bytes,
            gbps: measure_gbps(bytes, warmup, reps, || lrn_forward(&x, &p)),
        });
        streams.push(StreamRow {
            kind: "lrn",
            shape: "lrn_backward",
            dims,
            bytes,
            gbps: measure_gbps(bytes, warmup, reps, || lrn_backward(&x, &dy, &p)),
        });
    }

    let wall = start.elapsed().as_secs_f64();
    let mut t = Table::new(
        format!(
            "kernel sweep: packed GEMM + implicit conv vs frozen kernels \
             ({} shapes, wall {wall:.1}s{})",
            rows.len(),
            if smoke { ", smoke" } else { "" }
        ),
        &["kind", "shape", "dims", "new GF/s", "ref GF/s", "speedup"],
    );
    for r in &rows {
        t.row(vec![
            r.kind.into(),
            r.shape.clone(),
            r.dims.clone(),
            format!("{:.2}", r.new_gflops),
            format!("{:.2}", r.ref_gflops),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    print!("{}", if args.csv { t.to_csv() } else { t.render() });
    let mut st = Table::new(
        "word-moving kernels (payload bytes per second)".to_string(),
        &["kind", "kernel", "dims", "GB/s"],
    );
    for r in &streams {
        st.row(vec![
            r.kind.into(),
            r.shape.into(),
            r.dims.clone(),
            format!("{:.2}", r.gbps),
        ]);
    }
    print!("{}", if args.csv { st.to_csv() } else { st.render() });

    // The workspace links no JSON library, so the JSON is written by hand.
    let mut json = String::from("{\n  \"bench\": \"kernel_sweep\",\n  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"shape\": \"{}\", \"dims\": \"{}\", \
             \"flops\": {:.4e}, \"gflops\": {:.3}, \"ref_gflops\": {:.3}, \
             \"speedup_vs_ref\": {:.3}}}{}",
            r.kind,
            r.shape,
            r.dims,
            r.flops,
            r.new_gflops,
            r.ref_gflops,
            r.speedup(),
            if i + 1 == rows.len() && streams.is_empty() {
                ""
            } else {
                ","
            }
        );
    }
    for (i, r) in streams.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"shape\": \"{}\", \"dims\": \"{}\", \
             \"bytes\": {:.4e}, \"gbps\": {:.3}}}{}",
            r.kind,
            r.shape,
            r.dims,
            r.bytes,
            r.gbps,
            if i + 1 == streams.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    eprintln!("wrote BENCH_kernels.json");

    // Regression gates (CI fails on panic). Thresholds are deliberately
    // 1.0× — the acceptance speedups (≥3× GEMM, ≥2× conv) are recorded
    // in EXPERIMENTS.md from full runs; the gate only guards against
    // the packed kernels silently losing to the frozen ones.
    let largest = rows
        .iter()
        .filter(|r| r.kind == "gemm")
        .max_by(|a, b| a.flops.total_cmp(&b.flops))
        .expect("gemm rows present");
    assert!(
        largest.speedup() > 1.0,
        "packed GEMM regression: {:.2} GF/s <= frozen {:.2} GF/s on {}",
        largest.new_gflops,
        largest.ref_gflops,
        largest.shape
    );
    // A ratio within one run, so the shared host's mood cancels: the
    // largest `chaos_ft` shard ran at 0.11-0.16 of `square_512` on the
    // unpacked loops it used to take and runs at 0.42-0.57 packed.
    let square = rows
        .iter()
        .find(|r| r.shape == "square_512")
        .expect("square_512 row present")
        .new_gflops;
    for r in rows
        .iter()
        .filter(|r| r.shape.starts_with("chaos_ft_24x64x8"))
    {
        assert!(
            r.new_gflops >= SHARD_GATE_RATIO * square,
            "tile-scale GEMM regression: {} at {:.2} GF/s < {SHARD_GATE_RATIO} x square_512's {square:.2}",
            r.shape,
            r.new_gflops
        );
    }
    for r in rows.iter().filter(|r| r.shape.starts_with("mini_alexnet")) {
        assert!(
            r.new_gflops >= MINI_GATE_RATIO * square,
            "mini_alexnet conv regression: {} at {:.2} GF/s < {MINI_GATE_RATIO} x square_512's {square:.2}",
            r.shape,
            r.new_gflops
        );
    }
    let conv2 = rows
        .iter()
        .find(|r| r.shape == "alexnet_conv2")
        .expect("alexnet_conv2 row present");
    assert!(
        conv2.speedup() > 1.0,
        "implicit conv regression: {:.2} GF/s <= im2col_ref {:.2} GF/s",
        conv2.new_gflops,
        conv2.ref_gflops
    );
    let mut bwd_min = f64::INFINITY;
    for r in rows.iter().filter(|r| r.kind == "conv_bwd") {
        assert!(
            r.speedup() > 1.0,
            "implicit conv backward regression: {:.2} GF/s <= backward_ref {:.2} GF/s on {}",
            r.new_gflops,
            r.ref_gflops,
            r.shape
        );
        bwd_min = bwd_min.min(r.speedup());
    }
    // The SIMD-width floor only means something where the select
    // vectorises to 256 bits; elsewhere the rows are reported, not gated.
    if fma_kernel_available() {
        for r in &streams {
            let floor = stream_floor(r.shape);
            assert!(
                r.gbps >= floor,
                "{} {} regression: {:.2} GB/s < {floor} GB/s",
                r.shape,
                r.dims,
                r.gbps
            );
        }
    }
    eprintln!(
        "gates passed: gemm {:.2}x on {}, conv {:.2}x on alexnet_conv2, conv_bwd >= {bwd_min:.2}x, \
         relu/checksum >= {STREAM_GATE_GBPS} GB/s, lrn_forward >= {LRN_GATE_GBPS} GB/s",
        largest.speedup(),
        largest.shape,
        conv2.speedup(),
    );
}
