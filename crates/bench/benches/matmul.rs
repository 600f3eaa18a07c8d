//! Criterion: local dense kernels — the three per-layer products of
//! the paper's §1 (`Y = W·X`, `∆W = ∆Y·Xᵀ`, `∆X = Wᵀ·∆Y`) and the
//! convolution lowerings (direct, materialized im2col, implicit-GEMM).
//!
//! Shapes come from the `dnn::zoo` networks via [`bench::kernels`]
//! (AlexNet/VGG/ResNet FC and conv layers) plus the canonical 512³
//! square. Each group sets `Throughput::Elements` to the shape's FLOP
//! count, so the reported element rate reads directly as FLOP/s
//! (Gelem/s ≡ GFLOP/s). The `*_ref` entries are the frozen pre-packing
//! kernels — the baseline the packed/implicit speedups are measured
//! against (see `kernel_sweep` for the JSON summary + regression gate).

use bench::kernels::{conv_backward_shapes, conv_shapes, gemm_shapes};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tensor::conv::{
    conv2d, conv2d_backward, conv2d_backward_ref, conv2d_direct, conv2d_im2col, conv2d_im2col_ref,
};
use tensor::init;
use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_ref};

fn bench_gemm(c: &mut Criterion) {
    for s in gemm_shapes() {
        let mut g = c.benchmark_group(format!("gemm/{}", s.name));
        g.sample_size(10)
            .throughput(Throughput::Elements(s.flops() as u64));
        let (a, b) = s.operands(1);
        g.bench_function("packed", |bch| {
            bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
        });
        g.bench_function("ref", |bch| {
            bch.iter(|| black_box(matmul_ref(black_box(&a), black_box(&b))))
        });
        g.finish();
    }
}

fn bench_gemm_transposed(c: &mut Criterion) {
    // The backward-pass orientations on the acceptance square: packed
    // AᵀB / ABᵀ read an operand through a transposed accessor, so they
    // are worth tracking separately from plain AB.
    let n = 512usize;
    let flops = 2 * n * n * n;
    let a = init::uniform(n, n, -1.0, 1.0, 3);
    let b = init::uniform(n, n, -1.0, 1.0, 4);
    let mut g = c.benchmark_group("gemm/square_512_transposed");
    g.sample_size(10)
        .throughput(Throughput::Elements(flops as u64));
    g.bench_function("at_b", |bch| {
        bch.iter(|| black_box(matmul_at_b(black_box(&a), black_box(&b))))
    });
    g.bench_function("a_bt", |bch| {
        bch.iter(|| black_box(matmul_a_bt(black_box(&a), black_box(&b))))
    });
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    for s in conv_shapes() {
        let mut g = c.benchmark_group(format!("conv/{}", s.name));
        g.sample_size(10)
            .throughput(Throughput::Elements(s.flops() as u64));
        let (x, w) = s.operands(5);
        g.bench_function("implicit", |bch| {
            bch.iter(|| black_box(conv2d(black_box(&x), black_box(&w), &s.p)))
        });
        g.bench_function("im2col", |bch| {
            bch.iter(|| black_box(conv2d_im2col(black_box(&x), black_box(&w), &s.p)))
        });
        g.bench_function("im2col_ref", |bch| {
            bch.iter(|| black_box(conv2d_im2col_ref(black_box(&x), black_box(&w), &s.p)))
        });
        g.finish();
    }
}

fn bench_conv_direct_small(c: &mut Criterion) {
    // Direct convolution is orders slower; keep one small tracking
    // entry rather than running it on the zoo shapes.
    let s = &conv_shapes()[3]; // resnet18_conv3, the smallest zoo layer
    let (x, w) = s.operands(6);
    let mut g = c.benchmark_group(format!("conv/{}_direct", s.name));
    g.sample_size(10)
        .throughput(Throughput::Elements(s.flops() as u64));
    g.bench_function("direct", |bch| {
        bch.iter(|| black_box(conv2d_direct(black_box(&x), black_box(&w), &s.p)))
    });
    g.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    // The adjoint pair on the acceptance shape and the strip windows:
    // implicit dW/dX versus the materialized im2col + col2im
    // reference. Backward charges both products, so FLOPs are 2× the
    // forward count.
    for s in conv_backward_shapes() {
        let (x, w) = s.operands(7);
        let (oh, ow) = s.p.out_hw(s.h, s.w);
        let dy = init::uniform_tensor(s.batch, s.p.out_c, oh, ow, -1.0, 1.0, 9);
        let mut g = c.benchmark_group(format!("conv_backward/{}", s.name));
        g.sample_size(10)
            .throughput(Throughput::Elements((2.0 * s.flops()) as u64));
        g.bench_function("implicit", |bch| {
            bch.iter(|| {
                black_box(conv2d_backward(
                    black_box(&x),
                    black_box(&w),
                    black_box(&dy),
                    &s.p,
                ))
            })
        });
        g.bench_function("ref", |bch| {
            bch.iter(|| {
                black_box(conv2d_backward_ref(
                    black_box(&x),
                    black_box(&w),
                    black_box(&dy),
                    &s.p,
                ))
            })
        });
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_transposed,
    bench_conv,
    bench_conv_direct_small,
    bench_conv_backward
);
criterion_main!(benches);
