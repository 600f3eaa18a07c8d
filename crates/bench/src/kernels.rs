//! Shared shape catalogue and measurement plumbing for the kernel
//! benchmarks (the `kernel_sweep` binary).
//!
//! GEMM and convolution shapes are pulled from the `dnn::zoo` networks
//! — the layers whose products the paper's per-layer cost sums actually
//! charge — plus the canonical 512³ square used as the packed-GEMM
//! acceptance shape, plus the strip windows the domain path really
//! runs (`mini_alexnet` on a `pd × pc` grid: few output channels, a few
//! rows per strip). Batches are kept small so a full sweep stays in
//! seconds on one core; throughput is reported as GFLOP/s, which is
//! batch-invariant.

use dnn::zoo::{alexnet, mini_alexnet, resnet18ish, vgg16};
use dnn::LayerSpec;
use tensor::conv::Conv2dParams;
use tensor::init;
use tensor::matmul::matmul_flops;
use tensor::{Matrix, Tensor4};

/// One dense-product benchmark shape (`C = A·B` with `A` m×k, `B` k×n).
#[derive(Debug, Clone)]
pub struct GemmShape {
    /// Label, e.g. `alexnet_fc6`.
    pub name: String,
    /// Output rows.
    pub m: usize,
    /// Contraction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmShape {
    /// FLOPs of one product.
    pub fn flops(&self) -> f64 {
        matmul_flops(self.m, self.k, self.n)
    }

    /// Deterministic operands for this shape.
    pub fn operands(&self, seed: u64) -> (Matrix, Matrix) {
        (
            init::uniform(self.m, self.k, -1.0, 1.0, seed),
            init::uniform(self.k, self.n, -1.0, 1.0, seed + 1),
        )
    }
}

/// One convolution benchmark shape.
#[derive(Debug, Clone)]
pub struct ConvShape {
    /// Label, e.g. `alexnet_conv2`.
    pub name: String,
    /// Batch size.
    pub batch: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Convolution hyper-parameters.
    pub p: Conv2dParams,
}

impl ConvShape {
    /// FLOPs of one forward pass (2 per multiply-add over the implicit
    /// GEMM's `out_c × (batch·oh·ow) × patch_len` product).
    pub fn flops(&self) -> f64 {
        let (oh, ow) = self.p.out_hw(self.h, self.w);
        matmul_flops(self.p.out_c, self.p.patch_len(), self.batch * oh * ow)
    }

    /// Deterministic input tensor and weight matrix for this shape.
    pub fn operands(&self, seed: u64) -> (Tensor4, Matrix) {
        (
            init::uniform_tensor(self.batch, self.p.in_c, self.h, self.w, -1.0, 1.0, seed),
            init::uniform(self.p.out_c, self.p.patch_len(), -0.2, 0.2, seed + 1),
        )
    }
}

/// Batch used for the FC-layer GEMM shapes (small: single-core sweep).
const FC_BATCH: usize = 16;
/// Batch used for the convolution shapes.
const CONV_BATCH: usize = 2;
/// Batch shard of the strip-window shapes (B = 64 over `pc` = 4).
const STRIP_BATCH: usize = 16;

/// Pulls one named conv layer (1-based among conv layers) out of a zoo
/// network as a benchmark shape.
fn conv_from_zoo(
    net: &dnn::Network,
    conv_index: usize,
    name: &str,
    batch: usize,
) -> Option<ConvShape> {
    let mut seen = 0usize;
    for (spec, in_shape, _) in net.layers() {
        if let LayerSpec::Conv {
            out_c,
            kh,
            kw,
            stride,
            pad,
        } = *spec
        {
            seen += 1;
            if seen == conv_index {
                return Some(ConvShape {
                    name: name.into(),
                    batch,
                    h: in_shape.h,
                    w: in_shape.w,
                    p: Conv2dParams {
                        in_c: in_shape.c,
                        out_c,
                        kh,
                        kw,
                        stride,
                        pad,
                    },
                });
            }
        }
    }
    None
}

/// Pulls one named FC layer (1-based among FC layers) out of a zoo
/// network as a GEMM shape `out × d_in · d_in × B`.
fn fc_from_zoo(net: &dnn::Network, fc_index: usize, name: &str) -> Option<GemmShape> {
    let mut seen = 0usize;
    for (spec, in_shape, out_shape) in net.layers() {
        if let LayerSpec::FullyConnected { .. } = spec {
            seen += 1;
            if seen == fc_index {
                return Some(GemmShape {
                    name: name.into(),
                    m: out_shape.dim(),
                    k: in_shape.dim(),
                    n: FC_BATCH,
                });
            }
        }
    }
    None
}

/// The GEMM benchmark shapes: the acceptance 512³ square plus
/// FC-layer products from the zoo networks.
pub fn gemm_shapes() -> Vec<GemmShape> {
    let alex = alexnet();
    let vgg = vgg16();
    let res = resnet18ish();
    let mut shapes = vec![GemmShape {
        name: "square_512".into(),
        m: 512,
        k: 512,
        n: 512,
    }];
    shapes.extend(fc_from_zoo(&alex, 1, "alexnet_fc6"));
    shapes.extend(fc_from_zoo(&alex, 3, "alexnet_fc8"));
    shapes.extend(fc_from_zoo(&vgg, 2, "vgg16_fc7"));
    shapes.extend(fc_from_zoo(&res, 1, "resnet18_fc"));
    shapes
}

/// The layer shards the benchmark's trainers multiply, as `(workload,
/// rows of W, d_in, batch columns)`: `chaos_ft`'s three (`mlp_tiny` on
/// 2×3, B = 24), then `fc_1p5d`'s 384→256 layer at `Pr` = 16, its
/// 256→256 layer at `Pr` = 8 on P = 16, and one row of its 10-row head.
/// Each is measured as `W·X`, `∆Y·Xᵀ` and `Wᵀ·∆Y`.
pub const SHARD_SHAPES: [(&str, usize, usize, usize); 6] = [
    ("chaos_ft", 24, 64, 8),
    ("chaos_ft", 16, 48, 8),
    ("chaos_ft", 5, 32, 8),
    ("fc_1p5d", 16, 384, 512),
    ("fc_1p5d", 32, 256, 256),
    ("fc_1p5d", 1, 256, 512),
];

/// Turns a zoo conv layer into the local convolution
/// `distmm::domain_general` issues for one strip of it: `rows` input
/// rows (the fetched window plus any synthetic zero rows) and the
/// horizontal padding already applied, hence `pad: 0`.
fn strip_window(mut s: ConvShape, rows: usize) -> ConvShape {
    s.h = rows;
    s.w += 2 * s.p.pad;
    s.p.pad = 0;
    s
}

/// The convolution benchmark shapes: zoo layers (the AlexNet conv2
/// entry is the acceptance shape for the implicit-GEMM speedup
/// criterion), then the `mini_alexnet` strip windows of the
/// `cnn_domain` workload at B = 64, `pc` = 4 — conv1 (7×7/2 on 35×35)
/// at `pd` = 4, where a strip's 4 output rows need a 13-row window, and
/// conv2 (5×5 same-pad on 7×7) at `pd` = 1, extended to 11×11.
pub fn conv_shapes() -> Vec<ConvShape> {
    let alex = alexnet();
    let vgg = vgg16();
    let res = resnet18ish();
    let mini = mini_alexnet();
    let mut shapes = Vec::new();
    shapes.extend(conv_from_zoo(&alex, 1, "alexnet_conv1", CONV_BATCH));
    shapes.extend(conv_from_zoo(&alex, 2, "alexnet_conv2", CONV_BATCH));
    shapes.extend(conv_from_zoo(&vgg, 3, "vgg16_conv2_1", 1));
    shapes.extend(conv_from_zoo(&res, 6, "resnet18_conv3", CONV_BATCH));
    let strip = |conv_index, name, rows| {
        conv_from_zoo(&mini, conv_index, name, STRIP_BATCH).map(|s| strip_window(s, rows))
    };
    shapes.extend(strip(1, "mini_alexnet_conv1_strip", 13));
    shapes.extend(strip(2, "mini_alexnet_conv2_strip", 11));
    shapes
}

/// The shapes the backward kernels are measured (and gated) on: the
/// AlexNet conv2 acceptance shape and the strip windows.
pub fn conv_backward_shapes() -> Vec<ConvShape> {
    conv_shapes()
        .into_iter()
        .filter(|s| s.name == "alexnet_conv2" || s.name.ends_with("_strip"))
        .collect()
}

/// Work below which one call is too short to time: `measure_gflops`
/// repeats small shapes until a timed run covers this many FLOPs.
const MIN_TIMED_FLOPS: f64 = 1e8;

/// Times `f` and returns GFLOP/s for `flops` of work: `warmup` untimed
/// calls, then the mean over `reps` timed calls (more for shapes so
/// small that `reps` calls would be timer noise).
pub fn measure_gflops<T>(flops: f64, warmup: usize, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let reps = reps.max((MIN_TIMED_FLOPS / flops.max(1.0)).ceil() as usize);
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let start = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let secs = start.elapsed().as_secs_f64() / reps.max(1) as f64;
    flops / secs.max(1e-12) / 1e9
}

/// Activation shape of the element-wise rows: one `fc_1p5d` layer
/// output at `Pc = 1` (`d × B`).
pub const ELEMENTWISE_SHAPE: (usize, usize) = (256, 512);
/// Payload length of the checksum row: a mid-sized ring block.
pub const CHECKSUM_WORDS: usize = 4096;
/// `(n, c, h, w)` of the LRN rows: `mini_alexnet`'s two normalisation
/// inputs as `cnn_domain`'s 1×4 grid holds them (`B / Pc = 16`, the
/// whole height); the other grids' strips are row blocks of these.
pub const LRN_SHAPES: [(usize, usize, usize, usize); 2] = [(16, 8, 15, 15), (16, 12, 7, 7)];

/// Times `f` and returns GB/s for `bytes` of payload per call — the
/// rate of the kernels that move words rather than multiply them
/// (activations, the envelope checksum). Same repetition rule as
/// [`measure_gflops`], one byte standing in for one FLOP.
pub fn measure_gbps<T>(bytes: f64, warmup: usize, reps: usize, f: impl FnMut() -> T) -> f64 {
    measure_gflops(bytes, warmup, reps, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_the_acceptance_shapes() {
        let gemms = gemm_shapes();
        assert!(gemms.iter().any(|s| s.name == "square_512"));
        // Every zoo FC lookup resolved.
        assert!(gemms.len() >= 5, "{:?}", gemms.len());
        let convs = conv_shapes();
        let conv2 = convs
            .iter()
            .find(|s| s.name == "alexnet_conv2")
            .expect("alexnet conv2 present");
        // AlexNet conv2: 96→256, 5×5, same-pad on 27×27.
        assert_eq!(
            (conv2.p.in_c, conv2.p.out_c, conv2.p.kh, conv2.p.stride),
            (96, 256, 5, 1)
        );
        assert_eq!(conv2.p.out_hw(conv2.h, conv2.w), (27, 27));
        // The strip windows are what `cnn_domain` runs: conv1's window
        // yields the strip's 4 output rows, conv2's the full 7×7.
        let strip = |name: &str| {
            let s = convs.iter().find(|s| s.name == name).expect(name);
            (s.p.out_c, s.p.pad, s.p.out_hw(s.h, s.w))
        };
        assert_eq!(strip("mini_alexnet_conv1_strip"), (8, 0, (4, 15)));
        assert_eq!(strip("mini_alexnet_conv2_strip"), (12, 0, (7, 7)));
        assert_eq!(convs.len(), 6);
        assert_eq!(conv_backward_shapes().len(), 3);
    }

    #[test]
    fn flops_match_formulas() {
        let g = GemmShape {
            name: "t".into(),
            m: 2,
            k: 3,
            n: 4,
        };
        assert_eq!(g.flops(), 48.0);
        let c = ConvShape {
            name: "t".into(),
            batch: 1,
            h: 4,
            w: 4,
            p: Conv2dParams {
                in_c: 1,
                out_c: 1,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 0,
            },
        };
        // 2×2 output, 9-tap patches: 2·(1·4·9) FLOPs.
        assert_eq!(c.flops(), 2.0 * 4.0 * 9.0);
    }
}
