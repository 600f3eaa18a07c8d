//! Executable **integrated batch + domain parallel** CNN training —
//! the end-to-end analog of the paper's Fig. 10 regime, where the
//! batch-parallel limit `P = B` is passed by also splitting images into
//! horizontal strips.
//!
//! Processes form a `Pd × Pc` grid: rank `(i, j)` holds strip `i` of
//! every image in batch shard `j`. Eq. 9 assigns parallelism per layer,
//! and the shapes assign it here: a conv or pool stage stays
//! domain-parallel only while every strip of its input is at least one
//! kernel tall (`⌊in_h / Pd⌋ ≥ kh`, or `≥ k` for a pool; an LRN stage
//! follows the stage before it). The first stage that fails, and every
//! stage after it, runs batch-parallel over all `P` ranks, as does the FC
//! head. On `mini_alexnet` the domain prefix is conv1/LRN/pool1 for every
//! `Pd ≥ 2` and the whole trunk at `Pd = 1`: conv2's 5-row kernel would
//! read 7-row images cut into 1–2-row strips, with no interior row to
//! hide an exchange behind (Fig. 3). Per training step:
//!
//! * the **domain prefix** runs within the `Pd`-sized column groups —
//!   stride-1 same-padded convolutions, strided ones (AlexNet's conv1)
//!   and overlapping pooling (AlexNet's 3×3/2) alike — on the one window
//!   exchange of `distmm::domain_general`: non-blocking,
//!   boundary-proportional (for a same-padded kernel it is the fixed
//!   halo), with a layer's interior rows computed while its boundary rows
//!   are in flight. A convolution's backward is its `∆W` half, and above
//!   the first convolution its `∆X` half, which fetches the `∆Y` rows its
//!   strip's `∆X` reads and gathers them (Eq. 7's second halo; nothing is
//!   sent back). A pool's backward is the same gather: the `∆Y` rows
//!   whose windows touch the strip, with the argmax the forward saved as
//!   global input positions riding in the same message. A convolution's
//!   `∆W` half re-frames its input window from the strip and the rows its
//!   neighbours sent in the forward, which it kept: one `X` halo per
//!   convolution and iteration, as Eq. 7 charges, and no message. LRN is
//!   local to a strip;
//! * **at the boundary** one Eq. 6 relayout within the column group
//!   ([`distmm::rows::relayout`]) gives rank `(i, j)` whole images:
//!   `part_range(b_local, Pd, i)` of batch shard `j`. Each image then
//!   lives on exactly one rank, so no activation is computed twice, and
//!   the backward carries `∆X` back to strips by the same function;
//! * **past the boundary** the remaining stages call the same
//!   `domain_general` ops on the one-rank column group of a `1 × P` grid
//!   — no message, the same flops — and the **FC head** runs the
//!   scheduled iteration body every FC trainer runs ([`crate::trainer`]'s
//!   `forward_pass` / `backward_pass`) on that grid: replicated weights,
//!   this rank's images, `∆W` bucketed and summed over the world.
//!
//! Each trainer keeps one saved state per stage: the serial one a pool's
//! argmax, the domain one that or a convolution's halo, dropped once its
//! `∆W` is formed. The head's `∆W` and every conv layer's partial `∆W`
//! (over a strip in the prefix, over the rank's images past it) are one
//! chain of gradient buckets, and one scheduler sums them over the full
//! grid by non-blocking all-reduces — Eq. 9's terms as reductions over
//! `P` at full `|W|`. Each rank's plan ([`CnnSpec::plans`]) lists the
//! trunk's window fetches and relayouts, read off shapes by the tables
//! the exchanges run, and [`crate::overlap::buckets`] cuts the head's
//! layers followed by the trunk's convs on a clock that also charges the
//! exchanges that block the backward between two pushes. The head
//! launches the buckets its layers fill and leaves the one its last
//! layers opened to the trunk's partials, so a sum runs under the trunk
//! backward (Fig. 8) only where the rule finds it pays. On
//! `mini_alexnet` at B = 64 the cut depends on `Pd × Pc`, not on `P`
//! alone: the head's sum apart from the trunk's on 1×4; everything but
//! conv1's `∆W` in one bucket on 2×4 and 4×2, whose sum runs while the
//! relayout back to strips and pool1's `∆Y` fetch block the backward
//! (6.4 and 7.0 µs); one bucket on 4×4, whose gap (5.5 µs) is too short
//! to pay for a second all-reduce's α-steps. Every bucket is waited, in
//! launch order, in one optimizer step after the trunk backward. Above
//! the first convolution, a layer's `∆W` GEMM runs while its `∆Y` window
//! is in flight, as the forward's interior rows hide its `X` window. GEMM
//! flops are charged throughout.
//!
//! The serial reference and every grid shape produce identical weight
//! trajectories — the synchronous-SGD consistency the paper's
//! framework guarantees, now including halo exchanges, window
//! redistributions, the relayout, and the `∆Y` windows of the backward
//! pass, which carry pooling's argmax across strip boundaries. The
//! `mini_alexnet` tests below train a scaled AlexNet (strided conv1,
//! overlapping pools, 5 convs + 2 FC) this way.

use dnn::{LayerSpec, Network};
use mpsim::{Communicator, Error, NetModel, TraceConfig, World, WorldStats, WorldTrace};
use tensor::activation::{relu_backward_in_place, relu_in_place};
use tensor::conv::{conv2d, conv2d_backward_data, conv2d_backward_weights, Conv2dParams, Tensor4};
use tensor::init;
use tensor::lrn::{lrn_backward, lrn_forward, LrnParams};
use tensor::ops::axpy;
use tensor::pool::{maxpool2d, maxpool2d_backward, Pool2dParams};
use tensor::Matrix;

use distmm::dist::{intersect, part_range};
use distmm::domain_general as dg;
use distmm::onep5d::Grid;
use distmm::rows::{relayout, relayout_part, Split};

use crate::overlap::Grad;
use crate::plan::{chain, CommPlan, Exchange};
use crate::trainer::{
    backward_pass, forward_pass, init_weights, optimizer_step, serial_step, split_top, Act,
    FcLayer, Pass,
};
use collectives::cost::CostTerms;

/// One trunk stage.
#[derive(Debug, Clone)]
enum Stage {
    /// A convolution, and whether a ReLU follows it.
    Conv(Conv2dParams, bool),
    Pool(Pool2dParams),
    /// Local response normalization: per-pixel across channels, so it
    /// runs locally on strips with zero communication.
    Lrn(LrnParams),
}

impl Stage {
    /// A convolution's or pool's kernel, as `dg::windows` takes it: its
    /// rows, stride and padding.
    fn kernel(&self) -> Option<dg::Kernel> {
        match self {
            Stage::Conv(p, _) => Some((p.kh, p.stride, p.pad)),
            Stage::Pool(p) => Some((p.k, p.stride, 0)),
            Stage::Lrn(_) => None,
        }
    }
}

/// What a trunk stage's forward keeps on a strip for its backward,
/// besides its input and output: a convolution the input rows its
/// neighbours sent, a pool its argmax (LRN keeps nothing: an empty one).
enum Saved {
    Halo(distmm::rows::Halo),
    Argmax(Vec<usize>),
}

/// Why [`CnnSpec::of`] refuses a network.
#[derive(Debug, Clone, PartialEq)]
pub enum CnnSpecError {
    /// A conv, pooling or LRN layer after the FC head began.
    TrunkAfterHead(LayerSpec),
    /// A ReLU that follows no convolution or FC layer: it is the first
    /// layer, or it directly follows pooling or LRN.
    MisplacedRelu,
    /// A layer the CNN trainers do not run (tanh, …).
    Unsupported(LayerSpec),
    /// No conv, pooling or LRN stage.
    NoTrunk,
    /// No FC layer.
    NoHead,
}

impl std::fmt::Display for CnnSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TrunkAfterHead(l) => write!(f, "{l:?} after FC is unsupported"),
            Self::MisplacedRelu => f.write_str("ReLU first or after pooling/LRN is unsupported"),
            Self::Unsupported(l) => write!(f, "cnn trainer does not support {l:?}"),
            Self::NoTrunk => f.write_str("cnn trainer expects at least one trunk stage"),
            Self::NoHead => f.write_str("cnn trainer expects an FC head"),
        }
    }
}

impl std::error::Error for CnnSpecError {}

/// The CNN decomposition of a [`Network`]: a conv/pool trunk followed
/// by an FC head.
#[derive(Debug, Clone)]
pub struct CnnSpec {
    stages: Vec<Stage>,
    pub(crate) fcs: Vec<FcLayer>,
    /// Each stage's input `(C, H, W)`, then the shape entering the FC
    /// head.
    shapes: Vec<(usize, usize, usize)>,
    /// The first weighted trunk stage: backprop stops there, since
    /// nothing reads the input image's gradient. `None` (a pooling-only
    /// trunk): nothing reads the FC head's input gradient either.
    first_conv: Option<usize>,
}

impl CnnSpec {
    /// Extracts the trunk + FC-head structure, or says which layer the
    /// CNN trainers cannot run.
    pub fn of(net: &Network) -> Result<CnnSpec, CnnSpecError> {
        let mut stages: Vec<Stage> = Vec::new();
        let mut fcs: Vec<FcLayer> = Vec::new();
        let mut shapes = vec![(net.input.c, net.input.h, net.input.w)];
        for (spec, in_shape, out_shape) in net.layers() {
            let stage = match *spec {
                LayerSpec::Conv {
                    out_c,
                    kh,
                    kw,
                    stride,
                    pad,
                } => Stage::Conv(
                    Conv2dParams {
                        in_c: in_shape.c,
                        out_c,
                        kh,
                        kw,
                        stride,
                        pad,
                    },
                    false,
                ),
                LayerSpec::MaxPool { k, stride } => Stage::Pool(Pool2dParams { k, stride }),
                LayerSpec::LocalResponseNorm => Stage::Lrn(LrnParams::alexnet()),
                LayerSpec::FullyConnected { .. } => {
                    fcs.push(FcLayer {
                        d_in: in_shape.dim(),
                        d_out: out_shape.dim(),
                        act: Act::None,
                        split_in: false,
                    });
                    continue;
                }
                LayerSpec::ReLU => {
                    match (fcs.last_mut(), stages.last_mut()) {
                        (Some(f), _) => f.act = Act::Relu,
                        (None, Some(Stage::Conv(_, relu))) => *relu = true,
                        _ => return Err(CnnSpecError::MisplacedRelu),
                    }
                    continue;
                }
                LayerSpec::Dropout { .. } => continue, // identity here, as in trainer.rs
                ref other => return Err(CnnSpecError::Unsupported(other.clone())),
            };
            if !fcs.is_empty() {
                return Err(CnnSpecError::TrunkAfterHead(spec.clone()));
            }
            stages.push(stage);
            shapes.push((out_shape.c, out_shape.h, out_shape.w));
        }
        split_top(&mut fcs);
        match (stages.is_empty(), fcs.is_empty()) {
            (true, _) => Err(CnnSpecError::NoTrunk),
            (_, true) => Err(CnnSpecError::NoHead),
            _ => Ok(CnnSpec {
                first_conv: stages.iter().position(|s| matches!(s, Stage::Conv(..))),
                stages,
                fcs,
                shapes,
            }),
        }
    }

    /// How many leading trunk stages run domain-parallel over `pd`
    /// strips, and the height of the activation leaving them. A conv or
    /// pool stage stays domain-parallel only while every strip of its
    /// input is at least one kernel tall — `⌊in_h / pd⌋ ≥ kh`, `≥ k`
    /// for a pool — and an LRN stage follows the stage before it. The
    /// first stage that fails, and every stage after it, runs
    /// batch-parallel.
    fn domain_prefix(&self, pd: usize) -> (usize, usize) {
        let misses =
            |(k, s): (usize, &Stage)| s.kernel().is_some_and(|g| self.shapes[k].1 / pd < g.0);
        let k = (self.stages.iter().enumerate().position(misses)).unwrap_or(self.stages.len());
        (k, self.shapes[k].1)
    }

    /// Every rank's plan for a batch of `b` on the `pd × pc` grid under
    /// `model`, in rank order: the FC head's on the `1 × P` grid, where
    /// rank `r` holds its images of the batch, and whose chain of `∆W`
    /// buckets the convs' join ([`CommPlan::below`]), and the trunk's
    /// exchanges in the order they run ([`CommPlan::trunk`]), read off
    /// shapes by the tables the exchanges run ([`dg::windows`],
    /// [`relayout_part`]). A conv's `∆W` is its weights, its backward's
    /// flops on a rank's share of the batch's pixels (the first forms no
    /// ∆X) and no ∆X sum (windows are fetches); its [`Grad::gap`] is the
    /// exchanges between the push above it and its products. The buckets
    /// are the same on every rank.
    pub fn plans(&self, b: usize, (pd, pc): (usize, usize), model: &NetModel) -> Vec<CommPlan> {
        let (p, len, shapes) = (pd * pc, self.stages.len(), &self.shapes);
        let split = self.domain_prefix(pd).0;
        // Rank `r`'s strip, and the images of its batch shard.
        let seat = |r: usize| (r / pc, part_range(b, pc, r % pc).len());
        // The words of each message a rank of strip `i` receives when peer
        // `q` of its column group sends it `got(q)`.
        let messages = |i, got: &dyn Fn(usize) -> usize| {
            let all = (0..pd).map(|q| got(q) * usize::from(q != i));
            all.filter(|&k| k > 0).collect()
        };
        // Stage `idx`'s window fetch, of `∆Y` if `back` (a pool's with its
        // argmax): on strips in the prefix, on one rank past it.
        let fetch = |idx: usize, back: bool, r: usize| -> Vec<usize> {
            let ((c, h, w), (oc, oh, ow), (i, n)) = (shapes[idx], shapes[idx + 1], seat(r));
            let pool = usize::from(matches!(self.stages[idx], Stage::Pool(_)));
            let row = [c * w, (oc * ow) << pool][usize::from(back)] * n * usize::from(idx < split);
            let kernel = self.stages[idx].kernel().expect("a window");
            let win = dg::windows((pd, i), kernel, (h, oh), back);
            let rows = |q| intersect(&win.read_part[q], &win.needed[i]).len() * row;
            messages(i, &rows)
        };
        let relayout = |to, r: usize| -> Vec<usize> {
            let ((c, h, w), (i, n)) = (shapes[split], seat(r));
            let part = |q| relayout_part((pd, i), (n, h, w), to, q, true).1;
            messages(i, &|q| part(q).iter().product::<usize>() * c)
        };
        let (mut trunk, mut gap, mut below) = (vec![Vec::new(); p], CostTerms::ZERO, Vec::new());
        // One exchange on every rank, priced as the rank that waits
        // longest runs it: α plus β·words of the largest message any rank
        // receives, since a rank posts every receive before it waits.
        let mut post = |name, got: &dyn Fn(usize) -> Vec<usize>| {
            let got: Vec<Vec<usize>> = (0..p).map(got).collect();
            let most = got.iter().flatten().max().copied();
            (trunk.iter_mut().zip(got)).for_each(|(rows, got)| rows.push(Exchange(name, got)));
            most.map_or(CostTerms::ZERO, |n| CostTerms::new(1.0, n as f64))
        };
        let window = |idx| self.stages.get(idx).and_then(Stage::kernel).is_some();
        for idx in 0..=len {
            if idx == split {
                post("relayout", &|r| relayout(Split::Samples, r));
            }
            if window(idx) {
                post("fetch_rows", &|r| fetch(idx, false, r));
            }
        }
        for idx in (self.first_conv.unwrap_or(len)..len).rev() {
            if idx + 1 == split {
                gap += post("relayout", &|r| relayout(Split::Rows, r));
            }
            // Every stage in here but the first conv forms its ∆X.
            let dx = Some(idx) > self.first_conv;
            if window(idx) && dx {
                gap += post("fetch_rows", &|r| fetch(idx, true, r));
            }
            if let Stage::Conv(conv, _) = &self.stages[idx] {
                let (words, (_, oh, ow)) = (conv.out_c * conv.patch_len(), shapes[idx + 1]);
                let share = b as f64 / p as f64 * if dx { 2.0 } else { 1.0 };
                let flops = 2.0 * words as f64 * (oh * ow) as f64 * share;
                let (dx_sum, gap) = (CostTerms::ZERO, std::mem::take(&mut gap));
                below.push(Grad {
                    words,
                    flops,
                    dx_sum,
                    gap,
                });
            }
        }
        let (dx, fcs, one) = (!below.is_empty(), &self.fcs, [(1, p)]);
        let plan = |(r, trunk): (usize, Vec<Exchange>)| {
            let images = part_range(seat(r).1, pd, r / pc).len();
            let head = chain(fcs, b, &one, |_| (0, images), dx, &below, Some(model));
            CommPlan { trunk, ..head }
        };
        trunk.into_iter().enumerate().map(plan).collect()
    }

    fn init_weights(&self, seed: u64) -> (Vec<Matrix>, Vec<Matrix>) {
        let conv = |(s, seed): (&Stage, u64)| match s {
            Stage::Conv(p, _) => Some(init::xavier(p.out_c, p.patch_len(), seed)),
            Stage::Pool(_) | Stage::Lrn(_) => None,
        };
        let convs = self.stages.iter().zip(seed..).filter_map(conv);
        (convs.collect(), init_weights(&self.fcs, seed + 100))
    }
}

/// Training hyper-parameters (shared with the FC trainer).
pub use crate::trainer::TrainConfig;

/// Serial reference CNN training (full-batch SGD).
pub struct CnnSerialResult {
    /// Loss before each update.
    pub losses: Vec<f64>,
    /// Final conv weights (in conv-stage order).
    pub conv_weights: Vec<Matrix>,
    /// Final FC weights.
    pub fc_weights: Vec<Matrix>,
}

/// Serial full-batch SGD for the CNN.
///
/// # Panics
///
/// Panics with the [`CnnSpecError`]'s text if [`CnnSpec::of`] refuses
/// `net`, or if `x` does not have the network's input shape.
pub fn train_cnn_serial(
    net: &Network,
    x: &Tensor4,
    labels: &[usize],
    cfg: &TrainConfig,
) -> CnnSerialResult {
    let spec = CnnSpec::of(net).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!((x.c, x.h, x.w), spec.shapes[0], "input shape mismatch");
    let (mut conv_w, mut fc_w) = spec.init_weights(cfg.seed);
    let first = spec.first_conv;
    let mut losses = Vec::with_capacity(cfg.iters);
    for _ in 0..cfg.iters {
        // Trunk forward: `acts[k]` is stage `k`'s output (stage 0
        // reads `x`), `argmax[k]` its pool argmax (empty for conv and
        // LRN: ReLU's mask is read off the stage's output).
        let mut acts: Vec<Tensor4> = Vec::with_capacity(spec.stages.len());
        let mut argmax: Vec<Vec<usize>> = Vec::with_capacity(spec.stages.len());
        let mut wi = 0usize;
        for s in &spec.stages {
            let input = acts.last().unwrap_or(x);
            let (y, at) = match s {
                Stage::Conv(params, relu) => {
                    let mut y = conv2d(input, &conv_w[wi], params);
                    wi += 1;
                    if *relu {
                        relu_in_place(y.as_mut_slice());
                    }
                    (y, Vec::new())
                }
                Stage::Pool(params) => maxpool2d(input, params),
                Stage::Lrn(params) => (lrn_forward(input, params), Vec::new()),
            };
            acts.push(y);
            argmax.push(at);
        }
        // The FC head, whose input gradient feeds a weighted trunk; then
        // the trunk backward, down to its first weighted stage.
        let head_in = acts.last().expect("trunk out").to_columns();
        let sgd = |w: &mut [Matrix], k: usize, g: &[f64]| axpy(-cfg.lr, g, w[k].as_mut_slice());
        let (loss, dy) = serial_step(&spec.fcs, &mut fc_w, head_in, labels, first.is_some(), sgd);
        losses.push(loss);
        let (Some(dy), Some(first)) = (dy, first) else {
            continue;
        };
        let (c0, h0, w0) = spec.shapes[spec.stages.len()];
        let mut dt = Tensor4::from_columns(&dy, c0, h0, w0);
        let mut wi = conv_w.len();
        for (idx, s) in spec.stages.iter().enumerate().skip(first).rev() {
            let input = if idx == 0 { x } else { &acts[idx - 1] };
            match s {
                Stage::Conv(params, relu) => {
                    wi -= 1;
                    if *relu {
                        relu_backward_in_place(acts[idx].as_slice(), dt.as_mut_slice());
                    }
                    let dw = conv2d_backward_weights(input, &conv_w[wi], &dt, params);
                    if idx > first {
                        let rows = 0..input.h;
                        dt = conv2d_backward_data(&dt, 0, &conv_w[wi], params, rows, input.w);
                    }
                    axpy(-cfg.lr, dw.as_slice(), conv_w[wi].as_mut_slice());
                }
                Stage::Pool(_) => {
                    dt = maxpool2d_backward(&dt, &argmax[idx], input.h, input.w);
                }
                Stage::Lrn(params) => dt = lrn_backward(input, &dt, params),
            }
        }
    }
    CnnSerialResult {
        losses,
        conv_weights: conv_w,
        fc_weights: fc_w,
    }
}

/// Per-rank outcome of the distributed CNN run.
pub struct CnnRankOutcome {
    /// Scaled per-iteration loss share of the images this rank holds
    /// past the domain prefix (sums to the global loss over all ranks).
    pub partial_losses: Vec<f64>,
    /// Final conv weights (replicated — identical on every rank).
    pub conv_weights: Vec<Matrix>,
    /// Final FC weights (replicated).
    pub fc_weights: Vec<Matrix>,
}

/// Outcome of the distributed CNN run.
pub struct CnnDistResult {
    /// Domain extent.
    pub pd: usize,
    /// Batch extent.
    pub pc: usize,
    /// Per-rank outcomes in row-major grid order.
    pub per_rank: Vec<CnnRankOutcome>,
    /// Virtual time and traffic.
    pub stats: WorldStats,
}

impl CnnDistResult {
    /// Global loss per iteration: every rank's share summed, since each
    /// image lives on exactly one rank past the domain prefix.
    pub fn losses(&self) -> Vec<f64> {
        let iters = self.per_rank[0].partial_losses.len();
        (0..iters)
            .map(|t| self.per_rank.iter().map(|r| r.partial_losses[t]).sum())
            .collect()
    }

    /// Maximum weight divergence between any two ranks (should be ~0:
    /// all weights are replicated).
    pub fn replica_divergence(&self) -> f64 {
        fn weights(r: &CnnRankOutcome) -> impl Iterator<Item = &Matrix> {
            r.conv_weights.iter().chain(&r.fc_weights)
        }
        let (a, others) = (&self.per_rank[0], &self.per_rank[1..]);
        let pairs = others.iter().flat_map(|r| weights(r).zip(weights(a)));
        pairs.map(|(x, y)| x.max_abs_diff(y)).fold(0.0, f64::max)
    }
}

/// Distributed integrated batch+domain CNN training on a `pd × pc`
/// grid over the simulated cluster.
///
/// # Panics
///
/// Panics with the [`CnnSpecError`]'s text if [`CnnSpec::of`] refuses
/// `net`, and, naming the rank, if a collective fails on any rank.
pub fn train_cnn_domain(
    net: &Network,
    x: &Tensor4,
    labels: &[usize],
    cfg: &TrainConfig,
    pd: usize,
    pc: usize,
    model: NetModel,
) -> CnnDistResult {
    let off = TraceConfig::disabled();
    train_cnn_domain_traced(net, x, labels, cfg, pd, pc, model, off).0
}

/// [`train_cnn_domain`] with per-rank event tracing: the head's
/// `trainer` phase spans, the `sched` instants of the gradient scheduler
/// (over the whole grid), the non-blocking sums' `nb` instants and
/// `channel` transfers, a `distmm` span per window fetch and per
/// relayout, and one `optimizer_step` span per iteration after the trunk
/// backward.
///
/// # Panics
///
/// As [`train_cnn_domain`].
#[allow(clippy::too_many_arguments)]
pub fn train_cnn_domain_traced(
    net: &Network,
    x: &Tensor4,
    labels: &[usize],
    cfg: &TrainConfig,
    pd: usize,
    pc: usize,
    model: NetModel,
    trace: TraceConfig,
) -> (CnnDistResult, WorldTrace) {
    let spec = CnnSpec::of(net).unwrap_or_else(|e| panic!("{e}"));
    let plans = spec.plans(x.n, (pd, pc), &model);
    train_planned(&spec, (x, labels), cfg, (pd, pc), model, trace, &plans)
}

/// [`train_cnn_domain_traced`] with rank `r` running `plans[r]`.
fn train_planned(
    spec: &CnnSpec,
    (x, labels): (&Tensor4, &[usize]),
    cfg: &TrainConfig,
    (pd, pc): (usize, usize),
    model: NetModel,
    trace: TraceConfig,
    plans: &[CommPlan],
) -> (CnnDistResult, WorldTrace) {
    let (first_conv, len) = (spec.first_conv, spec.stages.len());
    let (split, split_h) = spec.domain_prefix(pd);
    let b_global = x.n;
    // Drawn once; every rank starts from its own copy of the replica.
    let ((conv_w0, fc_w0), nf) = (spec.init_weights(cfg.seed), spec.fcs.len());
    let p = pd * pc;
    let rank_body = |comm: &Communicator| -> Result<CnnRankOutcome, Error> {
        // Row-major `pd × pc`: i = strip index (domain), j = batch
        // shard; the column group shares a batch shard. Past the domain
        // prefix every rank holds whole images of its own: the `1 × P`
        // grid, whose one-rank column groups send nothing and whose row
        // is the world, runs the rest of the trunk and the FC head.
        let Grid { i, j, col_comm, .. } = Grid::new(comm, pd, pc)?;
        let (batch, plan) = (Grid::new(comm, 1, p)?, &plans[comm.rank()]);
        // Stage `idx`'s group: its strips' column, or past the prefix its
        // own rank; and where its output sits in `acts`: past the prefix
        // one slot up, behind the prefix's output as whole images.
        let group = |idx| [&col_comm, &batch.col_comm][usize::from(idx >= split)];
        let at = |idx| idx + usize::from(idx >= split);

        // The FC weights, then the conv weights: one list for the one
        // drain of the ∆W buckets.
        let mut w: Vec<Matrix> = fc_w0.iter().chain(&conv_w0).cloned().collect();
        let batch_range = part_range(b_global, pc, j);
        let b_local = batch_range.len();
        let x_shard = x.block(batch_range.clone(), part_range(x.h, pd, i), 0..x.w);
        let mut apply =
            |w: &mut [Matrix], k: usize, g: &[f64]| axpy(-cfg.lr, g, w[k].as_mut_slice());

        let mut partial_losses = Vec::with_capacity(cfg.iters);
        for iter in 0..cfg.iters {
            // Trunk forward: `acts[at(k)]` is stage `k`'s output (stage 0
            // reads `x_shard`), `saved[k]` what its backward reads besides.
            let mut acts: Vec<Tensor4> = Vec::with_capacity(len + 1);
            let mut saved: Vec<Saved> = Vec::with_capacity(len);
            let mut wi = nf;
            for idx in 0..=len {
                if idx == split {
                    // Eq. 6 within the column group: whole images from here.
                    let strips = acts.last().unwrap_or(&x_shard);
                    let whole = relayout(&col_comm, strips, (b_local, split_h), Split::Samples)?;
                    acts.push(whole);
                }
                let Some(s) = spec.stages.get(idx) else {
                    break;
                };
                let (c, input) = (group(idx), acts.last().unwrap_or(&x_shard));
                let h = spec.shapes[idx].1;
                let (y, kept) = match s {
                    Stage::Conv(params, relu) => {
                        let (mut y, halo) = dg::conv_forward_halo(c, input, &w[wi], params, h)?;
                        wi += 1;
                        if *relu {
                            relu_in_place(y.as_mut_slice());
                        }
                        (y, Saved::Halo(halo))
                    }
                    Stage::Pool(params) => {
                        let (y, argmax) = dg::pool_forward(c, input, params, h)?;
                        (y, Saved::Argmax(argmax))
                    }
                    // Per-pixel across channels: strictly local on strips
                    // — zero communication, as the cost model assumes for
                    // normalization layers.
                    Stage::Lrn(params) => (lrn_forward(input, params), Saved::Argmax(vec![])),
                };
                acts.push(y);
                saved.push(kept);
            }
            // The FC head: the shared iteration body on the `1 × P` grid —
            // replicated weights, this rank's images, ∆W bucketed for one
            // sum over the world.
            let (c0, h0, w0) = spec.shapes[len];
            let pass = Pass {
                grids: std::slice::from_ref(&batch),
                guard: None,
                layers: &spec.fcs,
                x_local: &acts[acts.len() - 1].to_columns(),
                // The images of the shard this rank holds past the prefix.
                labels_local: &labels[batch_range.clone()][part_range(b_local, pd, i)],
                b_global,
                iter,
                plan,
            };
            let tape = forward_pass(&pass, &w)?;
            partial_losses.push(tape.loss);
            // The head launches the buckets its layers fill and leaves the
            // last one it opened to the trunk's partials.
            let (sched, dy, _) = backward_pass(&pass, tape, &mut w, &mut apply)?;
            let mut sched = sched.expect("the head is scheduled");
            let (Some(dy), Some(first)) = (dy, first_conv) else {
                optimizer_step(comm, iter, Some(sched), &mut w, &mut apply)?;
                continue;
            };
            let mut dt = Tensor4::from_columns(&dy, c0, h0, w0);
            // Trunk backward, down to its first weighted stage. Each conv's
            // partial ∆W is formed while the layer's ∆Y window is in flight
            // (conv1, with no ∆X half, on its own) and bucketed for one sum
            // over the whole grid — Eq. 9's reduction over P, not one over
            // the strips and one over the batch shards — and applied at the
            // drain: every ∆X was formed from the weights before the update.
            let mut wi = w.len();
            for (idx, s) in spec.stages.iter().enumerate().skip(first).rev() {
                if idx + 1 == split {
                    // Back to strips, by the same relayout.
                    dt = relayout(&col_comm, &dt, (b_local, split_h), Split::Rows)?;
                }
                let (c, out, h) = (group(idx), at(idx), spec.shapes[idx].1);
                let input = if out == 0 { &x_shard } else { &acts[out - 1] };
                match (s, saved.pop().expect("one saved state per stage")) {
                    (Stage::Conv(params, relu), Saved::Halo(halo)) => {
                        wi -= 1;
                        if *relu {
                            relu_backward_in_place(acts[out].as_slice(), dt.as_mut_slice());
                        }
                        let (w, mut dw) = (&w[wi], None);
                        let form_dw = || {
                            dw = Some(dg::conv_backward_partial(c, input, halo, w, &dt, params, h))
                        };
                        if idx > first {
                            dt = dg::conv_backward_data(c, w, &dt, params, h, input.w, form_dw)?;
                        } else {
                            form_dw();
                        }
                        sched.push(wi, dw.expect("∆W formed"))?;
                    }
                    (Stage::Pool(params), Saved::Argmax(argmax)) => {
                        dt = dg::pool_backward(c, &dt, &argmax, params, h, input.w)?;
                    }
                    (Stage::Lrn(params), _) => dt = lrn_backward(input, &dt, params),
                    _ => unreachable!("a stage's saved state is the one its forward kept"),
                }
                // Stage `idx`'s output was read for the last time: let it
                // go before the gradient sums are drained.
                acts.truncate(out);
            }
            sched.flush()?;
            // Every bucket waited in launch order, the head's first.
            optimizer_step(comm, iter, Some(sched), &mut w, &mut apply)?;
        }
        let conv_weights = w.split_off(nf);
        Ok(CnnRankOutcome {
            partial_losses,
            conv_weights,
            fc_weights: w,
        })
    };
    let (outcomes, stats, traces) = World::run_traced_with_stats(pd * pc, model, trace, rank_body);
    let per_rank = outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, r)| r.unwrap_or_else(|e| panic!("rank {rank} of the {pd}x{pc} grid: {e}")))
        .collect();
    let result = CnnDistResult {
        pd,
        pc,
        per_rank,
        stats,
    };
    (result, traces)
}

/// Synthetic NCHW classification data for a CNN.
pub fn synthetic_images(net: &Network, b: usize, seed: u64) -> (Tensor4, Vec<usize>) {
    let classes = net.output().dim();
    (
        init::uniform_tensor(b, net.input.c, net.input.h, net.input.w, -1.0, 1.0, seed),
        init::labels(b, classes, seed.wrapping_add(1)),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dnn::zoo::mini_alexnet;
    use dnn::{NetworkBuilder, Shape};

    /// The rule's cut of the whole CNN's ∆W on `cnn_domain`'s grids
    /// (`mini_alexnet`, B = 64, Cori KNL): one chain, the head's two FC
    /// layers (3 776 words) then the five convs (9 336), conv1's 1 176
    /// last. On 1×4 the head's sum hides behind the trunk backward. On
    /// 2×4 and 4×2 every sum but conv1's is launched at conv2's push and
    /// runs while the relayout back to strips and pool1's `∆Y` window
    /// block the backward; on 4×4 that gap is shorter and one sum of every
    /// weight drains first.
    #[test]
    fn the_rule_cuts_the_whole_cnn_on_cnn_domain() {
        let (net, model) = (mini_alexnet(), NetModel::cori_knl());
        let spec = CnnSpec::of(&net).expect("a CNN");
        let split = &[11_936, 1_176][..];
        let cuts = [((1, 4), &[3_776, 9_336][..]), ((2, 4), split)];
        for (grid, cut) in cuts
            .into_iter()
            .chain([((4, 4), &[13_112][..]), ((4, 2), split)])
        {
            for (r, plan) in spec.plans(64, grid, &model).iter().enumerate() {
                assert_eq!(plan.buckets.as_deref(), Some(cut), "{grid:?} rank {r}");
            }
        }
    }

    /// `cnn_domain`'s four grids (`mini_alexnet`, B = 64, two
    /// iterations, Cori KNL) keep their makespans to the bit: 60.5, 95.9,
    /// 103.1 and 108.1 µs, 367.61 µs in all (372.09 µs while the rule's
    /// clock did not see the trunk's exchanges and merged the whole CNN on
    /// 2×4 and 4×2, 381.45 µs while the head's and the trunk's sums were
    /// cut apart and ran one after the other).
    #[test]
    fn cnn_domain_keeps_its_makespans() {
        let net = mini_alexnet();
        let (x, labels) = synthetic_images(&net, 64, 7);
        let cfg = TrainConfig {
            lr: 0.05,
            iters: 2,
            seed: 18,
        };
        let golden = [
            ((1, 4), 6.0514517333333334e-5),
            ((2, 4), 9.591379199999998e-5),
            ((4, 4), 1.0305899733333334e-4),
            ((4, 2), 1.0812610133333334e-4),
        ];
        for ((pd, pc), want) in golden {
            let r = train_cnn_domain(&net, &x, &labels, &cfg, pd, pc, NetModel::cori_knl());
            let got = r.stats.makespan();
            assert_eq!(got, want, "{pd}x{pc}: {got:e}");
        }
    }

    /// `net` trained on the `pd × pc` grid, each rank's buckets the ones
    /// `cut` makes of its plan's gradients in place of the rule's: the
    /// CNN twin of [`crate::trainer::tests::train_cut`].
    pub(crate) fn train_cnn_cut(
        net: &Network,
        (x, labels): (&Tensor4, &[usize]),
        cfg: &TrainConfig,
        (pd, pc): (usize, usize),
        model: NetModel,
        cut: impl Fn(&[Grad]) -> Vec<usize>,
    ) -> CnnDistResult {
        let spec = CnnSpec::of(net).expect("a CNN");
        let plans: Vec<CommPlan> = (spec.plans(x.n, (pd, pc), &model).into_iter())
            .map(|rule| CommPlan {
                buckets: Some(cut(&rule.grads())),
                ..rule
            })
            .collect();
        let off = TraceConfig::disabled();
        train_planned(&spec, (x, labels), cfg, (pd, pc), model, off, &plans).0
    }

    fn tiny_cnn() -> Network {
        NetworkBuilder::new("tiny-cnn", Shape::new(2, 12, 6))
            .conv_relu(4, 3, 1, 1)
            .conv_relu(4, 1, 1, 0) // a 1x1 stage: zero-halo path
            .conv_relu(3, 3, 1, 1)
            .layer(LayerSpec::FullyConnected { out: 16 })
            .layer(LayerSpec::ReLU)
            .layer(LayerSpec::FullyConnected { out: 5 })
            .build()
            .unwrap()
    }

    fn max_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn serial_cnn_loss_decreases() {
        let net = tiny_cnn();
        let (x, labels) = synthetic_images(&net, 10, 3);
        let r = train_cnn_serial(
            &net,
            &x,
            &labels,
            &TrainConfig {
                lr: 0.05,
                iters: 15,
                seed: 5,
            },
        );
        assert!(
            r.losses.last().unwrap() < &(r.losses[0] * 0.95),
            "{:?}",
            r.losses
        );
    }

    #[test]
    fn domain_grids_match_serial() {
        let net = tiny_cnn();
        let (x, labels) = synthetic_images(&net, 8, 3);
        let cfg = TrainConfig {
            lr: 0.05,
            iters: 4,
            seed: 5,
        };
        let serial = train_cnn_serial(&net, &x, &labels, &cfg);
        for (pd, pc) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 2)] {
            let dist = train_cnn_domain(&net, &x, &labels, &cfg, pd, pc, NetModel::free());
            let dc = max_diff(&serial.conv_weights, &dist.per_rank[0].conv_weights);
            let df = max_diff(&serial.fc_weights, &dist.per_rank[0].fc_weights);
            assert!(dc < 1e-9 && df < 1e-9, "grid {pd}x{pc}: conv {dc} fc {df}");
            for (s, g) in serial.losses.iter().zip(dist.losses()) {
                assert!((s - g).abs() < 1e-9, "grid {pd}x{pc}: loss {s} vs {g}");
            }
            assert!(dist.replica_divergence() < 1e-12, "grid {pd}x{pc}");
        }
    }

    #[test]
    fn beyond_batch_limit_grid_works() {
        // The Fig. 10 situation: more processes than samples. B = 2 on
        // P = 8 = 4 strips x 2 batch shards, then on 1 x 4 and 2 x 4,
        // where half the batch shards are empty and contribute loss 0,
        // not the NaN of a mean over nothing.
        let net = tiny_cnn();
        let (x, labels) = synthetic_images(&net, 2, 7);
        let cfg = TrainConfig {
            lr: 0.05,
            iters: 3,
            seed: 5,
        };
        let serial = train_cnn_serial(&net, &x, &labels, &cfg);
        for (pd, pc) in [(4, 2), (1, 4), (2, 4)] {
            let dist = train_cnn_domain(&net, &x, &labels, &cfg, pd, pc, NetModel::free());
            assert!(max_diff(&serial.conv_weights, &dist.per_rank[0].conv_weights) < 1e-9);
            assert!(max_diff(&serial.fc_weights, &dist.per_rank[0].fc_weights) < 1e-9);
            for (s, g) in serial.losses.iter().zip(dist.losses()) {
                assert!((s - g).abs() < 1e-9, "grid {pd}x{pc}: loss {s} vs {g}");
            }
        }
    }

    #[test]
    fn domain_split_charges_halo_traffic() {
        let net = tiny_cnn();
        let (x, labels) = synthetic_images(&net, 4, 9);
        let cfg = TrainConfig {
            lr: 0.05,
            iters: 1,
            seed: 5,
        };
        let d1 = train_cnn_domain(&net, &x, &labels, &cfg, 1, 2, NetModel::cori_knl());
        let d4 = train_cnn_domain(&net, &x, &labels, &cfg, 4, 2, NetModel::cori_knl());
        // Domain split introduces halo + strip-gather traffic on top of
        // the weight all-reduces.
        assert!(d4.stats.total_words() > d1.stats.total_words());
        assert!(d4.stats.makespan() > 0.0);
    }

    /// The domain prefix is read off shapes and `pd` alone: a stage stays
    /// on strips while each strip holds one kernel.
    #[test]
    fn the_domain_prefix_keeps_the_stages_whose_strips_hold_a_kernel() {
        let alex = CnnSpec::of(&mini_alexnet()).unwrap();
        // conv1 (7 rows of 35), LRN, pool1 (3 of 15); conv2's 5-row
        // kernel does not fit a strip of 7 rows for any pd ≥ 2.
        for pd in [2, 3, 4, 5] {
            assert_eq!(alex.domain_prefix(pd), (3, 7), "pd = {pd}");
        }
        assert_eq!(alex.domain_prefix(1), (alex.stages.len(), 3));
        assert_eq!(alex.domain_prefix(6).0, 0, "5-row strips of 35");
        // tiny_cnn's 12 rows hold its 3-row kernels up to pd = 4, so the
        // 1×1 zero-halo stage runs on strips there.
        let tiny = CnnSpec::of(&tiny_cnn()).unwrap();
        for pd in 1..=4 {
            assert_eq!(tiny.domain_prefix(pd), (3, 12), "pd = {pd}");
        }
        assert_eq!(tiny.domain_prefix(5), (0, 12));
    }

    /// The flagship: a scaled AlexNet — strided conv1, overlapping 3x3/2
    /// pools, five convs, two FC layers — trained end-to-end with
    /// integrated batch+domain parallelism, matching serial with
    /// bit-identical replicas. The splits include the awkward ones:
    /// uneven strips and sub-batches (B = 10 on 3×2 and 4×3), and ranks
    /// that hold no image past the domain prefix (B = 4 on 4×4 and 2×8).
    #[test]
    fn mini_alexnet_trains_with_domain_parallelism() {
        let net = mini_alexnet();
        let cfg = TrainConfig {
            lr: 0.02,
            iters: 2,
            seed: 23,
        };
        let grids: [(usize, &[(usize, usize)]); 2] = [
            (4, &[(2, 1), (2, 2), (3, 1), (4, 4), (2, 8)]),
            (10, &[(3, 2), (4, 3)]),
        ];
        for (b, grids) in grids {
            let (x, labels) = synthetic_images(&net, b, 17);
            let serial = train_cnn_serial(&net, &x, &labels, &cfg);
            for &(pd, pc) in grids {
                let dist = train_cnn_domain(&net, &x, &labels, &cfg, pd, pc, NetModel::free());
                let dc = max_diff(&serial.conv_weights, &dist.per_rank[0].conv_weights);
                let df = max_diff(&serial.fc_weights, &dist.per_rank[0].fc_weights);
                assert!(dc < 1e-9 && df < 1e-9, "B={b} {pd}x{pc}: conv {dc} fc {df}");
                for (s, g) in serial.losses.iter().zip(dist.losses()) {
                    assert!((s - g).abs() < 1e-9, "B={b} {pd}x{pc}: loss {s} vs {g}");
                }
                assert_eq!(dist.replica_divergence(), 0.0, "B={b} {pd}x{pc}");
            }
        }
    }

    #[test]
    fn pooling_only_trunk_is_supported() {
        let net = NetworkBuilder::new("convpool", Shape::new(1, 8, 4))
            .conv_relu(2, 3, 1, 1)
            .layer(LayerSpec::MaxPool { k: 2, stride: 2 })
            .layer(LayerSpec::FullyConnected { out: 3 })
            .build()
            .unwrap();
        let (x, labels) = synthetic_images(&net, 4, 2);
        let cfg = TrainConfig {
            lr: 0.05,
            iters: 3,
            seed: 3,
        };
        let serial = train_cnn_serial(&net, &x, &labels, &cfg);
        let dist = train_cnn_domain(&net, &x, &labels, &cfg, 2, 2, NetModel::free());
        assert!(max_diff(&serial.conv_weights, &dist.per_rank[0].conv_weights) < 1e-9);
    }

    fn spec_of(input: Shape, layers: &[LayerSpec]) -> Result<CnnSpec, CnnSpecError> {
        let net = (layers.iter().cloned())
            .fold(NetworkBuilder::new("probe", input), NetworkBuilder::layer)
            .build()
            .unwrap();
        CnnSpec::of(&net)
    }

    const FC: LayerSpec = LayerSpec::FullyConnected { out: 3 };
    const POOL: LayerSpec = LayerSpec::MaxPool { k: 2, stride: 2 };
    const CONV: LayerSpec = LayerSpec::Conv {
        out_c: 2,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };

    #[test]
    fn a_trunk_stage_after_the_head_is_rejected() {
        // The head's output is 3×1×1: a 1×1 window fits it.
        let pool = LayerSpec::MaxPool { k: 1, stride: 1 };
        for stage in [CONV, pool, LayerSpec::LocalResponseNorm] {
            let got = spec_of(Shape::new(2, 8, 8), &[CONV, FC, stage.clone()]);
            assert_eq!(got.unwrap_err(), CnnSpecError::TrunkAfterHead(stage));
        }
    }

    #[test]
    fn relu_after_pooling_or_lrn_is_rejected() {
        let relu = LayerSpec::ReLU;
        for stage in [POOL, LayerSpec::LocalResponseNorm] {
            let got = spec_of(Shape::new(2, 8, 8), &[CONV, stage, relu.clone(), FC]);
            assert_eq!(got.unwrap_err(), CnnSpecError::MisplacedRelu);
        }
        let first = spec_of(Shape::new(2, 8, 8), &[relu, CONV, FC]);
        assert_eq!(first.unwrap_err(), CnnSpecError::MisplacedRelu);
    }

    #[test]
    fn an_unsupported_layer_is_rejected() {
        let got = spec_of(Shape::new(2, 8, 8), &[CONV, LayerSpec::Tanh, FC]);
        assert_eq!(got.unwrap_err(), CnnSpecError::Unsupported(LayerSpec::Tanh));
    }

    #[test]
    fn a_cnn_without_a_trunk_is_rejected() {
        let got = spec_of(Shape::new(2, 8, 8), &[FC, LayerSpec::ReLU, FC]);
        assert_eq!(got.unwrap_err(), CnnSpecError::NoTrunk);
    }

    #[test]
    fn headless_cnn_is_rejected() {
        let net = NetworkBuilder::new("headless", Shape::new(1, 4, 4))
            .conv_relu(2, 3, 1, 1)
            .build()
            .unwrap();
        assert_eq!(CnnSpec::of(&net).unwrap_err(), CnnSpecError::NoHead);
    }
}
