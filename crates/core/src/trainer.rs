//! Executable distributed SGD — the end-to-end validation that the
//! paper's 1.5D scheme computes *exactly* the same training trajectory
//! as serial mini-batch SGD (the paper's framework is synchronous and
//! "obeys the sequential consistency of the original algorithm").
//!
//! Supports FC networks (MLPs / unrolled RNNs) — the pure chain of
//! `Y = W·X` products the paper's algebra describes. A convolutional
//! trunk trains in [`crate::cnn`] (domain parallelism,
//! `distmm::domain_general`), whose FC head runs the same
//! `forward_pass`/`backward_pass` pair as every trainer here. That pair
//! runs the collectives the rank's plan lists ([`crate::plan::plan`]):
//! which one each layer's forward and backward issue, and the ∆W
//! buckets of a scheduled run.
//!
//! Dropout layers are treated as identity (inference-mode): randomized
//! masks would make the serial-vs-distributed comparison seed-order
//! dependent without touching communication at all.

use std::borrow::Cow;

use collectives::{allreduce_riding, iallreduce_riding, IallreduceHandle, ReduceOp};
use dnn::{LayerSpec, Network};
use mpsim::{Communicator, Error, NetModel, TraceConfig, World, WorldStats, WorldTrace};
use tensor::activation::{
    relu_backward_in_place, relu_in_place, softmax_xent, tanh_backward_in_place, tanh_in_place,
};
use tensor::init;
use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b};
use tensor::ops::{self, axpy};
use tensor::Matrix;

use distmm::dist::{col_shard, row_shard};
use distmm::onep5d::{
    backward_dw_deferred, backward_with, dw_partial, dy_block, forward_into, forward_summed,
    y_partial, Grid, Guard,
};

use crate::overlap::OverlapPlan;
use crate::plan::{plan, CommPlan, Dx, Forward};

/// Activation following an FC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Act {
    None,
    Relu,
    Tanh,
}

/// One trainable FC layer extracted from a [`Network`].
#[derive(Debug, Clone)]
pub struct FcLayer {
    pub(crate) d_in: usize,
    pub(crate) d_out: usize,
    pub(crate) act: Act,
    /// `Pr` splits `W`'s input columns, not its output rows
    /// ([`distmm::onep5d`]'s input-split product; see [`split_top`]).
    pub(crate) split_in: bool,
}

impl FcLayer {
    /// `(d, w)`: the extent `Pr` splits — `d_in` when input-split,
    /// `d_out` otherwise — and the other one.
    pub(crate) fn split_dims(&self) -> (usize, usize) {
        [(self.d_out, self.d_in), (self.d_in, self.d_out)][self.split_in as usize]
    }

    /// `m`, of this layer's shape or a block of it, with the split
    /// extent as its rows: transposed when input-split. Its own inverse.
    pub(crate) fn orient<'m>(&self, m: Cow<'m, Matrix>) -> Cow<'m, Matrix> {
        match self.split_in {
            true => Cow::Owned(m.transpose()),
            false => m,
        }
    }

    /// The full matrix from its blocks along the split extent, in order.
    pub(crate) fn stack<'a>(&self, blocks: impl Iterator<Item = &'a Matrix>) -> Matrix {
        let parts: Vec<_> = blocks.map(|b| self.orient(Cow::Borrowed(b))).collect();
        let full = Matrix::vcat(parts.iter().map(|b| b.as_ref()));
        self.orient(Cow::Owned(full)).into_owned()
    }
}

/// The one rule for which dimension `Pr` splits: the top of a chain of
/// two or more layers is input-split when `d_out < 2·d_in` (every
/// classifier head). Its input then stays in the row blocks the layer
/// below formed, and its `∆X` is the block that layer reads, for one
/// all-reduce of the output: `(Pr − 1)/Pr·(2·d_in − d_out)·B/Pc` words
/// fewer per rank ([`distmm::onep5d`]).
pub(crate) fn split_top(layers: &mut [FcLayer]) {
    if let [_, .., top] = layers {
        top.split_in = top.d_out < 2 * top.d_in;
    }
}

/// Extracts the FC-layer chain from a network.
///
/// # Panics
///
/// Panics if the network contains conv/pool layers (see module docs).
pub fn extract_fc_layers(net: &Network) -> Vec<FcLayer> {
    let mut out: Vec<FcLayer> = Vec::new();
    for (spec, in_shape, out_shape) in net.layers() {
        match spec {
            LayerSpec::FullyConnected { .. } => {
                out.push(FcLayer {
                    d_in: in_shape.dim(),
                    d_out: out_shape.dim(),
                    act: Act::None,
                    split_in: false,
                });
            }
            LayerSpec::ReLU | LayerSpec::Tanh => {
                let relu = matches!(spec, LayerSpec::ReLU);
                let l = out.last_mut().expect("activation must follow an FC layer");
                l.act = if relu { Act::Relu } else { Act::Tanh };
            }
            LayerSpec::Dropout { .. } => {} // identity in this trainer
            other => panic!("trainer supports FC networks only, found {other:?}"),
        }
    }
    assert!(!out.is_empty(), "network has no FC layers");
    split_top(&mut out);
    out
}

/// Deterministic initial weights for every layer. Drawn once per run —
/// by the serial trainer, or by a distributed entry point *before* it
/// starts the world, whose ranks then cut their shards out of the one
/// shared set ([`shard_weights`]).
pub(crate) fn init_weights(layers: &[FcLayer], seed: u64) -> Vec<Matrix> {
    layers
        .iter()
        .enumerate()
        .map(|(i, l)| init::xavier(l.d_out, l.d_in, seed.wrapping_add(i as u64)))
        .collect()
}

/// This rank's shard of every layer's weights: its grid row's block of
/// the layer's split extent on the layer's own grid (see
/// [`layer_grid`]) — rows, or the columns of an input-split top.
pub(crate) fn shard_weights(layers: &[FcLayer], full: &[Matrix], grids: &[Grid]) -> Vec<Matrix> {
    let shard = |(l, w)| {
        let (grid, layer) = (layer_grid(grids, l), &layers[l]);
        let block = row_shard(&layer.orient(Cow::Borrowed(w)), grid.pr, grid.i);
        layer.orient(Cow::Owned(block)).into_owned()
    };
    full.iter().enumerate().map(shard).collect()
}

/// Layer `l`'s grid: `grids[l]`, the last entry serving every layer
/// past it, so a one-element slice is the uniform grid.
fn layer_grid(grids: &[Grid], l: usize) -> &Grid {
    &grids[l.min(grids.len() - 1)]
}

/// Applies a layer's activation in place: `y` arrives as the
/// pre-activation and leaves as the layer's output. No trainer keeps
/// the pre-activation — every backward below needs only the output
/// (see [`act_backward`]).
pub(crate) fn apply_act(act: Act, y: &mut Matrix) {
    match act {
        Act::None => {}
        Act::Relu => relu_in_place(y.as_mut_slice()),
        Act::Tanh => tanh_in_place(y.as_mut_slice()),
    }
}

/// Back-propagates `dy` through a layer's activation in place, given
/// the matching elements `post` of the layer's *output*: tanh's
/// derivative is a function of its output, and ReLU's mask `[pre > 0]`
/// equals `[post > 0]`.
pub(crate) fn act_backward(act: Act, post: &[f64], dy: &mut Matrix) {
    assert_eq!(post.len(), dy.len(), "activation backward shape mismatch");
    match act {
        Act::None => {}
        Act::Relu => relu_backward_in_place(post, dy.as_mut_slice()),
        Act::Tanh => tanh_backward_in_place(post, dy.as_mut_slice()),
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// SGD learning rate η.
    pub lr: f64,
    /// Number of iterations (each over the full provided batch —
    /// full-batch gradient descent keeps the serial/distributed
    /// comparison exact without a data loader).
    pub iters: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 0.1,
            iters: 10,
            seed: 7,
        }
    }
}

/// Outcome of a serial training run.
#[derive(Debug, Clone)]
pub struct SerialResult {
    /// Loss before each update.
    pub losses: Vec<f64>,
    /// Final weights per layer.
    pub weights: Vec<Matrix>,
}

/// Serial reference: full-batch SGD on one process.
pub fn train_serial(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
) -> SerialResult {
    let layers = extract_fc_layers(net);
    let mut weights = init_weights(&layers, cfg.seed);
    let sgd = |w: &mut [Matrix], l: usize, g: &[f64]| axpy(-cfg.lr, g, w[l].as_mut_slice());
    let losses = (0..cfg.iters)
        .map(|_| serial_step(&layers, &mut weights, x.clone(), labels, false, sgd).0)
        .collect();
    SerialResult { losses, weights }
}

/// One serial SGD step of an FC chain on the batch `x`: forward, loss,
/// backward, every layer's `∆W` reaching `apply(w, layer, ∆W)` once its
/// `∆X` is formed from the pre-update weights. The step stops at the
/// first layer unless `input_grad` — a trunk in front of the chain
/// reads the input's gradient ([`crate::cnn`]). Returns the loss and
/// that gradient.
pub(crate) fn serial_step(
    layers: &[FcLayer],
    w: &mut [Matrix],
    x: Matrix,
    labels: &[usize],
    input_grad: bool,
    mut apply: impl FnMut(&mut [Matrix], usize, &[f64]),
) -> (f64, Option<Matrix>) {
    let mut inputs = vec![x];
    for (l, wl) in layers.iter().zip(&*w) {
        let mut y = matmul(wl, inputs.last().expect("input"));
        apply_act(l.act, &mut y);
        inputs.push(y);
    }
    let (loss, mut dy) = softmax_xent(inputs.last().expect("logits"), labels);
    for (idx, l) in layers.iter().enumerate().rev() {
        act_backward(l.act, inputs[idx + 1].as_slice(), &mut dy);
        let dw = matmul_a_bt(&dy, &inputs[idx]);
        let dx = (idx > 0 || input_grad).then(|| matmul_at_b(&w[idx], &dy));
        apply(w, idx, dw.as_slice());
        let Some(dx) = dx else { return (loss, None) };
        dy = dx;
    }
    (loss, Some(dy))
}

/// Per-rank outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// Grid row (model-shard index).
    pub i: usize,
    /// Grid column (batch-shard index).
    pub j: usize,
    /// This rank's share of the loss per iteration
    /// (`local_loss · b_local / B`; sums to the global loss over one
    /// grid row).
    pub partial_losses: Vec<f64>,
    /// Final local weight shards (block `part_range(d, pr, i)` of each
    /// layer's split extent `d`: its output rows, or the input columns
    /// of an input-split top).
    pub weight_shards: Vec<Matrix>,
}

/// Outcome of a distributed run: every rank's result plus world stats.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Grid extent `Pr`.
    pub pr: usize,
    /// Grid extent `Pc`.
    pub pc: usize,
    /// Per-rank outcomes (row-major rank order).
    pub per_rank: Vec<RankOutcome>,
    /// Virtual-time and traffic statistics.
    pub stats: WorldStats,
    /// The trained chain: which extent each layer's shards split.
    pub(crate) layers: Vec<FcLayer>,
}

impl DistResult {
    /// Global loss history (summed over the batch shards of grid row
    /// 0).
    pub fn losses(&self) -> Vec<f64> {
        let iters = self.per_rank[0].partial_losses.len();
        (0..iters)
            .map(|t| {
                self.per_rank
                    .iter()
                    .filter(|r| r.i == 0)
                    .map(|r| r.partial_losses[t])
                    .sum()
            })
            .collect()
    }

    /// Assembles the full weight matrices from the shards held by grid
    /// column 0.
    pub fn weights(&self) -> Vec<Matrix> {
        let ranks = self.per_rank.iter().map(|r| (r.i, r.j, &r.weight_shards));
        assemble_weights(&self.layers, ranks)
    }

    /// Measured fraction of executed collective transfer time that was
    /// hidden behind compute (see
    /// [`WorldStats::measured_overlap_fraction`]): 0 for
    /// [`train_1p5d`] (everything blocking), positive for
    /// [`train_1p5d_scheduled`]. Compare against the paper's analytic
    /// 2/3 backprop fraction
    /// ([`crate::overlap::PAPER_BACKPROP_FRACTION`]).
    pub fn measured_overlap_fraction(&self) -> f64 {
        self.stats.measured_overlap_fraction()
    }

    /// Every grid column must hold identical replicas of its row's
    /// weight shard; returns the maximum discrepancy (should be ~0).
    pub fn replica_divergence(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in &self.per_rank {
            // `per_rank` is in row-major rank order, so row `i`'s
            // column-0 replica sits at `i · pc`.
            let reference = &self.per_rank[r.i * self.pc];
            assert_eq!((reference.i, reference.j), (r.i, 0), "row-major order");
            for (a, b) in r.weight_shards.iter().zip(&reference.weight_shards) {
                worst = worst.max(a.max_abs_diff(b));
            }
        }
        worst
    }
}

/// Stacks the shards held by grid column 0 — `(i, j, shards)` per rank
/// — back into full per-layer weight matrices ([`FcLayer::stack`]).
pub(crate) fn assemble_weights<'a>(
    layers: &[FcLayer],
    ranks: impl Iterator<Item = (usize, usize, &'a Vec<Matrix>)>,
) -> Vec<Matrix> {
    let mut col0: Vec<(usize, &Vec<Matrix>)> = ranks
        .filter(|&(_, j, _)| j == 0)
        .map(|(i, _, shards)| (i, shards))
        .collect();
    col0.sort_by_key(|&(i, _)| i);
    let stack = |(l, layer): (usize, &FcLayer)| layer.stack(col0.iter().map(|(_, w)| &w[l]));
    layers.iter().enumerate().map(stack).collect()
}

/// Distributed full-batch SGD on a `pr × pc` grid over the `mpsim`
/// virtual cluster, every collective blocking. Data and initial weights
/// are derived from the same seeds as [`train_serial`], so the
/// trajectories are comparable element-wise.
pub fn train_1p5d(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
) -> DistResult {
    train_1p5d_traced(net, x, labels, cfg, pr, pc, model, TraceConfig::disabled()).0
}

/// [`train_1p5d`] with per-rank event tracing (see [`mpsim::trace`]):
/// returns the usual [`DistResult`] plus the recorded [`WorldTrace`],
/// with `trainer`-category spans delimiting forward/backward phases and
/// per-layer work on top of the simulator's own compute/comm spans.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_traced(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    trace: TraceConfig,
) -> (DistResult, WorldTrace) {
    let blocking = |l: &[FcLayer], r| plan(l, x.cols(), &[(pr, pc)], r, false, None);
    train_grid(net, x, labels, cfg, &[(pr, pc)], model, trace, blocking)
}

/// The one world runner behind the plain entry points and
/// [`crate::mixed::train_mixed`]: `shapes` holds one `(pr, pc)` per
/// layer (the last serving every layer past it — one entry is the
/// uniform grid), and each rank runs the plan `plans(layers, rank)`
/// makes it once per run ([`crate::plan::plan`] of the same shapes;
/// a test may swap in buckets of its own). Every rank runs the shared
/// [`forward_pass`]/[`backward_pass`] pair unguarded with a plain SGD
/// `axpy` as the optimizer apply. The result's `pr`/`pc` and every
/// [`RankOutcome`]'s `(i, j)` are layer 0's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_grid(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    shapes: &[(usize, usize)],
    model: NetModel,
    trace: TraceConfig,
    plans: impl Fn(&[FcLayer], usize) -> CommPlan + Sync,
) -> (DistResult, WorldTrace) {
    let layers = extract_fc_layers(net);
    let b_global = x.cols();
    let full_weights = init_weights(&layers, cfg.seed);
    let (pr, pc) = shapes[0];
    let (per_rank, stats, traces) = World::run_traced_with_stats(pr * pc, model, trace, |comm| {
        let grids: Vec<Grid> = shapes
            .iter()
            .map(|&(pr, pc)| Grid::new(comm, pr, pc).expect("grid tiles the world"))
            .collect();
        let (first, last) = (&grids[0], &grids[grids.len() - 1]);
        let mut w_local = shard_weights(&layers, &full_weights, &grids);
        // An unsplit batch is the caller's matrix itself.
        let x_local = if pc == 1 {
            Cow::Borrowed(x)
        } else {
            Cow::Owned(col_shard(x, pc, first.j))
        };
        // The loss is taken where the logits land.
        let labels_local = &labels[last.x_cols(b_global)];
        let plan = plans(&layers, comm.rank());
        let mut apply =
            |w: &mut [Matrix], k: usize, g: &[f64]| axpy(-cfg.lr, g, w[k].as_mut_slice());
        let mut partial_losses = Vec::with_capacity(cfg.iters);
        for it in 0..cfg.iters {
            let pass = Pass {
                grids: &grids,
                guard: None,
                layers: &layers,
                x_local: &x_local,
                labels_local,
                b_global,
                iter: it,
                plan: &plan,
            };
            let tape = forward_pass(&pass, &w_local).expect("forward");
            partial_losses.push(tape.loss);
            let (sched, ..) =
                backward_pass(&pass, tape, &mut w_local, &mut apply).expect("backward");
            optimizer_step(&first.row_comm, it, sched, &mut w_local, &mut apply).expect("step");
        }
        RankOutcome {
            i: first.i,
            j: first.j,
            partial_losses,
            weight_shards: w_local,
        }
    });
    let result = DistResult {
        pr,
        pc,
        per_rank,
        stats,
        layers,
    };
    (result, traces)
}

/// One rank's view of one iteration: everything the shared
/// [`forward_pass`]/[`backward_pass`] pair reads besides the weight
/// shards it updates.
pub(crate) struct Pass<'a> {
    /// One grid per layer, the last serving every layer past it (see
    /// [`layer_grid`]): `std::slice::from_ref(&grid)` is the uniform
    /// run. `plan` was made for the same shapes.
    pub(crate) grids: &'a [Grid],
    /// The check on every local GEMM. How the collectives treat faults
    /// is the policy of the communicator `grids` were built on.
    pub(crate) guard: Guard<'a>,
    pub(crate) layers: &'a [FcLayer],
    /// The batch shard of layer 0's grid column.
    pub(crate) x_local: &'a Matrix,
    /// The labels of the *last* layer's grid column — where the logits
    /// land.
    pub(crate) labels_local: &'a [usize],
    pub(crate) b_global: usize,
    /// Iteration number, carried on every phase span of the trace.
    pub(crate) iter: usize,
    /// This rank's plan: which collective each layer runs, and whether
    /// the ∆W sums are blocking, applied layer by layer, or bucketed —
    /// each ∆X sum then hidden behind its layer's ∆W product, and the
    /// buckets launched through a [`BucketScheduler`] that
    /// [`backward_pass`] returns for [`optimizer_step`] to drain.
    pub(crate) plan: &'a CommPlan,
}

/// What [`forward_pass`] leaves for [`backward_pass`].
pub(crate) struct Tape {
    /// `acts[l]` is layer `l`'s output — the input of layer `l + 1`;
    /// the last entry holds the logits. Layer 0's input is the pass's
    /// `x_local`, borrowed. Pre-activations are not kept (see
    /// [`act_backward`]). Each stays in its own layer's column layout —
    /// the backward mask needs it there — and below an input-split top it
    /// is this rank's row block alone.
    acts: Vec<Matrix>,
    /// The inputs that had to be re-laid because `Pc` changed on
    /// entering their layer, in layer order (backward pops them); empty
    /// on a uniform grid, where layer `l + 1` reads `acts[l]` itself.
    relaid: Vec<Matrix>,
    /// `∂loss/∂logits`, already rescaled to the global `1/B`.
    grad: Matrix,
    /// This rank's share of the global loss
    /// (`local_loss · b_local / B`; sums to the global loss over one
    /// grid row).
    pub(crate) loss: f64,
    /// Words that ride layer 0's ∆W sum over the row group, after its
    /// gradient (none unless the caller sets them; see [`backward_pass`]).
    pub(crate) riders: Vec<f64>,
}

/// The forward half of the one iteration body (Eq. 8: all-gather
/// `W_i·X_j` over `Pr`, layer by layer), then the loss gradient, each
/// layer running the [`Forward`] its plan lists. Every layer's output is
/// gathered straight into its tape entry and activated there — except
/// below an input-split top ([`FcLayer::split_in`]), which keeps its row
/// block, while the top sums its output over `Pr` ([`forward_summed`]).
/// Where the plan re-lays a layer's input (the batch split changes) the
/// activation is re-laid first, and the tape keeps the re-laid copy (an
/// input-split layer's row block of it) as that layer's input.
pub(crate) fn forward_pass(p: &Pass<'_>, w: &[Matrix]) -> Result<Tape, Error> {
    let (grids, guard, layers) = (p.grids, p.guard, p.layers);
    let comm = &grids[0].row_comm;
    let mut acts: Vec<Matrix> = Vec::with_capacity(layers.len());
    let mut relaid = Vec::new();
    {
        let _fwd = comm.trace_span("trainer", "forward", &[("iter", p.iter as f64)]);
        for (idx, (l, step)) in layers.iter().zip(&p.plan.layers).enumerate() {
            let _layer = comm.trace_span("trainer", "layer_fwd", &[("layer", idx as f64)]);
            let grid = layer_grid(grids, idx);
            let mut x = acts.last().unwrap_or(p.x_local);
            if step.relaid {
                let full = layer_grid(grids, idx - 1).relayout_cols(grid, x, p.b_global)?;
                relaid.push(match step.forward {
                    Forward::Sum => dy_block(grid, Cow::Owned(full)).into_owned(),
                    _ => full,
                });
                x = relaid.last().expect("just pushed");
            }
            let mut y = match step.forward {
                Forward::Sum => forward_summed(grid, &w[idx], x, guard)?,
                Forward::Keep => y_partial(grid, &w[idx], x, guard)?,
                Forward::Gather => forward_into(grid, &w[idx], x, l.d_out, guard)?,
            };
            apply_act(l.act, &mut y);
            acts.push(y);
        }
    }
    let logits = acts.last().expect("logits");
    let (loss_local, mut grad) = softmax_xent(logits, p.labels_local);
    // softmax_xent normalizes by the *local* batch; rescale to the
    // global 1/B of the paper's Eq. 1 so the ∆W all-reduce sums to the
    // global mean gradient.
    let scale = logits.cols() as f64 / p.b_global as f64;
    ops::scale(scale, grad.as_mut_slice());
    Ok(Tape {
        acts,
        relaid,
        grad,
        loss: loss_local * scale,
        riders: Vec::new(),
    })
}

/// What [`backward_pass`] hands on: the scheduler with its buckets in
/// flight (scheduled), `∂loss/∂x_local` (when asked for), and the sums
/// of the tape's riders (when they rode a blocking layer-0 sum).
pub(crate) type Backward = (Option<BucketScheduler>, Option<Matrix>, Vec<f64>);

/// The backward half of the one iteration body (Eq. 8: all-reduce `∆W`
/// over `Pc`; `∆X` over `Pr`, run as the reduce-scatter of the rows the
/// layer below reads), up to the optimizer step: every summed `∆W_i`
/// reaches `apply(w, layer, summed)` exactly once, here or in
/// [`optimizer_step`]. Which collectives run is the pass's plan
/// ([`crate::plan::plan`]): each layer's [`Dx`], and the ∆W buckets.
///
/// The gradient carried from layer to layer is this rank's row block
/// `∆Y_{i,j}` ([`Grid::w_rows`]), never the full-depth `∆Y_j`: the loss
/// gradient is cut to its rows once, each activation backward reads the
/// same rows of the saved output in place, and each layer's `∆X`
/// reduce-scatter leaves exactly the next block. An input-split top
/// ([`Forward::Sum`], [`Dx::Local`]) reads the whole loss gradient, and
/// its local `∆X` already is the block the layer below reads: no sum. Where a
/// layer's input was re-laid (the batch split changes,
/// [`crate::mixed::train_mixed`]), the blocks are gathered back to full
/// depth over the column group — the all-reduce's other half, so those
/// words are an all-reduce's — re-laid, and cut to the lower grid's
/// rows.
///
/// Blocking (the plan cuts no buckets): each layer's ∆W is summed and
/// applied on the spot — ∆X was already formed from the pre-update
/// weights — and no scheduler is returned. Scheduled
/// ([`backward_dw_deferred`]): each layer's ∆X sum is on the channel
/// while its ∆W product runs, ∆W partials flush through a
/// [`BucketScheduler`] while backprop continues (Fig. 8), and each
/// layer's push drives a chunk of the oldest bucket still being issued.
/// The pass launches the buckets its layers fill and returns the
/// scheduler with them in flight: the caller waits them with
/// [`optimizer_step`], at once (the FC trainers), or first pushes the
/// conv trunk's partials into the bucket the head left open and flushes
/// it ([`crate::cnn`]).
///
/// Where the plan forms layer 0's ∆X, `∂loss/∂x_local` is returned at
/// full depth: a trunk in front of the FC chain back-propagates it
/// further ([`crate::cnn`]). An FC network's input has no use for it —
/// the paper does "not need to backpropagate the gradient beyond the
/// first layer", and Eq. 8 prices no ∆X term there — so otherwise
/// ([`Dx::Skip`]) layer 0 runs its ∆W partial alone ([`dw_partial`]): no
/// ∆X GEMM and no column-group sum, every weight bit unchanged.
///
/// With [`Dx::Skip`], the tape's [`Tape::riders`] ride layer 0's ∆W
/// sum after its gradient, no block of the sum cut for them
/// ([`allreduce_riding`]), so every ∆W bit is what it is without them.
/// Blocking, their sums are the third value returned (empty when none
/// rode); scheduled, they ride layer 0's bucket and [`optimizer_step`]
/// returns their sums.
pub(crate) fn backward_pass(
    p: &Pass<'_>,
    tape: Tape,
    w: &mut [Matrix],
    apply: &mut impl FnMut(&mut [Matrix], usize, &[f64]),
) -> Result<Backward, Error> {
    let (grids, guard, steps) = (p.grids, p.guard, &p.plan.layers);
    let comm = &grids[0].row_comm;
    let iter_arg = [("iter", p.iter as f64)];
    let Tape {
        acts,
        mut relaid,
        grad,
        mut riders,
        ..
    } = tape;
    let input_grad = steps[0].dx != Dx::Skip;
    let mut sched = p.plan.buckets.as_deref().map(|lens| {
        let rides = (!input_grad).then(|| std::mem::take(&mut riders));
        BucketScheduler::new(comm, lens, rides.unwrap_or_default())
    });
    let (top, split) = (
        steps.len() - 1,
        steps[steps.len() - 1].forward == Forward::Sum,
    );
    let cut = |g| dy_block(layer_grid(grids, top), Cow::Owned(g)).into_owned();
    let mut dy = if split { grad } else { cut(grad) };
    {
        let _bwd = comm.trace_span("trainer", "backward", &iter_arg);
        for (idx, (l, step)) in p.layers.iter().zip(steps).enumerate().rev() {
            let _layer = comm.trace_span("trainer", "layer_bwd", &[("layer", idx as f64)]);
            let grid = layer_grid(grids, idx);
            // The saved output's rows that `dy` holds: all of them when
            // the layer kept its block or is input-split.
            let (all, bloc) = (acts[idx].rows() == dy.rows(), dy.cols());
            let from = if all { 0 } else { grid.w_rows(l.d_out).start };
            let post = &acts[idx].as_slice()[from * bloc..][..dy.len()];
            act_backward(l.act, post, &mut dy);
            let popped;
            let xl = if step.relaid {
                popped = relaid.pop().expect("forward re-laid this input");
                &popped
            } else if idx == 0 {
                p.x_local
            } else {
                &acts[idx - 1]
            };
            if step.dx == Dx::Skip {
                let dw = dw_partial(grid, xl, &dy, guard)?;
                if let Some(sched) = &mut sched {
                    sched.push(idx, dw)?;
                } else {
                    let (k, mut buf) = (riders.len(), dw.into_vec());
                    buf.append(&mut riders);
                    allreduce_riding(&grid.row_comm, &mut buf, k, ReduceOp::Sum)?;
                    riders = buf.split_off(buf.len() - k);
                    apply(w, idx, &buf);
                }
                break;
            }
            let local = step.dx == Dx::Local;
            let dx = match &mut sched {
                None => {
                    let (dw, dx) = backward_with(grid, &w[idx], xl, &dy, guard, local)?;
                    apply(w, idx, dw.as_slice());
                    dx
                }
                Some(sched) => {
                    let (dw, dx) = backward_dw_deferred(grid, &w[idx], xl, &dy, guard, local)?;
                    sched.push(idx, dw)?;
                    dx
                }
            };
            dy = match step.relaid {
                true => {
                    let to = layer_grid(grids, idx - 1);
                    let full = grid.gather_rows(dx, l.d_in)?;
                    let relaid = grid.relayout_cols(to, &full, p.b_global)?;
                    dy_block(to, Cow::Owned(relaid)).into_owned()
                }
                false => dx,
            };
        }
        if let Some(sched) = &mut sched {
            sched.flush()?;
        }
    }
    let dx = input_grad.then(|| grids[0].gather_rows(dy, p.layers[0].d_in));
    Ok((sched, dx.transpose()?, riders))
}

/// The optimizer step that ends an iteration: waits every bucket
/// `sched` launched, in launch order, applying each summed segment as
/// `apply(w, layer, summed)` once its wait completes — one
/// `optimizer_step` span on `comm`'s trace, or an instant when the
/// backward was blocking and applied as it went (`sched` is `None`).
/// Returns the sums of the words that rode the buckets, if any did
/// ([`Tape::riders`]).
pub(crate) fn optimizer_step(
    comm: &Communicator,
    iter: usize,
    sched: Option<BucketScheduler>,
    w: &mut [Matrix],
    apply: &mut impl FnMut(&mut [Matrix], usize, &[f64]),
) -> Result<Vec<f64>, Error> {
    let iter_arg = [("iter", iter as f64)];
    let Some(sched) = sched else {
        comm.trace_instant("trainer", "optimizer_step", &iter_arg);
        return Ok(Vec::new());
    };
    let _step = comm.trace_span("trainer", "optimizer_step", &iter_arg);
    sched.drain(|k, g| apply(w, k, g))
}

/// One gradient bucket in flight (or already settled locally).
struct PendingBucket {
    /// The row-group sum in flight (of no step over a single-member row
    /// group, whose partial already is the sum).
    handle: IallreduceHandle,
    /// `(layer, words)` segments fused into the bucket, in fusion
    /// order (descending layer — backward fills buckets from the last
    /// layer down).
    segs: Vec<(usize, usize)>,
}

/// DDP-style gradient buckets for one backward pass: deferred per-layer
/// ∆W partials are fused (in push order) into flat buffers, cut where
/// [`crate::overlap::buckets`] cuts them, once for the run, whose
/// row-group sums launch as non-blocking all-reduces the moment a
/// bucket's last layer is pushed. On a CNN one scheduler serves the FC
/// head and then the conv trunk ([`crate::cnn`]): the head's backward
/// leaves the bucket its last layers opened for the trunk's partials to
/// fill. Besides launching, it
///
/// * records every launch as a zero-duration `sched`/`bucket_flush`
///   trace event, so `trace_analyze` can see the schedule without
///   perturbing the leaf-time partition;
/// * drives one chunk step of the oldest bucket still being issued
///   after every push (a `sched`/`progress_poll` instant; the replay's
///   walk, [`crate::plan::walk`], which [`crate::overlap::buckets`] cuts
///   by, models this policy, and must follow any change to it), keeping
///   per-handle memory bounded and making pipelining visible
///   mid-backward;
/// * waits every bucket in launch order at one drain point
///   ([`BucketScheduler::drain`]).
///
/// Chunk steps issue in launch order — one SPMD order every row-group
/// member agrees on, which keeps the mixed-outstanding-handle schedule
/// deadlock-free (sends are eager; the minimal blocked program position
/// always has its matching send already issued on the peer). A rank's
/// channel serves steps in the order they are *issued*, so no bucket can
/// overtake an earlier one, and layer 0's — the first the next forward
/// reads — is launched last (on a CNN, the first conv's): waiting any
/// other order would only move the same barrier.
pub(crate) struct BucketScheduler {
    comm: Communicator,
    /// The words of each bucket still to fill, riders excluded, in
    /// reverse launch order: the last entry is the open bucket's.
    lens: Vec<usize>,
    pending: Vec<PendingBucket>,
    /// The open bucket's words so far, its partials in push order, and
    /// its `(layer, words)` segments.
    staged: (Vec<f64>, Vec<(usize, usize)>),
    /// Words that ride the last bucket, after its segments: no block of
    /// the sum is cut for them ([`iallreduce_riding`]), and
    /// [`BucketScheduler::drain`] returns their sums.
    riders: Vec<f64>,
}

impl BucketScheduler {
    /// `comm` is the group to sum over (the grid's row group; the whole
    /// grid for the CNN); `lens` are the words of each bucket, in launch
    /// order.
    pub(crate) fn new(comm: &Communicator, lens: &[usize], riders: Vec<f64>) -> Self {
        BucketScheduler {
            comm: comm.clone(),
            lens: lens.iter().rev().copied().collect(),
            pending: Vec::new(),
            staged: Default::default(),
            riders,
        }
    }

    /// Stages layer `idx`'s local ∆W partial, launches the bucket once
    /// its last layer is in — all but the last bucket, which
    /// [`BucketScheduler::flush`] launches when backward is done — then
    /// polls. The bucket is stored once: its first partial reserves its
    /// length, riders included, and each partial is copied in, except a
    /// partial that is the whole bucket and carries no rider, which is
    /// taken as it is. Panics if the open bucket cannot hold the partial.
    pub(crate) fn push(&mut self, idx: usize, dw: Matrix) -> Result<(), Error> {
        let open = *self.lens.last().expect("a bucket is open");
        let rides = self.riders.len() * usize::from(self.lens.len() == 1);
        let (data, segs) = &mut self.staged;
        let staged = data.len() + dw.len();
        assert!(staged <= open, "layer {idx}: {staged} ∆W words past {open}");
        segs.push((idx, dw.len()));
        if data.is_empty() && (staged, rides) == (open, 0) {
            *data = dw.into_vec();
        } else {
            data.reserve_exact(open + rides - data.len());
            data.extend_from_slice(dw.as_slice());
        }
        if self.lens.len() > 1 && staged == open {
            self.flush()?;
        }
        self.poll()
    }

    /// Launches the open bucket if its partials fill it, the riders
    /// appended after the last one's segments, recording a `bucket_flush`
    /// instant; a bucket still short waits for more partials (the CNN
    /// head's last, for the trunk's). Over a single-member row group the
    /// all-reduce has no step, and [`collectives::iallreduce`] counts no
    /// launch, so the launch counts that normalize the measured overlap
    /// fraction hold none.
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        if self.staged.0.len() < *self.lens.last().expect("a bucket is open") {
            return Ok(());
        }
        let (mut data, segs) = std::mem::take(&mut self.staged);
        self.lens.pop();
        let rides = self.riders.len() * usize::from(self.lens.is_empty());
        data.extend(self.riders.drain(..rides));
        // Weight indices; on a CNN the FC layers' come before the convs'.
        let layers = || segs.iter().map(|s| s.0 as f64);
        self.comm.trace_instant(
            "sched",
            "bucket_flush",
            &[
                ("words", data.len() as f64),
                ("min_layer", layers().fold(f64::MAX, f64::min)),
                ("max_layer", layers().fold(0.0, f64::max)),
                ("pending", (self.pending.len() + 1) as f64),
            ],
        );
        let handle = iallreduce_riding(&self.comm, data, rides, ReduceOp::Sum)?;
        self.pending.push(PendingBucket { handle, segs });
        Ok(())
    }

    /// Drives one chunk step of the oldest bucket still being issued,
    /// recording a `progress_poll` instant when a step was driven.
    fn poll(&mut self) -> Result<(), Error> {
        let in_flight = self.pending.len();
        if let Some(b) = self.pending.iter_mut().find(|b| !b.handle.issued()) {
            b.handle.progress()?;
            self.comm
                .trace_instant("sched", "progress_poll", &[("pending", in_flight as f64)]);
        }
        Ok(())
    }

    /// Waits every bucket in launch order, applying each one's segments
    /// as its wait completes, and returns the riders' sums, if words
    /// rode. Panics if a bucket is still open: its partials fell short.
    pub(crate) fn drain(self, mut apply: impl FnMut(usize, &[f64])) -> Result<Vec<f64>, Error> {
        let segs = &self.staged.1;
        assert!(self.lens.is_empty(), "bucket {segs:?} drained short");
        let mut riders = Vec::new();
        for bucket in self.pending {
            let summed = bucket.handle.wait()?;
            let mut at = 0;
            for (idx, len) in bucket.segs {
                apply(idx, &summed[at..at + len]);
                at += len;
            }
            riders.extend_from_slice(&summed[at..]);
        }
        Ok(riders)
    }
}

/// [`train_1p5d`] with **executed communication/computation overlap**
/// (the paper's Fig. 8, run rather than modelled): each layer's ∆W
/// partial is fused DDP-style into the buckets
/// [`crate::overlap::buckets`] cuts from the layers' shapes, the grid and
/// `model`, whose row-group sums are launched non-blocking the moment a
/// bucket's last layer is in, and progress on the per-rank
/// comm channel while backprop keeps computing ∆X and earlier layers'
/// products. The communication is *scheduled*, not merely launched:
///
/// * Each layer's ∆X all-reduce is launched before the same layer's
///   ∆W product and waited after it (bit-identical values).
/// * Each backward layer polls the oldest bucket still being issued,
///   and every bucket is waited, in launch order, at one drain point
///   before the optimizer step.
///
/// Synchronous SGD semantics are preserved: the trajectory matches
/// [`train_serial`] up to the reduction-order noise of fusing layer
/// shards into shared buckets (~1 ulp; replicas within a row group
/// remain bitwise identical). On grids of 2-rank groups its weights are
/// the retired overlap engine's to the bit. Golden constants in this
/// module's tests pin its clock and weights.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_scheduled(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    _: OverlapPlan,
) -> DistResult {
    train_1p5d_scheduled_traced(net, x, labels, cfg, pr, pc, model, TraceConfig::disabled()).0
}

/// [`train_1p5d_scheduled`] with per-rank event tracing: the usual
/// `trainer` phase spans plus the scheduler's `sched`-category
/// `bucket_flush`/`progress_poll` instants, the overlapped ∆W
/// transfers as `channel`-track spans and their exposed remainder as
/// `drain` spans at the optimizer step.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_scheduled_traced(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    trace: TraceConfig,
) -> (DistResult, WorldTrace) {
    let (b, sched) = (x.cols(), Some(&model));
    let scheduled = |l: &[FcLayer], r| plan(l, b, &[(pr, pc)], r, false, sched);
    train_grid(net, x, labels, cfg, &[(pr, pc)], model, trace, scheduled)
}

/// Synthetic classification data shaped for a network: inputs in
/// `[-1, 1)` and uniform labels over the output classes, both
/// seed-deterministic.
pub fn synthetic_data(net: &Network, b: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let d0 = net.input.dim();
    let classes = net.output().dim();
    (
        init::uniform(d0, b, -1.0, 1.0, seed),
        init::labels(b, classes, seed.wrapping_add(1)),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dnn::zoo::{mlp, mlp_tiny, rnn_unrolled};

    /// Asserts `r` reproduces `[makespan bits, total overlapped seconds
    /// bits, FNV-1a over every rank's final weight bits]`. On the 2×2
    /// grid the FNV word is the retired overlap engine's, recorded at the
    /// last commit that shipped it (d11a3ce; see DESIGN.md §10); on the
    /// grids with a 4-rank group it was re-recorded when all-reduces
    /// began running the selected schedule, whose recursive halving sums
    /// in another order (a 2-rank sum is one addition either way). The
    /// clock words were re-recorded with every change to what the
    /// iteration runs. Every golden was recorded under the 8 192-word buckets the
    /// scheduler cut before the rule, which the tests now name
    /// ([`scheduled_at_8192`]).
    fn assert_pr3_golden(r: &DistResult, golden: [u64; 3]) {
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for v in r.per_rank.iter().flat_map(|rank| &rank.weight_shards) {
            for b in v.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()) {
                fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let got = [
            r.stats.makespan().to_bits(),
            r.stats.total_overlapped_secs().to_bits(),
            fnv,
        ];
        assert_eq!(
            got, golden,
            "grid {}x{}: [makespan, overlapped, weight fnv] {got:#018x?} vs golden {golden:#018x?}",
            r.pr, r.pc
        );
    }

    fn max_weight_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn serial_training_decreases_loss() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 32, 5);
        let r = train_serial(
            &net,
            &x,
            &labels,
            &TrainConfig {
                lr: 0.5,
                iters: 30,
                seed: 7,
            },
        );
        assert!(
            r.losses.last().unwrap() < &(r.losses[0] * 0.9),
            "loss {} -> {}",
            r.losses[0],
            r.losses.last().unwrap()
        );
    }

    #[test]
    fn grid_training_matches_serial_exactly() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let cfg = TrainConfig {
            lr: 0.3,
            iters: 8,
            seed: 7,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 2)] {
            let dist = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::free());
            let diff = max_weight_diff(&serial.weights, &dist.weights());
            assert!(diff < 1e-9, "grid {pr}x{pc}: weight diff {diff}");
            for (a, b) in serial.losses.iter().zip(dist.losses()) {
                assert!((a - b).abs() < 1e-9, "grid {pr}x{pc}: loss {a} vs {b}");
            }
        }
    }

    #[test]
    fn overlap_is_never_slower_and_hides_dw_traffic() {
        // A network model where communication is substantial relative to
        // compute, so hiding the ∆W all-reduce is visible in the
        // makespan.
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let net = mlp("m", &[64, 96, 96, 10]);
        let (x, labels) = synthetic_data(&net, 32, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 1,
        };
        // (grid, golden). On 4×2 the input-split top takes 24 of the 96
        // input columns a rank, and no layer is ragged.
        let goldens = [
            (
                (1, 4),
                [0x3f5ddea703a946a6, 0x3f49c511dc3a41e5, 0x84f268c29eb9e7bd],
            ),
            (
                (2, 4),
                [0x3f515a569ed95ab7, 0x3f2d064b1db59d87, 0x56edffb9165bb77d],
            ),
            (
                (4, 2),
                [0x3f4d5cff81cd418a, 0x3f40868af40f5be9, 0x91dd22eb0b26ae85],
            ),
        ];
        for ((pr, pc), golden) in goldens {
            let serialized = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
            let overlapped = scheduled_at_8192(&net, (&x, &labels), &cfg, (pr, pc), model);
            assert_pr3_golden(&overlapped, golden);
            let t_ser = serialized.stats.makespan();
            let t_ovl = overlapped.stats.makespan();
            assert!(
                t_ovl <= t_ser + 1e-12,
                "grid {pr}x{pc}: overlap slower ({t_ovl} vs {t_ser})"
            );
            // Over Pr = 1 the ∆W buckets hide behind backward; over Pr > 1
            // the shards fill one bucket (8 160 and 4 080 words, under the
            // 8 192-word threshold), launched at layer 0 with nothing left
            // to run beside it, and what hides is each ∆X sum behind its
            // layer's ∆W GEMM.
            let fraction = overlapped.measured_overlap_fraction();
            assert!((0.0..=1.0).contains(&fraction), "grid {pr}x{pc}");
            assert!(
                overlapped.stats.total_overlapped_secs() > 0.0 && fraction > 0.0,
                "grid {pr}x{pc}: some transfer time was hidden"
            );
            assert_eq!(serialized.measured_overlap_fraction(), 0.0);
            let (_, _, nb_ar, _) = overlapped.stats.total_collective_calls();
            assert!(nb_ar > 0, "non-blocking launches were counted");
        }
    }

    #[test]
    fn replicas_stay_in_sync() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, 9);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 3,
        };
        let dist = train_1p5d(&net, &x, &labels, &cfg, 2, 2, NetModel::free());
        assert!(dist.replica_divergence() < 1e-12);
    }

    #[test]
    fn rnn_style_network_trains_distributed() {
        let net = rnn_unrolled(20, 16, 3, 4);
        let (x, labels) = synthetic_data(&net, 12, 11);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 6,
            seed: 13,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let dist = train_1p5d(&net, &x, &labels, &cfg, 2, 2, NetModel::free());
        assert!(max_weight_diff(&serial.weights, &dist.weights()) < 1e-9);
    }

    #[test]
    fn dropout_is_identity_here() {
        let net = dnn::NetworkBuilder::new("d", dnn::Shape::flat(8))
            .layer(LayerSpec::FullyConnected { out: 8 })
            .layer(LayerSpec::ReLU)
            .layer(LayerSpec::Dropout { rate: 0.5 })
            .layer(LayerSpec::FullyConnected { out: 4 })
            .build()
            .unwrap();
        let (x, labels) = synthetic_data(&net, 8, 2);
        let r = train_serial(&net, &x, &labels, &TrainConfig::default());
        assert_eq!(r.weights.len(), 2);
    }

    #[test]
    fn pure_batch_comm_is_weight_allreduce_only() {
        // With pr = 1 the executed traffic per iteration is exactly the
        // all-reduce of each layer's ∆W.
        let net = mlp("m", &[16, 12, 8]);
        let (x, labels) = synthetic_data(&net, 8, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 1,
        };
        let pc = 4;
        let dist = train_1p5d(&net, &x, &labels, &cfg, 1, pc, NetModel::free());
        let plan = plan(&extract_fc_layers(&net), 8, &[(1, pc)], 0, false, None);
        let total_w: usize = plan.layers.iter().map(|l| l.grad.words).sum();
        // Recursive halving (what the free model selects) sends the
        // ring's 2·n·(p−1)/p words per rank; pc ranks.
        let expect = pc as f64 * 2.0 * total_w as f64 * (pc as f64 - 1.0) / pc as f64;
        assert_eq!(dist.stats.total_words(), expect as u64);
    }

    /// A Cori KNL link beside a core of 100 MFLOP/s: every layer's
    /// backward outlasts the sum of the bucket above it, so
    /// [`crate::overlap::buckets`] launches more than one bucket — on
    /// `mlp_tiny`, the top two layers' and then layer 0's. (Under the free
    /// model every layer joins one bucket.)
    pub(crate) fn slow_core() -> NetModel {
        NetModel {
            flops: 1e8,
            ..NetModel::cori_knl()
        }
    }

    /// The buckets the clock goldens below were recorded under, before
    /// [`crate::overlap::buckets`]: a bucket closed once it held 8 192
    /// words or more.
    fn at_8192(grads: &[crate::overlap::Grad]) -> Vec<usize> {
        let mut cuts = vec![0];
        for g in grads {
            if *cuts.last().expect("a bucket") >= 8192 {
                cuts.push(0);
            }
            *cuts.last_mut().expect("a bucket") += g.words;
        }
        cuts
    }

    /// `net` trained on the `pr × pc` grid by the scheduled engine, each
    /// rank's buckets the ones `cut` makes of its plan's gradients in place
    /// of the rule's.
    pub(crate) fn train_cut(
        net: &Network,
        (x, labels): (&Matrix, &[usize]),
        cfg: &TrainConfig,
        (pr, pc): (usize, usize),
        model: NetModel,
        cut: impl Fn(&[crate::overlap::Grad]) -> Vec<usize> + Sync,
    ) -> DistResult {
        let plans = |layers: &[FcLayer], rank| {
            let rule = plan(layers, x.cols(), &[(pr, pc)], rank, false, Some(&model));
            CommPlan {
                buckets: Some(cut(&rule.grads())),
                ..rule
            }
        };
        let off = TraceConfig::disabled();
        train_grid(net, x, labels, cfg, &[(pr, pc)], model, off, plans).0
    }

    /// `net` trained on the `pr × pc` grid by the scheduled engine under
    /// [`at_8192`]'s buckets; asserts the rule's run is no slower and
    /// leaves the same weight bits (every group here is a power of two).
    fn scheduled_at_8192(
        net: &Network,
        (x, labels): (&Matrix, &[usize]),
        cfg: &TrainConfig,
        (pr, pc): (usize, usize),
        model: NetModel,
    ) -> DistResult {
        let at = train_cut(net, (x, labels), cfg, (pr, pc), model, at_8192);
        let rule = train_1p5d_scheduled(net, x, labels, cfg, pr, pc, model, OverlapPlan::default());
        assert!(
            rule.stats.makespan() <= at.stats.makespan(),
            "{pr}x{pc}: the rule"
        );
        assert!(
            rule.weights() == at.weights(),
            "{pr}x{pc}: the rule's weights"
        );
        at
    }

    #[test]
    fn scheduled_training_matches_serial_for_all_plans_and_grids() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let cfg = TrainConfig {
            lr: 0.3,
            iters: 8,
            seed: 7,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let plan = OverlapPlan::default();
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 2)] {
            let mut launches = Vec::new();
            for model in [NetModel::free(), slow_core()] {
                let dist = train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, model, plan);
                launches.push(dist.stats.total_collective_calls().2);
                let diff = max_weight_diff(&serial.weights, &dist.weights());
                let at = format!("grid {pr}x{pc} {model:?}");
                assert!(diff < 1e-9, "{at}: weight diff {diff}");
                for (a, b) in serial.losses.iter().zip(dist.losses()) {
                    assert!((a - b).abs() < 1e-9, "{at}: loss {a} vs {b}");
                }
                assert!(dist.replica_divergence() < 1e-15, "{at}: replicas");
            }
            // One bucket per row group and iteration against two, the top
            // two layers' and layer 0's (and the ∆X sums either way).
            let buckets = (pr * pc * cfg.iters) as u64 * u64::from(pc > 1);
            assert_eq!(launches[1] - launches[0], buckets, "grid {pr}x{pc}");
        }
    }

    #[test]
    fn fifo_barrier_plan_reproduces_the_retired_engine_to_the_bit() {
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let net = mlp("m", &[48, 64, 10]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 2,
        };
        let sch = scheduled_at_8192(&net, (&x, &labels), &cfg, (2, 2), model);
        assert_pr3_golden(
            &sch,
            [0x3f31e51e9708b474, 0x0000000000000000, 0xb5c86e592c72c6bd],
        );
    }

    #[test]
    fn default_plan_credits_only_what_the_launch_order_drain_hides() {
        // `[makespan, total overlapped seconds, weight FNV]` bits of the
        // FIFO-flush, drain-barrier plan, recorded while the default
        // still waited each bucket lazily in the next iteration's
        // forward. That drain ran on the same clock to the bit, but it
        // credited 0x3f612824140f0948 s (≈ 2.1e-3) as hidden: the
        // transfers that finished while the main timeline sat blocked on
        // layer 0's bucket, launched last, counted as overlap. Re-recorded
        // when all-reduces began running the selected schedule: both
        // buckets halve, 4 α-steps against the ring's 6, so the makespan
        // fell by 3 × 4α (0x3f6762a5c5299de3 before) and the weights took
        // the halving's summation order.
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let net = mlp("m", &[64, 96, 96, 10]);
        let (x, labels) = synthetic_data(&net, 32, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 3,
            seed: 1,
        };
        let r = scheduled_at_8192(&net, (&x, &labels), &cfg, (1, 4), model);
        assert_pr3_golden(
            &r,
            [0x3f6666fd42bef4fa, 0x3f5353cd652bb16a, 0xf10e0cd8a132b5c5],
        );
    }

    #[test]
    fn degenerate_single_column_row_groups_record_no_launches() {
        // pc = 1: every row group has one member, so there is no ∆W to
        // all-reduce. The scheduler skips the launch (and the
        // collectives layer skips recording even when callers don't),
        // keeping the overlap fraction's denominator honest. What is
        // left is layer 1's ∆X sum over the 4-rank column group, once
        // per rank and iteration, and the input-split top's blocking
        // logits sum; the top's ∆X needs no sum.
        let net = mlp("m", &[32, 24, 24, 10]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 1,
        };
        let dist = train_1p5d_scheduled(
            &net,
            &x,
            &labels,
            &cfg,
            4,
            1,
            NetModel::free(),
            OverlapPlan::default(),
        );
        // The plans' collectives over groups of more than one, per
        // iteration: launched, or blocking all-reduces.
        let (layers, free) = (extract_fc_layers(&net), NetModel::free());
        let planned = |pick: fn(&crate::plan::Collective) -> bool| {
            let plans = (0..4).map(|r| plan(&layers, 16, &[(4, 1)], r, false, Some(&free)));
            let n = plans
                .flat_map(|p| p.collectives)
                .filter(|c| c.2 > 1 && pick(c));
            (n.count() * cfg.iters) as u64
        };
        let (ar, _, nb_ar, nb_ag) = dist.stats.total_collective_calls();
        assert_eq!(nb_ar, planned(|c| c.1), "∆X sums only: no ∆W launches");
        let blocking_sums =
            |c: &crate::plan::Collective| !c.1 && c.0 == crate::plan::Kind::AllReduce;
        assert_eq!(ar, planned(blocking_sums), "the logits sums");
        assert_eq!(nb_ag, 0, "every gather blocks");
        assert_eq!(
            dist.measured_overlap_fraction(),
            0.0,
            "the free model moves nothing"
        );
    }

    #[test]
    fn sched_trace_shows_flushes_and_polls() {
        // Beside the slow core the rule launches one bucket per layer, and
        // each push but the last drives a step of an earlier one.
        let net = mlp("m", &[48, 64, 64, 10]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 2,
            seed: 1,
        };
        let (_, trace) = train_1p5d_scheduled_traced(
            &net,
            &x,
            &labels,
            &cfg,
            2,
            2,
            slow_core(),
            TraceConfig::enabled(),
        );
        let flushes: usize = trace
            .ranks
            .iter()
            .map(|r| r.instant_count("sched", "bucket_flush"))
            .sum();
        let polls: usize = trace
            .ranks
            .iter()
            .map(|r| r.instant_count("sched", "progress_poll"))
            .sum();
        assert!(flushes > 0, "bucket flushes recorded");
        assert!(polls > 0, "progress polls recorded");
    }

    #[test]
    #[should_panic(expected = "per-layer grids cannot be scheduled")]
    fn per_layer_grids_with_a_scheduler_are_rejected() {
        // The buckets sum over one row group; `forward_pass` returns the
        // error, which the runner's `expect` turns into this panic.
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 8, 5);
        let (cfg, off) = (TrainConfig::default(), TraceConfig::disabled());
        let (free, shapes) = (NetModel::free(), [(1, 4), (2, 2)]);
        let plans = |layers: &[FcLayer], rank| plan(layers, 8, &shapes, rank, false, Some(&free));
        train_grid(&net, &x, &labels, &cfg, &shapes, free, off, plans);
    }

    /// A scheduler fed partials its lengths do not describe fails at the
    /// push or drain that shows it, naming the layer and both lengths.
    #[test]
    #[should_panic(expected = "layer 1: 8 ∆W words past 6")]
    fn a_partial_past_its_bucket_panics_at_the_push() {
        World::run(1, NetModel::free(), |comm| {
            let mut sched = BucketScheduler::new(comm, &[6, 4], Vec::new());
            sched.push(1, Matrix::zeros(2, 4)).expect("push");
        });
    }

    #[test]
    #[should_panic(expected = "bucket [(2, 4)] drained short")]
    fn a_bucket_left_short_panics_at_the_drain() {
        World::run(1, NetModel::free(), |comm| {
            let mut sched = BucketScheduler::new(comm, &[6], Vec::new());
            sched.push(2, Matrix::zeros(2, 2)).expect("push");
            sched.drain(|_, _| ()).expect("drain");
        });
    }

    #[test]
    #[should_panic(expected = "FC networks only")]
    fn conv_network_is_rejected() {
        let net = dnn::NetworkBuilder::new("c", dnn::Shape::new(1, 4, 4))
            .layer(LayerSpec::Conv {
                out_c: 2,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            })
            .build()
            .unwrap();
        let (x, labels) = synthetic_data(&net, 4, 2);
        let _ = train_serial(&net, &x, &labels, &TrainConfig::default());
    }
}
