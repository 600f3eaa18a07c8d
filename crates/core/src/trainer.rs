//! Executable distributed SGD — the end-to-end validation that the
//! paper's 1.5D scheme computes *exactly* the same training trajectory
//! as serial mini-batch SGD (the paper's framework is synchronous and
//! "obeys the sequential consistency of the original algorithm").
//!
//! Supports FC networks (MLPs / unrolled RNNs) — the pure chain of
//! `Y = W·X` products the paper's algebra describes. A convolutional
//! trunk trains in [`crate::cnn`] (domain parallelism,
//! `distmm::domain_general`), whose FC head runs the same
//! `forward_pass`/`backward_pass` pair as every trainer here.
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

/// Activation following an FC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Act {
    None,
    Relu,
    Tanh,
}

/// One trainable FC layer extracted from a [`Network`].
#[derive(Debug, Clone)]
pub(crate) struct FcLayer {
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
pub(crate) fn extract_fc_layers(net: &Network) -> Vec<FcLayer> {
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
        let (grid, layer) = (layer_grid(grids, l).0, &layers[l]);
        let block = row_shard(&layer.orient(Cow::Borrowed(w)), grid.pr, grid.i);
        layer.orient(Cow::Owned(block)).into_owned()
    };
    full.iter().enumerate().map(shard).collect()
}

/// Layer `l`'s grid — `grids[l]`, the last entry serving every layer
/// past it, so a one-element slice is the uniform grid — and, when the
/// batch split `Pc` changes on entering the layer, the grid of layer
/// `l − 1`: the boundary where activations (forward) and `∆X`
/// (backward) are re-laid by the asymptotically free Eq. 6 exchange.
fn layer_grid(grids: &[Grid], l: usize) -> (&Grid, Option<&Grid>) {
    let at = |l: usize| &grids[l.min(grids.len() - 1)];
    let relaid_from = (l > 0 && at(l - 1).pc != at(l).pc).then(|| at(l - 1));
    (at(l), relaid_from)
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
    train_grid(net, x, labels, cfg, &[(pr, pc)], model, trace, None)
}

/// The one world runner behind the plain entry points and
/// [`crate::mixed::train_mixed`]: `shapes` holds one `(pr, pc)` per
/// layer (the last serving every layer past it — one entry is the
/// uniform grid); `plan = None` trains with blocking collectives, `Some`
/// with the scheduled overlap engine. Every rank runs the shared
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
    plan: Option<OverlapPlan>,
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
                plan,
            };
            let tape = forward_pass(&pass, &w_local).expect("forward");
            partial_losses.push(tape.loss);
            let (sched, ..) =
                backward_pass(&pass, tape, &mut w_local, &mut apply, false).expect("backward");
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
    /// run. More than one entry cannot be combined with `plan`.
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
    /// `None`: blocking ∆W and ∆X sums, ∆W applied layer by layer.
    /// `Some`: each ∆X sum hides behind its layer's ∆W product, and the
    /// ∆W partials are bucketed through a [`BucketScheduler`] that
    /// [`backward_pass`] returns for [`optimizer_step`] to drain.
    pub(crate) plan: Option<OverlapPlan>,
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
/// `W_i·X_j` over `Pr`, layer by layer), then the loss gradient. Every
/// layer's output is gathered straight into its tape entry and
/// activated there — except below an input-split top
/// ([`FcLayer::split_in`]), which keeps its row block, while the top
/// sums its output over `Pr` ([`forward_summed`]). Where the batch split
/// changes between two layers ([`layer_grid`]) the activation is
/// gathered and re-laid first, and the tape keeps the re-laid copy (an
/// input-split layer's row block of it) as that layer's input.
pub(crate) fn forward_pass(p: &Pass<'_>, w: &[Matrix]) -> Result<Tape, Error> {
    let (grids, guard, layers) = (p.grids, p.guard, p.layers);
    if p.plan.is_some() && grids.len() > 1 {
        return Err(Error::CollectiveMismatch(
            "per-layer grids cannot be scheduled: the gradient buckets are bound to one \
             row group"
                .into(),
        ));
    }
    let comm = &grids[0].row_comm;
    let mut acts: Vec<Matrix> = Vec::with_capacity(layers.len());
    let mut relaid = Vec::new();
    {
        let _fwd = comm.trace_span("trainer", "forward", &[("iter", p.iter as f64)]);
        for (idx, l) in layers.iter().enumerate() {
            let _layer = comm.trace_span("trainer", "layer_fwd", &[("layer", idx as f64)]);
            let (grid, relaid_from) = layer_grid(grids, idx);
            let mut x = acts.last().unwrap_or(p.x_local);
            if let Some(from) = relaid_from {
                let full = from.relayout_cols(grid, x, p.b_global)?;
                relaid.push(match l.split_in {
                    true => dy_block(grid, Cow::Owned(full)).into_owned(),
                    false => full,
                });
                x = relaid.last().expect("just pushed");
            }
            let keeps_block = layers.get(idx + 1).is_some_and(|top| top.split_in)
                && layer_grid(grids, idx + 1).1.is_none();
            let mut y = match (l.split_in, keeps_block) {
                (true, _) => forward_summed(grid, &w[idx], x, guard)?,
                (_, true) => y_partial(grid, &w[idx], x, guard)?,
                _ => forward_into(grid, &w[idx], x, l.d_out, guard)?,
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
/// [`optimizer_step`].
///
/// The gradient carried from layer to layer is this rank's row block
/// `∆Y_{i,j}` ([`Grid::w_rows`]), never the full-depth `∆Y_j`: the loss
/// gradient is cut to its rows once, each activation backward reads the
/// same rows of the saved output in place, and each layer's `∆X`
/// reduce-scatter leaves exactly the next block. An input-split top
/// ([`FcLayer::split_in`]) reads the whole loss gradient, and its local
/// `∆X` already is the block the layer below reads: no sum. Where a
/// layer's input was re-laid (the batch split changes,
/// [`crate::mixed::train_mixed`]), the blocks are gathered back to full
/// depth over the column group — the all-reduce's other half, so those
/// words are an all-reduce's — re-laid, and cut to the lower grid's
/// rows.
///
/// Blocking (`p.plan` is `None`): each layer's ∆W is summed and
/// applied on the spot — ∆X was already formed from the pre-update
/// weights — and no scheduler is returned. Scheduled
/// ([`backward_dw_deferred`]): each layer's ∆X sum is on the channel
/// while its ∆W product runs, ∆W partials flush through a
/// [`BucketScheduler`] while backprop continues (Fig. 8), and each
/// layer's push drives a chunk of the oldest bucket still being issued.
/// The pass stops at its last flush and returns the scheduler with its
/// buckets in flight: the caller waits them with [`optimizer_step`],
/// at once (the FC trainers) or after more backward work (the CNN
/// trunk, [`crate::cnn`]).
///
/// `input_grad` says whether the caller reads `∂loss/∂x_local`, which
/// is then returned at full depth: a trunk in front of the FC chain
/// back-propagates it further ([`crate::cnn`]). An FC network's input
/// has no use for it — the paper does "not need to backpropagate the
/// gradient beyond the first layer", and Eq. 8 prices no ∆X term there —
/// so without it layer 0 runs its ∆W partial alone ([`dw_partial`]): no
/// ∆X GEMM and no column-group sum, every weight bit unchanged.
///
/// Without `input_grad`, the tape's [`Tape::riders`] ride layer 0's ∆W
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
    input_grad: bool,
) -> Result<Backward, Error> {
    let (grids, guard) = (p.grids, p.guard);
    let comm = &grids[0].row_comm;
    let iter_arg = [("iter", p.iter as f64)];
    let mut sched = p
        .plan
        .map(|plan| BucketScheduler::new(comm, plan.bucket_words));
    let Tape {
        acts,
        mut relaid,
        grad,
        mut riders,
        ..
    } = tape;
    let (top, split) = (p.layers.len() - 1, p.layers[p.layers.len() - 1].split_in);
    let cut = |g| dy_block(layer_grid(grids, top).0, Cow::Owned(g)).into_owned();
    let mut dy = if split { grad } else { cut(grad) };
    {
        let _bwd = comm.trace_span("trainer", "backward", &iter_arg);
        for (idx, l) in p.layers.iter().enumerate().rev() {
            let _layer = comm.trace_span("trainer", "layer_bwd", &[("layer", idx as f64)]);
            let (grid, relaid_from) = layer_grid(grids, idx);
            // The saved output's rows that `dy` holds: all of them when
            // the layer kept its block or is input-split.
            let (all, bloc) = (acts[idx].rows() == dy.rows(), dy.cols());
            let from = if all { 0 } else { grid.w_rows(l.d_out).start };
            let post = &acts[idx].as_slice()[from * bloc..][..dy.len()];
            act_backward(l.act, post, &mut dy);
            let popped;
            let xl = if relaid_from.is_some() {
                popped = relaid.pop().expect("forward re-laid this input");
                &popped
            } else if idx == 0 {
                p.x_local
            } else {
                &acts[idx - 1]
            };
            if idx == 0 && !input_grad {
                let dw = dw_partial(grid, xl, &dy, guard)?;
                if let Some(sched) = &mut sched {
                    sched.riders = std::mem::take(&mut riders);
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
            let dx = match &mut sched {
                None => {
                    let (dw, dx) = backward_with(grid, &w[idx], xl, &dy, guard, l.split_in)?;
                    apply(w, idx, dw.as_slice());
                    dx
                }
                Some(sched) => {
                    let (dw, dx) = backward_dw_deferred(grid, &w[idx], xl, &dy, guard, l.split_in)?;
                    sched.push(idx, dw)?;
                    dx
                }
            };
            dy = match relaid_from {
                Some(to) => {
                    let full = grid.gather_rows(dx, l.d_in)?;
                    let relaid = grid.relayout_cols(to, &full, p.b_global)?;
                    dy_block(to, Cow::Owned(relaid)).into_owned()
                }
                None => dx,
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

/// Total trainable parameter count of the FC chain. Each rank's ∆W
/// traffic per iteration is `trainable_words(net) / pr` words — the
/// quantity the bucket autotuner ladders its candidate sizes against.
pub fn trainable_words(net: &Network) -> usize {
    extract_fc_layers(net)
        .iter()
        .map(|l| l.d_out * l.d_in)
        .sum()
}

/// One gradient bucket in flight (or already settled locally).
struct PendingBucket {
    /// The row-group sum in flight; `None` for a degenerate
    /// single-member row group, where `data` holds the partial (which
    /// *is* the sum).
    handle: Option<IallreduceHandle>,
    data: Option<Vec<f64>>,
    /// `(layer, words)` segments fused into the bucket, in fusion
    /// order (descending layer — backward fills buckets from the last
    /// layer down).
    segs: Vec<(usize, usize)>,
}

/// DDP-style gradient buckets for one backward pass: deferred per-layer
/// ∆W partials are fused (in push order) into flat buffers whose
/// row-group sums launch as non-blocking all-reduces the moment a
/// bucket fills. Besides launching, it
///
/// * records every launch as a zero-duration `sched`/`bucket_flush`
///   trace event, so `trace_analyze` can see the schedule without
///   perturbing the leaf-time partition;
/// * drives one chunk step of the oldest bucket still being issued
///   after every push (a `sched`/`progress_poll` instant), keeping
///   per-handle memory bounded and making pipelining visible
///   mid-backward;
/// * waits every bucket in launch order at one drain point
///   ([`BucketScheduler::drain`]).
///
/// Chunk steps issue in launch order — one SPMD order every row-group
/// member agrees on, which keeps the mixed-outstanding-handle schedule
/// deadlock-free (sends are eager; the minimal blocked program position
/// always has its matching send already issued on the peer). A rank's
/// channel serves steps in the order they are *issued*, so within one
/// scheduler no bucket can overtake an earlier one, and layer 0's — the
/// first the next forward reads — is launched last: waiting any other
/// order would only move the same barrier. Across two schedulers on one
/// rank the order is the issue order, not the launch order: a step one
/// leaves to its `wait` queues behind every step the other issued
/// first, which is what [`BucketScheduler::issue`] is for.
pub(crate) struct BucketScheduler {
    comm: Communicator,
    cap: usize,
    pending: Vec<PendingBucket>,
    buf: Vec<f64>,
    buf_layers: Vec<(usize, usize)>,
    /// Words that ride the next bucket launched, after its segments
    /// (staged before the bucket's last push, which sizes the bucket for
    /// them): no block of the sum is cut for them
    /// ([`iallreduce_riding`]), and [`BucketScheduler::drain`] returns
    /// their sums.
    pub(crate) riders: Vec<f64>,
}

impl BucketScheduler {
    /// `comm` is the group to sum over (the grid's row group; the whole
    /// grid for the CNN trunk's conv `∆W`); `cap` is the fusion
    /// threshold in words.
    pub(crate) fn new(comm: &Communicator, cap: usize) -> Self {
        assert!(cap >= 1, "bucket capacity must be at least one word");
        BucketScheduler {
            comm: comm.clone(),
            cap,
            pending: Vec::new(),
            buf: Vec::new(),
            buf_layers: Vec::new(),
            riders: Vec::new(),
        }
    }

    /// Allocates the next bucket for `words` up front, so that a bucket
    /// fused from many partials is allocated once, not grown by doubling.
    pub(crate) fn reserve(&mut self, words: usize) {
        self.buf.reserve_exact(words);
    }

    /// Stages layer `idx`'s local ∆W partial, flushes once the fusion
    /// threshold is reached, then polls. The first partial of a bucket
    /// nothing [`BucketScheduler::reserve`]d and no rider follows
    /// *becomes* the bucket (a bucket that is one layer alone is never
    /// copied); later ones are appended to it, the bucket grown to hold
    /// exactly them and the staged riders.
    pub(crate) fn push(&mut self, idx: usize, dw: Matrix) -> Result<(), Error> {
        self.buf_layers.push((idx, dw.len()));
        if self.buf.capacity() == 0 && self.riders.is_empty() {
            self.buf = dw.into_vec();
        } else {
            self.buf.reserve_exact(dw.len() + self.riders.len());
            self.buf.extend_from_slice(dw.as_slice());
        }
        if self.buf.len() >= self.cap {
            self.flush()?;
        }
        self.poll()
    }

    /// Launches the staged bucket (no-op when nothing is staged),
    /// recording a `bucket_flush` instant. A single-member row group
    /// skips the launch entirely: the partial already is the sum, and
    /// a zero-step "collective" would only pollute the launch counts
    /// that normalize the measured overlap fraction.
    pub(crate) fn flush(&mut self) -> Result<(), Error> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut data = std::mem::take(&mut self.buf);
        let riders = self.riders.len();
        data.append(&mut self.riders);
        let segs = std::mem::take(&mut self.buf_layers);
        let min_layer = segs.iter().map(|&(i, _)| i).min().expect("non-empty");
        let max_layer = segs.iter().map(|&(i, _)| i).max().expect("non-empty");
        self.comm.trace_instant(
            "sched",
            "bucket_flush",
            &[
                ("words", data.len() as f64),
                ("min_layer", min_layer as f64),
                ("max_layer", max_layer as f64),
                ("pending", (self.pending.len() + 1) as f64),
            ],
        );
        let (handle, data) = if self.comm.size() == 1 {
            (None, Some(data))
        } else {
            let h = iallreduce_riding(&self.comm, data, riders, ReduceOp::Sum)?;
            (Some(h), None)
        };
        self.pending.push(PendingBucket { handle, data, segs });
        Ok(())
    }

    /// Drives one chunk step of the oldest bucket still being issued,
    /// recording a `progress_poll` instant when a step was driven.
    fn poll(&mut self) -> Result<(), Error> {
        let in_flight = self.pending.iter().filter(|b| b.handle.is_some()).count();
        let mut handles = self.pending.iter_mut().filter_map(|b| b.handle.as_mut());
        if let Some(h) = handles.find(|h| !h.issued()) {
            h.progress()?;
            self.comm
                .trace_instant("sched", "progress_poll", &[("pending", in_flight as f64)]);
        }
        Ok(())
    }

    /// Issues every remaining chunk step of every launched bucket, in
    /// launch order, and waits on none: the sums then hold their place
    /// on the rank's channel ahead of any step issued later, by this
    /// scheduler or another — the CNN head's ahead of the trunk's, so
    /// the head's sum runs under the trunk backward. Every member of the
    /// group must reach this call at the same point of its program
    /// (SPMD), as it does [`BucketScheduler::drain`].
    pub(crate) fn issue(&mut self) -> Result<(), Error> {
        for h in self.pending.iter_mut().filter_map(|b| b.handle.as_mut()) {
            while !h.progress()? {}
        }
        Ok(())
    }

    /// Waits every bucket in launch order, applying each one's segments
    /// as its wait completes, and returns the riders' sums, if words
    /// rode. The caller flushes the staged bucket first.
    pub(crate) fn drain(self, mut apply: impl FnMut(usize, &[f64])) -> Result<Vec<f64>, Error> {
        let mut riders = Vec::new();
        for bucket in self.pending {
            let summed = match bucket.handle {
                Some(h) => h.wait()?,
                None => bucket.data.expect("degenerate bucket holds its data"),
            };
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
/// (the paper's Fig. 8, run rather than modelled) under an explicit
/// [`OverlapPlan`]: each layer's ∆W partial is fused DDP-style into
/// buckets of `plan.bucket_words` whose row-group sums are launched
/// non-blocking the moment a bucket fills, and progress on the per-rank
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
/// remain bitwise identical). The default plan's clock is the retired
/// overlap engine's less layer 0's ∆X, which that engine still formed,
/// less the latency its rings paid, and less the ∆X transfer each layer
/// now hides behind its ∆W product; on grids of 2-rank groups its
/// weights are that engine's to the bit. Golden constants in this
/// module's tests pin both.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_scheduled(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
    plan: OverlapPlan,
) -> DistResult {
    let off = TraceConfig::disabled();
    train_1p5d_scheduled_traced(net, x, labels, cfg, pr, pc, model, off, plan).0
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
    plan: OverlapPlan,
) -> (DistResult, WorldTrace) {
    train_grid(net, x, labels, cfg, &[(pr, pc)], model, trace, Some(plan))
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
mod tests {
    use super::*;
    use crate::overlap::DEFAULT_BUCKET_WORDS;
    use dnn::zoo::{mlp, mlp_tiny, rnn_unrolled};

    /// Asserts `r` reproduces `[makespan bits, total overlapped seconds
    /// bits, FNV-1a over every rank's final weight bits]`. On the 2×2
    /// grid the FNV word is the retired overlap engine's, recorded at the
    /// last commit that shipped it (d11a3ce; see DESIGN.md §10); on the
    /// grids with a 4-rank group it was re-recorded when all-reduces
    /// began running the selected schedule, whose recursive halving sums
    /// in another order (a 2-rank sum is one addition either way). The
    /// clock words are re-recorded and, on evenly divided grids, derived
    /// from the retired engine's by [`assert_retired_clock_less_layer0_dx`].
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

    /// Asserts `r`'s clock is the retired engine's, `retired` =
    /// `[makespan bits, overlapped bits]`, less what layer 0's ∆X cost
    /// it on an MLP of widths `dims = [d0, d1, …]` with batch `b`: per
    /// iteration, one `W₀ᵀ·∆Y` GEMM and, over `Pr > 1`, a ring all-reduce
    /// of the `d0 × B/Pc` gradient — `2(Pr − 1)` steps of
    /// `α + β·d0·B/(Pc·Pr)`. Over `Pr > 1` both sat on the critical path,
    /// so the makespan falls by exactly their sum. Over `Pr = 1` the GEMM
    /// ran while the ∆W ring was in flight: the makespan holds, and the
    /// overlapped time falls by that GEMM on every rank. The makespan
    /// also falls by `saved` per iteration: the `(α-steps, words)` the
    /// selected schedules take off the critical path that the engine's
    /// rings held (derived per grid at the call sites).
    ///
    /// Over `Pr > 1` each layer `l ≥ 1` below the top now also hides its
    /// ∆X sum, which the engine ran blocking, behind its own ∆W GEMM: on
    /// every rank, per iteration, the shorter of the GEMM
    /// (`2·d_l/Pr·d_{l−1}·B/Pc` flops) and the sum, a reduce-scatter
    /// ([`collectives::cost::reduce_scatter_exact`] of `d_{l−1}·B/Pc`
    /// words over `Pr`). The makespan falls by that much
    /// and the overlapped time rises by it on every rank. Only evenly
    /// divided layers have this closed form: on a ragged one the
    /// short-shard ranks launch their sum early and the group leaves the
    /// layer at different times. The top is input-split
    /// ([`FcLayer::split_in`]): it hides nothing, and what it no longer
    /// sends — the gather of its input, its ∆X all-reduce — and the
    /// all-reduce that replaced its output's gather are in `saved`. Its
    /// GEMMs take the flops they took split by rows.
    fn assert_retired_clock_less_layer0_dx(
        r: &DistResult,
        model: &NetModel,
        (dims, b, iters): (&[usize], usize, usize),
        retired: [u64; 2],
        saved: (f64, f64),
    ) {
        let (pr, pc, bloc) = (r.pr, r.pc, b / r.pc);
        let (d0, d1) = (dims[0], dims[1]);
        let gemm = 2.0 * (d0 * (d1 / pr) * bloc) as f64 / model.flops;
        let ring = (2 * (pr - 1)) as f64 * (model.alpha + model.beta * (d0 * bloc / pr) as f64);
        let [makespan, overlapped] = retired.map(f64::from_bits);
        let schedules = iters as f64 * (saved.0 * model.alpha + saved.1 * model.beta);
        let hidden_dx: f64 = dims[1..dims.len() - 1]
            .windows(2)
            .map(|w| {
                let (d_in, d_out) = (w[0], w[1]);
                assert_eq!(d_out % pr, 0, "layer of {d_out} rows is ragged over {pr}");
                let gemm = 2.0 * (d_out / pr * d_in * bloc) as f64 / model.flops;
                let sum = collectives::cost::reduce_scatter_exact(pr, (d_in * bloc) as f64);
                gemm.min(sum.seconds(model))
            })
            .sum();
        let (dm, dov) = if pr > 1 {
            let dx = iters as f64 * (gemm + ring + hidden_dx);
            (dx + schedules, -((pr * pc * iters) as f64) * hidden_dx)
        } else {
            (schedules, (pc * iters) as f64 * gemm)
        };
        let grid = format!("grid {pr}x{pc}");
        assert!(
            (makespan - dm - r.stats.makespan()).abs() < 1e-15,
            "{grid}: makespan"
        );
        let hidden = r.stats.total_overlapped_secs();
        assert!(
            (overlapped - dov - hidden).abs() < 1e-15,
            "{grid}: overlapped"
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
        // (grid, golden, the retired engine's clock words and the
        // (α-steps, words) per iteration the selected schedules save over
        // its rings). With α/β = 1000 words, a 4-rank sum under 4000 words
        // runs recursive doubling and a larger one halving; 2-rank sums
        // and gathers double, one step each.
        // * 1×4: two ∆W buckets (10 176 and 6 144 words) halve, 4 steps
        //   against the ring's 6: (4, 0).
        // * 2×4: layer 1's ∆X reduce-scatter over 2 ranks, one step of
        //   384 words against the ring's 2 of 384 (1, 384); the top's ∆X
        //   sum (2, 768) and the gather of its input (1, 384) are gone;
        //   its logits' gather, one ring step of 40 words, became a
        //   doubling all-reduce, one step of 80 (0, −40); and one ∆W
        //   bucket of 8 160 words halves (2, 0): (6, 1 496). Layer 1's ∆X
        //   sum (13.84 µs) hides behind its ∆W GEMM.
        // * 4×2 has no retired-clock form, because the retired engine's
        //   10-row layer split 2, 3, 2, 3 (the input-split top now takes
        //   24 of the 96 input columns a rank, and no layer is ragged). Before the ∆X sums went on the channel it read
        //   [0x3f532314cf675343, 0x3c28000000000000], which is the retired
        //   clock less (12, −1 520): three gathers over 4 ranks take 2
        //   steps against 3, and the ragged one's critical path is 16 words
        //   shorter (128 against the ring's 144); two 1 536-word ∆X sums
        //   double, 2 steps of n words against 6 of n/4, so 8 steps and
        //   −1 536 words; one ∆W bucket over 2 ranks takes one step. Now the
        //   2-row ranks launch layer 2's sum 3.072 µs early, and the
        //   doubling's second step pairs like with like, so the two halves
        //   of the group leave the layer 3.072 µs apart. The critical path
        //   moves to the 2-row ranks: 60.896 µs per iteration faster (2
        //   α-steps, 3 168 words, 9 216 flops), and 467.2 µs per iteration
        //   hidden (4 × 63.008 + 4 × 53.792), which is no per-layer min.
        //   Re-recorded, weights included, when the ∆X sums became
        //   reduce-scatters: the two 1 536-word sums over 4 ranks ran
        //   recursive doubling, and the reduce-scatter runs recursive
        //   halving's two steps, which sum in another order; and again
        //   when the top became input-split: its logits sum over 4 ranks.
        let goldens = [
            (
                (1, 4),
                [0x3f5ddea703a946a6, 0x3f49c511dc3a41e5, 0x84f268c29eb9e7bd],
                Some(([0x3f5f2e325c377d39, 0x3f59c511dc3a41db], (4.0, 0.0))),
            ),
            (
                (2, 4),
                [0x3f515a569ed95ab7, 0x3f2d064b1db59d87, 0x56edffb9165bb77d],
                Some(([0x3f56b24912ee6f36, 0x3c34000000000000], (6.0, 1496.0))),
            ),
            (
                (4, 2),
                [0x3f4d5cff81cd418a, 0x3f40868af40f5be9, 0x0e7b39229ac352f9],
                None,
            ),
        ];
        for ((pr, pc), golden, retired) in goldens {
            let serialized = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
            let overlapped = train_1p5d_scheduled(
                &net,
                &x,
                &labels,
                &cfg,
                pr,
                pc,
                model,
                OverlapPlan::default(),
            );
            assert_pr3_golden(&overlapped, golden);
            if let Some((retired, saved)) = retired {
                let dims = (&[64, 96, 96, 10][..], 32, 2);
                assert_retired_clock_less_layer0_dx(&overlapped, &model, dims, retired, saved);
            }
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
        let total_w = 16 * 12 + 12 * 8;
        // Recursive halving (what the free model selects) sends the
        // ring's 2·n·(p−1)/p words per rank; pc ranks.
        let expect = pc as f64 * 2.0 * total_w as f64 * (pc as f64 - 1.0) / pc as f64;
        assert_eq!(dist.stats.total_words(), expect as u64);
    }

    /// The bucket ladder: per-layer launches, mid-size fusion, the
    /// default, and one giant bucket.
    fn all_plans() -> Vec<OverlapPlan> {
        [1, 64, DEFAULT_BUCKET_WORDS, usize::MAX]
            .map(|bucket_words| OverlapPlan { bucket_words })
            .to_vec()
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
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 2)] {
            for plan in all_plans() {
                let dist =
                    train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, NetModel::free(), plan);
                let diff = max_weight_diff(&serial.weights, &dist.weights());
                assert!(
                    diff < 1e-9,
                    "grid {pr}x{pc} plan {plan:?}: weight diff {diff}"
                );
                for (a, b) in serial.losses.iter().zip(dist.losses()) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "grid {pr}x{pc} plan {plan:?}: loss {a} vs {b}"
                    );
                }
                assert!(
                    dist.replica_divergence() < 1e-15,
                    "grid {pr}x{pc} plan {plan:?}: replicas bitwise identical"
                );
            }
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
        let plan = OverlapPlan::default();
        let sch = train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 2, model, plan);
        assert_pr3_golden(
            &sch,
            [0x3f31e51e9708b474, 0x0000000000000000, 0xb5c86e592c72c6bd],
        );
        let retired = [0x3f4063830fc7fcb6, 0x3bf8000000000000];
        // Every group has 2 ranks. Layer 1 is the input-split top: its ∆X
        // sum, two ring steps of 384 words (2, 768), and the gather of its
        // input, one of 384 (1, 384), are gone; its logits' gather, one
        // ring step of 60 words, became a doubling all-reduce, one step of
        // 120 (0, −60). The ∆W bucket takes one step where the ring took
        // two (1, 0). Nothing is left to hide.
        let saved = (4.0, 1092.0);
        let dims = (&[48, 64, 10][..], 24, 2);
        assert_retired_clock_less_layer0_dx(&sch, &model, dims, retired, saved);
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
        let plan = OverlapPlan::default();
        let r = train_1p5d_scheduled(&net, &x, &labels, &cfg, 1, 4, model, plan);
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
        let (ar, _, nb_ar, nb_ag) = dist.stats.total_collective_calls();
        assert_eq!(nb_ar, 4 * 2, "∆X sums only: no ∆W launches");
        assert_eq!(ar, 4 * 2, "the logits sums");
        assert_eq!(nb_ag, 0, "every gather blocks");
        assert_eq!(
            dist.measured_overlap_fraction(),
            0.0,
            "the free model moves nothing"
        );
    }

    #[test]
    fn sched_trace_shows_flushes_and_polls() {
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
            NetModel::free(),
            TraceConfig::enabled(),
            OverlapPlan { bucket_words: 64 },
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
        let (free, plan) = (NetModel::free(), Some(OverlapPlan::default()));
        train_grid(&net, &x, &labels, &cfg, &[(1, 4), (2, 2)], free, off, plan);
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
