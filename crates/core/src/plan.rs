//! The collectives one FC iteration runs, decided in one place.
//!
//! Eq. 8 prices each FC layer as three collectives: the forward
//! all-gather over `Pr`, the `∆W` all-reduce over `Pc` and the `∆X` sum
//! over `Pr`. The executed iteration runs a different list: each `∆X` sum
//! is a reduce-scatter of the rows the layer below reads, layer 0 forms
//! no `∆X` unless a trunk reads it, the input-split top
//! (`trainer::split_top`) gathers no input, sums no `∆X` and
//! all-reduces its output, and the scheduled run fuses the `∆W` sums into
//! the buckets [`crate::overlap::buckets`] cuts. [`plan`] decides that
//! list once per run and rank; the trainers run it
//! (`trainer::forward_pass`, `trainer::backward_pass`),
//! and the bucket rule, `fig8_exec` and the tests read it. A CNN rank's
//! plan ([`crate::cnn::CnnSpec::plans`]) is its FC head's on the `1 × P`
//! grid, carrying the conv trunk's `∆W` too (the head's and the trunk's
//! sums are one chain of buckets over the grid) and the trunk's window
//! fetches and relayouts as rows ([`CommPlan::trunk`]). [`replay`] runs
//! an FC rank's plan on the α–β clock: the timeline the bucket rule cuts
//! on and `fig8_exec` gates on.

use std::collections::VecDeque;

use collectives::cost::{allreduce_exact, bruck_allgather, reduce_scatter_exact, CostTerms};
use distmm::dist::part_range;
use mpsim::NetModel;

use crate::overlap::{buckets, Grad};
use crate::trainer::FcLayer;

/// How a layer's forward leaves its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forward {
    /// Gathered over the column group to full depth
    /// ([`distmm::onep5d::forward_into`]).
    Gather,
    /// This rank's row block alone ([`distmm::onep5d::y_partial`]): the
    /// input-split layer above reads it as it is.
    Keep,
    /// Summed over the column group: the layer is input-split
    /// ([`distmm::onep5d::forward_summed`]).
    Sum,
}

/// What a layer's backward does with its input gradient `∆X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dx {
    /// Reduce-scattered over the column group: each rank keeps the rows
    /// the layer below reads.
    ReduceScatter,
    /// Kept unsummed: the layer is input-split, and its local `∆X`
    /// already is that block.
    Local,
    /// Not formed: layer 0, whose input gradient nothing reads.
    Skip,
}

/// One layer's entry of a [`CommPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPlan {
    /// What the forward does with the output.
    pub forward: Forward,
    /// What the backward does with `∆X`.
    pub dx: Dx,
    /// The input is re-laid (Eq. 6): `Pc` changes on entering the layer
    /// ([`crate::mixed::train_mixed`]).
    pub relaid: bool,
    /// The flops of the forward product on the mean batch shard, as
    /// `grad`'s.
    pub flops: f64,
    /// The layer's `∆W` as [`buckets`] reads it: this rank's `∆W` words,
    /// the flops of its backward products and its `∆X` sum. The batch
    /// shard is the mean one, so every member of a row group reads the
    /// same.
    pub grad: Grad,
}

/// A collective's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An all-gather of row blocks.
    AllGather,
    /// An all-reduce.
    AllReduce,
    /// The reduce-scatter half of an all-reduce.
    ReduceScatter,
}

/// One collective a rank runs: its kind, whether it is launched
/// non-blocking on the rank's channel, its group's size (a group of one
/// moves nothing, and only a launch records it), and the words the rank
/// hands it (its own block for a gather, the whole buffer otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Collective(pub Kind, pub bool, pub usize, pub usize);

/// One exchange of a CNN trunk's iteration on one rank, named as its
/// trace span is (`distmm`'s `fetch_rows` or `relayout`), with the words
/// of each message the rank receives in it: one per peer that sends it
/// any, none on a one-rank group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange(pub &'static str, pub Vec<usize>);

/// What one rank's FC iteration runs ([`plan`]), or a CNN rank's
/// ([`crate::cnn::CnnSpec::plans`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CommPlan {
    /// One entry per layer, in layer order.
    pub layers: Vec<LayerPlan>,
    /// The `∆W` of a CNN trunk's weighted layers, in push order: the
    /// chain's buckets take them after the layers' (none on an FC chain).
    pub below: Vec<Grad>,
    /// A CNN trunk's exchanges, in the order they run: the forward's,
    /// then the backward's (none on an FC chain).
    pub trunk: Vec<Exchange>,
    /// The words of each `∆W` bucket, in launch order, as [`buckets`]
    /// cuts them over the row group (the trunk's `∆W` after the head's on
    /// a CNN); `None` when the run is blocking and each layer's `∆W` is
    /// summed on its own.
    pub buckets: Option<Vec<usize>>,
    /// Every collective of an iteration, in issue order.
    pub collectives: Vec<Collective>,
}

/// The plan of rank `rank` for the chain `layers` with batch `b`:
/// `shapes` holds one `(Pr, Pc)` per layer (the last serving every layer
/// past it; one entry is the uniform grid), `input_grad` says whether the
/// caller reads the input's gradient, and `model` is the network model of
/// a scheduled run, `None` for a blocking one. The rank's grids are
/// row-major ([`distmm::onep5d::Grid::new`]), and it holds its share of
/// the batch's columns.
///
/// # Panics
///
/// Panics if a scheduled run has more than one shape: the buckets are
/// bound to one row group.
pub fn plan(
    layers: &[FcLayer],
    b: usize,
    shapes: &[(usize, usize)],
    rank: usize,
    input_grad: bool,
    model: Option<&NetModel>,
) -> CommPlan {
    let seat = |pc| (rank / pc, part_range(b, pc, rank % pc).len());
    chain(layers, b, shapes, seat, input_grad, &[], model)
}

/// [`plan`] for a rank that, on a grid of `Pc` columns, sits in grid row
/// `seat(Pc).0` and holds `seat(Pc).1` batch columns, above the weighted
/// layers `below`, whose `∆W` joins the chain's buckets: the CNN's FC
/// head ([`crate::cnn::CnnSpec::plans`]) on the `1 × P` grid, above the
/// trunk's convs, which read its input gradient.
pub(crate) fn chain(
    layers: &[FcLayer],
    b: usize,
    shapes: &[(usize, usize)],
    seat: impl Fn(usize) -> (usize, usize),
    input_grad: bool,
    below: &[Grad],
    model: Option<&NetModel>,
) -> CommPlan {
    let one = model.is_none() || shapes.len() == 1;
    assert!(one, "per-layer grids cannot be scheduled");
    let at = |l: usize| shapes[l.min(shapes.len() - 1)];
    let relaid = |l: usize| l > 0 && at(l - 1).1 != at(l).1;
    // Layer `l`'s `(Pr, Pc)`, and this rank's rows of `d` and batch columns.
    let block = |d: usize, l: usize| {
        let ((pr, pc), (i, cols)) = (at(l), seat(at(l).1));
        (pr, pc, part_range(d, pr, i).len(), cols)
    };
    let (mut steps, mut run) = (Vec::new(), Vec::new());
    for (l, layer) in layers.iter().enumerate() {
        let ((pr, pc, rows, bloc), (d, w)) = (block(layer.d_out, l), layer.split_dims());
        let keep = layers.get(l + 1).is_some_and(|top| top.split_in) && !relaid(l + 1);
        let (forward, op) = match (layer.split_in, keep) {
            (true, _) => (Forward::Sum, Some((Kind::AllReduce, layer.d_out * bloc))),
            (_, true) => (Forward::Keep, None),
            _ => (Forward::Gather, Some((Kind::AllGather, rows * bloc))),
        };
        run.extend(op.map(|(kind, words)| Collective(kind, false, pr, words)));
        let dx = match (l > 0 || input_grad, layer.split_in) {
            (false, _) => Dx::Skip,
            (_, true) => Dx::Local,
            _ => Dx::ReduceScatter,
        };
        let (words, mean) = (block(d, l).2 * w, b as f64 / pc as f64);
        let sum =
            (dx == Dx::ReduceScatter).then(|| reduce_scatter_exact(pr, layer.d_in as f64 * mean));
        let grad = Grad {
            words,
            flops: if dx == Dx::Skip { 2.0 } else { 4.0 } * words as f64 * mean,
            dx_sum: sum.unwrap_or(CostTerms::ZERO),
            gap: CostTerms::ZERO,
        };
        steps.push(LayerPlan {
            forward,
            dx,
            relaid: relaid(l),
            flops: 2.0 * words as f64 * mean,
            grad,
        });
    }
    let head = steps.iter().rev().map(|s| s.grad);
    let grads: Vec<Grad> = head.chain(below.iter().copied()).collect();
    let buckets = model.map(|m| buckets(&grads, at(0).1, m));
    let launched = buckets.is_some();
    let (lens, mut filled, mut staged) = (buckets.as_deref().unwrap_or_default(), 0, 0);
    // A bucket launches once its last layer is in.
    let mut fill = |run: &mut Vec<Collective>, words: usize| {
        staged += words;
        if lens.get(filled) == Some(&staged) {
            run.push(Collective(Kind::AllReduce, true, at(0).1, staged));
            (filled, staged) = (filled + 1, 0);
        }
    };
    for (l, step) in steps.iter().enumerate().rev() {
        let (pr, pc, rows, bloc) = block(layers[l].d_in, l);
        let dx = Collective(Kind::ReduceScatter, launched, pr, layers[l].d_in * bloc);
        if !launched {
            run.push(Collective(Kind::AllReduce, false, pc, step.grad.words));
        }
        run.extend((step.dx == Dx::ReduceScatter).then_some(dx));
        fill(&mut run, step.grad.words);
        if step.relaid {
            run.push(Collective(Kind::AllGather, false, pr, rows * bloc));
        }
    }
    if input_grad {
        let (pr, _, rows, bloc) = block(layers[0].d_in, 0);
        run.push(Collective(Kind::AllGather, false, pr, rows * bloc));
    }
    for g in below {
        fill(&mut run, g.words);
    }
    CommPlan {
        layers: steps,
        below: below.to_vec(),
        trunk: Vec::new(),
        buckets,
        collectives: run,
    }
}

impl CommPlan {
    /// Each layer's [`Grad`] in push order, the top first, then a CNN
    /// trunk's ([`CommPlan::below`]), as [`buckets`] cuts them.
    pub fn grads(&self) -> Vec<Grad> {
        let layers = self.layers.iter().rev().map(|l| l.grad);
        layers.chain(self.below.iter().copied()).collect()
    }

    /// The plan with `words` riding the iteration's last `∆W` sum, layer
    /// 0's: the riders of [`crate::trainer::Tape`].
    ///
    /// # Panics
    ///
    /// Panics if layer 0 forms its `∆X`: words ride its sum only without.
    pub(crate) fn ride(mut self, words: usize) -> CommPlan {
        assert_eq!(self.layers[0].dx, Dx::Skip, "riders ride layer 0's ∆W sum");
        self.collectives.last_mut().expect("a ∆W sum").3 += words;
        self
    }
}

impl Collective {
    /// What the collective costs the rank under `model`: the closed form
    /// of the schedule that runs it — Bruck's gather (of `p` blocks of the
    /// rank's size), [`allreduce_exact`] or [`reduce_scatter_exact`].
    pub fn cost(&self, model: &NetModel) -> CostTerms {
        let Collective(kind, _, p, words) = *self;
        match kind {
            Kind::AllGather => bruck_allgather(p, (words * p) as f64),
            Kind::AllReduce => allreduce_exact(p, words as f64, model),
            Kind::ReduceScatter => reduce_scatter_exact(p, words as f64),
        }
    }
}

/// One rank's iteration on the α–β clock of `model`, in seconds, read off
/// its plan. The forward runs each layer's product and its blocking
/// collective. A blocking backward adds each layer's products and every
/// collective left on the list; a scheduled one is the `walk` of its
/// pushes, each bucket of [`CommPlan::buckets`] launched at the push that
/// fills it and priced by the row group's all-reduce (riders excluded).
/// No rank waits on a peer here, so where shards divide evenly the
/// slowest rank's replay is the executed iteration.
///
/// # Panics
///
/// Panics on a plan it cannot price: a CNN rank's, whose trunk rows hold
/// no compute and whose strips are ragged; one that re-lays a layer
/// ([`crate::mixed::train_mixed`]); or a scheduled one that gathers its
/// input's gradient (a CNN head's).
pub fn replay(plan: &CommPlan, model: &NetModel) -> f64 {
    let (layers, scheduled) = (&plan.layers, plan.buckets.as_deref());
    let refused = !plan.trunk.is_empty() || layers.iter().any(|l| l.relaid);
    let refused = refused || scheduled.is_some() && layers[0].dx != Dx::Skip;
    assert!(
        !refused,
        "the replay prices no trunk, re-laid layer or scheduled ∆X gather"
    );
    let secs = |c: &Collective| c.cost(model).seconds(model);
    let (mut run, mut now) = (plan.collectives.iter(), 0.0);
    for l in layers {
        now += model.compute(l.flops);
        if l.forward != Forward::Keep {
            now += secs(run.next().expect("the forward's collective"));
        }
    }
    let grads = plan.grads();
    let Some(lens) = scheduled else {
        let products: f64 = grads.iter().map(|g| model.compute(g.flops)).sum();
        return now + products + run.map(secs).sum::<f64>();
    };
    // The row group's size, off a launch.
    let group = run
        .find(|c| c.1 && c.0 == Kind::AllReduce)
        .map_or(1, |c| c.2);
    let (mut lens, mut staged) = (lens.iter().peekable(), 0);
    now + walk(&grads, model, |k| {
        staged += grads[k].words;
        let words = lens
            .next_if_eq(&&staged)
            .map(|_| std::mem::take(&mut staged));
        words.map(|n| Collective(Kind::AllReduce, true, group, n).cost(model))
    })
}

/// The scheduled backward of `grads` (in push order) on the clock of
/// `m`: when its drain ends if push `k` launches the bucket `launch(k)`
/// prices (`None` where it fills none). It follows
/// [`crate::trainer::BucketScheduler`]'s policy, and a change to that
/// policy is a change here. Each layer blocks on its `gap`, runs its
/// products and launches its ∆X sum after the first, behind everything on
/// the channel, waiting it after the second; its push then puts one
/// α-step of the oldest bucket still being issued on the channel (the
/// scheduler's `poll`); the drain issues the rest in launch order.
pub(crate) fn walk(
    grads: &[Grad],
    m: &NetModel,
    mut launch: impl FnMut(usize) -> Option<CostTerms>,
) -> f64 {
    // The launched buckets with steps still to issue, each `[steps,
    // seconds a step, ready]`: `ready` when its last issued step ends, or
    // its launch.
    let (mut now, mut free, mut queue) = (0.0_f64, 0.0_f64, VecDeque::<[f64; 3]>::new());
    for (k, g) in grads.iter().enumerate() {
        let (c, x) = (m.compute(g.flops), g.dx_sum.seconds(m));
        now += g.gap.seconds(m);
        if x > 0.0 {
            free = free.max(now + c / 2.0) + x;
            now = (now + c).max(free);
        } else {
            now += c;
        }
        if let Some(cost) = launch(k) {
            let steps = cost.alpha.max(1.0);
            queue.push_back([steps, cost.seconds(m) / steps, now]);
        }
        if let Some(b) = queue.front_mut() {
            free = free.max(b[2]) + b[1];
            (b[0], b[2]) = (b[0] - 1.0, free);
            if b[0] < 1.0 {
                queue.pop_front();
            }
        }
    }
    let issue = |free: f64, b: &[f64; 3]| free.max(b[2]) + b[0] * b[1];
    queue.iter().fold(free, issue).max(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::{synthetic_images, train_cnn_domain_traced, CnnSpec};
    use crate::ft_trainer::{train_1p5d_ft_traced, FtTrainConfig};
    use crate::trainer::{
        extract_fc_layers, synthetic_data, train_1p5d_scheduled_traced, train_1p5d_traced,
        train_grid, TrainConfig,
    };
    use dnn::zoo::{mini_alexnet, mlp, mlp_tiny};
    use dnn::Network;
    use mpsim::{EventKind, FaultPlan, TraceConfig, WorldTrace};

    /// A collective as a trace shows it: launched (the kind unrecorded)
    /// or blocking and its kind, its group's size and its words.
    type Seen = (bool, Option<Kind>, usize, usize);

    /// What each rank of `trace` ran inside its FC passes (the `trainer`
    /// `forward` and `backward` spans), in issue order: every
    /// `collective` span and `nb`/`iallreduce_launch` instant over a
    /// group of more than one; and every launch outside any span, the
    /// CNN trunk's.
    fn seen(trace: &WorldTrace) -> Vec<Vec<Seen>> {
        let ran = |ev: &[mpsim::TraceEvent]| {
            let mut out = Vec::new();
            for (k, pass) in ev.iter().enumerate() {
                let fc = matches!(pass.name, "forward" | "backward") && pass.cat == "trainer";
                // A span is recorded when it closes: its children are the
                // deeper events right before it.
                let mut inside: Vec<_> = match (fc && pass.kind == EventKind::Span, pass.depth) {
                    (true, _) => ev[..k]
                        .iter()
                        .rev()
                        .take_while(|e| e.depth > pass.depth)
                        .collect(),
                    (false, 0) if pass.name == "iallreduce_launch" => vec![pass],
                    _ => continue,
                };
                inside.reverse();
                for e in inside {
                    let kind = match (e.cat, e.name) {
                        ("nb", "iallreduce_launch") => None,
                        ("collective", n) if n.starts_with("allgather") => Some(Kind::AllGather),
                        ("collective", n) if n.starts_with("allreduce") => Some(Kind::AllReduce),
                        ("collective", n) if n.starts_with("reduce_scatter") => {
                            Some(Kind::ReduceScatter)
                        }
                        _ => continue,
                    };
                    let arg = |key| e.arg(key).expect("annotated") as usize;
                    if arg("p") > 1 {
                        out.push((kind.is_none(), kind, arg("p"), arg("words")));
                    }
                }
            }
            out
        };
        trace.ranks.iter().map(|r| ran(&r.events)).collect()
    }

    /// Asserts every rank of `trace` ran `iters` times, and nothing else,
    /// what its plan `plan(rank)` lists over groups of more than one.
    fn runs_its_plan(trace: &WorldTrace, iters: usize, plan: impl Fn(usize) -> CommPlan, at: &str) {
        for (r, seen) in seen(trace).into_iter().enumerate() {
            let listed: Vec<Seen> = (plan(r).collectives.into_iter())
                .filter(|c| c.2 > 1)
                .map(|Collective(kind, launched, p, words)| {
                    (launched, (!launched).then_some(kind), p, words)
                })
                .collect();
            assert_eq!(seen, listed.repeat(iters), "{at} rank {r}");
        }
    }

    const ITERS: usize = 2;

    fn cfg() -> TrainConfig {
        TrainConfig {
            lr: 0.02,
            iters: ITERS,
            seed: 18,
        }
    }

    /// Every rank of `net` with batch `b` runs its plan on every grid of
    /// P = 4, 8 and 16, blocking and, if `scheduled`, scheduled.
    fn every_grid_runs_its_plan(net: &Network, b: usize, scheduled: bool) {
        let (model, on, cfg) = (NetModel::cori_knl(), TraceConfig::enabled(), cfg());
        let (x, labels) = synthetic_data(net, b, 7);
        let layers = &extract_fc_layers(net);
        for p in [4usize, 8, 16] {
            for pr in (0..=p.trailing_zeros()).map(|k| 1 << k) {
                let pc = p / pr;
                let at = format!("{} {pr}x{pc}", net.name);
                let plans = |m| move |r| plan(layers, b, &[(pr, pc)], r, false, m);
                let (_, trace) = train_1p5d_traced(net, &x, &labels, &cfg, pr, pc, model, on);
                runs_its_plan(&trace, ITERS, plans(None), &at);
                if scheduled {
                    let run = train_1p5d_scheduled_traced;
                    let (_, trace) = run(net, &x, &labels, &cfg, pr, pc, model, on);
                    runs_its_plan(&trace, ITERS, plans(Some(&model)), &at);
                }
            }
        }
    }

    /// The benchmark's `fc_1p5d` (P = 8, 16) and `fig8_exec` (P = 4, 16)
    /// run one network and batch: each rank runs, in every iteration and
    /// in order, exactly the collectives its plan lists, blocking and
    /// scheduled.
    #[test]
    fn the_fc_1p5d_and_fig8_exec_grids_run_their_plans() {
        let net = mlp("alexnet-fc-exec", &[384, 256, 256, 10]);
        every_grid_runs_its_plan(&net, 512, true);
    }

    /// `fig6_exec`'s grids (P = 4, 8, 16; blocking) run their plans.
    #[test]
    fn the_fig6_exec_grids_run_their_plans() {
        let net = mlp("mlp-exec", &[256, 512, 512, 128, 10]);
        every_grid_runs_its_plan(&net, 32, false);
    }

    /// A run whose `Pc` changes between layers, every CNN rank (its head
    /// on `1 × P`, whose last bucket the trunk's conv partials fill, on
    /// 2 × 2 and 1 × 4), and a fault-free run of the fault-tolerant
    /// trainer, whose loss rides layer 0's ∆W sum, run their plans.
    #[test]
    fn mixed_grids_the_cnn_head_and_the_ft_trainer_run_their_plans() {
        let (model, on, cfg) = (NetModel::cori_knl(), TraceConfig::enabled(), cfg());
        // Layer 0 on 1 × 4, the rest on 2 × 2: its output and ∆X re-laid.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let (layers, shapes) = (extract_fc_layers(&net), [(1, 4), (2, 2)]);
        let plans = |l: &[FcLayer], r| plan(l, 24, &shapes, r, false, None);
        let (_, trace) = train_grid(&net, &x, &labels, &cfg, &shapes, model, on, plans);
        runs_its_plan(&trace, ITERS, |r| plans(&layers, r), "1x4 then 2x2");

        let net = mini_alexnet();
        let (x, labels) = synthetic_images(&net, 8, 5);
        let spec = CnnSpec::of(&net).expect("a CNN");
        for (pd, pc) in [(2, 2), (1, 4)] {
            let (_, trace) = train_cnn_domain_traced(&net, &x, &labels, &cfg, pd, pc, model, on);
            let plans = spec.plans(8, (pd, pc), &model);
            runs_its_plan(
                &trace,
                ITERS,
                |r| plans[r].clone(),
                &format!("CNN {pd}x{pc}"),
            );
        }

        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let layers = extract_fc_layers(&net);
        let ft = FtTrainConfig {
            iters: ITERS,
            ..FtTrainConfig::default()
        };
        let model = ft.machine.net_model();
        for (pr, pc) in [(2, 2), (1, 4)] {
            let none = FaultPlan::default();
            let (_, trace) = train_1p5d_ft_traced(&net, &x, &labels, &ft, pr, pc, none, on);
            let plan = |r| plan(&layers, 24, &[(pr, pc)], r, false, Some(&model)).ride(pc);
            runs_its_plan(&trace, ITERS, plan, &format!("FT {pr}x{pc}"));
        }
    }

    /// The replay refuses a CNN rank's plan: its trunk rows hold no
    /// compute.
    #[test]
    #[should_panic(expected = "the replay prices no trunk")]
    fn the_replay_refuses_a_cnn_plan() {
        let (net, model) = (mini_alexnet(), NetModel::cori_knl());
        let spec = CnnSpec::of(&net).expect("a CNN");
        replay(&spec.plans(8, (2, 2), &model)[0], &model);
    }

    /// Each CNN rank's head plan prices the images the rank holds past
    /// the domain prefix, also where the batch does not split evenly
    /// (B = 2 on 2 × 2, where two ranks hold none, and B = 10 on 4 × 3):
    /// the input-split top's forward sum holds `d_out` words an image, and
    /// every FC layer's traced GEMM multiplies `2·d_in·d_out` flops an
    /// image.
    #[test]
    fn the_cnn_head_plans_the_images_each_rank_holds() {
        let (net, model) = (mini_alexnet(), NetModel::cori_knl());
        let spec = CnnSpec::of(&net).expect("a CNN");
        let top = spec.fcs.last().expect("a head");
        for (b, pd, pc) in [(2, 2, 2), (10, 4, 3)] {
            let (x, labels) = synthetic_images(&net, b, 5);
            let on = TraceConfig::enabled();
            let (_, trace) = train_cnn_domain_traced(&net, &x, &labels, &cfg(), pd, pc, model, on);
            let plans = spec.plans(b, (pd, pc), &model);
            for rank in &trace.ranks {
                let (i, j, ev) = (rank.rank / pc, rank.rank % pc, &rank.events);
                let images = part_range(part_range(b, pc, j).len(), pd, i).len();
                let sum = plans[rank.rank]
                    .collectives
                    .iter()
                    .find(|c| c.0 == Kind::AllReduce && !c.1);
                let planned = sum.expect("the top's forward sum").3 / top.d_out;
                let flops = |l: &FcLayer| (2 * l.d_in * l.d_out * planned) as f64;
                // The GEMM of each `layer_fwd` span (none without an image).
                let gemms: Vec<f64> = (0..ev.len())
                    .filter(|&k| ev[k].name == "layer_fwd" && ev[k].kind == EventKind::Span)
                    .map(|k| {
                        let mut inside = ev[..k].iter().rev().take_while(|e| e.depth > ev[k].depth);
                        let gemm = inside.find(|e| e.cat == "compute");
                        gemm.map_or(0.0, |e| e.arg("flops").expect("flops"))
                    })
                    .collect();
                let at = format!("B = {b} on {pd}x{pc} rank {}", rank.rank);
                let want: Vec<f64> = spec.fcs.iter().map(flops).collect();
                assert_eq!(gemms, want.repeat(ITERS), "{at}: {images} images");
            }
        }
    }
}
