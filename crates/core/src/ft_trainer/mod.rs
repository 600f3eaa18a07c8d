//! Fault-tolerant 1.5D training: checkpoint / detect / shrink / replay.
//!
//! [`crate::trainer::train_1p5d`] assumes a reliable machine; this
//! module wraps the same synchronous SGD in a recovery protocol so a
//! [`FaultPlan`] — dropped messages, stragglers, flipped bits, rank
//! deaths, partitions — degrades the run instead of hanging or
//! corrupting it. The protocol and what it protects are kept apart:
//!
//! * `membership` — who is in the run. Before every iteration all world
//!   ranks take one `Membership::agree` step on the control plane
//!   (presence → echo → verdict rounds, the quorum rule, the welcome of
//!   returning ranks; its module doc has the step table), which answers
//!   `Train`, `Recover { epoch, target }`, `Retry` or `Parked`. It deals
//!   in global ranks, epochs, iteration numbers and bytes only.
//! * `wire` — the byte layout of the protocol's messages, over one
//!   little-endian writer/reader whose every read is bounds-checked.
//! * `state` — what is protected: the shards a rank holds on the
//!   current grid, the iteration body, the weight audit, checkpoints,
//!   and the relayout a recovery performs.
//! * this file — configuration, reports, and `run_rank`: the loop that
//!   matches on `agree`'s answer.
//!
//! 1. **Checkpointing.** Every `ckpt_every` iterations each rank
//!    snapshots its weight (and momentum) shards; the last *two*
//!    checkpoints are retained because a fault can catch ranks one
//!    iteration apart across a checkpoint boundary. Checkpoint volume
//!    is charged to [`mpsim::RankStats::ckpt_words`].
//! 2. **Detection.** Death notices and severed markers make missing
//!    members observable by every survivor in the *same* agreement
//!    round, so the survivor set is common knowledge. During an
//!    iteration itself, faults surface through the communicator: the
//!    training grid is built on a handle guarded with
//!    [`FtTrainConfig::ft`] ([`Communicator::guarded`]), so every
//!    receive of every collective is deadline-bound and checksummed,
//!    and a fault cascades a group-wide abort (`collectives::ft`).
//! 3. **Shrink + re-plan.** Survivors enter the recovery epoch
//!    (staling in-flight aborts), derive the survivor communicator
//!    with the communication-free [`Communicator::shrink_exclude`]
//!    (guarded again), and re-plan the grid: the new `Pr' × Pc'` is the
//!    factorization of the survivor count minimizing the paper's Eq. 8
//!    communication cost on the configured [`MachineModel`].
//! 4. **Relayout + replay.** The checkpoint moves to the new grid as
//!    the paper's Eq. 6 prices a change of layout: each survivor needs
//!    the rows of its new grid row, takes those its old row held from
//!    its own checkpoint, and fetches each other old row's part (every
//!    layer's weights, then its velocity) in one point-to-point message
//!    from that row's lowest-ranked survivor. The messages ride the
//!    data plane, so the relayout is charged on the virtual clock and
//!    recorded in [`mpsim::RankStats::recovery_secs`]; a rollback in
//!    place moves no word. `RecoveryReport::model_secs` is its closed
//!    form. Training then replays from the checkpoint iteration. A
//!    weight-shard row with no surviving replica makes the run
//!    unrecoverable.
//!
//! A recovery attempt is *transactional*: survivors build the new
//! grid/weights in temporaries and commit only after a confirmation
//! (a vote and an echo of every verdict) shows every survivor succeeded
//! — a fault during recovery just triggers another attempt with the
//! updated survivor set. A commit moves every survivor's clock to the
//! latest voter's.

mod membership;
mod state;
mod wire;

use std::borrow::Cow;

use collectives::FtConfig;
use dnn::{Network, WeightedLayer};
use mpsim::{Communicator, Error, FaultPlan, RunOpts, TraceConfig, World, WorldStats, WorldTrace};
use tensor::Matrix;

use crate::cost::integrated_model_batch;
use crate::machine::MachineModel;
use crate::overlap::OverlapPlan;
use crate::trainer::{assemble_weights, extract_fc_layers, init_weights, FcLayer};

use membership::{lives, Membership, Step};
use state::{cost, recover, take_checkpoint, Checkpoint, GridState};
use wire::Welcome;

/// Configuration for a fault-tolerant training run.
#[derive(Debug, Clone, Copy)]
pub struct FtTrainConfig {
    /// SGD learning rate η.
    pub lr: f64,
    /// Momentum μ (0 reproduces [`crate::trainer::train_1p5d`]'s plain
    /// SGD; μ > 0 adds a velocity buffer that is checkpointed and
    /// redistributed alongside the weights).
    pub momentum: f64,
    /// Number of iterations over the full batch.
    pub iters: usize,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Checkpoint period in iterations (≥ 1). A checkpoint is also
    /// taken at iteration 0, so rollback is always possible.
    pub ckpt_every: usize,
    /// Fault policy of the communicator the training grid is built on
    /// ([`Communicator::guarded`]).
    pub ft: FtConfig,
    /// Machine used both to drive the simulation (`net_model()`) and to
    /// re-plan the grid with Eq. 8 after a shrink.
    pub machine: MachineModel,
    /// The iteration body, scheduled by default
    /// (`Some(OverlapPlan::default())`): each ∆X all-reduce overlaps
    /// its layer's ∆W product and the ∆W all-reduces the remaining
    /// backward compute on the non-blocking collectives, bucketed and
    /// drained like [`crate::trainer::train_1p5d_scheduled`], which runs
    /// the same body, so every bucket is applied before the iteration
    /// commits. Chunk receives stay deadline-bound and a fault inside a
    /// bucket aborts the group, so recovery semantics are those of the
    /// blocking body. The backward's SDC op order is (∆X, ∆W) per layer
    /// above the first, where the blocking body's is (∆W, ∆X). `None`
    /// runs the fully blocking iteration of
    /// [`crate::trainer::train_1p5d`]; tests keep it as the blocking
    /// reference.
    pub plan: Option<OverlapPlan>,
    /// Defend against *silent* data corruption: every local GEMM output
    /// is ABFT checksum-verified (single-element errors repaired in
    /// place, multi-element errors escalated to rollback), and resident
    /// weight shards are audited against a running checksum at every
    /// iteration start (a memory flip escalates to rollback). Scripted
    /// [`FaultPlan`] bit flips are injected regardless of this flag —
    /// the fault exists whether or not anyone defends; `abft` only
    /// decides whether it is caught. A clean run computes bit-identical
    /// weights with `abft` on or off (verification only reads), at the
    /// cost of the checksum FLOPs charged to the virtual clock.
    pub abft: bool,
}

impl Default for FtTrainConfig {
    fn default() -> Self {
        let machine = MachineModel::cori_knl();
        // Deadlines derived from the machine's α–β point (a fixed
        // seconds value that is generous on one network is a hair
        // trigger on another), with per-peer adaptive tightening and
        // speculative re-requests for stragglers.
        let ft = FtConfig::adaptive(&machine.net_model(), 4096).with_attempts(2);
        FtTrainConfig {
            lr: 0.1,
            momentum: 0.0,
            iters: 10,
            seed: 7,
            ckpt_every: 2,
            ft,
            machine,
            plan: Some(OverlapPlan::default()),
            abft: false,
        }
    }
}

/// One committed recovery, as observed by a surviving rank (identical
/// on every survivor).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Recovery epoch entered by this recovery.
    pub epoch: u64,
    /// Iteration training rolled back to (the agreed checkpoint).
    pub rollback_iter: usize,
    /// Cumulative dead global ranks at this recovery.
    pub dead: Vec<usize>,
    /// Previously-dead ranks re-admitted (rejoined) by this recovery.
    pub rejoined: Vec<usize>,
    /// New grid extents after the shrink (or regrow).
    pub pr: usize,
    /// New grid extents after the shrink (or regrow).
    pub pc: usize,
    /// Virtual seconds this rank spent in the committed attempt
    /// (epoch bump through commit: re-plan, relayout, re-shard, and the
    /// wait for the last participant's vote).
    pub measured_secs: f64,
    /// The relayout's closed form on this recovery's grids: what
    /// `measured_secs` is when every clock entered the recovery together
    /// (the commit aligns clocks that did not).
    pub model_secs: f64,
    /// Cumulative exposed wait on non-blocking collective drains
    /// ([`mpsim::RankStats::comm_wait_secs`]) at the time of this
    /// recovery — a diagnostic for how overlap and fault recovery
    /// interact (0 when [`FtTrainConfig::plan`] is `None`).
    pub comm_wait_secs: f64,
    /// Eq. 8 per-iteration communication seconds on the shrunk grid —
    /// the analytic degraded-mode cost to compare with
    /// [`FtRankOutcome::comm_secs_per_iter`].
    pub analytic_comm_per_iter: f64,
}

/// Per-surviving-rank outcome of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct FtRankOutcome {
    /// Final grid row (model-shard index).
    pub i: usize,
    /// Final grid column (batch-shard index).
    pub j: usize,
    /// Final grid extents (post-shrink if any recovery happened).
    pub pr: usize,
    /// Final grid extents (post-shrink if any recovery happened).
    pub pc: usize,
    /// *Global* loss before each committed iteration (identical on
    /// every survivor — the loss partials ride the row group's last ∆W
    /// sum of the iteration, one exact slot per column rank, and every
    /// rank adds them in one order).
    pub losses: Vec<f64>,
    /// Final local weight shards for the final grid.
    pub weight_shards: Vec<Matrix>,
    /// Committed recoveries, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// Measured mean communication seconds per iteration on the final
    /// grid (iterations since the last recovery) — the executed
    /// degraded-mode cost.
    pub comm_secs_per_iter: f64,
    /// Measured mean wall-clock (virtual) seconds per iteration on the
    /// final grid (iterations since the last recovery) — compare the
    /// post-rejoin value against a fault-free run to bound the residual
    /// cost of elasticity.
    pub step_secs_per_iter: f64,
}

/// Outcome of a fault-tolerant distributed run.
#[derive(Debug)]
pub struct FtDistResult {
    /// Initial grid extents.
    pub pr0: usize,
    /// Initial grid extents.
    pub pc0: usize,
    /// Per-rank outcome; `Err` for ranks that died (or were
    /// unrecoverable), indexed by global rank.
    pub per_rank: Vec<Result<FtRankOutcome, Error>>,
    /// Virtual-time, traffic, and fault statistics.
    pub stats: WorldStats,
    /// The trained chain: which extent each layer's shards split.
    layers: Vec<FcLayer>,
}

impl FtDistResult {
    /// Surviving ranks' outcomes.
    pub fn survivors(&self) -> Vec<&FtRankOutcome> {
        self.per_rank
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .collect()
    }

    /// Global loss history (identical on every survivor).
    ///
    /// # Panics
    ///
    /// Panics if no rank survived.
    pub fn losses(&self) -> Vec<f64> {
        self.survivors()
            .first()
            .expect("at least one survivor")
            .losses
            .clone()
    }

    /// Assembles the full weight matrices from the final grid's
    /// column-0 shards.
    ///
    /// # Panics
    ///
    /// Panics if no rank survived.
    pub fn weights(&self) -> Vec<Matrix> {
        let ranks = self.survivors().into_iter();
        assemble_weights(&self.layers, ranks.map(|r| (r.i, r.j, &r.weight_shards)))
    }
}

/// Eq. 8 grid choice for `p` survivors: the divisor pair `(pr, pc)`
/// minimizing the analytic communication time, subject to every rank
/// keeping a non-empty weight and batch shard.
pub use crate::cost::best_grid as plan_grid;

/// Faults are handled by abort-and-recover; anything else — including
/// this rank's own scripted death — is fatal for the rank.
fn recoverable(e: &Error, my_global: usize) -> bool {
    match e {
        Error::Timeout { .. }
        | Error::Corrupted { .. }
        | Error::SilentCorruption { .. }
        | Error::Aborted { .. } => true,
        Error::RankFailed { rank } | Error::Unreachable { rank } => *rank != my_global,
        _ => false,
    }
}
/// What every life of every rank trains: fixed for the run.
struct Job<'a> {
    layers: &'a [FcLayer],
    wlayers: &'a [WeightedLayer],
    x: &'a Matrix,
    labels: &'a [usize],
    cfg: &'a FtTrainConfig,
    /// Extents of the initial grid.
    grid0: (usize, usize),
    /// The run's initial full-size weights (drawn once, before the world
    /// starts).
    weights0: &'a [Matrix],
}

/// Mean of `xs`; 0 for none.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Communication seconds so far: *transfer* time (blocking receives
/// plus the overlap channel), not the clock's `comm` component — the
/// latter also absorbs time the rank spends idle at a deadline or
/// waiting out a straggler, so using it would report whole-step time as
/// communication.
fn transfer_secs(comm: &Communicator) -> f64 {
    let s = comm.stats();
    s.transfer_secs + s.channel_secs
}

/// One life of one rank — from scratch, or mid-run as a returning rank
/// armed with the survivors' welcome: agree, then train or recover,
/// until training completes or the rank fails. A scripted death
/// surfaces as `RankFailed` on itself and a lost quorum as `Unreachable`
/// on itself, either of which [`lives`] may turn into a rejoin.
fn run_rank(
    comm: &Communicator,
    welcome: Option<Welcome>,
    job: &Job,
) -> Result<FtRankOutcome, Error> {
    let my_global = comm.global_rank_of(comm.rank())?;
    let cfg = job.cfg;
    let nudge = 4.0 * cfg.machine.alpha;

    // `member` is the committed grid state; `None` for a re-admitted
    // rank between its welcome and its first committed recovery. The
    // last *two* checkpoints are retained because a fault can catch
    // ranks one iteration apart across a checkpoint boundary.
    let (mut m, mut member, mut ckpt_cur) = match welcome {
        None => {
            // Epoch-0 "shrink" of nothing: gives the training phase its
            // own context namespace, uniform with post-recovery grids.
            let alive0 = comm.shrink_exclude(&[], 0)?.guarded(&cfg.ft);
            let full = |k: usize, a, b| {
                let w = job.weights0.get(k)?; // a velocity starts at zero
                Some(job.layers[k].orient(Cow::Borrowed(w)).row_block(a, b))
            };
            let st = GridState::shard(&alive0, job.grid0, full, job, 0)?;
            let ck = take_checkpoint(comm, &st);
            (Membership::fresh(st.view.clone(), nudge), Some(st), ck)
        }
        Some(w) => {
            let ck = Checkpoint::empty(w.target);
            (Membership::rejoin(comm, w, nudge), None, ck)
        }
    };
    let mut ckpt_prev = ckpt_cur.clone();
    let mut recoveries: Vec<RecoveryReport> = Vec::new();
    let mut iter_comm: Vec<f64> = Vec::new();
    let mut iter_wall: Vec<f64> = Vec::new();

    loop {
        match m.agree(comm, ckpt_cur.iter, member.is_some())? {
            Step::Retry => {}
            // The caller inspects the plan: a healed cut turns this
            // into a welcome-wait + rejoin; one that never heals
            // propagates the error.
            Step::Parked => return Err(Error::Unreachable { rank: my_global }),
            // --- recovery attempt (transactional) ---
            Step::Recover { epoch, target } => {
                let t0 = comm.now();
                let _rec = comm.trace_span("trainer", "recovery", &[("epoch", epoch as f64)]);
                comm.trace_instant("trainer", "rollback", &[("target_iter", target as f64)]);
                let joiner = Checkpoint::empty(target);
                let ck = match &member {
                    None => &joiner,
                    Some(_) if ckpt_cur.iter == target => &ckpt_cur,
                    Some(_) => {
                        assert_eq!(
                            ckpt_prev.iter, target,
                            "rollback target must be one of the two retained checkpoints"
                        );
                        &ckpt_prev
                    }
                };
                let attempt = recover(comm, &m, ck, job);
                // An unrecoverable verdict is derived from common
                // knowledge, so every survivor returns it together.
                if let Err(e) = &attempt {
                    if !recoverable(e, my_global) {
                        return Err(e.clone());
                    }
                }
                // Commit only if every participant succeeded and nobody
                // died meanwhile.
                let all_ok = m.confirm(comm, attempt.is_ok())?;
                comm.record_recovery_secs(comm.now() - t0);
                if all_ok {
                    let st = attempt.expect("ok implies state");
                    let (pr, pc) = (st.grid.pr, st.grid.pc);
                    let model_secs = cost(&m.known, &st.view, job);
                    ckpt_cur = Checkpoint::of(&st);
                    ckpt_prev = ckpt_cur.clone();
                    recoveries.push(RecoveryReport {
                        epoch,
                        rollback_iter: target,
                        rejoined: m.commit(st.view.clone(), st.iter),
                        dead: m.known.excluded.clone(),
                        pr,
                        pc,
                        measured_secs: comm.now() - t0,
                        model_secs,
                        comm_wait_secs: comm.stats().comm_wait_secs,
                        analytic_comm_per_iter: integrated_model_batch(
                            job.wlayers,
                            job.x.cols() as f64,
                            pr,
                            pc,
                        )
                        .seconds(&cfg.machine),
                    });
                    member = Some(st);
                    iter_comm.clear();
                    iter_wall.clear();
                }
            }
            // --- one training iteration ---
            Step::Train => {
                let st = member
                    .as_mut()
                    .expect("a stateless rank always re-enters recovery");
                if st.iter >= cfg.iters {
                    break;
                }
                let (comm_before, wall_before) = (transfer_secs(comm), comm.now());
                match st.audit(comm, cfg.abft).and_then(|_| st.step(job)) {
                    Ok(global_loss) => {
                        m.known.losses.push(global_loss);
                        iter_comm.push(transfer_secs(comm) - comm_before);
                        iter_wall.push(comm.now() - wall_before);
                        if st.iter % cfg.ckpt_every == 0 && st.iter < cfg.iters {
                            ckpt_prev = std::mem::replace(&mut ckpt_cur, take_checkpoint(comm, st));
                        }
                    }
                    Err(e) if recoverable(&e, my_global) => m.aborted = true,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    let st = member.expect("loop exits only with committed state");
    Ok(FtRankOutcome {
        i: st.grid.i,
        j: st.grid.j,
        pr: st.grid.pr,
        pc: st.grid.pc,
        losses: m.known.losses,
        weight_shards: st.w,
        recoveries,
        comm_secs_per_iter: mean(&iter_comm),
        step_secs_per_iter: mean(&iter_wall),
    })
}

/// Fault-tolerant distributed SGD on an initial `pr × pc` grid under a
/// [`FaultPlan`]. With an inactive plan this computes exactly the same
/// trajectory as [`crate::trainer::train_1p5d`] (for `momentum = 0`).
///
/// Membership is **elastic**: a rank killed by the plan that also has a
/// scripted [`FaultPlan::rejoin`] revives at its rejoin time, announces
/// itself, and is re-admitted at the next fault-epoch boundary — the
/// survivors re-plan the grid over the enlarged member set with Eq. 8
/// (regrowing toward the original extents), redistribute checkpoint
/// state to it, and training replays from the agreed checkpoint.
pub fn train_1p5d_ft(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &FtTrainConfig,
    pr: usize,
    pc: usize,
    plan: FaultPlan,
) -> FtDistResult {
    train_1p5d_ft_traced(net, x, labels, cfg, pr, pc, plan, TraceConfig::disabled()).0
}

/// [`train_1p5d_ft`] with per-rank event tracing: the returned
/// [`WorldTrace`] shows fault instants (drops, corruption, deaths),
/// `recovery`/`rollback`/`checkpoint` trainer events, and dead-gap
/// spans for revived ranks alongside the usual compute/comm timeline.
#[allow(clippy::too_many_arguments)]
pub fn train_1p5d_ft_traced(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &FtTrainConfig,
    pr: usize,
    pc: usize,
    plan: FaultPlan,
    trace: TraceConfig,
) -> (FtDistResult, WorldTrace) {
    assert!(cfg.ckpt_every >= 1, "checkpoint period must be >= 1");
    let layers = extract_fc_layers(net);
    let wlayers = net.weighted_layers();
    let model = cfg.machine.net_model();
    let full_weights = init_weights(&layers, cfg.seed);
    let opts = RunOpts {
        faults: plan,
        trace,
        ..RunOpts::default()
    };
    let job = Job {
        layers: &layers,
        wlayers: &wlayers,
        x,
        labels,
        cfg,
        grid0: (pr, pc),
        weights0: &full_weights,
    };
    let (per_rank, stats, traces) = World::run_opts(pr * pc, model, opts, |comm| {
        lives(comm, |welcome| run_rank(comm, welcome, &job))
    });
    (
        FtDistResult {
            pr0: pr,
            pc0: pc,
            per_rank,
            stats,
            layers,
        },
        traces,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{self, synthetic_data, train_1p5d, train_1p5d_scheduled, TrainConfig};
    use collectives::cost::allreduce_exact;
    use dnn::zoo::mlp_tiny;
    use mpsim::TraceEvent;

    fn cfg(iters: usize) -> FtTrainConfig {
        FtTrainConfig {
            lr: 0.3,
            iters,
            seed: 7,
            ckpt_every: 2,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine: MachineModel::cori_knl(),
            ..FtTrainConfig::default()
        }
    }

    /// `mlp_tiny` on 24 samples over the 2 × 3 grid under `plan`.
    fn run(c: &FtTrainConfig, plan: FaultPlan) -> FtDistResult {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        train_1p5d_ft(&net, &x, &labels, c, 2, 3, plan)
    }

    fn max_weight_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn fault_free_run_matches_plain_trainer_exactly() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let c = cfg(6);
        let plain = train_1p5d(
            &net,
            &x,
            &labels,
            &TrainConfig {
                lr: c.lr,
                iters: c.iters,
                seed: c.seed,
            },
            2,
            3,
            c.machine.net_model(),
        );
        let ft = train_1p5d_ft(&net, &x, &labels, &c, 2, 3, FaultPlan::default());
        assert_eq!(ft.survivors().len(), 6);
        assert!(max_weight_diff(&plain.weights(), &ft.weights()) < 1e-12);
        for (a, b) in plain.losses().iter().zip(ft.losses()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert!(ft.stats.total_ckpt_words() > 0, "checkpoints were recorded");
        assert_eq!(ft.stats.max_recovery_secs(), 0.0, "no recovery happened");
    }

    #[test]
    fn corruption_rolls_back_and_replays_to_the_same_result() {
        let c = cfg(6);
        let clean = run(&c, FaultPlan::default());
        // Flip a bit in a data message a few iterations in: row 0 sums
        // its one ∆W bucket per iteration by a gather on 3 ranks, whose
        // round at distance 2 sends 2 → 0, so the 4th message on that
        // link is iteration 3's.
        let plan = FaultPlan::new(9).corrupt_nth(2, 0, 3);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_corrupt_detected(), 1);
        assert!(faulty.stats.total_aborts() >= 1);
        let moved = faulty
            .per_rank
            .iter()
            .flatten()
            .map(|s| s.recoveries[0].model_secs);
        assert_eq!(moved.sum::<f64>(), 0.0, "a rollback in place moves no word");
        // The corrupt payload was discarded, training replayed, and the
        // trajectory is unchanged.
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
        assert_eq!(clean.losses(), faulty.losses());
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 1);
        assert_eq!(
            (r[0].pr, r[0].pc),
            (2, 3),
            "no shrink for a transient fault"
        );
    }

    #[test]
    fn killed_rank_triggers_shrink_and_training_finishes() {
        let c = cfg(6);
        let clean = run(&c, FaultPlan::default());
        // Rank 4 dies mid-run (virtual time chosen inside training).
        let t_mid = clean.stats.makespan() * 0.5;
        let plan = FaultPlan::new(3).kill(4, t_mid);
        let faulty = run(&c, plan);
        assert!(
            faulty.per_rank[4].is_err(),
            "the killed rank reports failure"
        );
        let survivors = faulty.survivors();
        assert_eq!(survivors.len(), 5);
        let s = survivors[0];
        assert_eq!(s.recoveries.len(), 1);
        assert_eq!(s.recoveries[0].dead, vec![4]);
        assert_eq!(s.pr * s.pc, 5, "all five survivors form the new grid");
        assert_eq!(s.losses.len(), c.iters, "training completed after recovery");
        // Synchronous SGD replayed from a checkpoint: same trajectory
        // up to reduction-order noise on the reshaped grid.
        for (a, b) in clean.losses().iter().zip(s.losses.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!(faulty.stats.total_failures_detected() > 0);
        assert!(faulty.stats.max_recovery_secs() > 0.0);
    }

    /// Every recovery is the relayout and nothing else: inside each
    /// `trainer/recovery` span of every survivor, after a kill that
    /// shrinks 2 × 3 to 1 × 5 and after a corruption rollback in place,
    /// with and without momentum, no collective runs. The rollback moves
    /// no word. After the kill every survivor fetches
    /// the row its old one did not hold, `|W| / 2` words (twice that with
    /// momentum) in one message, which every survivor's report prices at
    /// the closed form's `α + β·words`.
    #[test]
    fn every_recovery_is_one_relayout_priced_by_its_closed_form() {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let half = (64 * 48 + 48 * 32 + 32 * 10) / 2;
        for momentum in [0.0, 0.9] {
            let c = FtTrainConfig { momentum, ..cfg(6) };
            let clean = run(&c, FaultPlan::default());
            let kill = FaultPlan::new(3).kill(4, clean.stats.makespan() * 0.5);
            for (plan, words) in [(kill, half), (FaultPlan::new(9).corrupt_nth(2, 0, 3), 0)] {
                let words = if momentum == 0.0 { words } else { 2 * words };
                let at = format!("momentum {momentum}, {words} words");
                let on = TraceConfig::enabled();
                let (res, trace) = train_1p5d_ft_traced(&net, &x, &labels, &c, 2, 3, plan, on);
                let model = if words > 0 {
                    c.machine.net_model().ptp(words)
                } else {
                    0.0
                };
                let (mut busiest, mut end) = (0.0_f64, 0.0_f64);
                for (outcome, rt) in res.per_rank.iter().zip(&trace.ranks) {
                    let Ok(s) = outcome else { continue };
                    let [r] = &s.recoveries[..] else {
                        panic!("{at}: one recovery")
                    };
                    assert_eq!(r.model_secs, model, "{at}");
                    busiest = busiest.max(r.measured_secs);
                    let spans = rt.events.iter().filter(|e| e.name == "recovery");
                    for rec in spans.filter(|e| e.cat == "trainer") {
                        end = end.max(rec.t1);
                        // The span's own children: the aborted iteration's
                        // last forward gather may close at its start.
                        let inside = |e: &&TraceEvent| {
                            e.depth == rec.depth + 1 && (rec.t0..=rec.t1).contains(&e.t0)
                        };
                        assert!(!rt
                            .events
                            .iter()
                            .filter(inside)
                            .any(|e| e.cat == "collective"));
                        let waits = rt.events.iter().filter(inside).filter(|e| e.name == "wait");
                        let got: Vec<_> = waits
                            .flat_map(|e| e.args.iter().find(|a| a.0 == "words"))
                            .collect();
                        assert_eq!(
                            got,
                            [&("words", words as f64)][..(words > 0) as usize],
                            "{at}"
                        );
                    }
                }
                // Every survivor fetches one equal piece, so the earliest
                // clock waits at least its transfer; skewed clocks, which
                // the commit aligns, make a rank wait longer. A wait of
                // exactly the transfer ends on the clock `t0 + model`
                // rounded, up to half an ulp of that clock short, and the
                // recovery spans close no earlier.
                let ulp = f64::EPSILON * end;
                assert!(busiest >= model - ulp, "{at}: {busiest}");
            }
        }
    }

    #[test]
    fn overlap_fault_free_matches_blocking_ft_trainer() {
        for momentum in [0.0, 0.9] {
            let oc = FtTrainConfig { momentum, ..cfg(6) };
            let blocking = run(&FtTrainConfig { plan: None, ..oc }, FaultPlan::default());
            let over = run(&oc, FaultPlan::default());
            assert_eq!(over.survivors().len(), 6);
            // Bucketed fused all-reduces change the reduction order by
            // at most a few ulps per step.
            assert!(max_weight_diff(&blocking.weights(), &over.weights()) < 1e-9);
            for (a, b) in blocking.losses().iter().zip(over.losses()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
            let (_, _, nb_ar, _) = over.stats.total_collective_calls();
            assert!(nb_ar > 0, "overlap path used non-blocking all-reduces");
        }
    }

    #[test]
    fn overlap_corruption_rolls_back_and_replays_to_the_same_result() {
        let c = cfg(6);
        let clean = run(&c, FaultPlan::default());
        // Bucketing fuses the per-layer ∆W all-reduces into one bucket
        // per iteration, so this link carries one message per iteration
        // (three in the blocking run): the 6th is the last iteration's.
        let plan = FaultPlan::new(9).corrupt_nth(1, 2, 5);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_corrupt_detected(), 1);
        assert!(faulty.stats.total_aborts() >= 1);
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
        assert_eq!(clean.losses(), faulty.losses());
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 1);
        assert!(
            r[0].comm_wait_secs.is_finite() && r[0].comm_wait_secs >= 0.0,
            "exposed drain wait recorded at recovery"
        );
    }

    #[test]
    fn abft_run_is_bit_identical_to_undefended_on_clean_machines() {
        // Verification only reads: with no faults, the whole training
        // trajectory is bit-identical with ABFT on or off. Only the
        // virtual clock differs (checksum FLOPs are charged).
        // Blocking and scheduled alike.
        for plan in [None, Some(OverlapPlan::default())] {
            let c_off = FtTrainConfig { plan, ..cfg(6) };
            let off = run(&c_off, FaultPlan::default());
            let on = run(
                &FtTrainConfig {
                    abft: true,
                    ..c_off
                },
                FaultPlan::default(),
            );
            assert_eq!(max_weight_diff(&off.weights(), &on.weights()), 0.0);
            assert_eq!(off.losses(), on.losses());
            assert_eq!(on.stats.total_corrupt_detected(), 0);
            assert!(
                on.stats.makespan() > off.stats.makespan(),
                "ABFT overhead lands on the virtual clock"
            );
        }
    }

    #[test]
    fn abft_corrects_compute_flip_with_zero_rollbacks() {
        let c = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let clean = run(&c, FaultPlan::default());
        // One high mantissa bit in rank 3's layer-1 forward GEMM output
        // at iteration 2.
        let plan = FaultPlan::new(13).bitflip_compute(3, 2, 1, 51);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6);
        assert_eq!(faulty.stats.total_bitflips_compute(), 1, "flip injected");
        assert_eq!(
            faulty.stats.total_corrupt_corrected(),
            1,
            "repaired in place"
        );
        assert_eq!(faulty.stats.total_corrupt_recovered(), 0);
        assert_eq!(faulty.stats.total_aborts(), 0, "no escalation");
        assert_eq!(
            faulty.stats.max_recovery_secs(),
            0.0,
            "zero checkpoint restores"
        );
        assert!(faulty.survivors()[0].recoveries.is_empty());
        // Correction recomputes the exact kernel output: the entire
        // trajectory is bit-identical to the fault-free run.
        assert_eq!(max_weight_diff(&clean.weights(), &faulty.weights()), 0.0);
        assert_eq!(clean.losses(), faulty.losses());
    }

    #[test]
    fn multi_element_gemm_flip_escalates_to_rollback() {
        let c = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let clean = run(&c, FaultPlan::default());
        // Two flips on the same GEMM: the 1×1 location pattern fails,
        // so ABFT cannot correct and must escalate.
        let plan = FaultPlan::new(13)
            .bitflip_compute(1, 3, 0, 50)
            .bitflip_compute(1, 3, 0, 53);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_bitflips_compute(), 2);
        assert_eq!(faulty.stats.total_corrupt_corrected(), 0);
        assert_eq!(faulty.stats.total_corrupt_recovered(), 1, "escalated once");
        assert!(faulty.stats.total_aborts() >= 1);
        let moved = faulty
            .per_rank
            .iter()
            .flatten()
            .map(|s| s.recoveries[0].model_secs);
        assert_eq!(moved.sum::<f64>(), 0.0, "a rollback in place moves no word");
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].pr, r[0].pc), (2, 3), "transient fault: no shrink");
        // Replay from the checkpoint is exact.
        assert_eq!(max_weight_diff(&clean.weights(), &faulty.weights()), 0.0);
        assert_eq!(clean.losses(), faulty.losses());
    }

    #[test]
    fn memory_flip_triggers_weight_audit_rollback() {
        let c = FtTrainConfig {
            abft: true,
            ..cfg(6)
        };
        let clean = run(&c, FaultPlan::default());
        // A bit flips in rank 2's resident weights before iteration 3.
        let plan = FaultPlan::new(13).bitflip_memory(2, 3, 1234, 48);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_bitflips_memory(), 1, "flip injected");
        assert_eq!(
            faulty.stats.total_corrupt_recovered(),
            1,
            "weight audit escalated"
        );
        assert_eq!(faulty.stats.total_corrupt_corrected(), 0);
        let moved = faulty
            .per_rank
            .iter()
            .flatten()
            .map(|s| s.recoveries[0].model_secs);
        assert_eq!(moved.sum::<f64>(), 0.0, "a rollback in place moves no word");
        assert_eq!(faulty.survivors()[0].recoveries.len(), 1);
        // The corrupted shard was discarded for checkpoint state and
        // the replay (spend-once flips) is clean.
        assert_eq!(max_weight_diff(&clean.weights(), &faulty.weights()), 0.0);
        assert_eq!(clean.losses(), faulty.losses());
    }

    #[test]
    fn flips_without_abft_silently_diverge() {
        // The known-bad control: same faults, defense off — training
        // completes with no detection and a different trajectory. This
        // is exactly what the chaos oracle's no-silent-divergence
        // invariant flags.
        let c = cfg(6); // abft: false
        let clean = run(&c, FaultPlan::default());
        let plan = FaultPlan::new(13).bitflip_compute(3, 2, 1, 51);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6, "run completes normally");
        assert_eq!(faulty.stats.total_bitflips_compute(), 1);
        assert_eq!(faulty.stats.total_corrupt_detected(), 0, "nobody noticed");
        assert_eq!(faulty.stats.max_recovery_secs(), 0.0, "no rollback either");
        assert!(
            max_weight_diff(&clean.weights(), &faulty.weights()) > 0.0,
            "weights silently diverged"
        );
    }

    #[test]
    fn back_to_back_corruption_replays_twice_to_loss_parity() {
        // Two payload corruptions in consecutive iterations: each must
        // trigger its own rollback, and the doubly-replayed trajectory
        // must still match the clean run.
        let c = cfg(6);
        let clean = run(&c, FaultPlan::default());
        // nth=3 lands in iteration 3 (see
        // corruption_rolls_back_and_replays_to_the_same_result), which
        // rolls back to 2; the replay's 2 and 3 send nth=4 and 5, so
        // nth=6 hits the link again one committed iteration after the
        // first replay, forcing a second, distinct rollback.
        let plan = FaultPlan::new(9).corrupt_nth(2, 0, 3).corrupt_nth(2, 0, 6);
        let faulty = run(&c, plan);
        assert_eq!(faulty.survivors().len(), 6, "nobody died");
        assert_eq!(faulty.stats.total_corrupt_detected(), 2);
        assert_eq!(faulty.stats.total_corrupt_recovered(), 2, "both escalated");
        let r = &faulty.survivors()[0].recoveries;
        assert_eq!(r.len(), 2, "two distinct rollbacks");
        assert!(
            r[0].rollback_iter < r[1].rollback_iter,
            "the second fault hit after the first replay committed"
        );
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
        for (a, b) in clean.losses().iter().zip(faulty.losses()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn plan_bucket_words_threads_through_to_flush_count() {
        // Satellite (b): FtTrainConfig.plan.bucket_words replaces the
        // old hardcoded bucket size. A tiny cap must fuse fewer grads
        // per bucket and hence launch more non-blocking all-reduces.
        let base = cfg(4);
        let tiny = FtTrainConfig {
            plan: Some(OverlapPlan { bucket_words: 16 }),
            ..base
        };
        let big = run(&base, FaultPlan::default());
        let small = run(&tiny, FaultPlan::default());
        let (_, _, nb_big, _) = big.stats.total_collective_calls();
        let (_, _, nb_small, _) = small.stats.total_collective_calls();
        assert!(
            nb_small > nb_big,
            "16-word buckets should flush more often ({nb_small} vs {nb_big})"
        );
        // Bucket size only changes fusion, not the math.
        assert!(max_weight_diff(&big.weights(), &small.weights()) < 1e-9);
    }

    #[test]
    fn scheduled_ft_matches_the_scheduled_trainer_and_survives_corruption() {
        // The guarded communicator and the loss word riding the last
        // bucket only add work: the weights are the scheduled trainer's
        // to the bit.
        let c = cfg(6);
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let tc = TrainConfig {
            lr: c.lr,
            iters: c.iters,
            seed: c.seed,
        };
        let model = c.machine.net_model();
        let plain = train_1p5d_scheduled(&net, &x, &labels, &tc, 2, 3, model, c.plan.unwrap());
        let clean = run(&c, FaultPlan::default());
        assert_eq!(max_weight_diff(&plain.weights(), &clean.weights()), 0.0);
        // And the rollback machinery still recovers a corrupted payload
        // with the ∆X sums on the channel.
        let faulty = run(&c, FaultPlan::new(9).corrupt_nth(1, 2, 5));
        assert_eq!(faulty.survivors().len(), 6);
        assert_eq!(faulty.stats.total_corrupt_detected(), 1);
        assert!(max_weight_diff(&clean.weights(), &faulty.weights()) < 1e-12);
    }

    /// The loss word rides the last ∆W bucket without moving a block
    /// cut, so on every row group — the ring's and the fold's
    /// non-power-of-two ones included — each weight is the scheduled
    /// trainer's to the bit.
    #[test]
    fn fault_free_ft_is_the_scheduled_trainer_to_the_bit_on_every_grid() {
        let grids = [(1, 3), (2, 3), (3, 2), (1, 5), (2, 5), (1, 6), (1, 7)];
        let bits = |w: Vec<Matrix>| -> Vec<u64> {
            w.iter()
                .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        for net in [mlp_tiny(), dnn::zoo::mlp("odd", &[37, 29, 23, 7])] {
            for seed in 5..=8 {
                let (x, labels) = synthetic_data(&net, 30, seed);
                let c = FtTrainConfig { seed, ..cfg(8) };
                let tc = TrainConfig {
                    lr: c.lr,
                    iters: c.iters,
                    seed,
                };
                let (model, plan) = (c.machine.net_model(), c.plan.unwrap());
                for (pr, pc) in grids {
                    let sched = train_1p5d_scheduled(&net, &x, &labels, &tc, pr, pc, model, plan);
                    let ft = train_1p5d_ft(&net, &x, &labels, &c, pr, pc, FaultPlan::default());
                    let at = format!("{} seed {seed} {pr}x{pc}", net.name);
                    assert_eq!(ft.survivors().len(), pr * pc, "{at}");
                    assert_eq!(bits(sched.weights()), bits(ft.weights()), "{at}");
                }
            }
        }
    }

    /// Rows whose last ∆W sums fall on opposite sides of a schedule
    /// crossover still read one loss. On 2 × 5, `[76, 99, 340]`'s rows
    /// hold 49 and 50 of layer 0's rows: 3 724 and 3 800 words, either
    /// side of the 3 750-word crossover from the gather of whole vectors
    /// to Bruck's rounds under the Cori model, in the blocking body's
    /// layer-0 sum and in the scheduled body's last bucket alike (layer
    /// 1's 16 830-word shard fills a bucket of its own). The partials
    /// ride one slot per column rank, each slot's sum exact, so the order
    /// the schedule adds them in cannot reach the loss.
    #[test]
    fn every_survivor_reads_one_loss_when_the_rows_run_different_schedules() {
        let net = dnn::zoo::mlp("straddle", &[76, 99, 340]);
        let model = cfg(1).machine.net_model();
        let (upper, lower) = (
            allreduce_exact(5, 3724.0, &model),
            allreduce_exact(5, 3800.0, &model),
        );
        assert_ne!(
            upper.alpha, lower.alpha,
            "the rows' layer-0 sums run different schedules"
        );
        for plan in [cfg(1).plan, None] {
            for seed in 5..=8 {
                let (x, labels) = synthetic_data(&net, 30, seed);
                let c = FtTrainConfig {
                    seed,
                    plan,
                    ..cfg(8)
                };
                let ft = train_1p5d_ft(&net, &x, &labels, &c, 2, 5, FaultPlan::default());
                let bits =
                    |r: &FtRankOutcome| r.losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let survivors = ft.survivors();
                let at = format!("plan {plan:?} seed {seed}");
                assert_eq!(survivors.len(), 10, "{at}");
                assert!(
                    survivors.iter().all(|r| bits(r) == bits(survivors[0])),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn fault_free_words_are_the_scheduled_trainers_plus_the_loss_sums() {
        // The FT iteration sends exactly the scheduled trainer's
        // envelopes: the loss rides the last ∆W bucket of each row group
        // as Pc more words (one slot per column rank), so it adds words
        // and β, never a message or an α. The control plane (agreement rounds, the barrier's clock
        // sync) sends control envelopes and no data word; checkpoints
        // are local copies, counted in `ckpt_words` only.
        use collectives::cost::{bruck_allgather, recursive_doubling_allreduce};
        let c = cfg(8);
        let (iters, model) = (c.iters as u64, c.machine.net_model());
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let tc = TrainConfig {
            lr: c.lr,
            iters: c.iters,
            seed: c.seed,
        };
        let plan = OverlapPlan::default();
        let bucket = |pr: usize| (trainer::trainable_words(&net) / pr) as f64;
        // Each case's bucket schedule, the words one rider word adds per
        // row group and iteration, and its β steps over the run; the Pc
        // rider words cost Pc times that.
        // * 2 × 3: the 2 464-word bucket runs the gather of whole vectors
        //   on Pc = 3: every rank sends its vector at each of its 2
        //   rounds, so each rider word costs each rank 2β per iteration.
        // * 1 × 4: the 4 928-word bucket runs recursive doubling on
        //   Pc = 4: every rank sends the whole vector at each of its 2
        //   steps, so each rider word costs each rank 2β per iteration.
        let cases = [
            ((2, 3), bruck_allgather(3, 3.0 * bucket(2)), 6, 2 * iters),
            (
                (1, 4),
                recursive_doubling_allreduce(4, bucket(1)),
                8,
                2 * iters,
            ),
        ];
        for ((pr, pc), ran, words, steps) in cases {
            assert_eq!(allreduce_exact(pc, bucket(pr), &model), ran, "{pr}x{pc}");
            let sched = train_1p5d_scheduled(&net, &x, &labels, &tc, pr, pc, model, plan);
            let ft = train_1p5d_ft(&net, &x, &labels, &c, pr, pc, FaultPlan::default());
            assert_eq!(ft.stats.total_msgs(), sched.stats.total_msgs());
            let rider_words = pr as u64 * words * pc as u64 * iters;
            assert_eq!(
                ft.stats.total_words(),
                sched.stats.total_words() + rider_words
            );
            let rider_beta = (steps * pc as u64) as f64 * model.beta;
            let gap = ft.stats.makespan() - sched.stats.makespan();
            assert!((gap - rider_beta).abs() < 1e-15, "{pr}x{pc}: {gap:e}");
            assert!(ft.stats.ranks.iter().all(|r| r.ctrl_msgs_sent > 0));
            assert!(ft.stats.total_ckpt_words() > 0);
        }
    }

    #[test]
    fn plan_grid_prefers_integrated_over_pure_batch_for_big_weights() {
        // A weight-heavy stack: Eq. 8 favours pr > 1 (the ∆W all-reduce
        // shrinks by pr).
        let net = dnn::zoo::mlp("m", &[64, 256, 256, 10]);
        let wl = net.weighted_layers();
        let (pr, pc) = plan_grid(&wl, 16.0, 8, &MachineModel::cori_knl());
        assert_eq!(pr * pc, 8);
        assert!(
            pr > 1,
            "weight-heavy nets want model parallelism, got {pr}x{pc}"
        );
    }
}
