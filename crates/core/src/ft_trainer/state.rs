//! What the membership protocol protects: the training state a rank
//! holds on the current grid ([`GridState`]: shards, the iteration body,
//! the weight audit), the [`Checkpoint`]s it can roll back to, and
//! [`recover`] — shrink (or regrow), re-plan with Eq. 8, relayout the
//! agreed checkpoint's rows to the new grid (Eq. 6), re-shard — and
//! [`cost`], that relayout's closed form.

use std::borrow::Cow;
use std::ops::Range;

use mpsim::fault::checksum;
use mpsim::{Communicator, Error, FaultCtx, Tag};
use tensor::ops::axpy;
use tensor::Matrix;

use distmm::dist::{col_shard, intersect, part_range};
use distmm::onep5d::{Grid, SdcCtx};

use super::membership::Membership;
use super::wire::{View, Welcome};
use super::{plan_grid, Job};
use crate::trainer::{backward_pass, forward_pass, optimizer_step, Pass};

/// A consistent snapshot a rank can roll back to: shards are laid out
/// for the grid that was current when the checkpoint was taken.
#[derive(Clone, Default)]
pub(super) struct Checkpoint {
    pub iter: usize,
    w: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Checkpoint {
    pub fn of(st: &GridState) -> Checkpoint {
        Checkpoint {
            iter: st.iter,
            w: st.w.clone(),
            v: st.v.clone(),
        }
    }

    /// What a stateless joiner brings to the recovery that rolls back to
    /// `iter`: it serves nothing and receives everything.
    pub fn empty(iter: usize) -> Checkpoint {
        Checkpoint {
            iter,
            ..Checkpoint::default()
        }
    }

    fn words(&self) -> u64 {
        self.w.iter().chain(&self.v).map(|m| m.len() as u64).sum()
    }
}

/// Snapshots `st`, charging the volume to
/// [`mpsim::RankStats::ckpt_words`].
pub(super) fn take_checkpoint(comm: &Communicator, st: &GridState) -> Checkpoint {
    let ck = Checkpoint::of(st);
    let words = ck.words();
    comm.record_checkpoint_words(words);
    let args = [("iter", st.iter as f64), ("words", words as f64)];
    comm.trace_instant("trainer", "checkpoint", &args);
    ck
}

/// The state a committed recovery replaces atomically.
pub(super) struct GridState {
    pub grid: Grid,
    /// This grid as the membership protocol sees it.
    pub view: View,
    pub w: Vec<Matrix>,
    v: Vec<Matrix>,
    x_local: Matrix,
    labels_local: Vec<usize>,
    pub iter: usize,
    /// Running checksum over the weight shards, refreshed after
    /// every committed weight change. ABFT cannot see corruption of
    /// *resident* state (its checksums cover one GEMM), so the trainer
    /// audits `w` against this at every iteration start: a mismatch
    /// means a memory bit flip landed between iterations and escalates
    /// to rollback.
    wsum: u64,
}

impl GridState {
    /// Lays a `pr × pc` grid over `alive` and cuts this rank's shards
    /// out of the rows `rows(k, a, b)` yields, rows `a..b` of checkpoint
    /// matrix `k` with its split extent as its rows
    /// ([`FcLayer::orient`](crate::trainer::FcLayer::orient); as
    /// [`Matrix::row_block`] takes them):
    /// layer `k`'s weights for `k < L`, layer `k − L`'s velocity past
    /// them, zeros where it yields `None`. A velocity is held only with
    /// momentum: without it the velocity is zero and not state, so it is
    /// neither held, checkpointed nor moved. The one way a rank comes
    /// to hold training state: from the full initial weights at
    /// start-up, from the relayout's checkpoint rows after every recovery.
    pub fn shard(
        alive: &Communicator,
        (pr, pc): (usize, usize),
        rows: impl Fn(usize, usize, usize) -> Option<Matrix>,
        job: &Job,
        iter: usize,
    ) -> Result<GridState, Error> {
        let grid = Grid::new(alive, pr, pc)?;
        let l = job.layers.len();
        let mats = if job.cfg.momentum != 0.0 { 2 * l } else { l };
        let cut = |k: usize| {
            let (layer, (d, w)) = (&job.layers[k % l], job.layers[k % l].split_dims());
            let r = part_range(d, pr, grid.i);
            let m = rows(k, r.start, r.end).unwrap_or_else(|| Matrix::zeros(r.len(), w));
            layer.orient(Cow::Owned(m)).into_owned()
        };
        let mut w: Vec<Matrix> = (0..mats).map(cut).collect();
        let v = w.split_off(l);
        Ok(GridState {
            view: View {
                pr,
                pc,
                members: alive.members().to_vec(),
            },
            x_local: col_shard(job.x, pc, grid.j),
            labels_local: job.labels[part_range(job.x.cols(), pc, grid.j)].to_vec(),
            wsum: weights_checksum(&w),
            grid,
            w,
            v,
            iter,
        })
    }

    /// Silent-data-corruption pre-checks of an iteration. Scripted
    /// memory bit flips land on the resident weight shards between
    /// iterations (injected whether or not ABFT is on); with `abft` the
    /// weight audit then compares against the running checksum —
    /// ABFT's GEMM checksums cannot see resident-state corruption, so a
    /// mismatch escalates straight to rollback. The audit read is
    /// charged to the virtual clock (one op per weight word).
    pub fn audit(&mut self, comm: &Communicator, abft: bool) -> Result<(), Error> {
        let flips = comm.take_memory_flips(self.iter as u64);
        if !flips.is_empty() {
            // The flat parameter index runs over the concatenated shards.
            let mut flat: Vec<f64> = self.w.iter().flat_map(|m| m.as_slice()).copied().collect();
            mpsim::apply_flips(&mut flat, &flips);
            let mut rest = flat.as_slice();
            for m in &mut self.w {
                let (head, tail) = rest.split_at(m.len());
                m.as_mut_slice().copy_from_slice(head);
                rest = tail;
            }
        }
        if !abft {
            return Ok(());
        }
        let words: usize = self.w.iter().map(|m| m.len()).sum();
        comm.advance_flops(words as f64);
        if weights_checksum(&self.w) == self.wsum {
            return Ok(());
        }
        let rank = comm.global_rank_of(comm.rank())?;
        let ctx = FaultCtx {
            iter: self.iter as u64,
            op: 0,
        };
        comm.record_corrupt_recovered(ctx.iter, ctx.op);
        let _ = comm.send_abort(rank);
        Err(Error::SilentCorruption {
            rank,
            what: "weights",
            ctx: Some(ctx),
        })
    }

    /// One synchronous training iteration on the current grid — built
    /// on a guarded communicator, so every collective below is
    /// deadline-bound and aborts group-wide: the shared
    /// [`forward_pass`]/[`backward_pass`] body under the GEMM guard and
    /// a momentum-aware optimizer apply. The loss partials ride layer
    /// 0's ∆W sum over the row group, one slot per rank
    /// ([`Tape::riders`](crate::trainer::Tape::riders)), so the global loss costs no collective of its
    /// own. Returns the *global* loss (identical on every rank of
    /// the grid) and, on success, advances `iter`. The iteration
    /// number names the SDC ops: scripted compute bit flips target
    /// `(rank, iter, op)` triples, and — with
    /// [`super::FtTrainConfig::abft`] — every local GEMM is
    /// checksum-verified under the same numbering.
    pub fn step(&mut self, job: &Job) -> Result<f64, Error> {
        let cfg = job.cfg;
        let sdc = SdcCtx::new(self.iter as u64, cfg.abft);
        let pass = Pass {
            grids: std::slice::from_ref(&self.grid),
            guard: Some(&sdc),
            layers: job.layers,
            x_local: &self.x_local,
            labels_local: &self.labels_local,
            b_global: job.x.cols(),
            iter: self.iter,
            plan: cfg.plan,
        };
        let v = &mut self.v;
        let mut apply = |w: &mut [Matrix], idx: usize, summed: &[f64]| {
            if cfg.momentum != 0.0 {
                for (vi, &di) in v[idx].as_mut_slice().iter_mut().zip(summed) {
                    *vi = cfg.momentum * *vi + di;
                }
                axpy(-cfg.lr, v[idx].as_slice(), w[idx].as_mut_slice());
            } else {
                axpy(-cfg.lr, summed, w[idx].as_mut_slice());
            }
        };
        let mut tape = forward_pass(&pass, &self.w)?;
        // The partials of one grid row sum to the global loss (rows hold
        // replicas), so the row group's layer-0 ∆W sum carries them to
        // every rank: this rank's partial in its own slot, zeros in the
        // others. Each slot's sum is exact, so every row reads the same
        // partials whatever schedule its sum runs. That sum runs on every
        // rank every iteration, so it is also the iteration's liveness
        // probe of the row group.
        let comm = &self.grid.row_comm;
        let slot = |j| if j == comm.rank() { tape.loss } else { 0.0 };
        tape.riders = (0..comm.size()).map(slot).collect();
        let (sched, _, summed) = backward_pass(&pass, tape, &mut self.w, &mut apply, false)?;
        let drained = optimizer_step(comm, self.iter, sched, &mut self.w, &mut apply)?;
        self.iter += 1;
        self.wsum = weights_checksum(&self.w);
        // One of the two holds the summed slots; every rank adds the
        // same partials in the same order.
        Ok(summed.iter().chain(&drained).sum())
    }
}

/// Order-sensitive checksum over all weight shards.
fn weights_checksum(w: &[Matrix]) -> u64 {
    w.iter().fold(0xcbf2_9ce4_8422_2325, |h, m| {
        (h ^ checksum(m.as_slice())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A recovery's Eq. 6 row relayout, from the last committed grid
/// (`known.view`) to the `pr × pc` grid over `alive` (row-major): new
/// rank `r` holds rows `part_range(d, pr, r / pc)` of every checkpoint
/// matrix with its split extent `d` as its rows
/// ([`FcLayer::orient`](crate::trainer::FcLayer::orient)). It cuts the rows its old grid row held out of its
/// own checkpoint and fetches each other old row's part in one message
/// from that row's representative, so every word moves at most once.
struct Relayout<'a> {
    known: &'a Welcome,
    alive: &'a [usize],
    dims: (usize, usize),
    /// `(d, w)` of each checkpoint matrix, its split extent first
    /// ([`FcLayer::split_dims`](crate::trainer::FcLayer::split_dims)): the weights,
    /// then the velocity with momentum (without it the velocity is zero
    /// and not state).
    mats: Vec<(usize, usize)>,
}

impl<'a> Relayout<'a> {
    fn new(known: &'a Welcome, alive: &'a [usize], dims: (usize, usize), job: &Job) -> Self {
        let l = job.layers.len();
        let n = if job.cfg.momentum != 0.0 { 2 * l } else { l };
        let mats = (0..n).map(|k| job.layers[k % l].split_dims()).collect();
        Relayout {
            known,
            alive,
            dims,
            mats,
        }
    }

    /// Old row `i`'s rows of matrix `k`, and the part of them new rank
    /// `r`'s shard holds.
    fn rows(&self, i: usize, r: usize, k: usize) -> (Range<usize>, Range<usize>) {
        let d = self.mats[k].0;
        let old = part_range(d, self.known.view.pr, i);
        let new = part_range(d, self.dims.0, r / self.dims.1);
        (old.clone(), intersect(&old, &new))
    }

    /// Where matrix `k`'s rows start in the piece old row `i` hands new
    /// rank `r`, every matrix's part in order; at `k = mats.len()`, its
    /// words.
    fn at(&self, i: usize, r: usize, k: usize) -> usize {
        let words = |k| self.rows(i, r, k).1.len() * self.mats[k].1;
        (0..k).map(words).sum()
    }

    /// The part of `m`, old row `i`'s shard of matrix `k`, that new rank
    /// `r`'s shard holds.
    fn cut<'m>(&self, m: &'m Matrix, i: usize, r: usize, k: usize) -> &'m [f64] {
        let (old, part) = self.rows(i, r, k);
        let d_in = m.cols();
        &m.as_slice()[(part.start - old.start) * d_in..(part.end - old.start) * d_in]
    }

    /// The old rows new rank `r` fetches — those its shard needs rows of
    /// and it does not hold — and the words of each piece.
    fn fetched(&self, r: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let fetches = move |&i: &usize| !holds(self.known, i, self.alive[r]);
        let piece = move |i| (i, self.at(i, r, self.mats.len()));
        let pieces = (0..self.known.view.pr).filter(fetches).map(piece);
        pieces.filter(|p| p.1 > 0)
    }
}

/// Whether global rank `g` holds old row `i`'s checkpoint rows: a
/// member of it that survives with state. A rank that died and was
/// re-admitted within the same recovery window is alive but stateless.
fn holds(known: &Welcome, i: usize, g: usize) -> bool {
    let pc = known.view.pc;
    let row = &known.view.members[i * pc..(i + 1) * pc];
    row.contains(&g) && !known.excluded.contains(&g) && !known.stateless.contains(&g)
}

/// Tag of the relayout's messages: one per representative and receiver,
/// on a survivor communicator of the recovery's own epoch.
const RELAYOUT_TAG: Tag = (1 << 48) + 114;

/// One recovery attempt (fallible part) in the epoch `m` just entered:
/// shrink (or regrow, when the excluded set no longer contains
/// re-admitted ranks), re-plan, relayout the agreed checkpoint `ck`
/// from the last *committed* grid (`m.known.view`), re-shard. Committed
/// by the caller only after a confirmation round. The stateless are live
/// participants without state (re-admitted rejoiners): they serve
/// nothing and fetch every row of their new shards.
pub(super) fn recover(
    comm: &Communicator,
    m: &Membership,
    ck: &Checkpoint,
    job: &Job,
) -> Result<GridState, Error> {
    let alive = comm.shrink_exclude(&m.known.excluded, m.known.epoch)?;
    let alive = alive.guarded(&job.cfg.ft);
    // Re-plan with Eq. 8 first: the new grid decides which rows move.
    let b = job.x.cols() as f64;
    let dims = plan_grid(job.wlayers, b, alive.size(), &job.cfg.machine);
    let plan = Relayout::new(&m.known, alive.members(), dims, job);
    // Old row i's representative: its lowest-ranked holder.
    let rep = |i| {
        let why = format!("unrecoverable: no surviving replica of weight-shard row {i}");
        let held_by = |&g: &usize| holds(&m.known, i, g);
        let rep = alive.members().iter().position(held_by);
        rep.ok_or(Error::CollectiveMismatch(why))
    };
    let reps = ((0..m.known.view.pr).map(rep)).collect::<Result<Vec<_>, _>>()?;

    // Data plane, so the cost lands on the virtual clock. Every send goes
    // before any receive is posted, and every receive is posted before
    // any is waited on, as `distmm::rows::relayout` does: a rank waits for
    // its slowest piece, not for the sum of them.
    let pairs = ck.w.iter().chain(&ck.v).zip(job.layers.iter().cycle());
    let held: Vec<_> = pairs.map(|(m, l)| l.orient(Cow::Borrowed(m))).collect();
    let me = alive.rank();
    if let Some(i) = reps.iter().position(|&r| r == me) {
        for r in (0..alive.size()).filter(|&r| plan.fetched(r).any(|(f, _)| f == i)) {
            let piece = (0..plan.mats.len()).flat_map(|k| plan.cut(&held[k], i, r, k));
            alive.send_vec(r, RELAYOUT_TAG, piece.copied().collect())?;
        }
    }
    let mut posted = Vec::new();
    for (i, _) in plan.fetched(me) {
        posted.push((i, alive.irecv(reps[i], RELAYOUT_TAG)?));
    }
    let mut got = vec![Vec::new(); reps.len()];
    for (i, handle) in posted {
        got[i] = alive.wait(handle)?;
    }
    // A new shard, rows a..b of matrix k, is its parts in old row order,
    // each cut from this rank's checkpoint or from the piece it fetched.
    let rows = |k: usize, a: usize, b: usize| {
        let d_in = plan.mats[k].1;
        let mut out = Vec::with_capacity((b - a) * d_in);
        for (i, piece) in got.iter().enumerate() {
            out.extend_from_slice(match holds(&m.known, i, alive.members()[me]) {
                true => plan.cut(&held[k], i, me, k),
                false => &piece[plan.at(i, me, k)..plan.at(i, me, k + 1)],
            });
        }
        Some(Matrix::from_vec(b - a, d_in, out))
    };
    GridState::shard(&alive, dims, rows, job, ck.iter)
}

/// The closed form of [`recover`]'s relayout from `known.view` to `new`
/// on the job's machine. A rank posts every receive before it waits on
/// one, so it waits for its slowest piece, `α + β·words`, and the
/// relayout for its busiest rank; 0 when no rank fetches a word.
pub(super) fn cost(known: &Welcome, new: &View, job: &Job) -> f64 {
    let net = job.cfg.machine.net_model();
    let plan = &Relayout::new(known, &new.members, (new.pr, new.pc), job);
    let pieces = (0..new.members.len()).flat_map(|r| plan.fetched(r));
    pieces.map(|(_, words)| net.ptp(words)).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_trainer::FtTrainConfig;
    use crate::trainer::{extract_fc_layers, init_weights, synthetic_data};
    use mpsim::World;

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A survivor's new grid `Pr` and row, its shards and its recovery's
    /// time.
    type Recovered = (usize, usize, Vec<Matrix>, f64);

    /// One recovery at iteration 4 on a `world`-rank world whose clocks
    /// all enter it at 0, as `known` describes it: the last committed
    /// grid, the ranks excluded and the joiners, who hold no state. Per
    /// rank, the new grid's `Pr` and row, the shards and the recovery's
    /// time; and the words that moved. `full` holds the checkpoint's full
    /// matrices.
    fn one_recovery(
        job: &Job,
        full: &[&Matrix],
        known: &Welcome,
        world: usize,
    ) -> (Vec<Option<Recovered>>, u64) {
        let net = job.cfg.machine.net_model();
        let (out, stats) = World::run_with_stats(world, net, |comm| {
            let g = comm.rank();
            if known.excluded.contains(&g) {
                return None;
            }
            let ck = if known.stateless.contains(&g) {
                Checkpoint::empty(4)
            } else {
                let alive = comm.shrink_exclude(&known.stateless, 0).unwrap();
                let layer = |k: usize| &job.layers[k % job.layers.len()];
                let rows = |k, a, b| Some(layer(k).orient(Cow::Borrowed(full[k])).row_block(a, b));
                let dims = (known.view.pr, known.view.pc);
                Checkpoint::of(&GridState::shard(&alive, dims, rows, job, 4).unwrap())
            };
            let mut m = Membership::fresh(View::default(), 0.0);
            m.known = known.clone();
            let new = recover(comm, &m, &ck, job).unwrap();
            assert_eq!(new.iter, 4);
            let shards = new.w.into_iter().chain(new.v).collect();
            Some((new.grid.pr, new.grid.i, shards, comm.now()))
        });
        (out, stats.ranks.iter().map(|r| r.words_sent).sum())
    }

    /// A recovery relayouts the agreed checkpoint: every survivor's new
    /// shards are the checkpoint's full matrices' `row_shard`s to the
    /// bit, each rank fetches exactly the rows of its new shards that its
    /// old row did not hold (so each word moves at most once), and the
    /// busiest rank's time is [`cost`]'s closed form. With and without
    /// momentum (no momentum: no velocity is held, moved or cut), after
    /// a kill that shrinks 2 × 3 to five ranks, a regrow to six from
    /// those five with a stateless joiner, and a rollback. On `mlp_tiny`
    /// Eq. 8 plans 1 × 5 and 2 × 3: the regrow moves only the joiner's
    /// rows, and the rollback is in place and moves no word. The wide net
    /// is weight-heavy and its batch small, so Eq. 8 re-plans it to one
    /// column, `Pr = 5` and `6`, whose row shards straddle the old ones.
    #[test]
    fn a_recovery_fetches_only_the_missing_rows_in_the_closed_forms_time() {
        for net in [
            dnn::zoo::mlp("wide", &[37, 301, 203, 7]),
            dnn::zoo::mlp_tiny(),
        ] {
            let (layers, wlayers) = (extract_fc_layers(&net), net.weighted_layers());
            let (x, labels) = synthetic_data(&net, if layers[0].d_out > 100 { 6 } else { 24 }, 5);
            let full_w = init_weights(&layers, 11);
            let five = plan_grid(
                &wlayers,
                x.cols() as f64,
                5,
                &FtTrainConfig::default().machine,
            );
            for momentum in [0.0, 0.9] {
                let full_v = match momentum {
                    0.0 => Vec::new(),
                    _ => init_weights(&layers, 12),
                };
                let full: Vec<&Matrix> = full_w.iter().chain(&full_v).collect();
                let cfg = FtTrainConfig {
                    momentum,
                    ..FtTrainConfig::default()
                };
                let job = Job {
                    layers: &layers,
                    wlayers: &wlayers,
                    x: &x,
                    labels: &labels,
                    cfg: &cfg,
                    grid0: (2, 3),
                    weights0: &full_w,
                };
                let view = |(pr, pc), members: &[usize]| View {
                    pr,
                    pc,
                    members: members.to_vec(),
                };
                let grid = view((2, 3), &[0, 1, 2, 3, 4, 5]);
                let cases = [
                    ("kill", grid.clone(), vec![4], None),
                    ("regrow", view(five, &[0, 1, 2, 3, 5]), vec![], Some(4)),
                    ("rollback", grid, vec![], None),
                ];
                for (case, old, dead, joiner) in cases {
                    let at = format!("{}, momentum {momentum}, {case}", net.name);
                    let known = Welcome {
                        view: old.clone(),
                        excluded: dead.clone(),
                        stateless: joiner.into_iter().collect(),
                        epoch: 1,
                        ..Welcome::default()
                    };
                    let (out, words) = one_recovery(&job, &full, &known, 6);
                    let pr = out.iter().flatten().next().unwrap().0;
                    let alive: Vec<usize> = (0..6).filter(|g| !dead.contains(g)).collect();
                    let new = view((pr, alive.len() / pr), &alive);
                    let (mut lacking, mut busiest) = (0, 0.0_f64);
                    for (g, got) in out.into_iter().enumerate() {
                        let Some((_, i, shards, secs)) = got else {
                            continue;
                        };
                        assert_eq!(
                            shards.len(),
                            full.len(),
                            "{at}: a velocity only with momentum"
                        );
                        let own = old
                            .members
                            .iter()
                            .position(|&o| o == g && joiner != Some(g));
                        for (k, (shard, m)) in shards.iter().zip(&full).enumerate() {
                            // The top is input-split: its shards are
                            // column blocks, recut like any other.
                            let layer = &layers[k % layers.len()];
                            assert_eq!(layer.split_in, k % layers.len() == layers.len() - 1);
                            let (d, w) = layer.split_dims();
                            let rows = part_range(d, new.pr, i);
                            assert_eq!(
                                bits(shard),
                                bits(
                                    &layer.orient(Cow::Owned(
                                        layer
                                            .orient(Cow::Borrowed(m))
                                            .row_block(rows.start, rows.end)
                                    ))
                                ),
                                "{at}: rank {g}, matrix {k}"
                            );
                            let kept = own.map_or(0..0, |o| part_range(d, old.pr, o / old.pc));
                            lacking += (rows.len() - intersect(&rows, &kept).len()) * w;
                        }
                        busiest = busiest.max(secs);
                    }
                    assert_eq!(words, lacking as u64, "{at}");
                    let model = cost(&known, &new, &job);
                    assert!(
                        (busiest - model).abs() < 1e-12,
                        "{at}: {busiest} vs {model}"
                    );
                    if (new.pr, new.pc) == (old.pr, old.pc) {
                        assert_eq!((words, busiest), (0, 0.0), "{at}: in place");
                    }
                }
            }
        }
    }
}
