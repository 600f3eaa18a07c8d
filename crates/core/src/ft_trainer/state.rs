//! What the membership protocol protects: the training state a rank
//! holds on the current grid ([`GridState`]: shards, the iteration body,
//! the weight audit), the [`Checkpoint`]s it can roll back to, and
//! [`recover`] — shrink (or regrow), re-plan with Eq. 8, redistribute
//! the agreed checkpoint in one gather, re-shard.

use collectives::allgatherv_into;
use mpsim::fault::checksum;
use mpsim::{Communicator, Error, FaultCtx};
use tensor::ops::axpy;
use tensor::Matrix;

use distmm::dist::{col_shard, part_range};
use distmm::onep5d::{Grid, SdcCtx};

use super::membership::Membership;
use super::wire::View;
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
    /// matrix `k` (as [`Matrix::row_block`] takes them):
    /// layer `k`'s weights for `k < L`, layer `k − L`'s velocity past
    /// them, zeros where it yields `None`. A velocity is held only with
    /// momentum: without it the velocity is zero and not state, so it is
    /// neither held, checkpointed nor gathered. The one way a rank comes
    /// to hold training state: from the full initial weights at
    /// start-up, from the gathered checkpoint rows after every recovery.
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
            let layer = &job.layers[k % l];
            let r = part_range(layer.d_out, pr, grid.i);
            rows(k, r.start, r.end).unwrap_or_else(|| Matrix::zeros(r.len(), layer.d_in))
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

/// One recovery attempt (fallible part) in the epoch `m` just entered:
/// shrink (or regrow, when the excluded set no longer contains
/// re-admitted ranks), re-plan, redistribute the agreed checkpoint `ck`
/// from the last *committed* grid (`m.known.view`), re-shard. Committed
/// by the caller only after a confirmation round. The stateless are live participants without
/// state (re-admitted rejoiners), who contribute nothing to
/// redistribution and must not be picked as checkpoint representatives.
pub(super) fn recover(
    comm: &Communicator,
    m: &Membership,
    ck: &Checkpoint,
    job: &Job,
) -> Result<GridState, Error> {
    let my_global = comm.global_rank_of(comm.rank())?;
    let alive = comm.shrink_exclude(&m.known.excluded, m.known.epoch)?;
    let alive = alive.guarded(&job.cfg.ft);
    let old = &m.known.view;

    // Representative holder of each old grid row's checkpoint shard
    // (rows are contiguous in the old member list: Grid::new is
    // row-major). A rank that died and was re-admitted within the same
    // recovery window is alive but stateless — never a representative.
    let holds = |g: &usize| !m.known.excluded.contains(g) && !m.known.stateless.contains(g);
    let rep_of = |(i, row): (usize, &[usize])| {
        row.iter().copied().find(holds).ok_or_else(|| {
            let why = format!("unrecoverable: no surviving replica of weight-shard row {i}");
            Error::CollectiveMismatch(why)
        })
    };
    let reps: Vec<usize> = (old.members.chunks(old.pc).enumerate())
        .map(rep_of)
        .collect::<Result<_, _>>()?;

    // Redistribute in one gather (data plane, so the cost lands on the
    // virtual clock): old row i's representative serves one block, its
    // rows of every checkpoint matrix k (the weights, then the velocity
    // when there is momentum), which start at `at[i * mats + k]` (the
    // prefix sums of the blocks' sizes).
    let l = job.layers.len();
    let mats = if job.cfg.momentum != 0.0 { 2 * l } else { l };
    let layer = |k: usize| &job.layers[k % l];
    let size = |j: usize| part_range(layer(j).d_out, old.pr, j / mats).len() * layer(j).d_in;
    let mut at = vec![0];
    for j in 0..old.pr * mats {
        at.push(at[j] + size(j));
    }
    // A joiner is in no old row, and only representatives serve.
    let serves = if reps.contains(&my_global) { mats } else { 0 };
    let served = ck.w.iter().chain(&ck.v).take(serves);
    let mine: Vec<&[f64]> = served.map(Matrix::as_slice).collect();
    let mut buf = vec![0.0; at[old.pr * mats]];
    allgatherv_into(&alive, mine.concat(), &mut buf, |r| {
        let served = reps.iter().position(|&g| g == alive.members()[r]);
        served.map_or(0..0, |i| at[i * mats]..at[(i + 1) * mats])
    })?;
    // A new shard, rows a..b of matrix k, is cut straight from the
    // buffer, whose old row blocks hold matrix k's rows in order. No full
    // matrix is formed.
    let rows = |k: usize, a: usize, b: usize| {
        let d_in = layer(k).d_in;
        let block = |i: usize| &buf[at[i * mats + k]..at[i * mats + k + 1]];
        let all = (0..old.pr).flat_map(|i| block(i).chunks(d_in));
        let parts: Vec<&[f64]> = all.skip(a).take(b - a).collect();
        Some(Matrix::from_vec(b - a, d_in, parts.concat()))
    };

    // Re-plan with Eq. 8 and rebuild the grid over the survivors.
    let b = job.x.cols() as f64;
    let dims = plan_grid(job.wlayers, b, alive.size(), &job.cfg.machine);
    GridState::shard(&alive, dims, rows, job, ck.iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_trainer::FtTrainConfig;
    use crate::trainer::{extract_fc_layers, init_weights, synthetic_data};
    use distmm::dist::row_shard;
    use mpsim::{TraceConfig, World};

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A recovery gathers the agreed checkpoint in one collective, and
    /// every survivor's new shards are the checkpoint's full matrices'
    /// `row_shard`s to the bit: after a kill that shrinks 2 × 3 to five
    /// ranks and after a rollback in place, with and without momentum
    /// (no momentum: no velocity is held, gathered or cut). The net is
    /// weight-heavy and the batch small, so Eq. 8 re-plans both to one
    /// column, `Pr = 5` and `6`, whose row shards straddle the old two.
    #[test]
    fn a_recovery_gathers_once_and_cuts_the_checkpoint_rows() {
        let net = dnn::zoo::mlp("wide", &[37, 301, 203, 7]);
        let (layers, wlayers) = (extract_fc_layers(&net), net.weighted_layers());
        let (x, labels) = synthetic_data(&net, 6, 5);
        let full_w = init_weights(&layers, 11);
        for momentum in [0.0, 0.9] {
            let full_v = match momentum {
                0.0 => Vec::new(),
                _ => init_weights(&layers, 12),
            };
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
            let l = layers.len();
            for dead in [vec![], vec![4]] {
                let (out, _, trace) = World::run_traced_with_stats(
                    6,
                    cfg.machine.net_model(),
                    TraceConfig::enabled(),
                    |comm| {
                        if dead.contains(&comm.rank()) {
                            return None;
                        }
                        let alive = comm.shrink_exclude(&[], 0).unwrap();
                        let rows = |k: usize, a, b| {
                            let m = if k < l { &full_w[k] } else { &full_v[k - l] };
                            Some(m.row_block(a, b))
                        };
                        let st = GridState::shard(&alive, (2, 3), rows, &job, 4).unwrap();
                        let ck = Checkpoint::of(&st);
                        let mut m = Membership::fresh(st.view.clone(), 0.0);
                        (m.known.excluded, m.known.epoch) = (dead.clone(), 1);
                        let new = recover(comm, &m, &ck, &job).unwrap();
                        Some((new.grid.pr, new.grid.i, new.w, new.v, new.iter))
                    },
                );
                let at = format!("momentum {momentum}, dead {dead:?}");
                for (rank, got) in out.into_iter().enumerate() {
                    let Some((pr, i, w, v, iter)) = got else {
                        continue;
                    };
                    assert_eq!((pr, iter), (6 - dead.len(), 4), "{at}");
                    assert_eq!(v.len(), full_v.len(), "{at}: a velocity only with momentum");
                    for (k, full) in full_w.iter().chain(&full_v).enumerate() {
                        let shard = if k < l { &w[k] } else { &v[k - l] };
                        let want = row_shard(full, pr, i);
                        assert_eq!(bits(shard), bits(&want), "{at}: rank {rank}, matrix {k}");
                    }
                    let gathers = trace.ranks[rank]
                        .events
                        .iter()
                        .filter(|e| e.cat == "collective" && e.name.starts_with("allgatherv"));
                    assert_eq!(gathers.count(), 1, "{at}: rank {rank}");
                }
            }
        }
    }
}
