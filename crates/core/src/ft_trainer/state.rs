//! What the membership protocol protects: the training state a rank
//! holds on the current grid ([`GridState`]: shards, the iteration body,
//! the weight audit), the [`Checkpoint`]s it can roll back to, and
//! [`recover`] — shrink (or regrow), re-plan with Eq. 8, redistribute
//! the agreed checkpoint, re-shard.

use collectives::{allgatherv_into, allreduce, ReduceOp};
use mpsim::fault::checksum;
use mpsim::{Communicator, Error, FaultCtx};
use tensor::ops::axpy;
use tensor::Matrix;

use distmm::dist::{col_shard, part_range, row_shard};
use distmm::onep5d::{Grid, SdcCtx};

use super::membership::Membership;
use super::wire::View;
use super::{plan_grid, Job};
use crate::trainer::{backward_pass, forward_pass, optimizer_step, Pass};

/// A consistent snapshot a rank can roll back to: shards are laid out
/// for the grid that was current when the checkpoint was taken.
#[derive(Clone)]
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
            w: Vec::new(),
            v: Vec::new(),
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
    comm.trace_instant(
        "trainer",
        "checkpoint",
        &[("iter", st.iter as f64), ("words", words as f64)],
    );
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
    /// out of full-size state: the one way a rank comes to hold
    /// training state, at start-up and after every recovery alike. An
    /// empty `full_v` means zero velocity.
    pub fn shard(
        alive: &Communicator,
        (pr, pc): (usize, usize),
        full_w: &[Matrix],
        full_v: &[Matrix],
        job: &Job,
        iter: usize,
    ) -> Result<GridState, Error> {
        let grid = Grid::new(alive, pr, pc)?;
        let w: Vec<Matrix> = full_w.iter().map(|m| row_shard(m, pr, grid.i)).collect();
        let v: Vec<Matrix> = if full_v.is_empty() {
            w.iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect()
        } else {
            full_v.iter().map(|m| row_shard(m, pr, grid.i)).collect()
        };
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
    /// [`forward_pass`]/[`backward_pass`] body under the GEMM guard,
    /// with the global-loss all-reduce in between and a momentum-aware
    /// optimizer apply. Returns the *global* loss (identical on every
    /// rank of the grid) and, on success, advances `iter`. The iteration
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
        let tape = forward_pass(&pass, &self.w)?;
        // Global loss: the partials of one grid row sum to the global loss
        // (rows hold replicas), so a one-word all-reduce over the row group
        // gives every rank the same number — and doubles as a per-iteration
        // liveness probe of the row group.
        let mut lbuf = [tape.loss];
        allreduce(&self.grid.row_comm, &mut lbuf, ReduceOp::Sum)?;
        let (sched, _) = backward_pass(&pass, tape, &mut self.w, &mut apply, false)?;
        let comm = &self.grid.row_comm;
        optimizer_step(comm, self.iter, sched, &mut self.w, &mut apply)?;
        self.iter += 1;
        self.wsum = weights_checksum(&self.w);
        Ok(lbuf[0])
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
    let alive = comm
        .shrink_exclude(&m.known.excluded, m.known.epoch)?
        .guarded(&job.cfg.ft);
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
    // A joiner is in no old row and serves nothing.
    let serves = reps.contains(&my_global);

    // Redistribute: each row's representative serves its checkpoint
    // shard, gathered straight into its rows of the full matrix on every
    // rank (data plane, so the cost lands on the virtual clock).
    let gather_full = |shards: &[Matrix], d_out: usize, d_in: usize, l: usize| {
        let mine: &[f64] = if serves { shards[l].as_slice() } else { &[] };
        let mut full = Matrix::zeros(d_out, d_in);
        allgatherv_into(&alive, mine.to_vec(), full.as_mut_slice(), |k| {
            let served = reps.iter().position(|&g| g == alive.members()[k]);
            served.map_or(0..0, |i| {
                let rows = part_range(d_out, old.pr, i);
                rows.start * d_in..rows.end * d_in
            })
        })?;
        Ok::<Matrix, Error>(full)
    };
    let mut full_w = Vec::with_capacity(job.layers.len());
    let mut full_v = Vec::with_capacity(job.layers.len());
    for (l, spec) in job.layers.iter().enumerate() {
        full_w.push(gather_full(&ck.w, spec.d_out, spec.d_in, l)?);
        if job.cfg.momentum != 0.0 {
            full_v.push(gather_full(&ck.v, spec.d_out, spec.d_in, l)?);
        }
    }

    // Re-plan with Eq. 8 and rebuild the grid over the survivors.
    let b = job.x.cols() as f64;
    let dims = plan_grid(job.wlayers, b, alive.size(), &job.cfg.machine);
    GridState::shard(&alive, dims, &full_w, &full_v, job, ck.iter)
}
