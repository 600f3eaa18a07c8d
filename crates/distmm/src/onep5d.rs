//! The 1.5D integrated model+batch algorithm (the paper's Fig. 5).
//!
//! Processes form a logical `Pr × Pc` grid. Rank `(i, j)`:
//!
//! * holds row shard `W_i` of every weight matrix — so `W` is
//!   replicated `Pc` times (once per grid column), and
//! * holds column shard `X_j` / `Y_j` of the activations — so data is
//!   replicated `Pr` times (once per grid row).
//!
//! Per layer:
//!
//! * **forward**: local `W_i·X_j`, then all-gather over the `Pr`-sized
//!   column groups to assemble `Y_j`;
//! * **`∆W`**: local `∆Y_{i,j}·X_jᵀ`, then all-reduce over the
//!   `Pc`-sized row groups (sum over batch shards) — the volume is
//!   `|W|/Pr` per process, the paper's key saving over Eq. 4;
//! * **`∆X`**: local `W_iᵀ·∆Y_{i,j}`, then a reduce-scatter over the
//!   `Pr`-sized column groups: the rows the layer below reads. Eq. 8
//!   prices an all-reduce there, but the layer below reads only its row
//!   block `∆Y_{i,j}` of the sum, so only the all-reduce's
//!   reduce-scatter half runs ([`collectives::reduce_scatter`]): half the
//!   words and half the α-steps, with the all-reduce's bits in every row
//!   Halving or `Pr = 2` would have summed.
//!   The trainers carry `∆Y_{i,j}` from layer to layer, never `∆Y_j`.
//!
//! `Pr = 1` degenerates to pure batch parallelism (Fig. 2) and
//! `Pc = 1` to pure model parallelism (Fig. 1); tests pin both.
//!
//! The product can split `W` by its input columns instead — the
//! column-/row-parallel pairing of Megatron-style tensor parallelism.
//! Rank `(i, j)` then holds `W_{:,i}`, the columns [`Grid::w_rows`]`(d_in)`,
//! and reads the row block `X_{i,j}` the layer below left it without a
//! gather:
//!
//! * **forward**: local `W_{:,i}·X_{i,j}`, then an all-reduce over the
//!   column group ([`forward_summed`]): every rank holds `Y_j`;
//! * **`∆W`**: local `∆Y_j·X_{i,j}ᵀ`, summed over the row group as above;
//! * **`∆X`**: local `W_{:,i}ᵀ·∆Y_j`, which already is the row block the
//!   layer below reads: no sum (`split_in` of [`backward_with`] and
//!   [`backward_dw_deferred`]).
//!
//! The trainers take it for the top layer of a chain alone: against
//! the gather of its input, the reduce-scatter of its `∆X` and the
//! gather of its output, it pays one all-reduce of the output, so it
//! gains when `d_out < 2·d_in` (a classifier head). Further down it
//! gains nothing: a boundary from an input-split layer into an
//! output-split one pays an all-reduce each way, the words of the
//! gather and the reduce-scatter it would replace.

use std::borrow::Cow;
use std::cell::Cell;

use collectives::ring::allgatherv_ring;
use collectives::{allgatherv_into, allreduce, ireduce_scatter, reduce_scatter, ReduceOp};
use mpsim::{apply_flips, Communicator, Error, FaultCtx, Result};
use tensor::abft::{self, Verdict};
use tensor::matmul::{matmul, matmul_a_bt, matmul_at_b, matmul_flops};
use tensor::Matrix;

use crate::cols::redistribute_cols;
use crate::dist::part_range;

/// A rank's view of the `Pr × Pc` process grid.
pub struct Grid {
    /// Model-parallel extent.
    pub pr: usize,
    /// Batch-parallel extent.
    pub pc: usize,
    /// This rank's row index `i` (which model shard it holds).
    pub i: usize,
    /// This rank's column index `j` (which batch shard it holds).
    pub j: usize,
    /// The communicator the grid tiles; relayouts between two grids of
    /// it run here.
    pub comm: Communicator,
    /// The `Pc`-sized group sharing model shard `i` (used for the ∆W
    /// all-reduce).
    pub row_comm: Communicator,
    /// The `Pr`-sized group sharing batch shard `j` (used for the
    /// forward all-gather and the ∆X reduce-scatter).
    pub col_comm: Communicator,
}

impl Grid {
    /// Builds the grid view for this rank. Requires
    /// `pr · pc == comm.size()`; ranks are laid out row-major
    /// (consecutive global ranks share a *model* shard — i.e. the
    /// `Pc`-sized ∆W all-reduce groups are contiguous in rank space).
    pub fn new(comm: &Communicator, pr: usize, pc: usize) -> Result<Grid> {
        let (row_comm, col_comm) = comm.grid(pr, pc)?;
        Ok(Grid {
            pr,
            pc,
            i: comm.rank() / pc,
            j: comm.rank() % pc,
            comm: comm.clone(),
            row_comm,
            col_comm,
        })
    }

    /// The rows of a `d_out`-row weight matrix owned by this rank.
    pub fn w_rows(&self, d_out: usize) -> std::ops::Range<usize> {
        part_range(d_out, self.pr, self.i)
    }

    /// The full-depth `d × bloc` matrix whose row block
    /// ([`Grid::w_rows`]) `part` is: the column group's blocks, every
    /// arriving one copied once into place
    /// ([`collectives::allgatherv_into`]), or `part` itself when the model
    /// dimension is not split.
    pub fn gather_rows(&self, part: Matrix, d: usize) -> Result<Matrix> {
        if self.pr == 1 {
            return Ok(part);
        }
        let (bloc, mut out) = (part.cols(), Matrix::zeros(d, part.cols()));
        allgatherv_into(&self.col_comm, part.into_vec(), out.as_mut_slice(), |src| {
            let rows = part_range(d, self.pr, src);
            rows.start * bloc..rows.end * bloc
        })?;
        Ok(out)
    }

    /// The columns of a `B`-column activation matrix owned by this rank.
    pub fn x_cols(&self, b: usize) -> std::ops::Range<usize> {
        part_range(b, self.pc, self.j)
    }

    /// The Eq. 6 exchange between consecutive layers on different grids
    /// (the paper's Fig. 7): re-lays `m` — this rank's columns of a
    /// `b`-column matrix under this grid's batch split — into the split
    /// of `to`, another row-major ([`Grid::new`]) grid of the same
    /// communicator. Grid row 0 ships, one sender per replica group
    /// ([`redistribute_cols`]).
    pub fn relayout_cols(&self, to: &Grid, m: &Matrix, b: usize) -> Result<Matrix> {
        let p = self.comm.size();
        let split = |pc: usize| -> Vec<_> { (0..p).map(|r| part_range(b, pc, r % pc)).collect() };
        let senders: Vec<bool> = (0..p).map(|r| r < self.pc).collect();
        redistribute_cols(&self.comm, m, &split(self.pc), &split(to.pc), &senders)
    }
}

/// Per-iteration silent-data-corruption context — the [`Guard`] of a
/// defended run: carries the iteration number (so scripted
/// [`mpsim::FaultPlan`] bit flips target the right GEMM), whether ABFT
/// verification is enabled, and a running operation counter.
///
/// Ops are numbered in execution order within the iteration — every
/// local GEMM increments the counter, so with the trainer's fixed
/// schedule (forward per layer, then per backward layer (∆W, ∆X) when
/// blocking, [`backward_with`], or (∆X, ∆W) when scheduled,
/// [`backward_dw_deferred`]) an `(iter, op)` pair deterministically
/// names one local product on one rank. The same pair appears in trace
/// instants, fault counters, and [`Error::SilentCorruption`] contexts.
pub struct SdcCtx {
    /// Training iteration these GEMMs belong to.
    pub iter: u64,
    /// When `false`, scripted flips are still injected (the fault
    /// exists whether or not anyone defends) but nothing is verified —
    /// the corruption proceeds silently. When `true`, every local GEMM
    /// output is checksum-verified and single-element errors are
    /// repaired in place.
    pub abft: bool,
    op: Cell<u64>,
}

impl SdcCtx {
    /// A fresh context at op 0.
    pub fn new(iter: u64, abft: bool) -> SdcCtx {
        SdcCtx {
            iter,
            abft,
            op: Cell::new(0),
        }
    }

    /// The next op index (post-increment).
    fn next_op(&self) -> u64 {
        let op = self.op.get();
        self.op.set(op + 1);
        op
    }

    /// How many GEMM ops have run under this context so far.
    pub fn ops_done(&self) -> u64 {
        self.op.get()
    }
}

/// Which kernel produced the output (selects the matching checksum
/// shape and bit-exact recompute order).
enum GemmKind {
    /// `C = A·B` ([`matmul`]).
    Plain,
    /// `C = A·Bᵀ` ([`matmul_a_bt`]).
    ABt,
    /// `C = Aᵀ·B` ([`matmul_at_b`]).
    AtB,
}

/// The [`Guard`]'s check on the freshly produced GEMM output `c` (none
/// under `None`): injects any scripted compute bit flips into `c`, then
/// — when ABFT is enabled — verifies `c` against its operand
/// checksums: a single corrupted element is repaired bit-exactly in
/// place (counted as `corrupt_corrected`); anything worse escalates
/// with a group-wide abort and [`Error::SilentCorruption`] so the
/// caller's checkpoint/rollback machinery takes over (counted as
/// `corrupt_recovered`). The checksum work is charged to the virtual
/// clock, so measured ABFT overhead is real under the α–β/FLOP model.
///
/// The landed flips *fire* when the checksums reject the flipped
/// product — with or without ABFT, which only decides whether anyone
/// acts on it (undefended, the check runs on a copy and is not
/// charged). A flip that stays inside the rounding envelope — a high
/// bit of an exact `0.0` makes a subnormal — is below numerical noise
/// for every check, fires nothing and is not counted.
fn sdc_guard(
    comm: &Communicator,
    guard: Guard,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    kind: GemmKind,
) -> Result<()> {
    let Some(sdc) = guard else {
        return Ok(());
    };
    let op = sdc.next_op();
    let flips = comm.take_compute_flips(sdc.iter, op);
    if !flips.is_empty() {
        apply_flips(c.as_mut_slice(), &flips);
    }
    let verify = |c: &mut Matrix| match kind {
        GemmKind::Plain => abft::verify_matmul(a, b, c),
        GemmKind::ABt => abft::verify_a_bt(a, b, c),
        GemmKind::AtB => abft::verify_at_b(a, b, c),
    };
    if !sdc.abft {
        if !flips.is_empty() && verify(&mut c.clone()) != Verdict::Clean {
            comm.record_flips_fired(sdc.iter, op, &flips);
        }
        return Ok(());
    }
    let k = match kind {
        GemmKind::AtB => a.rows(),
        _ => a.cols(),
    };
    comm.advance_flops(abft::abft_flops(c.rows(), k, c.cols()));
    let verdict = verify(c);
    if !flips.is_empty() && verdict != Verdict::Clean {
        comm.record_flips_fired(sdc.iter, op, &flips);
    }
    match verdict {
        Verdict::Clean => Ok(()),
        Verdict::Corrected { .. } => {
            comm.record_corrupt_corrected(sdc.iter, op);
            Ok(())
        }
        Verdict::Uncorrectable { .. } => {
            comm.record_corrupt_recovered(sdc.iter, op);
            let me = comm.global_rank_of(comm.rank())?;
            // Best effort: peers blocked on this rank unblock with
            // `Aborted` and cascade, same as the collective fault path.
            let _ = comm.send_abort(me);
            Err(Error::SilentCorruption {
                rank: me,
                what: "gemm",
                ctx: Some(FaultCtx { iter: sdc.iter, op }),
            })
        }
    }
}

/// How a 1.5D op treats its local GEMMs. `None`: the reliable machine,
/// no check. `Some(sdc)`: `sdc_guard` runs after every local GEMM —
/// scripted compute bit flips land on the fresh product and, when
/// [`SdcCtx::abft`] is set, it is checksum-verified and repaired (or
/// escalated) before any corrupted word can reach a collective.
///
/// The collectives themselves take no switch: how a receive treats a
/// late, lost or corrupt message is the policy of the communicator the
/// [`Grid`] was built on ([`mpsim::Communicator::guarded`]), so every
/// schedule below is written once and the trainers cannot drift apart.
pub type Guard<'a> = Option<&'a SdcCtx>;

/// The local forward product `W_i · X_j` (flops charged, guarded):
/// alone, the forward of a layer whose output stays in row blocks (the
/// layer below an input-split one).
pub fn y_partial(grid: &Grid, w_local: &Matrix, x_local: &Matrix, guard: Guard) -> Result<Matrix> {
    let comm = &grid.col_comm;
    comm.advance_flops(matmul_flops(w_local.rows(), w_local.cols(), x_local.cols()));
    let mut y = matmul(w_local, x_local);
    sdc_guard(comm, guard, w_local, x_local, &mut y, GemmKind::Plain)?;
    Ok(y)
}

/// This rank's row block `∆Y_{i,j}` ([`Grid::w_rows`]) of a full-depth
/// `∆Y_j`: a copy of its rows, or `∆Y_j` itself when the model dimension
/// is not split.
pub fn dy_block<'a>(grid: &Grid, dy: Cow<'a, Matrix>) -> Cow<'a, Matrix> {
    if grid.pr == 1 {
        return dy;
    }
    let rows = grid.w_rows(dy.rows());
    Cow::Owned(dy.row_block(rows.start, rows.end))
}

/// The local `∆W` partial `∆Y_{i,j}·X_jᵀ` (flops charged, guarded),
/// `dy_i` being this rank's row block ([`dy_block`]) — *not* yet summed over the row
/// group. Alone, it is the backward of a layer whose input gradient
/// nobody reads (the paper does "not need to backpropagate the gradient
/// beyond the first layer"): the caller sums it, blocking or bucketed,
/// and no `∆X` GEMM or column-group all-reduce runs. One SDC op.
pub fn dw_partial(grid: &Grid, x_local: &Matrix, dy_i: &Matrix, guard: Guard) -> Result<Matrix> {
    let comm = &grid.row_comm;
    comm.advance_flops(matmul_flops(dy_i.rows(), dy_i.cols(), x_local.rows()));
    let mut dw = matmul_a_bt(dy_i, x_local);
    sdc_guard(comm, guard, dy_i, x_local, &mut dw, GemmKind::ABt)?;
    Ok(dw)
}

/// The local `∆X` partial `W_iᵀ·∆Y_{i,j}` (flops charged, guarded).
fn dx_partial(grid: &Grid, w_local: &Matrix, dy_i: &Matrix, guard: Guard) -> Result<Matrix> {
    let comm = &grid.col_comm;
    comm.advance_flops(matmul_flops(w_local.cols(), w_local.rows(), dy_i.cols()));
    let mut dx = matmul_at_b(w_local, dy_i);
    sdc_guard(comm, guard, w_local, dy_i, &mut dx, GemmKind::AtB)?;
    Ok(dx)
}

/// Forward: `Y_j = allgather_{Pr}(W_i · X_j)`. `w_local` is this rank's
/// `d_out/Pr × d_in` shard; `x_local` is the full-depth `d_in × B/Pc`
/// batch shard. Returns the assembled `d_out × B/Pc` output shard,
/// gathered by the ring.
pub fn forward(grid: &Grid, w_local: &Matrix, x_local: &Matrix) -> Result<Matrix> {
    let bloc = x_local.cols();
    let y_partial = y_partial(grid, w_local, x_local, None)?;
    if grid.pr == 1 {
        return Ok(y_partial);
    }
    let blocks = allgatherv_ring(&grid.col_comm, y_partial.as_slice())?;
    let mats: Vec<Matrix> = blocks
        .into_iter()
        .map(|v| Matrix::from_vec(v.len() / bloc, bloc, v))
        .collect();
    Ok(Matrix::vcat(&mats))
}

/// [`forward`] for a caller that knows the layer's full output depth
/// `d_out` (the trainers do; only the column group as a whole does
/// otherwise), under a [`Guard`]: the local product is verified before
/// the gather, so a corrupted word never spreads to the column group,
/// and every row block is gathered straight into its rows of the
/// `d_out × B/Pc` output ([`collectives::allgatherv_into`]) — each
/// arriving block is copied once into place and nothing is stacked
/// afterwards. Same values as [`forward`]; on a power-of-two `Pr` the
/// gather is recursive doubling, Eq. 3's `log₂Pr` α-steps where
/// [`forward`]'s ring takes `Pr − 1`.
pub fn forward_into(
    grid: &Grid,
    w_local: &Matrix,
    x_local: &Matrix,
    d_out: usize,
    guard: Guard,
) -> Result<Matrix> {
    grid.gather_rows(y_partial(grid, w_local, x_local, guard)?, d_out)
}

/// The input-split forward (see the module doc): the local
/// `W_{:,i}·X_{i,j}`, summed over the column group so that every rank
/// holds the `d_out × B/Pc` output `Y_j`. With `Pr = 1` it is the local
/// product alone.
pub fn forward_summed(grid: &Grid, w_cols: &Matrix, x_i: &Matrix, guard: Guard) -> Result<Matrix> {
    // The output's sum over the column group — the one column-group
    // all-reduce here; every ∆X sum is a reduce-scatter.
    let (cols, mut y) = (&grid.col_comm, y_partial(grid, w_cols, x_i, guard)?);
    if grid.pr > 1 {
        allreduce(cols, y.as_mut_slice(), ReduceOp::Sum)?;
    }
    Ok(y)
}

/// Backward: given the full-depth output-gradient shard `∆Y_j`
/// (`d_out × B/Pc`), returns `(∆W_i, ∆X_{i,j})`:
/// `∆W_i = allreduce_{Pc}(∆Y_{i,j}·X_jᵀ)` (this rank's `d_out/Pr × d_in`
/// shard of the summed weight gradient) and
/// `∆X_{i,j} = reduce_scatter_{Pr}(W_iᵀ·∆Y_{i,j})`: the rows
/// [`Grid::w_rows`]`(d_in)` of the `d_in × B/Pc` input gradient, the
/// block the layer below reads. `∆Y_{i,j}` is cut from `∆Y_j` here
/// ([`dy_block`]); the trainers, which carry row blocks from layer to
/// layer, call [`backward_with`].
pub fn backward(
    grid: &Grid,
    w_local: &Matrix,
    x_local: &Matrix,
    dy_local: &Matrix,
) -> Result<(Matrix, Matrix)> {
    let dy_i = dy_block(grid, Cow::Borrowed(dy_local));
    backward_with(grid, w_local, x_local, &dy_i, None, false)
}

/// The rows of the `d_in × bloc` input gradient that the `∆X`
/// reduce-scatter left this rank, as a matrix.
fn dx_rows(grid: &Grid, d_in: usize, bloc: usize, rows: Vec<f64>) -> Matrix {
    Matrix::from_vec(grid.w_rows(d_in).len(), bloc, rows)
}

/// [`backward`] on this rank's row block `dy_i` = `∆Y_{i,j}`, under a
/// [`Guard`]: returns the summed `∆W_i` and `∆X_{i,j}`, the local
/// `W_iᵀ·∆Y_{i,j}` reduce-scattered over `Pr` — the rows the layer below
/// reads. Verification happens on the *local* partials, before either
/// sum — a corrected flip never enters the sum, and an escalation aborts
/// the group before the reduction commits. SDC op order: (∆W, ∆X).
///
/// `split_in`: the layer is input-split (see the module doc) — `w_local`
/// holds `W_{:,i}`, `x_local` is `X_{i,j}` and `dy_i` the whole `∆Y_j` —
/// and the local `∆X` partial is returned unsummed: it is the block.
pub fn backward_with(
    grid: &Grid,
    w_local: &Matrix,
    x_local: &Matrix,
    dy_i: &Matrix,
    guard: Guard,
    split_in: bool,
) -> Result<(Matrix, Matrix)> {
    let mut dw = dw_partial(grid, x_local, dy_i, guard)?;
    allreduce(&grid.row_comm, dw.as_mut_slice(), ReduceOp::Sum)?;
    let dx = dx_partial(grid, w_local, dy_i, guard)?;
    if split_in {
        return Ok((dw, dx));
    }
    let bloc = dx.cols();
    let dx = reduce_scatter(&grid.col_comm, dx.into_vec(), bloc, ReduceOp::Sum)?;
    Ok((dw, dx_rows(grid, w_local.cols(), bloc, dx)))
}

/// [`backward_with`] as the scheduled trainers run it: the ∆W
/// all-reduce is **deferred** and the ∆X reduce-scatter **overlapped**.
/// The `W_iᵀ·∆Y_{i,j}` GEMM runs first, its column-group reduce-scatter
/// is launched non-blocking ([`collectives::ireduce_scatter`]), and the
/// `∆Y_{i,j}·X_jᵀ` GEMM then runs while that sum is on the channel,
/// hiding up to its length before the wait. Returns the local ∆W
/// partial — *not* yet summed over the `Pc`-sized row group, but already
/// verified under the guard — and `∆X_{i,j}`, the rows the layer below
/// reads. The caller owns the row-group sum, typically launching it as a
/// bucketed non-blocking all-reduce so the transfer overlaps the
/// remaining backward compute (the paper's Fig. 8 executed); see
/// `integrated::trainer::train_1p5d_scheduled`.
///
/// Values are bit-identical to [`backward_with`]'s: the two local GEMMs
/// are independent and the non-blocking reduce-scatter reduces in its
/// blocking twin's exact order. The GEMMs *execute* in the opposite
/// order, so the SDC op order is (∆X, ∆W): op-indexed fault scripts
/// written against one schedule do not transfer to the other. An
/// input-split layer (`split_in`, as [`backward_with`] takes it) has no
/// `∆X` sum to hide: its two GEMMs run back to back, in the same order.
pub fn backward_dw_deferred(
    grid: &Grid,
    w_local: &Matrix,
    x_local: &Matrix,
    dy_i: &Matrix,
    guard: Guard,
    split_in: bool,
) -> Result<(Matrix, Matrix)> {
    let dx = dx_partial(grid, w_local, dy_i, guard)?;
    if split_in {
        return Ok((dw_partial(grid, x_local, dy_i, guard)?, dx));
    }
    let bloc = dx.cols();
    let h = ireduce_scatter(&grid.col_comm, dx.into_vec(), bloc, ReduceOp::Sum)?;
    let dw = dw_partial(grid, x_local, dy_i, guard)?;
    Ok((dw, dx_rows(grid, w_local.cols(), bloc, h.wait()?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{col_shard, part_range, row_shard};
    use collectives::cost::{allreduce_exact, bruck_allgather, reduce_scatter_exact, CostTerms};
    use collectives::FtConfig;
    use mpsim::{NetModel, World};
    use tensor::init;
    use tensor::matmul::matmul;

    struct Reference {
        w: Matrix,
        x: Matrix,
        dy: Matrix,
        y: Matrix,
        dw: Matrix,
        dx: Matrix,
    }

    fn reference(d_out: usize, d_in: usize, b: usize) -> Reference {
        let w = init::xavier(d_out, d_in, 10);
        let x = init::uniform(d_in, b, -1.0, 1.0, 11);
        let dy = init::uniform(d_out, b, -1.0, 1.0, 12);
        let y = matmul(&w, &x);
        let dw = matmul_a_bt(&dy, &x);
        let dx = matmul_at_b(&w, &dy);
        Reference {
            w,
            x,
            dy,
            y,
            dw,
            dx,
        }
    }

    fn run_grid(pr: usize, pc: usize, r: &Reference) -> Vec<(Matrix, Matrix, Matrix)> {
        World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let y = forward(&grid, &wl, &xl).unwrap();
            let (dw, dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
            (y, dw, dx)
        })
    }

    fn check_grid(pr: usize, pc: usize, d_out: usize, d_in: usize, b: usize) {
        let r = reference(d_out, d_in, b);
        let out = run_grid(pr, pc, &r);
        for (g, (y, dw, dx)) in out.iter().enumerate() {
            let i = g / pc;
            let j = g % pc;
            let cols = part_range(b, pc, j);
            let y_expect = r.y.col_block(cols.start, cols.end);
            assert!(
                y.approx_eq(&y_expect, 1e-10),
                "grid {pr}x{pc} rank ({i},{j}) Y"
            );
            let rows = part_range(d_out, pr, i);
            let dw_expect = r.dw.row_block(rows.start, rows.end);
            assert!(
                dw.approx_eq(&dw_expect, 1e-10),
                "grid {pr}x{pc} rank ({i},{j}) dW"
            );
            // ∆X: the rows of the layer below's row block, no others.
            let rows = part_range(d_in, pr, i);
            let dx_expect = r.dx.col_block(cols.start, cols.end);
            let dx_expect = dx_expect.row_block(rows.start, rows.end);
            assert!(
                dx.approx_eq(&dx_expect, 1e-10),
                "grid {pr}x{pc} rank ({i},{j}) dX"
            );
        }
    }

    /// The input-split product: rank `(i, j)` holds columns
    /// `part_range(d_in, Pr, i)` of `W` and the same rows of `X_j`; the
    /// summed forward is `Y_j` on every rank, `∆W` is those columns of the
    /// serial `∆W`, and the unsummed `∆X` those rows of the serial `∆X`,
    /// blocking and deferred alike, bit for bit.
    #[test]
    fn the_input_split_product_matches_serial() {
        for (pr, pc) in [(2, 3), (3, 2), (4, 1), (1, 4)] {
            let (d_out, d_in, b) = (6, 10, 9);
            let r = reference(d_out, d_in, b);
            let out = World::run(pr * pc, NetModel::cori_knl(), |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let cols = part_range(d_in, pr, grid.i);
                let wl = r.w.col_block(cols.start, cols.end);
                let xl = dy_block(&grid, Cow::Owned(col_shard(&r.x, pc, grid.j))).into_owned();
                let dyl = col_shard(&r.dy, pc, grid.j);
                let y = forward_summed(&grid, &wl, &xl, None).unwrap();
                let (dw, dx) = backward_with(&grid, &wl, &xl, &dyl, None, true).unwrap();
                let (mut dw_d, dx_d) =
                    backward_dw_deferred(&grid, &wl, &xl, &dyl, None, true).unwrap();
                allreduce(&grid.row_comm, dw_d.as_mut_slice(), ReduceOp::Sum).unwrap();
                assert!(dw == dw_d && dx == dx_d, "deferred differs");
                (y, dw, dx)
            });
            for (g, (y, dw, dx)) in out.iter().enumerate() {
                let (i, j) = (g / pc, g % pc);
                let (rows, cols) = (part_range(d_in, pr, i), part_range(b, pc, j));
                let at = format!("grid {pr}x{pc} rank ({i},{j})");
                assert!(
                    y.approx_eq(&r.y.col_block(cols.start, cols.end), 1e-12),
                    "{at} Y"
                );
                let dw_want = r.dw.col_block(rows.start, rows.end);
                assert!(dw.approx_eq(&dw_want, 1e-12), "{at} dW");
                let dx_want = r.dx.col_block(cols.start, cols.end);
                let dx_want = dx_want.row_block(rows.start, rows.end);
                assert!(dx.approx_eq(&dx_want, 1e-12), "{at} dX");
                assert!(*y == out[j].0, "{at}: Y bit-equal across the column group");
            }
        }
    }

    #[test]
    fn matches_serial_on_2x3_grid() {
        check_grid(2, 3, 8, 5, 9);
    }

    #[test]
    fn matches_serial_on_3x2_grid() {
        check_grid(3, 2, 9, 7, 8);
    }

    #[test]
    fn matches_serial_on_4x4_grid() {
        check_grid(4, 4, 16, 6, 16);
    }

    #[test]
    fn pr_equals_one_is_pure_batch() {
        check_grid(1, 4, 6, 5, 8);
    }

    #[test]
    fn pc_equals_one_is_pure_model() {
        check_grid(4, 1, 8, 5, 6);
    }

    #[test]
    fn the_corners_cost_what_fig1_and_fig2_say() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 4;
        let (d_out, d_in, b) = (16, 8, 8);
        let r = reference(d_out, d_in, b);
        // Per rank: the communication seconds of (forward, backward).
        let comm_secs = |pr: usize, pc: usize| {
            World::run(pr * pc, model, |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let dyl = col_shard(&r.dy, pc, grid.j);
                forward_into(&grid, &wl, &xl, d_out, None).unwrap();
                let fwd = comm.clock().comm;
                backward(&grid, &wl, &xl, &dyl).unwrap();
                (fwd, comm.clock().comm - fwd)
            })
        };
        let secs = |terms: CostTerms| terms.seconds(&model);
        // Pr = 1, pure batch (Fig. 2, Eq. 4): the forward and ∆X move
        // nothing; the one collective is the all-reduce of |W|.
        let dw = secs(allreduce_exact(p, (d_out * d_in) as f64, &model));
        for (fwd, bwd) in comm_secs(1, p) {
            assert_eq!(fwd, 0.0, "batch-parallel forward is comm-free");
            assert!((bwd - dw).abs() < 1e-12, "{bwd} vs {dw}");
        }
        // Pc = 1, pure model (Fig. 1, Eq. 3): the forward is the
        // all-gather of Y, at Eq. 3's `log₂P·α`; ∆W moves nothing — "the
        // input activation is already communicated via the all-gather
        // collective of forward pass" — so backward is the ∆X all-reduce
        // alone — run as the reduce-scatter of the rows each rank's layer
        // below reads.
        let y = secs(bruck_allgather(p, (d_out * b) as f64));
        let dx = secs(reduce_scatter_exact(p, (d_in * b) as f64));
        for (fwd, bwd) in comm_secs(p, 1) {
            assert!((fwd - y).abs() < 1e-12, "{fwd} vs {y}");
            assert!((bwd - dx).abs() < 1e-12, "{bwd} vs {dx}");
        }
    }

    /// All-gathers do no arithmetic: the doubling gather of
    /// [`forward_into`] leaves the ring's bits in every row, ragged or
    /// not, on power-of-two and other `Pr`.
    #[test]
    fn forward_into_keeps_the_rings_bits() {
        for (pr, pc) in [(2, 3), (3, 2), (4, 1), (8, 1)] {
            let (d_out, d_in, b) = (10, 5, 9);
            let r = reference(d_out, d_in, b);
            let out = World::run(pr * pc, NetModel::cori_knl(), |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let y = forward_into(&grid, &wl, &xl, d_out, None).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                (bits(&y), bits(&forward(&grid, &wl, &xl).unwrap()))
            });
            for (g, (into, ring)) in out.iter().enumerate() {
                assert_eq!(into, ring, "grid {pr}x{pc} rank {g}");
            }
        }
    }

    #[test]
    fn uneven_shards_are_handled() {
        // d_out=10 over pr=3, b=7 over pc=2: nothing divides evenly.
        check_grid(3, 2, 10, 5, 7);
    }

    #[test]
    fn dw_allreduce_volume_is_reduced_by_pr() {
        // The paper's headline: the ∆W all-reduce moves |W|/Pr words per
        // process instead of |W|.
        let model = NetModel {
            alpha: 0.0,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let (d_out, d_in, b) = (16, 8, 16);
        let r = reference(d_out, d_in, b);
        let comm_time = |pr: usize, pc: usize| -> f64 {
            let out = World::run(pr * pc, model, |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let _wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let dyl = col_shard(&r.dy, pc, grid.j);
                // Isolate the ∆W all-reduce: measure backward comm with
                // the ∆X all-reduce excluded by measuring the row_comm
                // traffic via stats words.
                let before = comm.stats().words_sent;
                let rows = grid.w_rows(dyl.rows());
                let dy_i = dyl.row_block(rows.start, rows.end);
                let mut dw = matmul_a_bt(&dy_i, &xl);
                allreduce(&grid.row_comm, dw.as_mut_slice(), ReduceOp::Sum).unwrap();
                (comm.stats().words_sent - before) as f64
            });
            out.iter().cloned().fold(0.0, f64::max)
        };
        let w_total = (d_out * d_in) as f64;
        let words_batch = comm_time(1, 4);
        let words_1p5d = comm_time(4, 4);
        // Recursive halving (what α = 0 selects) sends the ring's
        // 2n(p-1)/p words per rank.
        assert!((words_batch - 2.0 * w_total * 3.0 / 4.0).abs() < 1.0);
        assert!((words_1p5d - 2.0 * (w_total / 4.0) * 3.0 / 4.0).abs() < 1.0);
        assert!(words_1p5d < words_batch / 3.0);
    }

    #[test]
    fn deferred_dw_plus_explicit_sum_matches_backward_bitwise() {
        for (pr, pc) in [(1, 4), (2, 3), (4, 1), (3, 2)] {
            let r = reference(8, 5, 9);
            let out = World::run(pr * pc, NetModel::free(), |comm| {
                let grid = Grid::new(comm, pr, pc).unwrap();
                let wl = row_shard(&r.w, pr, grid.i);
                let xl = col_shard(&r.x, pc, grid.j);
                let dyl = col_shard(&r.dy, pc, grid.j);
                let (dw_ref, dx_ref) = backward(&grid, &wl, &xl, &dyl).unwrap();
                let dy_i = dy_block(&grid, Cow::Owned(dyl));
                let (mut dw, dx) =
                    backward_dw_deferred(&grid, &wl, &xl, &dy_i, None, false).unwrap();
                allreduce(&grid.row_comm, dw.as_mut_slice(), ReduceOp::Sum).unwrap();
                (dw_ref, dx_ref, dw, dx)
            });
            for (g, (dw_ref, dx_ref, dw, dx)) in out.iter().enumerate() {
                assert!(
                    dw == dw_ref,
                    "grid {pr}x{pc} rank {g}: deferred ∆W sum differs"
                );
                assert!(dx == dx_ref, "grid {pr}x{pc} rank {g}: ∆X differs");
            }
        }
    }

    #[test]
    fn deferred_dw_hides_the_dx_transfer_behind_the_dw_gemm() {
        // Arithmetic-heavy regime: the ∆W GEMM takes far longer than the
        // ∆X sum, so the overlapped transfer's exposed wait is ~zero.
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: 1e9,
        };
        let (pr, pc) = (4usize, 1usize);
        let r = reference(32, 64, 48);
        let (_, stats) = World::run_with_stats(pr * pc, model, |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let dy_i = dy_block(&grid, Cow::Owned(dyl));
            backward_dw_deferred(&grid, &wl, &xl, &dy_i, None, false).unwrap();
        });
        assert!(
            stats.total_overlapped_secs() > 0.0,
            "∆X transfer partly hidden behind the ∆W GEMM"
        );
    }

    /// Fig. 5's layout is computed, not negotiated: for every `pr × pc`
    /// tiling of P ∈ {1..16, 64} the grid sends nothing and moves no
    /// clock, its row `i` is ranks `i·pc..(i+1)·pc` and its column `j` is
    /// ranks `k·pc + j`, and a whole-world group shares the world's table.
    #[test]
    fn grids_are_communication_free_and_match_fig5() {
        for p in (1..=16).chain([64]) {
            for pr in (1..=p).filter(|pr| p % pr == 0) {
                let pc = p / pr;
                let (out, stats) = World::run_with_stats(p, NetModel::cori_knl(), |comm| {
                    let shares = |c: &Communicator| c.members().as_ptr() == comm.members().as_ptr();
                    let Grid {
                        row_comm, col_comm, ..
                    } = Grid::new(comm, pr, pc).unwrap();
                    let groups = (row_comm.members().to_vec(), col_comm.members().to_vec());
                    (groups, [shares(&row_comm), shares(&col_comm)])
                });
                assert_eq!(stats.makespan(), 0.0, "{pr}x{pc}: no clock moved");
                assert_eq!(
                    stats.ranks,
                    vec![mpsim::RankStats::default(); p],
                    "{pr}x{pc}"
                );
                let run = |from: usize, n: usize, stride: usize| -> Vec<usize> {
                    (0..n).map(|k| from + k * stride).collect()
                };
                let whole = [pr == 1, pc == 1];
                for (g, row_major) in out.into_iter().enumerate() {
                    let (i, j) = (g / pc, g % pc);
                    let want = ((run(i * pc, pc, 1), run(j, pr, pc)), whole);
                    assert_eq!(row_major, want, "{pr}x{pc} rank {g}: row-major");
                }
            }
        }
    }

    #[test]
    fn every_schedule_is_guard_invariant_when_fault_free() {
        // One table: {unguarded, guarded abft off, guarded abft on} ×
        // {forward, backward, dw_deferred};
        // "guarded" is the grid built on a guarded communicator plus the
        // GEMM guard. The guards only read, so every output is bit-equal
        // across the three columns; and with ABFT off the collectives
        // cost on a guarded communicator exactly what they do on a plain
        // one, so the per-rank virtual clocks are equal too.
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: 1e9,
        };
        let cfg = FtConfig::fixed(1e6);
        for (pr, pc) in [(2usize, 3usize), (3, 2)] {
            let r = reference(9, 5, 9);
            // `abft`: None = unguarded.
            let run = |abft: Option<bool>| {
                World::run(pr * pc, model, |comm| {
                    let sdc = SdcCtx::new(0, abft.unwrap_or(false));
                    let (comm, guard) = match abft {
                        None => (comm.clone(), None),
                        Some(_) => (comm.guarded(&cfg), Some(&sdc)),
                    };
                    let grid = Grid::new(&comm, pr, pc).unwrap();
                    let wl = row_shard(&r.w, pr, grid.i);
                    let xl = col_shard(&r.x, pc, grid.j);
                    let dyl = col_shard(&r.dy, pc, grid.j);
                    let dy_i = dy_block(&grid, Cow::Owned(dyl));
                    let y = forward_into(&grid, &wl, &xl, r.w.rows(), guard).unwrap();
                    let (dw, dx) = backward_with(&grid, &wl, &xl, &dy_i, guard, false).unwrap();
                    let deferred =
                        backward_dw_deferred(&grid, &wl, &xl, &dy_i, guard, false).unwrap();
                    if abft.is_some() {
                        // fwd + (∆W, ∆X) + (∆X, ∆W).
                        assert_eq!(sdc.ops_done(), 5, "SDC op numbering");
                    }
                    assert!(deferred.1 == dx, "∆X");
                    (vec![y, dw, dx, deferred.0], comm.now())
                })
            };
            let plain = run(None);
            let guarded = run(Some(false));
            let verified = run(Some(true));
            for (g, ((p, q), v)) in plain.iter().zip(&guarded).zip(&verified).enumerate() {
                assert!(p.0 == q.0, "grid {pr}x{pc} rank {g}: guarded differs");
                assert!(p.0 == v.0, "grid {pr}x{pc} rank {g}: abft-on differs");
                assert_eq!(
                    p.1.to_bits(),
                    q.1.to_bits(),
                    "grid {pr}x{pc} rank {g}: clock"
                );
                assert!(v.1 > p.1, "checksum FLOPs land on the virtual clock");
            }
        }
    }

    #[test]
    fn single_compute_flip_is_corrected_in_place() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 3usize);
        let r = reference(8, 5, 9);
        let cfg = FtConfig::fixed(1e6);
        let clean = run_grid(pr, pc, &r);
        // One high bit flipped in rank 2's forward GEMM output (op 0),
        // and one in rank 4's ∆X GEMM (op 2).
        let plan = FaultPlan::new(7)
            .bitflip_compute(2, 0, 0, 51)
            .bitflip_compute(4, 0, 2, 55);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(&comm.guarded(&cfg), pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let dyl = col_shard(&r.dy, pc, grid.j);
            let sdc = SdcCtx::new(0, true);
            let guard = Some(&sdc);
            let y = forward_into(&grid, &wl, &xl, r.w.rows(), guard).unwrap();
            let dy_i = dy_block(&grid, Cow::Owned(dyl));
            let (dw, dx) = backward_with(&grid, &wl, &xl, &dy_i, guard, false).unwrap();
            (y, dw, dx)
        });
        assert_eq!(out, clean, "both flips repaired bit-exactly");
        assert_eq!(stats.total_bitflips_compute(), 2, "both flips injected");
        assert_eq!(stats.total_corrupt_corrected(), 2);
        assert_eq!(stats.total_corrupt_recovered(), 0);
        assert_eq!(stats.total_aborts(), 0, "no escalation");
    }

    #[test]
    fn multi_element_flip_escalates_group_wide() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 2usize);
        let r = reference(8, 5, 8);
        let cfg = FtConfig::fixed(1e6);
        // Two flips on the same GEMM → two corrupted elements → the 1×1
        // location pattern fails and rank 1 must escalate.
        let plan = FaultPlan::new(3)
            .bitflip_compute(1, 0, 0, 50)
            .bitflip_compute(1, 0, 0, 52);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(&comm.guarded(&cfg), pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let sdc = SdcCtx::new(0, true);
            forward_into(&grid, &wl, &xl, r.w.rows(), Some(&sdc))
        });
        match &out[1] {
            Err(Error::SilentCorruption {
                rank: 1,
                what: "gemm",
                ctx: Some(c),
            }) => assert_eq!((c.iter, c.op), (0, 0)),
            other => panic!("rank 1: {other:?}"),
        }
        // Rank 3 shares rank 1's column group and was mid-all-gather.
        assert!(
            matches!(
                &out[3],
                Err(Error::Aborted { .. }) | Err(Error::SilentCorruption { .. })
            ),
            "rank 3 unblocked by the abort: {:?}",
            out[3]
        );
        assert_eq!(
            stats.total_corrupt_recovered(),
            1,
            "escalated, not corrected"
        );
        assert_eq!(stats.total_corrupt_corrected(), 0);
        assert!(stats.total_aborts() >= 1, "abort was broadcast");
    }

    #[test]
    fn sdc_flips_proceed_silently_without_abft() {
        use mpsim::FaultPlan;
        let (pr, pc) = (2usize, 2usize);
        let r = reference(8, 5, 8);
        let cfg = FtConfig::fixed(1e6);
        let clean = World::run(pr * pc, NetModel::free(), |comm| {
            let grid = Grid::new(comm, pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            forward(&grid, &wl, &xl).unwrap()
        });
        let plan = FaultPlan::new(3).bitflip_compute(0, 0, 0, 51);
        let (out, stats) = World::run_with_faults(pr * pc, NetModel::free(), plan, |comm| {
            let grid = Grid::new(&comm.guarded(&cfg), pr, pc).unwrap();
            let wl = row_shard(&r.w, pr, grid.i);
            let xl = col_shard(&r.x, pc, grid.j);
            let sdc = SdcCtx::new(0, false);
            forward_into(&grid, &wl, &xl, r.w.rows(), Some(&sdc)).unwrap()
        });
        assert_eq!(stats.total_bitflips_compute(), 1, "flip was injected");
        assert_eq!(stats.total_corrupt_detected(), 0, "nobody noticed");
        // The corrupted word spread through the all-gather: every rank
        // in rank 0's column group now disagrees with the clean run.
        assert!(out[0] != clean[0], "rank 0 output silently corrupted");
        assert!(out[2] != clean[2], "corruption spread to rank 2");
    }

    #[test]
    fn grid_indexing_is_row_major() {
        let out = World::run(6, NetModel::free(), |comm| {
            let g = Grid::new(comm, 2, 3).unwrap();
            (g.i, g.j, g.row_comm.size(), g.col_comm.size())
        });
        assert_eq!(out[0], (0, 0, 3, 2));
        assert_eq!(out[4], (1, 1, 3, 2));
        assert_eq!(out[5], (1, 2, 3, 2));
    }
}
