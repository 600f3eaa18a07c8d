//! # collectives — collective communication over `mpsim`
//!
//! The paper's cost analysis (its §2.2) prices every collective with the
//! Thakur, Rabenseifner & Gropp (IJHPCA 2005) forms:
//!
//! * **all-reduce** for gradient sums (`∆W`, `∆X`) —
//!   `2⌈log₂P⌉·α + 2·(P−1)/P·n·β` (Eqs. 4, 7, 8, 9), and
//! * **all-gather** for activation assembly in the model-parallel
//!   dimension — `⌈log₂P⌉·α + (P−1)/P·n·β` (Eqs. 3, 8, 9).
//!
//! This crate *executes* those algorithms on the `mpsim` virtual
//! machine and provides the matching closed-form [`cost::CostTerms`],
//! so tests can assert that execution time equals the formula.
//!
//! The default entry points run what the paper prices on every group
//! size:
//!
//! * [`allreduce`] and [`iallreduce`] run the cheapest of
//!   Rabenseifner's recursive halving and recursive doubling on a
//!   power-of-two group, and of Bruck's reduce-scatter + all-gather, a
//!   Bruck gather of whole vectors summed locally, and a fold onto a
//!   power-of-two core that runs recursive doubling on any other, for
//!   the message length and the network model, priced by
//!   [`cost::allreduce_exact`];
//! * [`reduce_scatter`] and [`ireduce_scatter`] run the reduce-scatter
//!   half of Rabenseifner's all-reduce on power-of-two groups and of
//!   Bruck's on any other — `⌈log₂P⌉·α + (P−1)/P·n·β` on both,
//!   [`cost::reduce_scatter_exact`];
//! * [`allgatherv_into`] gathers by recursive doubling on power-of-two
//!   groups and by Bruck's algorithm otherwise, in `⌈log₂P⌉` steps on
//!   both.
//!
//! The algorithms stay callable by name (`ring::allreduce_ring`,
//! `recursive::allreduce_rabenseifner`, `bruck::allgather_bruck`, …), as
//! do binomial broadcast and the non-blocking halo exchange of the
//! paper's Fig. 3.

// Index-based loops are the clearest way to write rank/block index
// arithmetic; the clippy suggestions (iterators, is_multiple_of) obscure
// the correspondence with the paper's formulas.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]
pub mod binomial;
pub mod bruck;
pub mod chunks;
pub mod cost;
pub mod ft;
pub mod halo;
pub mod nonblocking;
pub mod op;
pub mod recursive;
pub mod ring;
mod ring_equivalence;
mod schedule;

pub use bruck::allgatherv_into;
pub use ft::{Deadline, FtConfig};
pub use nonblocking::{iallreduce, iallreduce_riding, ireduce_scatter, IallreduceHandle};
pub use op::ReduceOp;

use schedule::Schedule;

use mpsim::{Communicator, Result};

/// All-reduce under the cheapest schedule for this group, message and
/// network model (priced by [`cost::allreduce_exact`]).
///
/// # Examples
///
/// ```
/// use collectives::{allreduce, ReduceOp};
/// use mpsim::{NetModel, World};
///
/// let out = World::run(4, NetModel::free(), |comm| {
///     let mut data = vec![comm.rank() as f64 + 1.0; 8];
///     allreduce(comm, &mut data, ReduceOp::Sum).unwrap();
///     data[0]
/// });
/// assert_eq!(out, vec![10.0; 4]); // 1+2+3+4 on every rank
/// ```
pub fn allreduce(comm: &Communicator, data: &mut [f64], op: ReduceOp) -> Result<()> {
    allreduce_riding(comm, data, 0, op)
}

/// [`allreduce`] of `data` whose last `riders` words ride along: the
/// schedule is the one [`allreduce`] picks for the words before them,
/// and every block it cuts is cut from those words alone, the riders
/// travelling in the last block. Every other word keeps the reduction
/// tree, and so the bits, of an [`allreduce`] of the shorter vector.
///
/// # Panics
///
/// Panics if `riders` exceeds `data.len()`.
///
/// # Examples
///
/// ```
/// use collectives::{allreduce, allreduce_riding, ReduceOp};
/// use mpsim::{NetModel, World};
///
/// let out = World::run(3, NetModel::cori_knl(), |comm| {
///     let grad: Vec<f64> = (0..7).map(|i| (i + comm.rank()) as f64 / 3.0).collect();
///     let (mut alone, mut riding) = (grad.clone(), grad);
///     riding.push(comm.rank() as f64); // one word rides the sum
///     allreduce(comm, &mut alone, ReduceOp::Sum).unwrap();
///     allreduce_riding(comm, &mut riding, 1, ReduceOp::Sum).unwrap();
///     (riding.pop() == Some(3.0), alone == riding)
/// });
/// assert_eq!(out, vec![(true, true); 3]);
/// ```
pub fn allreduce_riding(
    comm: &Communicator,
    data: &mut [f64],
    riders: usize,
    op: ReduceOp,
) -> Result<()> {
    let n = data.len().checked_sub(riders).expect("riders fit");
    let schedule = Schedule::select(comm.size(), n as f64, &comm.model());
    schedule.reduce(comm, data, op, (1, riders), schedule.steps(comm.size()))
}

/// Reduce-scatter of `data`, rows of `row` words each: returns this
/// rank's rows `chunks::block_range(data.len() / row, P, rank)` reduced
/// over the group. It is the first half of the all-reduce [`allreduce`]
/// runs on large messages — on a power-of-two group Rabenseifner's
/// `log₂P` recursive-halving steps, the butterfly's bits in every row;
/// on any other Bruck's `⌈log₂P⌉` reduce-scatter rounds, the bits of
/// Bruck's all-reduce cut on the same rows. Priced by
/// [`cost::reduce_scatter_exact`]; counted as an all-reduce.
///
/// # Panics
///
/// Panics unless `data` is whole rows of `row` words.
///
/// # Examples
///
/// ```
/// use collectives::{reduce_scatter, ReduceOp};
/// use mpsim::{NetModel, World};
///
/// let out = World::run(2, NetModel::free(), |comm| {
///     // Three rows of two words: rank 0 keeps row 0, rank 1 rows 1-2.
///     let data = vec![comm.rank() as f64 + 1.0; 6];
///     reduce_scatter(comm, data, 2, ReduceOp::Sum).unwrap()
/// });
/// assert_eq!(out, vec![vec![3.0; 2], vec![3.0; 4]]);
/// ```
pub fn reduce_scatter(
    comm: &Communicator,
    mut data: Vec<f64>,
    row: usize,
    op: ReduceOp,
) -> Result<Vec<f64>> {
    let p = comm.size();
    let mine = chunks::row_block_range(data.len(), row, p, comm.rank());
    let (schedule, steps) = Schedule::scatter(p);
    schedule.reduce(comm, &mut data, op, (row, 0), steps)?;
    Ok(chunks::keep(data, mine))
}

/// Broadcast from `root` (binomial tree).
pub fn bcast(comm: &Communicator, data: &mut Vec<f64>, root: usize) -> Result<()> {
    binomial::bcast_binomial(comm, data, root)
}
