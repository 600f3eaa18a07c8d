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
//! * [`allreduce`] and [`iallreduce`] run the cheapest of the ring,
//!   Rabenseifner's recursive halving and recursive doubling for the
//!   group size, the message length and the network model, priced by
//!   [`cost::allreduce_exact`]; a group whose size is not a power of two
//!   folds its extra ranks onto a power-of-two core that runs halving or
//!   doubling, for two more α-steps, unless the ring is cheaper;
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
pub use nonblocking::{iallreduce, IallreduceHandle};
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
    Schedule::select(comm.size(), data.len() as f64, &comm.model()).allreduce(comm, data, op)
}

/// Broadcast from `root` (binomial tree).
pub fn bcast(comm: &Communicator, data: &mut Vec<f64>, root: usize) -> Result<()> {
    binomial::bcast_binomial(comm, data, root)
}
