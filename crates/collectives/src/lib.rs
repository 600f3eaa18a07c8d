//! # collectives — collective communication over `mpsim`
//!
//! The paper's cost analysis (its §2.2) assumes specific collective
//! algorithms, citing Thakur, Rabenseifner & Gropp (IJHPCA 2005):
//!
//! * **ring all-reduce** for gradient sums (`∆W`, `∆X`) — bandwidth
//!   `2·n·(P−1)/P`, and
//! * **Bruck all-gather** for activation assembly in the model-parallel
//!   dimension — latency `⌈log₂ P⌉·α`, bandwidth `n·(P−1)/P`.
//!
//! This crate implements those algorithms (plus recursive doubling,
//! Rabenseifner all-reduce, binomial broadcast, and the
//! non-blocking halo exchange of the paper's Fig. 3) so they can be
//! *executed* on the `mpsim` virtual machine, and provides the matching
//! closed-form [`cost::CostTerms`] so tests can assert that execution
//! time equals the formula.
//!
//! The default entry points [`allreduce`] and [`allgather`] use the
//! algorithms the paper assumes (ring and Bruck respectively).

// Index-based loops are the clearest way to write rank/block index
// arithmetic; the clippy suggestions (iterators, is_multiple_of) obscure
// the correspondence with the paper's formulas.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]
pub mod alltoall;
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

pub use ft::{Deadline, FtConfig};
pub use nonblocking::{iallreduce, IallreduceHandle};
pub use op::ReduceOp;

use mpsim::{Communicator, Result};

/// All-reduce with the paper's assumed algorithm (ring).
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
    ring::allreduce_ring(comm, data, op)
}

/// All-gather with the paper's assumed algorithm (Bruck). `mine` is this
/// rank's block; the returned vector concatenates all ranks' blocks in
/// rank order. All ranks must pass equal-length blocks.
pub fn allgather(comm: &Communicator, mine: &[f64]) -> Result<Vec<f64>> {
    bruck::allgather_bruck(comm, mine)
}

/// Broadcast from `root` (binomial tree).
pub fn bcast(comm: &Communicator, data: &mut Vec<f64>, root: usize) -> Result<()> {
    binomial::bcast_binomial(comm, data, root)
}
