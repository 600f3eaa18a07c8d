//! Ring collectives: all-gather, reduce-scatter, and the ring all-reduce
//! (reduce-scatter + all-gather). [`crate::allreduce`] never runs the
//! ring: Bruck's rounds move its words in `⌈log₂P⌉` steps where it
//! takes `P−1`.
//!
//! Cost with `P` ranks and `n` words (n divisible by `P`):
//!
//! * reduce-scatter: `(P−1)·α + ((P−1)/P)·n·β`
//! * all-gather:     `(P−1)·α + ((P−1)/P)·n·β`
//! * all-reduce:     `2(P−1)·α + 2((P−1)/P)·n·β`

//! ## One copy per step
//!
//! The block a rank receives at step *s* is the block it sends at step
//! *s + 1*, so every ring here is *move-through*: the received buffer
//! is reduced into (or copied out of) once and then forwarded by move.
//! A rank allocates one buffer per collective — its first outgoing
//! block — instead of one per step, and no step both copies the
//! outgoing block and copies the incoming one. `allreduce_step` and
//! `gather_steps` are the only step bodies; the blocking schedule loop
//! and the non-blocking handles ([`crate::nonblocking`]) run
//! `allreduce_step`.
//! How a receive treats a fault is the communicator's business
//! ([`mpsim::Communicator::guarded`]), not the ring's.

use std::ops::Range;

use mpsim::{Communicator, Error, Rank, Result, Tag};

use crate::chunks::starts;
use crate::op::ReduceOp;
use crate::schedule::{At, Peers, Schedule};

const AG_TAG: Tag = (1 << 48) + 17;

/// Rank `r`'s ring neighbours `(next, previous)`: where every ring step
/// sends and where it receives from.
fn neighbours(p: usize, r: Rank) -> (Rank, Rank) {
    ((r + 1) % p, (r + p - 1) % p)
}

/// One step of the ring all-reduce schedule on `data` as seen by rank
/// `r` of `p`: steps `0..P−1` are the reduce-scatter, `P−1..2(P−1)` the
/// all-gather. `carry` is the block in flight — whatever the previous
/// step returned; step 0 sends a copy of this rank's block `r` — and
/// `exchange` must send it to the next rank and return the block
/// received from the previous one.
///
/// Reduce-scatter steps fold `data ⊕ incoming` **into the received
/// buffer** (operand order as [`ReduceOp::apply`] on `data` would have
/// it, so Sum/Max/Min bits are those of the accumulate-in-place ring);
/// `data` itself is only written when a block is final: the owned
/// block `(r+1) mod P` at the last reduce-scatter step, every other
/// block as the gather delivers it.
pub(crate) fn allreduce_step(
    data: &mut [f64],
    op: ReduceOp,
    (p, r, (_, riders)): At,
    step: usize,
    carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let n = data.len();
    let start = starts(n, riders, 1, p);
    let block = |i| start(i)..start(i + 1);
    let out = match step {
        0 => data[block(r)].to_vec(),
        _ => carry,
    };
    let (next, prev) = neighbours(p, r);
    let mut got = exchange((next, prev), out)?;
    if step < p - 1 {
        let mine = &mut data[block((r + p - step - 1) % p)];
        op.apply_onto(mine, &mut got);
        if step == p - 2 {
            mine.copy_from_slice(&got);
        }
    } else {
        let s = step - (p - 1);
        data[block((r + p - s) % p)].copy_from_slice(&got);
    }
    Ok(got)
}

/// Ring all-reduce (reduce-scatter then all-gather) on any group. Its
/// `2(P−1)` α-steps are what the paper's Eqs. 4, 7, 8 and 9 write as
/// `2⌈log₂P⌉` (see [`crate::cost::rabenseifner_allreduce`]).
pub fn allreduce_ring(comm: &Communicator, data: &mut [f64], op: ReduceOp) -> Result<()> {
    Schedule::Ring.allreduce(comm, data, op)
}

/// The `P−1` steps of a ring all-gather: `carry` starts as this rank's
/// own block and is forwarded by move; each received block is handed
/// to `place(source_rank, block)` — the one copy of the step — before
/// it travels on.
fn gather_steps(
    comm: &Communicator,
    mut carry: Vec<f64>,
    mut place: impl FnMut(usize, &[f64]) -> Result<()>,
) -> Result<()> {
    let (p, r) = (comm.size(), comm.rank());
    let (next, prev) = neighbours(p, r);
    for step in 0..p - 1 {
        comm.send_vec(next, AG_TAG, carry)?;
        carry = comm.recv(prev, AG_TAG)?;
        place((r + p - step - 1) % p, &carry)?;
    }
    Ok(())
}

/// Copies a gathered `block` into its slot `out[range]`, or reports the
/// length the sender got wrong.
pub(crate) fn place_block(out: &mut [f64], range: Range<usize>, block: &[f64]) -> Result<()> {
    if block.len() != range.len() {
        return Err(Error::LengthMismatch {
            expected: range.len(),
            got: block.len(),
        });
    }
    out[range].copy_from_slice(block);
    Ok(())
}

/// Ring all-gather of equal-size per-rank blocks (`mine` from each rank,
/// concatenated in rank order in the result).
pub fn allgather_ring(comm: &Communicator, mine: &[f64]) -> Result<Vec<f64>> {
    comm.record_allgather();
    let p = comm.size();
    let r = comm.rank();
    let m = mine.len();
    let mut out = vec![0.0; m * p];
    out[r * m..(r + 1) * m].copy_from_slice(mine);
    if p == 1 {
        return Ok(out);
    }
    let _span = comm.trace_span(
        "collective",
        "allgather_ring",
        &[("p", p as f64), ("words", (m * p) as f64)],
    );
    gather_steps(comm, mine.to_vec(), |src, block| {
        place_block(&mut out, src * m..(src + 1) * m, block)
    })?;
    Ok(out)
}

/// Ring all-gather of *variable-length* per-rank blocks: returns one
/// vector per rank, indexed by rank. Same cost structure as
/// [`allgather_ring`], with the bandwidth term determined by the total
/// length.
pub fn allgatherv_ring(comm: &Communicator, mine: &[f64]) -> Result<Vec<Vec<f64>>> {
    comm.record_allgather();
    let p = comm.size();
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
    out[comm.rank()] = mine.to_vec();
    if p == 1 {
        return Ok(out);
    }
    let _span = comm.trace_span(
        "collective",
        "allgatherv_ring",
        &[("p", p as f64), ("words", mine.len() as f64)],
    );
    gather_steps(comm, mine.to_vec(), |src, block| {
        out[src] = block.to_vec();
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        // Rank r contributes value (r+1) at every position scaled by index.
        let total: f64 = (1..=p).map(|r| r as f64).sum();
        (0..n).map(|i| total * (i + 1) as f64).collect()
    }

    fn contribution(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (rank + 1) as f64 * (i + 1) as f64).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1, 2, 3, 4, 5, 8] {
            let n = 24;
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = World::run(4, NetModel::free(), |comm| {
            let mut data = vec![comm.rank() as f64; 8];
            allreduce_ring(comm, &mut data, ReduceOp::Max).unwrap();
            data
        });
        for r in 0..4 {
            assert_eq!(out[r], vec![3.0; 8]);
        }
    }

    #[test]
    fn allreduce_handles_len_not_divisible_by_p() {
        let p = 4;
        let n = 10; // not divisible by 4
        let out = World::run(p, NetModel::free(), |comm| {
            let mut data = contribution(comm.rank(), n);
            allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
            data
        });
        for r in 0..p {
            assert_eq!(out[r], expected_sum(p, n));
        }
    }

    #[test]
    fn allreduce_time_matches_thakur_ring_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let n = 8 * 125; // divisible by p
        let out = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
            comm.now()
        });
        let expect = 2.0 * (p as f64 - 1.0) * model.alpha
            + 2.0 * ((p as f64 - 1.0) / p as f64) * n as f64 * model.beta;
        for (r, &t) in out.iter().enumerate() {
            assert!((t - expect).abs() < 1e-12, "rank {r}: {t} vs {expect}");
        }
    }

    #[test]
    fn allgather_ring_concatenates_in_rank_order() {
        let p = 5;
        let m = 3;
        let out = World::run(p, NetModel::free(), |comm| {
            let mine: Vec<f64> = (0..m).map(|i| (comm.rank() * 10 + i) as f64).collect();
            allgather_ring(comm, &mine).unwrap()
        });
        let expected: Vec<f64> = (0..p)
            .flat_map(|r| (0..m).map(move |i| (r * 10 + i) as f64))
            .collect();
        for r in 0..p {
            assert_eq!(out[r], expected);
        }
    }

    #[test]
    fn allgather_ring_time_matches_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 6;
        let m = 100;
        let out = World::run(p, model, |comm| {
            let mine = vec![1.0; m];
            allgather_ring(comm, &mine).unwrap();
            comm.now()
        });
        let n_total = (p * m) as f64;
        let expect =
            (p as f64 - 1.0) * model.alpha + ((p as f64 - 1.0) / p as f64) * n_total * model.beta;
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn allgatherv_handles_uneven_blocks() {
        let p = 4;
        let out = World::run(p, NetModel::free(), |comm| {
            // Rank r contributes r+1 elements, each equal to its rank.
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            allgatherv_ring(comm, &mine).unwrap()
        });
        for r in 0..p {
            for (src, block) in out[r].iter().enumerate() {
                assert_eq!(block, &vec![src as f64; src + 1], "rank {r} block {src}");
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let out = World::run(1, NetModel::cori_knl(), |comm| {
            let mut data = vec![3.0, 4.0];
            allreduce_ring(comm, &mut data, ReduceOp::Sum).unwrap();
            (data, comm.now())
        });
        assert_eq!(out[0].0, vec![3.0, 4.0]);
        assert_eq!(out[0].1, 0.0, "no communication for P=1");
    }
}
