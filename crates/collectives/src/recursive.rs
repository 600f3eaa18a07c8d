//! The power-of-two all-reduces: Rabenseifner's recursive halving and
//! recursive doubling — the `⌈log₂P⌉`-latency schedules the paper's
//! Eqs. 4, 8 and 9 price. [`crate::allreduce`] picks between them by
//! cost ([`crate::cost::allreduce_exact`]) on a power-of-two group.
//!
//! Rank `r`'s partner at distance `d` is `r ^ d`, and the blocks the
//! `d` ranks of its aligned subcube hold are the block indices
//! `window(r, d)`. Every pairwise reduction puts the lower rank's
//! operand on the left, so both partners form the same bits.

use std::ops::Range;

use mpsim::{Communicator, Rank, Result};

use crate::chunks::starts;
use crate::op::ReduceOp;
use crate::schedule::{At, Peers, Schedule};

/// Whether `p` is a power of two (and nonzero).
pub fn is_pow2(p: usize) -> bool {
    p != 0 && p & (p - 1) == 0
}

/// The `d` block indices (`d` a power of two) of rank `r`'s aligned
/// subcube of `d` ranks.
pub(crate) fn window(r: Rank, d: usize) -> Range<usize> {
    let lo = r & !(d - 1);
    lo..lo + d
}

/// `buf`'s allocation holding a copy of `from`.
fn refill(mut buf: Vec<f64>, from: &[f64]) -> Vec<f64> {
    buf.clear();
    buf.extend_from_slice(from);
    buf
}

/// `mine ← op(lower, higher)` over this rank's and its partner's copies.
fn fold(op: ReduceOp, i_am_lower: bool, mine: &mut [f64], theirs: &[f64]) {
    if i_am_lower {
        op.apply(mine, theirs);
    } else {
        op.apply_onto(theirs, mine);
    }
}

/// One step of Rabenseifner's all-reduce. Steps `0..log₂P` halve: rank
/// `r` keeps the half of its window that holds block `r`, sends the
/// other half to `r ^ d` and folds in the partner's copy of the half it
/// keeps, so after them it owns block `r` reduced — they are the
/// reduce-scatter [`crate::reduce_scatter`] stops after. Steps
/// `log₂P..2·log₂P` double: the partners swap their reduced windows.
/// Blocks are cut on whole rows of `row` words, so block `r` is rows
/// `chunks::block_range(n / row, P, r)`; an all-reduce passes `row = 1`.
/// The last `riders` words ride in block `P − 1` ([`starts`]).
/// Each element's reduction tree is the butterfly's whatever the cut.
/// `carry` is a spare buffer (the last one received) for the outgoing
/// half.
pub(crate) fn halving_step(
    data: &mut [f64],
    op: ReduceOp,
    (p, r, (row, riders)): At,
    step: usize,
    carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let log = p.trailing_zeros() as usize;
    // The elements of consecutive blocks.
    let at = starts(data.len(), riders, row, p);
    let span = |blocks: Range<usize>| at(blocks.start)..at(blocks.end);
    if step < log {
        let d = p >> (step + 1);
        let partner = r ^ d;
        let out = refill(carry, &data[span(window(partner, d))]);
        let got = exchange((partner, partner), out)?;
        fold(op, r < partner, &mut data[span(window(r, d))], &got);
        Ok(got)
    } else {
        let d = 1 << (step - log);
        let partner = r ^ d;
        let out = refill(carry, &data[span(window(r, d))]);
        let got = exchange((partner, partner), out)?;
        data[span(window(partner, d))].copy_from_slice(&got);
        Ok(got)
    }
}

/// One step of the recursive-doubling all-reduce: swap the whole vector
/// with `r ^ P/2^(step+1)` and fold. The partners are Halving's, in
/// Halving's order, so every word is summed by the one butterfly
/// whichever of the two schedules runs. `carry` is a spare buffer.
pub(crate) fn doubling_step(
    data: &mut [f64],
    op: ReduceOp,
    (p, r, _): At,
    step: usize,
    carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let partner = r ^ (p >> (step + 1));
    let got = exchange((partner, partner), refill(carry, data))?;
    fold(op, r < partner, data, &got);
    Ok(got)
}

/// Recursive-doubling all-reduce. Cost: `log₂P·(α + n·β)`.
///
/// # Panics
///
/// Panics unless the communicator size is a power of two.
pub fn allreduce_recursive_doubling(
    comm: &Communicator,
    data: &mut [f64],
    op: ReduceOp,
) -> Result<()> {
    Schedule::Doubling.allreduce(comm, data, op)
}

/// Rabenseifner all-reduce: recursive-halving reduce-scatter followed by
/// recursive-doubling all-gather. Cost:
/// `2·log₂(P)·α + 2·((P−1)/P)·n·β` — the ring's bandwidth with
/// logarithmic latency, for any `n`.
///
/// # Panics
///
/// Panics unless the communicator size is a power of two.
pub fn allreduce_rabenseifner(comm: &Communicator, data: &mut [f64], op: ReduceOp) -> Result<()> {
    Schedule::Halving.allreduce(comm, data, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};

    fn contribution(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (rank + 1) as f64 * (i + 1) as f64).collect()
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        let total: f64 = (1..=p).map(|r| r as f64).sum();
        (0..n).map(|i| total * (i + 1) as f64).collect()
    }

    #[test]
    fn recursive_doubling_sums() {
        for p in [1, 2, 4, 8, 16] {
            let n = 16;
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn recursive_doubling_time_matches_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let n = 1000;
        let out = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
            comm.now()
        });
        let log = (p as f64).log2();
        let expect = log * (model.alpha + n as f64 * model.beta);
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn rabenseifner_sums() {
        for p in [1, 2, 4, 8] {
            let n = 32;
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_rabenseifner(comm, &mut data, ReduceOp::Sum).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn rabenseifner_time_matches_formula() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 8;
        let n = 800;
        let out = World::run(p, model, |comm| {
            let mut data = vec![1.0; n];
            allreduce_rabenseifner(comm, &mut data, ReduceOp::Sum).unwrap();
            comm.now()
        });
        let log = (p as f64).log2();
        let expect =
            2.0 * log * model.alpha + 2.0 * ((p as f64 - 1.0) / p as f64) * n as f64 * model.beta;
        for &t in &out {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }

    #[test]
    fn rabenseifner_splits_any_length() {
        for (p, n) in [(4, 0), (4, 3), (8, 13), (16, 1000)] {
            let out = World::run(p, NetModel::free(), |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce_rabenseifner(comm, &mut data, ReduceOp::Sum).unwrap();
                data
            });
            for r in 0..p {
                assert_eq!(out[r], expected_sum(p, n), "p={p} n={n} rank={r}");
            }
        }
    }

    // The event backend re-throws the rank's original panic payload
    // (the threaded oracle wraps it in "rank thread panicked").
    #[test]
    #[should_panic(expected = "requires power-of-two ranks")]
    fn recursive_doubling_rejects_non_pow2() {
        let _ = World::run(3, NetModel::free(), |comm| {
            let mut data = vec![1.0; 3];
            allreduce_recursive_doubling(comm, &mut data, ReduceOp::Sum).unwrap();
        });
    }
}
