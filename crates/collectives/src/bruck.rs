//! Bruck's rounds on any group: the all-gather in `⌈log₂P⌉` rounds —
//! the latency the paper's Eqs. 3, 8 and 9 price for assembling
//! activations across the model-parallel dimension — and, on groups
//! that are not a power of two, the two all-reduces built from them.
//!
//! [`allgatherv_into`] gathers blocks of any lengths, empty ones
//! included, straight into their slots of one output buffer:
//!
//! * on a power-of-two group by recursive doubling: at distance
//!   `d = 1, 2, 4, …` rank `r` swaps with `r ^ d` every block its
//!   aligned subcube of `d` ranks holds;
//! * on any other group by Bruck's: at distance `d` rank `r` sends the
//!   `min(d, P−d)` blocks from its own onwards to `r − d` and receives
//!   as many from `r + d` (block and rank indices mod `P`).
//!
//! Either way a rank receives the `P−1` blocks it lacks in `⌈log₂P⌉`
//! steps, so with equal blocks the gather costs
//! `⌈log₂P⌉·α + (P−1)/P·n·β` ([`crate::cost::bruck_allgather`]) where
//! the ring pays `(P−1)·α`. Each received buffer is checked against the
//! lengths `range_of` gives, copied into place, and refilled with the
//! next round's blocks, so a gather allocates nothing past the caller's
//! own block.
//!
//! Two step bodies run the all-reduces [`crate::allreduce`] picks on a
//! group that is not a power of two:
//!
//! * `bruck_step`, the schedule `Bruck`: Bruck's rounds backwards, from
//!   the farthest, as a reduce-scatter — at distance `d` rank `r` sends
//!   its partials of the blocks from `r + d` onwards to `r + d` and
//!   reduces the ones `r − d` sends into its own from block `r` onwards,
//!   so that it ends holding block `r` reduced — then the gather of
//!   those blocks: each half `⌈log₂P⌉·α + (P−1)/P·n·β`;
//! * `gather_sum_step`, the schedule `Gather`: the gather of whole
//!   vectors, `⌈log₂P⌉·α + (P−1)·n·β`, after which each rank reduces
//!   them as the reduce-scatter would have, block by block,
//!   so the two leave the same bits.

use std::iter::once;
use std::ops::Range;

use mpsim::{Communicator, Error, Rank, Result, Tag};

use crate::chunks::starts;
use crate::op::ReduceOp;
use crate::recursive::{is_pow2, window};
use crate::ring::place_block;
use crate::schedule::{At, Peers};

const AG_TAG: Tag = (1 << 48) + 50;

/// What one round moves, block indices mod `P`: `(to, from)`, the first
/// block sent, the first received, and how many blocks each way.
type Round = ((Rank, Rank), usize, usize, usize);

/// `⌈log₂p⌉`: the rounds of a gather on `p` ranks.
pub(crate) fn rounds(p: usize) -> usize {
    p.next_power_of_two().trailing_zeros() as usize
}

/// All-gather of variable-length blocks **into place**: rank `i`'s block
/// lands in `out[range_of(i)]`, one copy each, with no intermediate
/// vectors. `mine` is this rank's block, taken by value because it is
/// the first buffer sent. Recursive doubling on a power-of-two group,
/// Bruck's on any other (see the [module docs](self)).
pub fn allgatherv_into(
    comm: &Communicator,
    mine: Vec<f64>,
    out: &mut [f64],
    range_of: impl Fn(usize) -> Range<usize>,
) -> Result<()> {
    let bruck = !is_pow2(comm.size());
    gather_into(comm, mine, out, range_of, bruck)
}

/// Bruck all-gather of equal-length per-rank blocks on any group size.
/// Returns all blocks concatenated in rank order. All ranks must pass
/// the same `mine.len()`.
pub fn allgather_bruck(comm: &Communicator, mine: &[f64]) -> Result<Vec<f64>> {
    let m = mine.len();
    let mut out = vec![0.0; comm.size() * m];
    gather_into(comm, mine.to_vec(), &mut out, |i| i * m..(i + 1) * m, true)?;
    Ok(out)
}

/// Bruck's gather round at distance `d` as rank `r` of `p` sees it.
fn bruck_gather(p: usize, r: Rank, d: usize) -> Round {
    (((r + p - d) % p, (r + d) % p), r, r + d, d.min(p - d))
}

/// The gather's `⌈log₂P⌉` rounds, Bruck's or recursive doubling's.
fn gather_into(
    comm: &Communicator,
    mine: Vec<f64>,
    out: &mut [f64],
    range_of: impl Fn(usize) -> Range<usize>,
    bruck: bool,
) -> Result<()> {
    let (p, r) = (comm.size(), comm.rank());
    comm.record_allgather();
    place_block(out, range_of(r), &mine)?;
    if p == 1 {
        return Ok(());
    }
    let name = if bruck {
        "allgatherv_bruck"
    } else {
        "allgatherv_doubling"
    };
    let _span = comm.trace_span(
        "collective",
        name,
        &[("p", p as f64), ("words", mine.len() as f64)],
    );
    let mut carry = mine;
    for k in 0..rounds(p) {
        let d = 1 << k;
        let moves = if bruck {
            bruck_gather(p, r, d)
        } else {
            let partner = r ^ d;
            let first = |rank| window(rank, d).start;
            ((partner, partner), first(r), first(partner), d)
        };
        carry = round(out, &range_of, p, moves, None, carry, |(to, from), msg| {
            comm.send_vec(to.expect("every round sends"), AG_TAG, msg)?;
            comm.recv(from.expect("every round receives"), AG_TAG)
        })?;
    }
    Ok(())
}

/// One round over `data`'s blocks, block `b` the words `slot(b)`: sends
/// the round's blocks ([`Round`]) and copies in the ones it receives,
/// or, given `op`, reduces them into its own, its own on the left. A
/// received buffer of the wrong length is an error. `carry` is a spare
/// buffer (the last one received) for the outgoing blocks.
fn round(
    data: &mut [f64],
    slot: impl Fn(usize) -> Range<usize>,
    p: usize,
    ((to, from), send, recv, count): Round,
    op: Option<ReduceOp>,
    mut carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let blocks = |first: usize| (first..first + count).map(|b| slot(b % p));
    carry.clear();
    for s in blocks(send) {
        carry.extend_from_slice(&data[s]);
    }
    let got = exchange((Some(to), Some(from)), carry)?;
    let expected = blocks(recv).map(|s| s.len()).sum();
    if got.len() != expected {
        return Err(Error::LengthMismatch {
            expected,
            got: got.len(),
        });
    }
    let mut at = 0;
    for s in blocks(recv) {
        let theirs = &got[at..at + s.len()];
        at += s.len();
        match op {
            Some(op) => op.apply(&mut data[s], theirs),
            None => data[s].copy_from_slice(theirs),
        }
    }
    Ok(got)
}

/// One step of [`crate::schedule::Schedule::Bruck`] as rank `r` of `p`
/// sees it: steps `0..⌈log₂P⌉` are the reduce-scatter — Bruck's gather
/// rounds run backwards, from distance `2^(⌈log₂P⌉−1)` down to 1 — after
/// which rank `r` holds block `r` reduced, and the rest the gather of
/// those blocks. Blocks are cut as Halving cuts them ([`starts`]): on
/// whole rows of `row` words, the last `riders` words riding in block
/// `P − 1`. `carry` is a spare buffer.
pub(crate) fn bruck_step(
    data: &mut [f64],
    op: ReduceOp,
    (p, r, (row, riders)): At,
    step: usize,
    carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let at = starts(data.len(), riders, row, p);
    let slot = |b| at(b)..at(b + 1);
    let log = rounds(p);
    let (moves, op) = match step.checked_sub(log) {
        Some(k) => (bruck_gather(p, r, 1 << k), None),
        None => {
            // The gather's round at this distance, every block the other way.
            let ((to, from), send, recv, count) = bruck_gather(p, r, 1 << (log - 1 - step));
            (((from, to), recv, send, count), Some(op))
        }
    };
    round(data, slot, p, moves, op, carry, exchange)
}

/// One step of [`crate::schedule::Schedule::Gather`] as rank `r` of `p`
/// sees it: Bruck's gather round `step` of whole vectors. Rank `r`
/// holds its own vector in `data` and the ones gathered so far in
/// `carry`, in rank order from `r + 1` on (mod `P`): Bruck's rounds
/// deliver them in that order, each round sending a prefix of what the
/// rank holds. After the last round every rank reduces them locally in
/// the order the reduce-scatter of [`bruck_step`] does, block by block,
/// each block cut as it cuts them, so `data` ends with that all-reduce's
/// bits. A received buffer of the wrong length is an error.
pub(crate) fn gather_sum_step(
    data: &mut [f64],
    op: ReduceOp,
    (p, r, (row, riders)): At,
    step: usize,
    mut carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let n = data.len();
    let ((to, from), _, _, count) = bruck_gather(p, r, 1 << step);
    let mut out = Vec::with_capacity(count * n);
    out.extend_from_slice(data);
    out.extend_from_slice(&carry[..(count - 1) * n]);
    let mut got = exchange((Some(to), Some(from)), out)?;
    if got.len() != count * n {
        return Err(Error::LengthMismatch {
            expected: count * n,
            got: got.len(),
        });
    }
    if step + 1 < rounds(p) || n == 0 {
        carry.extend_from_slice(&got);
        return Ok(carry);
    }
    // `held[i]` is rank `r + i`'s partial. The reduce-scatter's round at
    // distance `d` reduces rank `r + i − d`'s partials of blocks
    // `r + i..r + i + min(d, P − d)` into rank `r + i`'s; then each
    // block `b` is rank `b`'s. A rank's slice is taken out of `held`
    // while it is written.
    let gathered = carry.chunks_mut(n).chain(got.chunks_mut(n));
    let mut held: Vec<_> = once(data).chain(gathered).collect();
    let at = starts(n, riders, row, p);
    let slot = |b: usize| at(b % p)..at(b % p + 1);
    for k in (0..rounds(p)).rev() {
        let d = 1 << k;
        for i in 0..p {
            let mine = std::mem::take(&mut held[i]);
            for b in r + i..r + i + d.min(p - d) {
                op.apply(&mut mine[slot(b)], &held[(i + p - d) % p][slot(b)]);
            }
            held[i] = mine;
        }
    }
    let own = std::mem::take(&mut held[0]);
    for (i, theirs) in held.iter().enumerate().skip(1) {
        own[slot(r + i)].copy_from_slice(&theirs[slot(r + i)]);
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::bruck_allgather;
    use crate::ring::{allgather_ring, allgatherv_ring};
    use mpsim::{NetModel, World};
    use proptest::prelude::*;

    const MODEL: NetModel = NetModel {
        alpha: 1e-3,
        beta: 1e-6,
        flops: f64::INFINITY,
    };

    fn rank_block(rank: usize, m: usize) -> Vec<f64> {
        (0..m).map(|i| (rank * 100 + i) as f64).collect()
    }

    #[test]
    fn gathers_in_rank_order_various_p() {
        for p in [1, 2, 3, 4, 5, 7, 8, 12] {
            let m = 4;
            let out = World::run(p, NetModel::free(), |comm| {
                allgather_bruck(comm, &rank_block(comm.rank(), m)).unwrap()
            });
            let expected: Vec<f64> = (0..p).flat_map(|r| rank_block(r, m)).collect();
            for r in 0..p {
                assert_eq!(out[r], expected, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn time_matches_bruck_formula_for_any_p() {
        for (p, m) in [(8, 50), (6, 60)] {
            let out = World::run(p, MODEL, |comm| {
                allgather_bruck(comm, &vec![1.0; m]).unwrap();
                comm.now()
            });
            let expect = bruck_allgather(p, (p * m) as f64).seconds(&MODEL);
            for &t in &out {
                assert!((t - expect).abs() < 1e-12, "p={p}: {t} vs {expect}");
            }
        }
    }

    #[test]
    fn bruck_has_lower_latency_than_ring() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let p = 16;
        let bruck = World::run(p, model, |comm| {
            allgather_bruck(comm, &[1.0]).unwrap();
            comm.now()
        });
        let ring = World::run(p, model, |comm| {
            allgather_ring(comm, &[1.0]).unwrap();
            comm.now()
        });
        assert!((bruck[0] - 4.0).abs() < 1e-12, "log2(16) rounds");
        assert!((ring[0] - 15.0).abs() < 1e-12, "P-1 rounds");
    }

    /// Equal, ragged, partly empty and all-empty blocks land where the
    /// ring puts them, bit for bit; with equal blocks the gather costs
    /// Eq. 3's `⌈log₂P⌉·α + (P−1)/P·n·β` on every group size.
    #[test]
    fn allgatherv_into_matches_the_ring_in_log_p_steps() {
        let lens: [fn(usize) -> usize; 4] = [|_| 3, |r| 3 + r, |r| (r % 3) * 2, |_| 0];
        for p in [1, 2, 3, 4, 5, 6, 7, 8, 12, 16] {
            for (shape, len) in lens.iter().enumerate() {
                let offset = |r: usize| (0..r).map(len).sum::<usize>();
                let block =
                    |r: usize| (0..len(r)).map(move |i| ((r * 37 + i) as f64 * 0.173).sin());
                let out = World::run(p, MODEL, |comm| {
                    let mut flat = vec![f64::NAN; offset(p)];
                    let mine = block(comm.rank()).collect();
                    allgatherv_into(comm, mine, &mut flat, |i| offset(i)..offset(i + 1)).unwrap();
                    (flat, comm.now())
                });
                let ring = World::run(p, MODEL, |comm| {
                    let blocks = allgatherv_ring(comm, &block(comm.rank()).collect::<Vec<_>>());
                    blocks.unwrap().concat()
                });
                let eq3 = bruck_allgather(p, offset(p) as f64).seconds(&MODEL);
                for ((flat, t), want) in out.iter().zip(&ring) {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(flat), bits(want), "p={p} shape={shape}");
                    if shape == 0 {
                        assert!((t - eq3).abs() < 1e-12, "p={p}: {t} vs {eq3}");
                    }
                }
            }
        }
    }

    /// A block one word longer than its peers' is an error on the ranks
    /// that receive it, not a panic or a misplaced block.
    #[test]
    fn a_block_of_the_wrong_length_is_a_length_mismatch() {
        let out = World::run(3, NetModel::free(), |comm| {
            let m = 3 + (comm.rank() == 1) as usize;
            allgather_bruck(comm, &rank_block(comm.rank(), m))
        });
        for (r, got) in out.iter().enumerate().take(2) {
            assert!(
                matches!(got, Err(Error::LengthMismatch { .. })),
                "rank {r}: {got:?}"
            );
        }
        assert!(out[2].is_err(), "{:?}", out[2]);
    }

    /// So is a vector one word longer than its peers' under either
    /// all-reduce built on these rounds: a rank that receives it fails
    /// with the mismatch, and the rest fail with it.
    #[test]
    fn a_vector_of_the_wrong_length_fails_both_all_reduces() {
        use crate::schedule::Schedule::{Bruck, Gather};
        for s in [Bruck, Gather] {
            let out = World::run(3, NetModel::free(), |comm| {
                let mut v = rank_block(comm.rank(), 6 + (comm.rank() == 1) as usize);
                s.allreduce(comm, &mut v, ReduceOp::Sum)
            });
            let short = |r: &Result<()>| matches!(r, Err(Error::LengthMismatch { .. }));
            assert!(out.iter().any(short), "{s:?}: {out:?}");
            assert!(out.iter().all(|r| r.is_err()), "{s:?}: {out:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn agrees_with_ring_allgather(p in 1usize..10, m in 1usize..20) {
            let a = World::run(p, NetModel::free(), move |comm| {
                allgather_bruck(comm, &rank_block(comm.rank(), m)).unwrap()
            });
            let b = World::run(p, NetModel::free(), move |comm| {
                allgather_ring(comm, &rank_block(comm.rank(), m)).unwrap()
            });
            prop_assert_eq!(a, b);
        }
    }
}
