//! The all-gather in `⌈log₂P⌉` rounds on any group — the latency the
//! paper's Eqs. 3, 8 and 9 price for assembling activations across the
//! model-parallel dimension.
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

use std::ops::Range;

use mpsim::{Communicator, Error, Result, Tag};

use crate::recursive::{is_pow2, window};
use crate::ring::place_block;

const AG_TAG: Tag = (1 << 48) + 50;

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
    // `out`'s slots of the `count` blocks from block `first` on.
    let blocks = |first: usize, count: usize| (first..first + count).map(|i| range_of(i % p));
    let mut carry = mine;
    for k in 0..p.next_power_of_two().trailing_zeros() {
        let d = 1 << k;
        // Where this round sends and receives from, the first block of
        // each direction, and how many blocks each way.
        let ((to, from), send, recv, count) = if bruck {
            (((r + p - d) % p, (r + d) % p), r, r + d, d.min(p - d))
        } else {
            let partner = r ^ d;
            let first = |rank| window(rank, d).start;
            ((partner, partner), first(r), first(partner), d)
        };
        if k > 0 {
            carry.clear();
            for slot in blocks(send, count) {
                carry.extend_from_slice(&out[slot]);
            }
        }
        comm.send_vec(to, AG_TAG, carry)?;
        let got = comm.recv(from, AG_TAG)?;
        let expected = blocks(recv, count).map(|slot| slot.len()).sum();
        if got.len() != expected {
            return Err(Error::LengthMismatch {
                expected,
                got: got.len(),
            });
        }
        let mut at = 0;
        for slot in blocks(recv, count) {
            let len = slot.len();
            out[slot].copy_from_slice(&got[at..at + len]);
            at += len;
        }
        carry = got;
    }
    Ok(())
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
