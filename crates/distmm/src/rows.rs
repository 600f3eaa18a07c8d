//! Row-range redistribution for height-partitioned NCHW tensors.
//!
//! Domain parallelism with *stride-preserving* layers (same-pad convs)
//! only ever needs fixed-width halos, but strided convolutions and
//! overlapping pooling change the height and misalign the strips: the
//! rows a rank needs for its output block are an arbitrary window of
//! the input partition. These two primitives implement that generally:
//!
//! * [`fetch_rows`] — every rank obtains an arbitrary global row range
//!   assembled from the owners (the forward-pass gather), and
//! * [`scatter_add_rows`] — every rank scatter-adds a produced row
//!   range back onto the owners (the backward-pass adjoint).
//!
//! Both are deterministic SPMD exchanges: each rank computes, from the
//! shared partition table, exactly which row slices it must send to
//! whom, so no request round-trip is needed. Communication is
//! pair-wise and proportional to the overlap volume — for halo-sized
//! overlaps this degenerates to the paper's Eq. 7 boundary exchange.

use std::ops::Range;

use mpsim::{Communicator, Result, Tag};
use tensor::conv::Tensor4;

use crate::dist::intersect;

const FETCH_TAG: Tag = (1 << 48) + 112;
const SCATTER_TAG: Tag = (1 << 48) + 113;

/// Extracts the global rows `global` from `strip` (which covers rows
/// `owned`).
fn rows_of(strip: &Tensor4, owned: &Range<usize>, global: &Range<usize>) -> Tensor4 {
    debug_assert!(global.start >= owned.start && global.end <= owned.end);
    strip.row_strip(global.start - owned.start, global.end - owned.start)
}

/// Gathers the global row range `needed[me]` of a height-partitioned
/// tensor. `strip` holds this rank's rows `owned[rank]`; `owned` and
/// `needed` are the full per-rank tables (identical on every rank —
/// derive them from the layer shapes). Returns a tensor covering
/// exactly `needed[rank]`.
pub fn fetch_rows(
    comm: &Communicator,
    strip: &Tensor4,
    owned: &[Range<usize>],
    needed: &[Range<usize>],
) -> Result<Tensor4> {
    let p = comm.size();
    let me = comm.rank();
    debug_assert_eq!(owned.len(), p);
    debug_assert_eq!(needed.len(), p);
    let my_owned = &owned[me];
    let my_needed = &needed[me];
    let (n, c, w) = (strip.n, strip.c, strip.w);

    // Send phase: my rows that peers need.
    for q in 0..p {
        if q == me {
            continue;
        }
        let overlap = intersect(my_owned, &needed[q]);
        if !overlap.is_empty() {
            comm.send_vec(q, FETCH_TAG, rows_of(strip, my_owned, &overlap).into_vec())?;
        }
    }
    // Assemble: local part plus received parts, in owner order.
    let mut out = Tensor4::zeros(n, c, my_needed.len(), w);
    for q in 0..p {
        let overlap = intersect(&owned[q], my_needed);
        if overlap.is_empty() {
            continue;
        }
        let rows = if q == me {
            rows_of(strip, my_owned, &overlap)
        } else {
            Tensor4::from_vec(n, c, overlap.len(), w, comm.recv(q, FETCH_TAG)?)
        };
        out.set_row_strip(overlap.start - my_needed.start, &rows);
    }
    Ok(out)
}

/// Scatter-adds produced rows back to their owners: `produced_strip`
/// covers global rows `produced[rank]`; the result covers `owned[rank]`
/// and sums every rank's contribution to those rows (the adjoint of
/// [`fetch_rows`]).
pub fn scatter_add_rows(
    comm: &Communicator,
    produced_strip: &Tensor4,
    produced: &[Range<usize>],
    owned: &[Range<usize>],
) -> Result<Tensor4> {
    let p = comm.size();
    let me = comm.rank();
    let my_owned = &owned[me];
    let my_produced = &produced[me];
    let (n, c, w) = (produced_strip.n, produced_strip.c, produced_strip.w);

    // Send phase: my produced rows that belong to peers.
    for q in 0..p {
        if q == me {
            continue;
        }
        let overlap = intersect(my_produced, &owned[q]);
        if !overlap.is_empty() {
            comm.send_vec(
                q,
                SCATTER_TAG,
                rows_of(produced_strip, my_produced, &overlap).into_vec(),
            )?;
        }
    }
    // Accumulate: local part plus received parts, in producer order.
    let mut out = Tensor4::zeros(n, c, my_owned.len(), w);
    for q in 0..p {
        let overlap = intersect(&produced[q], my_owned);
        if overlap.is_empty() {
            continue;
        }
        let rows = if q == me {
            rows_of(produced_strip, my_produced, &overlap)
        } else {
            Tensor4::from_vec(n, c, overlap.len(), w, comm.recv(q, SCATTER_TAG)?)
        };
        out.add_row_strip(overlap.start - my_owned.start, &rows);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::part_range;
    use mpsim::{NetModel, World};
    use tensor::init;

    fn partitions(h: usize, p: usize) -> Vec<Range<usize>> {
        (0..p).map(|r| part_range(h, p, r)).collect()
    }

    #[test]
    fn fetch_reassembles_arbitrary_windows() {
        let p = 4;
        let h = 16;
        let x = init::uniform_tensor(2, 3, h, 5, -1.0, 1.0, 1);
        let owned = partitions(h, p);
        // Each rank wants a window straddling several owners.
        let needed: Vec<Range<usize>> = vec![0..7, 2..13, 9..16, 0..16];
        let out = World::run(p, NetModel::free(), |comm| {
            let me = comm.rank();
            let strip = x.row_strip(owned[me].start, owned[me].end);
            fetch_rows(comm, &strip, &owned, &needed).unwrap()
        });
        for (r, got) in out.iter().enumerate() {
            let expect = x.row_strip(needed[r].start, needed[r].end);
            assert!(got.approx_eq(&expect, 0.0), "rank {r}");
        }
    }

    #[test]
    fn fetch_with_empty_need_returns_empty() {
        let p = 2;
        let h = 4;
        let x = init::uniform_tensor(1, 1, h, 2, -1.0, 1.0, 2);
        let owned = partitions(h, p);
        let needed = vec![0..4, 4..4];
        let out = World::run(p, NetModel::free(), |comm| {
            let me = comm.rank();
            let strip = x.row_strip(owned[me].start, owned[me].end);
            fetch_rows(comm, &strip, &owned, &needed).unwrap()
        });
        assert_eq!(out[1].h, 0);
        assert!(out[0].approx_eq(&x, 0.0));
    }

    #[test]
    fn scatter_add_is_the_adjoint_of_fetch() {
        // Sum over ranks of scatter(produced) must equal, per owned
        // row, the number of producers covering it times the value.
        let p = 3;
        let h = 9;
        let owned = partitions(h, p);
        let produced: Vec<Range<usize>> = vec![0..5, 3..8, 6..9];
        let ones = |range: &Range<usize>| {
            tensor::conv::Tensor4::from_fn(1, 1, range.len(), 2, |_, _, _, _| 1.0)
        };
        let out = World::run(p, NetModel::free(), |comm| {
            let me = comm.rank();
            let mine = ones(&produced[me]);
            scatter_add_rows(comm, &mine, &produced, &owned).unwrap()
        });
        // Coverage counts per global row: rows 3..5 and 6..8 are
        // covered twice.
        let coverage = |row: usize| produced.iter().filter(|r| r.contains(&row)).count();
        for (r, got) in out.iter().enumerate() {
            for hi in 0..owned[r].len() {
                let global = owned[r].start + hi;
                assert_eq!(
                    got.get(0, 0, hi, 0),
                    coverage(global) as f64,
                    "rank {r} row {global}"
                );
            }
        }
    }

    #[test]
    fn fetch_then_scatter_roundtrip_counts_coverage() {
        // fetch a window, scatter it back: each owned row accumulates
        // its value once per rank whose window covered it.
        let p = 2;
        let h = 6;
        let owned = partitions(h, p);
        let needed: Vec<Range<usize>> = vec![0..4, 2..6];
        let x = init::uniform_tensor(1, 2, h, 3, -1.0, 1.0, 5);
        let out = World::run(p, NetModel::free(), |comm| {
            let me = comm.rank();
            let strip = x.row_strip(owned[me].start, owned[me].end);
            let window = fetch_rows(comm, &strip, &owned, &needed).unwrap();
            scatter_add_rows(comm, &window, &needed, &owned).unwrap()
        });
        for (r, got) in out.iter().enumerate() {
            for hi in 0..owned[r].len() {
                let global = owned[r].start + hi;
                let cover = needed.iter().filter(|w| w.contains(&global)).count() as f64;
                for ci in 0..2 {
                    for wi in 0..3 {
                        let expect = cover * x.get(0, ci, global, wi);
                        assert!(
                            (got.get(0, ci, hi, wi) - expect).abs() < 1e-12,
                            "rank {r} row {global}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn traffic_is_overlap_proportional() {
        // Halo-sized windows move halo-sized traffic (Eq. 7's property).
        let p = 4;
        let h = 16;
        let owned = partitions(h, p);
        // Same-pad 3x3 halo: each rank needs its rows ±1.
        let needed: Vec<Range<usize>> = owned
            .iter()
            .map(|r| r.start.saturating_sub(1)..(r.end + 1).min(h))
            .collect();
        let x = init::uniform_tensor(2, 3, h, 5, -1.0, 1.0, 6);
        let (_, stats) = World::run_with_stats(p, NetModel::free(), |comm| {
            let me = comm.rank();
            let strip = x.row_strip(owned[me].start, owned[me].end);
            fetch_rows(comm, &strip, &owned, &needed).unwrap();
        });
        // 3 interior boundaries × 2 directions × 1 row × (2*3*5) words.
        assert_eq!(stats.total_words(), 6 * 2 * 3 * 5);
    }
}
