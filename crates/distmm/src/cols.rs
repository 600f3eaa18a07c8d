//! Column redistribution for batch-partitioned activation matrices —
//! the executable machinery behind switching process grids *between
//! layers* (the paper's Eq. 6 and the mixed per-layer grids of its
//! Figs. 7 and 10).
//!
//! An activation `X` is `d × B` with columns (samples) distributed.
//! When consecutive layers use different `Pc`, each rank's needed
//! column range changes, and — because the 1.5D layout replicates the
//! batch shard across the `Pr` dimension — several ranks may need the
//! *same* columns while several ranks hold identical replicas of the
//! source columns. [`redistribute_cols`] handles both: designated
//! sender ranks (one per source replica group) ship the overlaps of
//! their owned range with every rank's needed range.

use std::ops::Range;

use mpsim::{Communicator, Result, Tag};
use tensor::Matrix;

use crate::dist::intersect;

const COLS_TAG: Tag = (1 << 48) + 128;

/// Extracts global columns `global` from `x_local` covering `owned`,
/// as a column-major buffer (each column contiguous).
fn cols_to_buf(x_local: &Matrix, owned: &Range<usize>, global: &Range<usize>) -> Vec<f64> {
    debug_assert!(global.start >= owned.start && global.end <= owned.end);
    let d = x_local.rows();
    let mut buf = Vec::with_capacity(d * global.len());
    for col in global.clone() {
        let local = col - owned.start;
        for row in 0..d {
            buf.push(x_local.get(row, local));
        }
    }
    buf
}

/// Redistributes a column-partitioned matrix to a new column layout.
///
/// * `x_local` — this rank's columns, covering global range
///   `owned[rank]`.
/// * `owned` / `needed` — per-rank global column ranges (identical
///   tables on every rank). Ranges may repeat across ranks (replicas).
/// * `is_sender` — exactly one `true` per distinct owned range (the
///   replica that ships data); senders' ranges must tile the needed
///   columns without overlap.
///
/// Returns this rank's new `d × needed[rank].len()` block. Cost: each
/// receiver pays `α + β·d·|overlap|` per contributing sender — the
/// redistribution volume of Eq. 6, times the replication factor of the
/// target layout.
pub fn redistribute_cols(
    comm: &Communicator,
    x_local: &Matrix,
    owned: &[Range<usize>],
    needed: &[Range<usize>],
    is_sender: &[bool],
) -> Result<Matrix> {
    let p = comm.size();
    let me = comm.rank();
    debug_assert_eq!(owned.len(), p);
    debug_assert_eq!(needed.len(), p);
    debug_assert_eq!(is_sender.len(), p);
    let d = x_local.rows();
    let my_owned = &owned[me];
    let my_needed = &needed[me];

    // Send phase.
    if is_sender[me] {
        for q in 0..p {
            if q == me {
                continue;
            }
            let overlap = intersect(my_owned, &needed[q]);
            if !overlap.is_empty() {
                comm.send_vec(q, COLS_TAG, cols_to_buf(x_local, my_owned, &overlap))?;
            }
        }
    }
    // Receive phase: assemble from senders (plus any local overlap,
    // which never travels even if this rank is not a sender).
    let mut out = Matrix::zeros(d, my_needed.len());
    let place = |out: &mut Matrix, buf: &[f64], global: &Range<usize>| {
        for (k, col) in global.clone().enumerate() {
            let dst = col - my_needed.start;
            for row in 0..d {
                out.set(row, dst, buf[k * d + row]);
            }
        }
    };
    let local_overlap = intersect(my_owned, my_needed);
    if !local_overlap.is_empty() {
        let buf = cols_to_buf(x_local, my_owned, &local_overlap);
        place(&mut out, &buf, &local_overlap);
    }
    for q in 0..p {
        if q == me || !is_sender[q] {
            continue;
        }
        let overlap = intersect(&owned[q], my_needed);
        if overlap.is_empty() {
            continue;
        }
        // A remote sender's range may overlap columns we already
        // copied locally (our own replica); the sender still ships the
        // full overlap, and the copies are identical, so overwriting is
        // safe and keeps the protocol symmetric.
        let buf = comm.recv(q, COLS_TAG)?;
        debug_assert_eq!(buf.len(), d * overlap.len());
        place(&mut out, &buf, &overlap);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{col_shard, part_range, row_shard};
    use crate::onep5d::{self, Grid};
    use mpsim::{NetModel, World};
    use tensor::init;

    #[test]
    fn pure_batch_to_wider_shards() {
        // 4 ranks each own B/4 columns; regroup into 2 column groups of
        // B/2, replicated twice (a 2x2 grid's batch layout).
        let (d, b) = (3usize, 8usize);
        let x = init::uniform(d, b, -1.0, 1.0, 91);
        let p = 4;
        let owned: Vec<_> = (0..p).map(|r| part_range(b, p, r)).collect();
        // Target: ranks 0,1 need cols 0..4 (group 0); ranks 2,3 need
        // 4..8.
        let needed = vec![0..4, 0..4, 4..8, 4..8];
        let is_sender = vec![true; p];
        let out = World::run(p, NetModel::free(), |comm| {
            let r = comm.rank();
            let xl = x.col_block(owned[r].start, owned[r].end);
            redistribute_cols(comm, &xl, &owned, &needed, &is_sender).unwrap()
        });
        for (r, got) in out.iter().enumerate() {
            let expect = x.col_block(needed[r].start, needed[r].end);
            assert!(got.approx_eq(&expect, 0.0), "rank {r}");
        }
    }

    #[test]
    fn replicated_source_uses_designated_senders() {
        // Ranks 0,1 both hold cols 0..4 (replicas); ranks 2,3 hold
        // 4..8. Only ranks 0 and 2 send. Target: pure batch B/4 each.
        let (d, b) = (2usize, 8usize);
        let x = init::uniform(d, b, -1.0, 1.0, 92);
        let owned = vec![0..4, 0..4, 4..8, 4..8];
        let needed: Vec<_> = (0..4).map(|r| part_range(b, 4, r)).collect();
        let is_sender = vec![true, false, true, false];
        let out = World::run(4, NetModel::free(), |comm| {
            let r = comm.rank();
            let xl = x.col_block(owned[r].start, owned[r].end);
            redistribute_cols(comm, &xl, &owned, &needed, &is_sender).unwrap()
        });
        for (r, got) in out.iter().enumerate() {
            let expect = x.col_block(needed[r].start, needed[r].end);
            assert!(got.approx_eq(&expect, 0.0), "rank {r}");
        }
    }

    #[test]
    fn batch_to_model_costs_eq6_half_the_executed_model_step() {
        // Eq. 6: entering a pure-model layer from a pure-batch one,
        // every rank gathers the whole d × B activation. With α = 0 the
        // time is the paper's bandwidth term β·B·(P−1)/P·d exactly.
        let p = 4;
        let (d, b) = (8usize, 16usize);
        let x = init::uniform(d, b, -1.0, 1.0, 95);
        let model = NetModel {
            alpha: 0.0,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let (times, relayout) = World::run_with_stats(p, model, |comm| {
            let batch = Grid::new(comm, 1, p).unwrap();
            let full = Grid::new(comm, p, 1).unwrap();
            let shard = col_shard(&x, p, comm.rank());
            assert!(batch.relayout_cols(&full, &shard, b).unwrap() == x);
            comm.clock().comm
        });
        let expect = model.beta * (b * d) as f64 * (p as f64 - 1.0) / p as f64;
        for &t in &times {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
        // "Asymptotically free": for d_out = d_in, the model-parallel step
        // it feeds moves three times as much as Eq. 8 prices it (forward
        // all-gather of Y plus the double-volume ∆X all-reduce) and twice
        // as much as it runs: the ∆X sum is the all-reduce's
        // reduce-scatter half, one relayout's words.
        let w = init::xavier(d, d, 96);
        let dy = init::uniform(d, b, -1.0, 1.0, 97);
        let (_, step) = World::run_with_stats(p, NetModel::free(), |comm| {
            let grid = Grid::new(comm, p, 1).unwrap();
            let wl = row_shard(&w, p, grid.i);
            onep5d::forward(&grid, &wl, &x).unwrap();
            onep5d::backward(&grid, &wl, &x, &dy).unwrap();
        });
        assert_eq!(step.total_words(), 2 * relayout.total_words());
    }

    #[test]
    fn identity_relayout_moves_nothing() {
        let (d, b) = (3usize, 9usize);
        let x = init::uniform(d, b, -1.0, 1.0, 93);
        let p = 3;
        let owned: Vec<_> = (0..p).map(|r| part_range(b, p, r)).collect();
        let (_, stats) = World::run_with_stats(p, NetModel::free(), |comm| {
            let r = comm.rank();
            let xl = x.col_block(owned[r].start, owned[r].end);
            let out = redistribute_cols(comm, &xl, &owned, &owned, &vec![true; p]).unwrap();
            assert!(out.approx_eq(&xl, 0.0));
        });
        assert_eq!(stats.total_words(), 0, "no cross-rank traffic for identity");
    }

    #[test]
    fn traffic_matches_overlap_volume() {
        // Shift every rank's window by one column: each rank receives
        // exactly one column from a neighbour.
        let (d, b) = (5usize, 8usize);
        let x = init::uniform(d, b, -1.0, 1.0, 94);
        let p = 4;
        let owned: Vec<_> = (0..p).map(|r| part_range(b, p, r)).collect();
        let needed: Vec<_> = owned
            .iter()
            .map(|r| (r.start + 1).min(b)..(r.end + 1).min(b))
            .collect();
        let (_, stats) = World::run_with_stats(p, NetModel::free(), |comm| {
            let r = comm.rank();
            let xl = x.col_block(owned[r].start, owned[r].end);
            redistribute_cols(comm, &xl, &owned, &needed, &vec![true; p]).unwrap();
        });
        // Ranks 0..3 each fetch 1 column (d words) from the next rank,
        // except the last (whose extra column is clipped).
        assert_eq!(stats.total_words(), (3 * d) as u64);
    }
}
