//! Row-range redistribution for height-partitioned NCHW tensors — the
//! one exchange of domain parallelism (the paper's Fig. 3).
//!
//! A stride-1 same-padded convolution needs a fixed `⌊k/2⌋`-row halo
//! from each neighbour; strided convolutions and overlapping pooling
//! change the height and misalign the strips, so the rows a rank needs
//! for its output block are an arbitrary window of the input
//! partition. The halo is the special case, not a second path:
//!
//! * [`fetch_rows`] — every rank obtains an arbitrary global row range
//!   assembled from the owners: a convolution's input window forward
//!   and for `∆W`, and its `∆Y` window for `∆X` (Eq. 7's two halos);
//! * [`scatter_add_rows`] — every rank scatter-adds a produced row
//!   range back onto the owners: max-pooling's `∆X`, routed by an
//!   argmax only the producing rank holds.
//!
//! Both are deterministic SPMD exchanges: each rank computes, from the
//! shared partition table, exactly which row slices it must send to
//! whom, so no request round-trip is needed. Communication is
//! pair-wise, **non-blocking** and proportional to the overlap volume:
//! sends are eager, every receive is posted before any is waited on,
//! and transfers from several owners into one rank overlap with each
//! other and with whatever the caller computes meanwhile — for
//! halo-sized overlaps this is the paper's Eq. 7 boundary exchange.
//!
//! **A window is copied once.** A padded convolution runs pad-free on
//! its window framed in the zeros the global padding implies, so
//! `fetch_rows` takes a [`Frame`] and lays own and received rows
//! straight into the framed tensor the local kernel reads. Only the
//! rows travel — a frame never adds a word to a message.

use std::ops::Range;

use mpsim::{Communicator, Result, Tag};
use tensor::conv::{Nhw, Tensor4};

use crate::dist::intersect;

/// The zeros around the rows a tensor covers, as
/// [`Tensor4::zero_extend`] takes them: `(above, below, side)` — extra
/// rows above and below, extra columns on the left and on the right.
pub type Frame = (usize, usize, usize);
/// The empty frame: the tensor is exactly its rows.
pub const NO_FRAME: Frame = (0, 0, 0);

/// A direction of the exchange: its tag, how a block of rows lands in
/// the result, and the frame around the rows of the result.
type Place = fn(&mut Tensor4, Nhw, &Tensor4, Nhw, Nhw);
type Direction = (Tag, Place, Frame);
const FETCH_TAG: Tag = (1 << 48) + 112;
const SCATTER_ADD_TAG: Tag = (1 << 48) + 113;

/// The exchange both directions share: `strip` covers the global rows
/// `have[rank]`; the result, inside the frame `into`, covers
/// `want[rank]`, every overlap `have[q] ∩ want[rank]` laid into it by
/// `place` in rank order of `q` (so a sum keeps its order) and its
/// frame left zero. One message per peer with a non-empty overlap, and
/// all of them are waited on before returning — which is what lets
/// consecutive layers reuse one tag under FIFO matching.
fn exchange(
    comm: &Communicator,
    strip: &Tensor4,
    have: &[Range<usize>],
    want: &[Range<usize>],
    (tag, place, into): Direction,
    in_flight: impl FnOnce(),
) -> Result<Tensor4> {
    let p = comm.size();
    let me = comm.rank();
    debug_assert_eq!(have.len(), p);
    debug_assert_eq!(want.len(), p);
    let (mine, wanted) = (&have[me], &want[me]);
    let (n, c, w) = (strip.n, strip.c, strip.w);
    debug_assert_eq!(strip.h, mine.len());
    // Where the global rows `rows` start in `strip`.
    let held = |rows: &Range<usize>| [0, rows.start - mine.start, 0];

    // Sends are eager and go first: my rows that peers want.
    for q in 0..p {
        let overlap = intersect(mine, &want[q]);
        if q != me && !overlap.is_empty() {
            let h0 = held(&overlap)[1];
            let rows = strip.block(0..n, h0..h0 + overlap.len(), 0..w);
            comm.send_vec(q, tag, rows.into_vec())?;
        }
    }
    // Every receive is posted before anything is waited on, so the
    // transfers overlap each other and `in_flight`.
    let posted = (0..p)
        .map(|q| (q, intersect(&have[q], wanted)))
        .filter(|(_, overlap)| !overlap.is_empty())
        .map(|(q, overlap)| {
            let handle = (q != me).then(|| comm.irecv(q, tag)).transpose()?;
            Ok((overlap, handle))
        })
        .collect::<Result<Vec<_>>>()?;
    in_flight();
    let mut out = Tensor4::zeros(n, c, into.0 + wanted.len() + into.1, w + 2 * into.2);
    for (overlap, handle) in posted {
        let at = [0, into.0 + overlap.start - wanted.start, into.2];
        let size = [n, overlap.len(), w];
        match handle {
            None => place(&mut out, at, strip, held(&overlap), size),
            Some(h) => {
                let rows = Tensor4::from_vec(n, c, overlap.len(), w, comm.wait(h)?);
                place(&mut out, at, &rows, [0; 3], size);
            }
        }
    }
    Ok(out)
}

/// Gathers the global row range `needed[me]` of a height-partitioned
/// tensor. `strip` holds this rank's rows `owned[rank]`; `owned` and
/// `needed` are the full per-rank tables (identical on every rank —
/// derive them from the layer shapes). Returns a tensor covering
/// exactly `needed[rank]`, framed in `frame`'s zeros — bit for bit
/// `fetch_rows(.., NO_FRAME, ..)?.zero_extend(above, below, side)`,
/// without the second copy.
///
/// `in_flight` runs after every receive is posted and before the first
/// is waited on: compute it charges to the virtual clock (e.g. via
/// [`Communicator::advance_flops`]) hides the transfers, and once it
/// outlasts them the exchange is free — Fig. 3's interior convolution.
///
/// On a [guarded](Communicator::guarded) communicator each receive must
/// arrive within its peer's resolved deadline of being posted, and a
/// fault aborts the group — but a late message gets no retry schedule,
/// unlike a guarded blocking `recv`: the contract of
/// `collectives::halo::exchange_1d`.
pub fn fetch_rows(
    comm: &Communicator,
    strip: &Tensor4,
    owned: &[Range<usize>],
    needed: &[Range<usize>],
    frame: Frame,
    in_flight: impl FnOnce(),
) -> Result<Tensor4> {
    let fetch: Direction = (FETCH_TAG, Tensor4::copy_block, frame);
    exchange(comm, strip, owned, needed, fetch, in_flight)
}

/// Scatter-adds produced rows back to their owners: `strip` covers
/// global rows `produced[rank]`; the result covers `owned[rank]` and
/// sums every rank's contribution to those rows in producer order (the
/// adjoint of [`fetch_rows`], with the same fault contract).
pub fn scatter_add_rows(
    comm: &Communicator,
    strip: &Tensor4,
    produced: &[Range<usize>],
    owned: &[Range<usize>],
) -> Result<Tensor4> {
    let scatter_add: Direction = (SCATTER_ADD_TAG, Tensor4::add_block, NO_FRAME);
    exchange(comm, strip, produced, owned, scatter_add, || ())
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
            fetch_rows(comm, &strip, &owned, &needed, NO_FRAME, || ()).unwrap()
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
            fetch_rows(comm, &strip, &owned, &needed, NO_FRAME, || ()).unwrap()
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
            let window = fetch_rows(comm, &strip, &owned, &needed, NO_FRAME, || ()).unwrap();
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
            fetch_rows(comm, &strip, &owned, &needed, NO_FRAME, || ()).unwrap();
        });
        // 3 interior boundaries × 2 directions × 1 row × (2*3*5) words.
        assert_eq!(stats.total_words(), 6 * 2 * 3 * 5);
    }

    #[test]
    fn transfers_overlap_each_other_and_in_flight_compute() {
        // Rank 1 needs a row from each of two owners. The transfers are
        // concurrent, so the exchange costs one of them, not two — and
        // nothing once `in_flight` compute outlasts it (Fig. 3).
        let model = NetModel {
            alpha: 1.0,
            beta: 0.5,
            flops: f64::INFINITY,
        };
        let owned = partitions(3, 3);
        let needed = vec![0..1, 0..3, 2..3];
        let x = init::uniform_tensor(1, 1, 3, 4, -1.0, 1.0, 7);
        let transfer = model.alpha + 4.0 * model.beta;
        for (busy, expect_now, expect_comm) in [(0.0, transfer, transfer), (5.0, 5.0, 0.0)] {
            let out = World::run(3, model, |comm| {
                let me = comm.rank();
                let strip = x.row_strip(owned[me].start, owned[me].end);
                let in_flight = || comm.advance_compute(busy);
                let got = fetch_rows(comm, &strip, &owned, &needed, NO_FRAME, in_flight).unwrap();
                (got, comm.clock())
            });
            assert!(out[1].0.approx_eq(&x, 0.0));
            let clock = out[1].1;
            assert!((clock.now - expect_now).abs() < 1e-12, "now {}", clock.now);
            assert!(
                (clock.comm - expect_comm).abs() < 1e-12,
                "comm {}",
                clock.comm
            );
        }
    }
}
