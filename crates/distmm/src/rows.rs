//! Row-range redistribution for height-partitioned NCHW tensors — the
//! one exchange of domain parallelism (the paper's Fig. 3).
//!
//! A stride-1 same-padded convolution needs a fixed `⌊k/2⌋`-row halo
//! from each neighbour; strided convolutions and overlapping pooling
//! change the height and misalign the strips, so the rows a rank needs
//! for its block of a product are an arbitrary window of an operand's
//! partition. The halo is the special case, not a second path:
//! [`fetch_rows`] has every rank obtain an arbitrary global row range
//! assembled from the owners — a layer's input window forward (kept
//! for `∆W`), and the window of `∆Y` rows its own `∆X` rows read
//! backward (Eq. 7's two halos). Rows travel one way per pass; no rank
//! sends a produced row home.
//!
//! The exchange is deterministic SPMD: each rank computes, from the
//! shared partition table, exactly which row slices it must send to
//! whom, so no request round-trip is needed. Communication is
//! pair-wise, **non-blocking** and proportional to the overlap volume:
//! sends are eager, every receive is posted before any is waited on,
//! and transfers from several owners into one rank overlap with each
//! other and with whatever the caller computes meanwhile — for
//! halo-sized overlaps this is the paper's Eq. 7 boundary exchange.
//!
//! **A window is copied once, and the rows that travelled are kept.**
//! `fetch_rows` returns a [`Halo`]: the rows the peers sent, as they
//! arrived. A padded convolution runs pad-free on its window framed in
//! the zeros the global padding implies, so [`Halo::frame`] lays own and
//! received rows straight into the framed tensor the local kernel reads
//! — and lays them again, with no message, for a later product that
//! reads the same window (a convolution's `∆W`). Only the rows travel —
//! a frame never adds a word to a message.
//!
//! [`relayout`] is the other move a domain split needs: Eq. 6 between
//! a group's row split and its sample split of one batch, where a
//! trunk's strips grow too thin for a kernel and its later layers run
//! on whole images.

use std::ops::Range;

use mpsim::{Communicator, Result, Tag};
use tensor::conv::Tensor4;

use crate::dist::{intersect, part_range};

/// The zeros around the rows a tensor covers, as
/// [`Tensor4::zero_extend`] takes them: `(above, below, side)` — extra
/// rows above and below, extra columns on the left and on the right.
pub type Frame = (usize, usize, usize);
/// The empty frame: the tensor is exactly its rows.
pub const NO_FRAME: Frame = (0, 0, 0);

// One tag for both exchanges: each waits on every receive it posted
// before it returns, so FIFO matching keeps consecutive ones apart.
const ROWS_TAG: Tag = (1 << 48) + 112;

/// The rows of one rank's window that its peers sent, kept apart from
/// its own strip: what [`fetch_rows`] received, and all a later product
/// reading the same window needs besides the strip.
pub struct Halo {
    /// The global rows of the strip the window was fetched around.
    mine: Range<usize>,
    /// The global rows of the window.
    wanted: Range<usize>,
    /// Every non-empty overlap `owned[q] ∩ wanted` in rank order of `q`,
    /// with the rows `q` sent (`None`: the own strip's).
    pieces: Vec<(Range<usize>, Option<Tensor4>)>,
}

impl Halo {
    /// The window: `strip`'s rows and the received ones, laid in rank
    /// order into a tensor covering exactly the window and framed in
    /// `frame`'s zeros — bit for bit the unframed window
    /// `.zero_extend(above, below, side)`, without the second copy.
    /// `strip` must be the one the halo was fetched around.
    pub fn frame(&self, strip: &Tensor4, (above, below, side): Frame) -> Tensor4 {
        let (n, c, w) = (strip.n, strip.c, strip.w);
        debug_assert_eq!(strip.h, self.mine.len());
        let wanted = &self.wanted;
        let mut out = Tensor4::zeros(n, c, above + wanted.len() + below, w + 2 * side);
        for (overlap, rows) in &self.pieces {
            let at = [0, above + overlap.start - wanted.start, side];
            let size = [n, overlap.len(), w];
            match rows {
                None => out.copy_block(at, strip, [0, overlap.start - self.mine.start, 0], size),
                Some(rows) => out.copy_block(at, rows, [0; 3], size),
            }
        }
        out
    }
}

/// Gathers the global row range `needed[me]` of a height-partitioned
/// tensor. `strip` holds this rank's rows `owned[rank]`; `owned` and
/// `needed` are the full per-rank tables (identical on every rank —
/// derive them from the layer shapes). Returns the [`Halo`]: every
/// overlap `owned[q] ∩ needed[rank]` of a peer `q`, which
/// [`Halo::frame`] lays around `strip`'s own rows. One message per peer
/// with a non-empty overlap, and all of them are waited on before
/// returning — which is what lets consecutive layers reuse one tag
/// under FIFO matching.
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
    in_flight: impl FnOnce(),
) -> Result<Halo> {
    let p = comm.size();
    let me = comm.rank();
    debug_assert_eq!(owned.len(), p);
    debug_assert_eq!(needed.len(), p);
    let (mine, wanted) = (&owned[me], &needed[me]);
    let (n, c, w) = (strip.n, strip.c, strip.w);
    debug_assert_eq!(strip.h, mine.len());
    let _span = comm.trace_span("distmm", "fetch_rows", &[("c", c as f64)]);

    // Sends are eager and go first: my rows that peers want.
    for q in 0..p {
        let overlap = intersect(mine, &needed[q]);
        if q != me && !overlap.is_empty() {
            let h0 = overlap.start - mine.start;
            let rows = strip.block(0..n, h0..h0 + overlap.len(), 0..w);
            comm.send_vec(q, ROWS_TAG, rows.into_vec())?;
        }
    }
    // Every receive is posted before anything is waited on, so the
    // transfers overlap each other and `in_flight`.
    let posted = (0..p)
        .map(|q| (q, intersect(&owned[q], wanted)))
        .filter(|(_, overlap)| !overlap.is_empty())
        .map(|(q, overlap)| {
            let handle = (q != me).then(|| comm.irecv(q, ROWS_TAG)).transpose()?;
            Ok((overlap, handle))
        })
        .collect::<Result<Vec<_>>>()?;
    in_flight();
    let mut pieces = Vec::with_capacity(posted.len());
    for (overlap, handle) in posted {
        let got = handle.map(|h| comm.wait(h)).transpose()?;
        let rows = got.map(|data| Tensor4::from_vec(n, c, overlap.len(), w, data));
        pieces.push((overlap, rows));
    }
    Ok(Halo {
        mine: mine.clone(),
        wanted: wanted.clone(),
        pieces,
    })
}

/// How a group of `p` ranks splits a batch of `n` images of `h` rows:
/// rank `q` holds rows `part_range(h, p, q)` of every image, or images
/// `part_range(n, p, q)` whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Each rank holds a strip of rows of every image.
    Rows,
    /// Each rank holds whole images.
    Samples,
}

/// Eq. 6 between the two [`Split`]s of an `n`-image, `h`-row batch:
/// re-lays `t`, this rank's block under the other split, into its block
/// under `to`. Each rank sends each peer the part of its block the
/// peer's new block holds, one message per non-empty part, and posts
/// every receive before it waits on any, as [`fetch_rows`] does: every
/// element moves at most once, and nothing is replicated.
pub fn relayout(
    comm: &Communicator,
    t: &Tensor4,
    (n, h): (usize, usize),
    to: Split,
) -> Result<Tensor4> {
    let (p, me, c, w) = (comm.size(), comm.rank(), t.c, t.w);
    let _span = comm.trace_span("distmm", "relayout", &[("c", c as f64)]);
    let (s, r) = (|q| part_range(n, p, q), |q| part_range(h, p, q));
    let (ns, nr) = (s(me).len(), r(me).len());
    // Rank `q`'s images of my rows, or my images of `q`'s rows: the part's
    // offset in a block holding it, and its size.
    let cut = |q, images_of_q| match images_of_q {
        true => ([s(q).start, 0, 0], [s(q).len(), nr, w]),
        false => ([0, r(q).start, 0], [ns, r(q).len(), w]),
    };
    let to_samples = to == Split::Samples;
    // What this rank sends peer `q`, and what `q` sends it.
    let (sent, got) = (|q| cut(q, to_samples), |q| cut(q, !to_samples));
    let any = |(_, [dn, dh, _]): ([usize; 3], [usize; 3])| dn * dh > 0;
    for q in (0..p).filter(|&q| q != me && any(sent(q))) {
        let ([n0, h0, _], [dn, dh, _]) = sent(q);
        let piece = t.block(n0..n0 + dn, h0..h0 + dh, 0..w);
        comm.send_vec(q, ROWS_TAG, piece.into_vec())?;
    }
    let mut posted = Vec::with_capacity(p);
    for q in (0..p).filter(|&q| q != me && any(got(q))) {
        posted.push((q, comm.irecv(q, ROWS_TAG)?));
    }
    let (on, oh) = if to_samples { (ns, h) } else { (n, nr) };
    let mut out = Tensor4::zeros(on, c, oh, w);
    out.copy_block(got(me).0, t, sent(me).0, got(me).1);
    for (q, handle) in posted {
        let (at, size) = got(q);
        let piece = Tensor4::from_vec(size[0], c, size[1], w, comm.wait(handle)?);
        out.copy_block(at, &piece, [0; 3], size);
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
            fetch_rows(comm, &strip, &owned, &needed, || ())
                .unwrap()
                .frame(&strip, NO_FRAME)
        });
        for (r, got) in out.iter().enumerate() {
            let expect = x.row_strip(needed[r].start, needed[r].end);
            assert!(got.approx_eq(&expect, 0.0), "rank {r}");
        }
    }

    /// Strips to whole images and back, on uneven splits and with more
    /// ranks than images: every element moves once each way, except the
    /// part a rank keeps.
    #[test]
    fn relayout_moves_between_strips_and_whole_images() {
        let (n, c, h, w) = (3, 2, 5, 4);
        let x = init::uniform_tensor(n, c, h, w, -1.0, 1.0, 8);
        for p in [1, 2, 3, 4] {
            let (out, stats) = World::run_with_stats(p, NetModel::free(), |comm| {
                let rows = part_range(h, p, comm.rank());
                let strip = x.row_strip(rows.start, rows.end);
                let whole = relayout(comm, &strip, (n, h), Split::Samples).unwrap();
                let back = relayout(comm, &whole, (n, h), Split::Rows).unwrap();
                (whole, back == strip)
            });
            for (r, (whole, round_trip)) in out.iter().enumerate() {
                assert_eq!(
                    *whole,
                    x.block(part_range(n, p, r), 0..h, 0..w),
                    "P={p} {r}"
                );
                assert!(round_trip, "P={p} rank {r}");
            }
            let kept: usize = (0..p)
                .map(|r| part_range(n, p, r).len() * part_range(h, p, r).len())
                .sum();
            assert_eq!(stats.total_words(), (2 * (n * h - kept) * c * w) as u64);
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
            fetch_rows(comm, &strip, &owned, &needed, || ())
                .unwrap()
                .frame(&strip, NO_FRAME)
        });
        assert_eq!(out[1].h, 0);
        assert!(out[0].approx_eq(&x, 0.0));
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
            fetch_rows(comm, &strip, &owned, &needed, || ()).unwrap();
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
                let halo = fetch_rows(comm, &strip, &owned, &needed, in_flight).unwrap();
                (halo.frame(&strip, NO_FRAME), comm.clock())
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
