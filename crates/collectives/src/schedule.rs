//! Which all-reduce runs: six schedules and the α–β selector.
//!
//! [`crate::allreduce`] and [`crate::iallreduce`] run the cheapest of
//! the schedules that run on the group size `P`, for the message length
//! `n` and the network model, priced by their exact closed forms
//! ([`Schedule::cost`]). With `L = ⌈log₂P⌉` and `q = 2^⌊log₂P⌋`:
//!
//! | schedule | `P` | α-steps | words per rank |
//! |---|---|---|---|
//! | [`Schedule::Halving`] | power of two | `2L` | `2·(P−1)/P·n` |
//! | [`Schedule::Doubling`] | power of two | `L` | `L·n` |
//! | [`Schedule::Bruck`] | not a power of two | `2L` | `2·(P−1)/P·n` |
//! | [`Schedule::Gather`] | not a power of two | `L` | `(P−1)·n` |
//! | [`Schedule::Fold`] | not a power of two | `2 + log₂q` | `(2 + log₂q)·n` |
//! | [`Schedule::Ring`] | by name only | `2(P−1)` | `2·(P−1)/P·n` |
//! | reduce-scatter ([`crate::reduce_scatter`]) | any | `L` | `(P−1)/P·n` |
//!
//! The reduce-scatter is no seventh schedule: it is Halving stopped after
//! its `log₂P` halving steps on a power-of-two group, and Bruck stopped
//! after its `L` reduce-scatter rounds on any other, blocks cut on whole
//! rows ([`Schedule::scatter`], priced by
//! [`crate::cost::reduce_scatter_exact`]).
//!
//! Halving (Rabenseifner) has the ring's bandwidth with the paper's
//! `2⌈log₂P⌉` latency (Eqs. 4, 8, 9), so it wins every large message on
//! a power-of-two group. Doubling pays `n` words per step for half
//! Halving's latency and wins small ones: every `P = 2` group, and
//! messages under `4α/β` words at `P = 4`. On any other group Bruck is
//! the paper's cost exactly — a reduce-scatter by Bruck's rounds run
//! backwards, then Bruck's gather — and Gather, the gather of whole
//! vectors, its counterpart for small messages, as Doubling is Halving's.
//! The fold of the extra ranks `q..P` onto a power-of-two core that runs
//! Doubling keeps a window of mid-sized messages on larger groups (at
//! `P = 15` under the Cori model, 1 500 words: 15.0 µs against Bruck's
//! 17.9 µs). A fold over Halving has Bruck's α-steps and more words, and
//! the ring Bruck's words and as many α-steps or more, so neither is a
//! candidate; the ring stays callable as [`crate::ring::allreduce_ring`].
//!
//! The choice reads nothing but `(P, n, model)`, which every member
//! shares, so a group agrees on it without a message. Ties go to the
//! schedule the paper prices, Halving or Bruck: the free model (every
//! cost 0) runs them, and so does a bandwidth-only model (`α = 0`).
//! Gather reduces in Bruck's order, so on a group that is not a power of
//! two the model can pick the fold's bits or Bruck's, never a third.
//!
//! Each schedule is one step body — `ring::allreduce_step`,
//! `recursive::halving_step`, `recursive::doubling_step`,
//! `bruck::bruck_step`, `bruck::gather_sum_step`, and `fold_step`
//! around Doubling's — handed the buffer in flight and an
//! `exchange((to, from), out)` transport whose either side may be
//! absent (the fold's steps are one-sided). The blocking loop here and
//! the non-blocking handles ([`crate::nonblocking`]) run the same body,
//! which is what keeps the two bit-identical and equally timed.

use mpsim::{Communicator, NetModel, Rank, Result, Tag};

use crate::bruck::{bruck_step, gather_sum_step, rounds};
use crate::cost::{
    bruck_allgather, ptp, rabenseifner_allreduce, recursive_doubling_allreduce,
    ring_allreduce_exact, CostTerms,
};
use crate::op::ReduceOp;
use crate::recursive::{doubling_step, halving_step, is_pow2, refill};
use crate::ring;

const TAG: Tag = (1 << 48) + 16;

/// Where one step's block goes and where its incoming block comes from;
/// `None` on a side the step does not use.
pub(crate) type Peers = (Option<Rank>, Option<Rank>);

/// How a step cuts its blocks, `(row, riders)`: Halving and Bruck on
/// rows of `row` words (1 for an all-reduce), every schedule on all but
/// the trailing `riders` words, which ride in the last block
/// ([`crate::chunks::starts`]).
pub(crate) type Cut = (usize, usize);

/// Who runs a step: the group size `p`, the rank `r`, and the [`Cut`].
pub(crate) type At = (usize, Rank, Cut);

/// An all-reduce schedule. See the [module docs](self) for the costs
/// and for which one [`Schedule::select`] picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Ring reduce-scatter, then ring all-gather: `2(P−1)` steps of
    /// one `n/P` block each.
    Ring,
    /// Rabenseifner: recursive-halving reduce-scatter, then
    /// recursive-doubling all-gather, over block indices
    /// ([`crate::chunks::block_range`]), so any `n` splits.
    Halving,
    /// Recursive doubling: `log₂P` exchanges of the whole vector.
    Doubling,
    /// Bruck's reduce-scatter, then Bruck's all-gather, `⌈log₂P⌉`
    /// rounds each: `bruck::bruck_step`.
    Bruck,
    /// Bruck's all-gather of whole vectors, then a local reduction in
    /// Bruck's order: `bruck::gather_sum_step`.
    Gather,
    /// The extra ranks `q..P` (`q = 2^⌊log₂P⌋`) fold their vector into
    /// ranks `0..P−q`, Doubling runs on ranks `0..q`, and the result
    /// goes back out: `fold_step`.
    Fold,
}

use Schedule::{Bruck, Doubling, Fold, Gather, Halving, Ring};

/// The candidates in tie-break order: the first two run on a
/// power-of-two group, the last three on any other.
const ALL: [Schedule; 5] = [Halving, Doubling, Bruck, Gather, Fold];

/// `2^⌊log₂p⌋`: the ranks of a fold's core.
fn core_size(p: usize) -> usize {
    1 << p.ilog2()
}

impl Schedule {
    /// The cheapest schedule that runs on `p` ranks for `n` words under
    /// `model`: the argmin of [`Schedule::cost`], first in [`ALL`]'s
    /// order on ties.
    pub(crate) fn select(p: usize, n: f64, model: &NetModel) -> Schedule {
        let candidates = if is_pow2(p) { &ALL[..2] } else { &ALL[2..] };
        let secs = |s: &Schedule| s.cost(p, n).seconds(model);
        *candidates
            .iter()
            .min_by(|a, b| secs(a).total_cmp(&secs(b)))
            .expect("every group has candidates")
    }

    /// The Thakur-exact closed form: what the schedule costs on `p`
    /// ranks for `n` words (exactly the latest clock it leaves when the
    /// ranks start together and the blocks it cuts `n` into are equal:
    /// `P | n` for the ring, Halving and Bruck).
    pub(crate) fn cost(self, p: usize, n: f64) -> CostTerms {
        match self {
            Ring => ring_allreduce_exact(p, n),
            Halving | Bruck => rabenseifner_allreduce(p, n),
            Doubling => recursive_doubling_allreduce(p, n),
            Gather => bruck_allgather(p, p as f64 * n),
            Fold => recursive_doubling_allreduce(core_size(p), n) + ptp(n) * 2.0,
        }
    }

    /// The schedule and the number of its steps that
    /// [`crate::reduce_scatter`] runs on `p` ranks: the reduce-scatter
    /// half of Halving on a power-of-two group and of Bruck on any other,
    /// after which each rank holds its own rows reduced.
    pub(crate) fn scatter(p: usize) -> (Schedule, usize) {
        let s = if is_pow2(p) { Halving } else { Bruck };
        (s, rounds(p))
    }

    /// Exchange steps on `p` ranks.
    pub(crate) fn steps(self, p: usize) -> usize {
        match self {
            Ring => 2 * (p - 1),
            Halving | Bruck => 2 * rounds(p),
            Doubling | Gather => rounds(p),
            Fold => rounds(core_size(p)) + 2,
        }
    }

    /// Step `step` of this schedule on `data` as rank `r` of `p` sees it
    /// (`at`). `carry` is what the previous step returned (empty at step
    /// 0); `exchange` must send its buffer to `to`, if any, and return the
    /// one received from `from` (empty if none).
    pub(crate) fn step(
        self,
        data: &mut [f64],
        op: ReduceOp,
        at: At,
        step: usize,
        carry: Vec<f64>,
        exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
    ) -> Result<Vec<f64>> {
        match self {
            Ring => ring::allreduce_step(data, op, at, step, carry, exchange),
            Halving => halving_step(data, op, at, step, carry, exchange),
            Doubling => doubling_step(data, op, at, step, carry, exchange),
            Bruck => bruck_step(data, op, at, step, carry, exchange),
            Gather => gather_sum_step(data, op, at, step, carry, exchange),
            Fold => fold_step(data, op, at, step, carry, exchange),
        }
    }

    /// Blocking all-reduce of `data` under this schedule.
    ///
    /// # Panics
    ///
    /// Panics if Halving or Doubling is asked to run on a group whose
    /// size is not a power of two.
    pub(crate) fn allreduce(
        self,
        comm: &Communicator,
        data: &mut [f64],
        op: ReduceOp,
    ) -> Result<()> {
        self.reduce(comm, data, op, (1, 0), self.steps(comm.size()))
    }

    /// The first `steps` of [`Schedule::allreduce`] on the main timeline,
    /// blocks cut on rows of `row` words with the last `riders` words
    /// riding in the last block (`cut = (row, riders)`): the whole
    /// all-reduce, or Halving's or Bruck's reduce-scatter half
    /// ([`Schedule::scatter`]). Counted as an all-reduce.
    pub(crate) fn reduce(
        self,
        comm: &Communicator,
        data: &mut [f64],
        op: ReduceOp,
        cut: Cut,
        steps: usize,
    ) -> Result<()> {
        comm.record_allreduce();
        let p = comm.size();
        assert!(
            !matches!(self, Halving | Doubling) || is_pow2(p),
            "{self:?} requires power-of-two ranks, got {p}"
        );
        if p == 1 {
            return Ok(());
        }
        let name = match self {
            Halving if steps < self.steps(p) => "reduce_scatter_halving",
            Bruck if steps < self.steps(p) => "reduce_scatter_bruck",
            Ring => "allreduce_ring",
            Halving => "allreduce_rabenseifner",
            Doubling => "allreduce_recursive_doubling",
            Bruck => "allreduce_bruck",
            Gather => "allreduce_gather",
            Fold => "allreduce_fold",
        };
        let words = data.len() as f64;
        let _span = comm.trace_span("collective", name, &[("p", p as f64), ("words", words)]);
        let (at, mut carry) = ((p, comm.rank(), cut), Vec::new());
        for step in 0..steps {
            carry = self.step(data, op, at, step, carry, |(to, from), out| {
                if let Some(to) = to {
                    comm.send_vec(to, TAG, out)?;
                }
                from.map_or(Ok(Vec::new()), |from| comm.recv(from, TAG))
            })?;
        }
        Ok(())
    }
}

/// One step of [`Schedule::Fold`] as rank `r` of `p` sees it,
/// `q = 2^⌊log₂P⌋`. Step 0 folds: each extra rank `r ≥ q` sends its
/// vector to its twin `r − q`, which reduces it in as the right operand
/// (the lower rank's on the left, as everywhere). Steps `1..=log₂q` are
/// Doubling's at `(q, r)` on ranks `0..q` while the extra ranks idle.
/// The last step sends each extra rank its twin's result. A core rank
/// without a twin idles at both ends.
fn fold_step(
    data: &mut [f64],
    op: ReduceOp,
    (p, r, cut): At,
    step: usize,
    carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let q = core_size(p);
    let last = rounds(q) + 1;
    if step != 0 && step != last {
        if r >= q {
            return Ok(carry);
        }
        return doubling_step(data, op, (q, r, cut), step - 1, carry, exchange);
    }
    let twin = r ^ q;
    if twin >= p {
        return Ok(carry);
    }
    // Step 0 moves vectors down to the core, the last step back up.
    let folding = step == 0;
    if (r >= q) == folding {
        return exchange((Some(twin), None), refill(carry, data));
    }
    let got = exchange((None, Some(twin)), carry)?;
    if folding {
        op.apply(data, &got);
    } else {
        data.copy_from_slice(&got);
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonblocking::launch;
    use mpsim::World;

    const MODEL: NetModel = NetModel {
        alpha: 1e-3,
        beta: 1e-6,
        flops: f64::INFINITY,
    };

    /// Mixed signs and magnitudes, so Sum's rounding and Max/Min's
    /// choices depend on operand order.
    fn contribution(rank: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((rank * 37 + i * 11) as f64 * 0.173).sin() * 10f64.powi((i % 7) as i32 - 3))
            .collect()
    }

    /// Every rank's result bits and final clock bits after one
    /// all-reduce under `s`: blocking, or launched and waited at once.
    fn run(p: usize, n: usize, op: ReduceOp, s: Schedule, blocking: bool) -> Vec<(Vec<u64>, u64)> {
        World::run(p, MODEL, |comm| {
            let mut data = contribution(comm.rank(), n);
            if blocking {
                s.allreduce(comm, &mut data, op).unwrap();
            } else {
                data = launch(comm, data, op, s).unwrap().wait().unwrap();
            }
            let bits = data.iter().map(|x| x.to_bits()).collect();
            (bits, comm.now().to_bits())
        })
    }

    /// Every schedule that runs on `p` ranks: the candidates, then the
    /// ring.
    fn runnable(p: usize) -> Vec<Schedule> {
        let candidates = if is_pow2(p) { &ALL[..2] } else { &ALL[2..] };
        [candidates, &[Ring]].concat()
    }

    /// Every schedule × group size × length × operator: blocking and
    /// non-blocking agree to the bit in values and clocks, every rank
    /// holds the same bits, the values are the reduction, Gather's bits
    /// are Bruck's, the latest clock is the closed form when the blocks
    /// are equal (`P | n`), and the selector returns the argmin of the
    /// closed forms.
    #[test]
    fn every_schedule_matches_its_twin_its_closed_form_and_the_selector() {
        let models = [MODEL, NetModel::cori_knl(), NetModel::free()];
        for p in [1, 2, 4, 8, 16, 3, 5, 6, 7, 12, 15, 63] {
            let runnable = runnable(p);
            for n in [0, 1, p - 1, p, p + 1, 33, p * core_size(p)] {
                for model in &models {
                    let chosen = Schedule::select(p, n as f64, model);
                    let secs = |s: Schedule| s.cost(p, n as f64).seconds(model);
                    assert!(runnable.contains(&chosen), "p={p}: {chosen:?}");
                    assert!(runnable.iter().all(|&s| secs(chosen) <= secs(s)));
                }
                for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                    let (mut want, mut scale) = (contribution(0, n), vec![0.0; n]);
                    for r in 0..p {
                        if r > 0 {
                            op.apply(&mut want, &contribution(r, n));
                        }
                        for (s, c) in scale.iter_mut().zip(contribution(r, n)) {
                            *s += c.abs();
                        }
                    }
                    let mut bruck = None;
                    for &s in &runnable {
                        let at = format!("{s:?} p={p} n={n} {op:?}");
                        let blocking = run(p, n, op, s, true);
                        assert_eq!(blocking, run(p, n, op, s, false), "{at}");
                        let (bits, _) = &blocking[0];
                        assert!(blocking.iter().all(|(b, _)| b == bits), "{at}");
                        // Any summation order is within (P−1)·ε·Σ|x|.
                        for ((&b, &w), &scale) in bits.iter().zip(&want).zip(&scale) {
                            let got = f64::from_bits(b);
                            assert!((got - w).abs() <= 1e-13 * scale, "{at}");
                        }
                        match s {
                            Bruck => bruck = Some(bits.clone()),
                            Gather => assert_eq!(bruck.as_ref(), Some(bits), "{at}"),
                            _ => {}
                        }
                        if n % p == 0 {
                            let t = s.cost(p, n as f64).seconds(&MODEL);
                            let latest = blocking.iter().map(|&(_, c)| f64::from_bits(c));
                            let latest = latest.fold(0.0, f64::max);
                            assert!((latest - t).abs() < 1e-12, "{at}: {latest} vs {t}");
                        }
                    }
                }
            }
        }
    }

    /// The reduce-scatter, blocking and launched-then-waited, on `P`
    /// ranks of rows of `row` words: every rank's rows are its block of
    /// an all-reduce, to the bit, and the latest clock is
    /// [`crate::cost::reduce_scatter_exact`] whenever `P` divides the rows
    /// (so every block is equal), the row length and the row count
    /// otherwise arbitrary. The all-reduce is the one `allreduce` runs
    /// wherever the row cut and its word cut give the same blocks: always
    /// on a power of two, and off one whenever `P` divides the rows.
    #[test]
    fn the_reduce_scatter_keeps_each_ranks_rows_of_the_all_reduce() {
        use crate::chunks::block_range;
        use crate::cost::reduce_scatter_exact;
        use crate::{ireduce_scatter, reduce_scatter};
        let knl = NetModel::cori_knl();
        // Halving wherever P is a power of two (the butterfly is every
        // word's tree, whatever the cut); P = 2 also against the Doubling
        // exchange the selector picks there; off a power of two, the
        // selected all-reduce.
        let cases: [(usize, Option<Schedule>); 7] = [
            (2, Some(Doubling)),
            (2, Some(Halving)),
            (4, Some(Halving)),
            (8, Some(Halving)),
            (16, Some(Halving)),
            (3, None),
            (6, None),
        ];
        for (p, whole) in cases {
            for (rows, row) in [
                (3 * p, 1),
                (3 * p, 5),
                (5 * p, 2),
                (p + 1, 3),
                (2 * p - 1, 4),
            ] {
                for model in [MODEL, knl] {
                    let n = rows * row;
                    let at = format!("p={p} rows={rows}x{row} {whole:?}");
                    // Off a power of two a block's tree is rooted at its
                    // owner, so where the row cut moves a word into
                    // another block than the word cut, the word has the
                    // bits of Bruck cut on the same rows, not of the
                    // selected all-reduce.
                    let ragged = whole.is_none() && rows % p != 0;
                    let whole = whole.unwrap_or_else(|| Schedule::select(p, n as f64, &model));
                    let out = World::run(p, model, |comm| {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let mut all = contribution(comm.rank(), n);
                        if ragged {
                            let steps = Bruck.steps(p);
                            Bruck.reduce(comm, &mut all, ReduceOp::Sum, (row, 0), steps)
                        } else {
                            whole.allreduce(comm, &mut all, ReduceOp::Sum)
                        }
                        .unwrap();
                        let t0 = comm.now();
                        let mine = contribution(comm.rank(), n);
                        let blocking = reduce_scatter(comm, mine.clone(), row, ReduceOp::Sum);
                        let t1 = comm.now();
                        let h = ireduce_scatter(comm, mine, row, ReduceOp::Sum).unwrap();
                        let launched = h.wait().unwrap();
                        let rows = block_range(rows, p, comm.rank());
                        let want = bits(&all[rows.start * row..rows.end * row]);
                        let got = (bits(&blocking.unwrap()), bits(&launched));
                        (want, got, (t1 - t0, comm.now() - t1))
                    });
                    let t = reduce_scatter_exact(p, n as f64).seconds(&model);
                    let (mut latest_b, mut latest_nb) = (0.0f64, 0.0f64);
                    for (r, (want, (blocking, launched), (tb, tnb))) in out.into_iter().enumerate()
                    {
                        assert_eq!(blocking, want, "{at} rank {r}: blocking");
                        assert_eq!(launched, want, "{at} rank {r}: launched");
                        (latest_b, latest_nb) = (latest_b.max(tb), latest_nb.max(tnb));
                    }
                    if rows % p == 0 {
                        assert!((latest_b - t).abs() < 1e-12, "{at}: {latest_b} vs {t}");
                        assert!((latest_nb - t).abs() < 1e-12, "{at}: {latest_nb} vs {t}");
                    }
                }
            }
        }
    }

    /// Riders move no cut: under every schedule on groups of every size,
    /// the words before the riders keep the bits of the same schedule's
    /// all-reduce without them and the riders hold their sum; the public
    /// pair picks the shorter vector's schedule under every model, and
    /// the launched twin agrees with the blocking one to the bit.
    #[test]
    fn riders_leave_every_other_word_its_bits() {
        use crate::{allreduce, allreduce_riding, iallreduce_riding};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let models = [MODEL, NetModel::cori_knl(), NetModel::free()];
        for p in [2, 3, 4, 5, 6, 7, 8, 12] {
            let runnable = runnable(p);
            for n in [1, p - 1, p + 1, 33, 40 * p + 3] {
                for riders in [1, 2] {
                    let with_riders = |rank: usize| {
                        let mut v = contribution(rank, n);
                        v.extend((0..riders).map(|k| (rank + k) as f64));
                        v
                    };
                    let sums: Vec<f64> = (0..riders)
                        .map(|k| (p * (p - 1) / 2 + p * k) as f64)
                        .collect();
                    for &s in &runnable {
                        let out = World::run(p, MODEL, |comm| {
                            let mut alone = contribution(comm.rank(), n);
                            s.allreduce(comm, &mut alone, ReduceOp::Sum).unwrap();
                            let mut riding = with_riders(comm.rank());
                            let cut = (1, riders);
                            s.reduce(comm, &mut riding, ReduceOp::Sum, cut, s.steps(p))
                                .unwrap();
                            (alone, riding)
                        });
                        for (alone, riding) in out {
                            let at = format!("{s:?} p={p} n={n} riders={riders}");
                            assert_eq!(bits(&alone), bits(&riding[..n]), "{at}");
                            assert_eq!(riding[n..], sums[..], "{at}");
                        }
                    }
                    for model in models {
                        let out = World::run(p, model, |comm| {
                            let mut alone = contribution(comm.rank(), n);
                            allreduce(comm, &mut alone, ReduceOp::Sum).unwrap();
                            let mut riding = with_riders(comm.rank());
                            allreduce_riding(comm, &mut riding, riders, ReduceOp::Sum).unwrap();
                            let h = iallreduce_riding(
                                comm,
                                with_riders(comm.rank()),
                                riders,
                                ReduceOp::Sum,
                            );
                            (alone, riding, h.unwrap().wait().unwrap())
                        });
                        for (alone, riding, launched) in out {
                            let at = format!("{model:?} p={p} n={n} riders={riders}");
                            assert_eq!(bits(&alone), bits(&riding[..n]), "{at}");
                            assert_eq!(bits(&riding), bits(&launched), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn doubling_wins_small_messages_and_halving_large_ones() {
        let knl = NetModel::cori_knl();
        let crossover = 4.0 * knl.alpha / knl.beta;
        assert_eq!(Schedule::select(2, 1e7, &knl), Doubling);
        assert_eq!(Schedule::select(4, crossover - 1.0, &knl), Doubling);
        assert_eq!(Schedule::select(4, crossover + 1.0, &knl), Halving);
        assert_eq!(Schedule::select(16, 1e6, &NetModel::free()), Halving);
        // Off a power of two Gather takes the latency-bound messages and
        // Bruck the large ones and the ties.
        assert_eq!(Schedule::select(6, 1.0, &knl), Gather);
        assert_eq!(Schedule::select(6, 1e8, &knl), Bruck);
        assert_eq!(Schedule::select(6, 1e6, &NetModel::free()), Bruck);
    }

    /// The two schedules [`Schedule::select`] no longer offers are never
    /// strictly cheaper than its pick on a group that is not a power of
    /// two: a fold over Halving has Bruck's α-steps and more words, and
    /// the ring Bruck's words and at least its α-steps. The fold over
    /// Doubling keeps a window: at `P = 15`, 1 500 words under the Cori
    /// model, 15.0 µs against Bruck's 17.9 µs.
    #[test]
    fn neither_removed_candidate_beats_the_selected_schedule() {
        let fold_over_halving =
            |p: usize, n: f64| rabenseifner_allreduce(core_size(p), n) + ptp(n) * 2.0;
        let bandwidth_only = NetModel {
            alpha: 0.0,
            ..NetModel::cori_knl()
        };
        for model in [NetModel::free(), bandwidth_only, NetModel::cori_knl()] {
            for p in (3..=65).filter(|&p| !is_pow2(p)) {
                for n in (0..=80).map(|k| 10f64.powf(k as f64 / 10.0).round()) {
                    let best = Schedule::select(p, n, &model).cost(p, n).seconds(&model);
                    for removed in [fold_over_halving(p, n), Ring.cost(p, n)] {
                        let at = format!("{model:?} p={p} n={n}");
                        assert!(removed.seconds(&model) >= best, "{at}");
                    }
                }
            }
        }
        let knl = NetModel::cori_knl();
        let us = |s: Schedule| s.cost(15, 1500.0).seconds(&knl) * 1e6;
        assert_eq!(Schedule::select(15, 1500.0, &knl), Fold);
        assert_eq!(format!("{:.1} {:.1}", us(Fold), us(Bruck)), "15.0 17.9");
    }

    /// A lost fold-in message fails the whole group: every core rank
    /// needs the extra rank's vector, and the extra rank the result.
    #[test]
    fn a_dropped_fold_in_fails_every_rank() {
        let plan = mpsim::FaultPlan::new(7).drop_nth(2, 0, 0);
        let (out, stats) = World::run_with_faults(3, MODEL, plan, |comm| {
            let comm = comm.guarded(&crate::FtConfig::fixed(10.0));
            Fold.allreduce(&comm, &mut [1.0; 4], ReduceOp::Sum)
        });
        assert!(out.iter().all(Result::is_err), "{out:?}");
        assert_eq!(stats.total_dropped(), 1);
    }

    /// A lost reduce-scatter chunk fails the whole group, blocking or
    /// launched: the block it carried never completes on its owner, and
    /// every other rank gathers that block. On 3 ranks rank 2's first
    /// send to rank 0 is the last reduce-scatter round's.
    #[test]
    fn a_dropped_bruck_round_chunk_fails_every_rank() {
        for blocking in [true, false] {
            let plan = mpsim::FaultPlan::new(7).drop_nth(2, 0, 0);
            let (out, stats) = World::run_with_faults(3, MODEL, plan, |comm| {
                let comm = comm.guarded(&crate::FtConfig::fixed(10.0));
                let mut data = vec![1.0; 6];
                if blocking {
                    Bruck.allreduce(&comm, &mut data, ReduceOp::Sum)
                } else {
                    launch(&comm, data, ReduceOp::Sum, Bruck)?.wait().map(drop)
                }
            });
            assert!(
                out.iter().all(Result::is_err),
                "blocking={blocking}: {out:?}"
            );
            assert_eq!(stats.total_dropped(), 1);
        }
    }
}
