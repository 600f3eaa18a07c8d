//! Which all-reduce runs: four schedules and the α–β selector.
//!
//! [`crate::allreduce`] and [`crate::iallreduce`] run the cheapest of
//! the Thakur, Rabenseifner & Gropp schedules that run on the group size
//! `P`, for the message length `n` and the network model, priced by
//! their exact closed forms ([`Schedule::cost`]). With `q = 2^⌊log₂P⌋`:
//!
//! | schedule | `P` | α-steps | words per rank |
//! |---|---|---|---|
//! | [`Schedule::Ring`] | any | `2(P−1)` | `2·(P−1)/P·n` |
//! | [`Schedule::Halving`] | power of two | `2·log₂P` | `2·(P−1)/P·n` |
//! | [`Schedule::Doubling`] | power of two | `log₂P` | `log₂P·n` |
//! | [`Schedule::Fold`] | not a power of two | `2 +` the core's on `q` | `2n +` the core's on `q` |
//! | reduce-scatter ([`crate::reduce_scatter`]) | power of two | `log₂P` | `(P−1)/P·n` |
//!
//! The reduce-scatter is no fifth schedule: it is Halving stopped after
//! its `log₂P` halving steps, blocks cut on whole rows, and on any other
//! group the all-reduce the selector picks, each rank keeping its rows
//! ([`Schedule::scatter`], priced by [`crate::cost::reduce_scatter_exact`]).
//!
//! Halving (Rabenseifner) has the ring's bandwidth with the paper's
//! `2⌈log₂P⌉` latency (Eqs. 4, 8, 9), so it wins every large message on
//! a power-of-two group. Doubling pays `n` words per step for half
//! Halving's latency and wins small ones: every `P = 2` group, and
//! messages under `4α/β` words at `P = 4`. Any other group folds onto
//! its power-of-two core of `q` ranks, which runs Halving or Doubling:
//! two more α-steps and `2n` more words than the core, so the ring keeps
//! the large messages there. The choice reads nothing but
//! `(P, n, model)`, which every member shares, so a group agrees on it
//! without a message. Ties go to Halving on a power-of-two group, the
//! schedule the paper prices, and to the ring on any other: the free
//! model (every cost 0) runs them, and a bandwidth-only model (`α = 0`)
//! never prefers the fold.
//!
//! Each schedule is one step body — `ring::allreduce_step`,
//! `recursive::halving_step`, `recursive::doubling_step`, and
//! `fold_step` around the latter two — handed the buffer in flight and
//! an `exchange((to, from), out)` transport whose either side may be
//! absent (the fold's steps are one-sided). The blocking loop here and
//! the non-blocking handles ([`crate::nonblocking`]) run the same body,
//! which is what keeps the two bit-identical and equally timed.

use mpsim::{Communicator, NetModel, Rank, Result, Tag};

use crate::cost::{
    ptp, rabenseifner_allreduce, recursive_doubling_allreduce, ring_allreduce_exact, CostTerms,
};
use crate::op::ReduceOp;
use crate::recursive::{doubling_step, halving_step, is_pow2, refill};
use crate::ring;

const TAG: Tag = (1 << 48) + 16;

/// Where one step's block goes and where its incoming block comes from;
/// `None` on a side the step does not use.
pub(crate) type Peers = (Option<Rank>, Option<Rank>);

/// How a step cuts its blocks, `(row, riders)`: Halving on rows of
/// `row` words (1 for an all-reduce), every schedule on all but the
/// trailing `riders` words, which ride in the last block
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
    /// The extra ranks `q..P` (`q = 2^⌊log₂P⌋`) fold their vector into
    /// ranks `0..P−q`, the core schedule (Halving or Doubling) runs on
    /// ranks `0..q`, and the result goes back out: `fold_step`.
    Fold(&'static Schedule),
}

use Schedule::{Doubling, Fold, Halving, Ring};

/// Every schedule in tie-break order: the first three run on a
/// power-of-two group, the last three on any other.
const ALL: [Schedule; 5] = [Halving, Doubling, Ring, Fold(&Halving), Fold(&Doubling)];

/// `2^⌊log₂p⌋`: the ranks of a fold's core.
fn core_size(p: usize) -> usize {
    1 << p.ilog2()
}

impl Schedule {
    /// The cheapest schedule that runs on `p` ranks for `n` words under
    /// `model`: the argmin of [`Schedule::cost`], first in [`ALL`]'s
    /// order on ties.
    pub(crate) fn select(p: usize, n: f64, model: &NetModel) -> Schedule {
        let candidates = if is_pow2(p) { &ALL[..3] } else { &ALL[2..] };
        let secs = |s: &Schedule| s.cost(p, n).seconds(model);
        *candidates
            .iter()
            .min_by(|a, b| secs(a).total_cmp(&secs(b)))
            .expect("the ring runs on any group")
    }

    /// The Thakur-exact closed form: what the schedule costs on `p`
    /// ranks for `n` words (exactly the latest clock it leaves when the
    /// ranks start together and the blocks it cuts `n` into are equal:
    /// `P | n` for the ring and Halving, `2^⌊log₂P⌋ | n` for a fold
    /// over Halving).
    pub(crate) fn cost(self, p: usize, n: f64) -> CostTerms {
        match self {
            Ring => ring_allreduce_exact(p, n),
            Halving => rabenseifner_allreduce(p, n),
            Doubling => recursive_doubling_allreduce(p, n),
            Fold(core) => core.cost(core_size(p), n) + ptp(n) * 2.0,
        }
    }

    /// The schedule and the number of its steps that
    /// [`crate::reduce_scatter`] runs on `p` ranks for `n` words: Halving's
    /// `log₂P` halving steps on a power-of-two group, and on any other
    /// every step of the all-reduce [`Schedule::select`] picks, after
    /// which each rank holds its own rows among all the others.
    pub(crate) fn scatter(p: usize, n: f64, model: &NetModel) -> (Schedule, usize) {
        if is_pow2(p) {
            return (Halving, p.trailing_zeros() as usize);
        }
        let s = Schedule::select(p, n, model);
        (s, s.steps(p))
    }

    /// Exchange steps on `p` ranks.
    pub(crate) fn steps(self, p: usize) -> usize {
        let log = p.trailing_zeros() as usize;
        match self {
            Ring => 2 * (p - 1),
            Halving => 2 * log,
            Doubling => log,
            Fold(core) => core.steps(core_size(p)) + 2,
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
            Fold(core) => fold_step(*core, data, op, at, step, carry, exchange),
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
    /// all-reduce, or Halving's reduce-scatter half
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
            matches!(self, Ring | Fold(_)) || is_pow2(p),
            "{self:?} requires power-of-two ranks, got {p}"
        );
        if p == 1 {
            return Ok(());
        }
        let name = match self {
            Halving if steps < self.steps(p) => "reduce_scatter_halving",
            Ring => "allreduce_ring",
            Halving => "allreduce_rabenseifner",
            Doubling => "allreduce_recursive_doubling",
            Fold(_) => "allreduce_fold",
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

/// One step of [`Schedule::Fold`] over `core` as rank `r` of `p` sees
/// it, `q = 2^⌊log₂P⌋`. Step 0 folds: each extra rank `r ≥ q` sends its
/// vector to its twin `r − q`, which reduces it in as the right operand
/// (the lower rank's on the left, as everywhere). Steps
/// `1..=core.steps(q)` are the core's at `(q, r)` on ranks `0..q` while
/// the extra ranks idle. The last step sends each extra rank its twin's
/// result. A core rank without a twin idles at both ends.
fn fold_step(
    core: Schedule,
    data: &mut [f64],
    op: ReduceOp,
    (p, r, cut): At,
    step: usize,
    carry: Vec<f64>,
    exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
) -> Result<Vec<f64>> {
    let q = core_size(p);
    let last = core.steps(q) + 1;
    if step != 0 && step != last {
        if r >= q {
            return Ok(carry);
        }
        return core.step(data, op, (q, r, cut), step - 1, carry, exchange);
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

    /// Every schedule × group size × length × operator: blocking and
    /// non-blocking agree to the bit in values and clocks, every rank
    /// holds the same bits, the values are the reduction, the latest
    /// clock is the closed form when the blocks are equal (`P` and
    /// `2^⌊log₂P⌋` divide `n`), and the selector returns the argmin of
    /// the closed forms.
    #[test]
    fn every_schedule_matches_its_twin_its_closed_form_and_the_selector() {
        let models = [MODEL, NetModel::cori_knl(), NetModel::free()];
        for p in [1, 2, 4, 8, 16, 3, 5, 6, 7, 12, 15, 63] {
            let (q, runnable): (_, &[Schedule]) = if is_pow2(p) {
                (p, &ALL[..3])
            } else {
                (core_size(p), &ALL[2..])
            };
            for n in [0, 1, p - 1, p, p + 1, 33, p * q] {
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
                    for &s in runnable {
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
                        if n % p == 0 && n % q == 0 {
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
    /// the all-reduce `whole` runs, to the bit, and the latest clock is
    /// [`crate::cost::reduce_scatter_exact`] whenever `P` divides the rows
    /// (so every block is equal), the row length and the row count
    /// otherwise arbitrary.
    #[test]
    fn the_reduce_scatter_keeps_each_ranks_rows_of_the_all_reduce() {
        use crate::chunks::block_range;
        use crate::cost::reduce_scatter_exact;
        use crate::{ireduce_scatter, reduce_scatter};
        let knl = NetModel::cori_knl();
        // Halving wherever P is a power of two; P = 2 also against the
        // Doubling exchange the selector picks there; off a power of
        // two, the selected all-reduce.
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
                    let whole = whole.unwrap_or_else(|| Schedule::select(p, n as f64, &model));
                    let out = World::run(p, model, |comm| {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let mut all = contribution(comm.rank(), n);
                        whole.allreduce(comm, &mut all, ReduceOp::Sum).unwrap();
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
                    let t = reduce_scatter_exact(p, n as f64, &model).seconds(&model);
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
            let runnable = if is_pow2(p) { &ALL[..3] } else { &ALL[2..] };
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
                    for &s in runnable {
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
        // Off a power of two the fold takes the latency-bound messages,
        // Halving's core the middle ones, and the ring the large ones
        // and the ties.
        assert_eq!(Schedule::select(6, 1.0, &knl), Fold(&Doubling));
        assert_eq!(Schedule::select(12, crossover, &knl), Fold(&Halving));
        assert_eq!(Schedule::select(6, 1e8, &knl), Ring);
        assert_eq!(Schedule::select(6, 1e6, &NetModel::free()), Ring);
    }

    /// A lost fold-in message fails the whole group: every core rank
    /// needs the extra rank's vector, and the extra rank the result.
    #[test]
    fn a_dropped_fold_in_fails_every_rank() {
        let plan = mpsim::FaultPlan::new(7).drop_nth(2, 0, 0);
        let (out, stats) = World::run_with_faults(3, MODEL, plan, |comm| {
            let comm = comm.guarded(&crate::FtConfig::fixed(10.0));
            Fold(&Doubling).allreduce(&comm, &mut [1.0; 4], ReduceOp::Sum)
        });
        assert!(out.iter().all(Result::is_err), "{out:?}");
        assert_eq!(stats.total_dropped(), 1);
    }
}
