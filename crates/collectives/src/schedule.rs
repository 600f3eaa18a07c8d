//! Which all-reduce runs: three schedules and the α–β selector.
//!
//! [`crate::allreduce`] and [`crate::iallreduce`] run the cheapest of
//! three Thakur, Rabenseifner & Gropp schedules for the group size `P`,
//! the message length `n` and the network model, priced by their exact
//! closed forms ([`Schedule::cost`]):
//!
//! | schedule | `P` | α-steps | words per rank |
//! |---|---|---|---|
//! | [`Schedule::Ring`] | any | `2(P−1)` | `2·(P−1)/P·n` |
//! | [`Schedule::Halving`] | power of two | `2·log₂P` | `2·(P−1)/P·n` |
//! | [`Schedule::Doubling`] | power of two | `log₂P` | `log₂P·n` |
//!
//! Halving (Rabenseifner) has the ring's bandwidth with the paper's
//! `2⌈log₂P⌉` latency (Eqs. 4, 8, 9), so it wins every large message on
//! a power-of-two group. Doubling pays `n` words per step for half
//! Halving's latency and wins small ones: every `P = 2` group, and
//! messages under `4α/β` words at `P = 4`. Other group sizes keep the
//! ring. The choice reads nothing but `(P, n, model)`, which every
//! member shares, so a group agrees on it without a message. Ties go to
//! Halving, the schedule the paper prices: the free model (every cost
//! 0) and bandwidth-only models (`α = 0`, where the ring costs the same)
//! run it.
//!
//! Each schedule is one step body — `ring::allreduce_step`,
//! `recursive::halving_step`, `recursive::doubling_step` — handed the
//! buffer in flight and an `exchange((to, from), out)` transport. The
//! blocking loop here and the non-blocking handles
//! ([`crate::nonblocking`]) run the same body, which is what keeps the
//! two bit-identical and equally timed.

use std::ops::Range;

use mpsim::{Communicator, NetModel, Rank, Result, Tag};

use crate::cost::{
    rabenseifner_allreduce, recursive_doubling_allreduce, ring_allreduce_exact, CostTerms,
};
use crate::op::ReduceOp;
use crate::recursive::{doubling_step, halving_step, is_pow2};
use crate::ring;

const TAG: Tag = (1 << 48) + 16;

/// Where one step's block goes and where its incoming block comes from.
pub(crate) type Peers = (Rank, Rank);

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
}

use Schedule::{Doubling, Halving, Ring};

/// Every schedule in tie-break order, the ring last.
const ALL: [Schedule; 3] = [Halving, Doubling, Ring];

impl Schedule {
    /// The cheapest schedule that runs on `p` ranks for `n` words under
    /// `model`: the argmin of [`Schedule::cost`] over the ring and, when
    /// `p` is a power of two, Halving and Doubling (Halving, then
    /// Doubling, on ties).
    pub(crate) fn select(p: usize, n: f64, model: &NetModel) -> Schedule {
        let candidates = if is_pow2(p) { &ALL[..] } else { &ALL[2..] };
        let secs = |s: &Schedule| s.cost(p, n).seconds(model);
        *candidates
            .iter()
            .min_by(|a, b| secs(a).total_cmp(&secs(b)))
            .expect("the ring runs on any group")
    }

    /// The Thakur-exact closed form: what the schedule costs on `p`
    /// ranks for `n` words (exactly what it executes when `p` divides
    /// `n` and the ranks start together).
    pub(crate) fn cost(self, p: usize, n: f64) -> CostTerms {
        match self {
            Ring => ring_allreduce_exact(p, n),
            Halving => rabenseifner_allreduce(p, n),
            Doubling => recursive_doubling_allreduce(p, n),
        }
    }

    /// Exchange steps on `p` ranks.
    pub(crate) fn steps(self, p: usize) -> usize {
        let log = p.trailing_zeros() as usize;
        match self {
            Ring => 2 * (p - 1),
            Halving => 2 * log,
            Doubling => log,
        }
    }

    /// Step `step` of this schedule on `data` as rank `r` of `p` sees it.
    /// `carry` is what the previous step returned (empty at step 0);
    /// `exchange` must send its buffer to `to` and return the one
    /// received from `from`.
    pub(crate) fn step(
        self,
        data: &mut [f64],
        op: ReduceOp,
        at: (usize, Rank),
        step: usize,
        carry: Vec<f64>,
        exchange: impl FnOnce(Peers, Vec<f64>) -> Result<Vec<f64>>,
    ) -> Result<Vec<f64>> {
        match self {
            Ring => ring::allreduce_step(data, op, at, step, carry, exchange),
            Halving => halving_step(data, op, at, step, carry, exchange),
            Doubling => doubling_step(data, op, at, step, carry, exchange),
        }
    }

    /// Runs `steps` of this schedule on the main timeline, blocking.
    pub(crate) fn run(
        self,
        comm: &Communicator,
        data: &mut [f64],
        op: ReduceOp,
        steps: Range<usize>,
    ) -> Result<()> {
        let (at, mut carry) = ((comm.size(), comm.rank()), Vec::new());
        for step in steps {
            carry = self.step(data, op, at, step, carry, |(to, from), out| {
                comm.send_vec(to, TAG, out)?;
                comm.recv(from, TAG)
            })?;
        }
        Ok(())
    }

    /// Blocking all-reduce of `data` under this schedule.
    ///
    /// # Panics
    ///
    /// Panics if a recursive schedule is asked to run on a group whose
    /// size is not a power of two.
    pub(crate) fn allreduce(
        self,
        comm: &Communicator,
        data: &mut [f64],
        op: ReduceOp,
    ) -> Result<()> {
        comm.record_allreduce();
        let p = comm.size();
        assert!(
            self == Ring || is_pow2(p),
            "{self:?} requires power-of-two ranks, got {p}"
        );
        if p == 1 {
            return Ok(());
        }
        let name = match self {
            Ring => "allreduce_ring",
            Halving => "allreduce_rabenseifner",
            Doubling => "allreduce_recursive_doubling",
        };
        let words = data.len() as f64;
        let _span = comm.trace_span("collective", name, &[("p", p as f64), ("words", words)]);
        self.run(comm, data, op, 0..self.steps(p))
    }
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

    /// Every schedule × group size (3, 5 and 6 run the ring only) ×
    /// length × operator: blocking and non-blocking agree to the bit in
    /// values and clocks, every rank holds the same bits, the values are
    /// the reduction, the clock is the closed form when `P | n`, and the
    /// selector returns the argmin of the closed forms.
    #[test]
    fn every_schedule_matches_its_twin_its_closed_form_and_the_selector() {
        let models = [MODEL, NetModel::cori_knl(), NetModel::free()];
        for p in [1, 2, 4, 8, 16, 3, 5, 6] {
            let runnable: &[Schedule] = if is_pow2(p) {
                &[Ring, Halving, Doubling]
            } else {
                &[Ring]
            };
            for n in [0, 1, p - 1, p, p + 1, 33, 1000] {
                for model in &models {
                    let chosen = Schedule::select(p, n as f64, model);
                    let secs = |s: Schedule| s.cost(p, n as f64).seconds(model);
                    assert!(runnable.contains(&chosen), "p={p}: {chosen:?}");
                    assert!(runnable.iter().all(|&s| secs(chosen) <= secs(s)));
                }
                for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                    let mut want = contribution(0, n);
                    for r in 1..p {
                        op.apply(&mut want, &contribution(r, n));
                    }
                    for &s in runnable {
                        let at = format!("{s:?} p={p} n={n} {op:?}");
                        let blocking = run(p, n, op, s, true);
                        assert_eq!(blocking, run(p, n, op, s, false), "{at}");
                        let (bits, _) = &blocking[0];
                        assert!(blocking.iter().all(|(b, _)| b == bits), "{at}");
                        for (&b, &w) in bits.iter().zip(&want) {
                            let got = f64::from_bits(b);
                            assert!((got - w).abs() <= 1e-12 * w.abs().max(1.0), "{at}");
                        }
                        if n % p == 0 {
                            let t = s.cost(p, n as f64).seconds(&MODEL);
                            for &(_, clock) in &blocking {
                                assert!((f64::from_bits(clock) - t).abs() < 1e-12, "{at}");
                            }
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
        assert_eq!(Schedule::select(6, 1.0, &knl), Ring);
        assert_eq!(Schedule::select(16, 1e6, &NetModel::free()), Halving);
        assert_eq!(Schedule::select(6, 1e6, &NetModel::free()), Ring);
    }
}
