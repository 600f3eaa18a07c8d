//! Closed-form α–β costs of the collective algorithms.
//!
//! Two families live here:
//!
//! * `*_exact` forms and the per-algorithm forms follow Thakur,
//!   Rabenseifner & Gropp (IJHPCA 2005) — the costs our executed
//!   algorithms provably incur on `mpsim` (asserted by tests in the
//!   algorithm modules). [`allreduce_exact`] is the one
//!   [`crate::allreduce`] runs: the cheapest of them for the group, the
//!   message and the model, by the same rule that picks the schedule.
//! * `paper_*` forms follow the expressions printed in the paper's
//!   Eqs. 3–9: `2⌈log₂P⌉·α + 2·((P−1)/P)·n·β` for every all-reduce.
//!   That is the exact cost of Rabenseifner's all-reduce on a
//!   power-of-two group and of Bruck's reduce-scatter + all-gather on
//!   any other, and [`allreduce_exact`] never exceeds it. The
//!   figure-reproduction binaries use the `paper_*` forms so the
//!   reproduced numbers follow the paper's arithmetic.
//!
//! Costs are expressed as [`CostTerms`] — a latency count and a word
//! count — so they can be composed symbolically and only converted to
//! seconds at the end against a [`mpsim::NetModel`].

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use mpsim::NetModel;

/// A symbolic α–β cost: `alpha` message latencies plus `words` words on
/// the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostTerms {
    /// Number of α latencies on the critical path.
    pub alpha: f64,
    /// Number of words on the critical path.
    pub words: f64,
}

impl CostTerms {
    /// The zero cost.
    pub const ZERO: CostTerms = CostTerms {
        alpha: 0.0,
        words: 0.0,
    };

    /// Constructs a cost from explicit counts.
    pub fn new(alpha: f64, words: f64) -> Self {
        CostTerms { alpha, words }
    }

    /// Converts to seconds under a machine model.
    pub fn seconds(&self, model: &NetModel) -> f64 {
        self.alpha * model.alpha + self.words * model.beta
    }
}

impl Add for CostTerms {
    type Output = CostTerms;
    fn add(self, rhs: CostTerms) -> CostTerms {
        CostTerms {
            alpha: self.alpha + rhs.alpha,
            words: self.words + rhs.words,
        }
    }
}

impl AddAssign for CostTerms {
    fn add_assign(&mut self, rhs: CostTerms) {
        self.alpha += rhs.alpha;
        self.words += rhs.words;
    }
}

impl Mul<f64> for CostTerms {
    type Output = CostTerms;
    fn mul(self, k: f64) -> CostTerms {
        CostTerms {
            alpha: self.alpha * k,
            words: self.words * k,
        }
    }
}

impl Sum for CostTerms {
    fn sum<I: Iterator<Item = CostTerms>>(iter: I) -> CostTerms {
        iter.fold(CostTerms::ZERO, |a, b| a + b)
    }
}

/// `⌈log₂ p⌉` as an f64 (0 for p ≤ 1).
pub fn ceil_log2(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as f64
    }
}

/// `(p−1)/p` (0 for p ≤ 1) — the factor on every bandwidth term.
pub fn frac(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (p as f64 - 1.0) / p as f64
    }
}

/// Ring all-reduce of `n` words over `p` ranks (Thakur-exact):
/// `2(p−1)·α + 2·((p−1)/p)·n·β`.
pub fn ring_allreduce_exact(p: usize, n: f64) -> CostTerms {
    if p <= 1 {
        return CostTerms::ZERO;
    }
    CostTerms::new(2.0 * (p as f64 - 1.0), 2.0 * frac(p) * n)
}

/// The all-reduce [`crate::allreduce`] runs on `p` ranks for `n` words
/// under `model` — the schedule it runs, whose cost is the cheapest of,
/// on a power-of-two group, [`rabenseifner_allreduce`] and
/// [`recursive_doubling_allreduce`], and on any other
/// [`rabenseifner_allreduce`] (Bruck's rounds cost the same) and
/// [`bruck_allgather`] of all `p·n` words (the gather-sum).
pub fn allreduce_exact(p: usize, n: f64, model: &NetModel) -> CostTerms {
    crate::schedule::Schedule::select(p, n, model).cost(p, n)
}

/// The reduce-scatter [`crate::reduce_scatter`] runs on `p` ranks for
/// `n` words, recursive halving's or Bruck's:
/// `⌈log₂p⌉·α + ((p−1)/p)·n·β`, half of [`rabenseifner_allreduce`] on
/// every group.
pub fn reduce_scatter_exact(p: usize, n: f64) -> CostTerms {
    rabenseifner_allreduce(p, n) * 0.5
}

/// Bruck all-gather of `n` total words over `p` ranks (also the form
/// used in the paper's Eqs. 3, 8, 9):
/// `⌈log₂ p⌉·α + ((p−1)/p)·n·β`.
pub fn bruck_allgather(p: usize, n: f64) -> CostTerms {
    if p <= 1 {
        return CostTerms::ZERO;
    }
    CostTerms::new(ceil_log2(p), frac(p) * n)
}

/// Ring all-gather of `n` total words: `(p−1)·α + ((p−1)/p)·n·β`.
pub fn ring_allgather_exact(p: usize, n: f64) -> CostTerms {
    if p <= 1 {
        return CostTerms::ZERO;
    }
    CostTerms::new(p as f64 - 1.0, frac(p) * n)
}

/// Recursive-doubling all-reduce: `⌈log₂ p⌉·(α + n·β)`.
pub fn recursive_doubling_allreduce(p: usize, n: f64) -> CostTerms {
    if p <= 1 {
        return CostTerms::ZERO;
    }
    CostTerms::new(ceil_log2(p), ceil_log2(p) * n)
}

/// Rabenseifner all-reduce: `2·⌈log₂ p⌉·α + 2·((p−1)/p)·n·β`.
pub fn rabenseifner_allreduce(p: usize, n: f64) -> CostTerms {
    if p <= 1 {
        return CostTerms::ZERO;
    }
    CostTerms::new(2.0 * ceil_log2(p), 2.0 * frac(p) * n)
}

/// One direction of a halo exchange moving `n` words: `α + n·β` (the
/// paper charges each boundary transfer as a single message; overlap is
/// handled separately by the overlap model).
pub fn halo_transfer(n: f64) -> CostTerms {
    CostTerms::new(1.0, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0.0);
        assert_eq!(ceil_log2(2), 1.0);
        assert_eq!(ceil_log2(3), 2.0);
        assert_eq!(ceil_log2(4), 2.0);
        assert_eq!(ceil_log2(5), 3.0);
        assert_eq!(ceil_log2(1024), 10.0);
    }

    #[test]
    fn single_rank_costs_are_zero() {
        for f in [
            ring_allreduce_exact,
            bruck_allgather,
            ring_allgather_exact,
            recursive_doubling_allreduce,
            rabenseifner_allreduce,
        ] {
            assert_eq!(f(1, 1e6), CostTerms::ZERO);
        }
    }

    #[test]
    fn terms_compose() {
        let a = CostTerms::new(1.0, 10.0);
        let b = CostTerms::new(2.0, 5.0);
        assert_eq!(a + b, CostTerms::new(3.0, 15.0));
        assert_eq!(a * 3.0, CostTerms::new(3.0, 30.0));
        let s: CostTerms = [a, b, b].into_iter().sum();
        assert_eq!(s, CostTerms::new(5.0, 20.0));
    }

    #[test]
    fn seconds_applies_model() {
        let model = NetModel {
            alpha: 2.0,
            beta: 0.5,
            flops: 1.0,
        };
        let c = CostTerms::new(3.0, 4.0);
        assert!((c.seconds(&model) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn rabenseifner_allreduce_bandwidth_matches_ring() {
        // The paper's all-reduce (Rabenseifner's `2⌈log₂p⌉` α-steps)
        // only changes the ring's latency factor.
        let p = 64;
        let n = 1e6;
        let ring = ring_allreduce_exact(p, n);
        let paper = rabenseifner_allreduce(p, n);
        assert_eq!(ring.words, paper.words);
        assert!(ring.alpha > paper.alpha);
    }

    #[test]
    fn rabenseifner_dominates_recursive_doubling_for_large_n() {
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: 1.0,
        };
        let p = 64;
        let big = 1e7;
        assert!(
            rabenseifner_allreduce(p, big).seconds(&model)
                < recursive_doubling_allreduce(p, big).seconds(&model)
        );
        // …and loses (or ties) for tiny messages where latency rules.
        let tiny = 1.0;
        assert!(
            rabenseifner_allreduce(p, tiny).seconds(&model)
                >= recursive_doubling_allreduce(p, tiny).seconds(&model)
        );
    }
}
