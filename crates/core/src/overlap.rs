//! The communication/computation overlap model of the paper's Fig. 8,
//! plus the *scheduling plan* and trace-driven autotuner for the
//! executed overlap engine in [`crate::trainer`].
//!
//! The paper: "This overlapping can only be performed with the
//! backpropagation phase, where the all-reduce communication can happen
//! while the transpose convolution of next layers are being performed
//! (which accounts for two-thirds of the communication)." The
//! overlappable fraction is a parameter here so the ablation bench can
//! sweep it from 0 (Fig. 7) through 2/3 (Fig. 8) to 1.
//!
//! The executed engine overlaps exactly those backprop all-reduces:
//! each layer's ∆X sum hides behind its ∆W product, and the ∆W sums,
//! fused into buckets, behind the rest of backward. An [`OverlapPlan`]
//! is the bucket size; [`autotune`] picks one per network × grid from a
//! ladder of measured runs.

use dnn::Network;
use mpsim::NetModel;
use tensor::Matrix;

use crate::trainer::{train_1p5d_scheduled, TrainConfig};

/// The fraction of communication the paper treats as overlappable
/// (backprop all-reduces; two of the three per-layer products).
pub const PAPER_BACKPROP_FRACTION: f64 = 2.0 / 3.0;

/// Total iteration time when a `fraction` of `comm` can hide behind
/// `compute`: the hidden portion is capped by the compute available to
/// hide it behind — "perfect overlap" never makes communication
/// negative.
pub fn overlapped_total(comm: f64, compute: f64, fraction: f64) -> f64 {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    assert!(comm >= 0.0 && compute >= 0.0, "times must be non-negative");
    let hidden = (comm * fraction).min(compute);
    compute + comm - hidden
}

/// Convenience: the Fig. 8 total (2/3 of comm hidden).
pub fn fig8_total(comm: f64, compute: f64) -> f64 {
    overlapped_total(comm, compute, PAPER_BACKPROP_FRACTION)
}

/// Default gradient-bucket fusion threshold (in f64 words): per-layer
/// ∆W shards are concatenated in reverse layer order until a bucket
/// reaches this size, then the bucket's row-group sum is launched as
/// one non-blocking all-reduce. Bigger buckets amortize the
/// all-reduce's latency over more words; smaller buckets start transfers
/// earlier. This is the DDP-style trade-off; the value is deliberately
/// small because the simulated layers are.
pub const DEFAULT_BUCKET_WORDS: usize = 1 << 13;

/// Scheduling plan for the executed overlap engine
/// ([`crate::trainer::train_1p5d_scheduled`] and the fault-tolerant
/// trainer): the gradient-bucket size. It preserves synchronous-SGD
/// numerics; it only moves *when* transfers are driven.
///
/// Neither the schedule nor the drain is a knob: every layer's ∆X sum
/// is launched before its ∆W product and waited after it, and backward
/// polls the in-flight buckets between layers and waits them all, in
/// launch order, at its end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapPlan {
    /// Gradient-bucket fusion threshold in f64 words (see
    /// [`DEFAULT_BUCKET_WORDS`]).
    pub bucket_words: usize,
}

impl Default for OverlapPlan {
    fn default() -> Self {
        OverlapPlan {
            bucket_words: DEFAULT_BUCKET_WORDS,
        }
    }
}

/// One evaluated candidate: the plan and the virtual-time outcome of
/// running the full configuration under it.
#[derive(Debug, Clone, Copy)]
pub struct CandidateOutcome {
    /// The plan evaluated.
    pub plan: OverlapPlan,
    /// Makespan of the full run under this plan.
    pub makespan: f64,
    /// Measured overlap fraction of the run.
    pub overlap_fraction: f64,
}

/// Everything [`autotune`] did: every candidate with its measured
/// outcome, and the winner.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// All evaluated candidates in evaluation order; the first entry
    /// is always the default plan (the baseline).
    pub candidates: Vec<CandidateOutcome>,
    /// The winning plan (minimum makespan; ties broken by higher
    /// overlap fraction). Because the default plan is always a
    /// candidate, the chosen plan is never slower than the default in
    /// virtual time.
    pub chosen: OverlapPlan,
}

impl AutotuneReport {
    /// Outcome of the default-plan baseline candidate.
    pub fn baseline(&self) -> CandidateOutcome {
        self.candidates[0]
    }

    /// Outcome of the chosen plan.
    pub fn chosen_outcome(&self) -> CandidateOutcome {
        *self
            .candidates
            .iter()
            .find(|c| c.plan == self.chosen)
            .expect("chosen plan was evaluated")
    }
}

/// Picks an [`OverlapPlan`] for `net` on a `pr × pc` grid of `model`
/// by measurement: the default plan and a ladder of bucket sizes — this
/// rank's whole ∆W, a quarter and a sixteenth of it (at least 64
/// words) — each run on the full `cfg` and scored by virtual makespan,
/// ties broken by overlap fraction. The default plan is
/// always candidate zero, so autotuning can only help.
#[allow(clippy::too_many_arguments)]
pub fn autotune(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
) -> AutotuneReport {
    let dw_words = (crate::trainer::trainable_words(net) / pr.max(1)).max(1);
    let mut plans = vec![OverlapPlan::default()];
    for bucket in [dw_words, dw_words / 4, dw_words / 16] {
        let plan = OverlapPlan {
            bucket_words: bucket.max(64),
        };
        if !plans.contains(&plan) {
            plans.push(plan);
        }
    }

    let candidates: Vec<CandidateOutcome> = plans
        .into_iter()
        .map(|plan| {
            let res = train_1p5d_scheduled(net, x, labels, cfg, pr, pc, model, plan);
            CandidateOutcome {
                plan,
                makespan: res.stats.makespan(),
                overlap_fraction: res.measured_overlap_fraction(),
            }
        })
        .collect();
    let chosen = candidates
        .iter()
        .fold(candidates[0], |best, &c| {
            let faster = c.makespan < best.makespan * (1.0 - 1e-12);
            let tied = (c.makespan - best.makespan).abs() <= best.makespan * 1e-12;
            if faster || (tied && c.overlap_fraction > best.overlap_fraction) {
                c
            } else {
                best
            }
        })
        .plan;
    AutotuneReport { candidates, chosen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::synthetic_data;
    use dnn::zoo::mlp;

    #[test]
    fn no_overlap_is_plain_sum() {
        assert_eq!(overlapped_total(3.0, 5.0, 0.0), 8.0);
    }

    #[test]
    fn full_overlap_hides_all_comm_when_compute_suffices() {
        assert_eq!(overlapped_total(3.0, 5.0, 1.0), 5.0);
    }

    #[test]
    fn hidden_portion_capped_by_compute() {
        // comm=10, fraction=1, compute=2: only 2s can hide.
        assert_eq!(overlapped_total(10.0, 2.0, 1.0), 10.0);
    }

    #[test]
    fn fig8_hides_two_thirds() {
        let total = fig8_total(3.0, 100.0);
        assert!((total - 101.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_never_increases_time() {
        for &(c, k) in &[(1.0, 1.0), (5.0, 0.5), (0.0, 3.0)] {
            assert!(fig8_total(c, k) <= c + k);
            assert!(fig8_total(c, k) >= k.max(c * (1.0 - PAPER_BACKPROP_FRACTION)));
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_panics() {
        let _ = overlapped_total(1.0, 1.0, 1.5);
    }

    #[test]
    fn autotuner_never_picks_a_slower_plan_than_default() {
        let net = mlp("tune", &[48, 64, 64, 10]);
        let (x, labels) = synthetic_data(&net, 24, 11);
        let cfg = TrainConfig {
            iters: 2,
            ..TrainConfig::default()
        };
        let model = NetModel {
            alpha: 1e-5,
            beta: 1e-8,
            flops: 1e9,
        };
        let report = autotune(&net, &x, &labels, &cfg, 2, 2, model);
        let base = report.baseline();
        let chosen = report.chosen_outcome();
        assert!(
            chosen.makespan <= base.makespan * (1.0 + 1e-12),
            "chosen {} vs default {}",
            chosen.makespan,
            base.makespan
        );
        assert!(report.candidates.len() >= 2, "ladder was evaluated");
        // The winner's numerics still match the default plan's.
        let base =
            train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 2, model, OverlapPlan::default());
        let tuned = train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 2, model, report.chosen);
        for (a, b) in base.losses().iter().zip(tuned.losses()) {
            assert!((a - b).abs() < 1e-9, "loss drift {a} vs {b}");
        }
    }
}
