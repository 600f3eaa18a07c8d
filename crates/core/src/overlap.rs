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
//! The executed engine goes beyond the paper's analytic 2/3: an
//! [`OverlapPlan`] selects bucket fusion size, ∆X all-reduce overlap
//! and pipelined forward all-gathers. [`autotune`] picks a plan per
//! network × grid from a traced probe iteration.

use dnn::Network;
use mpsim::{NetModel, TraceConfig};
use tensor::Matrix;

use crate::trainer::{train_1p5d_scheduled, train_1p5d_scheduled_traced, TrainConfig};

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
/// trainer). Every knob preserves synchronous-SGD numerics; they only
/// move *when* transfers are driven. The one exception is
/// [`OverlapPlan::fwd_prefetch`], which re-associates the next layer's
/// partial product over gather blocks (~1 ulp, still within the
/// serial-parity tolerance).
///
/// The drain is not a knob: backward polls the in-flight buckets
/// between layers and waits them all, in launch order, at its end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapPlan {
    /// Gradient-bucket fusion threshold in f64 words (see
    /// [`DEFAULT_BUCKET_WORDS`]).
    pub bucket_words: usize,
    /// Launch the ∆X all-reduce non-blocking and hide it behind the
    /// same layer's ∆W product (bit-identical values; only pays off
    /// when the ∆W GEMM is large enough to hide the column ring).
    pub dx_overlap: bool,
    /// Pipeline forward all-gathers: consume gather blocks in ring
    /// arrival order and accumulate the next layer's partial product
    /// per block, so the gather hides behind the next GEMM. Changes
    /// floating-point association (~1 ulp vs the monolithic product);
    /// the fault-tolerant trainer refuses to combine it with ABFT,
    /// which checksums whole products.
    pub fwd_prefetch: bool,
}

impl Default for OverlapPlan {
    fn default() -> Self {
        OverlapPlan {
            bucket_words: DEFAULT_BUCKET_WORDS,
            dx_overlap: false,
            fwd_prefetch: false,
        }
    }
}

/// Leaf-time summary of the autotuner's probe iteration, aggregated
/// over ranks from the trace's exact partition (see
/// [`mpsim::trace::RankTrace::breakdown`]) and the world stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeBreakdown {
    /// Latest final virtual time across ranks.
    pub makespan: f64,
    /// Σ per-rank compute leaf time.
    pub compute: f64,
    /// Σ per-rank blocking-communication leaf time.
    pub blocking_comm: f64,
    /// Σ per-rank exposed non-blocking wait (`drain` leaf time).
    pub exposed_wait: f64,
    /// Σ per-rank transfer time hidden behind the main timeline.
    pub hidden: f64,
    /// `bucket_flush` instants recorded across ranks.
    pub bucket_flushes: usize,
    /// `progress_poll` instants recorded across ranks.
    pub progress_polls: usize,
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

/// Everything [`autotune`] did: the probe breakdown, every candidate
/// with its measured outcome, and the winner.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// Leaf-time breakdown of the one-iteration probe under the
    /// default plan.
    pub probe: ProbeBreakdown,
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
/// from measurements, not heuristics alone:
///
/// 1. **Probe**: one traced iteration under the default plan; its
///    leaf-time breakdown (compute vs blocking comm vs exposed wait vs
///    hidden transfer) is the evidence.
/// 2. **Candidates**: a bucket-size ladder spanning per-layer granular
///    to one-bucket-per-iteration, scaled to this rank's total ∆W
///    words; if the probe exposed meaningful wait or blocking comm,
///    variants with ∆X overlap and forward prefetch join (gated on the
///    grid having the corresponding ring at all).
/// 3. **Evaluate**: each candidate runs the full `cfg` and is scored
///    by virtual makespan, ties broken by overlap fraction. The
///    default plan is always candidate zero, so autotuning can only
///    help.
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
    let default_plan = OverlapPlan::default();

    // 1. Probe: one iteration, traced.
    let probe_cfg = TrainConfig { iters: 1, ..*cfg };
    let (probe_res, trace) = train_1p5d_scheduled_traced(
        net,
        x,
        labels,
        &probe_cfg,
        pr,
        pc,
        model,
        TraceConfig::enabled(),
        default_plan,
    );
    let mut probe = ProbeBreakdown {
        makespan: probe_res.stats.makespan(),
        hidden: probe_res.stats.total_overlapped_secs(),
        ..ProbeBreakdown::default()
    };
    for rank in &trace.ranks {
        for (cat, secs) in rank.breakdown() {
            match cat {
                "compute" => probe.compute += secs,
                "comm" => probe.blocking_comm += secs,
                "drain" => probe.exposed_wait += secs,
                _ => {}
            }
        }
        probe.bucket_flushes += rank.instant_count("sched", "bucket_flush");
        probe.progress_polls += rank.instant_count("sched", "progress_poll");
    }

    // 2. Candidates, seeded by what the probe exposed.
    let dw_words = (crate::trainer::trainable_words(net) / pr.max(1)).max(1);
    let mut plans = vec![default_plan];
    for bucket in [dw_words, dw_words / 4, dw_words / 16] {
        let plan = OverlapPlan {
            bucket_words: bucket.max(64),
            ..default_plan
        };
        if !plans.contains(&plan) {
            plans.push(plan);
        }
    }
    // ∆X overlap and forward prefetch only matter when a column ring
    // exists and the probe shows time they could claw back.
    let worth_hiding = probe.exposed_wait + probe.blocking_comm > 0.01 * probe.makespan;
    if pr > 1 && worth_hiding {
        plans.push(OverlapPlan {
            dx_overlap: true,
            ..default_plan
        });
        plans.push(OverlapPlan {
            dx_overlap: true,
            fwd_prefetch: true,
            ..default_plan
        });
    }

    // 3. Evaluate every candidate on the full configuration.
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
    AutotuneReport {
        probe,
        candidates,
        chosen,
    }
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
        assert!(report.probe.makespan > 0.0);
        assert!(report.probe.bucket_flushes > 0, "probe recorded flushes");
        // The winner's numerics still match the default plan's.
        let base =
            train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 2, model, OverlapPlan::default());
        let tuned = train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 2, model, report.chosen);
        for (a, b) in base.losses().iter().zip(tuned.losses()) {
            assert!((a - b).abs() < 1e-9, "loss drift {a} vs {b}");
        }
    }
}
