//! The communication/computation overlap model of the paper's Fig. 8,
//! plus the gradient-bucket rule of the executed overlap engine in
//! [`crate::trainer`].
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
//! fused into buckets, behind the rest of backward. [`buckets`] cuts
//! them, after Shi, Chu & Li's merged-gradient rule (MG-WFBP). It reads
//! each layer's per-rank ∆W words, the flops its backward charges, its
//! ∆X sum and the exchanges the backward blocks on before it (a CNN
//! trunk's relayout and window fetches), in backward order — the CNN's FC
//! head and then its conv trunk, one chain — the group the buckets are
//! summed over and the network model, and prices every bucket by the
//! all-reduce that group runs on it
//! ([`collectives::cost::allreduce_exact`]). A bucket launched early
//! hides behind the compute and the blocking exchanges of the layers
//! below, less their ∆X sums, which queue on the same channel; one merged
//! saves an all-reduce's α-steps. The rule takes the cut whose drain ends
//! first on the replay's clock of the pass ([`crate::plan::replay`]),
//! timed from the top layer's push, ties going to fewer buckets: with
//! nothing to hide behind (one member, a free network, no compute, no
//! exchange) every layer joins one bucket.

use collectives::cost::{allreduce_exact, CostTerms};
use mpsim::NetModel;

use crate::plan::walk;

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

/// The scheduled overlap engine ([`crate::trainer::train_1p5d_scheduled`]
/// and the fault-tolerant trainer): it preserves synchronous-SGD
/// numerics and only moves *when* transfers are driven. It has no knob:
/// every layer's ∆X sum is launched before its ∆W product and waited
/// after it, [`buckets`] cuts the ∆W buckets, and backward polls the
/// in-flight buckets between layers and waits them all, in launch order,
/// at its end.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverlapPlan {}

/// One layer's ∆W as [`buckets`] sees it, in push order: the top layer
/// first. Its fields are the layer's, the same on every member of the
/// group the buckets are summed over, so every member cuts the same
/// buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grad {
    /// The ∆W words this rank pushes.
    pub words: usize,
    /// The flops the layer's backward charges this rank: its ∆W product
    /// and, where its input gradient is formed, its ∆X product.
    pub flops: f64,
    /// The layer's ∆X sum, on the channel the buckets use
    /// ([`CostTerms::ZERO`] where it has none).
    pub dx_sum: CostTerms,
    /// The exchanges the main timeline blocks on between the push above
    /// and the layer's products, off the channel: on a CNN, the trunk's
    /// window fetches and its relayout back to strips
    /// ([`crate::plan::CommPlan::trunk`]); [`CostTerms::ZERO`] on an FC
    /// chain.
    pub gap: CostTerms,
}

/// When the drain of a backward pass ends on the replay's clock
/// ([`walk`]), timed from the top layer's push (its products are the same
/// under every cut), if a bucket launches at the push of each layer in
/// `ends`, and at the last push, each priced by the all-reduce `group`
/// runs.
fn cut_secs(grads: &[Grad], ends: &[usize], group: usize, m: &NetModel) -> f64 {
    let top = Grad {
        flops: 0.0,
        dx_sum: CostTerms::ZERO,
        gap: CostTerms::ZERO,
        ..grads[0]
    };
    let (pushed, mut open) = ([&[top], &grads[1..]].concat(), 0);
    walk(&pushed, m, |k| {
        open += pushed[k].words;
        let closes = ends.contains(&k) || k + 1 == grads.len();
        closes.then(|| allreduce_exact(group, std::mem::take(&mut open) as f64, m))
    })
}

/// The buckets of one backward pass (see the module doc): the words of
/// each, in launch order, every layer's in one. Of every cut, the one
/// whose drain ends first on the replay's clock of the pass, ties (within
/// rounding) going to fewer buckets. It is found by a walk over where
/// the bucket that closes at each push opens: the best cut of the layers
/// above that, extended by this bucket, is weighed with every layer below
/// merged into one last bucket.
pub fn buckets(grads: &[Grad], group: usize, model: &NetModel) -> Vec<usize> {
    // `best[j]`: the layers the buckets of the best cut of pushes `0..=j`
    // close at, the last closing at `j`.
    let mut best: Vec<Vec<usize>> = Vec::new();
    for j in 0..grads.len() {
        let mut pick: Option<(f64, Vec<usize>)> = None;
        for from in 0..=j {
            let mut ends = best[..from].last().cloned().unwrap_or_default();
            ends.push(j);
            let t = cut_secs(grads, &ends, group, model);
            let beats = |(u, e): &(f64, Vec<usize>)| {
                t < u * (1.0 - 1e-9) || (t <= u * (1.0 + 1e-9) && ends.len() < e.len())
            };
            if pick.as_ref().is_none_or(beats) {
                pick = Some((t, ends));
            }
        }
        best.push(pick.expect("a bucket closes at j").1);
    }
    let ends = best.pop().unwrap_or_default();
    let starts = std::iter::once(0).chain(ends.iter().map(|e| e + 1));
    let words = |(a, &e): (usize, &usize)| grads[a..=e].iter().map(|g| g.words).sum();
    starts.zip(&ends).map(words).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::tests::train_cnn_cut;
    use crate::plan::{plan, replay, CommPlan};
    use crate::trainer::tests::train_cut;
    use crate::trainer::{extract_fc_layers, synthetic_data, train_1p5d, TrainConfig};
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

    /// The buckets that close after push `k` wherever bit `k` of `mask`
    /// is set, and after the last push.
    fn fixed(grads: &[Grad], mask: usize) -> Vec<usize> {
        let mut cuts = vec![0];
        for (k, g) in grads.iter().enumerate() {
            *cuts.last_mut().expect("a bucket is open") += g.words;
            if mask >> k & 1 == 1 && k + 1 < grads.len() {
                cuts.push(0);
            }
        }
        cuts
    }

    /// The replay ([`replay`]) is the executed iteration: on every grid of
    /// P = 4, 8 and 16 of the benchmark's `fc_1p5d` and of `fig8_exec`
    /// (`alexnet-fc-exec`, B = 512, Cori KNL), the blocking run's makespan
    /// and, where `Pc > 1`, the scheduled run's under each of the four cuts
    /// of the three layers equal the slowest rank's replay of its plan
    /// within 1e-12; so do `fig6_exec`'s twelve blocking grids
    /// (`mlp-exec`, B = 32). One iteration each: every iteration runs the
    /// same plan and starts after the last one's drain. Every shard here
    /// divides evenly, so no rank waits on a peer the replay does not see.
    /// `BIT_EQUAL` lists the runs that match to the bit, each cut by the
    /// mask of the layers its buckets close at; the rest differ in the
    /// rounding of their sums.
    #[test]
    fn the_replay_is_every_executed_cut() {
        const BIT_EQUAL: [&str; 30] = [
            "fc 1x4 cut 1",
            "fc 1x4 cut 2",
            "fc 1x4 cut 3",
            "fc 2x2 blocking",
            "fc 2x2 cut 1",
            "fc 2x2 cut 2",
            "fc 4x1 blocking",
            "fc 1x8 cut 1",
            "fc 2x4 cut 0",
            "fc 2x4 cut 1",
            "fc 2x4 cut 3",
            "fc 4x2 cut 0",
            "fc 4x2 cut 1",
            "fc 4x2 cut 2",
            "fc 4x2 cut 3",
            "fc 1x16 blocking",
            "fc 1x16 cut 0",
            "fc 1x16 cut 2",
            "fc 2x8 blocking",
            "fc 2x8 cut 0",
            "fc 4x4 cut 2",
            "fc 8x2 blocking",
            "fc 8x2 cut 1",
            "fc 8x2 cut 2",
            "fc 8x2 cut 3",
            "fig6 2x2 blocking",
            "fig6 4x1 blocking",
            "fig6 4x2 blocking",
            "fig6 1x16 blocking",
            "fig6 16x1 blocking",
        ];
        let model = NetModel::cori_knl();
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 18,
        };
        let mut bit_equal = Vec::new();
        let mut check = |at: String, executed: f64, p: usize, plans: &dyn Fn(usize) -> CommPlan| {
            let replayed = (0..p)
                .map(|r| replay(&plans(r), &model))
                .fold(0.0, f64::max);
            let off = (executed - replayed).abs();
            assert!(
                off <= 1e-12 * executed,
                "{at}: {executed:e} vs {replayed:e}"
            );
            if off == 0.0 {
                bit_equal.push(at);
            }
        };
        for (name, net, b) in [
            ("fc", mlp("alexnet-fc-exec", &[384, 256, 256, 10]), 512),
            ("fig6", mlp("mlp-exec", &[256, 512, 512, 128, 10]), 32),
        ] {
            let (x, labels) = synthetic_data(&net, b, 7);
            let layers = extract_fc_layers(&net);
            for p in [4usize, 8, 16] {
                for pr in (0..=p.trailing_zeros()).map(|k| 1 << k) {
                    let pc = p / pr;
                    let at = format!("{name} {pr}x{pc}");
                    let run = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
                    let blocking = |r| plan(&layers, b, &[(pr, pc)], r, false, None);
                    check(format!("{at} blocking"), run.stats.makespan(), p, &blocking);
                    if name == "fig6" || pc == 1 {
                        continue;
                    }
                    for mask in 0..4 {
                        let cut = |g: &[Grad]| fixed(g, mask);
                        let run = train_cut(&net, (&x, &labels), &cfg, (pr, pc), model, cut);
                        let plans = |r| {
                            let rule = plan(&layers, b, &[(pr, pc)], r, false, Some(&model));
                            let buckets = Some(cut(&rule.grads()));
                            CommPlan { buckets, ..rule }
                        };
                        check(format!("{at} cut {mask}"), run.stats.makespan(), p, &plans);
                    }
                }
            }
        }
        assert_eq!(bit_equal, BIT_EQUAL);
    }

    /// The bucket ladder as an oracle where the replay stops, the CNN: on
    /// `cnn_domain`'s four grids (`mini_alexnet`, B = 64, Cori KNL) the
    /// rule's makespan is within 1e-3 of the least over all 64 cuts of the
    /// head's two FC layers and the five convs, one iteration each. Its 256 trainings take minutes
    /// in a debug build, so it runs in release (CI's test job).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "256 CNN trainings: run with --release")]
    fn the_cnn_rule_is_within_a_thousandth_of_every_cut() {
        let (net, model) = (dnn::zoo::mini_alexnet(), NetModel::cori_knl());
        let (x, labels) = crate::cnn::synthetic_images(&net, 64, 7);
        let spec = crate::cnn::CnnSpec::of(&net).expect("a CNN");
        let cfg = TrainConfig {
            lr: 0.05,
            iters: 1,
            seed: 18,
        };
        for grid in [(1, 4), (2, 4), (4, 4), (4, 2)] {
            let rule = spec.plans(64, grid, &model).swap_remove(0);
            let grads = rule.grads();
            let makespans: Vec<(bool, f64)> = (0..1 << (grads.len() - 1))
                .map(|mask| {
                    let cut = |g: &[Grad]| fixed(g, mask);
                    let r = train_cnn_cut(&net, (&x, &labels), &cfg, grid, model, cut);
                    (Some(cut(&grads)) == rule.buckets, r.stats.makespan())
                })
                .collect();
            let best = makespans.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
            let (_, ruled) = *makespans.iter().find(|m| m.0).expect("a cut");
            assert!(
                ruled <= best * (1.0 + 1e-3),
                "{grid:?}: {ruled:e} vs {best:e}"
            );
        }
    }

    #[test]
    fn the_rule_merges_when_nothing_can_hide() {
        let grads = [100, 2000, 30].map(|words| Grad {
            words,
            flops: 1e6,
            dx_sum: CostTerms::ZERO,
            gap: CostTerms::ZERO,
        });
        for (group, model) in [(8, NetModel::free()), (1, NetModel::cori_knl())] {
            assert_eq!(
                buckets(&grads, group, &model),
                [2130],
                "{group} ranks, {model:?}"
            );
        }
        let slow = NetModel {
            flops: 1e8,
            ..NetModel::cori_knl()
        };
        // The top layer's bucket would hide behind the middle layer's
        // backward, but the middle one's sum then queues behind it: merged,
        // the two drain as soon, in one bucket.
        assert_eq!(
            buckets(&grads, 8, &slow),
            [2100, 30],
            "the last layer hides the rest"
        );
        let each = cut_secs(&grads, &[0, 1], 8, &slow);
        assert!(cut_secs(&grads, &[1], 8, &slow) <= each * (1.0 + 1e-9));
    }

    /// The cut an exhaustive search picks: of all `2^(n−1)` cuts, the one
    /// whose drain ends first, ties (within rounding) going to fewer
    /// buckets.
    fn exhaustive(grads: &[Grad], group: usize, model: &NetModel) -> Vec<usize> {
        let n = grads.len();
        let mut best: Option<(f64, usize, usize)> = None;
        for mask in 0..1usize << (n - 1) {
            let ends: Vec<usize> = (0..n).filter(|k| mask >> k & 1 == 1).collect();
            let (t, k) = (cut_secs(grads, &ends, group, model), ends.len());
            let better = |&(u, c, _): &(f64, usize, usize)| {
                t < u * (1.0 - 1e-9) || (t <= u * (1.0 + 1e-9) && k < c)
            };
            if best.as_ref().is_none_or(better) {
                best = Some((t, k, mask));
            }
        }
        fixed(grads, best.expect("one cut at least").2)
    }

    /// The rule's walk picks the exhaustive search's cut on every chain
    /// the trainers run it on: the benchmark's `fc_1p5d` (P = 8, 16) and
    /// `fig8_exec` (P = 4, 16) grids, the whole CNN on `cnn_domain`'s
    /// grids (B = 64) and `fig10_exec`'s (B = 4), whose trunk gaps differ
    /// by `Pd × Pc`, and the slow-core chains of the trainer tests (a
    /// 100 MFLOP/s core, where layers hide buckets).
    #[test]
    fn the_rule_is_the_exhaustive_cut() {
        let (knl, slow) = (NetModel::cori_knl(), crate::trainer::tests::slow_core());
        let mut chains: Vec<(String, Vec<Grad>, usize, NetModel)> = Vec::new();
        let fc = extract_fc_layers(&mlp("alexnet-fc-exec", &[384, 256, 256, 10]));
        for p in [4usize, 8, 16] {
            for pr in (0..=p.trailing_zeros()).map(|k| 1 << k) {
                let rule = plan(&fc, 512, &[(pr, p / pr)], 0, false, Some(&knl));
                chains.push((format!("fc {pr}x{}", p / pr), rule.grads(), p / pr, knl));
            }
        }
        let net = dnn::zoo::mini_alexnet();
        let spec = crate::cnn::CnnSpec::of(&net).expect("a CNN");
        let cnn_domain = [(1, 4), (2, 4), (4, 4), (4, 2)].map(|grid| (64, grid));
        let fig10_exec = [(1, 2), (1, 4), (2, 4), (4, 4), (2, 8)].map(|grid| (4, grid));
        for (b, (pd, pc)) in cnn_domain.into_iter().chain(fig10_exec) {
            let grads = spec.plans(b, (pd, pc), &knl)[0].grads();
            chains.push((format!("cnn B = {b} {pd}x{pc}"), grads, pd * pc, knl));
        }
        let tiny = extract_fc_layers(&dnn::zoo::mlp_tiny());
        let digest = extract_fc_layers(&mlp("digest", &[24, 20, 12, 5]));
        for (layers, b, (pr, pc)) in [(&tiny, 24, (1, 4)), (&tiny, 24, (2, 3))]
            .into_iter()
            .chain([(&tiny, 24, (4, 2)), (&digest, 18, (2, 3))])
        {
            let rule = plan(layers, b, &[(pr, pc)], 0, false, Some(&slow));
            chains.push((format!("slow {pr}x{pc}"), rule.grads(), pc, slow));
        }
        for (at, grads, group, model) in chains {
            let exact = exhaustive(&grads, group, &model);
            assert_eq!(buckets(&grads, group, &model), exact, "{at}");
        }
    }
}
