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
//! them: a walk over the layers in backward order, after Shi,
//! Chu & Li's merged-gradient rule (MG-WFBP). It reads each layer's
//! per-rank ∆W words, the flops its backward charges and its ∆X sum, the
//! group the buckets are summed over and the network model, and prices
//! every bucket by the all-reduce that group runs on it
//! ([`collectives::cost::allreduce_exact`]). A layer's ∆W joins the open
//! bucket unless launching the bucket now ends the drain sooner than
//! merging it with the layers below: launched, it hides behind their
//! compute less their ∆X sums, which queue on the same channel; merged,
//! it saves an all-reduce's α-steps. With nothing to hide behind (one
//! member, a free network, no compute) every layer joins one bucket.

use std::collections::VecDeque;

use collectives::cost::{allreduce_exact, CostTerms};
use mpsim::NetModel;

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
/// first.
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
}

/// The clock [`buckets`] runs a backward pass on, from a push: the main
/// timeline at `now`, the channel free at `free`, and the launched
/// buckets with steps still to issue, each as `[steps, seconds a step,
/// ready]` (its α-steps, of one length; `ready` when the last one issued
/// ends, or the launch). It models the policy of
/// [`crate::trainer::BucketScheduler`]: one chunk step issued per push
/// (its `poll`), each ∆X sum queued behind the steps already issued, and
/// the drain in launch order (its `drain`). A change to that policy is a
/// change here.
#[derive(Clone)]
struct Clock {
    now: f64,
    free: f64,
    queue: VecDeque<[f64; 3]>,
}

impl Clock {
    /// A push: `bucket` (`[α-steps, seconds]`) launched, if it fills one,
    /// and one step of the oldest bucket still being issued put on the
    /// channel, as `BucketScheduler::push` then `poll` do. Then the next
    /// layer's backward, `[c, x]`: `c` seconds of its products, and its
    /// ∆X sum of `x` seconds, launched after the first product behind
    /// every step issued so far and waited after the second.
    fn push(&mut self, bucket: Option<[f64; 2]>, next: Option<[f64; 2]>) {
        let steps = |n: f64| n.max(1.0);
        (self.queue).extend(bucket.map(|[n, t]| [steps(n), t / steps(n), self.now]));
        if let Some(b) = self.queue.front_mut() {
            self.free = self.free.max(b[2]) + b[1];
            (b[0], b[2]) = (b[0] - 1.0, self.free);
            if b[0] < 1.0 {
                self.queue.pop_front();
            }
        }
        if let Some([c, x]) = next.filter(|[_, x]| *x > 0.0) {
            self.free = self.free.max(self.now + c / 2.0) + x;
            self.now = (self.now + c).max(self.free);
        } else if let Some([c, _]) = next {
            self.now += c;
        }
    }

    /// When the drain after the last push ends: every step left issued in
    /// launch order, and the main timeline waiting on the last.
    fn drain(&self) -> f64 {
        let issue = |free: f64, b: &[f64; 3]| free.max(b[2]) + b[0] * b[1];
        self.queue.iter().fold(self.free, issue).max(self.now)
    }
}

/// The buckets of one backward pass (see the module doc): the words of
/// each, in launch order, every layer's in one. At each push the open
/// bucket is weighed against merging it with every layer below into one
/// bucket launched at the last push, on a clock of the pass: launched
/// now, it runs while the layers below compute, and the rest follows it;
/// merged, the α-steps of one all-reduce are saved. It launches when that
/// ends the drain sooner, by more than rounding: ties merge.
pub fn buckets(grads: &[Grad], group: usize, model: &NetModel) -> Vec<usize> {
    buckets_behind(0.0, grads, group, model)
}

/// [`buckets`] for a backward pass that finds `queued` seconds already
/// issued on its channel (the CNN trunk's, behind the head's sums).
pub(crate) fn buckets_behind(queued: f64, grads: &[Grad], p: usize, m: &NetModel) -> Vec<usize> {
    let cost = |words: usize| allreduce_exact(p, words as f64, m);
    let cost = |words| Some([cost(words).alpha, cost(words).seconds(m)]);
    let times = |g: &Grad| [m.compute(g.flops), g.dx_sum.seconds(m)];
    let layer = |k: usize| grads.get(k).map(times);
    // The drain's end from the push of layer `k` on: `first` launched
    // there, if any, and `rest` at the last push.
    let end = |mut clock: Clock, k: usize, first: Option<usize>, rest: usize| {
        clock.push(first.and_then(cost), layer(k + 1));
        for i in k + 1..grads.len() {
            let last = (i + 1 == grads.len()).then_some(rest);
            clock.push(last.and_then(cost), layer(i + 1));
        }
        clock.drain()
    };
    let mut clock = Clock {
        now: 0.0,
        free: queued,
        queue: VecDeque::new(),
    };
    let (mut cuts, mut open) = (Vec::new(), 0);
    let mut below: usize = grads.iter().map(|g| g.words).sum();
    for (k, g) in grads.iter().enumerate() {
        (open, below) = (open + g.words, below - g.words);
        let merged = || end(clock.clone(), k, None, open + below);
        if below > 0 && end(clock.clone(), k, Some(open), below) < merged() * (1.0 - 1e-9) {
            clock.push(cost(open), layer(k + 1));
            cuts.push(std::mem::take(&mut open));
        } else {
            clock.push(None, layer(k + 1));
        }
    }
    cuts.push(open);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::trainer::tests::train_cut;
    use crate::trainer::{extract_fc_layers, synthetic_data, TrainConfig};
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

    /// The bucket ladder as an oracle: on every grid of the benchmark's
    /// `fc_1p5d` (P = 8 and 16) and of `fig8_exec` (P = 4 and 16) —
    /// `alexnet-fc-exec`, B = 512, Cori KNL — the rule's makespan is within
    /// 1e-3 of the least over all four cuts of the three layers. One
    /// iteration each: every iteration runs the same cut and starts after
    /// the last one's drain. The `Pc = 1` grids sum no ∆W and are left out;
    /// on the others every grid row holds shards of one size, so one cut
    /// serves every rank.
    #[test]
    fn the_rule_is_within_a_thousandth_of_every_cut() {
        let net = mlp("alexnet-fc-exec", &[384, 256, 256, 10]);
        let (x, labels) = synthetic_data(&net, 512, 7);
        let (model, layers) = (NetModel::cori_knl(), extract_fc_layers(&net));
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 18,
        };
        let grids = [(1, 4), (2, 2), (1, 8), (2, 4), (4, 2)];
        for (pr, pc) in grids.into_iter().chain([(1, 16), (2, 8), (4, 4), (8, 2)]) {
            let rule = plan(&layers, 512, &[(pr, pc)], 0, false, Some(&model));
            let grads = rule.grads();
            let makespans = [0, 1, 2, 3].map(|mask| {
                let cut = fixed(&grads, mask);
                let r = train_cut(&net, (&x, &labels), &cfg, (pr, pc), model, |g| {
                    fixed(g, mask)
                });
                (Some(cut) == rule.buckets, r.stats.makespan())
            });
            let best = makespans.iter().map(|m| m.1).fold(f64::INFINITY, f64::min);
            let (_, ruled) = *makespans
                .iter()
                .find(|m| m.0)
                .expect("the rule cuts one of the four");
            assert!(
                ruled <= best * (1.0 + 1e-3),
                "{pr}x{pc}: {ruled:e} vs {best:e}"
            );
        }
    }

    #[test]
    fn the_rule_merges_when_nothing_can_hide() {
        let grads = [100, 2000, 30].map(|words| Grad {
            words,
            flops: 1e6,
            dx_sum: CostTerms::ZERO,
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
        assert_eq!(
            buckets(&grads, 8, &slow),
            [100, 2000, 30],
            "every layer hides the one above"
        );
    }
}
