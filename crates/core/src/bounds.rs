//! Communication lower bounds and the closed-form optimal grid.
//!
//! The paper's conclusion: "This explicit connection between parallel
//! matrix algorithms and DNN training has the potential to enable the
//! discovery of new classes of parallel algorithms and **lower bounds**
//! for training DNNs." This module takes that step:
//!
//! * [`matmul_words_lower_bound`] — the memory-dependent
//!   Irony–Toledo–Tiskin bound for one `m × k × n` product: any
//!   schedule on `P` processes with `M` words of memory each moves at
//!   least `mkn / (2√2 · P · √M) − M` words per process;
//! * [`layer_lower_bound`] — the bound summed over a layer's three
//!   training products (the paper's forward, `∆W`, `∆X`);
//! * [`optimal_pr_continuous`] — minimizing the Eq. 8 bandwidth terms
//!   over a continuous `Pr` gives
//!   `Pr* = √(2·Σ|W| · P / (B · Σ(d_i + 2·d_{i−1})))` — a closed form
//!   for where the integrated optimum sits, which the exhaustive sweep
//!   lands next to (tests pin the agreement to the power-of-two
//!   rounding).

use dnn::WeightedLayer;

/// Irony–Toledo–Tiskin memory-dependent lower bound: words each
/// process must move for a dense `m × k × n` product with local memory
/// `M` words. Returns 0 when the memory is large enough to hold the
/// whole problem (no communication provably required).
pub fn matmul_words_lower_bound(m: f64, k: f64, n: f64, p: f64, mem_words: f64) -> f64 {
    let bound = m * k * n / (2.0 * 2.0f64.sqrt() * p * mem_words.sqrt()) - mem_words;
    bound.max(0.0)
}

/// The bound summed over a training step's three products for one
/// layer. The iteration-space volume (number of scalar multiplies) is
/// read from the layer's FLOP count, so convolutional layers get their
/// true (weight-sharing) volume rather than the dense `d_i·d_{i−1}·B`
/// one; the bound applies per product, and a training step runs three
/// products of equal volume (forward, `∆W`, `∆X`).
pub fn layer_lower_bound(l: &WeightedLayer, b: f64, p: f64, mem_words: f64) -> f64 {
    let volume = l.forward_flops_per_sample() * b / 2.0; // multiplies, not FLOPs
    3.0 * matmul_words_lower_bound(volume, 1.0, 1.0, p, mem_words)
}

/// The continuous minimizer of the Eq. 8 bandwidth terms over `Pr`
/// (with `Pc = P/Pr`), dropping the `(x−1)/x` factors:
///
/// ```text
/// words(Pr) ≈ (B·Pr/P)·Σ(d_i + 2·d_{i−1}) + 2·Σ|W|/Pr
/// ⇒ Pr* = √( 2·Σ|W|·P / (B·Σ(d_i + 2·d_{i−1})) )
/// ```
///
/// clamped to `[1, P]`. The first weighted layer contributes no
/// `d_{i−1}` term (no ∆X all-reduce past layer 1), matching Eq. 8.
pub fn optimal_pr_continuous(layers: &[WeightedLayer], b: f64, p: usize) -> f64 {
    let sum_w: f64 = layers.iter().map(|l| l.weights as f64).sum();
    let sum_act: f64 = layers
        .iter()
        .enumerate()
        .map(|(idx, l)| l.d_out() as f64 + if idx > 0 { 2.0 * l.d_in() as f64 } else { 0.0 })
        .sum();
    if sum_act == 0.0 || b == 0.0 {
        return p as f64;
    }
    (2.0 * sum_w * p as f64 / (b * sum_act))
        .sqrt()
        .clamp(1.0, p as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::integrated_model_batch;
    use dnn::zoo::{alexnet, mlp};

    #[test]
    fn bound_vanishes_with_unbounded_memory() {
        assert_eq!(matmul_words_lower_bound(1e3, 1e3, 1e3, 8.0, 1e12), 0.0);
    }

    #[test]
    fn bound_grows_as_memory_shrinks() {
        let b1 = matmul_words_lower_bound(4096.0, 4096.0, 2048.0, 64.0, 1e4);
        let b2 = matmul_words_lower_bound(4096.0, 4096.0, 2048.0, 64.0, 1e3);
        assert!(b2 > b1, "{b2} vs {b1}");
        assert!(b1 > 0.0);
    }

    #[test]
    fn achieved_volumes_respect_the_bound() {
        // Our Eq. 8 per-process words for any grid must sit above the
        // per-layer lower bound at the memory that grid actually uses.
        let net = alexnet();
        let layers = net.weighted_layers();
        let b = 2048.0;
        let p = 512usize;
        for pr in [1usize, 8, 64, 512] {
            let pc = p / pr;
            let cost = integrated_model_batch(&layers, b, pr, pc);
            for (l, lc) in layers.iter().zip(&cost.layers) {
                // Memory this schedule uses for the layer (weights
                // shard + replicated activations).
                let mem = l.weights as f64 / pr as f64
                    + 2.0 * (l.d_in() + l.d_out()) as f64 * b / pc as f64;
                let lower = layer_lower_bound(l, b, p as f64, mem);
                let achieved = lc.cost.total().words;
                assert!(
                    achieved + 1e-9 >= lower,
                    "{} at {pr}x{pc}: achieved {achieved} < bound {lower}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn continuous_optimum_matches_discrete_sweep() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let m = crate::machine::MachineModel::cori_knl();
        let b = 2048.0;
        let p = 512usize;
        let pr_star = optimal_pr_continuous(&layers, b, p);
        // Discrete argmin over power-of-two grids (bandwidth-only:
        // compare words).
        let best_pr = (0..=9)
            .map(|k| 1usize << k)
            .min_by(|&a, &c| {
                let wa = integrated_model_batch(&layers, b, a, p / a).total.total();
                let wc = integrated_model_batch(&layers, b, c, p / c).total.total();
                m.seconds(wa).partial_cmp(&m.seconds(wc)).expect("finite")
            })
            .expect("non-empty");
        // The continuous optimum is within one power-of-two step of the
        // discrete winner.
        let ratio = pr_star / best_pr as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "continuous Pr* = {pr_star:.1}, discrete best = {best_pr}"
        );
    }

    #[test]
    fn weight_heavy_networks_prefer_larger_pr() {
        let heavy = mlp("heavy", &[4096, 4096, 4096]);
        let light = mlp("light", &[64, 64, 64]);
        let ph = optimal_pr_continuous(&heavy.weighted_layers(), 256.0, 256);
        let pl = optimal_pr_continuous(&light.weighted_layers(), 256.0, 256);
        assert!(ph > pl, "heavy {ph} vs light {pl}");
    }

    #[test]
    fn clamped_to_valid_range() {
        let net = mlp("m", &[8, 8]);
        let layers = net.weighted_layers();
        assert!(optimal_pr_continuous(&layers, 1e9, 16) >= 1.0);
        assert!(optimal_pr_continuous(&layers, 1e-9, 16) <= 16.0);
    }
}
