//! The pure-strategy costs: Eq. 3 (model), Eq. 4 (batch), Eq. 7
//! (domain), and the Eq. 6 redistribution cost.
//!
//! Eq. 3, 4 and 7 are the corners of Eq. 9 and are computed as such —
//! [`integrated::layer_cost`](super::integrated::layer_cost) is the one
//! place the per-layer terms are written; the tests below pin each
//! printed equation against hand-computed volumes.

use collectives::cost::{ceil_log2, frac, CostTerms};
use dnn::WeightedLayer;

use super::integrated::integrated_uniform;
use super::CostBreakdown;
use crate::strategy::LayerParallelism::{Domain, ModelBatch};

/// Eq. 3 — pure model parallelism over `p` processes with batch `b`:
///
/// ```text
/// Σ_{i=1..L} (α⌈log P⌉ + βB·(P−1)/P·d_i)
///   + 2·Σ_{i=2..L} (α⌈log P⌉ + βB·(P−1)/P·d_{i−1})
/// ```
pub fn pure_model(layers: &[WeightedLayer], b: f64, p: usize) -> CostBreakdown {
    integrated_uniform(layers, ModelBatch { pr: p, pc: 1 }, b)
}

/// Eq. 4 — pure batch parallelism over `p` processes:
///
/// ```text
/// 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|)
/// ```
///
/// (No `B`: with `Pr = 1` every batch-sized term of Eq. 8 carries the
/// factor `(Pr−1)/Pr = 0`.)
pub fn pure_batch(layers: &[WeightedLayer], p: usize) -> CostBreakdown {
    integrated_uniform(layers, ModelBatch { pr: 1, pc: p }, 0.0)
}

/// Eq. 7 — pure domain parallelism over `p` processes with batch `b`:
/// per-layer halo exchanges (forward on the input activation with
/// `⌊kh/2⌋` rows, backward on the output activation with `⌊kw/2⌋`
/// rows) plus the same ∆W all-reduce as pure batch. 1×1 convolutions
/// exchange nothing at all (the paper's special case), and neither does
/// a single process, which has no neighbour. FC layers get `kh = X_H`,
/// `kw = X_W` — the halo degenerates to (half of) the whole input,
/// which is why domain parallelism is "not applicable to fully
/// connected layers".
pub fn pure_domain(layers: &[WeightedLayer], b: f64, p: usize) -> CostBreakdown {
    integrated_uniform(layers, Domain { pd: p, pc: 1 }, b)
}

/// Eq. 6 — cost of redistributing the activations of one layer from a
/// batch distribution to a model distribution:
/// `α⌈log P⌉ + βB·(P−1)/P·d_i`. The paper notes this is asymptotically
/// free next to the model-parallel step that follows (3× larger), so
/// the strategy costs ignore it; it is exposed for the redistribution
/// analysis bench.
pub fn redistribution(d_i: usize, b: f64, p: usize) -> CostTerms {
    CostTerms::new(ceil_log2(p), b * frac(p) * d_i as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use dnn::zoo::{alexnet, mlp};

    #[test]
    fn batch_cost_is_weight_volume() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let p = 64;
        let c = pure_batch(&layers, p);
        let total_w: usize = layers.iter().map(|l| l.weights).sum();
        let expect_words = 2.0 * frac(p) * total_w as f64;
        assert!((c.total.total().words - expect_words).abs() < 1e-6);
        assert_eq!(c.total.allgather, CostTerms::ZERO);
        assert_eq!(c.total.halo, CostTerms::ZERO);
    }

    #[test]
    fn batch_bandwidth_saturates_for_large_p() {
        // Eq. 4: for P ≫ 1 the bandwidth cost is independent of P.
        let net = alexnet();
        let layers = net.weighted_layers();
        let w256 = pure_batch(&layers, 256).total.total().words;
        let w4096 = pure_batch(&layers, 4096).total.total().words;
        assert!((w4096 / w256 - 1.0).abs() < 0.01, "{w256} vs {w4096}");
    }

    #[test]
    fn model_cost_scales_with_batch() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let m = MachineModel::cori_knl();
        let c1 = pure_model(&layers, 256.0, 16).seconds(&m);
        let c2 = pure_model(&layers, 512.0, 16).seconds(&m);
        assert!(c2 > 1.9 * c1, "bandwidth term dominates and doubles");
    }

    #[test]
    fn model_first_layer_has_no_dx_allreduce() {
        // Eq. 3's second sum starts at i=2: "we do not need to
        // backpropagate the gradient beyond the first layer".
        let net = mlp("m", &[8, 16, 4]);
        let layers = net.weighted_layers();
        let c = pure_model(&layers, 4.0, 2);
        assert_eq!(c.layers[0].cost.dx_allreduce, CostTerms::ZERO);
        assert!(c.layers[1].cost.dx_allreduce.words > 0.0);
    }

    #[test]
    fn model_allgather_is_activation_volume() {
        // Eq. 3's first sum, by hand for B = 4, P = 2 on 8 → 16 → 4:
        // one ⌈log 2⌉ = 1 latency and B·(P−1)/P·d_i = 4·½·d_i words per
        // layer; the second sum moves 2·4·½·d_{i−1} from layer 2 on.
        let net = mlp("m", &[8, 16, 4]);
        let c = pure_model(&net.weighted_layers(), 4.0, 2);
        assert_eq!(c.layers[0].cost.allgather, CostTerms::new(1.0, 32.0));
        assert_eq!(c.layers[1].cost.allgather, CostTerms::new(1.0, 8.0));
        assert_eq!(c.layers[1].cost.dx_allreduce, CostTerms::new(2.0, 64.0));
        assert_eq!(c.total.total(), CostTerms::new(4.0, 104.0));
    }

    #[test]
    fn single_process_costs_nothing() {
        // One process has no peer and no neighbour: no all-gather, no
        // all-reduce, and no halo either.
        let net = alexnet();
        let layers = net.weighted_layers();
        let m = MachineModel::cori_knl();
        assert_eq!(pure_model(&layers, 256.0, 1).seconds(&m), 0.0);
        assert_eq!(pure_batch(&layers, 1).seconds(&m), 0.0);
        assert_eq!(pure_domain(&layers, 64.0, 1).total.total(), CostTerms::ZERO);
    }

    #[test]
    fn domain_halo_is_the_boundary_rows() {
        // Eq. 7's halo, by hand for AlexNet conv2 (5×5, 27×27×96 →
        // 27×27×256) at B = 64: ⌊5/2⌋ = 2 input rows forward,
        // 64·(27·96)·2 words, and 2 output rows backward,
        // 64·(27·256)·2 words, one message each.
        let net = alexnet();
        let c = pure_domain(&net.weighted_layers(), 64.0, 8);
        assert_eq!(c.layers[1].name, "conv2");
        assert_eq!(
            c.layers[1].cost.halo,
            CostTerms::new(2.0, 331_776.0 + 884_736.0)
        );
    }

    #[test]
    fn domain_halo_skips_1x1() {
        use dnn::zoo::resnet18ish;
        let net = resnet18ish();
        let layers = net.weighted_layers();
        let c = pure_domain(&layers, 64.0, 8);
        for lc in &c.layers {
            let l = layers.iter().find(|l| l.name == lc.name).unwrap();
            if l.halo_kernel() == (1, 1) {
                assert_eq!(lc.cost.halo, CostTerms::ZERO, "{}", lc.name);
            }
        }
    }

    #[test]
    fn domain_halo_is_independent_of_p() {
        // Boundary volume per process does not grow with P (only two
        // neighbours), unlike the all-gather of model parallelism.
        let net = alexnet();
        let layers = net.weighted_layers();
        let c8 = pure_domain(&layers, 64.0, 8);
        let c64 = pure_domain(&layers, 64.0, 64);
        assert_eq!(c8.total.halo, c64.total.halo);
    }

    #[test]
    fn fc_domain_halo_is_huge() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let c = pure_domain(&layers, 64.0, 8);
        let fc6 = &c.layers[5];
        let conv5 = &c.layers[4];
        assert!(
            fc6.cost.halo.words > conv5.cost.halo.words,
            "FC halo (whole input) exceeds a 3x3 conv halo"
        );
    }

    #[test]
    fn redistribution_is_a_third_of_model_step() {
        // Eq. 6 discussion: the redistribution is one-third of the
        // subsequent model-parallel per-layer cost (allgather + 2x
        // allreduce of comparable volume).
        let d = 10_000usize;
        let b = 64.0;
        let p = 16;
        let redist = redistribution(d, b, p);
        let model_layer = CostTerms::new(3.0 * ceil_log2(p), 3.0 * b * frac(p) * d as f64);
        assert!((model_layer.words / redist.words - 3.0).abs() < 1e-12);
    }
}
