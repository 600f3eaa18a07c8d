//! The integrated costs: Eq. 8 (model+batch, 1.5D) and Eq. 9
//! (model+batch+domain with a per-layer assignment).

use collectives::cost::{ceil_log2, frac, CostTerms};
use dnn::WeightedLayer;

use super::{CommCost, CostBreakdown};
use crate::machine::MachineModel;
use crate::strategy::LayerParallelism;

/// Eq. 8 — integrated model+batch parallelism on a `Pr × Pc` grid with
/// global batch `b`:
///
/// ```text
///   Σ_{i=1..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_i)
/// + 2·Σ_{i=2..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_{i−1})
/// + 2·Σ_i (α⌈log Pc⌉ + β·(Pc−1)/Pc·|W_i|/Pr)
/// ```
///
/// `Pr = 1` is Eq. 4 (pure batch) and `Pc = 1` is Eq. 3 (pure model).
pub fn integrated_model_batch(
    layers: &[WeightedLayer],
    b: f64,
    pr: usize,
    pc: usize,
) -> CostBreakdown {
    integrated_uniform(layers, LayerParallelism::ModelBatch { pr, pc }, b)
}

/// Eq. 9 with the same assignment on every layer — what Eq. 3, 4, 7 and
/// 8 are.
pub(super) fn integrated_uniform(
    layers: &[WeightedLayer],
    assignment: LayerParallelism,
    b: f64,
) -> CostBreakdown {
    integrated_full(layers, &vec![assignment; layers.len()], b)
}

/// Eq. 8 grid choice for `p` ranks: the divisor pair `(pr, pc)`
/// minimizing the analytic communication time on `machine`, subject to
/// every rank keeping a non-empty weight shard (`pr ≤ min dᵢ`) and a
/// non-empty batch shard (`pc ≤ b`). This is the planner both the
/// strategy search and the elastic trainer's shrink/regrow use, so a
/// regrown grid provably lands back on the same `(pr, pc)` the original
/// plan chose.
pub fn best_grid(
    layers: &[WeightedLayer],
    b: f64,
    p: usize,
    machine: &MachineModel,
) -> (usize, usize) {
    let max_pr = layers.iter().map(|l| l.d_out()).min().unwrap_or(1);
    let mut best = (1, p);
    let mut best_t = f64::INFINITY;
    for pr in 1..=p.min(max_pr) {
        if p % pr != 0 {
            continue;
        }
        let pc = p / pr;
        if pc as f64 > b {
            continue;
        }
        let t = integrated_model_batch(layers, b, pr, pc).seconds(machine);
        if t < best_t {
            best_t = t;
            best = (pr, pc);
        }
    }
    best
}

/// The Eq. 9 cost of a single layer under an explicit parallelism
/// choice. `first_layer` suppresses the ∆X all-reduce (no gradient
/// propagates past layer 1).
pub fn layer_cost(
    l: &WeightedLayer,
    assignment: LayerParallelism,
    b: f64,
    first_layer: bool,
) -> CommCost {
    let mut c = CommCost::ZERO;
    match assignment {
        LayerParallelism::ModelBatch { pr, pc } => {
            let b_loc = b / pc as f64;
            c.allgather = CostTerms::new(ceil_log2(pr), b_loc * frac(pr) * l.d_out() as f64);
            if !first_layer {
                c.dx_allreduce = CostTerms::new(
                    2.0 * ceil_log2(pr),
                    2.0 * b_loc * frac(pr) * l.d_in() as f64,
                );
            }
            c.dw_allreduce = CostTerms::new(
                2.0 * ceil_log2(pc),
                2.0 * frac(pc) * l.weights as f64 / pr as f64,
            );
        }
        LayerParallelism::Domain { pd, pc } => {
            let p = pd * pc;
            let b_loc = b / pc as f64;
            let (kh, kw) = l.halo_kernel();
            // Halos only exist when the domain is actually split.
            if pd > 1 {
                let fwd_rows = (kh / 2) as f64;
                let bwd_rows = (kw / 2) as f64;
                if fwd_rows > 0.0 {
                    c.halo += CostTerms::new(
                        1.0,
                        b_loc * (l.in_shape.w * l.in_shape.c) as f64 * fwd_rows,
                    );
                }
                if bwd_rows > 0.0 {
                    c.halo += CostTerms::new(
                        1.0,
                        b_loc * (l.out_shape.w * l.out_shape.c) as f64 * bwd_rows,
                    );
                }
            }
            // Weights are fully replicated: the ∆W all-reduce spans all
            // P processes at full |W| volume (Eq. 9's last sum).
            c.dw_allreduce = CostTerms::new(2.0 * ceil_log2(p), 2.0 * frac(p) * l.weights as f64);
        }
    }
    c
}

/// Eq. 9 — fully integrated model+batch+domain parallelism: each layer
/// carries its own [`LayerParallelism`] (the paper's `LM`/`LD`
/// partition, generalized to allow per-layer grids as the paper's
/// Figs. 7 and 10 do).
///
/// # Panics
///
/// Panics if `assignments.len() != layers.len()`.
pub fn integrated_full(
    layers: &[WeightedLayer],
    assignments: &[LayerParallelism],
    b: f64,
) -> CostBreakdown {
    assert_eq!(
        layers.len(),
        assignments.len(),
        "one assignment per weighted layer"
    );
    let mut out = CostBreakdown::default();
    for (idx, (l, &a)) in layers.iter().zip(assignments).enumerate() {
        out.push(&l.name, layer_cost(l, a, b, idx == 0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::pure::{pure_batch, pure_domain, pure_model};
    use crate::machine::MachineModel;
    use dnn::zoo::alexnet;

    #[test]
    fn pr1_reduces_to_pure_batch() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let p = 64;
        let int = integrated_model_batch(&layers, 2048.0, 1, p);
        assert_eq!(int, pure_batch(&layers, p));
        assert_eq!(int.total.allgather, CostTerms::ZERO);
    }

    #[test]
    fn pc1_reduces_to_pure_model() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let p = 64;
        let int = integrated_model_batch(&layers, 2048.0, p, 1);
        assert_eq!(int, pure_model(&layers, 2048.0, p));
        assert_eq!(int.total.dw_allreduce, CostTerms::ZERO);
    }

    #[test]
    fn dw_volume_shrinks_by_pr() {
        // The paper: "the all-reduce communication volume is now
        // reduced by a factor of Pr".
        let net = alexnet();
        let layers = net.weighted_layers();
        let b = 2048.0;
        let batch = integrated_model_batch(&layers, b, 1, 512);
        let grid = integrated_model_batch(&layers, b, 16, 32);
        let ratio = batch.total.dw_allreduce.words / grid.total.dw_allreduce.words;
        // (Pc−1)/Pc factors differ slightly: 511/512 vs 31/32.
        let expect = 16.0 * (511.0 / 512.0) / (31.0 / 32.0);
        assert!((ratio - expect).abs() < 1e-9, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn full_with_all_modelbatch_equals_eq8() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let assigns = vec![LayerParallelism::ModelBatch { pr: 8, pc: 64 }; layers.len()];
        let full = integrated_full(&layers, &assigns, 2048.0);
        assert_eq!(full, integrated_model_batch(&layers, 2048.0, 8, 64));
    }

    #[test]
    fn full_with_all_domain_pc1_equals_eq7() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let p = 64;
        let assigns = vec![LayerParallelism::Domain { pd: p, pc: 1 }; layers.len()];
        let full = integrated_full(&layers, &assigns, 512.0);
        assert_eq!(full, pure_domain(&layers, 512.0, p));
    }

    #[test]
    fn domain_with_pd1_has_no_halo() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let assigns = vec![LayerParallelism::Domain { pd: 1, pc: 64 }; layers.len()];
        let full = integrated_full(&layers, &assigns, 512.0);
        assert_eq!(full.total.halo, CostTerms::ZERO);
    }

    #[test]
    fn mixed_assignment_splits_by_layer_kind() {
        // Fig. 7-style: conv layers pure batch, FC layers on a grid.
        let net = alexnet();
        let layers = net.weighted_layers();
        let assigns: Vec<LayerParallelism> = layers
            .iter()
            .map(|l| {
                if l.is_conv() {
                    LayerParallelism::ModelBatch { pr: 1, pc: 512 }
                } else {
                    LayerParallelism::ModelBatch { pr: 16, pc: 32 }
                }
            })
            .collect();
        let full = integrated_full(&layers, &assigns, 2048.0);
        // Conv layers contribute no all-gather (pr = 1).
        for lc in full.layers.iter().take(5) {
            assert_eq!(lc.cost.allgather, CostTerms::ZERO, "{}", lc.name);
        }
        // FC layers do.
        assert!(full.layers[5].cost.allgather.words > 0.0);
    }

    #[test]
    fn integrated_beats_pure_batch_at_scale() {
        // The paper's headline regime: B=2048, P=512 — an intermediate
        // grid has lower total communication than pure batch.
        let net = alexnet();
        let layers = net.weighted_layers();
        let m = MachineModel::cori_knl();
        let batch = integrated_model_batch(&layers, 2048.0, 1, 512).seconds(&m);
        let best = (0..10)
            .map(|k| 1usize << k)
            .filter(|&pr| 512 % pr == 0)
            .map(|pr| integrated_model_batch(&layers, 2048.0, pr, 512 / pr).seconds(&m))
            .fold(f64::INFINITY, f64::min);
        assert!(best < batch, "best grid {best} vs pure batch {batch}");
    }

    #[test]
    #[should_panic(expected = "one assignment per weighted layer")]
    fn mismatched_assignment_length_panics() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let _ = integrated_full(&layers, &[], 64.0);
    }
}
