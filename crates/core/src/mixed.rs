//! Executable training with **per-layer process grids** — the paper's
//! Fig. 7 / Fig. 10 structure where different layers use different
//! `Pr × Pc` factorizations of the same `P`, glued together by the
//! Eq. 6 redistribution (which the paper shows is asymptotically free).
//!
//! Every weighted layer `l` gets its own `(Pr_l, Pc_l)`; between
//! layers, activations (forward) and activation gradients (backward)
//! are re-laid-out with `distmm::cols::redistribute_cols` — pair-wise
//! sends of exactly the overlap volumes, with one designated sender
//! per source replica group. The result is still synchronous SGD: all
//! grid sequences reproduce the serial trajectory exactly, which the
//! tests pin down (including the Fig. 7 pattern of `1 × P` early
//! layers feeding grid-parallel late layers).

use dnn::Network;
use mpsim::{NetModel, TraceConfig, WorldStats};
use tensor::Matrix;

use crate::strategy::{LayerParallelism, Strategy};
use crate::trainer::{extract_fc_layers, train_grid, TrainConfig};

/// Outcome of a mixed-grid run.
pub struct MixedResult {
    /// Assembled final weights.
    pub weights: Vec<Matrix>,
    /// Virtual-time and traffic statistics.
    pub stats: WorldStats,
}

/// Distributed full-batch SGD with per-layer grids: the trainer's one
/// iteration body ([`crate::trainer`]) on the grids of `strategy`, every
/// collective blocking. `strategy` must assign one
/// [`LayerParallelism::ModelBatch`] grid to each weighted layer
/// ([`Strategy::new`] has already checked that each tiles `P`); a
/// `Domain` row or a wrong layer count is an `Err`.
pub fn train_mixed(
    net: &Network,
    x: &Matrix,
    labels: &[usize],
    cfg: &TrainConfig,
    strategy: &Strategy,
    model: NetModel,
) -> Result<MixedResult, String> {
    let layers = extract_fc_layers(net);
    if strategy.layers.len() != layers.len() {
        let (rows, n_layers) = (strategy.layers.len(), layers.len());
        return Err(format!("{rows} grids for {n_layers} weighted layers"));
    }
    let grid_of = |(l, row): (usize, &LayerParallelism)| match *row {
        LayerParallelism::ModelBatch { pr, pc } => Ok((pr, pc)),
        LayerParallelism::Domain { .. } => Err(format!("layer {l}: {row:?} is not a grid")),
    };
    let grids = (strategy.layers.iter().enumerate())
        .map(grid_of)
        .collect::<Result<Vec<_>, _>>()?;
    let off = TraceConfig::disabled();
    let (run, _) = train_grid(net, x, labels, cfg, &grids, model, off, None);
    // Layer `l`'s blocks sit on batch group j = 0 of its own grid: the
    // ranks `i · pc`.
    let stack = |(l, &(pr, pc)): (usize, &(usize, usize))| {
        layers[l].stack((0..pr).map(|i| &run.per_rank[i * pc].weight_shards[l]))
    };
    Ok(MixedResult {
        weights: grids.iter().enumerate().map(stack).collect(),
        stats: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{synthetic_data, train_1p5d, train_serial};
    use collectives::cost::{bruck_allgather, reduce_scatter_exact};
    use dnn::zoo::mlp;

    /// One `ModelBatch` row per `(pr, pc)`.
    fn grids(p: usize, shapes: &[(usize, usize)]) -> Strategy {
        let rows = shapes
            .iter()
            .map(|&(pr, pc)| LayerParallelism::ModelBatch { pr, pc });
        Strategy::new("test", p, rows.collect()).expect("every grid tiles P")
    }

    fn max_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn uniform_mixed_grids_match_serial() {
        // Sanity: when every layer uses the same grid, mixed == plain.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 8,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let mixed = grids(4, &[(2, 2); 3]);
        let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::free()).unwrap();
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9);
    }

    #[test]
    fn fig7_pattern_matches_serial() {
        // First layer pure batch (1xP), later layers on a grid — the
        // paper's Fig. 7 structure, executable.
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 5,
            seed: 8,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let mixed = grids(4, &[(1, 4), (2, 2), (2, 2)]);
        let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::free()).unwrap();
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9);
    }

    #[test]
    fn every_layer_different_grid_matches_serial() {
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.15,
            iters: 4,
            seed: 6,
        };
        let serial = train_serial(&net, &x, &labels, &cfg);
        let mixed = grids(8, &[(1, 8), (4, 2), (8, 1)]);
        let r = train_mixed(&net, &x, &labels, &cfg, &mixed, NetModel::free()).unwrap();
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9);
    }

    #[test]
    fn relayout_traffic_is_charged() {
        let net = mlp("m", &[16, 24, 6]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 2,
        };
        let same = grids(4, &[(2, 2); 2]);
        let switching = grids(4, &[(1, 4), (4, 1)]);
        let a = train_mixed(&net, &x, &labels, &cfg, &same, NetModel::cori_knl()).unwrap();
        let b = train_mixed(&net, &x, &labels, &cfg, &switching, NetModel::cori_knl()).unwrap();
        // The switching schedule must pay redistribution words the
        // uniform one doesn't (its ∆W/∆X collectives differ too, so
        // only assert presence of the relayout: distinct totals and
        // nonzero traffic).
        assert!(a.stats.total_words() > 0);
        assert!(b.stats.total_words() > 0);
        assert_ne!(a.stats.total_words(), b.stats.total_words());
    }

    #[test]
    fn a_repeated_shape_is_the_uniform_trainer_to_the_bit() {
        let net = mlp("m", &[16, 24, 12, 6]);
        let (x, labels) = synthetic_data(&net, 24, 3);
        let cfg = TrainConfig {
            lr: 0.2,
            iters: 3,
            seed: 8,
        };
        let knl = NetModel::cori_knl();
        for (pr, pc) in [(2, 3), (4, 2), (1, 8)] {
            let mixed = grids(pr * pc, &[(pr, pc); 3]);
            let m = train_mixed(&net, &x, &labels, &cfg, &mixed, knl).unwrap();
            let u = train_1p5d(&net, &x, &labels, &cfg, pr, pc, knl);
            assert!(m.weights == u.weights(), "grid {pr}x{pc}: weights");
            // Per-rank counters and final clocks: building a grid per
            // layer moves neither, and every GEMM is charged.
            assert_eq!(m.stats, u.stats, "grid {pr}x{pc}");
        }
    }

    #[test]
    fn fig7_pattern_pays_exactly_the_eq6_relayout() {
        // Batch head, pure-model tail: the one boundary Eq. 6 prices.
        // Words are decided by shapes alone, so what the head and the
        // tail move for themselves is what the uniform runs of the two
        // sub-networks move; the rest is the relayout.
        let (p, b, dims) = (4, 24, [16, 24, 12, 6]);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 2,
        };
        let knl = NetModel::cori_knl();
        let net = mlp("m", &dims);
        let (x, labels) = synthetic_data(&net, b, 3);
        let fig7 = grids(p, &[(1, p), (p, 1), (p, 1)]);
        let r = train_mixed(&net, &x, &labels, &cfg, &fig7, knl).unwrap();
        let uniform_words = |dims: &[usize], pr: usize, pc: usize| {
            let part = mlp("part", dims);
            let (x, labels) = synthetic_data(&part, b, 3);
            let run = train_1p5d(&part, &x, &labels, &cfg, pr, pc, knl);
            run.stats.total_words()
        };
        // The tail's own run stops at its input, but here its first
        // layer's ∆X is read — it goes back through the relayout — so
        // the tail also moves that gradient's reduce-scatter over the
        // P-rank column group and, the relayout reading full depth, the
        // gather of its blocks back: (P−1)/P of the 576 words each.
        let n = (dims[1] * b) as f64;
        let dx = reduce_scatter_exact(p, n) + bruck_allgather(p, n);
        let tail_dx = (p as f64 * dx.words) as u64;
        let own = uniform_words(&dims[..2], 1, p) + uniform_words(&dims[1..], p, 1) + tail_dx;
        // Forward, Eq. 6 itself: every rank gathers the (P−1)/P of the
        // d₁ × B activation it lacks. Backward: ∆X is replicated, and
        // its one sender re-seeds the other P − 1 batch shards.
        let lacking = dims[1] * b * (p - 1) / p;
        let eq6 = (p * lacking + lacking) as u64;
        assert_eq!(r.stats.total_words() - own, eq6);
        assert!(r.stats.max_compute() > 0.0, "the GEMMs are on the clock");
    }

    #[test]
    fn a_strategy_that_is_not_one_grid_per_layer_is_rejected() {
        let net = mlp("m", &[16, 24, 6]);
        let (x, labels) = synthetic_data(&net, 16, 3);
        let cfg = TrainConfig {
            lr: 0.1,
            iters: 1,
            seed: 2,
        };
        let run = |s: &Strategy| train_mixed(&net, &x, &labels, &cfg, s, NetModel::free());
        let row = LayerParallelism::ModelBatch { pr: 2, pc: 3 };
        assert!(Strategy::new("wrong P", 4, vec![row; 2]).is_err());
        assert!(run(&grids(4, &[(2, 2)])).is_err(), "one grid, two layers");
        let domain = Strategy::pure_domain(4, 2);
        let err = run(&domain).err().expect("a Domain row is no grid");
        assert!(err.contains("layer 0"), "{err}");
        assert!(run(&grids(4, &[(2, 2); 2])).is_ok());
    }
}
