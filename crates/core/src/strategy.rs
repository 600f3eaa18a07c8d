//! Parallelization strategies: per-layer grid/domain assignments.
//!
//! The paper's framework assigns every weighted layer to either the
//! model+batch 1.5D scheme on a `Pr × Pc` grid (the `LM` set of Eq. 9)
//! or to domain+batch parallelism (`LD`), and its experiments
//! additionally vary the grid per layer group (pure batch for conv
//! layers in Fig. 7; domain for conv layers in Fig. 10). A
//! [`Strategy`] captures exactly that: one [`LayerParallelism`] per
//! weighted layer, all multiplying out to the same process count `P`
//! (switching distributions between layers is asymptotically free by
//! Eq. 6, which is why mixed grids are admissible).

use dnn::{Network, WeightedLayer};

use crate::compute::ComputeModel;
use crate::cost::{integrated_full, CostBreakdown};

/// How one layer's work is spread over the `P` processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerParallelism {
    /// The 1.5D integrated scheme (Fig. 5): weights split over `pr`,
    /// batch split over `pc`. `pr = 1` is pure batch, `pc = 1` pure
    /// model.
    ModelBatch {
        /// Model-parallel extent.
        pr: usize,
        /// Batch-parallel extent.
        pc: usize,
    },
    /// Domain+batch parallelism (Fig. 3): each sample's spatial domain
    /// split over `pd`, batch split over `pc`; weights fully
    /// replicated.
    Domain {
        /// Domain-parallel extent.
        pd: usize,
        /// Batch-parallel extent.
        pc: usize,
    },
}

impl LayerParallelism {
    /// Total processes this assignment uses.
    pub fn p(&self) -> usize {
        match *self {
            LayerParallelism::ModelBatch { pr, pc } => pr * pc,
            LayerParallelism::Domain { pd, pc } => pd * pc,
        }
    }

    /// The batch-parallel extent.
    pub fn pc(&self) -> usize {
        match *self {
            LayerParallelism::ModelBatch { pc, .. } => pc,
            LayerParallelism::Domain { pc, .. } => pc,
        }
    }

    /// The factor by which per-process *compute* shrinks beyond the
    /// batch split: `pr` for model parallelism (each process holds
    /// `1/pr` of the filters), `pd` for domain parallelism (each
    /// process convolves `1/pd` of the image).
    pub fn work_split(&self) -> usize {
        match *self {
            LayerParallelism::ModelBatch { pr, .. } => pr,
            LayerParallelism::Domain { pd, .. } => pd,
        }
    }
}

/// A full strategy: one assignment per weighted layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Descriptive name (used in reports).
    pub name: String,
    /// Total process count (every layer's assignment multiplies to
    /// this).
    pub p: usize,
    /// Per-weighted-layer assignments.
    pub layers: Vec<LayerParallelism>,
}

impl Strategy {
    /// Builds a strategy, checking every layer uses exactly `p`
    /// processes.
    pub fn new(
        name: impl Into<String>,
        p: usize,
        layers: Vec<LayerParallelism>,
    ) -> Result<Strategy, String> {
        for (i, l) in layers.iter().enumerate() {
            if l.p() != p {
                return Err(format!("layer {i} assignment {l:?} does not use P = {p}"));
            }
        }
        Ok(Strategy {
            name: name.into(),
            p,
            layers,
        })
    }

    /// Pure batch parallelism: `1 × P` everywhere (Fig. 2 / Eq. 4).
    pub fn pure_batch(p: usize, n_layers: usize) -> Strategy {
        Strategy {
            name: format!("batch(1x{p})"),
            p,
            layers: vec![LayerParallelism::ModelBatch { pr: 1, pc: p }; n_layers],
        }
    }

    /// Pure model parallelism: `P × 1` everywhere (Fig. 1 / Eq. 3).
    pub fn pure_model(p: usize, n_layers: usize) -> Strategy {
        Strategy {
            name: format!("model({p}x1)"),
            p,
            layers: vec![LayerParallelism::ModelBatch { pr: p, pc: 1 }; n_layers],
        }
    }

    /// Pure domain parallelism: domain split `P`, no batch split
    /// (Fig. 3 / Eq. 7).
    pub fn pure_domain(p: usize, n_layers: usize) -> Strategy {
        Strategy {
            name: format!("domain({p}x1)"),
            p,
            layers: vec![LayerParallelism::Domain { pd: p, pc: 1 }; n_layers],
        }
    }

    /// The same `Pr × Pc` grid for every layer — the paper's Fig. 6
    /// configuration ("some amount of model parallelism is used even in
    /// convolutional layers").
    pub fn uniform_grid(pr: usize, pc: usize, n_layers: usize) -> Strategy {
        Strategy {
            name: format!("grid({pr}x{pc})"),
            p: pr * pc,
            layers: vec![LayerParallelism::ModelBatch { pr, pc }; n_layers],
        }
    }

    /// Pure batch for convolutional layers, `pr × pc` for FC layers —
    /// the paper's improved Fig. 7 configuration.
    pub fn conv_batch_fc_grid(layers: &[WeightedLayer], pr: usize, pc: usize) -> Strategy {
        let p = pr * pc;
        Strategy {
            name: format!("conv-batch+fc({pr}x{pc})"),
            p,
            layers: layers
                .iter()
                .map(|l| {
                    if l.is_conv() {
                        LayerParallelism::ModelBatch { pr: 1, pc: p }
                    } else {
                        LayerParallelism::ModelBatch { pr, pc }
                    }
                })
                .collect(),
        }
    }

    /// Domain parallelism (`pd × pc`) for convolutional layers,
    /// `fc_pr × fc_pc` for FC layers — the paper's Fig. 10
    /// beyond-the-batch-limit configuration.
    pub fn domain_conv_fc_grid(
        layers: &[WeightedLayer],
        pd: usize,
        pc: usize,
        fc_pr: usize,
        fc_pc: usize,
    ) -> Result<Strategy, String> {
        if pd * pc != fc_pr * fc_pc {
            return Err(format!(
                "conv grid {pd}x{pc} and fc grid {fc_pr}x{fc_pc} disagree on P"
            ));
        }
        Ok(Strategy {
            name: format!("domain({pd}x{pc})+fc({fc_pr}x{fc_pc})"),
            p: pd * pc,
            layers: layers
                .iter()
                .map(|l| {
                    if l.is_conv() {
                        LayerParallelism::Domain { pd, pc }
                    } else {
                        LayerParallelism::ModelBatch {
                            pr: fc_pr,
                            pc: fc_pc,
                        }
                    }
                })
                .collect(),
        })
    }

    /// Per-iteration communication cost (Eq. 9 dispatch).
    pub fn comm_cost(&self, layers: &[WeightedLayer], b: f64) -> CostBreakdown {
        integrated_full(layers, &self.layers, b)
    }

    /// Per-iteration per-process compute time under a compute model.
    ///
    /// Each layer's per-process workload is `B/(pc·split)`
    /// sample-equivalents (its share of the global work divided over
    /// all `P` processes), charged at the compute model's efficiency
    /// for that workload and apportioned by the layer's FLOP share.
    /// Every `ModelBatch` assignment with `pr·pc = P` therefore charges
    /// exactly `t_iter(B/P)` — the paper's "cases with the same
    /// computational workload" accounting, which is why the compute
    /// portion of its Fig. 6/7 bars is constant across grid
    /// configurations. Domain assignments keep scaling below one
    /// sample per process (Fig. 10), where `t_iter` extrapolates
    /// linearly.
    pub fn compute_time(
        &self,
        net: &Network,
        layers: &[WeightedLayer],
        b: f64,
        model: &dyn ComputeModel,
    ) -> f64 {
        assert_eq!(
            layers.len(),
            self.layers.len(),
            "assignment/layer count mismatch"
        );
        let total_flops: f64 = layers.iter().map(|l| l.train_flops_per_sample()).sum();
        if total_flops == 0.0 {
            return 0.0;
        }
        layers
            .iter()
            .zip(&self.layers)
            .map(|(l, a)| {
                let share = l.train_flops_per_sample() / total_flops;
                let b_eq = b / (a.pc() * a.work_split()) as f64;
                model.iteration_time(net, b_eq) * share
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::KnlComputeModel;
    use dnn::zoo::alexnet;

    #[test]
    fn constructors_use_p_consistently() {
        let s = Strategy::uniform_grid(4, 8, 5);
        assert_eq!(s.p, 32);
        assert!(s.layers.iter().all(|l| l.p() == 32));
        let s = Strategy::pure_domain(16, 3);
        assert!(s.layers.iter().all(|l| l.p() == 16));
    }

    #[test]
    fn new_rejects_inconsistent_p() {
        let err = Strategy::new(
            "bad",
            8,
            vec![LayerParallelism::ModelBatch { pr: 2, pc: 2 }],
        )
        .unwrap_err();
        assert!(err.contains("does not use P = 8"));
    }

    #[test]
    fn conv_batch_fc_grid_splits_by_kind() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let s = Strategy::conv_batch_fc_grid(&layers, 16, 32);
        for (l, a) in layers.iter().zip(&s.layers) {
            match a {
                LayerParallelism::ModelBatch { pr: 1, pc: 512 } => assert!(l.is_conv()),
                LayerParallelism::ModelBatch { pr: 16, pc: 32 } => assert!(!l.is_conv()),
                other => panic!("unexpected assignment {other:?}"),
            }
        }
    }

    #[test]
    fn domain_grid_requires_consistent_p() {
        let net = alexnet();
        let layers = net.weighted_layers();
        assert!(Strategy::domain_conv_fc_grid(&layers, 2, 512, 16, 32).is_err());
        let s = Strategy::domain_conv_fc_grid(&layers, 2, 512, 32, 32).unwrap();
        assert_eq!(s.p, 1024);
    }

    #[test]
    fn uniform_grid_compute_matches_paper_accounting() {
        // Every pr×pc split of P=32 charges t_iter(B/32): the compute
        // bar is constant across grid configurations, as in the
        // paper's Figs. 6-7.
        let net = alexnet();
        let layers = net.weighted_layers();
        let cm = KnlComputeModel::fig4();
        let expect = crate::compute::ComputeModel::iteration_time(&cm, &net, 256.0 / 32.0);
        for (pr, pc) in [(1, 32), (4, 8), (32, 1)] {
            let s = Strategy::uniform_grid(pr, pc, layers.len());
            let t = s.compute_time(&net, &layers, 256.0, &cm);
            assert!(
                (t - expect).abs() < 1e-12 * expect,
                "{pr}x{pc}: {t} vs {expect}"
            );
        }
        // The Fig. 7 mixed strategy charges the same, too.
        let s = Strategy::conv_batch_fc_grid(&layers, 4, 8);
        let t = s.compute_time(&net, &layers, 256.0, &cm);
        assert!((t - expect).abs() < 1e-12 * expect);
    }

    #[test]
    fn domain_split_keeps_scaling_below_one_sample() {
        // Fig. 10: P > B — domain strategies keep reducing compute.
        let net = alexnet();
        let layers = net.weighted_layers();
        let cm = KnlComputeModel::fig4();
        let b = 512.0;
        let s1 = Strategy::domain_conv_fc_grid(&layers, 1, 512, 1, 512).unwrap();
        let s4 = Strategy::domain_conv_fc_grid(&layers, 4, 512, 4, 512).unwrap();
        let t1 = s1.compute_time(&net, &layers, b, &cm);
        let t4 = s4.compute_time(&net, &layers, b, &cm);
        assert!(t4 < t1 / 3.0, "domain split scales compute: {t1} -> {t4}");
    }

    #[test]
    fn more_processes_reduce_compute_time() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let cm = KnlComputeModel::fig4();
        let t64 =
            Strategy::uniform_grid(1, 64, layers.len()).compute_time(&net, &layers, 2048.0, &cm);
        let t512 =
            Strategy::uniform_grid(1, 512, layers.len()).compute_time(&net, &layers, 2048.0, &cm);
        assert!(t512 < t64);
    }

    #[test]
    fn comm_cost_dispatches_to_eq9() {
        let net = alexnet();
        let layers = net.weighted_layers();
        let s = Strategy::pure_batch(64, layers.len());
        let via_strategy = s.comm_cost(&layers, 2048.0);
        let direct = crate::cost::pure_batch(&layers, 64);
        assert_eq!(via_strategy.total.dw_allreduce, direct.total.dw_allreduce);
    }
}
