//! Multi-epoch mini-batch training with momentum SGD — the realistic
//! training loop around the per-iteration algebra of
//! [`crate::trainer`].
//!
//! The paper's Eq. 1 update is plain SGD; its §3 multiplies
//! per-iteration costs by `N/B` to get epoch times, and its large-batch
//! discussion cites momentum-family methods (Goyal et al., You et
//! al.). This module provides that loop: deterministic per-epoch
//! shuffles, mini-batches of `B`, optional momentum and weight decay —
//! and the same guarantee as the single-batch trainer: the distributed
//! `Pr × Pc` run reproduces the serial weight trajectory exactly,
//! because every mini-batch step is the same synchronous update.

use dnn::Network;
use mpsim::{NetModel, World, WorldStats};
use tensor::matmul::matmul;
use tensor::Matrix;

use distmm::dist::{col_shard, part_range};
use distmm::onep5d::Grid;

use crate::data::{accuracy, epoch_order, Dataset};
use crate::trainer::{
    apply_act, assemble_weights, backward_pass, extract_fc_layers, forward_pass, init_weights,
    optimizer_step, serial_step, shard_weights, FcLayer, Pass,
};

/// SGD variant parameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Learning rate η.
    pub lr: f64,
    /// Momentum coefficient μ (0 = plain SGD).
    pub momentum: f64,
    /// L2 weight decay λ (applied as `g + λ·w`).
    pub weight_decay: f64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }
}

/// Epoch-loop parameters.
#[derive(Debug, Clone, Copy)]
pub struct EpochConfig {
    /// The optimizer.
    pub sgd: SgdConfig,
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Seed for weight init and epoch shuffles.
    pub seed: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            sgd: SgdConfig::default(),
            epochs: 3,
            batch_size: 16,
            seed: 7,
        }
    }
}

/// One SGD update with momentum and weight decay:
/// `v ← μ·v + (g + λ·w)`, `w ← w − η·v`.
fn sgd_step(w: &mut Matrix, v: &mut Matrix, g: &[f64], cfg: &SgdConfig) {
    let (vs, ws) = (v.as_mut_slice(), w.as_mut_slice());
    for ((vi, wi), &gi) in vs.iter_mut().zip(ws.iter_mut()).zip(g) {
        *vi = cfg.momentum * *vi + gi + cfg.weight_decay * *wi;
        *wi -= cfg.lr * *vi;
    }
}

/// The deterministic mini-batch schedule: for each epoch, a shuffle of
/// the dataset cut into `B`-sized batches (the tail batch may be
/// short). Both serial and distributed trainers follow this schedule,
/// which is what makes them comparable step by step.
pub fn batch_schedule(n: usize, cfg: &EpochConfig) -> Vec<Vec<usize>> {
    let mut batches = Vec::new();
    for e in 0..cfg.epochs {
        let order = epoch_order(n, cfg.seed.wrapping_add(1000 + e as u64));
        for chunk in order.chunks(cfg.batch_size) {
            batches.push(chunk.to_vec());
        }
    }
    batches
}

/// Serial epoch-training outcome.
#[derive(Debug, Clone)]
pub struct EpochSerialResult {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Final weights.
    pub weights: Vec<Matrix>,
    /// Training accuracy after the final epoch.
    pub train_accuracy: f64,
}

fn forward_logits(layers: &[FcLayer], weights: &[Matrix], x: &Matrix) -> Matrix {
    let mut act = x.clone();
    for (l, w) in layers.iter().zip(weights) {
        act = matmul(w, &act);
        apply_act(l.act, &mut act);
    }
    act
}

/// Class predictions (argmax of logits) for a trained FC network.
pub fn predict(net: &Network, weights: &[Matrix], x: &Matrix) -> Vec<usize> {
    let layers = extract_fc_layers(net);
    let logits = forward_logits(&layers, weights, x);
    (0..logits.cols())
        .map(|c| {
            (0..logits.rows())
                .max_by(|&a, &b| {
                    logits
                        .get(a, c)
                        .partial_cmp(&logits.get(b, c))
                        .expect("finite logits")
                })
                .expect("non-empty logits")
        })
        .collect()
}

/// Serial mini-batch training over epochs.
pub fn train_epochs_serial(net: &Network, data: &Dataset, cfg: &EpochConfig) -> EpochSerialResult {
    let layers = extract_fc_layers(net);
    let mut weights = init_weights(&layers, cfg.seed);
    let mut velocity: Vec<Matrix> = weights
        .iter()
        .map(|w| Matrix::zeros(w.rows(), w.cols()))
        .collect();
    let batches = batch_schedule(data.len(), cfg);
    let per_epoch = batches.len() / cfg.epochs;
    let mut epoch_losses = vec![0.0; cfg.epochs];
    for (step, idx) in batches.iter().enumerate() {
        let (x, labels) = data.batch(idx);
        let sgd = |w: &mut [_], l, g: &_| sgd_step(&mut w[l], &mut velocity[l], g, &cfg.sgd);
        let (loss, _) = serial_step(&layers, &mut weights, x, &labels, false, sgd);
        epoch_losses[step / per_epoch] += loss / per_epoch as f64;
    }
    let preds = predict(net, &weights, &data.x);
    let train_accuracy = accuracy(&preds, &data.labels);
    EpochSerialResult {
        epoch_losses,
        weights,
        train_accuracy,
    }
}

/// Distributed epoch-training outcome.
pub struct EpochDistResult {
    /// Assembled final weights.
    pub weights: Vec<Matrix>,
    /// Virtual-time and traffic statistics.
    pub stats: WorldStats,
    /// Communication words charged per the executed collectives,
    /// aggregated as symbolic terms for cross-checking against `N/B ×`
    /// per-iteration costs.
    pub steps: usize,
}

/// Distributed mini-batch training on a `pr × pc` grid, following the
/// exact serial schedule.
pub fn train_epochs_1p5d(
    net: &Network,
    data: &Dataset,
    cfg: &EpochConfig,
    pr: usize,
    pc: usize,
    model: NetModel,
) -> EpochDistResult {
    let layers = extract_fc_layers(net);
    let batches = batch_schedule(data.len(), cfg);
    let steps = batches.len();
    let full = init_weights(&layers, cfg.seed);
    let (shards, stats) = World::run_with_stats(pr * pc, model, |comm| {
        let grid = Grid::new(comm, pr, pc).expect("grid tiles the world");
        let mut w_local = shard_weights(&layers, &full, std::slice::from_ref(&grid));
        let mut v_local: Vec<Matrix> = w_local
            .iter()
            .map(|w| Matrix::zeros(w.rows(), w.cols()))
            .collect();
        let mut apply = |w: &mut [Matrix], li: usize, dw: &[f64]| {
            sgd_step(&mut w[li], &mut v_local[li], dw, &cfg.sgd)
        };
        for (step, idx) in batches.iter().enumerate() {
            let (x, labels) = data.batch(idx);
            let b_global = x.cols();
            // Every mini-batch step is the trainer's blocking iteration
            // body on this batch's shard.
            let pass = Pass {
                grids: std::slice::from_ref(&grid),
                guard: None,
                layers: &layers,
                x_local: &col_shard(&x, pc, grid.j),
                labels_local: &labels[part_range(b_global, pc, grid.j)],
                b_global,
                iter: step,
                plan: None,
            };
            let tape = forward_pass(&pass, &w_local).expect("forward");
            let (sched, ..) =
                backward_pass(&pass, tape, &mut w_local, &mut apply, false).expect("backward");
            optimizer_step(&grid.row_comm, step, sched, &mut w_local, &mut apply).expect("step");
        }
        (grid.i, grid.j, w_local)
    });
    let weights = assemble_weights(&layers, shards.iter().map(|(i, j, w)| (*i, *j, w)));
    EpochDistResult {
        weights,
        stats,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_blobs;
    use dnn::zoo::mlp;

    fn max_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f64::max)
    }

    #[test]
    fn mlp_learns_blobs_to_high_accuracy() {
        let data = gaussian_blobs(8, 3, 90, 0.4, 5);
        let net = mlp("m", &[8, 16, 3]);
        let cfg = EpochConfig {
            sgd: SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
            },
            epochs: 25,
            batch_size: 15,
            seed: 2,
        };
        let r = train_epochs_serial(&net, &data, &cfg);
        assert!(r.train_accuracy > 0.9, "accuracy {}", r.train_accuracy);
        assert!(
            r.epoch_losses.last().unwrap() < &r.epoch_losses[0],
            "{:?}",
            r.epoch_losses
        );
    }

    #[test]
    fn momentum_accelerates_on_this_problem() {
        let data = gaussian_blobs(8, 3, 90, 0.4, 5);
        let net = mlp("m", &[8, 16, 3]);
        let base = EpochConfig {
            sgd: SgdConfig {
                lr: 0.05,
                momentum: 0.0,
                weight_decay: 0.0,
            },
            epochs: 6,
            batch_size: 15,
            seed: 2,
        };
        let with_m = EpochConfig {
            sgd: SgdConfig {
                momentum: 0.9,
                ..base.sgd
            },
            ..base
        };
        let plain = train_epochs_serial(&net, &data, &base);
        let fast = train_epochs_serial(&net, &data, &with_m);
        assert!(
            fast.epoch_losses.last().unwrap() < plain.epoch_losses.last().unwrap(),
            "momentum {:?} vs plain {:?}",
            fast.epoch_losses,
            plain.epoch_losses
        );
    }

    #[test]
    fn distributed_epochs_match_serial_with_momentum_and_decay() {
        let data = gaussian_blobs(8, 3, 36, 0.4, 9);
        let net = mlp("m", &[8, 12, 3]);
        let cfg = EpochConfig {
            sgd: SgdConfig {
                lr: 0.2,
                momentum: 0.9,
                weight_decay: 1e-3,
            },
            epochs: 3,
            batch_size: 12,
            seed: 4,
        };
        let serial = train_epochs_serial(&net, &data, &cfg);
        for (pr, pc) in [(1, 4), (2, 2), (4, 1), (3, 2)] {
            let dist = train_epochs_1p5d(&net, &data, &cfg, pr, pc, NetModel::free());
            let d = max_diff(&serial.weights, &dist.weights);
            assert!(d < 1e-9, "grid {pr}x{pc}: {d}");
        }
    }

    #[test]
    fn schedule_covers_every_sample_each_epoch() {
        let cfg = EpochConfig {
            epochs: 2,
            batch_size: 7,
            ..Default::default()
        };
        let batches = batch_schedule(20, &cfg);
        assert_eq!(batches.len(), 2 * 3); // ceil(20/7) = 3 per epoch
        let first_epoch: Vec<usize> = batches[..3].iter().flatten().cloned().collect();
        let mut sorted = first_epoch.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn predict_is_argmax() {
        let net = mlp("m", &[2, 3]);
        let layers = extract_fc_layers(&net);
        let weights = init_weights(&layers, 1);
        let data = gaussian_blobs(2, 3, 5, 0.1, 1);
        let preds = predict(&net, &weights, &data.x);
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 3));
    }
}
