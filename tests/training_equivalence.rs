//! End-to-end training equivalence: the distributed 1.5D trainer on
//! every grid shape reproduces serial SGD (the synchronous-consistency
//! property the paper's framework guarantees), across architectures,
//! learning rates, and batch sizes.

use integrated_parallelism::dnn::zoo::{mlp, rnn_unrolled};
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d, train_serial, TrainConfig,
};
use integrated_parallelism::mpsim::NetModel;
use integrated_parallelism::tensor::Matrix;

fn max_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.max_abs_diff(y))
        .fold(0.0, f64::max)
}

#[test]
fn every_grid_of_12_ranks_reproduces_serial() {
    let net = mlp("m", &[32, 24, 18, 6]);
    let (x, labels) = synthetic_data(&net, 36, 17);
    let cfg = TrainConfig {
        lr: 0.25,
        iters: 6,
        seed: 4,
    };
    let serial = train_serial(&net, &x, &labels, &cfg);
    for (pr, pc) in [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)] {
        let dist = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::free());
        let d = max_diff(&serial.weights, &dist.weights());
        assert!(d < 1e-9, "grid {pr}x{pc}: {d}");
        let losses = dist.losses();
        for (s, g) in serial.losses.iter().zip(&losses) {
            assert!((s - g).abs() < 1e-9, "grid {pr}x{pc}: loss {s} vs {g}");
        }
    }
}

#[test]
fn uneven_batch_and_width_shards_still_match() {
    // 35 samples over 4 column groups, widths 30/22/7 over 3 row
    // groups: nothing divides evenly anywhere. Then past the
    // batch-parallel limit: 2 samples over 4 column groups, so half the
    // batch shards are empty and contribute loss 0, not the NaN of a
    // mean over nothing.
    let net = mlp("uneven", &[13, 30, 22, 7]);
    let cfg = TrainConfig {
        lr: 0.15,
        iters: 5,
        seed: 9,
    };
    for (b, pr, pc) in [(35, 3, 4), (2, 1, 4), (2, 2, 4)] {
        let (x, labels) = synthetic_data(&net, b, 23);
        let serial = train_serial(&net, &x, &labels, &cfg);
        let dist = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::free());
        let d = max_diff(&serial.weights, &dist.weights());
        assert!(d < 1e-9, "B={b} grid {pr}x{pc}: {d}");
        for (s, g) in serial.losses.iter().zip(dist.losses()) {
            assert!(
                (s - g).abs() < 1e-9,
                "B={b} grid {pr}x{pc}: loss {s} vs {g}"
            );
        }
    }
}

#[test]
fn rnn_unrolled_trains_identically() {
    let net = rnn_unrolled(16, 20, 4, 5);
    let (x, labels) = synthetic_data(&net, 20, 31);
    let cfg = TrainConfig {
        lr: 0.2,
        iters: 6,
        seed: 12,
    };
    let serial = train_serial(&net, &x, &labels, &cfg);
    for (pr, pc) in [(2, 2), (4, 1), (1, 4)] {
        let dist = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::free());
        assert!(
            max_diff(&serial.weights, &dist.weights()) < 1e-9,
            "grid {pr}x{pc}"
        );
    }
}

#[test]
fn training_reduces_loss_and_replicas_agree_under_real_network_model() {
    // Run under the Cori model (nonzero α/β) to confirm timing
    // bookkeeping doesn't perturb numerics.
    let net = mlp("m", &[24, 32, 8]);
    let (x, labels) = synthetic_data(&net, 32, 3);
    let cfg = TrainConfig {
        lr: 0.4,
        iters: 20,
        seed: 5,
    };
    let dist = train_1p5d(&net, &x, &labels, &cfg, 2, 4, NetModel::cori_knl());
    let losses = dist.losses();
    assert!(losses.last().unwrap() < &(losses[0] * 0.9), "{losses:?}");
    assert!(dist.replica_divergence() < 1e-12);
    assert!(dist.stats.makespan() > 0.0, "virtual time advanced");
    assert!(dist.stats.max_comm() > 0.0, "communication was charged");
}

#[test]
fn deeper_and_wider_grids_agree_with_each_other() {
    // Transitivity check at a size where f64 noise could differ: all
    // grids must produce the same weights as each other (not just
    // close to serial).
    let net = mlp("m", &[40, 64, 48, 10]);
    let (x, labels) = synthetic_data(&net, 48, 77);
    let cfg = TrainConfig {
        lr: 0.1,
        iters: 4,
        seed: 21,
    };
    let a = train_1p5d(&net, &x, &labels, &cfg, 2, 8, NetModel::free());
    let b = train_1p5d(&net, &x, &labels, &cfg, 8, 2, NetModel::free());
    assert!(max_diff(&a.weights(), &b.weights()) < 1e-9);
}
