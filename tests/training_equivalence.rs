//! End-to-end training equivalence: the distributed 1.5D trainer on
//! every grid shape reproduces serial SGD (the synchronous-consistency
//! property the paper's framework guarantees), across architectures,
//! learning rates, and batch sizes.

use integrated_parallelism::dnn::zoo::{mlp, rnn_unrolled};
use integrated_parallelism::dnn::{LayerSpec, NetworkBuilder, Shape};
use integrated_parallelism::integrated::cnn::{
    synthetic_images, train_cnn_domain, train_cnn_serial,
};
use integrated_parallelism::integrated::data::gaussian_blobs;
use integrated_parallelism::integrated::epochs::{
    train_epochs_1p5d, train_epochs_serial, EpochConfig, SgdConfig,
};
use integrated_parallelism::integrated::mixed::train_mixed;
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d, train_1p5d_scheduled, train_serial, TrainConfig,
};
use integrated_parallelism::integrated::{LayerParallelism, Strategy};
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

/// The weights of `mlp [40, 64, 48, 10]` after 3 iterations on `pr × pc`:
/// `[blocking, scheduled]` (`train_1p5d`, `train_1p5d_scheduled`), each
/// `[free, cori_knl]`.
fn weights_by_trainer_and_model(pr: usize, pc: usize) -> [[Vec<Matrix>; 2]; 2] {
    let net = mlp("m", &[40, 64, 48, 10]);
    let (x, labels) = synthetic_data(&net, 48, 77);
    let cfg = TrainConfig {
        lr: 0.1,
        iters: 3,
        seed: 21,
    };
    let models = [NetModel::free(), NetModel::cori_knl()];
    [
        models.map(|m| train_1p5d(&net, &x, &labels, &cfg, pr, pc, m).weights()),
        models.map(|m| {
            let plan = OverlapPlan::default();
            train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, m, plan).weights()
        }),
    ]
}

/// On a power-of-two group every word is summed by one butterfly,
/// whichever schedule the network model selects and wherever the word
/// sits in its message: recursive doubling pairs the ranks in recursive
/// halving's order. So the blocking trainer (one sum per layer) and the
/// scheduled one (the sums fused into buckets) leave the same weight
/// bits, and so do the free and the Cori KNL models (the first selects
/// halving everywhere, the second doubling for small messages), on
/// every power-of-two grid of this file.
#[test]
fn power_of_two_grids_keep_their_bits_across_schedules_and_models() {
    for (pr, pc) in [(1, 4), (2, 2), (4, 1), (2, 4), (2, 8), (8, 2)] {
        let runs = weights_by_trainer_and_model(pr, pc);
        let want = &runs[0][0];
        for (k, run) in runs.iter().flatten().enumerate() {
            assert!(run == want, "grid {pr}x{pc} run {k}");
        }
    }
}

/// Off a power of two a word's tree is rooted at the block its cut puts
/// it in, under both schedules the model picks between (Bruck's rounds
/// and the gather-sum, which reduces in their order), so for the same
/// trainer the free and the Cori KNL models leave the same weight bits.
/// The blocking and the scheduled trainer are not compared here: the
/// first cuts each layer's sum into `P` blocks alone, the second cuts a
/// bucket of several layers' sums, so a word can fall in another block
/// and be summed in another order.
#[test]
fn the_network_model_moves_no_weight_bit_off_a_power_of_two() {
    for (pr, pc) in [(1, 7), (2, 7), (1, 12), (1, 15), (3, 5)] {
        for (k, [free, knl]) in weights_by_trainer_and_model(pr, pc).iter().enumerate() {
            assert!(free == knl, "grid {pr}x{pc} trainer {k}");
        }
    }
}

/// The top of a chain is input-split only where the rule fires — two or
/// more layers, `d_out < 2·d_in` — and every case reproduces serial SGD:
/// a one-layer net and a top with `d_out ≥ 2·d_in` keep the output split
/// (blocking and scheduled, replicas to the bit), and per-layer grids
/// whose batch split changes into the top gather the layer below's
/// output, re-lay it and cut the top's block from it, and gather the
/// top's `∆X` blocks back for the relayout the other way.
#[test]
fn the_input_split_rule_and_its_exceptions_reproduce_serial() {
    let cfg = TrainConfig {
        lr: 0.2,
        iters: 4,
        seed: 5,
    };
    let free = NetModel::free();
    for dims in [&[24, 12][..], &[16, 8, 20], &[20, 14, 9, 6]] {
        let net = mlp("rule", dims);
        let (x, labels) = synthetic_data(&net, 18, 29);
        let serial = train_serial(&net, &x, &labels, &cfg);
        for (pr, pc) in [(2, 3), (4, 1), (3, 2)] {
            let plan = OverlapPlan::default();
            let runs = [
                train_1p5d(&net, &x, &labels, &cfg, pr, pc, free),
                train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, free, plan),
            ];
            for dist in runs {
                let at = format!("{dims:?} grid {pr}x{pc}");
                assert!(max_diff(&serial.weights, &dist.weights()) < 1e-9, "{at}");
                for (s, g) in serial.losses.iter().zip(dist.losses()) {
                    assert!((s - g).abs() < 1e-9, "{at}: loss {s} vs {g}");
                }
                assert_eq!(dist.replica_divergence(), 0.0, "{at}");
            }
        }
    }
    let net = mlp("relaid-top", &[16, 24, 12, 6]);
    let (x, labels) = synthetic_data(&net, 24, 3);
    let serial = train_serial(&net, &x, &labels, &cfg);
    for shapes in [
        [(2, 2), (1, 4), (4, 1)],
        [(4, 1), (4, 1), (2, 2)],
        [(1, 4), (2, 2), (2, 2)],
    ] {
        let rows = shapes.map(|(pr, pc)| LayerParallelism::ModelBatch { pr, pc });
        let strategy = Strategy::new("relaid", 4, rows.to_vec()).expect("grids tile P");
        let r = train_mixed(&net, &x, &labels, &cfg, &strategy, free).expect("one grid per layer");
        assert!(max_diff(&serial.weights, &r.weights) < 1e-9, "{shapes:?}");
    }
}

/// FNV-1a over the bits of every number handed to it, in order.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn put(&mut self, vals: &[f64]) {
        for b in vals.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn mats<'a>(&mut self, ms: impl IntoIterator<Item = &'a Matrix>) {
        for m in ms {
            self.put(m.as_slice());
        }
    }
}

/// Every trainer's final weights and losses, to the bit, against
/// digests recorded while each trainer still formed (and, distributed,
/// all-reduced) the gradient of its network input. Nothing reads that
/// gradient, so no weight and no loss may move when it stops being
/// formed: the serial trainers and each distributed one on two grids,
/// the 1.5D runs with and without the bucket scheduler, per-layer grids
/// with the first layer on either side of the relayout, the momentum
/// epoch loop, and a CNN whose first convolution is strided.
///
/// Re-recorded once, when all-reduces began running the selected
/// schedule: on the free model every power-of-two group sums by
/// recursive halving. A 2-rank sum is the ring's one addition in either
/// order and gathers do no arithmetic, so only the digests with a
/// 4-rank group moved — `train_1p5d` (its 4 × 1 grid's ∆X) and
/// `train_mixed` (its 1 × 4 and 4 × 1 layers); the serial trainers, the
/// 2 × 2 / 2 × 3 / 3 × 1 grids and the CNN kept theirs.
///
/// Re-recorded a second time, for `train_1p5d_scheduled` alone, when the
/// forward prefetch was deleted: its 2 × 3 run had used it, and the
/// prefetch summed each layer's partial product block by block over the
/// gathered rows (a re-association of the one GEMM the forward now runs),
/// so that run's weights and losses moved by rounding. The other seven
/// digests hold to the bit.
///
/// Re-recorded a third time, for `train_cnn_domain` alone, when its conv
/// `∆W` came to be summed the way Eq. 9 prices it: every conv layer's
/// strip partial in one bucket summed over the whole grid, instead of
/// over the strips and then over the batch shards, and the head's `∆W`
/// bucketed as the scheduled FC trainers bucket theirs. The sums
/// associate differently, so that run's weights and losses moved by
/// rounding. The other seven digests hold to the bit.
///
/// Re-recorded a fourth time, for the two CNN trainers alone, when a
/// convolution's `∆X` became a gather — the forward kernel run on `∆Y`
/// framed in zeros with the kernel rotated — instead of a `Wᵀ·∆Y` GEMM
/// scattered by col2im: each `∆X` element sums the same products in
/// another order, so both runs' weights and losses moved by rounding.
/// The six FC digests hold to the bit.
///
/// Re-recorded a fifth time, for `train_cnn_domain` alone, when
/// max-pooling's `∆X` became a gather: each rank fetches the `∆Y` rows
/// (with their argmax) whose windows touch its own `∆X` rows and adds
/// the gradients landing there in serial `(n, c, oy, ox)` order, where
/// the owner used to add each producing strip's partial sum. Where an
/// input is the maximum of windows on two strips, the sum associates
/// as the serial trainer's now, so that run's weights and losses moved
/// by rounding. The serial CNN and the six FC digests hold to the bit.
///
/// Re-recorded a sixth time, for `train_cnn_domain` alone, when only the
/// stages whose strips hold a kernel stayed domain-parallel: on the
/// 3 × 1 grid the second convolution runs on whole images past one
/// relayout, and on both grids each rank's partial loss and the head's
/// `∆W` cover only the images it holds, summed over the whole grid
/// instead of over the batch shards of a replicated head. The sums
/// associate differently, so that run's weights and losses moved by
/// rounding. The serial CNN and the six FC digests hold to the bit.
///
/// Re-recorded a seventh time, for the four distributed FC trainers,
/// when the top layer became input-split: on every grid with `Pr > 1`
/// the logits are a sum over `Pr` of partial products, where each was
/// one dot product, and the top's `∆W` shards are its columns, fused
/// into other buckets. Those runs' weights and losses moved by rounding.
/// The serial trainers and both CNN digests (the head runs on `Pr = 1`)
/// hold to the bit.
///
/// Re-recorded an eighth time, for `train_1p5d_scheduled` alone, when
/// the bucket size gave way to the α–β rule: its 2 × 3 run had cut
/// 64-word buckets under the free model (the top and layer 1 in one, layer
/// 0 in another), and now runs beside a 100 MFLOP/s core, where the rule
/// launches one bucket per layer. A sum over 3 ranks adds in an order that
/// turns with the block a word falls in, so the moved boundaries moved
/// that run's weights and losses by rounding. The other seven digests hold
/// to the bit.
///
/// Re-recorded a ninth time, for `train_1p5d_scheduled` and
/// `train_cnn_domain`, when the bucket rule took the least-drain cut of
/// its clock and the CNN's head and trunk came to share one chain of
/// buckets. The scheduled 2 × 3 slow-core run now cuts two buckets (the
/// top two layers', then layer 0's), which its clock prices no slower
/// than one per layer; the CNN's 3 × 1 run sums its head's `∆W` and its
/// trunk's in one bucket under the free model, so on the 3-rank group
/// each word's order of addition turns with the block it now falls in.
/// Both runs' weights and losses moved by rounding; their other grids
/// (2 × 2) and the six other digests hold to the bit.
#[test]
fn every_trainer_keeps_its_weights_and_losses_to_the_bit() {
    let free = NetModel::free();
    let net = mlp("digest", &[24, 20, 12, 5]);
    let (x, labels) = synthetic_data(&net, 18, 41);
    let cfg = TrainConfig {
        lr: 0.2,
        iters: 3,
        seed: 6,
    };
    let mut got: Vec<(&str, u64)> = Vec::new();

    let mut d = Digest::new();
    let serial = train_serial(&net, &x, &labels, &cfg);
    d.put(&serial.losses);
    d.mats(&serial.weights);
    got.push(("train_serial", d.0));

    let mut d = Digest::new();
    for (pr, pc) in [(2, 3), (4, 1)] {
        let r = train_1p5d(&net, &x, &labels, &cfg, pr, pc, free);
        for rank in &r.per_rank {
            d.put(&rank.partial_losses);
            d.mats(&rank.weight_shards);
        }
    }
    got.push(("train_1p5d", d.0));

    let mut d = Digest::new();
    // Beside a 100 MFLOP/s core layer 0's backward hides the bucket of
    // the two layers above it, and the rule launches two buckets; under
    // the free model all three layers share one.
    let slow_core = NetModel {
        flops: 1e8,
        ..NetModel::cori_knl()
    };
    for (pr, pc, model) in [(2, 2, free), (2, 3, slow_core)] {
        let r = train_1p5d_scheduled(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            OverlapPlan::default(),
        );
        for rank in &r.per_rank {
            d.put(&rank.partial_losses);
            d.mats(&rank.weight_shards);
        }
    }
    got.push(("train_1p5d_scheduled", d.0));

    let mut d = Digest::new();
    for shapes in [[(1, 4), (2, 2), (4, 1)], [(4, 1), (2, 2), (1, 4)]] {
        let rows = shapes.map(|(pr, pc)| LayerParallelism::ModelBatch { pr, pc });
        let strategy = Strategy::new("digest", 4, rows.to_vec()).expect("grids tile P");
        let r = train_mixed(&net, &x, &labels, &cfg, &strategy, free).expect("one grid per layer");
        d.mats(&r.weights);
    }
    got.push(("train_mixed", d.0));

    let data = gaussian_blobs(8, 3, 30, 0.4, 9);
    let blobs = mlp("digest-blobs", &[8, 12, 3]);
    let ecfg = EpochConfig {
        sgd: SgdConfig {
            lr: 0.2,
            momentum: 0.9,
            weight_decay: 1e-3,
        },
        epochs: 2,
        batch_size: 12,
        seed: 4,
    };
    let mut d = Digest::new();
    let serial = train_epochs_serial(&blobs, &data, &ecfg);
    d.put(&serial.epoch_losses);
    d.mats(&serial.weights);
    got.push(("train_epochs_serial", d.0));
    let mut d = Digest::new();
    for (pr, pc) in [(2, 2), (3, 1)] {
        d.mats(&train_epochs_1p5d(&blobs, &data, &ecfg, pr, pc, free).weights);
    }
    got.push(("train_epochs_1p5d", d.0));

    let cnn = NetworkBuilder::new("digest-cnn", Shape::new(2, 13, 7))
        .conv_relu(4, 3, 2, 1)
        .layer(LayerSpec::MaxPool { k: 2, stride: 1 })
        .conv_relu(3, 3, 1, 1)
        .layer(LayerSpec::FullyConnected { out: 10 })
        .layer(LayerSpec::ReLU)
        .layer(LayerSpec::FullyConnected { out: 4 })
        .build()
        .unwrap();
    let (images, img_labels) = synthetic_images(&cnn, 6, 13);
    let ccfg = TrainConfig {
        lr: 0.05,
        iters: 2,
        seed: 3,
    };
    let mut d = Digest::new();
    let serial = train_cnn_serial(&cnn, &images, &img_labels, &ccfg);
    d.put(&serial.losses);
    d.mats(serial.conv_weights.iter().chain(&serial.fc_weights));
    got.push(("train_cnn_serial", d.0));
    let mut d = Digest::new();
    for (pd, pc) in [(2, 2), (3, 1)] {
        let r = train_cnn_domain(&cnn, &images, &img_labels, &ccfg, pd, pc, free);
        for rank in &r.per_rank {
            d.put(&rank.partial_losses);
            d.mats(rank.conv_weights.iter().chain(&rank.fc_weights));
        }
    }
    got.push(("train_cnn_domain", d.0));

    let want: &[(&str, u64)] = &[
        ("train_serial", 0xa396_1dad_f000_2059),
        ("train_1p5d", 0xf98a_be41_0b92_041a),
        ("train_1p5d_scheduled", 0x4521_1d99_c17f_db45),
        ("train_mixed", 0x5a1e_02c5_ca9e_73f2),
        ("train_epochs_serial", 0x3078_65db_970d_34c2),
        ("train_epochs_1p5d", 0x8e46_86a7_a74e_ec82),
        ("train_cnn_serial", 0xc360_97ff_e36b_00ae),
        ("train_cnn_domain", 0x23ed_ba53_270c_0551),
    ];
    assert_eq!(got, want);
}
