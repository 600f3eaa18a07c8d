//! An *executed* Fig. 10: integrated batch+domain CNN training past
//! the batch-parallel limit. With B = 4 images, pure batch parallelism
//! stops at P = 4; splitting each image into strips lets P grow to 8
//! and 16 while the weights keep following the exact serial SGD
//! trajectory (the 2 × 8 row shows the other way past the limit: more
//! batch shards than images, half of them empty). Only conv1/LRN/pool1
//! run on strips, the stages whose strips hold a kernel; one relayout
//! then hands whole images to conv2–5 and the head, which run
//! batch-parallel over all P ranks, most of them holding no image at
//! B = 4. Reports executed
//! virtual times, words, and the compute/comm split per configuration,
//! and exits non-zero when any grid's weights or losses stray more than
//! 1e-9 from the serial run's or its replicas differ in a bit.
//!
//! ```text
//! cargo run -p bench --bin fig10_exec
//! ```

use bench::parse_args;
use dnn::zoo::mini_alexnet;
use integrated::cnn::{synthetic_images, train_cnn_domain, train_cnn_serial};
use integrated::report::{fmt_seconds, Table};
use integrated::trainer::TrainConfig;
use mpsim::NetModel;

fn main() {
    let args = parse_args();
    // The scaled AlexNet: strided conv1, overlapping 3x3/2 pools, five
    // convs, FC head — the paper's network shrunk to executable size.
    let net = mini_alexnet();
    let b = 4usize;
    let (x, labels) = synthetic_images(&net, b, 21);
    let cfg = TrainConfig {
        lr: 0.05,
        iters: 3,
        seed: 13,
    };
    let serial = train_cnn_serial(&net, &x, &labels, &cfg);

    let mut t = Table::new(
        format!(
            "executed beyond-batch-limit scaling: {} with B = {b} images",
            net.name
        ),
        &[
            "grid (pd x pc)",
            "P",
            "makespan",
            "comm",
            "compute",
            "words",
            "max |w - serial|",
        ],
    );
    let mut strayed = Vec::new();
    for (pd, pc) in [(1usize, 2usize), (1, 4), (2, 4), (4, 4), (2, 8)] {
        let dist = train_cnn_domain(&net, &x, &labels, &cfg, pd, pc, NetModel::cori_knl());
        let diff = serial
            .conv_weights
            .iter()
            .chain(&serial.fc_weights)
            .zip(
                dist.per_rank[0]
                    .conv_weights
                    .iter()
                    .chain(&dist.per_rank[0].fc_weights),
            )
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max);
        let losses = serial.losses.iter().zip(dist.losses());
        let loss_diff = losses.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        if diff > 1e-9 || loss_diff > 1e-9 || dist.replica_divergence() != 0.0 {
            strayed.push(format!("{pd}x{pc}"));
        }
        t.row(vec![
            format!("{pd}x{pc}"),
            (pd * pc).to_string(),
            fmt_seconds(dist.stats.makespan()),
            fmt_seconds(dist.stats.max_comm()),
            fmt_seconds(dist.stats.max_compute()),
            dist.stats.total_words().to_string(),
            format!("{diff:.1e}"),
        ]);
    }
    print!("{}", if args.csv { t.to_csv() } else { t.render() });
    println!(
        "\nP = 8 and P = 16 exceed the batch-parallel limit (B = {b}): past it every\n\
         configuration still reproduces the serial weights and per-rank compute keeps\n\
         falling, but the makespan rises with P, the exchanges costing more than the\n\
         compute they split. This is serial parity past P = B, not Fig. 10's speedup."
    );
    if !strayed.is_empty() {
        eprintln!("grids off the serial trajectory or with diverged replicas: {strayed:?}");
        std::process::exit(1);
    }
}
