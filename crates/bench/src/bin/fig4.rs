//! Regenerates the paper's **Fig. 4**: one-epoch AlexNet training time
//! on a single KNL across batch sizes 1…2048. The calibrated curve is
//! the substitution documented in DESIGN.md; the roofline column shows
//! the parametric alternative producing the same shape (fastest near
//! B = 256, driven by hardware-utilization of level-3 BLAS).
//!
//! ```text
//! cargo run -p bench --bin fig4
//! ```

use bench::{parse_args, Setup};
use integrated::compute::{ComputeModel, RooflineComputeModel};
use integrated::report::{fmt_seconds, Table};

fn main() {
    let args = parse_args();
    let setup = Setup::table1();
    let roofline = RooflineComputeModel::knl();

    let mut t = Table::new(
        "Fig. 4: one-epoch AlexNet time on a single KNL vs batch size",
        &[
            "batch",
            "epoch (calibrated)",
            "epoch (roofline)",
            "iter (calibrated)",
        ],
    );
    for k in 0..=11 {
        let b = 1usize << k;
        t.row(vec![
            b.to_string(),
            fmt_seconds(setup.compute.epoch_seconds(b as f64)),
            fmt_seconds(roofline.epoch_time(&setup.net, b as f64, setup.n_samples)),
            fmt_seconds(setup.compute.iteration_time(&setup.net, b as f64)),
        ]);
    }
    print!("{}", if args.csv { t.to_csv() } else { t.render() });
    let best = setup.compute.best_batch();
    println!(
        "best workload: B = {best} ({}) — the paper reports the fastest epoch at B = 256",
        fmt_seconds(setup.compute.epoch_seconds(best))
    );
}
