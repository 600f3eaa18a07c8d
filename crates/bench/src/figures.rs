//! Shared rendering for the strong/weak-scaling figure rows: turns
//! a sweep of [`Evaluation`]s into the paper's bar charts as tables —
//! one row per `Pr × Pc` configuration with the compute / model-comm /
//! batch-comm (the paper's cross-hatched portion) / halo split, plus
//! the bold "speedup vs pure batch" annotations.

use integrated::optimizer::{best, Evaluation};
use integrated::report::{fmt_seconds, fmt_speedup, Table};

use crate::setup::{Args, Setup};

/// Finds the pure-batch (every layer `pr = 1`) evaluation in a sweep,
/// the baseline for the paper's speedup annotations.
pub fn pure_batch_baseline(evals: &[Evaluation]) -> Option<&Evaluation> {
    evals.iter().find(|e| {
        e.strategy
            .layers
            .iter()
            .all(|l| matches!(l, integrated::LayerParallelism::ModelBatch { pr: 1, .. }))
    })
}

/// Renders one subfigure: a table of configurations with per-iteration
/// times, annotated with the best configuration's speedup over pure
/// batch (total and communication), exactly the numbers the paper
/// prints in bold over its best bars.
pub fn subfigure_table(
    title: &str,
    setup: &Setup,
    b: f64,
    evals: &[Evaluation],
    args: &Args,
) -> String {
    let mut t = Table::new(
        title,
        &[
            "config",
            "compute",
            "model-comm",
            "batch-comm",
            "halo",
            "comm-total",
            "total",
            "epoch",
        ],
    );
    for e in evals {
        let m = &setup.machine;
        let model_comm = m.seconds(e.comm.total.allgather) + m.seconds(e.comm.total.dx_allreduce);
        let halo = m.seconds(e.comm.total.halo);
        t.row(vec![
            e.strategy.name.clone(),
            fmt_seconds(e.compute_seconds),
            fmt_seconds(model_comm),
            fmt_seconds(e.batch_comm_seconds),
            fmt_seconds(halo),
            fmt_seconds(e.comm_seconds),
            fmt_seconds(e.total_seconds),
            fmt_seconds(e.epoch_seconds(setup.n_samples, b)),
        ]);
    }
    let mut out = args.render(&t);
    if let Some(baseline) = pure_batch_baseline(evals) {
        let b_ev = best(evals);
        let total_speedup = baseline.total_seconds / b_ev.total_seconds;
        let comm_speedup = if b_ev.comm_seconds > 0.0 {
            baseline.comm_seconds / b_ev.comm_seconds
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "best: {}  speedup vs pure batch: {} total ({} comm)\n",
            b_ev.strategy.name,
            fmt_speedup(total_speedup),
            fmt_speedup(comm_speedup),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use integrated::optimizer::sweep_uniform_grids;

    #[test]
    fn baseline_is_found_in_uniform_sweep() {
        let setup = Setup::table1();
        let layers = setup.net.weighted_layers();
        let evals = sweep_uniform_grids(
            &setup.net,
            &layers,
            2048.0,
            64,
            &setup.machine,
            &setup.compute,
        );
        let b = pure_batch_baseline(&evals).expect("pr=1 present");
        assert!(b.strategy.name.contains("1x64"));
    }

    #[test]
    fn table_mentions_best_and_speedup() {
        let setup = Setup::table1();
        let layers = setup.net.weighted_layers();
        let evals = sweep_uniform_grids(
            &setup.net,
            &layers,
            2048.0,
            512,
            &setup.machine,
            &setup.compute,
        );
        let s = subfigure_table("t", &setup, 2048.0, &evals, &Args::default());
        assert!(s.contains("speedup vs pure batch"));
        assert!(s.contains("grid("));
    }
}
