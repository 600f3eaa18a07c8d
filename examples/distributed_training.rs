//! Distributed training end-to-end: run real SGD on the simulated
//! cluster with the paper's 1.5D algorithm on several grids, verify
//! every grid reproduces the serial trajectory bit-for-bit (to f64
//! round-off), and show how the virtual communication time shifts
//! between the batch and model dimensions.
//!
//! ```text
//! cargo run --example distributed_training
//! ```

use integrated_parallelism::collectives::FtConfig;
use integrated_parallelism::dnn::zoo::mlp;
use integrated_parallelism::integrated::cost::best_grid;
use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
use integrated_parallelism::integrated::overlap::{OverlapPlan, PAPER_BACKPROP_FRACTION};
use integrated_parallelism::integrated::report::fmt_seconds;
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d, train_1p5d_scheduled, train_1p5d_scheduled_traced, train_serial,
    TrainConfig,
};
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{FaultPlan, NetModel, TraceConfig, TraceSink};

fn main() {
    // An FC network with a wide hidden stack — the regime where the
    // paper's integrated approach matters (model weights dominate).
    let net = mlp("mlp-256", &[128, 256, 256, 64, 10]);
    let (x, labels) = synthetic_data(&net, 64, 42);
    let cfg = TrainConfig {
        lr: 0.2,
        iters: 12,
        seed: 42,
    };

    println!("serial reference:");
    let serial = train_serial(&net, &x, &labels, &cfg);
    println!(
        "  loss {:.4} -> {:.4} over {} iterations\n",
        serial.losses[0],
        serial.losses.last().unwrap(),
        cfg.iters
    );

    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>14} {:>12}",
        "grid", "weight diff", "virt time", "comm time", "words moved", "msgs"
    );
    for (pr, pc) in [(1usize, 8usize), (2, 4), (4, 2), (8, 1)] {
        let dist = train_1p5d(&net, &x, &labels, &cfg, pr, pc, NetModel::cori_knl());
        let weights = dist.weights();
        let diff = serial
            .weights
            .iter()
            .zip(&weights)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max);
        println!(
            "{:<8} {:>14.2e} {:>12} {:>12} {:>14} {:>12}",
            format!("{pr}x{pc}"),
            diff,
            fmt_seconds(dist.stats.makespan()),
            fmt_seconds(dist.stats.max_comm()),
            dist.stats.total_words(),
            dist.stats.total_msgs()
        );
        assert!(diff < 1e-9, "distributed must reproduce serial training");
        assert!(
            dist.replica_divergence() < 1e-12,
            "weight replicas must agree"
        );
    }
    println!(
        "\nevery grid reproduces the serial weights exactly — the paper's scheme is\n\
         synchronous SGD, not an approximation. The weights dominate this MLP, so\n\
         pure batch (1x8) moves the most words (full ∆W all-reduce), pure model (8x1)\n\
         trades that for activation all-gathers, and an interior grid wins — the\n\
         paper's core observation, reproduced by executed traffic counts."
    );

    // ------------------------------------------------------------------
    // Executed overlap: the same training with the ∆W all-reduces
    // bucketed and launched non-blocking behind the remaining backprop
    // (the paper's Fig. 8, measured instead of assumed).
    // ------------------------------------------------------------------
    println!("\nexecuted comm/compute overlap on the 2x4 grid:");
    let ser = train_1p5d(&net, &x, &labels, &cfg, 2, 4, NetModel::cori_knl());
    // Buckets launched as they fill, drained in launch order at one
    // point before the optimizer.
    let plan = OverlapPlan::default();
    let model = NetModel::cori_knl();
    let ovl = train_1p5d_scheduled(&net, &x, &labels, &cfg, 2, 4, model, plan);
    println!(
        "  serialized {}  overlapped {}  ({:.1}% saved; trajectories identical)",
        fmt_seconds(ser.stats.makespan()),
        fmt_seconds(ovl.stats.makespan()),
        100.0 * (ser.stats.makespan() - ovl.stats.makespan()) / ser.stats.makespan()
    );
    let frac = ovl.measured_overlap_fraction();
    let divergence = (frac - PAPER_BACKPROP_FRACTION).abs() / PAPER_BACKPROP_FRACTION;
    print!(
        "  measured overlap fraction {frac:.3} — the share of channel transfer\n\
         time actually hidden, hidden/(hidden + exposed) — vs the paper's assumed \
         {PAPER_BACKPROP_FRACTION:.3}"
    );
    if divergence > 0.10 {
        println!(
            " — DIVERGES {:.0}%: the paper hides every backprop\n\
             all-reduce by assumption; the executed channel only hides what the\n\
             available compute actually covers on this machine model.",
            100.0 * divergence
        );
    } else {
        println!(" (within 10%)");
    }

    // ------------------------------------------------------------------
    // Tracing: the same overlapped run with per-rank event tracing on.
    // Every compute burst, blocking collective, channel transfer, and
    // drain wait lands on a virtual-time timeline; the export is Chrome
    // Trace Event JSON, loadable as-is in a timeline viewer.
    // ------------------------------------------------------------------
    println!("\ntraced rerun of the 2x4 overlapped training:");
    let (traced, trace) = train_1p5d_scheduled_traced(
        &net,
        &x,
        &labels,
        &cfg,
        2,
        4,
        model,
        TraceConfig::enabled(),
        plan,
    );
    assert_eq!(
        traced.stats.makespan(),
        ovl.stats.makespan(),
        "tracing adds zero overhead to the virtual clock"
    );
    let sink = TraceSink::new(&trace);
    print!("{}", sink.summary());
    let trace_path = std::path::Path::new("distributed_training.trace.json");
    sink.write_chrome_json(trace_path).expect("write trace");
    println!(
        "  wrote {} ({} events) — open it at https://ui.perfetto.dev\n\
         or chrome://tracing: one row pair per rank (main timeline + comm channel);\n\
         the drain spans are the exposed waits the overlap failed to hide.",
        trace_path.display(),
        trace.total_events()
    );

    // ------------------------------------------------------------------
    // Fault tolerance: kill one rank mid-run and keep training.
    // ------------------------------------------------------------------
    let ft_cfg = FtTrainConfig {
        lr: 0.2,
        iters: 8,
        seed: 42,
        ckpt_every: 2,
        ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
        machine: MachineModel::cori_knl(),
        ..FtTrainConfig::default()
    };
    println!(
        "\nfault tolerance on a 2x4 grid (checkpoint every {} iters):",
        ft_cfg.ckpt_every
    );
    let clean = train_1p5d_ft(&net, &x, &labels, &ft_cfg, 2, 4, FaultPlan::default());
    let t_kill = clean.stats.makespan() * 0.5;
    let victim = 5usize;
    println!(
        "  clean run: loss {:.4} -> {:.4}, makespan {}",
        clean.losses()[0],
        clean.losses().last().unwrap(),
        fmt_seconds(clean.stats.makespan())
    );

    let plan = FaultPlan::new(11).kill(victim, t_kill);
    let faulty = train_1p5d_ft(&net, &x, &labels, &ft_cfg, 2, 4, plan);
    let survivors = faulty.survivors();
    println!(
        "  killed rank {victim} at {} — {} survivors finished training",
        fmt_seconds(t_kill),
        survivors.len()
    );
    let s = survivors[0];
    for r in &s.recoveries {
        println!(
            "  recovery: rolled back to iter {}, regridded {}x{} -> {}x{} \
             (Eq. 8 re-plan), cost {} on the virtual clock",
            r.rollback_iter,
            faulty.pr0,
            faulty.pc0,
            r.pr,
            r.pc,
            fmt_seconds(r.measured_secs)
        );
        println!(
            "  degraded mode: measured comm/iter {} vs Eq. 8 analytic {}",
            fmt_seconds(s.comm_secs_per_iter),
            fmt_seconds(r.analytic_comm_per_iter)
        );
    }
    let st = &faulty.stats;
    println!(
        "  fault counters: {} failures detected, {} timeouts, {} retries, \
         {} aborts, {} corrupt payloads caught",
        st.total_failures_detected(),
        st.total_timeouts(),
        st.total_retries(),
        st.total_aborts(),
        st.total_corrupt_detected()
    );
    println!(
        "  checkpoint traffic {} words, max recovery time {}, straggler wait {}",
        st.total_ckpt_words(),
        fmt_seconds(st.max_recovery_secs()),
        fmt_seconds(st.total_straggler_wait())
    );

    let final_diff = (clean.losses().last().unwrap() - faulty.losses().last().unwrap()).abs();
    assert!(
        final_diff < 1e-6,
        "post-recovery loss must match fault-free run"
    );
    println!(
        "  final loss {:.4} matches the fault-free trajectory to {final_diff:.1e} —\n\
         checkpoint/shrink/replay preserves synchronous SGD semantics.",
        faulty.losses().last().unwrap()
    );

    // ------------------------------------------------------------------
    // Elastic membership: kill → rejoin → regrow. The same victim dies,
    // then announces itself back a while later; the trainer re-admits it
    // at a fault-epoch boundary and regrows to the original Eq. 8 grid.
    // ------------------------------------------------------------------
    println!("\nelastic membership: kill rank {victim}, rejoin it later, regrow the grid:");
    let plan = FaultPlan::new(11)
        .kill(victim, clean.stats.makespan() * 0.4)
        .rejoin(victim, clean.stats.makespan() * 0.6);
    let elastic = train_1p5d_ft(&net, &x, &labels, &ft_cfg, 2, 4, plan);
    assert!(
        elastic.per_rank.iter().all(Result::is_ok),
        "every rank, the revived one included, finishes training"
    );
    let e = elastic.per_rank[0].as_ref().unwrap();
    for r in &e.recoveries {
        println!(
            "  epoch {}: rolled back to iter {}, grid {}x{}{}{}",
            r.epoch,
            r.rollback_iter,
            r.pr,
            r.pc,
            if r.dead.is_empty() { "" } else { " (shrink)" },
            if r.rejoined.is_empty() {
                ""
            } else {
                " (regrow: rank re-admitted, its rows relayout to it)"
            },
        );
    }
    // The regrow re-plans with Eq. 8 over the full 8 ranks — which for
    // this network is 4x2, not the hand-picked 2x4 we started on.
    let wl = net.weighted_layers();
    let planned = best_grid(&wl, 64.0, 8, &ft_cfg.machine);
    let regrown = e.recoveries.last().unwrap();
    assert_eq!(
        (regrown.pr, regrown.pc),
        planned,
        "regrown to the Eq. 8 grid for the full rank count"
    );
    let e_diff = (clean.losses().last().unwrap() - elastic.losses().last().unwrap()).abs();
    assert!(e_diff < 1e-6);
    // A residue shows against a fault-free run on the grid it regrew to.
    let (pr, pc) = planned;
    let fresh = train_1p5d_ft(&net, &x, &labels, &ft_cfg, pr, pc, FaultPlan::default());
    println!(
        "  {} rejoin(s); final loss matches fault-free to {e_diff:.1e};\n\
         post-rejoin step time {} vs fault-free {} on {pr}x{pc} — elasticity leaves no residue.\n\
         (Use FtConfig::adaptive(&machine.net_model(), words) for φ-accrual deadlines\n\
         and speculative straggler re-requests instead of the fixed timeout above.)",
        elastic.stats.total_rejoins(),
        fmt_seconds(e.step_secs_per_iter),
        fmt_seconds(fresh.per_rank[0].as_ref().unwrap().step_secs_per_iter),
    );
}
