//! End-to-end fault-tolerance validation: the acceptance scenarios for
//! the fault-injection layer and the checkpoint/shrink/replay trainer.
//!
//! 1. A dropped message surfaces as [`Error::Timeout`] after a bounded
//!    virtual wait instead of hanging the receiver.
//! 2. Killing one rank inside its ∆W bucket on a 2×4 grid aborts its
//!    row group, triggers checkpoint recovery onto a surviving grid
//!    (re-planned with Eq. 8), and training converges to within 1e-6
//!    of the fault-free loss.
//! 3. An injected bit-flip is caught by the collective checksum and
//!    rolled back — it never propagates into ∆W or the weights.

use integrated_parallelism::collectives::ft::FtConfig;
use integrated_parallelism::collectives::{allreduce, ReduceOp};
use integrated_parallelism::dnn::zoo::mlp_tiny;
use integrated_parallelism::integrated::ft_trainer::{
    train_1p5d_ft, train_1p5d_ft_traced, FtTrainConfig,
};
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::trainer::synthetic_data;
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{Error, FaultPlan, NetModel, TraceConfig, World};

fn ft_cfg(iters: usize) -> FtTrainConfig {
    FtTrainConfig {
        lr: 0.3,
        iters,
        seed: 7,
        ckpt_every: 2,
        ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
        machine: MachineModel::cori_knl(),
        ..FtTrainConfig::default()
    }
}

#[test]
fn dropped_message_times_out_instead_of_hanging() {
    let model = NetModel {
        alpha: 1.0,
        beta: 0.01,
        flops: f64::INFINITY,
    };
    // Drop the first (only) data message from rank 0 to rank 1.
    let plan = FaultPlan::new(1).drop_nth(0, 1, 0);
    let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, &[1.0, 2.0])?;
            Ok(vec![])
        } else {
            comm.recv_timeout(0, 7, 5.0)
        }
    });
    assert!(out[0].is_ok());
    match &out[1] {
        Err(Error::Timeout {
            rank: 0,
            tag: 7,
            waited,
        }) => {
            assert_eq!(*waited, 5.0, "full deadline was waited out");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert_eq!(stats.total_dropped(), 1);
    assert_eq!(stats.total_timeouts(), 1);
    // The wait was charged on the virtual clock.
    assert!(stats.clocks[1].now >= 5.0);
}

#[test]
fn killing_one_rank_on_2x4_grid_recovers_and_converges() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 32, 5);
    let cfg = ft_cfg(8);
    assert!(cfg.plan.is_some(), "the scheduled body is the default");

    let (clean, trace) = train_1p5d_ft_traced(
        &net,
        &x,
        &labels,
        &cfg,
        2,
        4,
        FaultPlan::default(),
        TraceConfig::enabled(),
    );
    assert_eq!(clean.survivors().len(), 8);

    // Kill global rank 5 the moment it launches its ∆W bucket in the
    // middle iteration: it dies at its first chunk step, before sending
    // anything, so its row group (ranks 4-7) is mid-all-reduce. Under
    // recursive doubling rank 6 never receives from rank 5 — it learns
    // of the death only through the abort its partners cascade.
    let flushes: Vec<f64> = trace.ranks[5]
        .events
        .iter()
        .filter(|e| (e.cat, e.name) == ("sched", "bucket_flush"))
        .map(|e| e.t0)
        .collect();
    assert_eq!(flushes.len(), cfg.iters, "one bucket per iteration");
    let t_kill = flushes[cfg.iters / 2];
    let plan = FaultPlan::new(11).kill(5, t_kill);
    let faulty = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, plan);

    // The dead rank reports its own failure; everyone else survives.
    assert!(matches!(
        faulty.per_rank[5],
        Err(Error::RankFailed { rank: 5 })
    ));
    let survivors = faulty.survivors();
    assert_eq!(survivors.len(), 7);

    // Every survivor committed the same single recovery onto the 1 × 7
    // grid Eq. 8 re-plans. Each held one old row, half the weights, and
    // fetches the other half in one message: the report prices it at
    // α + β·|W|/2, and the survivor whose clock entered the recovery
    // first waits at least that long on the virtual clock.
    let half = (64 * 48 + 48 * 32 + 32 * 10) / 2;
    let model = cfg.machine.net_model().ptp(half);
    for s in &survivors {
        assert_eq!(s.recoveries.len(), 1);
        let r = &s.recoveries[0];
        assert_eq!(r.dead, vec![5]);
        assert_eq!((r.pr, r.pc), (s.pr, s.pc));
        assert_eq!((s.pr, s.pc), (1, 7));
        assert_eq!(r.model_secs, model);
        assert!(r.analytic_comm_per_iter > 0.0);
        assert!(r.comm_wait_secs.is_finite() && r.comm_wait_secs >= 0.0);
    }
    let busiest = survivors.iter().map(|s| s.recoveries[0].measured_secs);
    assert!(
        busiest.fold(0.0, f64::max) >= model,
        "recovery cost is on the virtual clock"
    );

    // Training completed, and the replayed trajectory converges to the
    // fault-free loss within 1e-6 (synchronous SGD replayed from a
    // checkpoint; only reduction order differs on the reshaped grid).
    let clean_losses = clean.losses();
    let faulty_losses = faulty.losses();
    assert_eq!(faulty_losses.len(), cfg.iters);
    for (a, b) in clean_losses.iter().zip(&faulty_losses) {
        assert!((a - b).abs() < 1e-6, "loss diverged: {a} vs {b}");
    }
    let final_diff = (clean_losses.last().unwrap() - faulty_losses.last().unwrap()).abs();
    assert!(final_diff < 1e-6, "final loss differs by {final_diff}");

    // The recovery is visible in the world statistics.
    assert!(faulty.stats.total_failures_detected() > 0);
    assert!(faulty.stats.max_recovery_secs() > 0.0);
    assert!(faulty.stats.total_ckpt_words() > 0);
    assert!(
        faulty.stats.total_aborts() > 0,
        "the fault was propagated group-wide"
    );
    // Inside the bucket: every survivor of rank 5's row group failed
    // its chunk receive and aborted (rank 6 by cascading), while the
    // other row learned of the death at the next agreement round.
    let aborts: Vec<u64> = faulty.stats.ranks.iter().map(|r| r.aborts_sent).collect();
    assert_eq!(aborts, [0, 0, 0, 0, 1, 0, 1, 1]);
    let (_, _, nb_ar, _) = faulty.stats.total_collective_calls();
    assert!(nb_ar > 0, "overlap stayed on through the recovery");

    // Degraded-mode cost: the measured per-iteration communication on
    // the shrunk grid is reported alongside the Eq. 8 analytic value.
    let s = survivors[0];
    assert!(s.comm_secs_per_iter > 0.0);
    // Executed collectives vs the paper's ⌈log P⌉ closed form: same
    // bandwidth scaling, so they agree within a small factor.
    let ratio = s.comm_secs_per_iter / s.recoveries[0].analytic_comm_per_iter;
    assert!(
        (0.2..5.0).contains(&ratio),
        "measured/analytic degraded cost ratio {ratio} out of range"
    );
}

#[test]
fn killing_one_rank_recovers_with_overlap_enabled() {
    // The same kill-recovery scenario with the bucketed non-blocking
    // ∆W path on: the deadline-bound chunk receives detect the dead
    // peer, the abort cascades, and checkpoint/shrink/replay converges
    // exactly as in the blocking run.
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 32, 5);
    let cfg = FtTrainConfig {
        plan: Some(OverlapPlan::default()),
        ..ft_cfg(8)
    };

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, FaultPlan::default());
    assert_eq!(clean.survivors().len(), 8);

    let t_kill = clean.stats.makespan() * 0.5;
    let plan = FaultPlan::new(11).kill(5, t_kill);
    let faulty = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 4, plan);

    let survivors = faulty.survivors();
    assert_eq!(survivors.len(), 7);
    let faulty_losses = faulty.losses();
    assert_eq!(faulty_losses.len(), cfg.iters);
    for (a, b) in clean.losses().iter().zip(&faulty_losses) {
        assert!((a - b).abs() < 1e-6, "loss diverged: {a} vs {b}");
    }
    let (_, _, nb_ar, _) = faulty.stats.total_collective_calls();
    assert!(nb_ar > 0, "overlap stayed on through the recovery");
    for s in &survivors {
        assert_eq!(s.recoveries.len(), 1);
        let r = &s.recoveries[0];
        assert_eq!(r.dead, vec![5]);
        assert!(r.comm_wait_secs.is_finite() && r.comm_wait_secs >= 0.0);
    }
}

#[test]
fn corruption_is_detected_not_folded_into_weights() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let cfg = ft_cfg(6);

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, FaultPlan::default());
    // Flip one mantissa bit in a mid-training data payload on the
    // 2→0 link: iteration 3's ∆W bucket, summed within 3-rank grid row 0
    // by a gather whose round at distance 2 sends 2 → 0.
    let plan = FaultPlan::new(23).corrupt_nth(2, 0, 3);
    let faulty = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, plan);

    assert_eq!(
        faulty.stats.total_corrupt_detected(),
        1,
        "checksum caught the flip"
    );
    assert_eq!(
        faulty.survivors().len(),
        6,
        "a transient fault kills nobody"
    );

    // The corrupted update was discarded and replayed: final weights
    // are bit-identical to the fault-free run, not merely close.
    let wc = clean.weights();
    let wf = faulty.weights();
    let diff: f64 = wc
        .iter()
        .zip(&wf)
        .map(|(a, b)| a.max_abs_diff(b))
        .fold(0.0, f64::max);
    assert_eq!(diff, 0.0, "corruption leaked into the weights");
    assert_eq!(clean.losses(), faulty.losses());
}

#[test]
fn corrupted_allreduce_never_returns_wrong_numbers() {
    // Directly at the collective layer: a corrupted ring all-reduce
    // returns an error on every rank — no rank ever observes a sum
    // built from the flipped payload.
    let plan = FaultPlan::new(5).corrupt_nth(2, 3, 0);
    let (out, stats) = World::run_with_faults(4, NetModel::free(), plan, |comm| {
        let mut data = vec![(comm.rank() + 1) as f64; 8];
        let comm = comm.guarded(&FtConfig::fixed(100.0));
        allreduce(&comm, &mut data, ReduceOp::Sum).map(|_| data)
    });
    assert!(out.iter().all(Result::is_err), "no rank completed: {out:?}");
    assert_eq!(stats.total_corrupt_detected(), 1);
}
