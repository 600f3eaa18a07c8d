//! End-to-end elastic-membership validation: the acceptance scenarios
//! for adaptive failure detection, rank rejoin, and grid regrow.
//!
//! 1. A rank killed mid-epoch with a scripted rejoin is re-admitted at
//!    a fault-epoch boundary; the trainer regrows to the original
//!    Eq. 8 grid, the final loss matches the fault-free run to 1e-6,
//!    and the post-rejoin step time is within 5% of fault-free.
//! 2. The whole kill→shrink→rejoin→regrow history replays
//!    bit-identically under a fixed fault-plan seed.
//! 3. The φ-accrual detector never declares a healthy-but-slow peer
//!    dead while its delay stays below the learned deadline (property
//!    test over random traffic rhythms).
//!
//! The fault-plan seed is taken from `FT_SEED` (default 3) so CI can
//! sweep a seed matrix over the same scenarios.

use integrated_parallelism::collectives::FtConfig;
use integrated_parallelism::dnn::zoo::mlp_tiny;
use integrated_parallelism::integrated::cost::best_grid;
use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::trainer::synthetic_data;
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{DetectorConfig, FaultPlan, HealthMonitor, NetModel};
use proptest::prelude::*;

fn ft_seed() -> u64 {
    std::env::var("FT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn ecfg(iters: usize) -> FtTrainConfig {
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
fn kill_rejoin_regrows_to_original_grid_and_matches_fault_free() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let cfg = ecfg(10);
    // Start on the Eq. 8 grid for p = 6, so the regrow after the rejoin
    // provably lands back on the same extents (the planner is shared).
    let wl = net.weighted_layers();
    let (pr0, pc0) = best_grid(&wl, 24.0, 6, &cfg.machine);
    assert_eq!(pr0 * pc0, 6);
    assert!(pc0 >= 2, "grid must keep replicated weight rows");

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, pr0, pc0, FaultPlan::default());
    let m = clean.stats.makespan();

    // Kill the last rank mid-run; it rejoins a couple of fault epochs
    // later and training continues to completion on the regrown grid.
    let victim = 5;
    let plan = FaultPlan::new(ft_seed())
        .kill(victim, 0.35 * m)
        .rejoin(victim, 0.55 * m);
    let elastic = train_1p5d_ft(&net, &x, &labels, &cfg, pr0, pc0, plan);

    // Every rank — the killed-and-revived one included — finishes.
    for (r, out) in elastic.per_rank.iter().enumerate() {
        assert!(out.is_ok(), "rank {r} did not finish: {out:?}");
    }
    assert_eq!(elastic.stats.total_rejoins(), 1);
    assert!(elastic.stats.total_failures_detected() > 0);

    // Survivors committed a shrink and then a regrow.
    let s0 = elastic.per_rank[0].as_ref().unwrap();
    assert!(
        s0.recoveries.len() >= 2,
        "expected shrink + regrow, got {:?}",
        s0.recoveries
    );
    let shrink = &s0.recoveries[0];
    assert_eq!(shrink.dead, vec![victim]);
    assert_eq!(shrink.pr * shrink.pc, 5, "degraded grid over 5 survivors");
    let regrow = s0.recoveries.last().unwrap();
    assert!(regrow.rejoined.contains(&victim));
    assert!(regrow.dead.is_empty(), "nobody left excluded after regrow");
    assert_eq!(
        (regrow.pr, regrow.pc),
        (pr0, pc0),
        "regrown to the original Eq. 8 grid"
    );
    for out in &elastic.per_rank {
        let o = out.as_ref().unwrap();
        assert_eq!((o.pr, o.pc), (pr0, pc0), "final grid is the original");
    }

    // The rejoiner observed its own re-admission.
    let joiner = elastic.per_rank[victim].as_ref().unwrap();
    assert!(joiner
        .recoveries
        .iter()
        .any(|r| r.rejoined.contains(&victim)));

    // Replayed synchronous SGD: the trajectory matches fault-free to
    // 1e-6 and is identical on every rank, the rejoiner included.
    let cl = clean.losses();
    let el = elastic.losses();
    assert_eq!(el.len(), cfg.iters);
    for (a, b) in cl.iter().zip(&el) {
        assert!((a - b).abs() < 1e-6, "loss diverged: {a} vs {b}");
    }
    for out in &elastic.per_rank {
        assert_eq!(out.as_ref().unwrap().losses, el);
    }
    let (_, _, nb_ar, _) = elastic.stats.total_collective_calls();
    assert!(nb_ar > 0, "overlap stayed on through shrink and regrow");

    // Elasticity leaves no residue: once regrown, the per-iteration
    // step time is within 5% of the fault-free run on the same grid.
    let clean_step = clean.per_rank[0].as_ref().unwrap().step_secs_per_iter;
    let post_step = s0.step_secs_per_iter;
    assert!(clean_step > 0.0);
    assert!(
        (post_step - clean_step).abs() / clean_step < 0.05,
        "post-rejoin step {post_step} vs fault-free {clean_step}"
    );
}

#[test]
fn kill_rejoin_regrow_works_with_overlap_enabled() {
    // Elasticity composes with the executed-overlap backward path:
    // shrink, rejoin, and regrow all happen while ∆W all-reduces run
    // non-blocking, and the trajectory still matches fault-free.
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let cfg = FtTrainConfig {
        plan: Some(OverlapPlan::default()),
        ..ecfg(10)
    };
    let wl = net.weighted_layers();
    let (pr0, pc0) = best_grid(&wl, 24.0, 6, &cfg.machine);

    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, pr0, pc0, FaultPlan::default());
    let m = clean.stats.makespan();
    let victim = 5;
    let plan = FaultPlan::new(ft_seed())
        .kill(victim, 0.35 * m)
        .rejoin(victim, 0.55 * m);
    let elastic = train_1p5d_ft(&net, &x, &labels, &cfg, pr0, pc0, plan);

    for (r, out) in elastic.per_rank.iter().enumerate() {
        assert!(out.is_ok(), "rank {r} did not finish: {out:?}");
    }
    assert_eq!(elastic.stats.total_rejoins(), 1);
    let s0 = elastic.per_rank[0].as_ref().unwrap();
    let regrow = s0.recoveries.last().unwrap();
    assert_eq!(
        (regrow.pr, regrow.pc),
        (pr0, pc0),
        "regrown to the original Eq. 8 grid"
    );
    let el = elastic.losses();
    assert_eq!(el.len(), cfg.iters);
    for (a, b) in clean.losses().iter().zip(&el) {
        assert!((a - b).abs() < 1e-6, "loss diverged: {a} vs {b}");
    }
    let (_, _, nb_ar, _) = elastic.stats.total_collective_calls();
    assert!(nb_ar > 0, "overlap stayed on through shrink and regrow");
}

#[test]
fn elastic_recovery_replays_bit_identically() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let cfg = ecfg(8);
    let clean = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, FaultPlan::default());
    let m = clean.stats.makespan();

    let run = || {
        let plan = FaultPlan::new(ft_seed())
            .kill(4, 0.35 * m)
            .rejoin(4, 0.6 * m);
        train_1p5d_ft(&net, &x, &labels, &cfg, 2, 3, plan)
    };
    let a = run();
    let b = run();

    assert_eq!(a.stats.makespan(), b.stats.makespan());
    assert_eq!(a.stats.ranks, b.stats.ranks, "fault counters replay");
    for (ra, rb) in a.per_rank.iter().zip(&b.per_rank) {
        match (ra, rb) {
            (Ok(oa), Ok(ob)) => {
                assert_eq!(oa.losses, ob.losses, "losses replay bitwise");
                assert_eq!((oa.i, oa.j, oa.pr, oa.pc), (ob.i, ob.j, ob.pr, ob.pc));
                let wdiff: f64 = oa
                    .weight_shards
                    .iter()
                    .zip(&ob.weight_shards)
                    .map(|(x, y)| x.max_abs_diff(y))
                    .fold(0.0, f64::max);
                assert_eq!(wdiff, 0.0, "weights replay bitwise");
                assert_eq!(oa.recoveries.len(), ob.recoveries.len());
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            other => panic!("replay diverged in outcome kind: {other:?}"),
        }
    }
    // The scenario actually exercised the elastic path.
    assert_eq!(a.stats.total_rejoins(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A peer whose delay stays below the learned deadline is by
    /// construction at most `deadline_sigmas` σ past its mean rhythm,
    /// which keeps φ well under the dead threshold — so a slow-but-
    /// alive peer is suspected (speculative re-request territory), but
    /// never written off, whatever its traffic rhythm.
    #[test]
    fn slow_peer_below_learned_deadline_is_never_declared_dead(
        gaps in proptest::collection::vec(0.01f64..5.0, 6..40),
        frac in 0.0f64..0.99,
    ) {
        let model = NetModel { alpha: 1e-3, beta: 1e-9, flops: f64::INFINITY };
        let mut mon = HealthMonitor::new(DetectorConfig::from_model(&model), 2);
        let mut now = 0.0;
        for g in &gaps {
            now += *g;
            mon.heard(1, now);
            mon.observed_wait(1, *g);
        }
        let deadline = mon.deadline(1).expect("enough wait samples");
        let gap_deadline = mon.gap_deadline(1).expect("enough gap samples");
        prop_assert!(deadline > 0.0 && gap_deadline > 0.0);

        let delay = frac * deadline.min(gap_deadline);
        let phi = mon.phi(1, now + delay).expect("detector is warm");
        let dead = mon.config().phi_dead;
        prop_assert!(
            phi < dead,
            "phi {} >= dead threshold {} at delay {} (deadline {})",
            phi, dead, delay, deadline
        );
    }
}
