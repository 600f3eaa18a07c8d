//! Elastic-recovery sweep: kill / kill+rejoin scenarios over
//! `P ∈ {4, 16, 64}`, reporting MTTR, degraded-mode step time, and the
//! regrown-grid step time against the Eq. 8 prediction. Alongside the
//! human-readable table it writes `BENCH_recovery.json` with the raw
//! numbers for downstream tooling. It fails if a degraded step costs
//! more than 1.5 baseline steps at any `P`.
//!
//! ```text
//! cargo run -p bench --bin recovery_sweep
//! ```

use std::fmt::Write as _;

use collectives::FtConfig;
use dnn::zoo::mlp_tiny;
use integrated::cost::{best_grid, integrated_model_batch};
use integrated::ft_trainer::FtDistResult;
use integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
use integrated::report::Table;
use integrated::trainer::synthetic_data;
use integrated::MachineModel;
use mpsim::FaultPlan;

struct Scenario {
    p: usize,
    pr: usize,
    pc: usize,
    baseline_step: f64,
    kill_mttr: f64,
    degraded_step: f64,
    degraded_grid: (usize, usize),
    rejoin_mttr: f64,
    regrown_step: f64,
    measured_comm: f64,
    eq8_comm: f64,
}

fn post_recovery_outcome(run: &FtDistResult) -> &integrated::ft_trainer::FtRankOutcome {
    run.per_rank
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .next()
        .expect("at least one survivor")
}

fn main() {
    let machine = MachineModel::cori_knl();
    let net = mlp_tiny();
    let mut rows = Vec::new();

    for p in [4usize, 16, 64] {
        let batch = (2 * p).max(32);
        let (x, labels) = synthetic_data(&net, batch, 5);
        let cfg = FtTrainConfig {
            lr: 0.3,
            iters: 12,
            seed: 7,
            ckpt_every: 2,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine,
            ..FtTrainConfig::default()
        };
        let wl = net.weighted_layers();
        let (pr, pc) = best_grid(&wl, batch as f64, p, &machine);
        assert!(pc >= 2, "need replicated rows to survive a kill");

        // Fault-free baseline.
        let clean = train_1p5d_ft(&net, &x, &labels, &cfg, pr, pc, FaultPlan::default());
        let m = clean.stats.makespan();
        let baseline_step = post_recovery_outcome(&clean).step_secs_per_iter;

        // Kill-only: the grid shrinks and stays degraded to the end, so
        // the post-recovery step-time window measures degraded mode.
        let victim = p - 1;
        let killed = train_1p5d_ft(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            FaultPlan::new(11).kill(victim, 0.4 * m),
        );
        let ks = post_recovery_outcome(&killed);
        let kill_mttr = killed.stats.max_recovery_secs();
        let degraded_step = ks.step_secs_per_iter;
        let degraded_grid = (ks.pr, ks.pc);

        // Kill + rejoin: the grid regrows to (pr, pc); the step-time
        // window measures the regrown grid, compared against Eq. 8.
        let rejoined = train_1p5d_ft(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            FaultPlan::new(11)
                .kill(victim, 0.35 * m)
                .rejoin(victim, 0.6 * m),
        );
        assert_eq!(rejoined.stats.total_rejoins(), 1);
        let rs = post_recovery_outcome(&rejoined);
        assert_eq!((rs.pr, rs.pc), (pr, pc), "regrown to the planned grid");
        let rejoin_mttr = rejoined.stats.max_recovery_secs();
        let regrown_step = rs.step_secs_per_iter;
        let measured_comm = rs.comm_secs_per_iter;
        let eq8_comm = integrated_model_batch(&wl, batch as f64, pr, pc).seconds(&machine);

        rows.push(Scenario {
            p,
            pr,
            pc,
            baseline_step,
            kill_mttr,
            degraded_step,
            degraded_grid,
            rejoin_mttr,
            regrown_step,
            measured_comm,
            eq8_comm,
        });
    }

    let mut t = Table::new(
        "elastic recovery sweep (mlp-tiny, kill rank P-1, rejoin mid-run)".to_string(),
        &[
            "P",
            "grid",
            "base step (s)",
            "MTTR kill (s)",
            "degraded step (s)",
            "degraded grid",
            "degraded/base",
            "MTTR rejoin (s)",
            "regrown step (s)",
            "comm meas/Eq.8",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.p.to_string(),
            format!("{}x{}", r.pr, r.pc),
            format!("{:.4}", r.baseline_step),
            format!("{:.4}", r.kill_mttr),
            format!("{:.4}", r.degraded_step),
            format!("{}x{}", r.degraded_grid.0, r.degraded_grid.1),
            format!("{:.2}", r.degraded_step / r.baseline_step),
            format!("{:.4}", r.rejoin_mttr),
            format!("{:.4}", r.regrown_step),
            format!("{:.2}", r.measured_comm / r.eq8_comm),
        ]);
    }
    print!("{}", t.render());
    // The shrunk grid's groups are not powers of two (1x3, 1x15, 1x63):
    // folded onto their power-of-two cores, their all-reduces pay two
    // α-steps more than the baseline's, not the ring's 2(P−1).
    for r in &rows {
        let ratio = r.degraded_step / r.baseline_step;
        assert!(ratio <= 1.5, "P={}: degraded/base {ratio:.2}", r.p);
    }

    // The workspace links no JSON library, so the JSON is written by hand.
    let mut json = String::from(
        "{\n  \"bench\": \"recovery_sweep\",\n  \"network\": \"mlp-tiny\",\n  \"scenarios\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"p\": {}, \"pr\": {}, \"pc\": {}, \"baseline_step_secs\": {:.6}, \
             \"kill\": {{\"mttr_secs\": {:.6}, \"degraded_step_secs\": {:.6}, \
             \"degraded_pr\": {}, \"degraded_pc\": {}}}, \
             \"rejoin\": {{\"mttr_secs\": {:.6}, \"regrown_step_secs\": {:.6}, \
             \"measured_comm_secs_per_iter\": {:.6}, \"eq8_comm_secs_per_iter\": {:.6}}}}}{}",
            r.p,
            r.pr,
            r.pc,
            r.baseline_step,
            r.kill_mttr,
            r.degraded_step,
            r.degraded_grid.0,
            r.degraded_grid.1,
            r.rejoin_mttr,
            r.regrown_step,
            r.measured_comm,
            r.eq8_comm,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    eprintln!("wrote BENCH_recovery.json");
}
