//! Elastic-recovery sweep: kill / kill+rejoin scenarios over
//! `P ∈ {4, 16, 64}`, reporting MTTR against the closed form of its
//! checkpoint relayout, degraded-mode step time, and the regrown-grid
//! step time against the Eq. 8 prediction. Alongside the
//! human-readable table it writes `BENCH_recovery.json` with the raw
//! numbers for downstream tooling. It fails if a degraded step costs
//! more than 1.5 baseline steps at any `P`.
//!
//! ```text
//! cargo run -p bench --bin recovery_sweep
//! ```

use collectives::FtConfig;
use dnn::zoo::mlp_tiny;
use integrated::cost::{best_grid, integrated_model_batch};
use integrated::ft_trainer::{train_1p5d_ft, FtDistResult, FtRankOutcome, FtTrainConfig};
use integrated::report::Table;
use integrated::trainer::synthetic_data;
use integrated::MachineModel;
use mpsim::FaultPlan;

fn post_recovery_outcome(run: &FtDistResult) -> &FtRankOutcome {
    run.per_rank
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .next()
        .expect("at least one survivor")
}

fn main() {
    let machine = MachineModel::cori_knl();
    let net = mlp_tiny();
    let mut t = Table::new(
        "elastic recovery sweep (mlp-tiny, kill rank P-1, rejoin mid-run)".to_string(),
        &[
            "P",
            "grid",
            "base step (us)",
            "MTTR kill (us)",
            "meas/model",
            "degraded step (us)",
            "degraded grid",
            "degraded/base",
            "MTTR rejoin (us)",
            "meas/model",
            "regrown step (us)",
            "comm meas/Eq.8",
        ],
    );
    let us = |secs: f64| format!("{:.2}", secs * 1e6);
    // MTTR against the relayout's closed form, summed over a survivor's
    // recoveries; a recovery that moves no word has no ratio.
    let mttr = |run: &FtDistResult| {
        let model: f64 = (post_recovery_outcome(run).recoveries.iter())
            .map(|r| r.model_secs)
            .sum();
        let mttr = run.stats.max_recovery_secs();
        let ratio = match model > 0.0 {
            true => format!("{:.2}", mttr / model),
            false => "-".to_string(),
        };
        (mttr, model, ratio)
    };
    let (mut scenarios, mut degraded) = (Vec::new(), Vec::new());

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
        let (kill_mttr, kill_model, kill_ratio) = mttr(&killed);
        degraded.push((p, ks.step_secs_per_iter / baseline_step));

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
        let (rejoin_mttr, rejoin_model, rejoin_ratio) = mttr(&rejoined);
        let eq8_comm = integrated_model_batch(&wl, batch as f64, pr, pc).seconds(&machine);

        t.row(vec![
            p.to_string(),
            format!("{pr}x{pc}"),
            us(baseline_step),
            us(kill_mttr),
            kill_ratio,
            us(ks.step_secs_per_iter),
            format!("{}x{}", ks.pr, ks.pc),
            format!("{:.2}", ks.step_secs_per_iter / baseline_step),
            us(rejoin_mttr),
            rejoin_ratio,
            us(rs.step_secs_per_iter),
            format!("{:.2}", rs.comm_secs_per_iter / eq8_comm),
        ]);
        // The workspace links no JSON library, so the JSON is written by
        // hand, in seconds to the nanosecond.
        scenarios.push(format!(
            "    {{\"p\": {p}, \"pr\": {pr}, \"pc\": {pc}, \"baseline_step_secs\": {:.9}, \
             \"kill\": {{\"mttr_secs\": {kill_mttr:.9}, \"model_mttr_secs\": {kill_model:.9}, \
             \"degraded_step_secs\": {:.9}, \"degraded_pr\": {}, \"degraded_pc\": {}}}, \
             \"rejoin\": {{\"mttr_secs\": {rejoin_mttr:.9}, \"model_mttr_secs\": {rejoin_model:.9}, \
             \"regrown_step_secs\": {:.9}, \"measured_comm_secs_per_iter\": {:.9}, \
             \"eq8_comm_secs_per_iter\": {eq8_comm:.9}}}}}",
            baseline_step,
            ks.step_secs_per_iter,
            ks.pr,
            ks.pc,
            rs.step_secs_per_iter,
            rs.comm_secs_per_iter,
        ));
    }
    print!("{}", t.render());
    // The shrunk grids' row groups are not powers of two (1x3, 1x15,
    // 1x63): their ∆W sums run Bruck's rounds, the 2⌈log₂P⌉ α-steps and
    // 2(P−1)/P·n words the baseline's power-of-two groups pay, or on 1x3
    // the gather of whole vectors, which costs less there.
    for (p, ratio) in degraded {
        assert!(ratio <= 1.5, "P={p}: degraded/base {ratio:.2}");
    }

    let json = format!(
        "{{\n  \"bench\": \"recovery_sweep\",\n  \"network\": \"mlp-tiny\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        scenarios.join(",\n")
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    eprintln!("wrote BENCH_recovery.json");
}
