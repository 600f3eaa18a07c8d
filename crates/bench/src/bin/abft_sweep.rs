//! ABFT overhead and detection-coverage sweep.
//!
//! For each grid it measures the checksum tax — fault-free makespan
//! with the defense off vs on (losses must stay bit-identical) — then
//! injects one compute bit flip per mantissa/exponent bit position and
//! classifies the outcome: **corrected** in place, **recovered** via
//! checkpoint rollback, **benign-miss** (below the checksum tolerance
//! *and* final loss still at parity), or **SILENT** (missed and
//! diverged — a defense bug). A weight-memory flip per grid checks the
//! resident-state audit path. Alongside the human-readable table it
//! writes `BENCH_abft.json` for downstream tooling.
//!
//! ```text
//! cargo run --release -p bench --bin abft_sweep            # full bit sweep
//! cargo run --release -p bench --bin abft_sweep -- --smoke # CI subset
//! ```
//!
//! Exit code 1 if any injection lands SILENT or clean runs are not
//! bit-identical.

use std::fmt::Write as _;
use std::process::ExitCode;

use collectives::FtConfig;
use dnn::zoo::mlp_tiny;
use integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
use integrated::report::Table;
use integrated::trainer::synthetic_data;
use integrated::MachineModel;
use mpsim::FaultPlan;
use tensor::Matrix;

/// Per-bit injection verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Corrected,
    Recovered,
    BenignMiss,
    Silent,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Corrected => "corrected",
            Outcome::Recovered => "recovered",
            Outcome::BenignMiss => "benign-miss",
            Outcome::Silent => "SILENT",
        }
    }
}

struct GridReport {
    pr: usize,
    pc: usize,
    makespan_off: f64,
    makespan_on: f64,
    bits: Vec<(u32, Outcome)>,
    memory_flip: Outcome,
}

impl GridReport {
    fn overhead_pct(&self) -> f64 {
        (self.makespan_on / self.makespan_off - 1.0) * 100.0
    }
}

fn losses_of(run: &integrated::ft_trainer::FtDistResult) -> Vec<f64> {
    run.losses()
}

fn classify(run: &integrated::ft_trainer::FtDistResult, clean_losses: &[f64]) -> Outcome {
    let corrected = run.stats.total_corrupt_corrected();
    let recovered = run.stats.total_corrupt_recovered();
    if corrected > 0 && recovered == 0 {
        return Outcome::Corrected;
    }
    if recovered > 0 {
        return Outcome::Recovered;
    }
    // Nothing detected: benign only if the trajectory still matches.
    let parity = losses_of(run)
        .iter()
        .zip(clean_losses)
        .all(|(a, b)| (a - b).abs() < 1e-6);
    if parity {
        Outcome::BenignMiss
    } else {
        Outcome::Silent
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // pr must divide every layer's output rows (48, 32, 10 → pr ≤ 2);
    // pc must divide the batch of 24.
    let grids: &[(usize, usize)] = if smoke {
        &[(2, 3)]
    } else {
        &[(1, 4), (2, 2), (2, 3), (2, 6)]
    };
    let bit_step = if smoke { 4 } else { 1 };

    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let base = FtTrainConfig {
        lr: 0.3,
        iters: 8,
        seed: 7,
        ckpt_every: 2,
        ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
        machine: MachineModel::cori_knl(),
        ..FtTrainConfig::default()
    };

    let mut reports = Vec::new();
    let mut silent_total = 0usize;

    for &(pr, pc) in grids {
        let cfg_off = FtTrainConfig {
            abft: false,
            ..base
        };
        let cfg_on = FtTrainConfig { abft: true, ..base };

        let off = train_1p5d_ft(&net, &x, &labels, &cfg_off, pr, pc, FaultPlan::default());
        let on = train_1p5d_ft(&net, &x, &labels, &cfg_on, pr, pc, FaultPlan::default());
        let clean_losses = losses_of(&off);
        if losses_of(&on) != clean_losses || max_weight_diff(&off.weights(), &on.weights()) != 0.0 {
            eprintln!("abft_sweep: clean runs are NOT bit-identical on {pr}x{pc}");
            return ExitCode::FAILURE;
        }

        // One flip per bit position, mid-training, on a backward GEMM
        // of a middle rank — representative, deterministic, and far
        // from the op-count edge on every grid.
        let mut bits = Vec::new();
        let mut bit = 0u32;
        while bit <= 62 {
            let plan = FaultPlan::new(1000 + bit as u64).bitflip_compute(1, 2, 1, bit);
            let run = train_1p5d_ft(&net, &x, &labels, &cfg_on, pr, pc, plan);
            let out = classify(&run, &clean_losses);
            if out == Outcome::Silent {
                silent_total += 1;
                eprintln!("abft_sweep: SILENT divergence at {pr}x{pc} compute bit {bit}");
            }
            bits.push((bit, out));
            bit += bit_step;
        }

        // One resident-weight flip: must escalate through the audit.
        let plan = FaultPlan::new(7777).bitflip_memory(1, 3, 777, 48);
        let run = train_1p5d_ft(&net, &x, &labels, &cfg_on, pr, pc, plan);
        let memory_flip = classify(&run, &clean_losses);
        if memory_flip == Outcome::Silent {
            silent_total += 1;
            eprintln!("abft_sweep: SILENT divergence at {pr}x{pc} memory bit 48");
        }

        reports.push(GridReport {
            pr,
            pc,
            makespan_off: off.stats.makespan(),
            makespan_on: on.stats.makespan(),
            bits,
            memory_flip,
        });
    }

    let mut t = Table::new(
        "ABFT overhead and single-flip coverage (mlp-tiny, 8 iters)",
        &[
            "grid",
            "makespan off (s)",
            "makespan on (s)",
            "overhead",
            "corrected",
            "recovered",
            "benign-miss",
            "silent",
            "memory flip",
        ],
    );
    for r in &reports {
        let count = |o: Outcome| r.bits.iter().filter(|&&(_, x)| x == o).count();
        t.row(vec![
            format!("{}x{}", r.pr, r.pc),
            format!("{:.4e}", r.makespan_off),
            format!("{:.4e}", r.makespan_on),
            format!("{:.2}%", r.overhead_pct()),
            count(Outcome::Corrected).to_string(),
            count(Outcome::Recovered).to_string(),
            count(Outcome::BenignMiss).to_string(),
            count(Outcome::Silent).to_string(),
            r.memory_flip.as_str().to_string(),
        ]);
    }
    print!("{}", t.render());

    // The workspace links no JSON library, so the JSON is written by hand.
    let mut json = String::from(
        "{\n  \"bench\": \"abft_sweep\",\n  \"network\": \"mlp-tiny\",\n  \"grids\": [\n",
    );
    for (i, r) in reports.iter().enumerate() {
        let bits: Vec<String> = r
            .bits
            .iter()
            .map(|(b, o)| format!("{{\"bit\": {b}, \"outcome\": \"{}\"}}", o.as_str()))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"pr\": {}, \"pc\": {}, \"makespan_off_secs\": {:.6e}, \
             \"makespan_on_secs\": {:.6e}, \"overhead_pct\": {:.4}, \
             \"memory_flip\": \"{}\", \"compute_flips\": [{}]}}{}",
            r.pr,
            r.pc,
            r.makespan_off,
            r.makespan_on,
            r.overhead_pct(),
            r.memory_flip.as_str(),
            bits.join(", "),
            if i + 1 == reports.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_abft.json", &json).expect("write BENCH_abft.json");
    eprintln!("wrote BENCH_abft.json");

    if silent_total > 0 {
        eprintln!("abft_sweep: {silent_total} SILENT divergence(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn max_weight_diff(a: &[Matrix], b: &[Matrix]) -> f64 {
    let mut d: f64 = 0.0;
    for (ma, mb) in a.iter().zip(b) {
        for (x, y) in ma.as_slice().iter().zip(mb.as_slice()) {
            d = d.max((x - y).abs());
        }
    }
    d
}
