//! Chaos campaign driver: sweeps seeded random fault plans through the
//! invariant oracle, minimizes and persists any failing plan as
//! replayable JSON, and replays persisted plans.
//!
//! ```text
//! cargo run --release -p bench --bin chaos_campaign -- --smoke
//! cargo run --release -p bench --bin chaos_campaign -- --seeds 1000
//! cargo run --release -p bench --bin chaos_campaign -- --sdc --seeds 200
//! cargo run --release -p bench --bin chaos_campaign -- --fixture-bad
//! cargo run --release -p bench --bin chaos_campaign -- --fixture-sdc
//! cargo run --release -p bench --bin chaos_campaign -- --replay plan.json
//! ```
//!
//! Modes:
//! - `--smoke` (default): 200 seeded plans; exit 1 on the first
//!   invariant violation after writing the *minimized* plan to `--out`
//!   (default `chaos_failing_plan.json`). CI uploads that file as an
//!   artifact.
//! - `--seeds N`: same, with N plans.
//! - `--sdc`: draw plans with [`ChaosPlan::generate_sdc`] — the base
//!   chaos plus scripted compute/memory bit flips — and judge them
//!   with the ABFT defense on, so the sixth invariant (no silent
//!   divergence) has teeth. Composes with `--smoke`/`--seeds`.
//! - `--fixture-bad`: self-test of the oracle + minimizer on the
//!   known-bad fixture (kills every replica of weight row 1). Expects a
//!   violation, shrinks it, asserts ≤ 3 events remain, writes the JSON,
//!   parses it back, and re-checks that the replayed plan still fails.
//! - `--fixture-sdc`: self-test on the known-bad SDC fixture — a
//!   single high-bit compute flip checked with ABFT *off*. Expects a
//!   `no-silent-divergence` violation that shrinks to the one flip,
//!   and that the same plan goes green under a defended oracle.
//! - `--replay FILE`: parse FILE and run it through an oracle built for
//!   the plan's own grid and iteration count, reporting the verdict
//!   (exit 1 if it violates, or if FILE does not parse or validate).

use std::process::ExitCode;

use integrated::chaos::{minimize, ChaosPlan, Oracle};

struct Args {
    mode: Mode,
    seeds: u64,
    sdc: bool,
    out: String,
}

enum Mode {
    Campaign,
    FixtureBad,
    FixtureSdc,
    Replay(ChaosPlan),
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Campaign,
        seeds: 200,
        sdc: false,
        out: "chaos_failing_plan.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.seeds = 200,
            "--seeds" => {
                let n = it.next().ok_or("--seeds needs a count")?;
                args.seeds = n.parse().map_err(|_| format!("bad seed count {n:?}"))?;
            }
            "--sdc" => args.sdc = true,
            "--fixture-bad" => args.mode = Mode::FixtureBad,
            "--fixture-sdc" => args.mode = Mode::FixtureSdc,
            "--replay" => {
                let f = it.next().ok_or("--replay needs a file")?;
                let text =
                    std::fs::read_to_string(&f).map_err(|e| format!("cannot read {f}: {e}"))?;
                let plan =
                    ChaosPlan::from_json(&text).map_err(|e| format!("cannot parse {f}: {e}"))?;
                args.mode = Mode::Replay(plan);
            }
            "--out" => args.out = it.next().ok_or("--out needs a file")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos_campaign: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (pr, pc, iters) = match &args.mode {
        Mode::Replay(plan) => (plan.pr, plan.pc, plan.iters),
        _ => (2, 3, 8),
    };
    println!(
        "building fault-free reference ({pr}x{pc} grid, {iters} iters, abft {})...",
        if args.sdc { "on" } else { "off" }
    );
    let oracle = Oracle::with_abft(pr, pc, iters, args.sdc);
    println!("fault-free makespan: {:.3e} s", oracle.clean_makespan());

    match args.mode {
        Mode::Campaign => campaign(&oracle, args.seeds, args.sdc, &args.out),
        Mode::FixtureBad => fixture_bad(&oracle, &args.out),
        Mode::FixtureSdc => fixture_sdc(&oracle, &args.out),
        Mode::Replay(plan) => replay(&oracle, &plan),
    }
}

fn campaign(oracle: &Oracle, seeds: u64, sdc: bool, out: &str) -> ExitCode {
    println!(
        "campaign: {seeds} seeded plans{}",
        if sdc { " with bit flips (SDC)" } else { "" }
    );
    for seed in 0..seeds {
        let plan = if sdc {
            ChaosPlan::generate_sdc(seed)
        } else {
            ChaosPlan::generate(seed)
        };
        match oracle.check(&plan) {
            Ok(()) => {
                if (seed + 1) % 25 == 0 {
                    println!("  {}/{} green", seed + 1, seeds);
                }
            }
            Err(v) => {
                println!("seed {seed} VIOLATED {v}");
                println!("minimizing {} events...", plan.events.len());
                let min = minimize(&plan, oracle);
                let verdict = oracle.check(&min).expect_err("minimized plan still fails");
                println!(
                    "minimized to {} events, violation: {verdict}",
                    min.events.len()
                );
                if let Err(e) = std::fs::write(out, min.to_json()) {
                    eprintln!("failed to write {out}: {e}");
                } else {
                    println!("replayable plan written to {out}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    println!("campaign green: {seeds}/{seeds} plans satisfied every invariant");
    ExitCode::SUCCESS
}

fn fixture_bad(oracle: &Oracle, out: &str) -> ExitCode {
    let bad = ChaosPlan::known_bad();
    println!("fixture: {} events (3 kills + noise)", bad.events.len());
    let v = match oracle.check(&bad) {
        Err(v) => v,
        Ok(()) => {
            eprintln!("FIXTURE BUG: known-bad plan passed the oracle");
            return ExitCode::FAILURE;
        }
    };
    println!("violation (expected): {v}");

    let min = minimize(&bad, oracle);
    println!("minimized to {} events", min.events.len());
    if min.events.len() > 3 {
        eprintln!("MINIMIZER BUG: expected <= 3 events, got {:?}", min.events);
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::write(out, min.to_json()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let text = std::fs::read_to_string(out).expect("just wrote it");
    let replayed = match ChaosPlan::from_json(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ROUND-TRIP BUG: {e}");
            return ExitCode::FAILURE;
        }
    };
    if replayed != min {
        eprintln!("ROUND-TRIP BUG: parsed plan differs from written plan");
        return ExitCode::FAILURE;
    }
    match oracle.check(&replayed) {
        Err(v) => println!("replayed plan still violates: {v}"),
        Ok(()) => {
            eprintln!("REPLAY BUG: minimized plan passed on replay");
            return ExitCode::FAILURE;
        }
    }
    println!("fixture self-test passed (minimized plan at {out})");
    ExitCode::SUCCESS
}

fn fixture_sdc(undefended: &Oracle, out: &str) -> ExitCode {
    let bad = ChaosPlan::known_bad_sdc();
    println!(
        "SDC fixture: {} events (1 compute flip + noise), ABFT off",
        bad.events.len()
    );
    let v = match undefended.check(&bad) {
        Err(v) => v,
        Ok(()) => {
            eprintln!("FIXTURE BUG: known-bad SDC plan passed the undefended oracle");
            return ExitCode::FAILURE;
        }
    };
    println!("violation (expected): {v}");
    if v.invariant != "no-silent-divergence" {
        eprintln!(
            "FIXTURE BUG: expected no-silent-divergence, got {}",
            v.invariant
        );
        return ExitCode::FAILURE;
    }

    let min = minimize(&bad, undefended);
    println!("minimized to {} events", min.events.len());
    if min.events.len() != 1 {
        eprintln!(
            "MINIMIZER BUG: expected the lone flip, got {:?}",
            min.events
        );
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::write(out, min.to_json()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let text = std::fs::read_to_string(out).expect("just wrote it");
    let replayed = match ChaosPlan::from_json(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ROUND-TRIP BUG: {e}");
            return ExitCode::FAILURE;
        }
    };
    if replayed != min {
        eprintln!("ROUND-TRIP BUG: parsed plan differs from written plan");
        return ExitCode::FAILURE;
    }

    // The same flip must be harmless under the defended oracle.
    println!("re-checking the minimized plan with ABFT on...");
    let defended = Oracle::with_abft(2, 3, 8, true);
    match defended.check(&replayed) {
        Ok(()) => println!("defended oracle survives the minimized plan"),
        Err(v) => {
            eprintln!("DEFENSE BUG: ABFT run still violates: {v}");
            return ExitCode::FAILURE;
        }
    }
    println!("SDC fixture self-test passed (minimized plan at {out})");
    ExitCode::SUCCESS
}

fn replay(oracle: &Oracle, plan: &ChaosPlan) -> ExitCode {
    println!("replaying {} events", plan.events.len());
    match oracle.check(plan) {
        Ok(()) => {
            println!("plan satisfies every invariant");
            ExitCode::SUCCESS
        }
        Err(v) => {
            println!("plan violates: {v}");
            ExitCode::FAILURE
        }
    }
}
