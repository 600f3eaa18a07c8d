//! Trace cross-checker and analyzer: runs the 1.5D trainers and one
//! small domain-parallel CNN run with per-rank tracing on, verifies
//! that the trace alone reconstructs the simulator's own accounting,
//! and reports a critical-path and exposed-wait breakdown.
//!
//! The cross-checks are the point: for every rank, to 1e-9,
//!
//! * Σ dur of `drain` spans      == `RankStats::comm_wait_secs`,
//! * Σ `hidden` args on drains   == `RankStats::overlapped_secs`,
//! * max span end time           == the rank's final `Clock::now`,
//!
//! and the trace makespan equals `WorldStats::makespan()`. Any
//! mismatch means an instrumentation hole (a clock-advancing site that
//! forgot to emit a span) and the binary exits nonzero.
//!
//! Alongside the checks it writes the scheduled run's timeline as
//! Chrome Trace Event JSON (`trace_analyze.trace.json`) — open it at
//! <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! ```text
//! cargo run --release -p bench --bin trace_analyze            # full
//! cargo run --release -p bench --bin trace_analyze -- --smoke # CI
//! ```

use std::collections::BTreeMap;

use bench::parse_args;
use dnn::zoo::{mini_alexnet, mlp};
use integrated::cnn::{synthetic_images, train_cnn_domain_traced};
use integrated::overlap::OverlapPlan;
use integrated::report::Table;
use integrated::trainer::{
    synthetic_data, train_1p5d_scheduled_traced, train_1p5d_traced, TrainConfig,
};
use mpsim::{NetModel, TraceConfig, TraceSink, WorldStats, WorldTrace};

/// Cross-check tolerance from the issue: the trace must reproduce the
/// stats to within 1e-9 (in practice the match is bit-exact — the drain
/// spans carry the very same floating-point values the stats
/// accumulate).
const TOL: f64 = 1e-9;

/// Verifies the per-rank accounting invariants; returns the number of
/// mismatches (0 = trace and stats agree).
fn cross_check(label: &str, trace: &WorldTrace, stats: &WorldStats) -> usize {
    let mut bad = 0;
    let mut check = |rank: usize, what: &str, from_trace: f64, from_stats: f64| {
        let err = (from_trace - from_stats).abs();
        // NaN must count as a mismatch, hence the explicit check.
        if err.is_nan() || err > TOL {
            eprintln!(
                "MISMATCH [{label}] rank {rank} {what}: trace {from_trace:.12e} \
                 vs stats {from_stats:.12e} (|Δ| = {err:.3e})"
            );
            bad += 1;
        }
    };
    for (r, rt) in trace.ranks.iter().enumerate() {
        assert_eq!(rt.rank, r, "traces arrive in rank order");
        assert_eq!(rt.dropped, 0, "ring buffer overflowed; raise the cap");
        assert_eq!(rt.unclosed, 0, "guard span leaked");
        check(
            r,
            "comm_wait",
            rt.comm_wait_secs(),
            stats.ranks[r].comm_wait_secs,
        );
        check(
            r,
            "overlapped",
            rt.overlapped_secs(),
            stats.ranks[r].overlapped_secs,
        );
        check(r, "makespan", rt.end_time(), stats.clocks[r].now);
    }
    let world_err = (trace.makespan() - stats.makespan()).abs();
    if world_err.is_nan() || world_err > TOL {
        eprintln!(
            "MISMATCH [{label}] world makespan: trace {:.12e} vs stats {:.12e}",
            trace.makespan(),
            stats.makespan()
        );
        bad += 1;
    }
    bad
}

/// Per-rank exposed-wait breakdown: for each rank, main-timeline time
/// split by leaf category, plus the share of wall time spent in exposed
/// waits (the part overlap failed to hide).
fn breakdown_table(label: &str, trace: &WorldTrace, csv: bool) {
    let mut t = Table::new(
        format!("{label}: per-rank leaf breakdown (virtual seconds)"),
        &[
            "rank",
            "compute",
            "comm",
            "drain",
            "fault",
            "hidden",
            "channel",
            "exposed %",
        ],
    );
    for rt in &trace.ranks {
        let b: BTreeMap<&str, f64> = rt.breakdown().into_iter().collect();
        let end = rt.end_time();
        let drain = b.get("drain").copied().unwrap_or(0.0);
        t.row(vec![
            rt.rank.to_string(),
            format!("{:.3e}", b.get("compute").copied().unwrap_or(0.0)),
            format!("{:.3e}", b.get("comm").copied().unwrap_or(0.0)),
            format!("{drain:.3e}"),
            format!("{:.3e}", b.get("fault").copied().unwrap_or(0.0)),
            format!("{:.3e}", rt.overlapped_secs()),
            format!("{:.3e}", rt.channel_secs()),
            format!("{:.2}", 100.0 * drain / end.max(f64::MIN_POSITIVE)),
        ]);
    }
    print!("{}", if csv { t.to_csv() } else { t.render() });
    println!();
}

/// The critical path of a run is the slowest rank's main timeline (the
/// simulator's makespan is its final `now`). Decompose it: leaf
/// categories say *what kind* of time dominates; aggregated scope spans
/// say *which operations* it sits under.
fn critical_path(label: &str, trace: &WorldTrace, csv: bool) {
    let crit = trace
        .ranks
        .iter()
        .max_by(|a, b| a.end_time().total_cmp(&b.end_time()))
        .expect("at least one rank");
    let end = crit.end_time();
    println!(
        "[{label}] critical path: rank {} (end {:.6e} s, {} events)",
        crit.rank,
        end,
        crit.events.len()
    );

    // Aggregate scope spans (collective / nb / trainer) by name: total
    // inclusive time and call count. Inclusive times overlap across
    // nesting levels, so they do not sum to the makespan — they rank
    // the operations the critical rank spent its life inside.
    let mut agg: BTreeMap<(&str, &str), (f64, u64)> = BTreeMap::new();
    for e in &crit.events {
        if matches!(e.cat, "collective" | "nb" | "trainer") {
            let slot = agg.entry((e.cat, e.name)).or_insert((0.0, 0));
            slot.0 += e.dur();
            slot.1 += 1;
        }
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
    let mut t = Table::new(
        format!("{label}: critical-rank scope spans (inclusive time)"),
        &["cat", "name", "calls", "total s", "% of makespan"],
    );
    for ((cat, name), (total, calls)) in rows.into_iter().take(12) {
        t.row(vec![
            cat.to_string(),
            name.to_string(),
            calls.to_string(),
            format!("{total:.3e}"),
            format!("{:.2}", 100.0 * total / end.max(f64::MIN_POSITIVE)),
        ]);
    }
    print!("{}", if csv { t.to_csv() } else { t.render() });
    println!();
}

fn main() {
    let args = parse_args();
    let smoke = std::env::args().any(|a| a == "--smoke");

    // The smoke stack is sized so at least one gradient bucket fills
    // *during* backward (256·192/2 words > the default 8192-word cap on
    // a pr=2 grid) — otherwise the scheduled run has nothing in flight
    // at its poll points and the sched-instant checks below are vacuous.
    let (net, b, iters) = if smoke {
        (mlp("trace-smoke", &[256, 192, 10]), 16, 1)
    } else {
        (mlp("trace-mlp", &[1152, 512, 512, 10]), 64, 2)
    };
    let cfg = TrainConfig {
        lr: 0.1,
        iters,
        seed: 11,
    };
    let (x, labels) = synthetic_data(&net, b, 42);
    let model = NetModel::cori_knl();
    let (pr, pc) = (2, 2);
    let trace_cfg = TraceConfig::enabled();

    let mut bad = 0;

    // Blocking per-layer all-reduces: every channel drain is fully
    // exposed, so the trace's drain total must equal the entire
    // comm_wait and `hidden` must reconstruct overlapped_secs == 0.
    let (ser, ser_trace) = train_1p5d_traced(&net, &x, &labels, &cfg, pr, pc, model, trace_cfg);
    bad += cross_check("blocking", &ser_trace, &ser.stats);
    breakdown_table("blocking", &ser_trace, args.csv);

    // Bucketed non-blocking ∆W path: drains split into exposed +
    // hidden, and the scheduler's `sched` instants (bucket_flush /
    // progress_poll) are zero-duration markers outside the leaf
    // partition, so the same 1e-9 reconstruction must hold with them
    // present in the stream.
    let (sch, sch_trace) = train_1p5d_scheduled_traced(
        &net,
        &x,
        &labels,
        &cfg,
        pr,
        pc,
        model,
        trace_cfg,
        OverlapPlan::default(),
    );
    bad += cross_check("scheduled", &sch_trace, &sch.stats);
    breakdown_table("scheduled", &sch_trace, args.csv);
    critical_path("scheduled", &sch_trace, args.csv);
    let (flushes, polls) = sch_trace.ranks.iter().fold((0, 0), |(f, p), rt| {
        (
            f + rt.instant_count("sched", "bucket_flush"),
            p + rt.instant_count("sched", "progress_poll"),
        )
    });
    assert!(flushes > 0, "scheduled trace recorded no bucket flushes");
    assert!(polls > 0, "scheduled trace recorded no progress polls");
    println!("[scheduled] sched instants: {flushes} bucket_flush, {polls} progress_poll\n");

    // The CNN trainer's two schedulers on one channel — the head's sum
    // over the batch shards, issued before the trunk backward and
    // waited after it, and the trunk's over the whole grid — under the
    // same invariants.
    let alex = mini_alexnet();
    let (xs, ys) = synthetic_images(&alex, 8, 42);
    let cnn_cfg = TrainConfig { lr: 0.02, ..cfg };
    let (cnn, trace) = train_cnn_domain_traced(&alex, &xs, &ys, &cnn_cfg, 2, 2, model, trace_cfg);
    bad += cross_check("cnn 2x2", &trace, &cnn.stats);

    println!("{}", TraceSink::new(&sch_trace).summary());

    let out = std::path::Path::new("trace_analyze.trace.json");
    TraceSink::new(&sch_trace)
        .write_chrome_json(out)
        .expect("write trace JSON");
    eprintln!(
        "wrote {} ({} events; open at https://ui.perfetto.dev)",
        out.display(),
        sch_trace.total_events()
    );

    // Same trajectory sanity as fig8_exec: tracing must not perturb
    // the simulated numerics in any way.
    let ser_ref = integrated::trainer::train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
    assert_eq!(
        ser.losses(),
        ser_ref.losses(),
        "tracing changed the training trajectory"
    );
    assert_eq!(
        ser.stats.makespan(),
        ser_ref.stats.makespan(),
        "tracing changed the virtual clock"
    );

    if bad > 0 {
        eprintln!("{bad} cross-check mismatch(es)");
        std::process::exit(1);
    }
    println!("trace_analyze: all cross-checks passed (tol {TOL:.0e})");
}
