//! Property-based tests for the trace subsystem: across random fault
//! plans and seeds, every rank's recorded timeline is well-formed —
//! begin/end balanced, timestamps finite and monotone, spans
//! nested-or-disjoint on the main timeline (leaf spans strictly
//! non-overlapping) — and the trace alone reconstructs the simulator's
//! own accounting. A final pair of tests pins the zero-overhead claim:
//! tracing must not move the virtual clock by a single bit.

use proptest::prelude::*;

use integrated_parallelism::collectives::ft::FtConfig;
use integrated_parallelism::dnn::zoo::mlp_tiny;
use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft_traced, FtTrainConfig};
use integrated_parallelism::integrated::overlap::OverlapPlan;
use integrated_parallelism::integrated::trainer::{
    synthetic_data, train_1p5d, train_1p5d_scheduled, train_1p5d_scheduled_traced,
    train_1p5d_traced, TrainConfig,
};
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{
    EventKind, FaultPlan, NetModel, RankTrace, Span, TraceConfig, TraceEvent, Track, WorldStats,
    WorldTrace,
};

/// Slack for interval comparisons. Main-track leaf timestamps are
/// copies of the same clock values, so they compare exactly; channel
/// span starts are reconstructed as `ready_at - transfer` and can land
/// one ulp early.
const EPS: f64 = 1e-12;

/// The per-rank well-formedness invariants from the issue.
fn check_rank(rt: &RankTrace) -> Result<(), TestCaseError> {
    prop_assert_eq!(rt.unclosed, 0, "rank {}: guard span leaked", rt.rank);
    prop_assert_eq!(rt.dropped, 0, "rank {}: ring buffer overflowed", rt.rank);

    for (track, label) in [(Track::Main, "main"), (Track::Channel, "channel")] {
        let evs: Vec<_> = rt.events.iter().filter(|e| e.track == track).collect();

        // Timestamps are finite, spans end after they start, instants
        // are points.
        for e in &evs {
            prop_assert!(
                e.t0.is_finite() && e.t1.is_finite(),
                "rank {} {label}: non-finite time in {}/{}",
                rt.rank,
                e.cat,
                e.name
            );
            prop_assert!(
                e.t1 >= e.t0,
                "rank {} {label}: {}/{} ends before it starts",
                rt.rank,
                e.cat,
                e.name
            );
            if e.kind == EventKind::Instant {
                prop_assert_eq!(e.t0, e.t1, "instant with extent");
            }
        }

        // End times are monotone in record order: events are recorded
        // when they close, and the clock never runs backwards.
        for w in evs.windows(2) {
            prop_assert!(
                w[1].t1 >= w[0].t1 - EPS,
                "rank {} {label}: t1 regressed, {}/{} [{};{}] then {}/{} [{};{}]",
                rt.rank,
                w[0].cat,
                w[0].name,
                w[0].t0,
                w[0].t1,
                w[1].cat,
                w[1].name,
                w[1].t0,
                w[1].t1
            );
        }

        // Any two spans on one track are nested or disjoint — a
        // partial overlap means two code paths both thought they owned
        // the same stretch of the timeline.
        let mut spans: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .copied()
            .collect();
        spans.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(b.t1.total_cmp(&a.t1)));
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                if b.t0 >= a.t1 - EPS {
                    break; // sorted by t0: everything later is disjoint
                }
                prop_assert!(
                    b.t1 <= a.t1 + EPS,
                    "rank {} {label}: partial overlap {}/{} [{};{}] vs {}/{} [{};{}]",
                    rt.rank,
                    a.cat,
                    a.name,
                    a.t0,
                    a.t1,
                    b.cat,
                    b.name,
                    b.t0,
                    b.t1
                );
            }
        }

        // Leaf spans additionally never overlap at all: they partition
        // the stretches where the clock advanced. Zero-duration spans
        // (a drain that found the channel already idle) are points and
        // cannot overlap anything.
        let mut leaves: Vec<_> = spans
            .iter()
            .filter(|e| {
                e.t1 > e.t0
                    && (track == Track::Channel
                        || ["compute", "comm", "drain", "fault"].contains(&e.cat))
            })
            .collect();
        leaves.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        for w in leaves.windows(2) {
            prop_assert!(
                w[1].t0 >= w[0].t1 - EPS,
                "rank {} {label}: leaf overlap {}/{} [{};{}] vs {}/{} [{};{}]",
                rt.rank,
                w[0].cat,
                w[0].name,
                w[0].t0,
                w[0].t1,
                w[1].cat,
                w[1].name,
                w[1].t0,
                w[1].t1
            );
        }
    }
    Ok(())
}

/// Trace-vs-stats agreement (the `trace_analyze` cross-check, as a
/// reusable assertion).
fn check_against_stats(trace: &WorldTrace, stats: &WorldStats) -> Result<(), TestCaseError> {
    for (r, rt) in trace.ranks.iter().enumerate() {
        prop_assert!(
            (rt.comm_wait_secs() - stats.ranks[r].comm_wait_secs).abs() <= 1e-9,
            "rank {r}: trace comm_wait {} vs stats {}",
            rt.comm_wait_secs(),
            stats.ranks[r].comm_wait_secs
        );
        prop_assert!(
            (rt.overlapped_secs() - stats.ranks[r].overlapped_secs).abs() <= 1e-9,
            "rank {r}: trace overlapped {} vs stats {}",
            rt.overlapped_secs(),
            stats.ranks[r].overlapped_secs
        );
        prop_assert!(
            (rt.end_time() - stats.clocks[r].now).abs() <= 1e-9,
            "rank {r}: trace end {} vs clock {}",
            rt.end_time(),
            stats.clocks[r].now
        );
    }
    Ok(())
}

fn ft_cfg(overlap: bool, ckpt_every: usize) -> FtTrainConfig {
    FtTrainConfig {
        lr: 0.3,
        iters: 2,
        seed: 7,
        ckpt_every,
        ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
        machine: MachineModel::cori_knl(),
        plan: overlap.then(OverlapPlan::default),
        ..FtTrainConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole property: whatever the fault plan does — stragglers,
    /// dropped and corrupted messages, even a mid-run kill — every
    /// rank's trace stays well-formed and reconstructs the stats.
    #[test]
    fn trace_wellformed_under_random_fault_plans(
        seed in 0u64..1000,
        straggle_link in 0usize..8,
        extra_us in 0u64..40,
        drop_link in 0usize..8,
        corrupt_link in 0usize..8,
        kill_pick in 0usize..12,
        overlap_pick in 0usize..2,
        ckpt_every in 1usize..3,
    ) {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, 5);
        let cfg = ft_cfg(overlap_pick == 1, ckpt_every);

        // Random fault plan over the 2x4 grid's 8 ranks. Links are
        // (src, src+1 mod 8); the kill (when the draw lands on a live
        // rank > 0) happens mid-run relative to typical makespans.
        let mut plan = FaultPlan::new(seed)
            .straggle(
                straggle_link,
                (straggle_link + 1) % 8,
                extra_us as f64 * 1e-6,
                1e-6,
                Span::All,
            )
            .drop_nth(drop_link, (drop_link + 1) % 8, 0)
            .corrupt_nth(corrupt_link, (corrupt_link + 3) % 8, 1);
        if (1..8).contains(&kill_pick) {
            plan = plan.kill(kill_pick, 2e-5);
        }

        let (res, trace) = train_1p5d_ft_traced(
            &net, &x, &labels, &cfg, 2, 4, plan, TraceConfig::enabled(),
        );
        prop_assert_eq!(trace.ranks.len(), 8);
        for rt in &trace.ranks {
            check_rank(rt)?;
        }
        check_against_stats(&trace, &res.stats)?;
        prop_assert!(trace.makespan().is_finite());
    }

    /// The plain and overlapped trainers' traces reconstruct the stats
    /// for arbitrary seeds and grids (no faults: the equality is then
    /// bit-level, but 1e-9 is the contract).
    #[test]
    fn trace_matches_stats_on_clean_runs(
        seed in 0u64..1000,
        grid_pick in 0usize..3,
    ) {
        let (pr, pc) = [(1, 4), (2, 2), (4, 1)][grid_pick];
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 16, seed);
        let cfg = TrainConfig { lr: 0.2, iters: 2, seed };
        let model = NetModel::cori_knl();

        let (ser, st) = train_1p5d_traced(
            &net, &x, &labels, &cfg, pr, pc, model, TraceConfig::enabled(),
        );
        for rt in &st.ranks {
            check_rank(rt)?;
        }
        check_against_stats(&st, &ser.stats)?;

        let (ovl, ot) = train_1p5d_scheduled_traced(
            &net, &x, &labels, &cfg, pr, pc, model, TraceConfig::enabled(),
            OverlapPlan::default(),
        );
        for rt in &ot.ranks {
            check_rank(rt)?;
        }
        check_against_stats(&ot, &ovl.stats)?;
        // The blocking run attempts no overlap; the traced hidden time
        // must agree.
        let hidden: f64 = st.ranks.iter().map(RankTrace::overlapped_secs).sum();
        prop_assert_eq!(hidden, 0.0);
    }
}

/// Tracing must be invisible to the simulation: identical losses and
/// bit-identical virtual clocks with tracing on, off, and absent.
#[test]
fn tracing_adds_zero_overhead_to_the_virtual_clock() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 16, 9);
    let cfg = TrainConfig {
        lr: 0.2,
        iters: 3,
        seed: 3,
    };
    let model = NetModel::cori_knl();
    for (pr, pc) in [(2usize, 2usize), (1, 4)] {
        let plain = train_1p5d(&net, &x, &labels, &cfg, pr, pc, model);
        let (on, _) = train_1p5d_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::enabled(),
        );
        let (off, off_trace) = train_1p5d_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::disabled(),
        );
        assert_eq!(off_trace.total_events(), 0, "disabled tracer recorded");
        for (a, b, c) in plain
            .stats
            .clocks
            .iter()
            .zip(&on.stats.clocks)
            .zip(&off.stats.clocks)
            .map(|((a, b), c)| (a, b, c))
        {
            assert_eq!(a.now.to_bits(), b.now.to_bits(), "traced clock moved");
            assert_eq!(a.now.to_bits(), c.now.to_bits(), "disabled clock moved");
            assert_eq!(a.comm.to_bits(), b.comm.to_bits());
            assert_eq!(a.compute.to_bits(), b.compute.to_bits());
        }
        assert_eq!(plain.losses(), on.losses());

        let plan = OverlapPlan::default();
        let ovl = train_1p5d_scheduled(&net, &x, &labels, &cfg, pr, pc, model, plan);
        let (ovl_on, _) = train_1p5d_scheduled_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            model,
            TraceConfig::enabled(),
            plan,
        );
        assert_eq!(
            ovl.stats.makespan().to_bits(),
            ovl_on.stats.makespan().to_bits(),
            "tracing perturbed the overlapped run"
        );
        assert_eq!(ovl.losses(), ovl_on.losses());
    }
}

/// One iteration body serves both trainers, so a fault-free run leaves
/// the same `trainer` layout in both traces: phase spans closed before
/// `optimizer_step`, and `iter` carried on every phase event. The FT
/// trainer's own `checkpoint` instants are the only extra events.
#[test]
fn ft_and_scheduled_traces_share_one_trainer_layout() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 16, 9);
    let iters = 3;
    let layout = |trace: &WorldTrace| -> Vec<Vec<(&'static str, u32, Option<f64>)>> {
        trace
            .ranks
            .iter()
            .map(|rt| {
                rt.events
                    .iter()
                    .filter(|e| e.cat == "trainer" && e.name != "checkpoint")
                    .map(|e| (e.name, e.depth, e.arg("iter")))
                    .collect()
            })
            .collect()
    };
    for overlap in [false, true] {
        let ft = FtTrainConfig {
            iters,
            ..ft_cfg(overlap, 2)
        };
        let (res, ft_trace) = train_1p5d_ft_traced(
            &net,
            &x,
            &labels,
            &ft,
            2,
            2,
            FaultPlan::default(),
            TraceConfig::enabled(),
        );
        assert_eq!(res.survivors().len(), 4);
        let cfg = TrainConfig {
            lr: ft.lr,
            iters,
            seed: ft.seed,
        };
        let model = ft.machine.net_model();
        let (_, plain_trace) = if overlap {
            train_1p5d_scheduled_traced(
                &net,
                &x,
                &labels,
                &cfg,
                2,
                2,
                model,
                TraceConfig::enabled(),
                OverlapPlan::default(),
            )
        } else {
            train_1p5d_traced(&net, &x, &labels, &cfg, 2, 2, model, TraceConfig::enabled())
        };
        let (ft_layout, plain_layout) = (layout(&ft_trace), layout(&plain_trace));
        assert_eq!(ft_layout, plain_layout, "overlap={overlap}");
        for (name, depth, iter) in &ft_layout[0] {
            match *name {
                "forward" | "backward" | "optimizer_step" => {
                    assert_eq!(*depth, 0, "{name} is a top-level phase");
                    assert!(iter.is_some(), "{name} carries its iteration");
                }
                _ => assert_eq!(*depth, 1, "{name} nests inside a phase"),
            }
        }
    }
}

/// The `(cat, name)` histogram of the events of a world trace that
/// `keep` selects and an FNV-1a over their `(t0, t1)` bit patterns, rank
/// by rank in recording order.
fn trace_fingerprint(
    trace: &WorldTrace,
    keep: impl Fn(&TraceEvent) -> bool,
) -> (Vec<(&'static str, &'static str, usize)>, u64) {
    let mut hist = std::collections::BTreeMap::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace
        .ranks
        .iter()
        .flat_map(|rt| &rt.events)
        .filter(|e| keep(e))
    {
        *hist.entry((e.cat, e.name)).or_insert(0usize) += 1;
        for b in [e.t0.to_bits(), e.t1.to_bits()]
            .iter()
            .flat_map(|w| w.to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (hist.into_iter().map(|((c, n), k)| (c, n, k)).collect(), h)
}

/// Re-recorded when all-reduces began running the selected schedule.
/// Every group of this 2×2 run has two ranks, so each all-reduce is one
/// recursive-doubling exchange (`allreduce_recursive_doubling` spans,
/// one `chunk_step` per non-blocking launch instead of the ring's two)
/// and each forward gather doubles (`allgatherv_doubling`; the FT state
/// sync keeps its ring). The plan's fourth 0 → 1 message is then a
/// different collective's, so recovery takes another path: 6 quorum
/// verdicts instead of 3, 5 timeouts instead of 4, and 2 fewer replayed
/// optimizer steps. The rejoin still lands.
///
/// Re-recorded again when the scheduled backward became the only one:
/// this run's plan is the default, and every layer's ∆X sum (3 per
/// backward pass, the FT trainer forming layer 0's too, so 108) is now
/// launched on the channel before the layer's ∆W GEMM instead of run
/// blocking after it. Those 108 sums leave `allreduce_recursive_doubling`
/// for `iallreduce_launch`; 106 of their exchanges finish (the plan's
/// faults cut two short) and move from `recv` to `chunk_step`, channel `xfer`
/// and `drain`. The recovery path is the same: the same 5 timeouts, 6
/// verdicts, 7 rollbacks and one rejoin.
///
/// Re-recorded when the FT state sync began gathering in `⌈log₂P⌉`
/// rounds (`allgatherv_into`). The regrow's sync over 4 ranks doubles:
/// its 12 gathers (3 layers on each rank) take 2 receives each where
/// the ring took 3 (12 `allgatherv_ring` spans become
/// `allgatherv_doubling`, 12 `recv` fewer). The shrink's sync over the 3
/// survivors runs Bruck's 2 rounds, as many as the ring's steps, but each
/// block arrives straight from its holder instead of through rank 1, so
/// ranks 0, 1 and 2 each finish one more gather before the rejoin cuts
/// that recovery short (5 ring spans become 8 `allgatherv_bruck`, 6
/// `recv` more). Everything else is unchanged.
///
/// Re-recorded when the FT trainer stopped forming layer 0's ∆X. Each
/// of the 36 backward passes launches one 2-rank ∆X sum fewer (36
/// `iallreduce_launch`, `chunk_step`, channel `xfer` and `drain` fewer)
/// and runs one GEMM fewer. In the first iteration ranks 1 and 3 used to
/// meet the plan's abort at layer 0's ∆X wait; that wait is gone, and
/// they now meet it at layer 1's, so those two passes skip layer 0
/// altogether: 2 `layer_bwd` spans and their 2 layer-0 ∆W GEMMs fewer
/// (36 + 2 = 38 `compute`). The recovery path is the same: 5 timeouts,
/// 6 verdicts, 7 rollbacks and one rejoin.
///
/// The timestamps were re-recorded, the histogram kept, when the ∆X sums
/// became reduce-scatters: each 2-rank ∆X sum is still one exchange on
/// the channel (`iallreduce_launch`, one `chunk_step`, `xfer` and
/// `drain`), but it now sends half its words, the half of `∆X` whose rows
/// its partner's layer below reads. No span or instant was renamed or
/// moved between names, and the recovery path is the same: 5 timeouts,
/// 6 verdicts, 7 rollbacks and one rejoin.
///
/// Re-recorded, with both FNVs, when the loss began riding the last ∆W
/// bucket and a recovery began gathering its checkpoint in one
/// collective. The 36 one-word loss sums (`allreduce_recursive_doubling`)
/// are gone, so the clean run is shorter (129.0 → 113.0 µs), the kill and
/// the rejoin land earlier, and the plan's fourth 0 → 1 message is
/// another one. Rank 3 now dies inside iteration 0 (39.5 µs): the three
/// survivors shrink to 1 × 3 and commit (epoch 1); rank 3 rejoins at
/// 62.1 µs and the four regrow to 2 × 2 (epoch 2); the dropped message is
/// then the first 2 466-word bucket of the regrown grid (2 464 ∆W words
/// and the two columns' loss slots), rank 1 times out on it once, and
/// all four roll back to iteration 0 (epoch 3). The parent lost a
/// message of the shrink's state sync instead, so that recovery failed
/// and every rank timed out and backed off before one regrow. Hence 11 recoveries and rollbacks
/// (3 on each survivor, 2 on rank 3) where there were 7, 1 timeout, no
/// backoff and 3 verdicts where there were 5, 4 and 6, 3 Bruck and 128
/// doubling gathers (one per recovery, the 1 × 3 sync's Bruck's, and
/// one per forward layer), and 10 forward and backward passes per rank
/// where there were 9: the 8 committed, and iteration 0 cut short twice,
/// by the kill and by the drop.
///
/// Re-recorded, with both FNVs, when a recovery began relayouting only
/// the checkpoint rows each new grid position lacks, a commit began
/// aligning the survivors' clocks, and a channel receive began running
/// the guarded retry schedule. The 11 recovery gathers are gone (3 Bruck
/// and 8 doubling, with their 22 `recv`s). The shrink to 1 × 3 (epoch 1)
/// is three `comm/wait`s of 2 464 words, ranks 0, 1 and 2 each fetching
/// the row they lacked; the regrow to 2 × 2 (epoch 2) is one, the
/// joiner's, since every survivor already holds its new row. Eight
/// `comm/sync` spans are the commits' clock alignment (epoch 1 on ranks
/// 1 and 2, epoch 2 on ranks 0, 1 and 2, epoch 3 on ranks 0, 2 and 3).
/// The kill and the regrow end sooner, so the plan's fourth 0 → 1
/// message is now a bucket of iteration 2: rank 1 waits a window on it,
/// backs off and waits a second before it aborts, and the four roll back
/// to iteration 2 in place (epoch 3), the other three waiting at the
/// commit for rank 1's clock. Hence 2 timeouts and 1 backoff where there
/// were 1 and none, and 24 `peer_dead` notices where there were 21; the
/// recoveries and rollbacks stay at 11.
///
/// Re-recorded, with both FNVs, when the top layer became input-split.
/// In each of the 40 forward passes the gather of the top's input is
/// gone and the logits' gather is a one-step doubling all-reduce (120
/// gathers became 40 gathers and 40 all-reduces, with 40 `recv`s
/// fewer), and in each backward pass the top's ∆X is not summed (40
/// launches fewer, with their `chunk_step`s, `xfer`s and `drain`s). The
/// recovery path is the same: 2 timeouts, 1 backoff, 3 verdicts, 11
/// recoveries and rollbacks, one rejoin.
const GOLDEN_FT_HIST: &[(&str, &str, usize)] = &[
    ("channel", "xfer", 79),
    ("collective", "allgatherv_doubling", 40),
    ("collective", "allreduce_recursive_doubling", 40),
    ("comm", "backoff", 1),
    ("comm", "recv", 80),
    ("comm", "sync", 8),
    ("comm", "timeout", 2),
    ("comm", "wait", 4),
    ("compute", "compute", 320),
    ("drain", "drain", 79),
    ("fault", "dead_gap", 1),
    ("fault", "died", 1),
    ("fault", "drop", 1),
    ("fault", "peer_dead", 24),
    ("fault", "rejoin", 1),
    ("nb", "chunk_step", 79),
    ("nb", "iallreduce_launch", 80),
    ("quorum", "verdict", 3),
    ("sched", "bucket_flush", 40),
    ("trainer", "backward", 40),
    ("trainer", "checkpoint", 16),
    ("trainer", "forward", 40),
    ("trainer", "layer_bwd", 120),
    ("trainer", "layer_fwd", 120),
    ("trainer", "optimizer_step", 40),
    ("trainer", "recovery", 11),
    ("trainer", "rollback", 11),
];
const GOLDEN_FT_FNV: u64 = 0x7a38_ca1e_897a_1438;
/// The same FNV over every event but the `collective` scope spans:
/// first recorded while the FT trainer's rings still carried `_ft` names
/// and no phase sub-spans, to pin what moving the fault policy onto the
/// communicator had to leave untouched; re-recorded with the histogram
/// (every time), and with the timestamps when each 2-rank ∆X sum began
/// sending half its words, when the loss began riding the ∆W bucket,
/// when a recovery became a relayout, and when the top layer became
/// input-split.
const GOLDEN_FT_LEAF_FNV: u64 = 0xc994_5533_c2eb_c17a;
/// The scheduled run's histogram. Layer 0's ∆X is not formed (per rank
/// and iteration, 4 × 3 = 12 GEMMs, launches, drains and 24 ring steps
/// fewer than the retired engine's 132, 48, 84 and 132). Each of the 36
/// all-reduce launches over a 2-rank group is one recursive-doubling
/// step, where the ring took two: 36 `chunk_step`s and channel
/// transfers fewer again. The forward gathers block: each of the 36 is
/// one doubling exchange (`allgatherv_doubling`, `recv`) where the
/// retired prefetch launched an `iallgatherv` and took its one ring step
/// on the channel, and each layer past the first runs its partial
/// product as one GEMM, where the prefetch accumulated it block by block
/// (2 compute spans fewer per rank and iteration). The top layer is
/// input-split: per rank and iteration, its input is not gathered and
/// its ∆X not summed (12 gathers with their `recv`s, and 12 launches with
/// their `chunk_step`, `xfer` and `drain`, fewer), and its logits' gather
/// is a one-step doubling all-reduce.
const GOLDEN_SCHED_HIST: &[(&str, &str, usize)] = &[
    ("channel", "xfer", 132 - 24 - 36 - 36 - 12),
    ("collective", "allgatherv_doubling", 36 - 24),
    ("collective", "allreduce_recursive_doubling", 12),
    ("comm", "recv", 36 - 12),
    ("compute", "compute", 132 - 12 - 24),
    ("drain", "drain", 84 - 12 - 36 - 12),
    ("nb", "chunk_step", 132 - 24 - 36 - 36 - 12),
    ("nb", "iallreduce_launch", 48 - 12 - 12),
    ("sched", "bucket_flush", 12),
    ("trainer", "backward", 12),
    ("trainer", "forward", 12),
    ("trainer", "layer_bwd", 36),
    ("trainer", "layer_fwd", 36),
    ("trainer", "optimizer_step", 12),
];
/// Re-recorded with the histogram (the forward no longer prefetches).
/// Re-recorded again, the histogram kept, when each 2-rank ∆X sum became
/// a reduce-scatter: the same one channel step, sending half its words;
/// and with the histogram when the top layer became input-split.
const GOLDEN_SCHED_FNV: u64 = 0x319d_5166_7521_2be5;
/// The same FNV over every event but the `trainer` phases, first
/// recorded to pin that moving the drain left everything below the
/// phases alone; re-recorded with the histogram, and with
/// [`GOLDEN_SCHED_FNV`] when each 2-rank ∆X sum began sending half its
/// words and when the top layer became input-split.
const GOLDEN_SCHED_BELOW_TRAINER_FNV: u64 = 0x6369_7770_8c80_0185;

/// Golden traces recorded at `fc240c2`, before `mpsim`'s three receive
/// completions, five notice broadcasts and ten `World::run_*` were
/// folded into one each: every span and instant of a faulted FT run
/// (drop + straggle + kill→rejoin, 2×2) and of a scheduled run must keep
/// its name, count and timestamps to the bit.
#[test]
fn golden_traces_survive_the_envelope_refactor() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 16, 5);

    let cfg = FtTrainConfig {
        iters: 8,
        ..ft_cfg(true, 2)
    };
    let clean = train_1p5d_ft_traced(
        &net,
        &x,
        &labels,
        &cfg,
        2,
        2,
        FaultPlan::default(),
        TraceConfig::disabled(),
    )
    .0;
    let m = clean.stats.makespan();
    let plan = FaultPlan::new(11)
        .drop_nth(0, 1, 3)
        .straggle(2, 0, 2e-5, 1e-6, Span::All)
        .kill(3, 0.35 * m)
        .rejoin(3, 0.55 * m);
    let (res, trace) =
        train_1p5d_ft_traced(&net, &x, &labels, &cfg, 2, 2, plan, TraceConfig::enabled());
    assert_eq!(res.stats.total_rejoins(), 1);
    let (hist, fnv) = trace_fingerprint(&trace, |_| true);
    assert_eq!(hist, GOLDEN_FT_HIST, "FT trace histogram");
    assert_eq!(fnv, GOLDEN_FT_FNV, "FT trace timestamps");
    let (_, fnv) = trace_fingerprint(&trace, |e| e.cat != "collective");
    assert_eq!(
        fnv, GOLDEN_FT_LEAF_FNV,
        "FT trace timestamps below the collectives"
    );

    let tcfg = TrainConfig {
        lr: 0.2,
        iters: 3,
        seed: 3,
    };
    let plan = OverlapPlan::default();
    let (_, trace) = train_1p5d_scheduled_traced(
        &net,
        &x,
        &labels,
        &tcfg,
        2,
        2,
        NetModel::cori_knl(),
        TraceConfig::enabled(),
        plan,
    );
    let (hist, fnv) = trace_fingerprint(&trace, |_| true);
    assert_eq!(hist, GOLDEN_SCHED_HIST, "scheduled trace histogram");
    assert_eq!(fnv, GOLDEN_SCHED_FNV, "scheduled trace timestamps");
    let (_, fnv) = trace_fingerprint(&trace, |e| e.cat != "trainer");
    assert_eq!(
        fnv, GOLDEN_SCHED_BELOW_TRAINER_FNV,
        "scheduled trace timestamps below the trainer's phases"
    );
}
