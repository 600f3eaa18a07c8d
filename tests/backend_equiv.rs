//! Cross-backend equivalence: the discrete-event fiber engine and the
//! thread-per-rank oracle must be **bit-identical** — same results,
//! same traffic counters, same final virtual clocks, same traces —
//! for any workload under any valid fault plan.
//!
//! Both backends share every layer above the transport (matching by
//! `(ctx, src, tag)` with per-sender FIFO, all time from envelope
//! `depart` fields, fault decisions keyed on virtual time), so the
//! only way they can diverge is a scheduling-sensitive bug in one of
//! them. These proptests are the differential harness that pins that
//! down: random ring workloads × random fault scripts, executed on
//! both backends via [`RunOpts::backend`], compared
//! with exact (not approximate) equality.

use proptest::prelude::*;

use integrated_parallelism::collectives::FtConfig;
use integrated_parallelism::dnn::zoo::mlp_tiny;
use integrated_parallelism::integrated::ft_trainer::{train_1p5d_ft, FtTrainConfig};
use integrated_parallelism::integrated::trainer::synthetic_data;
use integrated_parallelism::integrated::MachineModel;
use integrated_parallelism::mpsim::{
    Backend, FaultPlan, NetModel, RunOpts, Span, TraceConfig, World,
};

/// A ring-exchange workload that tolerates every scripted fault: each
/// rank alternates compute with a timed exchange to its right
/// neighbor, recording the exact outcome (payload bits or the error's
/// debug form) and its clock after every step. The returned value is
/// sensitive to any reordering, loss, corruption, duplication, kill,
/// or partition decision — a one-bit divergence between backends
/// changes it.
fn ring_workload(
    comm: &integrated_parallelism::mpsim::Communicator,
    iters: usize,
    words: usize,
) -> Vec<String> {
    let p = comm.size();
    let r = comm.rank();
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    let mut journal = Vec::with_capacity(iters * 2);
    for it in 0..iters {
        let tag = 100 + it as u64;
        let payload: Vec<f64> = (0..words)
            .map(|w| (r * 1000 + it * 10 + w) as f64 * 0.1)
            .collect();
        let sent = comm.send(right, tag, &payload);
        let got = comm.recv_timeout(left, tag, 25.0);
        journal.push(match (&sent, &got) {
            (Ok(()), Ok(data)) => {
                let bits: Vec<u64> = data.iter().map(|x| x.to_bits()).collect();
                format!("it{it}: ok {bits:?}")
            }
            _ => format!("it{it}: send={sent:?} recv={got:?}"),
        });
        journal.push(format!("it{it}: t={}", comm.now().to_bits()));
        if sent.is_err() && got.is_err() {
            // Dead or cut off: stop like a real program would.
            break;
        }
    }
    journal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workload × random fault plan ⇒ bit-identical results,
    /// stats, and traces on both backends.
    #[test]
    fn backends_are_bit_identical_under_faults(
        p in 2usize..6,
        iters in 1usize..4,
        words in 1usize..9,
        kill_victim in 0usize..16,
        kill_at in 0.0f64..2.0,
        straggle_extra in 0.0f64..3.0,
        drop_nth in 0u64..3,
        reorder_depth in 1u64..3,
        part_at in 0.0f64..1.5,
        heal_dt in 0.01f64..2.0,
        menu in 0u32..32,
    ) {
        let model = NetModel {
            alpha: 0.5,
            beta: 0.01,
            flops: 1e9,
        };
        // Assemble a valid plan from the drawn ingredients; each menu
        // bit enables one fault class so the cases cover the empty
        // plan, single faults, and compound scripts.
        let mut plan = FaultPlan::new(42).with_default_timeout(25.0);
        if menu & 1 != 0 {
            plan = plan.kill(kill_victim % p, kill_at);
        }
        if menu & 2 != 0 {
            plan = plan.straggle(0, 1 % p, straggle_extra, 0.5, Span::All);
        }
        if menu & 4 != 0 {
            plan = plan.drop_nth(1 % p, 2 % p, drop_nth).corrupt_nth(0, 1 % p, drop_nth + 1);
        }
        if menu & 8 != 0 {
            plan = plan
                .duplicate_nth(2 % p, 3 % p, drop_nth)
                .reorder_nth(0, 1 % p, drop_nth, reorder_depth);
        }
        if menu & 16 != 0 {
            let group: Vec<usize> = (0..p / 2).collect();
            if !group.is_empty() {
                plan = plan
                    .partition_oneway(&group, part_at)
                    .heal(&group, part_at + heal_dt);
            }
        }
        prop_assume!(plan.validate().is_ok());

        let trace = TraceConfig::enabled().with_cap(1 << 12);
        let run = |backend| {
            let opts = RunOpts {
                faults: plan.clone(),
                trace,
                backend: Some(backend),
                ..RunOpts::default()
            };
            World::run_opts(p, model, opts, |comm| ring_workload(comm, iters, words))
        };
        let (out_t, stats_t, trace_t) = run(Backend::Threads);
        let (out_e, stats_e, trace_e) = run(Backend::Events);
        prop_assert_eq!(&out_t, &out_e, "results diverge");
        prop_assert_eq!(&stats_t, &stats_e, "stats diverge");
        prop_assert_eq!(&trace_t, &trace_e, "traces diverge");
    }
}

/// A shifting-partner exchange: in every round a rank sends to the rank
/// `shift` places on and receives from the one `shift` places back —
/// `shift`, the payload length and the compute charged all drawn from
/// `seed` and the round — and every third round ends in a barrier. On a
/// sharded world most rounds cross the shard boundary both ways. The
/// journal holds every payload and clock bit by bit.
fn shuffle_workload(
    comm: &integrated_parallelism::mpsim::Communicator,
    seed: u64,
    rounds: u64,
) -> Vec<u64> {
    let (p, r) = (comm.size() as u64, comm.rank() as u64);
    let mut journal = Vec::new();
    for round in 0..rounds {
        let h =
            (seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let shift = 1 + (h >> 32) % (p - 1);
        let words = 1 + (h >> 8) % 40 + (r + round) % 3;
        let payload: Vec<f64> = (0..words).map(|w| (r * 131 + w) as f64 * 0.37).collect();
        let (to, from) = ((r + shift) % p, (r + p - shift) % p);
        let got = comm
            .sendrecv(to as usize, &payload, from as usize, 500 + round)
            .expect("no faults are injected");
        comm.advance_flops(got.iter().sum::<f64>().abs() * 1e3 + (r % 4) as f64 * 1e5);
        journal.extend(got.iter().map(|x| x.to_bits()));
        if round % 3 == 2 {
            comm.barrier().expect("no faults are injected");
        }
        journal.push(comm.now().to_bits());
    }
    journal
}

/// No result depends on how many workers the event engine runs a world
/// on: the same worlds at 1, 2, 3 and 4 workers (pinned through the
/// backend value, so a 2-core runner oversubscribes) and on the
/// threaded oracle, with `P` a multiple of the count and not. Faults
/// are left out — a faulted world runs on one worker by rule.
#[test]
fn sharded_worlds_are_bit_identical_for_every_worker_count() {
    let model = NetModel {
        alpha: 0.5,
        beta: 0.01,
        flops: 1e9,
    };
    for (p, seed) in [(8usize, 1u64), (9, 2), (17, 3), (64, 4)] {
        let run = |backend| {
            let opts = RunOpts {
                trace: TraceConfig::enabled().with_cap(1 << 12),
                backend: Some(backend),
                ..RunOpts::default()
            };
            World::run_opts(p, model, opts, |comm| {
                let ring = ring_workload(comm, 3, 1 + p % 7);
                (ring, shuffle_workload(comm, seed, 12))
            })
        };
        let single = run(Backend::EventsOn(1));
        for backend in [2, 3, 4]
            .map(Backend::EventsOn)
            .into_iter()
            .chain([Backend::Threads])
        {
            let other = run(backend);
            assert_eq!(single.0, other.0, "P = {p}, {backend:?}: results diverge");
            assert_eq!(single.1, other.1, "P = {p}, {backend:?}: stats diverge");
            assert_eq!(single.2, other.2, "P = {p}, {backend:?}: traces diverge");
        }
    }
}

/// The full fault-tolerant trainer — checkpointing, kill detection,
/// shrink, replay — produces bit-identical loss curves on both
/// backends. This exercises the control plane (death notices, φ-accrual
/// health, revive) far beyond what the raw ring workload reaches.
#[test]
fn ft_trainer_loss_curve_is_backend_invariant() {
    let net = mlp_tiny();
    let (x, labels) = synthetic_data(&net, 24, 5);
    let cfg = FtTrainConfig {
        lr: 0.3,
        iters: 6,
        seed: 7,
        ckpt_every: 2,
        ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
        machine: MachineModel::cori_knl(),
        ..FtTrainConfig::default()
    };
    let run = |backend| {
        // `set_override` is process-global, so scope it tightly; the
        // trainer only consults it when its inner `World` launches.
        Backend::set_override(Some(backend));
        let plan = FaultPlan::new(3).kill(3, 0.4);
        let r = train_1p5d_ft(&net, &x, &labels, &cfg, 2, 2, plan);
        Backend::set_override(None);
        r
    };
    let a = run(Backend::Threads);
    let b = run(Backend::Events);
    assert_eq!(a.stats, b.stats, "world stats diverge across backends");
    assert_eq!(
        a.per_rank.len(),
        b.per_rank.len(),
        "rank counts diverge across backends"
    );
    for (r, (oa, ob)) in a.per_rank.iter().zip(&b.per_rank).enumerate() {
        match (oa, ob) {
            (Ok(sa), Ok(sb)) => {
                let la: Vec<u64> = sa.losses.iter().map(|x| x.to_bits()).collect();
                let lb: Vec<u64> = sb.losses.iter().map(|x| x.to_bits()).collect();
                assert_eq!(la, lb, "rank {r}: loss curves diverge across backends");
                assert_eq!(
                    sa.recoveries.len(),
                    sb.recoveries.len(),
                    "rank {r}: recovery counts diverge"
                );
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(
                    format!("{ea:?}"),
                    format!("{eb:?}"),
                    "rank {r}: failure outcomes diverge"
                );
            }
            _ => panic!("rank {r}: survived on one backend but not the other"),
        }
    }
}
