//! Fault × collective: every communication pattern in the stack, run on
//! a guarded communicator under a lost message, a corrupt one and a dead
//! rank.
//!
//! No pattern below has a fault-tolerant twin; each is the one body the
//! reliable runs use, and the policy rides on the communicator
//! ([`Communicator::guarded`]). The table pins what that buys:
//!
//! * **fault-free**, a guarded run equals the plain one bit for bit —
//!   values, every `RankStats` counter, every clock;
//! * **under a fault nobody hangs**: every member returns, either an
//!   error or — when nothing it needed was downstream of the fault
//!   (sends are eager, so a peer that aborts has already shipped what
//!   it owed) — exactly the fault-free value; the rank the fault hit
//!   always errors, and so does every member when the pattern has
//!   every rank owe every other a block it only comes to hold later
//!   (the reduce-scatter + all-gather all-reduces) or the dead rank's
//!   data is needed everywhere;
//! * **one abort per surfaced fault**: a member that errors broadcast
//!   exactly one abort (first-hand or cascaded), a member that completed
//!   or died broadcast none, and every cascaded abort names the culprit
//!   the first observer blamed.
//!
//! Every pattern runs on 4 ranks but the all-reduces that only a group
//! whose size is not a power of two runs, which run on 3.
//!
//! The fault-plan seed is taken from `FT_SEED` (default 3) so CI can
//! sweep it, on both backends.

use integrated_parallelism::collectives::binomial::bcast_binomial;
use integrated_parallelism::collectives::bruck::allgather_bruck;
use integrated_parallelism::collectives::halo::exchange_1d;
use integrated_parallelism::collectives::recursive::{
    allreduce_rabenseifner, allreduce_recursive_doubling,
};
use integrated_parallelism::collectives::ring::{allgatherv_ring, allreduce_ring};
use integrated_parallelism::collectives::{
    allgatherv_into, allreduce, reduce_scatter, FtConfig, ReduceOp,
};
use integrated_parallelism::distmm::cols::redistribute_cols;
use integrated_parallelism::distmm::rows::{fetch_rows, NO_FRAME};
use integrated_parallelism::mpsim::{
    Communicator, Error, FaultPlan, NetModel, Result, World, WorldStats,
};
use integrated_parallelism::tensor::{Matrix, Tensor4};

const P: usize = 4;
/// Words each rank contributes (Rabenseifner wants a multiple of `P`).
const N: usize = 8;
/// Under [`run`]'s model, a sum over 3 ranks of more words than this
/// runs Bruck's rounds, and of fewer the gather of whole vectors.
const BRUCK_FROM: usize = 3000;

fn ft_seed() -> u64 {
    std::env::var("FT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn words(rank: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((rank * 37 + i * 11) as f64 * 0.173).sin())
        .collect()
}

/// One pattern: its result on this rank, flattened to words.
type Pattern = fn(&Communicator) -> Result<Vec<f64>>;

fn sum(
    comm: &Communicator,
    allreduce: fn(&Communicator, &mut [f64], ReduceOp) -> Result<()>,
) -> Result<Vec<f64>> {
    let mut data = words(comm.rank());
    allreduce(comm, &mut data, ReduceOp::Sum)?;
    Ok(data)
}

/// Every pattern delivers rank 0's words to every member but the halo
/// exchange, which has neighbours only. Each row names the group size
/// it runs on.
const TABLE: [(&str, usize, Pattern); 12] = [
    ("allreduce_ring", P, |c| sum(c, allreduce_ring)),
    ("allreduce_recursive_doubling", P, |c| {
        sum(c, allreduce_recursive_doubling)
    }),
    ("allreduce_rabenseifner", P, |c| {
        sum(c, allreduce_rabenseifner)
    }),
    ("allgatherv_ring", P, |c| {
        Ok(allgatherv_ring(c, &words(c.rank()))?.concat())
    }),
    ("allgatherv_into", P, |c| {
        let mut out = vec![0.0; P * N];
        allgatherv_into(c, words(c.rank()), &mut out, |r| r * N..(r + 1) * N)?;
        Ok(out)
    }),
    ("allgather_bruck", P, |c| {
        allgather_bruck(c, &words(c.rank()))
    }),
    ("bcast_binomial", P, |c| {
        let mut data = if c.rank() == 0 { words(0) } else { Vec::new() };
        bcast_binomial(c, &mut data, 0)?;
        Ok(data)
    }),
    ("halo::exchange_1d", P, |c| {
        let mine = words(c.rank());
        let (halo, ()) = exchange_1d(c, &mine[..3], &mine[3..], || ())?;
        let both = [halo.from_prev, halo.from_next];
        Ok(both.into_iter().flatten().flatten().collect())
    }),
    ("rows::fetch_rows + cols::redistribute_cols", P, |c| {
        // Each rank owns one row (one column) and needs them all.
        let owned: Vec<_> = (0..P).map(|r| r..r + 1).collect();
        let needed = vec![0..P; P];
        let strip = Tensor4::from_vec(1, 1, 1, N, words(c.rank()));
        let rows = fetch_rows(c, &strip, &owned, &needed, || ())?.frame(&strip, NO_FRAME);
        let x = Matrix::from_vec(N, 1, words(c.rank()));
        let cols = redistribute_cols(c, &x, &owned, &needed, &[true; P])?;
        Ok([rows.as_slice(), cols.as_slice()].concat())
    }),
    ("allreduce: gather of whole vectors", 3, |c| {
        sum(c, allreduce)
    }),
    ("allreduce: Bruck's rounds", 3, |c| {
        let mut data = words(c.rank()).repeat(BRUCK_FROM / N + 1);
        allreduce(c, &mut data, ReduceOp::Sum)?;
        Ok(data)
    }),
    ("reduce_scatter: Bruck's rounds", 3, |c| {
        reduce_scatter(c, words(c.rank()), 1, ReduceOp::Sum)
    }),
];

/// The reduce-scatter + all-gather all-reduces: every rank owes every
/// other a block it only comes to hold later, so a fault at one member
/// must fail them all.
const CHAINED: [&str; 3] = [
    "allreduce_ring",
    "allreduce_rabenseifner",
    "allreduce: Bruck's rounds",
];

/// What one world leaves behind.
type Run = (Vec<Result<Vec<u64>>>, WorldStats);

fn run(p: usize, body: Pattern, plan: FaultPlan, guard: bool) -> Run {
    let model = NetModel {
        alpha: 1e-3,
        beta: 1e-6,
        flops: f64::INFINITY,
    };
    let cfg = FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5);
    World::run_with_faults(p, model, plan, |comm| {
        // Skew the ranks so arrival order matters to the clocks.
        comm.advance_compute(1e-4 * comm.rank() as f64);
        let comm = if guard {
            comm.guarded(&cfg)
        } else {
            comm.clone()
        };
        body(&comm).map(|v| v.iter().map(|x| x.to_bits()).collect())
    })
}

/// Every message into rank 1 of `p` fails at first use, by `fault`.
fn into_rank_1(p: usize, fault: fn(FaultPlan, usize, usize, u64) -> FaultPlan) -> FaultPlan {
    (0..p)
        .filter(|&src| src != 1)
        .fold(FaultPlan::new(ft_seed()), |plan, src| {
            fault(plan, src, 1, 0)
        })
}

#[test]
fn guarded_and_plain_agree_bit_for_bit_when_fault_free() {
    for (name, p, body) in TABLE {
        let plain = run(p, body, FaultPlan::new(ft_seed()), false);
        let guarded = run(p, body, FaultPlan::new(ft_seed()), true);
        assert!(plain.0.iter().all(Result::is_ok), "{name}: {:?}", plain.0);
        assert_eq!(plain.0, guarded.0, "{name}: values");
        assert_eq!(plain.1, guarded.1, "{name}: RankStats and clocks");
    }
}

#[test]
fn every_pattern_surfaces_every_fault_on_a_guarded_communicator() {
    for (name, p, body) in TABLE {
        let faults: [(&str, FaultPlan, usize); 3] = [
            ("drop", into_rank_1(p, FaultPlan::drop_nth), 1),
            ("corrupt", into_rank_1(p, FaultPlan::corrupt_nth), 1),
            ("kill", FaultPlan::new(ft_seed()).kill(0, 0.0), 0),
        ];
        let (clean, _) = run(p, body, FaultPlan::new(ft_seed()), true);
        for (fault, plan, hit) in &faults {
            let row = format!("{name} / {fault}");
            let (out, stats) = run(p, body, plan.clone(), true);
            // The rank the fault hit errors, first-hand.
            let culprit = match (&out[*hit], *fault) {
                (Err(Error::Timeout { rank, .. }), "drop") => *rank,
                (Err(Error::Corrupted { rank, .. }), "corrupt") => *rank,
                (Err(Error::RankFailed { rank: 0 }), "kill") => 0,
                (other, _) => panic!("{row}: rank {hit} returned {other:?}"),
            };
            for (r, got) in out.iter().enumerate() {
                match got {
                    Ok(v) => assert_eq!(Ok(v), clean[r].as_ref(), "{row}: rank {r} value"),
                    Err(Error::Aborted { culprit: c }) => {
                        assert_eq!(*c, culprit, "{row}: rank {r} cascaded another culprit")
                    }
                    Err(Error::RankFailed { rank: 0 }) if *fault == "kill" => {}
                    Err(_) if r == *hit => {}
                    Err(e) => panic!("{row}: rank {r} returned {e:?}"),
                }
                let dead = *fault == "kill" && r == 0;
                let aborts = (got.is_err() && !dead) as u64;
                assert_eq!(stats.ranks[r].aborts_sent, aborts, "{row}: rank {r} aborts");
            }
            // Rank 0's words reach every member of every pattern but
            // the halo exchange, where only rank 1 is its neighbour.
            let everyone = match *fault {
                "kill" => name != "halo::exchange_1d",
                _ => CHAINED.contains(&name),
            };
            assert!(
                !everyone || out.iter().all(Result::is_err),
                "{row}: {out:?}"
            );
        }
    }
}
