//! Fault-tolerant collectives: a property of the communicator, not a
//! family of functions.
//!
//! The collectives in this crate name no fault policy: each is written
//! once against [`mpsim::Communicator::recv`], `irecv` /
//! `wait` or `recv_channel`. Run on a plain handle they trust the
//! machine — a dropped message would block a ring step forever, and a
//! mid-collective rank death would leave every other member stuck. Run
//! on a **guarded** handle
//! ([`comm.guarded(&FtConfig)`](mpsim::Communicator::guarded), inherited
//! by every sub-communicator built from it) the same body — identical
//! data movement and α–β cost in the fault-free case — is defended
//! three ways:
//!
//! 1. **Deadline-bound receives** — every receive obeys the handle's
//!    [`FtConfig`] (per-peer deadline, retries with jittered backoff,
//!    one speculative re-request for a suspect peer), so a dropped or
//!    straggling message surfaces as [`mpsim::Error::Timeout`] after a
//!    bounded, virtual-clock-charged wait instead of hanging.
//! 2. **Checksum verification** — `mpsim` stamps a word-wise checksum on
//!    every data envelope while a fault plan is active and re-verifies
//!    it at the receiver, so corrupted payloads surface as
//!    [`mpsim::Error::Corrupted`] rather than silently folding a
//!    flipped bit into a reduction.
//! 3. **Group-wide abort** — a receive that surfaces any fault
//!    (timeout, corruption, peer death) broadcasts an abort notice
//!    blaming a culprit rank before returning the error. A member
//!    blocked on a receive from an aborting peer unblocks with
//!    [`mpsim::Error::Aborted`] and *cascades* the abort in turn, so
//!    every rank still waiting on the lost message, directly or through
//!    a peer, fails with "this collective failed, rank k is to blame".
//!    Under the ring and Bruck's rounds that is the whole group; under
//!    recursive doubling a rank whose partners all delivered completes
//!    with the right sum, as a ring rank past its last receive always
//!    could. (Cascading is what makes the protocol live: each blocked
//!    rank waits on exactly one peer, and that peer either sends the
//!    data, dies — death notices are broadcast — or aborts and
//!    cascades.)
//!
//! After an abort, ranks are expected to run a failure-agreement round
//! ([`mpsim::Communicator::fault_sync`]), shrink the communicator
//! ([`mpsim::Communicator::shrink_exclude`], guarding the result
//! again), bump the recovery epoch (staling any in-flight aborts), and
//! retry on the survivor grid — the protocol the `integrated` crate's
//! fault-tolerant trainer implements.
//!
//! This module is the policy's name in this crate: [`FtConfig`] and
//! [`Deadline`] live in `mpsim`, beside the detector they consult.

pub use mpsim::{Deadline, FtConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::exchange_1d;
    use crate::ring::{allgatherv_ring, allreduce_ring};
    use crate::ReduceOp;
    use mpsim::{Error, FaultPlan, NetModel, World};

    fn cfg() -> FtConfig {
        FtConfig::fixed(1e6)
    }

    #[test]
    fn fault_free_allreduce_matches_plain_ring_in_values_and_time() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 6;
        let n = 30;
        let run = |guard: bool| {
            World::run(p, model, |comm| {
                let comm = if guard {
                    comm.guarded(&cfg())
                } else {
                    comm.clone()
                };
                let mut data = vec![(comm.rank() + 1) as f64; n];
                allreduce_ring(&comm, &mut data, ReduceOp::Sum).unwrap();
                (data, comm.now().to_bits())
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn dead_rank_fails_the_whole_group_consistently() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.001,
            flops: f64::INFINITY,
        };
        // Rank 2 dies just before the collective starts.
        let plan = FaultPlan::new(3).kill(2, 0.5);
        let (out, _) = World::run_with_faults(5, model, plan, |comm| {
            comm.advance_compute(1.0);
            let mut data = vec![1.0; 20];
            let comm = comm.guarded(&FtConfig::fixed(10.0));
            allreduce_ring(&comm, &mut data, ReduceOp::Sum)
        });
        for (r, res) in out.iter().enumerate() {
            let e = res.as_ref().expect_err("every rank observes the failure");
            match e {
                Error::RankFailed { rank: 2 } => {}
                Error::Aborted { culprit: 2 } => assert_ne!(r, 2),
                // A rank may see the loss as a timeout first (its ring
                // neighbour died before forwarding); it then blames and
                // aborts, so the group still converges.
                Error::Timeout { .. } => assert_ne!(r, 2),
                other => panic!("rank {r}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_and_aborts_the_group() {
        let model = NetModel::free();
        // Corrupt the first ring message from rank 0 to rank 1.
        let plan = FaultPlan::new(11).corrupt_nth(0, 1, 0);
        let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
            let mut data = vec![(comm.rank() + 1) as f64; 8];
            let comm = comm.guarded(&FtConfig::fixed(100.0));
            allreduce_ring(&comm, &mut data, ReduceOp::Sum)
        });
        // Rank 1 detects the corruption directly; everyone fails.
        assert!(
            matches!(out[1], Err(Error::Corrupted { rank: 0, .. })),
            "{:?}",
            out[1]
        );
        for (r, res) in out.iter().enumerate() {
            assert!(res.is_err(), "rank {r} must not complete: {res:?}");
        }
        assert_eq!(stats.total_corrupt_detected(), 1);
        assert!(stats.total_aborts() >= 1, "abort was broadcast");
    }

    #[test]
    fn dropped_message_times_out_and_retry_is_counted() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let plan = FaultPlan::new(2).drop_nth(1, 2, 0);
        let (out, stats) = World::run_with_faults(3, model, plan, |comm| {
            let mut data = vec![1.0; 6];
            let comm = comm.guarded(&FtConfig::fixed(5.0).with_attempts(2).with_backoff(1.0));
            allreduce_ring(&comm, &mut data, ReduceOp::Sum)
        });
        assert!(
            out.iter().all(|r| r.is_err()),
            "drop fails the group: {out:?}"
        );
        assert!(
            matches!(out[2], Err(Error::Timeout { rank: 1, .. })),
            "{:?}",
            out[2]
        );
        assert_eq!(stats.total_dropped(), 1);
        assert_eq!(stats.ranks[2].retries, 1, "the configured retry ran");
    }

    #[test]
    fn guarded_halo_exchange_matches_plain_when_fault_free() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.5,
            flops: f64::INFINITY,
        };
        let out = World::run(3, model, |comm| {
            let r = comm.rank() as f64;
            let comm = comm.guarded(&FtConfig::fixed(100.0));
            let (halo, ()) = exchange_1d(&comm, &[r * 10.0], &[r * 10.0 + 1.0], || ()).unwrap();
            (halo, comm.now())
        });
        assert_eq!(out[1].0.from_prev, Some(vec![1.0]));
        assert_eq!(out[1].0.from_next, Some(vec![20.0]));
        // Same exposed cost as the plain exchange: alpha + 1*beta = 1.5.
        for (_, t) in &out {
            assert!((t - 1.5).abs() < 1e-12, "{t}");
        }
    }

    #[test]
    fn guarded_halo_times_out_on_dropped_boundary() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let plan = FaultPlan::new(4).drop_nth(1, 0, 0);
        let (out, _) = World::run_with_faults(2, model, plan, |comm| {
            let comm = comm.guarded(&FtConfig::fixed(3.0));
            exchange_1d(&comm, &[5.0], &[6.0], || ()).map(|(h, ())| h)
        });
        assert!(
            matches!(out[0], Err(Error::Timeout { .. })),
            "rank 0's halo from rank 1 was dropped: {:?}",
            out[0]
        );
        assert!(out[1].is_ok(), "rank 1's own halo arrived: {:?}", out[1]);
    }

    #[test]
    fn fault_free_guarded_allgatherv_matches_plain() {
        let out = World::run(4, NetModel::free(), |comm| {
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            let a = allgatherv_ring(comm, &mine).unwrap();
            let b = allgatherv_ring(&comm.guarded(&cfg()), &mine).unwrap();
            (a, b)
        });
        for (a, b) in &out {
            assert_eq!(a, b);
        }
    }
}
