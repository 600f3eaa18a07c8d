#![cfg(test)]
//! The move-through rings against the step loops they replaced.
//!
//! [`legacy`] is a frozen, test-only copy of the PR-13 ring bodies
//! (`to_vec` the outgoing block, receive, reduce or copy in place) for
//! the blocking and the channel-driven schedules. Every ring in
//! [`crate::ring`] — on a plain and on a guarded communicator — and in
//! [`crate::nonblocking`] must produce the same bits, the same per-rank
//! virtual clocks and the same traffic as its legacy twin, for every
//! `P ∈ 1..=9`, lengths that `P` does not divide, and all three
//! operators.

use mpsim::{Clock, Communicator, NetModel, Result, Tag, World, WorldStats};
use proptest::prelude::*;

use crate::chunks::block_range;
use crate::nonblocking::launch;
use crate::ring::{allgather_ring, allgatherv_ring, allreduce_ring};
use crate::{FtConfig, ReduceOp, Schedule};

mod legacy {
    use super::*;

    const RS: Tag = (1 << 48) + 900;
    const AG: Tag = (1 << 48) + 901;

    /// How a legacy ring moves one block: on the main timeline, or on
    /// the comm channel with explicit departure times.
    pub enum Via {
        Main,
        Channel {
            next_depart: f64,
            ready_at: f64,
            charged: f64,
        },
    }

    impl Via {
        pub fn channel(comm: &Communicator) -> Via {
            Via::Channel {
                next_depart: comm.now(),
                ready_at: comm.now(),
                charged: 0.0,
            }
        }

        fn exchange(&mut self, comm: &Communicator, tag: Tag, block: Vec<f64>) -> Result<Vec<f64>> {
            let (p, r) = (comm.size(), comm.rank());
            let (next, prev) = ((r + 1) % p, (r + p - 1) % p);
            match self {
                Via::Main => {
                    comm.send_vec(next, tag, block)?;
                    comm.recv(prev, tag)
                }
                Via::Channel {
                    next_depart,
                    ready_at,
                    charged,
                } => {
                    comm.send_vec_at(next, tag, block, *next_depart)?;
                    let got = comm.recv_channel(prev, tag)?;
                    *next_depart = got.ready_at;
                    *ready_at = got.ready_at;
                    *charged += got.transfer;
                    Ok(got.data)
                }
            }
        }

        pub fn complete(self, comm: &Communicator) {
            if let Via::Channel {
                ready_at, charged, ..
            } = self
            {
                comm.complete_channel(ready_at, charged);
            }
        }
    }

    pub fn allreduce(comm: &Communicator, data: &mut [f64], op: ReduceOp, via: &mut Via) {
        let (p, r, n) = (comm.size(), comm.rank(), data.len());
        for step in 0..p - 1 {
            let send = data[block_range(n, p, (r + p - step) % p)].to_vec();
            let incoming = via.exchange(comm, RS, send).unwrap();
            op.apply(
                &mut data[block_range(n, p, (r + p - step - 1) % p)],
                &incoming,
            );
        }
        for step in 0..p - 1 {
            let send = data[block_range(n, p, (r + 1 + p - step) % p)].to_vec();
            let incoming = via.exchange(comm, AG, send).unwrap();
            data[block_range(n, p, (r + p - step) % p)].copy_from_slice(&incoming);
        }
    }

    pub fn allgatherv(comm: &Communicator, mine: &[f64], via: &mut Via) -> Vec<Vec<f64>> {
        let (p, r) = (comm.size(), comm.rank());
        let mut out = vec![Vec::new(); p];
        out[r] = mine.to_vec();
        for step in 0..p - 1 {
            let send = out[(r + p - step) % p].clone();
            out[(r + p - step - 1) % p] = via.exchange(comm, AG, send).unwrap();
        }
        out
    }
}

use legacy::Via;

/// Rank-dependent contribution with mixed signs and magnitudes, so
/// Sum's rounding and Max/Min's choices depend on operand order.
fn contribution(rank: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((rank * 37 + i * 11) as f64 * 0.173).sin() * 10f64.powi((i % 7) as i32 - 3))
        .collect()
}

/// What a world leaves behind that must not move: values, clocks, and
/// the traffic counters.
fn observe<T: Send>(
    p: usize,
    body: impl Fn(&Communicator) -> T + Sync,
) -> (Vec<(T, Clock)>, (u64, u64)) {
    let model = NetModel {
        alpha: 1e-3,
        beta: 1e-6,
        flops: 1e9,
    };
    let (out, stats): (_, WorldStats) = World::run_with_stats(p, model, |comm| {
        // Skew the ranks so arrival order matters to the clocks.
        comm.advance_compute(1e-4 * comm.rank() as f64);
        let v = body(comm);
        (v, comm.clock())
    });
    (out, (stats.total_msgs(), stats.total_words()))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_clock(a: &Clock, b: &Clock) -> bool {
    (a.now.to_bits(), a.comm.to_bits(), a.compute.to_bits())
        == (b.now.to_bits(), b.comm.to_bits(), b.compute.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn allreduce_rings_match_the_legacy_step_loop(
        p in 1usize..10, n in 0usize..67, op in prop::sample::select(vec![ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min])
    ) {
        let cfg = FtConfig::fixed(1e6);
        let (want, want_traffic) = observe(p, |comm| {
            let mut d = contribution(comm.rank(), n);
            legacy::allreduce(comm, &mut d, op, &mut Via::Main);
            d
        });
        for (which, guard) in [false, true].into_iter().enumerate() {
            let (got, traffic) = observe(p, |comm| {
                let mut d = contribution(comm.rank(), n);
                let comm = if guard { comm.guarded(&cfg) } else { comm.clone() };
                allreduce_ring(&comm, &mut d, op).unwrap();
                d
            });
            prop_assert_eq!(traffic, want_traffic, "variant {}", which);
            for (r, ((g, gc), (w, wc))) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(bits(g), bits(w), "variant {} rank {}", which, r);
                prop_assert!(same_clock(gc, wc), "variant {} rank {}: {:?} vs {:?}", which, r, gc, wc);
            }
        }
        // Non-blocking, under the ring whatever the selector would pick:
        // against the legacy loop driven over the channel, with compute
        // between launch and wait.
        let (want, want_traffic) = observe(p, |comm| {
            let mut d = contribution(comm.rank(), n);
            let mut via = Via::channel(comm);
            comm.advance_compute(2e-3);
            legacy::allreduce(comm, &mut d, op, &mut via);
            via.complete(comm);
            d
        });
        let (got, traffic) = observe(p, |comm| {
            let mut h = launch(comm, contribution(comm.rank(), n), op, Schedule::Ring).unwrap();
            comm.advance_compute(2e-3);
            h.progress().unwrap();
            h.wait().unwrap()
        });
        prop_assert_eq!(traffic, want_traffic);
        for (r, ((g, gc), (w, wc))) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(bits(g), bits(w), "nb rank {}", r);
            prop_assert!(same_clock(gc, wc), "nb rank {}: {:?} vs {:?}", r, gc, wc);
        }
    }

    #[test]
    fn gather_rings_match_the_legacy_step_loop(p in 1usize..10, m in 0usize..23, ragged in 0usize..2) {
        let cfg = FtConfig::fixed(1e6);
        // `ragged`: rank r contributes m + r words instead of m.
        let len = |r: usize| m + ragged * r;
        let offset = |r: usize| (0..r).map(len).sum::<usize>();
        let (want, want_traffic) = observe(p, |comm| {
            legacy::allgatherv(comm, &contribution(comm.rank(), len(comm.rank())), &mut Via::Main)
        });
        type Gather<'a> = &'a (dyn Fn(&Communicator, &[f64]) -> Vec<Vec<f64>> + Sync);
        let split = |flat: Vec<f64>| (0..p).map(|r| flat[offset(r)..offset(r + 1)].to_vec()).collect();
        let plain = |comm: &Communicator, mine: &[f64]| allgatherv_ring(comm, mine).unwrap();
        let ft = |comm: &Communicator, mine: &[f64]| plain(&comm.guarded(&cfg), mine);
        let equal = |comm: &Communicator, mine: &[f64]| split(allgather_ring(comm, mine).unwrap());
        let mut variants: Vec<Gather> = vec![&plain, &ft];
        if ragged == 0 {
            variants.push(&equal);
        }
        for (which, gather) in variants.iter().enumerate() {
            let (got, traffic) = observe(p, |comm| {
                gather(comm, &contribution(comm.rank(), len(comm.rank())))
            });
            prop_assert_eq!(traffic, want_traffic, "variant {}", which);
            for (r, ((g, gc), (w, wc))) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "variant {} rank {}", which, r);
                prop_assert!(same_clock(gc, wc), "variant {} rank {}: {:?} vs {:?}", which, r, gc, wc);
            }
        }
    }
}
