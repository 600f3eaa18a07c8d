//! Non-blocking, chunk-pipelined collectives (the `MPI_Iallreduce` /
//! `MPI_Iallgatherv` analogues the paper's Fig. 8 overlap assumes).
//!
//! A handle ([`IallreduceHandle`], [`IallgathervHandle`]) is a paused
//! collective: the same data movement as [`crate::allreduce`] (under the
//! schedule it picks) or [`crate::ring::allgatherv_ring`], but each step
//! charges its α–β transfer to the rank's **concurrent comm channel**
//! ([`mpsim::Communicator::recv_channel`]) instead of the main timeline.
//! The caller launches the operation, keeps computing (optionally poking
//! [`IallreduceHandle::progress`] between kernels to drive steps), and
//! pays only the *exposed* remainder when it finally
//! [`IallreduceHandle::wait`]s.
//!
//! Two invariants tie the handles to their blocking twins, for every
//! schedule:
//!
//! * **bit-identical values** — a handle drives the blocking schedule's
//!   own step body, so the partition, partners and reduction order are
//!   exactly those of the blocking collective, to the last bit; and
//! * **no slower than blocking** — launched-then-immediately-waited,
//!   the channel recursion `ready(k) = max(ready(k−1), peer_depart(k)) +
//!   t_k` is the blocking clock recursion with `ready` in place of
//!   `now`, so the makespan is identical; any compute between launch
//!   and wait can only hide, never add, time.
//!
//! Chunks are forwarded with their channel-completion time as the
//! departure time ([`mpsim::Communicator::send_vec_at`]): a chunk the
//! NIC finished at `t` leaves at `t` even if the main timeline is still
//! deep in a matmul — that is what lets the pipeline run ahead of the
//! compute it hides behind.
//!
//! Launched on a guarded communicator
//! ([`mpsim::Communicator::guarded`]), every chunk receive is bound by
//! the handle's deadline and a fault fails every rank still waiting on
//! it, like the blocking collectives (see [`crate::ft`]).

use mpsim::{ChannelRecv, Communicator, Result, Tag};

use crate::op::ReduceOp;
use crate::ring;
use crate::schedule::{Peers, Schedule};

/// Shared per-handle progress state: step position and channel times.
struct Progress {
    comm: Communicator,
    /// Next step to issue, in `0..steps`.
    step: usize,
    /// Total steps (the schedule's for all-reduce, `P−1` for all-gather).
    steps: usize,
    /// Departure time for the next forwarded chunk: launch time for the
    /// first step, then the channel-completion time of the last receive.
    next_depart: f64,
    /// Absolute virtual time at which the operation's channel work is
    /// (so far) complete.
    ready_at: f64,
    /// Transfer seconds charged to the channel by this operation.
    charged: f64,
}

impl Progress {
    fn new(comm: &Communicator, steps: usize) -> Self {
        let now = comm.now();
        Progress {
            comm: comm.clone(),
            step: 0,
            steps,
            next_depart: now,
            ready_at: now,
            charged: 0.0,
        }
    }

    /// One step's traffic: sends `out` to `to`, departing when the
    /// channel produced it, receives `from`'s chunk on the channel and
    /// folds the receive into the pipeline times.
    fn exchange(&mut self, tag: Tag, (to, from): Peers, out: Vec<f64>) -> Result<ChannelRecv> {
        self.comm.send_vec_at(to, tag, out, self.next_depart)?;
        let got = self.comm.recv_channel(from, tag)?;
        self.comm.trace_instant(
            "nb",
            "chunk_step",
            &[("step", self.step as f64), ("ready_at", got.ready_at)],
        );
        self.next_depart = got.ready_at;
        self.ready_at = got.ready_at;
        self.charged += got.transfer;
        self.step += 1;
        Ok(got)
    }

    fn done(&self) -> bool {
        self.step >= self.steps
    }

    /// Blocks the main timeline on the channel completing and settles
    /// the overlap accounting.
    fn complete(&self) {
        self.comm.complete_channel(self.ready_at, self.charged);
    }
}

/// An in-flight non-blocking all-reduce: the steps of one schedule
/// (ring, recursive halving or recursive doubling), issued on the
/// channel.
pub struct IallreduceHandle {
    pr: Progress,
    data: Vec<f64>,
    /// The buffer in flight: received last step, sent or refilled next.
    carry: Vec<f64>,
    op: ReduceOp,
    schedule: Schedule,
    tag: Tag,
}

/// Launches a non-blocking all-reduce of `data` under the schedule
/// [`crate::allreduce`] would run. Every member of the communicator must
/// launch its non-blocking operations in the same order (SPMD).
///
/// The launch itself charges no time; drive the pipeline with
/// [`IallreduceHandle::progress`] between compute calls (optional) and
/// collect the reduced vector with [`IallreduceHandle::wait`].
///
/// # Examples
///
/// ```
/// use collectives::nonblocking::iallreduce;
/// use collectives::ReduceOp;
/// use mpsim::{NetModel, World};
///
/// let out = World::run(4, NetModel::free(), |comm| {
///     let data = vec![comm.rank() as f64 + 1.0; 8];
///     let h = iallreduce(comm, data, ReduceOp::Sum).unwrap();
///     comm.advance_compute(1.0); // overlapped with the transfers
///     h.wait().unwrap()[0]
/// });
/// assert_eq!(out, vec![10.0; 4]);
/// ```
pub fn iallreduce(comm: &Communicator, data: Vec<f64>, op: ReduceOp) -> Result<IallreduceHandle> {
    let schedule = Schedule::select(comm.size(), data.len() as f64, &comm.model());
    launch(comm, data, op, schedule)
}

/// [`iallreduce`] under a given schedule.
pub(crate) fn launch(
    comm: &Communicator,
    data: Vec<f64>,
    op: ReduceOp,
    schedule: Schedule,
) -> Result<IallreduceHandle> {
    let p = comm.size();
    if p > 1 {
        // A single-member communicator moves no bytes: recording a
        // launch would inflate the nb-allreduce count while contributing
        // nothing to the overlap fraction's denominator (the pc=1 grids'
        // "16 launches, 0.0 fraction" anomaly).
        comm.record_nb_allreduce();
    }
    let tag = comm.alloc_nb_tags();
    comm.trace_instant(
        "nb",
        "iallreduce_launch",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    Ok(IallreduceHandle {
        pr: Progress::new(comm, schedule.steps(p)),
        data,
        carry: Vec::new(),
        op,
        schedule,
        tag,
    })
}

impl IallreduceHandle {
    /// Issues one pending step (send + channel receive). Returns
    /// `true` once every step has been issued. Calling this between
    /// compute kernels keeps per-handle memory bounded; skipping it is
    /// also fine — [`IallreduceHandle::wait`] drives the remainder with
    /// identical virtual timing, because channel steps never advance
    /// the main clock.
    pub fn progress(&mut self) -> Result<bool> {
        if self.pr.done() {
            return Ok(true);
        }
        self.step_once()?;
        Ok(self.pr.done())
    }

    /// Whether every step has been issued —
    /// [`IallreduceHandle::progress`] has nothing left to drive (the
    /// channel work may still finish in the rank's future). Never
    /// drives a step, so schedulers can use it to pick *which* handle
    /// to progress.
    pub fn issued(&self) -> bool {
        self.pr.done()
    }

    /// Drives any remaining steps, blocks the main timeline until the
    /// channel work is complete (exposed wait is communication time;
    /// the hidden part is credited to
    /// [`mpsim::RankStats::overlapped_secs`]), and returns the fully
    /// reduced vector.
    pub fn wait(mut self) -> Result<Vec<f64>> {
        while !self.pr.done() {
            self.step_once()?;
        }
        self.pr.complete();
        Ok(self.data)
    }

    /// One step of the blocking schedule's body with the channel as
    /// transport.
    fn step_once(&mut self) -> Result<()> {
        let at = (self.pr.comm.size(), self.pr.comm.rank());
        let (step, tag) = (self.pr.step, self.tag);
        let carry = std::mem::take(&mut self.carry);
        let pr = &mut self.pr;
        self.carry =
            self.schedule
                .step(&mut self.data, self.op, at, step, carry, |peers, out| {
                    Ok(pr.exchange(tag, peers, out)?.data)
                })?;
        Ok(())
    }
}

/// An in-flight non-blocking ring all-gather of *variable-length*
/// per-rank blocks, the non-blocking twin of
/// [`crate::ring::allgatherv_ring`] (`P−1` chunk steps).
///
/// Beyond the usual launch/wait pair it supports *pipelined
/// consumption* via [`IallgathervHandle::recv_next`]: each call
/// delivers the next block in ring-arrival order
/// ([`crate::chunks::ring_arrival_order`]) and settles that chunk's
/// overlap accounting immediately, so compute done on a block between
/// calls hides the transfer of the blocks still in flight.
pub struct IallgathervHandle {
    pr: Progress,
    out: Vec<Vec<f64>>,
    /// The block in flight: received last step, sent next step.
    carry: Vec<f64>,
    tag: Tag,
    /// Blocks handed out via `recv_next` (the rank's own block counts).
    delivered: usize,
}

/// Launches a non-blocking ring all-gather of this rank's
/// variable-length block `mine`. SPMD launch order required, like
/// [`iallreduce`].
pub fn iallgatherv(comm: &Communicator, mine: &[f64]) -> Result<IallgathervHandle> {
    let p = comm.size();
    if p > 1 {
        comm.record_nb_allgather();
    }
    let base = comm.alloc_nb_tags();
    let r = comm.rank();
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
    out[r] = mine.to_vec();
    let steps = p.saturating_sub(1);
    comm.trace_instant(
        "nb",
        "iallgatherv_launch",
        &[("p", p as f64), ("words", mine.len() as f64)],
    );
    Ok(IallgathervHandle {
        pr: Progress::new(comm, steps),
        out,
        carry: if p > 1 { mine.to_vec() } else { Vec::new() },
        tag: base,
        delivered: 0,
    })
}

impl IallgathervHandle {
    /// Delivers the next block in ring-arrival order: the rank's own
    /// block first (free), then one ring step per call. Each delivered
    /// chunk's channel accounting is settled *immediately* — the caller
    /// pays the exposed remainder of that chunk now and any compute it
    /// does on the block hides the chunks still in flight. Returns
    /// `None` once all `P` blocks have been delivered.
    pub fn recv_next(&mut self) -> Result<Option<(usize, Vec<f64>)>> {
        let p = self.pr.comm.size();
        let r = self.pr.comm.rank();
        if self.delivered >= p {
            return Ok(None);
        }
        if self.delivered == 0 {
            self.delivered = 1;
            return Ok(Some((r, std::mem::take(&mut self.out[r]))));
        }
        let s = self.pr.step;
        let recv_idx = (r + p - s - 1) % p;
        let transfer = self.step_once()?;
        // Per-chunk settle: this chunk leaves `charged` so the final
        // wait (if any) only accounts for chunks not consumed here.
        self.pr.comm.complete_channel(self.pr.ready_at, transfer);
        self.pr.charged -= transfer;
        self.delivered += 1;
        Ok(Some((recv_idx, std::mem::take(&mut self.out[recv_idx]))))
    }

    /// Drives any remaining steps, settles the (not yet settled) overlap
    /// accounting, and returns the per-rank blocks indexed by rank.
    /// Blocks already handed out by [`IallgathervHandle::recv_next`]
    /// were moved to the caller and come back empty.
    pub fn wait(mut self) -> Result<Vec<Vec<f64>>> {
        while !self.pr.done() {
            self.step_once()?;
        }
        self.pr.complete();
        Ok(self.out)
    }

    /// One ring step (send + channel receive); returns the chunk's
    /// transfer seconds so `recv_next` can settle it individually.
    fn step_once(&mut self) -> Result<f64> {
        let p = self.pr.comm.size();
        let r = self.pr.comm.rank();
        let src = (r + p - self.pr.step - 1) % p;
        let carry = std::mem::take(&mut self.carry);
        let got = self.pr.exchange(self.tag, ring::neighbours(p, r), carry)?;
        if !self.pr.done() {
            self.carry = got.data.clone();
        }
        self.out[src] = got.data;
        Ok(got.transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::allreduce_exact;
    use crate::{allreduce, FtConfig};
    use mpsim::{Error, FaultPlan, NetModel, World};
    use proptest::prelude::*;

    fn contribution(rank: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((rank + 1) * (i + 3)) as f64 * 0.37)
            .collect()
    }

    #[test]
    fn values_match_blocking_bit_for_bit() {
        for p in [1, 2, 3, 4, 5, 8] {
            for n in [1, 7, 24, 40] {
                let out = World::run(p, NetModel::free(), |comm| {
                    let mut blocking = contribution(comm.rank(), n);
                    allreduce(comm, &mut blocking, ReduceOp::Sum).unwrap();
                    let h = iallreduce(comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
                    (blocking, h.wait().unwrap())
                });
                for (r, (b, nb)) in out.iter().enumerate() {
                    assert_eq!(b, nb, "p={p} n={n} rank={r}");
                }
            }
        }
    }

    #[test]
    fn immediate_wait_costs_exactly_the_blocking_time() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        for (p, n) in [(4, 32), (8, 1000), (5, 13)] {
            let blocking = World::run(p, model, |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce(comm, &mut data, ReduceOp::Sum).unwrap();
                comm.now()
            });
            let nonblocking = World::run(p, model, |comm| {
                let h = iallreduce(comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
                h.wait().unwrap();
                comm.now()
            });
            for r in 0..p {
                assert!(
                    (blocking[r] - nonblocking[r]).abs() < 1e-15,
                    "p={p} n={n} rank={r}: {} vs {}",
                    blocking[r],
                    nonblocking[r]
                );
            }
        }
    }

    #[test]
    fn compute_between_launch_and_wait_hides_the_transfer() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: 1e9,
        };
        let p = 4;
        let n = 4000;
        let compute = 10.0 * allreduce_exact(p, n as f64, &model).seconds(&model);
        let (out, stats) = World::run_with_stats(p, model, |comm| {
            let h = iallreduce(comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
            comm.advance_compute(compute);
            h.wait().unwrap();
            comm.clock()
        });
        for (r, c) in out.iter().enumerate() {
            assert!(
                (c.now - compute).abs() < 1e-12,
                "rank {r}: transfer fully hidden, now={} compute={compute}",
                c.now
            );
            assert_eq!(c.comm, 0.0, "rank {r}: no exposed communication");
        }
        assert!(stats.total_overlapped_secs() > 0.0);
        assert_eq!(stats.total_comm_wait_secs(), 0.0);
        let (_, _, nb_ar, _) = stats.total_collective_calls();
        assert_eq!(nb_ar, p as u64);
    }

    #[test]
    fn progress_between_kernels_does_not_change_virtual_timing() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 6;
        let n = 60;
        let lazy = World::run(p, model, |comm| {
            let h = iallreduce(comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
            comm.advance_compute(5e-3);
            (h.wait().unwrap(), comm.now())
        });
        let eager = World::run(p, model, |comm| {
            let mut h = iallreduce(comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
            comm.advance_compute(5e-3);
            while !h.progress().unwrap() {}
            (h.wait().unwrap(), comm.now())
        });
        for r in 0..p {
            assert_eq!(lazy[r].0, eager[r].0, "rank {r} values");
            assert!((lazy[r].1 - eager[r].1).abs() < 1e-15, "rank {r} time");
        }
    }

    #[test]
    fn iallgatherv_matches_blocking_in_values_and_never_slower() {
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        for p in [1, 3, 4, 6] {
            // Uneven blocks: rank r contributes r+2 elements. Separate
            // worlds, because uneven blocks make ranks finish the
            // blocking gather at different times, which would skew a
            // back-to-back launch.
            let blocking = World::run(p, model, |comm| {
                let mine = vec![comm.rank() as f64 + 0.5; comm.rank() + 2];
                (
                    crate::ring::allgatherv_ring(comm, &mine).unwrap(),
                    comm.now(),
                )
            });
            let nonblocking = World::run(p, model, |comm| {
                let mine = vec![comm.rank() as f64 + 0.5; comm.rank() + 2];
                let h = iallgatherv(comm, &mine).unwrap();
                (h.wait().unwrap(), comm.now())
            });
            for r in 0..p {
                assert_eq!(blocking[r].0, nonblocking[r].0, "p={p} rank={r}");
                assert!(
                    (blocking[r].1 - nonblocking[r].1).abs() < 1e-15,
                    "p={p} rank={r}: {} vs blocking {}",
                    nonblocking[r].1,
                    blocking[r].1
                );
            }
        }
    }

    #[test]
    fn recv_next_delivers_ring_arrival_order_and_hides_behind_compute() {
        let model = NetModel {
            alpha: 1e-4,
            beta: 1e-6,
            flops: 1e9,
        };
        let p = 5;
        let m = 2000;
        let (out, stats) = World::run_with_stats(p, model, |comm| {
            let mine = vec![comm.rank() as f64 + 1.0; m];
            let reference = crate::ring::allgatherv_ring(comm, &mine).unwrap();
            let mut h = iallgatherv(comm, &mine).unwrap();
            let mut order = Vec::new();
            let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); p];
            while let Some((idx, block)) = h.recv_next().unwrap() {
                order.push(idx);
                blocks[idx] = block;
                // Enough compute per consumed block to hide the next
                // chunk's transfer.
                comm.advance_compute(10.0 * m as f64 * model.beta);
            }
            (reference, blocks, order)
        });
        for (r, (reference, blocks, order)) in out.iter().enumerate() {
            assert_eq!(order, &crate::chunks::ring_arrival_order(p, r), "rank {r}");
            assert_eq!(reference, blocks, "rank {r} values");
        }
        assert!(
            stats.total_overlapped_secs() > 0.0,
            "chunks hid behind compute"
        );
        assert!(
            stats.total_comm_wait_secs() < 2.0 * p as f64 * model.alpha * p as f64,
            "only pipeline-fill latency stays exposed, not bandwidth"
        );
    }

    #[test]
    fn single_member_comms_record_no_nb_launches() {
        let (_, stats) = World::run_with_stats(1, NetModel::free(), |comm| {
            let h = iallreduce(comm, vec![2.0; 8], ReduceOp::Sum).unwrap();
            assert_eq!(h.wait().unwrap(), vec![2.0; 8]);
            let g = iallgatherv(comm, &[1.0, 2.0]).unwrap();
            assert_eq!(g.wait().unwrap(), vec![vec![1.0, 2.0]]);
        });
        let (_, _, nb_ar, nb_ag) = stats.total_collective_calls();
        assert_eq!(nb_ar, 0, "p=1 all-reduce is degenerate: no launch recorded");
        assert_eq!(nb_ag, 0, "p=1 all-gathers are degenerate too");
    }

    #[test]
    fn outstanding_handles_do_not_cross_match() {
        let out = World::run(4, NetModel::free(), |comm| {
            let a = iallreduce(comm, vec![1.0; 8], ReduceOp::Sum).unwrap();
            let b = iallreduce(comm, vec![100.0; 8], ReduceOp::Sum).unwrap();
            // Reverse wait order: tags keep the two pipelines apart.
            let vb = b.wait().unwrap();
            let va = a.wait().unwrap();
            (va, vb)
        });
        for (va, vb) in &out {
            assert_eq!(va, &vec![4.0; 8]);
            assert_eq!(vb, &vec![400.0; 8]);
        }
    }

    #[test]
    fn two_handles_serialize_on_the_channel() {
        // One NIC: two outstanding all-reduces take the sum of their
        // transfer times when drained back-to-back with no compute.
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let p = 4;
        let n = 4 * 50;
        let one = allreduce_exact(p, n as f64, &model).seconds(&model);
        let out = World::run(p, model, |comm| {
            let a = iallreduce(comm, vec![1.0; n], ReduceOp::Sum).unwrap();
            let b = iallreduce(comm, vec![2.0; n], ReduceOp::Sum).unwrap();
            a.wait().unwrap();
            b.wait().unwrap();
            comm.now()
        });
        for (r, &t) in out.iter().enumerate() {
            assert!(
                (t - 2.0 * one).abs() < 1e-12,
                "rank {r}: {t} vs {}",
                2.0 * one
            );
        }
    }

    #[test]
    fn guarded_launch_is_identical_when_fault_free() {
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
                    comm.guarded(&FtConfig::fixed(1e6))
                } else {
                    comm.clone()
                };
                let h = iallreduce(&comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
                comm.advance_compute(1e-3);
                (h.wait().unwrap(), comm.now().to_bits())
            })
        };
        assert_eq!(run(false), run(true));
    }

    fn assert_fault_error(r: usize, res: &Result<Vec<f64>>) {
        let e = res.as_ref().expect_err("the rank observes the failure");
        assert!(
            matches!(
                e,
                Error::Timeout { .. } | Error::Aborted { .. } | Error::RankFailed { .. }
            ),
            "rank {r}: unexpected error {e:?}"
        );
    }

    #[test]
    fn guarded_launch_aborts_the_group_on_a_dropped_chunk() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.001,
            flops: f64::INFINITY,
        };
        // Drop the first chunk on the 1 → 2 link of a ring: every later
        // ring step depends on it, so every rank fails.
        let plan = FaultPlan::new(7).drop_nth(1, 2, 0);
        let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
            let comm = comm.guarded(&FtConfig::fixed(10.0));
            launch(&comm, vec![1.0; 16], ReduceOp::Sum, Schedule::Ring)?.wait()
        });
        for (r, res) in out.iter().enumerate() {
            assert_fault_error(r, res);
        }
        assert_eq!(stats.total_dropped(), 1);
        assert!(stats.total_aborts() >= 1, "abort was cascaded");
    }

    #[test]
    fn guarded_doubling_fails_only_the_dropped_chunks_dependants() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.001,
            flops: f64::INFINITY,
        };
        // Drop rank 1's first chunk to rank 0. At α/β = 1000 words a
        // 16-word sum runs recursive doubling: rank 0 times out, and rank
        // 2, whose second partner is rank 0, is aborted. Ranks 1 and 3
        // never needed the lost chunk and finish with the sum.
        assert_eq!(Schedule::select(4, 16.0, &model), Schedule::Doubling);
        let plan = FaultPlan::new(7).drop_nth(1, 0, 0);
        let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
            let comm = comm.guarded(&FtConfig::fixed(10.0));
            iallreduce(&comm, vec![1.0; 16], ReduceOp::Sum)?.wait()
        });
        for (r, res) in out.iter().enumerate() {
            if r % 2 == 1 {
                assert_eq!(res.as_ref().ok(), Some(&vec![4.0; 16]), "rank {r}");
            } else {
                assert_fault_error(r, res);
            }
        }
        assert_eq!(stats.total_dropped(), 1);
        assert!(stats.total_aborts() >= 1, "abort was cascaded");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn iallreduce_is_bit_identical_to_blocking_for_arbitrary_shapes(
            p in 1usize..9,
            n in 1usize..120,
            op_idx in 0usize..3,
            compute_ns in 0u64..1_000_000,
        ) {
            let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_idx];
            let model = NetModel { alpha: 1e-4, beta: 1e-7, flops: f64::INFINITY };
            // Separate worlds, both starting at t = 0: a ragged `n`
            // leaves the ranks' blocking clocks apart.
            let blocking = World::run(p, model, |comm| {
                let mut data = contribution(comm.rank(), n);
                allreduce(comm, &mut data, op).unwrap();
                (data, comm.now())
            });
            let nonblocking = World::run(p, model, |comm| {
                let h = iallreduce(comm, contribution(comm.rank(), n), op).unwrap();
                comm.advance_compute(compute_ns as f64 * 1e-9);
                (h.wait().unwrap(), comm.now())
            });
            for (r, ((b, t), (nb, elapsed))) in blocking.iter().zip(&nonblocking).enumerate() {
                prop_assert_eq!(b, nb, "p={} n={} rank={}", p, n, r);
                // Overlap never increases the per-rank makespan beyond
                // serialized compute + blocking-collective time.
                let serialized = compute_ns as f64 * 1e-9 + t;
                prop_assert!(
                    *elapsed <= serialized + 1e-12,
                    "rank {} took {} > serialized {}",
                    r, elapsed, serialized
                );
            }
        }
    }
}
