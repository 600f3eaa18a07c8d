//! Non-blocking, chunk-pipelined all-reduce (the `MPI_Iallreduce`
//! analogue the paper's Fig. 8 overlap assumes).
//!
//! A handle ([`IallreduceHandle`]) is a paused collective: the same data
//! movement as [`crate::allreduce`] (under the schedule it picks:
//! recursive halving or doubling on a power-of-two group, Bruck's
//! rounds or a gather of whole vectors on any other) or, launched by
//! [`ireduce_scatter`], as [`crate::reduce_scatter`], but each step
//! charges its α–β transfer to the rank's **concurrent comm
//! channel** ([`mpsim::Communicator::recv_channel`]) instead of the main
//! timeline. The caller launches the operation, keeps computing
//! (optionally poking [`IallreduceHandle::progress`] between kernels to
//! drive steps), and pays only the *exposed* remainder when it finally
//! [`IallreduceHandle::wait`]s.
//!
//! Two invariants tie the handle to its blocking twin, for every
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

use std::ops::Range;

use mpsim::{Communicator, Result, Tag};

use crate::chunks::{keep, row_block_range};
use crate::op::ReduceOp;
use crate::schedule::{Cut, Schedule};

/// An in-flight non-blocking all-reduce or reduce-scatter: the steps of
/// one schedule, issued on the channel.
pub struct IallreduceHandle {
    comm: Communicator,
    data: Vec<f64>,
    /// The buffer in flight: received last step, sent or refilled next.
    carry: Vec<f64>,
    op: ReduceOp,
    schedule: Schedule,
    tag: Tag,
    /// Next step to issue, in `0..steps`.
    step: usize,
    /// Every step of the schedule, or Halving's or Bruck's first
    /// `⌈log₂P⌉` for a reduce-scatter.
    steps: usize,
    /// How the blocks are cut: Halving's and Bruck's words per row, and
    /// the trailing words that ride in the last block.
    cut: Cut,
    /// The elements of `data` that [`IallreduceHandle::wait`] returns:
    /// all of them, or this rank's rows.
    keep: Range<usize>,
    /// When the channel work issued so far completes: the launch time
    /// before the first step, then the last receive's. It is also the
    /// departure time of the next forwarded chunk.
    ready_at: f64,
    /// Transfer seconds charged to the channel by this operation.
    charged: f64,
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
    iallreduce_riding(comm, data, 0, op)
}

/// [`iallreduce`] of `data` whose last `riders` words ride along, as
/// [`crate::allreduce_riding`] runs them: the schedule and every block
/// cut are those of the words before them, so those keep their bits.
///
/// # Panics
///
/// Panics if `riders` exceeds `data.len()`.
pub fn iallreduce_riding(
    comm: &Communicator,
    data: Vec<f64>,
    riders: usize,
    op: ReduceOp,
) -> Result<IallreduceHandle> {
    let n = data.len().checked_sub(riders).expect("riders fit");
    let schedule = Schedule::select(comm.size(), n as f64, &comm.model());
    let mut h = launch(comm, data, op, schedule)?;
    h.cut.1 = riders;
    Ok(h)
}

/// Launches a non-blocking reduce-scatter of `data`, rows of `row` words
/// each: the steps of [`crate::reduce_scatter`] on the channel, whose
/// [`IallreduceHandle::wait`] returns this rank's rows only. Launched,
/// counted and traced as a non-blocking all-reduce.
///
/// # Panics
///
/// Panics unless `data` is whole rows of `row` words.
pub fn ireduce_scatter(
    comm: &Communicator,
    data: Vec<f64>,
    row: usize,
    op: ReduceOp,
) -> Result<IallreduceHandle> {
    let p = comm.size();
    let mine = row_block_range(data.len(), row, p, comm.rank());
    let (schedule, steps) = Schedule::scatter(p);
    let mut h = launch(comm, data, op, schedule)?;
    (h.steps, h.cut, h.keep) = (steps, (row, 0), mine);
    Ok(h)
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
        // launch, counted or traced, would inflate the nb-allreduce count
        // while contributing nothing to the overlap fraction's
        // denominator (the pc=1 grids' "16 launches, 0.0 fraction"
        // anomaly).
        comm.record_nb_allreduce();
        comm.trace_instant(
            "nb",
            "iallreduce_launch",
            &[("p", p as f64), ("words", data.len() as f64)],
        );
    }
    let tag = comm.alloc_nb_tags();
    Ok(IallreduceHandle {
        comm: comm.clone(),
        keep: 0..data.len(),
        data,
        carry: Vec::new(),
        op,
        schedule,
        tag,
        step: 0,
        steps: schedule.steps(p),
        cut: (1, 0),
        ready_at: comm.now(),
        charged: 0.0,
    })
}

impl IallreduceHandle {
    /// Issues one pending step (send + channel receive). Returns
    /// `true` once every step has been issued. Calling this between
    /// compute kernels keeps per-handle memory bounded. For a handle
    /// alone on its rank's channel, skipping it is also fine —
    /// [`IallreduceHandle::wait`] drives the remainder with identical
    /// virtual timing, because channel steps never advance the main
    /// clock. With several handles outstanding it is not: the channel
    /// serves steps in the order they are *issued*, not launched, so a
    /// step left to its `wait` queues behind every step another handle
    /// issued first. The values are the same either way.
    pub fn progress(&mut self) -> Result<bool> {
        if !self.issued() {
            self.step_once()?;
        }
        Ok(self.issued())
    }

    /// Whether every step has been issued —
    /// [`IallreduceHandle::progress`] has nothing left to drive (the
    /// channel work may still finish in the rank's future). Never
    /// drives a step, so schedulers can use it to pick *which* handle
    /// to progress.
    pub fn issued(&self) -> bool {
        self.step >= self.steps
    }

    /// Drives any remaining steps, blocks the main timeline until the
    /// channel work is complete (exposed wait is communication time;
    /// the hidden part is credited to
    /// [`mpsim::RankStats::overlapped_secs`]), and returns the fully
    /// reduced vector (a reduce-scatter's: this rank's rows of it).
    pub fn wait(mut self) -> Result<Vec<f64>> {
        while !self.issued() {
            self.step_once()?;
        }
        self.comm.complete_channel(self.ready_at, self.charged);
        Ok(keep(self.data, self.keep))
    }

    /// One step of the blocking schedule's body with the channel as
    /// transport: the outgoing chunk departs when the channel produced
    /// it, and the receive folds into the channel times.
    fn step_once(&mut self) -> Result<()> {
        let IallreduceHandle {
            comm,
            tag,
            step,
            ready_at,
            charged,
            ..
        } = self;
        let at = (comm.size(), comm.rank(), self.cut);
        let carry = std::mem::take(&mut self.carry);
        self.carry = self.schedule.step(
            &mut self.data,
            self.op,
            at,
            *step,
            carry,
            |(to, from), out| {
                comm.send_vec_at(to, *tag, out, *ready_at)?;
                let got = comm.recv_channel(from, *tag)?;
                let args = [("step", *step as f64), ("ready_at", got.ready_at)];
                comm.trace_instant("nb", "chunk_step", &args);
                (*ready_at, *charged) = (got.ready_at, *charged + got.transfer);
                Ok(got.data)
            },
        )?;
        *step += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::allreduce_exact;
    use crate::{allreduce, FtConfig};
    use mpsim::{Error, FaultPlan, NetModel, Span, World};
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

    /// A launch on one rank records neither its count nor its
    /// `nb`/`iallreduce_launch` instant; on two it records both.
    #[test]
    fn single_member_comms_record_no_nb_launches() {
        for p in [1, 2] {
            let on = mpsim::TraceConfig::enabled();
            let (_, stats, trace) = World::run_traced_with_stats(p, NetModel::free(), on, |comm| {
                let h = iallreduce(comm, vec![2.0; 8], ReduceOp::Sum).unwrap();
                assert_eq!(h.wait().unwrap(), vec![2.0 * p as f64; 8]);
            });
            let (_, _, nb_ar, _) = stats.total_collective_calls();
            let events = trace.ranks.iter().flat_map(|r| &r.events);
            let traced = events.filter(|e| e.name == "iallreduce_launch").count();
            let launched = if p > 1 { p } else { 0 };
            assert_eq!((nb_ar, traced), (launched as u64, launched), "p={p}");
        }
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
    fn issue_order_not_launch_order_decides_which_handle_finishes_first() {
        // A is launched before B. Waiting on B before A is driven puts
        // all of B's steps on the channel first, and A finishes a whole
        // transfer later than when A's steps are issued first.
        let model = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let (p, n) = (4, 4 * 50);
        let one = allreduce_exact(p, n as f64, &model).seconds(&model);
        let run = |drive_a_first: bool| {
            World::run(p, model, |comm| {
                let mut a = iallreduce(comm, contribution(comm.rank(), n), ReduceOp::Sum).unwrap();
                let b = iallreduce(comm, contribution(comm.rank() + 7, n), ReduceOp::Sum).unwrap();
                if drive_a_first {
                    while !a.progress().unwrap() {}
                    let va = a.wait().unwrap();
                    let a_done = comm.now();
                    (va, b.wait().unwrap(), a_done)
                } else {
                    let vb = b.wait().unwrap();
                    (a.wait().unwrap(), vb, comm.now())
                }
            })
        };
        let (late, early) = (run(false), run(true));
        for (r, (late, early)) in late.iter().zip(&early).enumerate() {
            assert_eq!(
                (&late.0, &late.1),
                (&early.0, &early.1),
                "rank {r}: the same sums"
            );
            let (t_late, t_early) = (late.2, early.2);
            assert!(
                (t_early - one).abs() < 1e-12,
                "rank {r}: A first, {t_early}"
            );
            assert!(
                (t_late - 2.0 * one).abs() < 1e-12,
                "rank {r}: A behind B, {t_late}"
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
        // Drop rank 2's first chunk to rank 0. At α/β = 1000 words a
        // 16-word sum runs recursive doubling: rank 0 times out, and rank
        // 1, whose second partner is rank 0, is aborted. Ranks 2 and 3
        // never needed the lost chunk and finish with the sum.
        assert_eq!(Schedule::select(4, 16.0, &model), Schedule::Doubling);
        let plan = FaultPlan::new(7).drop_nth(2, 0, 0);
        let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
            let comm = comm.guarded(&FtConfig::fixed(10.0));
            iallreduce(&comm, vec![1.0; 16], ReduceOp::Sum)?.wait()
        });
        for (r, res) in out.iter().enumerate() {
            if r >= 2 {
                assert_eq!(res.as_ref().ok(), Some(&vec![4.0; 16]), "rank {r}");
            } else {
                assert_fault_error(r, res);
            }
        }
        assert_eq!(stats.total_dropped(), 1);
        assert!(stats.total_aborts() >= 1, "abort was cascaded");
    }

    /// A chunk held past one deadline window and inside a second: the
    /// channel receive runs the guarded schedule, so the retry catches it
    /// and no rank aborts; with one window the same chunk fails the sum.
    #[test]
    fn guarded_launch_retries_a_chunk_late_by_one_window() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.001,
            flops: f64::INFINITY,
        };
        let plan = FaultPlan::new(7).straggle(2, 0, 15.0, 0.0, Span::Once(0));
        let run = |attempts| {
            World::run_with_faults(4, model, plan.clone(), |comm| {
                let comm = comm.guarded(&FtConfig::fixed(10.0).with_attempts(attempts));
                iallreduce(&comm, vec![1.0; 16], ReduceOp::Sum)?.wait()
            })
        };
        let (out, stats) = run(2);
        assert_eq!(out, vec![Ok(vec![4.0; 16]); 4]);
        // Rank 0 times out once on the held chunk, rank 1 once on rank
        // 0's then late second step; each retry catches its chunk.
        assert_eq!((stats.total_timeouts(), stats.total_retries()), (2, 2));
        assert_eq!(stats.total_aborts(), 0);
        let (out, stats) = run(1);
        assert!(out.iter().any(Result::is_err));
        assert!(stats.total_aborts() >= 1);
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
