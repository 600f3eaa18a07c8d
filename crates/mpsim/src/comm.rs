//! Communicators: the MPI-like handle each rank program uses.
//!
//! A [`Communicator`] names a group of global ranks and gives the local
//! rank send/recv/collective-building primitives within that group.
//! Sub-communicators created with [`Communicator::split`] or
//! [`Communicator::grid`] share the owning thread's virtual clock,
//! mailbox, and traffic counters, exactly like MPI communicators share a
//! process.
//!
//! Three modules, one direction of knowledge:
//!
//! * `wire` — the per-rank `Inner` state and every decision about
//!   an envelope (fault injection, matching, notices, the clock charge
//!   of a completed receive). The only module that names the
//!   transport's `Endpoint`, `Envelope` fields or `Payload` variants.
//! * this module — point-to-point and control-plane operations,
//!   `split`/`grid`, tracing, stats: coordinates and timeouts in,
//!   payloads out.
//! * `membership` — fault epochs, failure agreement, shrink,
//!   revive/readmit/park/heal, detector queries and scripted bit flips.

mod membership {
    //! Membership under faults: recovery epochs, failure agreement,
    //! shrink, revive / readmit / park / heal, the adaptive detector's
    //! queries, and the scripted silent-data-corruption flips. Everything
    //! here is bookkeeping on the per-rank tables plus calls into `wire`
    //! for the traffic; no envelope is built or inspected in this module.

    use super::wire::Notice;
    use super::{derive_ctx, Communicator, RESERVED_TAG_BASE};
    use crate::error::{Error, FaultCtx, Result};
    use crate::fault::BitFlip;
    use crate::{Rank, Tag};

    /// Base tag for [`Communicator::fault_sync`] rounds (offset by a
    /// per-rank round counter, so successive rounds never cross-match).
    const FAULT_SYNC_TAG: Tag = RESERVED_TAG_BASE + 4096;

    impl Communicator {
        /// Broadcasts an abort notice for the current data-plane phase to
        /// every rank in the *world*, blaming global rank `culprit`. Peers
        /// blocked on a receive from this rank unblock with
        /// [`Error::Aborted`]; the notice is honored only while the
        /// receiver is in the same recovery epoch (stale aborts from before
        /// a recovery are ignored).
        pub fn send_abort(&self, culprit: usize) -> Result<()> {
            let mut i = self.inner.borrow_mut();
            i.check_failed()?;
            i.stats.aborts_sent += 1;
            let now = i.clock.now;
            i.broadcast_notice(Notice::Abort { culprit }, now);
            Ok(())
        }

        /// This rank's current recovery epoch (starts at 0; bumped by
        /// [`Communicator::advance_fault_epoch`] after each recovery).
        pub fn fault_epoch(&self) -> u64 {
            self.inner.borrow().fault_epoch
        }

        /// Enters the next recovery epoch: abort notices from earlier
        /// epochs become stale and are pruned. Call on every survivor at
        /// the same point of the recovery protocol (SPMD).
        pub fn advance_fault_epoch(&self) {
            let next = self.fault_epoch() + 1;
            self.set_fault_epoch(next);
        }

        /// Fast-forwards the recovery epoch to at least `epoch` (pruning
        /// stale abort notices), used by a rejoining rank to match the
        /// survivors it is re-entering with.
        pub fn set_fault_epoch(&self, epoch: u64) {
            let mut i = self.inner.borrow_mut();
            i.fault_epoch = i.fault_epoch.max(epoch);
            let e = i.fault_epoch;
            i.aborted_peers.retain(|_, &mut (_, pe)| pe >= e);
        }

        /// Failure-agreement exchange: every member broadcasts `payload`
        /// (control plane, free in virtual time) and collects every other
        /// member's, observing deaths instead of hanging. Returns one entry
        /// per member rank: `Some(bytes)` for a live member (own slot
        /// included), `None` for a dead or unreachable one (agreement
        /// proceeds within the fragment).
        ///
        /// The broadcast is atomic with respect to this rank's own scripted
        /// death — the death check runs once, before any send — so every
        /// peer observes the same thing: either the full round or a death
        /// notice, never a partial round. A round message that would cross
        /// an active cut arrives as a severed marker instead. All members
        /// must call `fault_sync` the same number of times (SPMD), like
        /// `split`.
        pub fn fault_sync(&self, payload: Vec<u8>) -> Result<Vec<Option<Vec<u8>>>> {
            let mut i = self.inner.borrow_mut();
            i.check_failed()?;
            i.fault_sync_seq += 1;
            let tag = FAULT_SYNC_TAG + i.fault_sync_seq;
            i.broadcast_control(self.ctx, tag, &self.members, payload.clone());
            let mut out = Vec::with_capacity(self.size());
            for &src_global in self.members.iter() {
                if src_global == i.global_rank {
                    out.push(Some(payload.clone()));
                    continue;
                }
                match i.complete_control(self.ctx, src_global, tag) {
                    Ok(bytes) => out.push(Some(bytes)),
                    // The detection is recorded and counted, but the round
                    // keeps collecting: it must produce a full survivor
                    // picture.
                    Err(Error::RankFailed { .. } | Error::Unreachable { .. }) => out.push(None),
                    Err(e) => return Err(e),
                }
            }
            Ok(out)
        }

        /// Deterministically builds the communicator of survivors after the
        /// global ranks in `dead` failed, with **no communication**: every
        /// survivor that calls this with the same `dead` set and `epoch`
        /// derives the same context id and member table (members keep their
        /// relative order). Returns [`Error::RankFailed`] for a caller that
        /// is itself in `dead`.
        pub fn shrink_exclude(&self, dead: &[usize], epoch: u64) -> Result<Communicator> {
            let members: Vec<usize> = self
                .members
                .iter()
                .copied()
                .filter(|g| !dead.contains(g))
                .collect();
            // "SRINK!" separates the shrink domain from `split`'s.
            let head = [self.ctx, 0x5352_494e_4b21, epoch];
            let ctx = derive_ctx(head.into_iter().chain(members.iter().map(|&g| g as u64)));
            let my_global = self.members[self.rank];
            self.child(ctx, members)
                .ok_or(Error::RankFailed { rank: my_global })
        }

        /// Fast-forwards this rank's split-sequence counter to at least
        /// `seq`. Child communicator contexts are derived from `(parent
        /// ctx, split counter, color)`; a fault can interrupt different
        /// ranks at different points of a collective `split` sequence,
        /// desynchronizing the counter. Recovery protocols call this on
        /// every survivor with the same value (e.g. `epoch * 1000`) before
        /// rebuilding sub-communicators, restoring the invariant that all
        /// members derive identical child contexts.
        pub fn align_split_seq(&self, seq: u64) {
            let mut i = self.inner.borrow_mut();
            i.split_seq = i.split_seq.max(seq);
        }

        /// Records checkpoint volume written by a fault-tolerant trainer.
        pub fn record_checkpoint_words(&self, words: u64) {
            self.inner.borrow_mut().stats.ckpt_words += words;
        }

        /// Records virtual time a fault-tolerant trainer spent in recovery.
        pub fn record_recovery_secs(&self, secs: f64) {
            self.inner.borrow_mut().stats.recovery_secs += secs;
        }

        // --- silent data corruption --------------------------------------

        /// Registers the training-phase context (iteration, op counter)
        /// attached to corruption errors surfaced while it is set; pass
        /// `None` at phase exit. The context is advisory — it never
        /// affects matching or timing.
        pub fn set_fault_ctx(&self, ctx: Option<FaultCtx>) {
            self.inner.borrow_mut().fault_ctx = ctx;
        }

        /// The currently registered training-phase context, if any.
        pub fn fault_ctx(&self) -> Option<FaultCtx> {
            self.inner.borrow().fault_ctx
        }

        /// Drains the scripted compute bit flips for this rank's `op`-th
        /// GEMM of iteration `iter`: each matching plan entry not yet spent
        /// on this rank is marked spent, counted in
        /// [`RankStats::bitflips_compute`](crate::RankStats::bitflips_compute),
        /// announced as a trace instant,
        /// and returned for the caller (the GEMM wrapper) to apply to the
        /// product it just computed. Spend-once means a rollback/replay of
        /// the same iteration re-executes clean — exactly the semantics a
        /// transient SDC event has on real hardware.
        pub fn take_compute_flips(&self, iter: u64, op: u64) -> Vec<BitFlip> {
            let mut i = self.inner.borrow_mut();
            if !i.plan.has_bitflips() {
                return Vec::new();
            }
            let g = i.global_rank;
            let flips: Vec<BitFlip> = i
                .plan
                .compute_flips_at(g, iter, op)
                .into_iter()
                .filter(|f| !i.compute_flips_spent[f.entry])
                .collect();
            for f in &flips {
                i.compute_flips_spent[f.entry] = true;
                i.stats.bitflips_compute += 1;
                i.instant_now("fault", "bitflip_compute", || {
                    [
                        ("iter", iter as f64),
                        ("op", op as f64),
                        ("bit", f.bit as f64),
                    ]
                });
            }
            flips
        }

        /// Drains the scripted memory bit flips for this rank at the start
        /// of iteration `iter` (same spend-once semantics as
        /// [`Communicator::take_compute_flips`]); the caller applies them
        /// to its resident weight words.
        pub fn take_memory_flips(&self, iter: u64) -> Vec<BitFlip> {
            let mut i = self.inner.borrow_mut();
            if !i.plan.has_bitflips() {
                return Vec::new();
            }
            let g = i.global_rank;
            let flips: Vec<BitFlip> = i
                .plan
                .memory_flips_at(g, iter)
                .into_iter()
                .filter(|f| !i.memory_flips_spent[f.entry])
                .collect();
            for f in &flips {
                i.memory_flips_spent[f.entry] = true;
                i.stats.bitflips_memory += 1;
                i.instant_now("fault", "bitflip_memory", || {
                    [("iter", iter as f64), ("bit", f.bit as f64)]
                });
            }
            flips
        }

        /// Records an ABFT in-place correction (detected corruption that
        /// needed **no** rollback) and announces it as a trace instant.
        pub fn record_corrupt_corrected(&self, iter: u64, op: u64) {
            let mut i = self.inner.borrow_mut();
            i.stats.corrupt_corrected += 1;
            i.instant_now("fault", "abft_correct", || {
                [("iter", iter as f64), ("op", op as f64)]
            });
        }

        /// Records a detected corruption escalated to rollback/replay (an
        /// uncorrectable ABFT residual or a weight-audit failure).
        pub fn record_corrupt_recovered(&self, iter: u64, op: u64) {
            let mut i = self.inner.borrow_mut();
            i.stats.corrupt_recovered += 1;
            i.instant_now("fault", "sdc_escalate", || {
                [("iter", iter as f64), ("op", op as f64)]
            });
        }

        // --- elastic membership ------------------------------------------

        /// Revives this rank at its scripted rejoin time — the earliest
        /// [`FaultPlan::rejoin`](crate::FaultPlan::rejoin) entry strictly
        /// after the kill that felled it: clears the death
        /// flag, spends every kill at or before the rejoin time,
        /// fast-forwards the clock to it, and broadcasts a rejoin
        /// announcement. Returns the rejoin time, or
        /// `None` when the rank is not dead or has no scheduled rejoin.
        pub fn revive(&self) -> Option<f64> {
            let mut i = self.inner.borrow_mut();
            if !i.died {
                return None;
            }
            let died_at = i.died_at?;
            let at = i.plan.rejoin_time_after(i.global_rank, died_at)?;
            i.died = false;
            i.died_at = None;
            i.revive_floor = at;
            let t0 = i.clock.now;
            i.clock.sync_to(at);
            if i.clock.now > t0 {
                i.span_to_now("fault", "dead_gap", t0, || []);
            }
            i.instant_now("fault", "rejoin", || [("at", at)]);
            i.stats.rejoins += 1;
            i.broadcast_notice(Notice::Rejoin, at);
            Some(at)
        }

        /// Whether the fault plan schedules `global` — a peer this rank has
        /// observed dead — to have rejoined by this rank's current virtual
        /// time. A pure function of the plan, the observed death time, and
        /// the local clock, so every survivor that shares the same death
        /// observation answers identically at the same protocol point.
        pub fn rejoin_ready(&self, global: usize) -> bool {
            let i = self.inner.borrow();
            match i.dead_peers.get(&global) {
                Some(&died_at) => i
                    .plan
                    .rejoin_time_after(global, died_at)
                    .is_some_and(|t| t <= i.clock.now),
                None => false,
            }
        }

        /// Clears the death/abort/health records of re-admitted ranks,
        /// restoring them as live peers. SPMD: every participant of a
        /// recovery must call this with the same set at the same protocol
        /// point.
        pub fn readmit(&self, ranks: &[usize]) {
            let mut i = self.inner.borrow_mut();
            for &r in ranks {
                i.dead_peers.remove(&r);
                i.dead_surfaced.remove(&r);
                i.aborted_peers.remove(&r);
                i.unreachable_peers.remove(&r);
                i.unreachable_surfaced.remove(&r);
                i.health.reset(r);
            }
        }

        /// Whether a peer this rank resolved as unreachable is ready for
        /// re-admission: the fault plan shows no remaining cut between the
        /// pair at this rank's current virtual time, and the peer is
        /// plan-alive (not killed without a rejoin behind the cut). A pure
        /// function of the plan, the local unreachability record, and the
        /// clock — survivors sharing the observation answer identically at
        /// the same protocol point, like [`Communicator::rejoin_ready`].
        pub fn heal_ready(&self, global: usize) -> bool {
            let i = self.inner.borrow();
            if !i.unreachable_peers.contains_key(&global) || i.dead_peers.contains_key(&global) {
                return false;
            }
            let now = i.clock.now;
            !i.plan.pair_cut(global, i.global_rank, now) && i.plan.alive_at(global, now)
        }

        /// Global ranks this rank has resolved unreachable (severed by a
        /// partition or parked), with the virtual time of the resolving
        /// observation. Cleared per rank by [`Communicator::readmit`].
        pub fn known_unreachable(&self) -> Vec<(usize, f64)> {
            self.inner
                .borrow()
                .unreachable_peers
                .iter()
                .map(|(&r, &t)| (r, t))
                .collect()
        }

        /// Parks this rank after losing quorum in a partition: flushes any
        /// held transport state, broadcasts a park notice as
        /// its **last act** before going silent (peers blocked on this rank
        /// resolve it as unreachable instead of hanging), and — when every
        /// partition active now has a scripted heal — fast-forwards the
        /// clock to the heal horizon, where the caller should wait for
        /// re-admission. Returns the heal horizon: `None` when no partition
        /// is active at the current time, `Some(∞)` when one never heals
        /// (the caller cannot return; treat as fatal).
        pub fn park(&self) -> Result<Option<f64>> {
            let mut i = self.inner.borrow_mut();
            i.check_failed()?;
            i.stats.parks += 1;
            let now = i.clock.now;
            i.instant_now("quorum", "park", || []);
            i.broadcast_notice(Notice::Parked, now);
            let horizon = i.plan.heal_horizon(now);
            if let Some(h) = horizon.filter(|h| h.is_finite()) {
                i.clock.sync_to(h);
                if i.clock.now > now {
                    i.span_to_now("quorum", "parked", now, || []);
                }
                i.instant_now("quorum", "heal", || []);
            }
            Ok(horizon)
        }

        /// The heal horizon of the fault plan at this rank's current virtual
        /// time: the latest scripted heal among partitions active now, or
        /// `Some(∞)` when one never heals, or `None` when no partition is
        /// active. See [`crate::FaultPlan::heal_horizon`].
        pub fn heal_horizon(&self) -> Option<f64> {
            let i = self.inner.borrow();
            i.plan.heal_horizon(i.clock.now)
        }

        /// Blocks until a control message with `tag` arrives on this
        /// communicator's context from *any* source, buffering everything
        /// else. Used by a revived rank to wait for the survivors' welcome.
        /// Which sender wins is a real-time race, so every sender must send
        /// byte-identical payloads for the result to be deterministic.
        pub fn await_control_any(&self, tag: Tag) -> Result<Vec<u8>> {
            self.inner.borrow_mut().await_control_any(self.ctx, tag)
        }

        /// This rank's [`Communicator::fault_sync`] round counter (welcome
        /// messages carry it so a rejoiner can align).
        pub fn fault_sync_seq(&self) -> u64 {
            self.inner.borrow().fault_sync_seq
        }

        /// Fast-forwards the [`Communicator::fault_sync`] round counter to
        /// at least `seq` (rejoining rank, from the welcome).
        pub fn align_fault_sync_seq(&self, seq: u64) {
            let mut i = self.inner.borrow_mut();
            i.fault_sync_seq = i.fault_sync_seq.max(seq);
        }

        // --- adaptive failure detection ----------------------------------

        /// The per-peer receive deadline learned by the adaptive detector
        /// (mean + k·σ of observed receive waits, clamped to the model
        /// floor), or `None` until enough samples exist.
        pub fn adaptive_deadline(&self, src: Rank) -> Option<f64> {
            let src_global = self.global_rank_of(src).ok()?;
            self.inner.borrow().health.deadline(src_global)
        }

        /// The current φ-accrual suspicion level of a peer, or `None`
        /// while the detector lacks samples.
        pub fn peer_phi(&self, src: Rank) -> Option<f64> {
            let src_global = self.global_rank_of(src).ok()?;
            let i = self.inner.borrow();
            i.health.phi(src_global, i.clock.now)
        }

        /// Whether the detector currently ranks the peer *suspect but not
        /// presumed dead* — the regime where a speculative re-request is
        /// worthwhile (the peer is late beyond its learned rhythm, yet not
        /// so silent that it is written off). The first flagging of a peer
        /// since it was last heard is counted in
        /// [`RankStats::suspects_flagged`](crate::RankStats::suspects_flagged).
        pub fn peer_suspect_not_dead(&self, src: Rank) -> bool {
            let Ok(src_global) = self.global_rank_of(src) else {
                return false;
            };
            let mut i = self.inner.borrow_mut();
            if i.dead_peers.contains_key(&src_global) {
                return false;
            }
            let now = i.clock.now;
            let Some(phi) = i.health.phi(src_global, now) else {
                return false;
            };
            let cfg = *i.health.config();
            if phi >= cfg.phi_suspect && phi < cfg.phi_dead {
                if i.health.mark_suspect(src_global) {
                    i.stats.suspects_flagged += 1;
                }
                true
            } else {
                false
            }
        }

        /// Counts a speculative re-request issued by a fault-aware caller.
        pub fn record_speculative_retry(&self) {
            self.inner.borrow_mut().stats.speculative_retries += 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::netmodel::NetModel;
        use crate::world::World;

        #[test]
        fn scripted_bitflips_are_spend_once_and_counted() {
            let model = NetModel::free();
            let plan = crate::FaultPlan::new(7)
                .bitflip_compute(1, 2, 0, 51)
                .bitflip_memory(0, 1, 5, 44);
            let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
                if comm.rank() == 0 {
                    let m = comm.take_memory_flips(1);
                    assert_eq!(m.len(), 1);
                    assert_eq!(
                        m[0],
                        crate::BitFlip {
                            entry: 0,
                            index: 5,
                            bit: 44
                        }
                    );
                    // Replaying the same iteration finds the flip spent.
                    assert!(comm.take_memory_flips(1).is_empty());
                    assert!(comm.take_compute_flips(2, 0).is_empty(), "wrong rank");
                    0
                } else {
                    assert!(comm.take_compute_flips(2, 1).is_empty(), "wrong op");
                    let c = comm.take_compute_flips(2, 0);
                    assert_eq!(c.len(), 1);
                    assert_eq!(c[0].bit, 51);
                    assert!(comm.take_compute_flips(2, 0).is_empty(), "spent");
                    c[0].index
                }
            });
            // The element draw is deterministic across runs (same plan).
            let again = World::run_with_faults(
                2,
                model,
                crate::FaultPlan::new(7)
                    .bitflip_compute(1, 2, 0, 51)
                    .bitflip_memory(0, 1, 5, 44),
                |comm| {
                    if comm.rank() == 1 {
                        comm.take_compute_flips(2, 0)[0].index
                    } else {
                        comm.take_memory_flips(1);
                        0
                    }
                },
            )
            .0;
            assert_eq!(out[1], again[1]);
            assert_eq!(stats.ranks[0].bitflips_memory, 1);
            assert_eq!(stats.ranks[0].bitflips_compute, 0);
            assert_eq!(stats.ranks[1].bitflips_compute, 1);
            assert_eq!(stats.total_bitflips_compute(), 1);
            assert_eq!(stats.total_bitflips_memory(), 1);
        }

        #[test]
        fn fault_ctx_is_attached_to_corruption_errors() {
            let model = NetModel::free();
            let plan = crate::FaultPlan::new(5).corrupt_nth(0, 1, 0);
            let (out, _) = World::run_with_faults(2, model, plan, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 2, &[1.0, 2.0]).unwrap();
                    None
                } else {
                    comm.set_fault_ctx(Some(crate::FaultCtx { iter: 4, op: 1 }));
                    assert_eq!(comm.fault_ctx(), Some(crate::FaultCtx { iter: 4, op: 1 }));
                    let e = comm.recv(0, 2).unwrap_err();
                    comm.set_fault_ctx(None);
                    Some(e)
                }
            });
            assert_eq!(
                out[1],
                Some(Error::Corrupted {
                    rank: 0,
                    tag: 2,
                    ctx: Some(crate::FaultCtx { iter: 4, op: 1 })
                })
            );
        }

        #[test]
        fn killed_rank_fails_and_peers_detect_it() {
            let model = NetModel {
                alpha: 1.0,
                beta: 0.0,
                flops: f64::INFINITY,
            };
            let plan = crate::FaultPlan::new(0).kill(0, 5.0);
            let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
                if comm.rank() == 0 {
                    comm.advance_compute(6.0); // sail past the kill time
                    let e = comm.send(1, 1, &[1.0]).unwrap_err();
                    assert_eq!(e, Error::RankFailed { rank: 0 });
                    // Every subsequent operation keeps failing.
                    assert_eq!(comm.recv(1, 1).unwrap_err(), Error::RankFailed { rank: 0 });
                    "dead"
                } else {
                    let e = comm.recv(0, 1).unwrap_err();
                    assert_eq!(e, Error::RankFailed { rank: 0 });
                    // Detection cannot precede the death: clock >= 5.
                    assert!(comm.now() >= 5.0);
                    "survivor"
                }
            });
            assert_eq!(out, vec!["dead", "survivor"]);
            assert_eq!(stats.ranks[1].failures_detected, 1);
            assert_eq!(stats.ranks[0].failures_detected, 0);
        }

        #[test]
        fn fault_sync_agrees_on_survivors() {
            let model = NetModel {
                alpha: 1.0,
                beta: 0.0,
                flops: f64::INFINITY,
            };
            let plan = crate::FaultPlan::new(0).kill(2, 1.0);
            let (out, _) = World::run_with_faults(4, model, plan, |comm| {
                comm.advance_compute(2.0);
                if comm.rank() == 2 {
                    // Dies at its first comm op (the fault_sync broadcast).
                    assert!(comm.fault_sync(vec![2]).is_err());
                    return vec![];
                }
                let round = comm.fault_sync(vec![comm.rank() as u8]).unwrap();
                round
                    .iter()
                    .map(|s| s.as_ref().map_or(255, |v| v[0]))
                    .collect::<Vec<u8>>()
            });
            for r in [0usize, 1, 3] {
                assert_eq!(
                    out[r],
                    vec![0, 1, 255, 3],
                    "rank {r} sees the same survivor picture"
                );
            }
        }

        #[test]
        fn shrink_exclude_is_communication_free_and_consistent() {
            let model = NetModel::free();
            let plan = crate::FaultPlan::new(0); // inactive, just exercising the API
            let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
                if comm.rank() == 2 {
                    return (0, 0, 0.0);
                }
                let sub = comm.shrink_exclude(&[2], 1).unwrap();
                // The shrunken communicator is fully usable: ring exchange.
                let peer_up = (sub.rank() + 1) % sub.size();
                let peer_dn = (sub.rank() + sub.size() - 1) % sub.size();
                let got = sub
                    .sendrecv(peer_up, &[sub.rank() as f64], peer_dn, 4)
                    .unwrap();
                (sub.rank(), sub.size(), got[0])
            });
            assert_eq!(out[0], (0, 3, 2.0));
            assert_eq!(out[1], (1, 3, 0.0));
            assert_eq!(out[3], (2, 3, 1.0));
            assert_eq!(
                stats.ranks[0].ctrl_msgs_sent, 0,
                "no control traffic for shrink"
            );
        }

        #[test]
        fn killed_rank_revives_rejoins_and_talks_again() {
            let model = NetModel {
                alpha: 1.0,
                beta: 0.0,
                flops: f64::INFINITY,
            };
            let plan = crate::FaultPlan::new(0).kill(0, 5.0).rejoin(0, 9.0);
            let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
                if comm.rank() == 0 {
                    comm.advance_compute(6.0);
                    let e = comm.send(1, 1, &[1.0]).unwrap_err();
                    assert_eq!(e, Error::RankFailed { rank: 0 });
                    assert_eq!(comm.revive(), Some(9.0));
                    assert!((comm.now() - 9.0).abs() < 1e-12, "clock jumps to rejoin");
                    // Back to life: sends work again.
                    comm.send(1, 5, &[42.0]).unwrap();
                    vec![]
                } else {
                    let e = comm.recv(0, 5).unwrap_err();
                    assert_eq!(e, Error::RankFailed { rank: 0 });
                    // Death surfaced at t=5; the scripted rejoin (t=9) is
                    // still in the future of this rank's clock.
                    assert!(!comm.rejoin_ready(0));
                    comm.advance_compute(5.0); // now 10 ≥ 9
                    assert!(comm.rejoin_ready(0));
                    comm.readmit(&[0]);
                    comm.recv(0, 5).unwrap()
                }
            });
            assert_eq!(out[1], vec![42.0]);
            assert_eq!(stats.ranks[0].rejoins, 1);
            assert_eq!(stats.ranks[1].failures_detected, 1);
        }

        #[test]
        fn revive_spends_the_kill_but_not_a_later_one() {
            let model = NetModel {
                alpha: 1.0,
                beta: 0.0,
                flops: f64::INFINITY,
            };
            let plan = crate::FaultPlan::new(0)
                .kill(0, 2.0)
                .rejoin(0, 4.0)
                .kill(0, 8.0);
            let (out, _) = World::run_with_faults(1, model, plan, |comm| {
                comm.advance_compute(3.0);
                assert!(comm.send(0, 0, &[]).is_err(), "first kill fires");
                comm.revive().unwrap();
                // Alive again: the spent kill does not re-fire...
                comm.send(0, 0, &[1.0]).unwrap();
                let _ = comm.recv(0, 0).unwrap();
                // ...but the second kill still does.
                comm.advance_compute(10.0);
                comm.send(0, 0, &[]).unwrap_err()
            });
            assert_eq!(out[0], Error::RankFailed { rank: 0 });
        }

        #[test]
        fn await_control_any_takes_first_welcome_and_buffers_rest() {
            let model = NetModel::free();
            const WELCOME: Tag = RESERVED_TAG_BASE + 9000;
            let out = World::run(3, model, |comm| {
                if comm.rank() == 2 {
                    let w = comm.await_control_any(WELCOME).unwrap();
                    // Data sent before the welcome is still receivable.
                    let d = comm.recv(0, 4).unwrap();
                    (w, d)
                } else {
                    if comm.rank() == 0 {
                        comm.send(2, 4, &[7.0]).unwrap();
                    }
                    // Both survivors send byte-identical welcomes.
                    comm.send_control(2, WELCOME, vec![9, 9, 9]).unwrap();
                    (vec![], vec![])
                }
            });
            assert_eq!(out[2].0, vec![9, 9, 9]);
            assert_eq!(out[2].1, vec![7.0]);
        }

        #[test]
        fn detector_learns_deadlines_and_flags_suspects() {
            let model = NetModel {
                alpha: 0.1,
                beta: 0.0,
                flops: f64::INFINITY,
            };
            let (out, stats) = World::run_with_stats(2, model, |comm| {
                if comm.rank() == 0 {
                    for _ in 0..12 {
                        comm.advance_compute(1.0);
                        comm.send(1, 2, &[1.0]).unwrap();
                    }
                    (None, None)
                } else {
                    for _ in 0..12 {
                        let _ = comm.recv(0, 2).unwrap();
                    }
                    // Learned deadline tracks the ~1 s observed waits (the
                    // 4·α floor is 0.4, well below).
                    let dl = comm.adaptive_deadline(0);
                    // Right after hearing from the peer, φ is low.
                    let quiet = comm.peer_phi(0).unwrap();
                    assert!(quiet < 1.0, "fresh peer is unsuspicious: {quiet}");
                    assert!(!comm.peer_suspect_not_dead(0));
                    // Moderate silence: suspect but not presumed dead.
                    comm.advance_compute(1.35);
                    let suspect = comm.peer_suspect_not_dead(0);
                    let phi_mid = comm.peer_phi(0).unwrap();
                    // Long silence: written off, past speculation.
                    comm.advance_compute(8.0);
                    let phi_late = comm.peer_phi(0).unwrap();
                    assert!(phi_late > phi_mid && phi_mid > quiet);
                    assert!(!comm.peer_suspect_not_dead(0), "φ past dead: {phi_late}");
                    (dl, Some((suspect, phi_mid)))
                }
            });
            let dl = out[1].0.unwrap();
            assert!((0.5..2.5).contains(&dl), "learned deadline: {dl}");
            let (suspect, phi_mid) = out[1].1.unwrap();
            assert!(suspect, "moderate silence flags suspect (φ = {phi_mid})");
            assert_eq!(stats.ranks[1].suspects_flagged, 1);
        }
    }
}

mod wire {
    //! The wire layer: everything between the transport endpoint and the
    //! [`Communicator`](super::Communicator) methods.
    //!
    //! [`Inner`] owns the endpoint, the pending queues and the peer tables,
    //! and this is the only module of `comm` that names [`Endpoint`],
    //! [`Envelope`] fields or [`Payload`] variants. Each decision about an
    //! envelope is taken in exactly one function:
    //!
    //! * out: [`Inner::post`] (fault injection + holdback) →
    //!   [`Inner::transmit`]; [`Inner::broadcast`] for one-to-all control
    //!   traffic (notices via [`Inner::broadcast_notice`]);
    //! * in: [`Inner::match_recv`] (pending queues, peer tables, drain)
    //!   with [`Inner::absorb_notice`] for out-of-band notices;
    //! * completion: [`Inner::complete`] charges a matched data envelope to
    //!   one of three clock [`Lane`]s, [`Inner::complete_control`] takes a
    //!   control envelope for free.

    use std::collections::{BTreeMap, HashMap, VecDeque};
    use std::sync::Arc;

    use crate::clock::Clock;
    use crate::error::{Error, Result};
    use crate::fault::{self, FaultPlan};
    use crate::health::{DetectorConfig, HealthMonitor};
    use crate::netmodel::NetModel;
    use crate::router::{Endpoint, Envelope, Payload};
    use crate::stats::RankStats;
    use crate::topology::Topology;
    use crate::trace::{TraceConfig, Tracer, Track};
    use crate::{Rank, Tag};

    /// Per-thread shared state: transport endpoint, pending-message buffer,
    /// virtual clock, and counters. One `Inner` exists per OS thread (global
    /// rank); all communicators on that thread share it.
    pub(crate) struct Inner {
        pub global_rank: usize,
        pub world_size: usize,
        endpoint: Endpoint,
        /// Messages received from the channel but not yet matched, keyed by
        /// `(ctx, src_global, tag)`, FIFO per key.
        pending: HashMap<(u64, usize, Tag), VecDeque<Envelope>>,
        pub clock: Clock,
        pub model: NetModel,
        pub topo: Topology,
        pub stats: RankStats,
        /// Monotonic counter so repeated `split` calls derive distinct
        /// deterministic context ids (requires SPMD call order, like MPI).
        pub split_seq: u64,
        /// Shared fault-injection script (empty/inactive by default).
        pub plan: Arc<FaultPlan>,
        /// Per-destination count of data messages sent (indexes the fault
        /// plan's per-link events). Only maintained while the plan is active.
        link_seq: Vec<u64>,
        /// Peers whose death notice this rank has observed: global rank →
        /// virtual time of death.
        pub dead_peers: BTreeMap<usize, f64>,
        /// Dead peers whose failure has been *surfaced* to the application
        /// (counted once in [`RankStats::failures_detected`]).
        pub dead_surfaced: BTreeMap<usize, ()>,
        /// Peers that broadcast an abort notice: global rank →
        /// (blamed culprit, sender's recovery epoch at the time).
        pub aborted_peers: BTreeMap<usize, (usize, u64)>,
        /// Current recovery epoch; abort notices are honored only when their
        /// epoch matches (stale pre-recovery aborts are ignored).
        pub fault_epoch: u64,
        /// Round counter for [`super::Communicator::fault_sync`].
        pub fault_sync_seq: u64,
        /// Set once this rank's own kill has fired; every subsequent
        /// operation returns [`Error::RankFailed`] until a scripted
        /// [`super::Communicator::revive`].
        pub died: bool,
        /// Virtual time of this rank's own death, while dead.
        pub died_at: Option<f64>,
        /// Kill entries at or before this time are spent (consumed by a
        /// revival); only strictly later kills can fire.
        pub revive_floor: f64,
        /// Adaptive failure-detector state (per-peer EWMA / φ-accrual),
        /// fed at deterministic message-consumption points.
        pub health: HealthMonitor,
        /// Peers resolved as unreachable (a partition severed their traffic,
        /// or they parked in a minority fragment): global rank → virtual
        /// time of the resolving observation. Cleared by
        /// [`super::Communicator::readmit`], like `dead_peers`.
        pub unreachable_peers: BTreeMap<usize, f64>,
        /// Unreachable peers already surfaced to the application (counted
        /// once in [`RankStats::unreachable_detected`]).
        pub unreachable_surfaced: BTreeMap<usize, ()>,
        /// Per-destination transport holdback for
        /// [`FaultPlan::reorder_nth`]: `(release_after_seq, envelope)`.
        /// Flushed by a later data message on the link (window elapsed or
        /// same `(ctx, tag)` flow), by any control/notice send to the same
        /// destination, and unconditionally before death/abort/park
        /// broadcasts.
        reorder_held: Vec<Vec<(u64, Envelope)>>,
        /// Per-context launch counter for non-blocking collectives, so
        /// concurrent handles on one communicator get disjoint tag ranges
        /// (requires SPMD launch order within the group, like `split`).
        pub nb_seq: HashMap<u64, u64>,
        /// Per-rank event recorder (disabled by default; see
        /// [`crate::trace`]). Lives on this thread only — no locks.
        pub tracer: Tracer,
        /// Training-phase context registered by the trainer (iteration and
        /// op counter); attached to corruption errors surfaced while set.
        pub fault_ctx: Option<crate::error::FaultCtx>,
        /// Spend-once bookkeeping for scripted compute bit flips, indexed
        /// by plan entry: a flip that has fired on this rank never fires
        /// again, so a rollback/replay of the same iteration runs clean.
        pub compute_flips_spent: Vec<bool>,
        /// Spend-once bookkeeping for scripted memory bit flips.
        pub memory_flips_spent: Vec<bool>,
    }

    /// Outcome of a fault-aware message match.
    enum Matched {
        /// A message is available (deadline not yet checked by the caller).
        Data(Envelope),
        /// The awaited message was dropped by the fault plan (a tombstone is
        /// parked in the pending buffer; it will never become data).
        Dropped,
        /// The source rank is dead (died at the given virtual time).
        PeerDead(f64),
        /// The source rank aborted the current phase blaming `culprit`.
        PeerAborted(usize),
        /// The source rank is unreachable across a partition (a severed
        /// message or notice was observed at the given virtual time).
        Unreachable(f64),
    }

    /// Which timeline a data-plane receive is charged to. A lane is chosen
    /// by the public method that was called, never by the caller's data,
    /// and is a constant at every call of [`Inner::complete`].
    ///
    /// | lane | `limit` is | transfer starts at | clock call | stat | span |
    /// |---|---|---|---|---|---|
    /// | `Blocking` (`recv*`) | timeout from `now` | `max(now, avail)` | `complete_recv` | `transfer_secs` | `comm/recv` |
    /// | `Overlapped` (`wait`) | absolute deadline | `avail` | `complete_wait` | `transfer_secs` | `comm/wait` |
    /// | `Channel` (`recv_channel*`) | timeout from `max(now, comm_busy)` | `max(comm_busy, avail)` | `channel_transfer` | `channel_secs` | `channel/xfer` |
    ///
    /// On every lane `avail = depart + straggle delay`, the transfer is
    /// `α·fa + β·fb·words`, and the receive expires iff `start + transfer`
    /// exceeds the deadline.
    #[derive(Clone, Copy, PartialEq)]
    pub(super) enum Lane {
        Blocking,
        Overlapped,
        Channel,
    }

    /// Outcome of one channel-charged receive
    /// ([`super::Communicator::recv_channel`]).
    #[derive(Debug)]
    pub struct ChannelRecv {
        /// The received payload.
        pub data: Vec<f64>,
        /// Absolute virtual time at which the concurrent comm channel
        /// finished the transfer (use as the departure time when forwarding
        /// a chunk derived from this one).
        pub ready_at: f64,
        /// Transfer seconds charged to the channel for this receive.
        pub transfer: f64,
    }

    /// An out-of-band notice a rank broadcasts to the whole world
    /// ([`Inner::broadcast_notice`] stamps the time and epoch).
    pub(super) enum Notice {
        /// This rank's scripted kill fired.
        Death,
        /// This rank abandoned the current phase, blaming `culprit`.
        Abort { culprit: usize },
        /// This rank revived.
        Rejoin,
        /// This rank parked in a minority fragment.
        Parked,
    }

    impl Inner {
        /// Builds the per-rank state shared by both execution backends.
        ///
        /// The fault-plan-indexed vectors (`link_seq`, `reorder_held`) are
        /// zero-length when the plan is inactive: [`Inner::post`] only
        /// touches them under `plan.active()`, and lazy sizing removes an
        /// O(P²) aggregate memory term (P ranks × P-long vectors) that
        /// would dominate at P = 65536.
        pub(crate) fn new(
            rank: usize,
            size: usize,
            endpoint: Endpoint,
            model: NetModel,
            topo: Topology,
            plan: Arc<FaultPlan>,
            trace: TraceConfig,
        ) -> Inner {
            let fault_len = if plan.active() { size } else { 0 };
            Inner {
                global_rank: rank,
                world_size: size,
                endpoint,
                pending: HashMap::new(),
                clock: Clock::new(),
                model,
                topo,
                stats: RankStats::default(),
                split_seq: 0,
                link_seq: vec![0; fault_len],
                dead_peers: BTreeMap::new(),
                dead_surfaced: BTreeMap::new(),
                aborted_peers: BTreeMap::new(),
                fault_epoch: 0,
                fault_sync_seq: 0,
                died: false,
                died_at: None,
                revive_floor: f64::NEG_INFINITY,
                health: HealthMonitor::new(DetectorConfig::from_model(&model), size),
                unreachable_peers: BTreeMap::new(),
                unreachable_surfaced: BTreeMap::new(),
                reorder_held: vec![Vec::new(); fault_len],
                nb_seq: HashMap::new(),
                tracer: Tracer::new(trace),
                fault_ctx: None,
                compute_flips_spent: vec![false; plan.compute_flip_entries()],
                memory_flips_spent: vec![false; plan.memory_flip_entries()],
                plan,
            }
        }

        // --- tracing -------------------------------------------------------

        /// Records a span on `track`. Tests `enabled` before evaluating
        /// `args`, so a disabled tracer costs one predictable branch.
        #[inline]
        pub(super) fn span<const N: usize>(
            &mut self,
            cat: &'static str,
            name: &'static str,
            track: Track,
            (t0, t1): (f64, f64),
            args: impl FnOnce() -> [(&'static str, f64); N],
        ) {
            if self.tracer.enabled() {
                self.tracer.span(cat, name, track, t0, t1, &args());
            }
        }

        /// Records a main-track span from `t0` to the current virtual time.
        #[inline]
        pub(super) fn span_to_now<const N: usize>(
            &mut self,
            cat: &'static str,
            name: &'static str,
            t0: f64,
            args: impl FnOnce() -> [(&'static str, f64); N],
        ) {
            let t1 = self.clock.now;
            self.span(cat, name, Track::Main, (t0, t1), args);
        }

        /// Records an instant at the current virtual time.
        #[inline]
        pub(super) fn instant_now<const N: usize>(
            &mut self,
            cat: &'static str,
            name: &'static str,
            args: impl FnOnce() -> [(&'static str, f64); N],
        ) {
            if self.tracer.enabled() {
                let now = self.clock.now;
                self.tracer.instant(cat, name, now, &args());
            }
        }

        // --- inbound: matching ---------------------------------------------

        /// Blocks for the next envelope off the transport. `peer` is only
        /// echoed in the error when nothing can ever arrive again.
        fn next_envelope(&mut self, peer: usize) -> Result<Envelope> {
            self.endpoint
                .recv(self.clock.now)
                .map_err(|_| Error::Disconnected { peer })
        }

        /// Buffers an envelope nobody is waiting for yet, FIFO per key.
        fn park(&mut self, env: Envelope) {
            self.pending
                .entry((env.ctx, env.src, env.tag))
                .or_default()
                .push_back(env);
        }

        /// Absorbs an out-of-band notice into the peer tables, wherever it
        /// is drained. Returns `false`, recording nothing, for any other
        /// payload.
        fn absorb_notice(&mut self, env: &Envelope) -> bool {
            match env.data {
                // Severed notices crossed an active partition: record
                // bare unreachability, never the content — nothing leaks
                // across the cut, but nobody hangs on the sender either.
                Payload::Death { at } | Payload::Rejoin { at } if env.severed => {
                    self.unreachable_peers.entry(env.src).or_insert(at);
                }
                Payload::Abort { .. } if env.severed => {
                    self.unreachable_peers.entry(env.src).or_insert(env.depart);
                }
                // A park marker makes the sender unreachable whether or
                // not it crossed a cut: the parked rank is silent until
                // re-admission.
                Payload::Parked { at } => {
                    self.unreachable_peers.entry(env.src).or_insert(at);
                }
                Payload::Death { at } => {
                    self.dead_peers.entry(env.src).or_insert(at);
                }
                Payload::Abort { culprit, epoch } => {
                    let e = self
                        .aborted_peers
                        .entry(env.src)
                        .or_insert((culprit, epoch));
                    if epoch >= e.1 {
                        *e = (culprit, epoch);
                    }
                }
                // Advisory: re-admission is decided from the fault plan.
                Payload::Rejoin { .. } => {}
                Payload::Words(_) | Payload::Control(_) | Payload::Tombstone { .. } => {
                    return false
                }
            }
            true
        }

        /// How the peer tables resolve a receive from `src_global`, if they
        /// do: dead, unreachable, or (when `honor_aborts`) aborted in the
        /// current epoch.
        fn peer_verdict(&self, src_global: usize, honor_aborts: bool) -> Option<Matched> {
            if let Some(&at) = self.dead_peers.get(&src_global) {
                return Some(Matched::PeerDead(at));
            }
            if let Some(&at) = self.unreachable_peers.get(&src_global) {
                return Some(Matched::Unreachable(at));
            }
            match self.aborted_peers.get(&src_global) {
                Some(&(culprit, epoch)) if honor_aborts && epoch == self.fault_epoch => {
                    Some(Matched::PeerAborted(culprit))
                }
                _ => None,
            }
        }

        /// Fault-aware matching: blocks until a message, tombstone, death
        /// notice, or (when `honor_aborts`) current-epoch abort notice from
        /// `src_global` resolves the receive, buffering everything else.
        ///
        /// Determinism: messages from one source arrive in send order (the
        /// per-pair FIFO), and a death/abort notice is broadcast *after*
        /// everything its sender ever sent. So by the time a notice from
        /// `src` is recorded, every earlier message from `src` is already in
        /// `pending` — checking `pending` first, then the notice tables,
        /// then blocking on the channel yields the same outcome regardless
        /// of real-time interleaving.
        fn match_recv(
            &mut self,
            ctx: u64,
            src_global: usize,
            tag: Tag,
            honor_aborts: bool,
        ) -> Result<Matched> {
            // Flush-before-block: a rank about to (possibly) block on its
            // channel releases every reorder-held envelope first. A blocked
            // rank can never post the message that would release a hold, so
            // without this a held message whose receiver is a dependency of
            // this rank deadlocks the world in *real* time — virtual-time
            // deadlines only fire when envelopes arrive.
            self.flush_all_held();
            let key = (ctx, src_global, tag);
            if let Some(queue) = self.pending.get_mut(&key) {
                // Absorb injected duplicate copies at the head: the original
                // was already consumed, so flagged copies are discarded.
                while queue.front().is_some_and(|e| e.dup) {
                    queue.pop_front();
                    self.stats.dups_absorbed += 1;
                }
                if let Some(env) = queue.front() {
                    if matches!(env.data, Payload::Tombstone { .. }) {
                        // Leave the tombstone parked: retries must keep
                        // observing the loss instead of blocking forever.
                        if env.severed {
                            return Ok(Matched::Unreachable(env.depart));
                        }
                        return Ok(Matched::Dropped);
                    }
                    return Ok(Matched::Data(queue.pop_front().expect("non-empty")));
                }
            }
            if let Some(verdict) = self.peer_verdict(src_global, honor_aborts) {
                return Ok(verdict);
            }
            loop {
                let env = self.next_envelope(src_global)?;
                if self.absorb_notice(&env) {
                    // The tables held no verdict on `src_global` before this
                    // notice, so any verdict now is this notice's.
                    if env.src == src_global {
                        if let Some(verdict) = self.peer_verdict(src_global, honor_aborts) {
                            return Ok(verdict);
                        }
                    }
                } else if (env.ctx, env.src, env.tag) != key {
                    self.park(env);
                } else if matches!(env.data, Payload::Tombstone { .. }) {
                    let (severed, at) = (env.severed, env.depart);
                    self.park(env);
                    if severed {
                        return Ok(Matched::Unreachable(at));
                    }
                    return Ok(Matched::Dropped);
                } else if env.dup {
                    self.stats.dups_absorbed += 1;
                } else {
                    return Ok(Matched::Data(env));
                }
            }
        }

        /// Blocks until a control message with `tag` arrives on `ctx` from
        /// *any* source, buffering everything else
        /// ([`super::Communicator::await_control_any`]).
        pub(super) fn await_control_any(&mut self, ctx: u64, tag: Tag) -> Result<Vec<u8>> {
            self.check_failed()?;
            // Flush-before-block, as in `match_recv`.
            self.flush_all_held();
            let from = (0..self.world_size).find(|&src| {
                let head = self.pending.get(&(ctx, src, tag)).and_then(VecDeque::front);
                matches!(head.map(|e| &e.data), Some(Payload::Control(_)))
            });
            let env = match from {
                Some(src) => {
                    let queue = self.pending.get_mut(&(ctx, src, tag));
                    queue.and_then(VecDeque::pop_front).expect("head seen")
                }
                None => loop {
                    let env = self.next_envelope(self.global_rank)?;
                    if self.absorb_notice(&env) {
                        continue;
                    }
                    if env.ctx == ctx && env.tag == tag && matches!(env.data, Payload::Control(_)) {
                        break env;
                    }
                    self.park(env);
                },
            };
            let Payload::Control(v) = env.data else {
                unreachable!("control payload selected above")
            };
            self.observe_peer(env.src, None);
            Ok(v)
        }

        /// Returns the un-consumed envelope to the head of its queue (used
        /// when a matched message misses its receive deadline).
        fn unmatch(&mut self, env: Envelope) {
            self.pending
                .entry((env.ctx, env.src, env.tag))
                .or_default()
                .push_front(env);
        }

        /// Feeds the adaptive detector at a message-consumption point:
        /// `peer` was heard from now, optionally with the observed receive
        /// wait. Virtual-time samples only, so replays are bit-identical.
        fn observe_peer(&mut self, peer: usize, wait: Option<f64>) {
            let now = self.clock.now;
            self.health.heard(peer, now);
            if let Some(w) = wait {
                self.health.observed_wait(peer, w);
            }
        }

        /// Charges a surfaced failure detection: the clock moves to the
        /// death time (a failure cannot be observed before it happened) and
        /// the first detection of each peer is counted.
        fn surface_death(&mut self, peer: usize, at: f64) -> Error {
            let t0 = self.clock.now;
            self.clock.sync_to(at);
            if self.clock.now > t0 {
                self.span_to_now("comm", "death_sync", t0, || [("peer", peer as f64)]);
            }
            self.instant_now("fault", "peer_dead", || [("peer", peer as f64)]);
            self.dead_peers.entry(peer).or_insert(at);
            if self.dead_surfaced.insert(peer, ()).is_none() {
                self.stats.failures_detected += 1;
            }
            Error::RankFailed { rank: peer }
        }

        /// Counts and traces a surfaced partition detection. Unlike
        /// [`Inner::surface_death`] this never advances the clock: the
        /// observation happens at the receiver's own `now` (the cut itself
        /// lies in the past), and the `at` hint may come from a `Parked`
        /// notice or a severed tombstone depending on which envelope
        /// arrived first in *real* time — syncing to it would let that
        /// race leak into virtual time and break bit-identical replay.
        fn surface_unreachable(&mut self, peer: usize, at: f64) -> Error {
            self.instant_now("fault", "peer_unreachable", || [("peer", peer as f64)]);
            self.unreachable_peers.entry(peer).or_insert(at);
            if self.unreachable_surfaced.insert(peer, ()).is_none() {
                self.stats.unreachable_detected += 1;
            }
            Error::Unreachable { rank: peer }
        }

        // --- inbound: completion -------------------------------------------

        /// The one data-plane completion: matches the message `(ctx,
        /// src_global, tag)` and charges it to `lane` (see [`Lane`] for what
        /// differs per lane; `limit` is the lane's timeout or deadline).
        /// `src` is the receive's communicator-local source, echoed in
        /// errors.
        ///
        /// A receive that cannot finish by its deadline charges the wait to
        /// the main clock and returns [`Error::Timeout`]; a late — not
        /// dropped — message stays buffered for a longer retry. A message
        /// the plan provably dropped times out even without a deadline
        /// (`waited = ∞`) instead of hanging the rank. Peer death, a
        /// current-epoch abort and a partition surface as their own errors.
        #[inline(always)]
        pub(super) fn complete(
            &mut self,
            ctx: u64,
            (src_global, src): (usize, Rank),
            tag: Tag,
            limit: Option<f64>,
            lane: Lane,
        ) -> Result<ChannelRecv> {
            self.check_failed()?;
            let posted_at = self.clock.now;
            let deadline = match lane {
                Lane::Blocking => limit.map(|t| self.clock.now + t),
                Lane::Channel => limit.map(|t| self.clock.now.max(self.clock.comm_busy) + t),
                Lane::Overlapped => limit,
            };
            // Charges an expired wait. Only a deadline moves the clock.
            let expire = |i: &mut Inner| {
                i.stats.timeouts += 1;
                let waited = match deadline {
                    Some(d) => {
                        let waited = match lane {
                            Lane::Overlapped => (d - i.clock.now).max(0.0),
                            Lane::Blocking | Lane::Channel => {
                                limit.expect("deadline implies timeout")
                            }
                        };
                        i.clock.sync_to(d);
                        i.span_to_now("comm", "timeout", posted_at, || {
                            [("peer", src_global as f64)]
                        });
                        waited
                    }
                    None => f64::INFINITY,
                };
                Error::Timeout {
                    rank: src,
                    tag,
                    waited,
                }
            };
            match self.match_recv(ctx, src_global, tag, true)? {
                Matched::Data(env) => {
                    let words = env.data.words();
                    let me = self.global_rank;
                    let (fa, fb) = self.topo.factors(env.src, me);
                    let extra = if self.plan.active() {
                        self.plan.extra_delay(env.src, me, env.seq)
                    } else {
                        0.0
                    };
                    let transfer = fa * self.model.alpha + fb * self.model.beta * words as f64;
                    // A straggler delay holds the message in flight: it
                    // postpones availability (like a later departure) rather
                    // than lengthening the receiver-side transfer, so a
                    // retry that waits long enough can still catch it.
                    let avail = env.depart + extra;
                    let start = match lane {
                        Lane::Blocking => self.clock.now.max(avail),
                        Lane::Channel => self.clock.comm_busy.max(avail),
                        Lane::Overlapped => avail,
                    };
                    if deadline.is_some_and(|d| start + transfer > d) {
                        self.unmatch(env);
                        return Err(expire(self));
                    }
                    let ready_at = match lane {
                        Lane::Blocking => {
                            self.clock.complete_recv(avail, transfer);
                            self.clock.now
                        }
                        Lane::Overlapped => {
                            self.clock.complete_wait(start + transfer);
                            self.clock.now
                        }
                        Lane::Channel => self.clock.channel_transfer(avail, transfer),
                    };
                    self.stats.straggler_wait += extra;
                    let peer_words = || [("peer", src_global as f64), ("words", words as f64)];
                    if lane == Lane::Channel {
                        self.stats.channel_secs += transfer;
                        self.observe_peer(src_global, None);
                        let at = (ready_at - transfer, ready_at);
                        self.span("channel", "xfer", Track::Channel, at, peer_words);
                    } else {
                        self.stats.transfer_secs += transfer;
                        let waited = self.clock.now - posted_at;
                        self.observe_peer(src_global, Some(waited));
                        let name = if lane == Lane::Blocking {
                            "recv"
                        } else {
                            "wait"
                        };
                        self.span_to_now("comm", name, posted_at, peer_words);
                    }
                    Ok(ChannelRecv {
                        data: self.verified_payload(env, src, tag)?,
                        ready_at,
                        transfer,
                    })
                }
                Matched::Dropped => Err(expire(self)),
                Matched::PeerDead(at) => Err(self.surface_death(src_global, at)),
                Matched::PeerAborted(culprit) => Err(Error::Aborted { culprit }),
                Matched::Unreachable(at) => Err(self.surface_unreachable(src_global, at)),
            }
        }

        /// The one control-plane completion: matches the control message
        /// `(ctx, src_global, tag)`, free in virtual time. The control
        /// plane is reliable (no drops, no corruption, aborts not honored)
        /// but still observes peer death and partition cuts.
        pub(super) fn complete_control(
            &mut self,
            ctx: u64,
            src_global: usize,
            tag: Tag,
        ) -> Result<Vec<u8>> {
            match self.match_recv(ctx, src_global, tag, false)? {
                Matched::Data(env) => {
                    let Payload::Control(v) = env.data else {
                        unreachable!("non-control payload matched on control tag")
                    };
                    self.observe_peer(src_global, None);
                    Ok(v)
                }
                Matched::Dropped => unreachable!("control messages are never dropped"),
                Matched::PeerDead(at) => Err(self.surface_death(src_global, at)),
                Matched::PeerAborted(_) => unreachable!("aborts not honored on control plane"),
                Matched::Unreachable(at) => Err(self.surface_unreachable(src_global, at)),
            }
        }

        /// The one delivery-side integrity check: unwraps a matched data
        /// envelope, re-deriving the checksum `post` stamped (present only
        /// while a fault plan is active). Envelope rejections always
        /// escalate to the caller's rollback path — there is no in-place
        /// repair for a wire flip. `src`/`tag` are the receive's own
        /// (communicator-local) coordinates, echoed in the error.
        #[inline]
        fn verified_payload(&mut self, env: Envelope, src: Rank, tag: Tag) -> Result<Vec<f64>> {
            let Payload::Words(v) = env.data else {
                unreachable!("non-data payload matched on data tag")
            };
            if env.csum.is_some_and(|csum| fault::checksum(&v) != csum) {
                self.stats.corrupt_recovered += 1;
                return Err(Error::Corrupted {
                    rank: src,
                    tag,
                    ctx: self.fault_ctx,
                });
            }
            Ok(v)
        }

        // --- outbound ------------------------------------------------------

        /// Releases every held (reordered) envelope on every link, in held
        /// order. Called before notice broadcasts so the "a notice trails
        /// everything its sender ever sent" invariant survives reordering,
        /// and before any blocking receive so a rank never blocks while
        /// holding messages its dependencies may be waiting on (reordering
        /// is thereby bounded by the sender's next blocking point).
        fn flush_all_held(&mut self) {
            // `reorder_held` is zero-length when no fault plan is active
            // (it is only ever populated under an active plan).
            for dst in 0..self.reorder_held.len() {
                if self.reorder_held[dst].is_empty() {
                    continue;
                }
                let held = std::mem::take(&mut self.reorder_held[dst]);
                for (_, env) in held {
                    let _ = self.transmit(dst, env);
                }
            }
        }

        /// Checks this rank's own scripted death: at the first communication
        /// operation at or after the kill time, broadcasts a death notice to
        /// every other rank (all-or-nothing: no further death checks happen
        /// mid-broadcast) and fails every operation from then on.
        pub(super) fn check_failed(&mut self) -> Result<()> {
            let me = self.global_rank;
            if self.died {
                return Err(Error::RankFailed { rank: me });
            }
            if let Some(at) = self.plan.kill_time_after(me, self.revive_floor) {
                if self.clock.now >= at {
                    self.died = true;
                    self.died_at = Some(at);
                    self.instant_now("fault", "died", || [("at", at)]);
                    self.broadcast_notice(Notice::Death, at);
                    return Err(Error::RankFailed { rank: me });
                }
            }
            Ok(())
        }

        /// Sends one copy of `env` to every rank of `dsts` but this one, in
        /// `dsts` order, straight to the transport (control traffic is
        /// never held, dropped or corrupted). A copy whose link is cut at
        /// virtual time `at` goes out flagged severed, a control payload
        /// demoted to an empty tombstone, so the far side resolves this
        /// rank as unreachable instead of reading across the partition.
        fn broadcast(&mut self, dsts: impl IntoIterator<Item = usize>, env: &Envelope, at: f64) {
            let me = self.global_rank;
            for dst in dsts {
                if dst == me {
                    continue;
                }
                self.stats.ctrl_msgs_sent += 1;
                let mut copy = env.clone();
                copy.severed = self.plan.link_cut(me, dst, at);
                if copy.severed {
                    self.stats.msgs_severed += 1;
                    if matches!(copy.data, Payload::Control(_)) {
                        copy.data = Payload::Tombstone { words: 0 };
                    }
                }
                let _ = self.endpoint.send(dst, copy);
            }
        }

        /// Broadcasts an out-of-band notice, stamped `at`, to every other
        /// rank of the world, after releasing everything held: a notice
        /// trails everything its sender ever sent.
        pub(super) fn broadcast_notice(&mut self, notice: Notice, at: f64) {
            self.flush_all_held();
            let data = match notice {
                Notice::Death => Payload::Death { at },
                Notice::Abort { culprit } => Payload::Abort {
                    culprit,
                    epoch: self.fault_epoch,
                },
                Notice::Rejoin => Payload::Rejoin { at },
                Notice::Parked => Payload::Parked { at },
            };
            let env = Envelope::notice(self.global_rank, at, data);
            self.broadcast(0..self.world_size, &env, at);
        }

        /// Broadcasts one control message to the global ranks in `members`
        /// ([`super::Communicator::fault_sync`]'s round).
        pub(super) fn broadcast_control(
            &mut self,
            ctx: u64,
            tag: Tag,
            members: &[usize],
            payload: Vec<u8>,
        ) {
            let env = Envelope::control(ctx, self.global_rank, tag, payload);
            let now = self.clock.now;
            self.broadcast(members.iter().copied(), &env, now);
        }

        /// Posts a data message of `words` departing at `depart`.
        pub(super) fn send_data(
            &mut self,
            dst_global: usize,
            ctx: u64,
            tag: Tag,
            depart: f64,
            words: Vec<f64>,
        ) -> Result<()> {
            self.check_failed()?;
            let env = Envelope::data(ctx, self.global_rank, tag, depart, words);
            self.post(dst_global, env)
        }

        /// Posts a zero-virtual-time control message.
        pub(super) fn send_control(
            &mut self,
            dst_global: usize,
            ctx: u64,
            tag: Tag,
            bytes: Vec<u8>,
        ) -> Result<()> {
            self.check_failed()?;
            let env = Envelope::control(ctx, self.global_rank, tag, bytes);
            self.post(dst_global, env)
        }

        /// Applies the fault plan to an outgoing envelope (sequence number,
        /// checksum, sever/drop/corrupt, duplicate, reorder holdback) and
        /// hands what survives to [`Inner::transmit`].
        fn post(&mut self, dst_global: usize, mut env: Envelope) -> Result<()> {
            let mut dup_copy = None;
            let mut hold_until = None;
            let mut posted_seq = None;
            if self.plan.active() {
                let me = self.global_rank;
                let now = self.clock.now;
                let dst = dst_global as f64;
                match &mut env.data {
                    Payload::Words(v) => {
                        let seq = self.link_seq[dst_global];
                        self.link_seq[dst_global] += 1;
                        env.seq = seq;
                        env.csum = Some(fault::checksum(v));
                        posted_seq = Some(seq);
                        let words = v.len();
                        if self.plan.link_cut(me, dst_global, now) {
                            // An active partition severs the link: the data
                            // never crosses, but a severed tombstone does, so
                            // the receiver resolves the sender as unreachable
                            // instead of hanging or merely timing out.
                            self.stats.msgs_severed += 1;
                            self.instant_now("fault", "severed", || {
                                [("dst", dst), ("words", words as f64)]
                            });
                            env.data = Payload::Tombstone { words };
                            env.csum = None;
                            env.severed = true;
                        } else if self.plan.dropped(me, dst_global, seq) {
                            self.stats.msgs_dropped += 1;
                            self.stats.words_dropped += words as u64;
                            self.instant_now("fault", "drop", || {
                                [("dst", dst), ("words", words as f64)]
                            });
                            env.data = Payload::Tombstone { words };
                            env.csum = None;
                        } else {
                            if self.plan.corrupted(me, dst_global, seq) {
                                self.plan.corrupt_payload(v, me, dst_global, seq);
                                self.instant_now("fault", "corrupt", || [("dst", dst)]);
                            }
                            if let Some(depth) = self.plan.reorder_depth(me, dst_global, seq) {
                                hold_until = Some(seq + depth);
                            } else if self.plan.duplicated(me, dst_global, seq) {
                                let mut copy = env.clone();
                                copy.dup = true;
                                dup_copy = Some(copy);
                            }
                        }
                    }
                    Payload::Control(_) if self.plan.link_cut(me, dst_global, now) => {
                        self.stats.msgs_severed += 1;
                        env.data = Payload::Tombstone { words: 0 };
                        env.severed = true;
                    }
                    _ => {}
                }
                // Reordering must never let a later message overtake its own
                // flow (per-flow FIFO is what keeps results bit-identical)
                // or outlive the link's traffic: a same-(ctx, tag) data send
                // flushes held envelopes of that flow first, and any
                // control/notice/tombstone send flushes everything held.
                let flush_all = !matches!(env.data, Payload::Words(_));
                let (fctx, ftag) = (env.ctx, env.tag);
                self.release_held(dst_global, |_, h| {
                    flush_all || (h.ctx == fctx && h.tag == ftag)
                })?;
            }
            if let Some(until) = hold_until {
                self.stats.msgs_reordered += 1;
                let seq = env.seq;
                self.instant_now("fault", "reorder_hold", || {
                    [("dst", dst_global as f64), ("seq", seq as f64)]
                });
                self.reorder_held[dst_global].push((until, env));
                return Ok(());
            }
            self.transmit(dst_global, env)?;
            if let Some(copy) = dup_copy {
                self.stats.msgs_duplicated += 1;
                self.transmit(dst_global, copy)?;
            }
            // Release held envelopes whose reorder window has elapsed (the
            // scripted number of later data messages has now been posted).
            if let Some(seq) = posted_seq {
                self.release_held(dst_global, |until, _| until <= seq)?;
            }
            Ok(())
        }

        /// Transmits, in held order, the envelopes held for `dst_global`
        /// that `due` selects; the rest stay held.
        fn release_held(
            &mut self,
            dst_global: usize,
            due: impl Fn(u64, &Envelope) -> bool,
        ) -> Result<()> {
            if self.reorder_held[dst_global].is_empty() {
                return Ok(());
            }
            let held = std::mem::take(&mut self.reorder_held[dst_global]);
            let mut rest = Vec::new();
            for (until, h) in held {
                if due(until, &h) {
                    self.transmit(dst_global, h)?;
                } else {
                    rest.push((until, h));
                }
            }
            self.reorder_held[dst_global] = rest;
            Ok(())
        }

        /// Hands one envelope to the transport, counting send-side stats.
        fn transmit(&mut self, dst_global: usize, env: Envelope) -> Result<()> {
            match &env.data {
                Payload::Words(v) => {
                    self.stats.msgs_sent += 1;
                    self.stats.words_sent += v.len() as u64;
                }
                Payload::Control(_) => self.stats.ctrl_msgs_sent += 1,
                // Tombstones and notices are counted where the drop, sever
                // or broadcast is decided.
                _ => {}
            }
            let sent = self.endpoint.send(dst_global, env);
            if sent.is_err() && !self.plan.active() {
                // Without faults an unreachable peer is a program bug; with
                // faults a peer may legitimately have exited (died or gone
                // idle after recovery), and an eager send to it is a no-op.
                return Err(Error::Disconnected { peer: dst_global });
            }
            Ok(())
        }
    }
}

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::fault;
use crate::health::RetryPolicy;
use crate::netmodel::NetModel;
use crate::stats::RankStats;
use crate::{Rank, Tag};

pub use wire::ChannelRecv;
pub(crate) use wire::Inner;
use wire::Lane;

/// Tags at or above this value are reserved for internal use (control
/// plane and library collectives). Application code should stay below.
pub const RESERVED_TAG_BASE: Tag = 1 << 48;

const SPLIT_TAG: Tag = RESERVED_TAG_BASE + 1;
const SYNC_TAG: Tag = RESERVED_TAG_BASE + 2;
const BARRIER_TAG: Tag = RESERVED_TAG_BASE + 3;
/// Base tag for non-blocking collective launches
/// ([`Communicator::alloc_nb_tags`]); each launch reserves
/// [`NB_TAG_STRIDE`] consecutive tags above this base.
const NB_TAG_BASE: Tag = RESERVED_TAG_BASE + (1 << 24);
/// Tag slots reserved per non-blocking launch.
const NB_TAG_STRIDE: Tag = 8;

/// A handle to a posted non-blocking receive. Obtain the data with
/// [`Communicator::wait`].
#[derive(Debug)]
#[must_use = "a RecvHandle does nothing until waited on"]
pub struct RecvHandle {
    ctx: u64,
    src_global: usize,
    /// Communicator-local source rank (for error reporting).
    src: Rank,
    tag: Tag,
    /// Absolute virtual-time deadline for the arrival, if the receive
    /// was posted with [`Communicator::irecv_timeout`].
    deadline: Option<f64>,
}

/// RAII guard for a scope span opened with
/// [`Communicator::trace_span`]. Closes the span at the current virtual
/// time when dropped, so begin/end stay balanced through every early
/// return. Inert (no allocation, no clock access) when tracing is
/// disabled.
#[must_use = "the span closes when the guard is dropped"]
pub struct TraceSpan {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let mut i = inner.borrow_mut();
            let now = i.clock.now;
            i.tracer.end(now);
        }
    }
}

/// An MPI-like communicator over a group of simulated ranks.
///
/// Cloning is cheap (the member table is shared); clones alias the same
/// thread-local clock and mailbox.
#[derive(Clone)]
pub struct Communicator {
    pub(crate) inner: Rc<RefCell<Inner>>,
    /// Context id separating this communicator's traffic.
    ctx: u64,
    /// Global ranks of the members, in rank order.
    members: Arc<Vec<usize>>,
    /// This thread's rank within `members`.
    rank: Rank,
}

/// Derives a deterministic child context id: FNV-1a over the parent
/// context and whatever else distinguishes the child.
fn derive_ctx(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Communicator {
    pub(crate) fn world(inner: Rc<RefCell<Inner>>) -> Self {
        let (rank, size) = {
            let i = inner.borrow();
            (i.global_rank, i.world_size)
        };
        Communicator {
            inner,
            ctx: 0,
            members: Arc::new((0..size).collect()),
            rank,
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The global (world) rank backing a communicator-local rank.
    pub fn global_rank_of(&self, rank: Rank) -> Result<usize> {
        self.members
            .get(rank)
            .copied()
            .ok_or(Error::RankOutOfRange {
                rank,
                size: self.members.len(),
            })
    }

    /// The network model shared by all ranks.
    pub fn model(&self) -> NetModel {
        self.inner.borrow().model
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.inner.borrow().clock.now
    }

    /// Snapshot of this rank's virtual clock.
    pub fn clock(&self) -> Clock {
        self.inner.borrow().clock
    }

    /// Charges local compute time for `flops` floating-point operations.
    pub fn advance_flops(&self, flops: f64) {
        let mut i = self.inner.borrow_mut();
        let m = i.model;
        let t0 = i.clock.now;
        i.clock.advance_flops(flops, &m);
        i.span_to_now("compute", "compute", t0, || [("flops", flops)]);
    }

    /// Charges an explicit amount of local compute time.
    pub fn advance_compute(&self, seconds: f64) {
        let mut i = self.inner.borrow_mut();
        let t0 = i.clock.now;
        i.clock.advance_compute(seconds);
        i.span_to_now("compute", "compute", t0, || []);
    }

    /// Sends `data` to `dst` with `tag`. Eager: never blocks, charges no
    /// local virtual time (cost is paid by the receiver).
    pub fn send(&self, dst: Rank, tag: Tag, data: &[f64]) -> Result<()> {
        self.send_vec(dst, tag, data.to_vec())
    }

    /// Like [`Communicator::send`] but takes ownership, avoiding a copy.
    pub fn send_vec(&self, dst: Rank, tag: Tag, data: Vec<f64>) -> Result<()> {
        self.send_vec_at(dst, tag, data, self.now())
    }

    /// Eager send whose envelope departs at the explicit virtual time
    /// `depart` instead of `clock.now`. Non-blocking collectives use
    /// this for chunk forwarding: a chunk produced *by the comm
    /// channel* at time `t` leaves at `t`, which may be earlier (the
    /// main timeline is deep in compute) or later (the channel is
    /// backed up) than `now`.
    pub fn send_vec_at(&self, dst: Rank, tag: Tag, data: Vec<f64>, depart: f64) -> Result<()> {
        debug_assert!(depart >= 0.0, "negative departure time");
        let dst_global = self.global_rank_of(dst)?;
        let mut i = self.inner.borrow_mut();
        i.send_data(dst_global, self.ctx, tag, depart, data)
    }

    /// Blocking receive of a message from `src` with `tag`. Advances the
    /// virtual clock to `max(now, depart) + α + β·words` (plus any
    /// injected straggler delay).
    ///
    /// When a fault plan with a default timeout is active, behaves like
    /// [`Communicator::recv_timeout`] with that timeout; otherwise waits
    /// indefinitely for late messages, but still returns
    /// [`Error::Timeout`] (with `waited = ∞`) for a message the plan
    /// provably dropped, and [`Error::RankFailed`] /
    /// [`Error::Aborted`] when the peer died or abandoned the phase.
    pub fn recv(&self, src: Rank, tag: Tag) -> Result<Vec<f64>> {
        let timeout = self.inner.borrow().plan.default_timeout();
        self.recv_deadline(src, tag, timeout)
    }

    /// Blocking receive that gives up after `timeout` virtual seconds.
    ///
    /// If no matching message can complete by `now + timeout`, the clock
    /// is charged the full wait (as communication time) and
    /// [`Error::Timeout`] is returned. A late — not dropped — message
    /// stays buffered, so a retry that waits long enough still gets it:
    /// see [`Communicator::recv_retry_policy`].
    pub fn recv_timeout(&self, src: Rank, tag: Tag, timeout: f64) -> Result<Vec<f64>> {
        assert!(timeout > 0.0, "timeout must be positive");
        self.recv_deadline(src, tag, Some(timeout))
    }

    /// Retrying receive under a [`RetryPolicy`]: `attempts`
    /// windows of `timeout`, separated by `backoff · factor^(i−1)`
    /// pauses each stretched by up to `jitter` (a deterministic draw
    /// keyed on the plan seed, the link, and the retry count — so
    /// contending retriers desynchronize, yet replays are
    /// bit-identical). Retries only on [`Error::Timeout`]; any other
    /// error propagates immediately.
    pub fn recv_retry_policy(&self, src: Rank, tag: Tag, policy: &RetryPolicy) -> Result<Vec<f64>> {
        assert!(policy.attempts > 0, "need at least one attempt");
        let mut last = None;
        let mut pause = policy.backoff;
        for attempt in 0..policy.attempts {
            if attempt > 0 {
                let mut i = self.inner.borrow_mut();
                i.stats.retries += 1;
                let stretch = if policy.jitter > 0.0 {
                    let src_global = self.global_rank_of(src)?;
                    let u = fault::jitter_unit(
                        i.plan.seed(),
                        i.global_rank as u64,
                        src_global as u64,
                        i.stats.retries,
                    );
                    policy.jitter * u
                } else {
                    0.0
                };
                let t0 = i.clock.now;
                i.clock.advance_comm(pause * (1.0 + stretch));
                i.span_to_now("comm", "backoff", t0, || [("attempt", attempt as f64)]);
                pause *= policy.factor;
            }
            match self.recv_timeout(src, tag, policy.timeout) {
                Err(e @ Error::Timeout { .. }) => last = Some(e),
                other => return other,
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    fn recv_deadline(&self, src: Rank, tag: Tag, timeout: Option<f64>) -> Result<Vec<f64>> {
        let from = (self.global_rank_of(src)?, src);
        let mut i = self.inner.borrow_mut();
        let got = i.complete(self.ctx, from, tag, timeout, Lane::Blocking)?;
        Ok(got.data)
    }

    /// Posts a non-blocking receive. The matching message is considered
    /// to arrive at `depart + α + β·words` *independently of what this
    /// rank does meanwhile* — i.e. a perfectly overlapped transfer, the
    /// assumption the paper makes for halo exchanges (Fig. 3) and for
    /// Fig. 8's overlap study. Complete with [`Communicator::wait`].
    pub fn irecv(&self, src: Rank, tag: Tag) -> Result<RecvHandle> {
        let src_global = self.global_rank_of(src)?;
        Ok(RecvHandle {
            ctx: self.ctx,
            src_global,
            src,
            tag,
            deadline: None,
        })
    }

    /// Like [`Communicator::irecv`] but the arrival must happen within
    /// `timeout` virtual seconds of posting; a later arrival makes
    /// [`Communicator::wait`] return [`Error::Timeout`] at the deadline.
    pub fn irecv_timeout(&self, src: Rank, tag: Tag, timeout: f64) -> Result<RecvHandle> {
        assert!(timeout > 0.0, "timeout must be positive");
        let mut handle = self.irecv(src, tag)?;
        handle.deadline = Some(self.now() + timeout);
        Ok(handle)
    }

    /// Completes a non-blocking receive, clamping the clock forward to
    /// the arrival time if the data is not yet there. Honors the
    /// handle's deadline (see [`Communicator::irecv_timeout`]) and
    /// surfaces drops, peer death, and aborts like
    /// [`Communicator::recv`].
    pub fn wait(&self, handle: RecvHandle) -> Result<Vec<f64>> {
        let from = (handle.src_global, handle.src);
        let mut i = self.inner.borrow_mut();
        let got = i.complete(
            handle.ctx,
            from,
            handle.tag,
            handle.deadline,
            Lane::Overlapped,
        )?;
        Ok(got.data)
    }

    /// Progresses a non-blocking operation by one receive, charging the
    /// α–β transfer to the **concurrent comm channel** instead of the
    /// main timeline (see [`Clock::channel_transfer`]): the transfer
    /// starts when the data has departed the sender and this rank's
    /// channel is free, and the main clock does not move. Returns the
    /// payload, the absolute time the channel finished (the departure
    /// time for a forwarded chunk), and the seconds charged.
    ///
    /// The call may block the *OS thread* until the message is in the
    /// mailbox, but the matching is deterministic, so virtual time
    /// never depends on real-time interleaving.
    pub fn recv_channel(&self, src: Rank, tag: Tag) -> Result<ChannelRecv> {
        self.recv_channel_deadline(src, tag, None)
    }

    /// [`Communicator::recv_channel`] with an optional deadline for
    /// fault-tolerant callers: if the transfer cannot finish within
    /// `timeout` virtual seconds of the channel's current horizon
    /// (`max(now, comm_busy)`), the main clock is charged the
    /// wait and [`Error::Timeout`] is returned. Drops, peer death, and
    /// aborts surface like [`Communicator::recv`].
    pub fn recv_channel_deadline(
        &self,
        src: Rank,
        tag: Tag,
        timeout: Option<f64>,
    ) -> Result<ChannelRecv> {
        let from = (self.global_rank_of(src)?, src);
        let mut i = self.inner.borrow_mut();
        i.complete(self.ctx, from, tag, timeout, Lane::Channel)
    }

    /// Completes a non-blocking operation whose channel work finished
    /// at `ready_at`, having charged `charged` transfer seconds to the
    /// channel: blocks the main timeline forward to `ready_at` (the
    /// wait is communication time, counted in
    /// [`RankStats::comm_wait_secs`]) and credits whatever portion of
    /// the charged transfer ran concurrently to
    /// [`RankStats::overlapped_secs`].
    ///
    /// When tracing, the drain emits a `"drain"` span whose duration is
    /// **bit-identical** to the `comm_wait_secs` contribution and whose
    /// `"hidden"` argument is bit-identical to the `overlapped_secs`
    /// contribution — `trace_analyze` cross-checks both against
    /// [`RankStats`] at 1e-9 (they match exactly).
    pub fn complete_channel(&self, ready_at: f64, charged: f64) {
        let mut i = self.inner.borrow_mut();
        let t0 = i.clock.now;
        let wait = (ready_at - t0).max(0.0);
        let hidden = (charged - wait).max(0.0);
        i.clock.complete_wait(ready_at);
        i.stats.comm_wait_secs += wait;
        i.stats.overlapped_secs += hidden;
        // The span covers exactly the clock movement, so its
        // duration (`now - t0`) is the very same subtraction that
        // produced `wait` above — bit-identical, not just close.
        i.span_to_now("drain", "drain", t0, || {
            [("charged", charged), ("hidden", hidden)]
        });
    }

    /// Reserves a fresh base tag (a stride of 8 consecutive tags) for a
    /// non-blocking collective on this communicator, so multiple
    /// outstanding handles never cross-match each other's chunks. Every
    /// member of the communicator must launch its non-blocking
    /// operations in the same order (SPMD), like `split`.
    pub fn alloc_nb_tags(&self) -> Tag {
        let mut i = self.inner.borrow_mut();
        let seq = i.nb_seq.entry(self.ctx).or_insert(0);
        let base = NB_TAG_BASE + *seq * NB_TAG_STRIDE;
        *seq += 1;
        base
    }

    /// Counts a blocking all-reduce call in [`RankStats`].
    pub fn record_allreduce(&self) {
        self.inner.borrow_mut().stats.allreduce_calls += 1;
    }

    /// Counts a blocking all-gather call in [`RankStats`].
    pub fn record_allgather(&self) {
        self.inner.borrow_mut().stats.allgather_calls += 1;
    }

    /// Counts a non-blocking all-reduce launch in [`RankStats`].
    pub fn record_nb_allreduce(&self) {
        self.inner.borrow_mut().stats.nb_allreduce_calls += 1;
    }

    /// Counts a non-blocking all-gather launch in [`RankStats`].
    pub fn record_nb_allgather(&self) {
        self.inner.borrow_mut().stats.nb_allgather_calls += 1;
    }

    /// Simultaneous exchange with two (possibly equal) partners: sends
    /// to `dst`, then receives from `src`. The eager-send model makes
    /// this deadlock-free.
    pub fn sendrecv(&self, dst: Rank, send: &[f64], src: Rank, tag: Tag) -> Result<Vec<f64>> {
        self.send(dst, tag, send)?;
        self.recv(src, tag)
    }

    /// Zero-virtual-time control-plane send (communicator management).
    pub fn send_control(&self, dst: Rank, tag: Tag, data: Vec<u8>) -> Result<()> {
        let dst_global = self.global_rank_of(dst)?;
        let mut i = self.inner.borrow_mut();
        i.send_control(dst_global, self.ctx, tag, data)
    }

    /// Zero-virtual-time control-plane receive. The control plane is
    /// reliable (no drops/corruption), but still observes peer death and
    /// partition cuts (a severed control message surfaces as
    /// [`Error::Unreachable`]).
    pub fn recv_control(&self, src: Rank, tag: Tag) -> Result<Vec<u8>> {
        let src_global = self.global_rank_of(src)?;
        let mut i = self.inner.borrow_mut();
        i.check_failed()?;
        i.complete_control(self.ctx, src_global, tag)
    }

    /// Dissemination barrier. Charges virtual time (⌈log₂ P⌉ rounds of
    /// empty messages, α each) and leaves every member's clock at the
    /// same value.
    pub fn barrier(&self) -> Result<()> {
        let p = self.size();
        if p <= 1 {
            return Ok(());
        }
        let r = self.rank;
        let mut k = 1usize;
        while k < p {
            let dst = (r + k) % p;
            let src = (r + p - k) % p;
            self.send(dst, BARRIER_TAG, &[])?;
            let _ = self.recv(src, BARRIER_TAG)?;
            k <<= 1;
        }
        // Dissemination leaves clocks equal when they started equal; to
        // make the invariant unconditional, synchronize explicitly
        // (free: clocks only move forward to the max).
        self.sync_clocks()
    }

    /// Synchronizes virtual clocks across the communicator to their
    /// maximum without charging any message cost. Control-plane helper
    /// for delimiting timed experiment phases.
    pub fn sync_clocks(&self) -> Result<()> {
        let p = self.size();
        if p <= 1 {
            return Ok(());
        }
        let mine = self.now();
        // Everyone sends its clock to everyone else (control traffic).
        for dst in 0..p {
            if dst != self.rank {
                self.send_control(dst, SYNC_TAG, mine.to_le_bytes().to_vec())?;
            }
        }
        let mut max = mine;
        for src in 0..p {
            if src != self.rank {
                let bytes = self.recv_control(src, SYNC_TAG)?;
                let t = f64::from_le_bytes(bytes[..8].try_into().expect("8-byte clock"));
                max = max.max(t);
            }
        }
        let mut i = self.inner.borrow_mut();
        let t0 = i.clock.now;
        i.clock.sync_to(max);
        if i.clock.now > t0 {
            i.span_to_now("comm", "sync", t0, || []);
        }
        Ok(())
    }

    /// Resets this rank's virtual clock to zero (e.g. after a warm-up
    /// phase). Call under a [`Communicator::barrier`] or
    /// [`Communicator::sync_clocks`] to keep ranks consistent.
    ///
    /// Also discards any trace events recorded so far: the trace's
    /// timestamps are virtual times, and keeping pre-reset events would
    /// make the timeline run backwards.
    pub fn reset_clock(&self) {
        let mut i = self.inner.borrow_mut();
        i.clock = Clock::new();
        i.tracer.clear();
    }

    /// A communicator over `members` (global ranks, in rank order) that
    /// shares this one's per-rank state; `None` when this rank is not
    /// among them.
    fn child(&self, ctx: u64, members: Vec<usize>) -> Option<Communicator> {
        let my_global = self.members[self.rank];
        let rank = members.iter().position(|&g| g == my_global)?;
        Some(Communicator {
            inner: Rc::clone(&self.inner),
            ctx,
            members: Arc::new(members),
            rank,
        })
    }

    /// Splits the communicator into disjoint sub-communicators by
    /// `color`; members of each new communicator are ordered by
    /// `(key, old rank)`. All members must call `split` in the same
    /// order (SPMD), like `MPI_Comm_split`. Control-plane: free in
    /// virtual time.
    pub fn split(&self, color: u64, key: u64) -> Result<Communicator> {
        let p = self.size();
        let seq = {
            let mut i = self.inner.borrow_mut();
            i.split_seq += 1;
            i.split_seq
        };
        // Exchange (color, key) with every member.
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&color.to_le_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        for dst in 0..p {
            if dst != self.rank {
                self.send_control(dst, SPLIT_TAG + seq, payload.clone())?;
            }
        }
        let mut triples: Vec<(u64, u64, usize)> = vec![(color, key, self.rank)];
        for src in 0..p {
            if src != self.rank {
                let bytes = self.recv_control(src, SPLIT_TAG + seq)?;
                let c = u64::from_le_bytes(bytes[0..8].try_into().expect("color"));
                let k = u64::from_le_bytes(bytes[8..16].try_into().expect("key"));
                triples.push((c, k, src));
            }
        }
        let mut same: Vec<(u64, usize)> = triples
            .into_iter()
            .filter(|&(c, _, _)| c == color)
            .map(|(_, k, r)| (k, r))
            .collect();
        same.sort_unstable();
        let members: Vec<usize> = same.iter().map(|&(_, r)| self.members[r]).collect();
        let ctx = derive_ctx([self.ctx, seq, color]);
        Ok(self
            .child(ctx, members)
            .expect("splitting rank must belong to its own color group"))
    }

    /// Views the communicator as a row-major `pr × pc` grid and returns
    /// `(row_comm, col_comm)` for this rank:
    ///
    /// * `row_comm` has size `pc` — in the paper's layout these are the
    ///   ranks holding the *same model shard* across batch shards, i.e.
    ///   the "Pc-sized groups" used for the ∆W all-reduce.
    /// * `col_comm` has size `pr` — the ranks holding the *same batch
    ///   shard* across model shards, i.e. the "Pr-sized groups" used for
    ///   the forward all-gather and the ∆X all-reduce.
    ///
    /// Requires `pr * pc == self.size()`.
    pub fn grid(&self, pr: usize, pc: usize) -> Result<(Communicator, Communicator)> {
        if pr * pc != self.size() {
            return Err(Error::CollectiveMismatch(format!(
                "grid {pr}x{pc} does not tile a communicator of size {}",
                self.size()
            )));
        }
        let i = self.rank / pc; // row index (model shard)
        let j = self.rank % pc; // column index (batch shard)
        let row = self.split(i as u64, j as u64)?;
        let col = self.split(j as u64, i as u64)?;
        Ok((row, col))
    }

    /// This rank's traffic counters so far.
    pub fn stats(&self) -> RankStats {
        self.inner.borrow().stats
    }

    /// Global ranks of this communicator's members, in rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    // --- tracing -----------------------------------------------------

    /// Emits an instantaneous trace event at the current virtual time.
    /// No-op (one boolean test) when tracing is disabled.
    pub fn trace_instant(
        &self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, f64)],
    ) {
        let mut i = self.inner.borrow_mut();
        let t = i.clock.now;
        i.tracer.instant(cat, name, t, args);
    }

    /// Opens a scope span starting at the current virtual time and
    /// returns a guard that closes it (at the then-current virtual
    /// time) when dropped — including on early returns through `?`.
    /// When tracing is disabled the guard is inert.
    ///
    /// Scope spans nest: collectives open one around their whole
    /// schedule, trainers around forward/backward phases. The leaf
    /// spans emitted by the communicator itself (`compute`, `comm`,
    /// `drain`, `fault`) appear nested inside them in the Chrome Trace
    /// view.
    #[must_use = "the span closes when the guard is dropped"]
    pub fn trace_span(
        &self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, f64)],
    ) -> TraceSpan {
        let mut i = self.inner.borrow_mut();
        if !i.tracer.enabled() {
            return TraceSpan { inner: None };
        }
        let t0 = i.clock.now;
        i.tracer.begin(cat, name, t0, args);
        TraceSpan {
            inner: Some(Rc::clone(&self.inner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn send_recv_roundtrip_and_timing() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.5,
            flops: f64::INFINITY,
        };
        let out = World::run(2, model, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
                0.0
            } else {
                let v = comm.recv(0, 0).unwrap();
                assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
                comm.now()
            }
        });
        // recv cost: alpha + 4*beta = 1 + 2 = 3.
        assert!((out[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recv_waits_for_late_sender() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: 1.0,
        };
        let out = World::run(2, model, |comm| {
            if comm.rank() == 0 {
                comm.advance_compute(10.0);
                comm.send(1, 0, &[42.0]).unwrap();
                comm.now()
            } else {
                let _ = comm.recv(0, 0).unwrap();
                comm.now()
            }
        });
        assert!((out[0] - 10.0).abs() < 1e-12);
        // Receiver: waits to t=10, then alpha=1.
        assert!((out[1] - 11.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let model = NetModel::free();
        let out = World::run(2, model, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &[5.0]).unwrap();
                comm.send(1, 6, &[6.0]).unwrap();
                vec![]
            } else {
                // Receive in the opposite order.
                let six = comm.recv(0, 6).unwrap();
                let five = comm.recv(0, 5).unwrap();
                vec![six[0], five[0]]
            }
        });
        assert_eq!(out[1], vec![6.0, 5.0]);
    }

    #[test]
    fn overlapped_recv_is_free_when_compute_covers_it() {
        let model = NetModel {
            alpha: 1.0,
            beta: 1.0,
            flops: f64::INFINITY,
        };
        let out = World::run(2, model, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1.0, 1.0]).unwrap(); // departs at t=0, arrives t=3
                0.0
            } else {
                let h = comm.irecv(0, 0).unwrap();
                comm.advance_compute(10.0); // covers the transfer
                let _ = comm.wait(h).unwrap();
                comm.now()
            }
        });
        assert!((out[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_recv_clamps_when_compute_is_short() {
        let model = NetModel {
            alpha: 1.0,
            beta: 1.0,
            flops: f64::INFINITY,
        };
        let out = World::run(2, model, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1.0, 1.0]).unwrap(); // arrives t=3
                0.0
            } else {
                let h = comm.irecv(0, 0).unwrap();
                comm.advance_compute(1.0);
                let _ = comm.wait(h).unwrap();
                comm.now()
            }
        });
        assert!((out[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_forms_expected_groups() {
        let model = NetModel::free();
        let out = World::run(6, model, |comm| {
            // Rows of a 2x3 grid: color = rank / 3.
            let sub = comm
                .split((comm.rank() / 3) as u64, comm.rank() as u64)
                .unwrap();
            (sub.rank(), sub.size())
        });
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3), (0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn grid_row_and_col_sizes() {
        let model = NetModel::free();
        let out = World::run(6, model, |comm| {
            let (row, col) = comm.grid(2, 3).unwrap();
            (row.size(), col.size(), row.rank(), col.rank())
        });
        for (g, &(rs, cs, rr, cr)) in out.iter().enumerate() {
            assert_eq!(rs, 3, "row comm size");
            assert_eq!(cs, 2, "col comm size");
            assert_eq!(rr, g % 3, "row rank = column index");
            assert_eq!(cr, g / 3, "col rank = row index");
        }
    }

    #[test]
    fn sub_communicators_do_not_cross_talk() {
        let model = NetModel::free();
        let out = World::run(4, model, |comm| {
            let (row, _col) = comm.grid(2, 2).unwrap();
            // Both rows exchange with the same (sub-rank, tag) pair; the
            // context id keeps traffic separate.
            let me = comm.rank() as f64;
            let peer = 1 - row.rank();
            let got = row.sendrecv(peer, &[me], peer, 9).unwrap();
            got[0]
        });
        assert_eq!(out, vec![1.0, 0.0, 3.0, 2.0]);
    }

    #[test]
    fn barrier_equalizes_clocks() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let out = World::run(4, model, |comm| {
            comm.advance_compute(comm.rank() as f64);
            comm.barrier().unwrap();
            comm.now()
        });
        for &t in &out {
            assert!(
                (t - out[0]).abs() < 1e-12,
                "clocks equal after barrier: {out:?}"
            );
        }
        // At least the straggler's compute (3.0) plus 2 rounds of alpha.
        assert!(out[0] >= 3.0);
    }

    #[test]
    fn rank_out_of_range_is_reported() {
        let model = NetModel::free();
        let out = World::run(2, model, |comm| comm.send(5, 0, &[1.0]).unwrap_err());
        assert_eq!(out[0], Error::RankOutOfRange { rank: 5, size: 2 });
    }

    #[test]
    fn late_message_is_recovered_by_retry() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        // Straggle the first message by 10s: a 6s timeout misses it,
        // the retry (another 6s window) picks it up.
        let plan = crate::FaultPlan::new(1).straggle(0, 1, 10.0, 0.0, crate::Span::Once(0));
        let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[9.0]).unwrap();
                (vec![], 0.0)
            } else {
                // Window 1 ends at t=6 < availability (t=10): timeout.
                // Backoff to 6.5, window 2 ends at 12.5: the message
                // (available at 10, transfer 1) completes at t=11.
                let v = comm
                    .recv_retry_policy(0, 3, &RetryPolicy::fixed(6.0, 3, 0.5))
                    .unwrap();
                (v, comm.now())
            }
        });
        assert_eq!(out[1].0, vec![9.0]);
        assert!((out[1].1 - 11.0).abs() < 1e-12, "clock: {}", out[1].1);
        assert_eq!(stats.ranks[1].timeouts, 1, "first window expired");
        assert_eq!(stats.ranks[1].retries, 1, "second window succeeded");
        assert!((stats.ranks[1].straggler_wait - 10.0).abs() < 1e-12);
    }

    #[test]
    fn stats_count_words() {
        let model = NetModel::free();
        let (_, stats) = World::run_with_stats(2, model, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0.0; 17]).unwrap();
            } else {
                let _ = comm.recv(0, 0).unwrap();
            }
        });
        assert_eq!(stats.total_words(), 17);
        assert_eq!(stats.total_msgs(), 1);
    }

    #[test]
    fn exponential_backoff_doubles_pauses() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        // The only message is dropped: all three windows expire.
        let plan = crate::FaultPlan::new(1).drop_nth(0, 1, 0);
        let (_, stats) = World::run_with_faults(2, model, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[1.0]).unwrap();
            } else {
                let policy = crate::RetryPolicy::exponential(1.0, 3, 1.0, 2.0, 0.0);
                let e = comm.recv_retry_policy(0, 3, &policy).unwrap_err();
                assert!(matches!(e, Error::Timeout { .. }));
            }
        });
        // Window(1) + pause(1) + window(1) + pause(2) + window(1) = 6.
        assert!((stats.clocks[1].now - 6.0).abs() < 1e-12);
        assert_eq!(stats.ranks[1].retries, 2);
        assert_eq!(stats.ranks[1].timeouts, 3);
    }

    #[test]
    fn backoff_jitter_is_bounded_and_replayable() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let run = || {
            let plan = crate::FaultPlan::new(77).drop_nth(0, 1, 0);
            let (_, stats) = World::run_with_faults(2, model, plan, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 3, &[1.0]).unwrap();
                } else {
                    let policy = crate::RetryPolicy::exponential(1.0, 3, 1.0, 2.0, 0.5);
                    let _ = comm.recv_retry_policy(0, 3, &policy);
                }
            });
            stats.clocks[1].now
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "jittered schedule replays bit-identically");
        // Jitter stretches pauses by at most 50%: total in (6, 7.5].
        assert!(a > 6.0 && a <= 7.5, "jittered makespan: {a}");
    }

    /// The three public routes into the one data-plane completion.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Via {
        Recv,
        Wait,
        Channel,
    }

    const LANES: [Via; 3] = [Via::Recv, Via::Wait, Via::Channel];

    /// Receives `(0 → me, tag 7)` through one lane; `timeout` counts
    /// from the call on every lane.
    fn lane_recv(comm: &Communicator, via: Via, timeout: Option<f64>) -> Result<Vec<f64>> {
        match (via, timeout) {
            (Via::Recv, Some(t)) => comm.recv_timeout(0, 7, t),
            (Via::Recv, None) => comm.recv(0, 7),
            (Via::Wait, Some(t)) => comm.wait(comm.irecv_timeout(0, 7, t)?),
            (Via::Wait, None) => comm.wait(comm.irecv(0, 7)?),
            (Via::Channel, t) => comm.recv_channel_deadline(0, 7, t).map(|r| r.data),
        }
    }

    /// What the receiver saw: each attempt's result and the clock
    /// right after it.
    type Seen = Vec<(Result<Vec<f64>>, Clock)>;

    /// Runs one row of the table on one lane: rank 0 runs `sender`,
    /// rank 1 computes for `busy` seconds and then makes one receive
    /// attempt per entry of `timeouts` (after `between`, from the second
    /// attempt on).
    fn row(
        via: Via,
        plan: crate::FaultPlan,
        sender: impl Fn(&Communicator) + Sync,
        busy: f64,
        timeouts: &[Option<f64>],
        between: impl Fn(&Communicator) + Sync,
    ) -> (Seen, crate::WorldStats) {
        // α + 2β = 2 s for the two-word payloads every row sends.
        let model = NetModel {
            alpha: 1.0,
            beta: 0.5,
            flops: f64::INFINITY,
        };
        let (mut out, stats) = World::run_with_faults(2, model, plan, |comm| {
            if comm.rank() == 0 {
                sender(comm);
                return Vec::new();
            }
            comm.advance_compute(busy);
            let mut seen = Seen::new();
            for (k, &timeout) in timeouts.iter().enumerate() {
                if k > 0 {
                    between(comm);
                }
                seen.push((lane_recv(comm, via, timeout), comm.clock()));
            }
            seen
        });
        (out.pop().expect("two ranks"), stats)
    }

    /// The fault-facing counters of one rank:
    /// `[timeouts, corrupt_recovered, failures_detected, unreachable_detected]`.
    fn detections(s: &RankStats) -> [u64; 4] {
        [
            s.timeouts,
            s.corrupt_recovered,
            s.failures_detected,
            s.unreachable_detected,
        ]
    }

    fn send_pair(comm: &Communicator) {
        comm.send(1, 7, &[1.0, 2.0]).unwrap();
    }

    fn timeout(waited: f64) -> Result<Vec<f64>> {
        Err(Error::Timeout {
            rank: 0,
            tag: 7,
            waited,
        })
    }

    /// Lane × outcome: every way a data receive can end is surfaced by
    /// all three lanes as the same error with the same counter
    /// increments, and each lane moves its own clock by its own rule.
    #[test]
    fn every_lane_surfaces_every_outcome() {
        use crate::{FaultPlan, Span};
        let bits = |c: &Clock| [c.now, c.comm, c.comm_busy].map(f64::to_bits);
        let at = |now: f64, comm: f64, busy: f64| [now, comm, busy].map(f64::to_bits);
        let nop = |_: &Communicator| {};

        for via in LANES {
            // Arrives in time. Departs at 1, receiver busy until 1.5,
            // transfer 2: the blocking lane starts the transfer when it
            // gets there, the overlapped lane only clamps to the arrival,
            // the channel lane leaves the main clock alone.
            let late_sender = |c: &Communicator| {
                c.advance_compute(1.0);
                send_pair(c);
            };
            let (seen, stats) = row(via, FaultPlan::default(), late_sender, 1.5, &[None], nop);
            assert_eq!(seen[0].0, Ok(vec![1.0, 2.0]), "{via:?}");
            let want = match via {
                Via::Recv => at(3.5, 2.0, 0.0),
                Via::Wait => at(3.0, 1.5, 0.0),
                Via::Channel => at(1.5, 0.0, 3.0),
            };
            assert_eq!(bits(&seen[0].1), want, "{via:?} in time");
            let r = &stats.ranks[1];
            assert_eq!(detections(r), [0, 0, 0, 0], "{via:?}");
            let (main, channel) = if via == Via::Channel {
                (0.0, 2.0)
            } else {
                (2.0, 0.0)
            };
            assert_eq!(
                (r.transfer_secs, r.channel_secs),
                (main, channel),
                "{via:?}"
            );

            // Arrives late: straggled to t = 10, so a 6 s window expires
            // (full wait charged, message stays buffered) and a second,
            // 8 s window ending at 14 catches the arrival at 12.
            let plan = FaultPlan::new(1).straggle(0, 1, 10.0, 0.0, Span::Once(0));
            let (seen, stats) = row(via, plan, send_pair, 0.0, &[Some(6.0), Some(8.0)], nop);
            assert_eq!(seen[0].0, timeout(6.0), "{via:?}");
            assert_eq!(bits(&seen[0].1), at(6.0, 6.0, 0.0), "{via:?} expired");
            assert_eq!(seen[1].0, Ok(vec![1.0, 2.0]), "{via:?}");
            let want = match via {
                Via::Recv | Via::Wait => at(12.0, 12.0, 0.0),
                Via::Channel => at(6.0, 6.0, 12.0),
            };
            assert_eq!(bits(&seen[1].1), want, "{via:?} caught late");
            assert_eq!(detections(&stats.ranks[1]), [1, 0, 0, 0], "{via:?}");
            assert_eq!(stats.ranks[1].straggler_wait, 10.0, "{via:?}");

            // Dropped, with a deadline: the wait is charged as comm time
            // and the parked tombstone keeps answering retries.
            let plan = FaultPlan::new(1).drop_nth(0, 1, 0);
            let (seen, stats) = row(via, plan, send_pair, 0.0, &[Some(5.0), Some(1.0)], nop);
            assert_eq!(seen[0].0, timeout(5.0), "{via:?}");
            assert_eq!(bits(&seen[0].1), at(5.0, 5.0, 0.0), "{via:?} dropped");
            assert_eq!(seen[1].0, timeout(1.0), "{via:?}");
            assert_eq!(bits(&seen[1].1), at(6.0, 6.0, 0.0), "{via:?} dropped again");
            assert_eq!(detections(&stats.ranks[1]), [2, 0, 0, 0], "{via:?}");
            let s = &stats.ranks[0];
            assert_eq!((s.msgs_dropped, s.words_dropped), (1, 2), "{via:?}");

            // Dropped, no deadline: an unbounded wait is reported rather
            // than served, and the clock does not move.
            let plan = FaultPlan::new(1).drop_nth(0, 1, 0);
            let (seen, stats) = row(via, plan, send_pair, 0.0, &[None], nop);
            assert_eq!(seen[0].0, timeout(f64::INFINITY), "{via:?}");
            assert_eq!(bits(&seen[0].1), at(0.0, 0.0, 0.0), "{via:?} lost");
            assert_eq!(detections(&stats.ranks[1]), [1, 0, 0, 0], "{via:?}");

            // Peer dead: detection cannot precede the death at t = 5.
            let dies = |c: &Communicator| {
                c.advance_compute(6.0);
                assert_eq!(c.send(1, 7, &[1.0]), Err(Error::RankFailed { rank: 0 }));
            };
            let plan = FaultPlan::new(0).kill(0, 5.0);
            let (seen, stats) = row(via, plan, dies, 0.0, &[None, None], nop);
            for (got, clock) in &seen {
                assert_eq!(*got, Err(Error::RankFailed { rank: 0 }), "{via:?}");
                assert_eq!(bits(clock), at(5.0, 5.0, 0.0), "{via:?} death sync");
            }
            assert_eq!(detections(&stats.ranks[1]), [0, 0, 1, 0], "{via:?}");

            // Peer aborted: honored in the epoch it was sent in, ignored
            // once the receiver has moved on to the next.
            let aborts = |c: &Communicator| {
                c.send_abort(0).unwrap();
                c.advance_fault_epoch();
                send_pair(c);
            };
            let next_epoch = |c: &Communicator| c.advance_fault_epoch();
            let plan = FaultPlan::new(0).with_default_timeout(1e6);
            let (seen, stats) = row(via, plan, aborts, 0.0, &[None, None], next_epoch);
            assert_eq!(seen[0].0, Err(Error::Aborted { culprit: 0 }), "{via:?}");
            assert_eq!(bits(&seen[0].1), at(0.0, 0.0, 0.0), "{via:?} aborted");
            assert_eq!(seen[1].0, Ok(vec![1.0, 2.0]), "{via:?} stale abort");
            assert_eq!(detections(&stats.ranks[1]), [0, 0, 0, 0], "{via:?}");
            assert_eq!(stats.ranks[0].aborts_sent, 1, "{via:?}");

            // Unreachable: the data was severed by a partition and only
            // its tombstone crossed. Observed at the receiver's own time.
            let plan = FaultPlan::new(0).partition(&[0], 0.0);
            let (seen, stats) = row(via, plan, send_pair, 0.5, &[Some(4.0), None], nop);
            for (got, clock) in &seen {
                assert_eq!(*got, Err(Error::Unreachable { rank: 0 }), "{via:?}");
                assert_eq!(bits(clock), at(0.5, 0.0, 0.0), "{via:?} unreachable");
            }
            assert_eq!(detections(&stats.ranks[1]), [0, 0, 0, 1], "{via:?}");
            assert_eq!(stats.ranks[0].msgs_severed, 1, "{via:?}");

            // Corrupted: the transfer is paid, the payload is rejected,
            // and the next clean message on the flow is still delivered.
            let two = |c: &Communicator| {
                c.send(1, 7, &[1.0, 2.0]).unwrap();
                c.send(1, 7, &[4.0, 5.0]).unwrap();
            };
            let plan = FaultPlan::new(5).corrupt_nth(0, 1, 0);
            let (seen, stats) = row(via, plan, two, 0.0, &[None, None], nop);
            let rejected = Err(Error::Corrupted {
                rank: 0,
                tag: 7,
                ctx: None,
            });
            assert_eq!(seen[0].0, rejected, "{via:?}");
            let want = match via {
                Via::Recv | Via::Wait => at(2.0, 2.0, 0.0),
                Via::Channel => at(0.0, 0.0, 2.0),
            };
            assert_eq!(bits(&seen[0].1), want, "{via:?} corrupted");
            assert_eq!(seen[1].0, Ok(vec![4.0, 5.0]), "{via:?}");
            let r = &stats.ranks[1];
            assert_eq!(detections(r), [0, 1, 0, 0], "{via:?}");
            assert_eq!(r.corrupt_corrected, 0, "{via:?}");
        }
    }

    /// A straggled message must complete at the same clock bits whichever
    /// API receives it: every lane takes `avail = depart + delay` first
    /// and adds the transfer to that. (`wait` used to add the delay last;
    /// seed 3 of this sweep then ended one ulp apart.)
    #[test]
    fn straggled_message_completes_at_the_same_bits_on_every_lane() {
        for seed in 0..16 {
            let run = |overlapped: bool| {
                let plan = crate::FaultPlan::new(seed).straggle(0, 1, 3e-5, 2e-5, crate::Span::All);
                let out = World::run_with_faults(2, NetModel::cori_knl(), plan, |comm| {
                    if comm.rank() == 0 {
                        comm.advance_compute(1.7e-5);
                        comm.send(1, 3, &[1.0; 37]).unwrap();
                    } else if overlapped {
                        let h = comm.irecv_timeout(0, 3, 1.0).unwrap();
                        comm.wait(h).unwrap();
                    } else {
                        comm.recv_timeout(0, 3, 1.0).unwrap();
                    }
                    comm.now()
                });
                out.0[1]
            };
            assert_eq!(run(false).to_bits(), run(true).to_bits(), "seed {seed}");
        }
    }
}
