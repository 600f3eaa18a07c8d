//! Membership under faults: recovery epochs, the group abort of a
//! guarded receive, failure agreement, shrink, revive / readmit / park /
//! heal, the adaptive detector's queries, and the scripted
//! silent-data-corruption flips. Everything here is bookkeeping on the
//! per-rank tables plus calls into `wire` for the traffic; no envelope
//! is built or inspected in this module.

use super::wire::{Inner, Notice};
use super::{Communicator, RESERVED_TAG_BASE};
use crate::error::{Error, Result};
use crate::fault::{self, BitFlip};
use crate::Tag;

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

    /// How every data-plane receive ends. On a
    /// [guarded](Communicator::guarded) handle a fault error is
    /// broadcast — or, for a peer's abort, cascaded — as one group abort
    /// blaming the culprit before it is returned; the retry schedule has
    /// already run, so this is once per surfaced fault, never per
    /// attempt. An unguarded handle (and every success) passes through.
    pub(super) fn abort_on_fault<T>(&self, got: Result<T>) -> Result<T> {
        got.inspect_err(|e| {
            if let Some(culprit) = self.ft.and_then(|_| self.blame(e)) {
                // Best effort: if this rank dies while aborting, its
                // death notice keeps the group live anyway.
                let _ = self.send_abort(culprit);
            }
        })
    }

    /// The global rank to blame for a fault error observed on this
    /// communicator, or `None` when the error is not a fault (or is this
    /// rank's own death, which its death notice already announces).
    fn blame(&self, e: &Error) -> Option<usize> {
        match e {
            Error::Timeout { rank, .. } | Error::Corrupted { rank, .. } => {
                self.global_rank_of(*rank).ok()
            }
            Error::RankFailed { rank } => (*rank != self.members[self.rank]).then_some(*rank),
            Error::Aborted { culprit } => Some(*culprit),
            // A partition cut is blamed on the unreachable peer: the abort
            // cascades through the reachable fragment exactly like a death,
            // driving every member into recovery with the same culprit.
            Error::Unreachable { rank } => Some(*rank),
            _ => None,
        }
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
    /// must call `fault_sync` the same number of times (SPMD).
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
        let survivors = self.members.iter().copied().filter(|g| !dead.contains(g));
        self.child(survivors, Some(epoch)).ok_or(Error::RankFailed {
            rank: self.members[self.rank],
        })
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

    /// Drains the scripted compute bit flips for this rank's `op`-th
    /// GEMM of iteration `iter`: each matching plan entry not yet spent
    /// on this rank is marked spent and returned for the caller (the
    /// GEMM wrapper) to apply to the product it just computed.
    /// Spend-once means a rollback/replay of the same iteration
    /// re-executes clean — exactly the semantics a transient SDC event
    /// has on real hardware. Landing is not firing: the caller reports
    /// the flips that fired through [`Communicator::record_flips_fired`].
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
        }
        flips
    }

    /// Counts `flips` — landed on this rank's `op`-th GEMM of iteration
    /// `iter` — as fired, in
    /// [`RankStats::bitflips_compute`](crate::RankStats::bitflips_compute),
    /// and announces each as a trace instant. A flip *fires* when it
    /// moves the product outside the rounding envelope its checksums
    /// allow (the GEMM wrapper judges that); one that stays inside is
    /// rounding noise to every check and is not a fault.
    pub fn record_flips_fired(&self, iter: u64, op: u64, flips: &[BitFlip]) {
        let mut i = self.inner.borrow_mut();
        i.stats.bitflips_compute += flips.len() as u64;
        for f in flips {
            i.instant_now("fault", "bitflip_compute", || {
                [
                    ("iter", iter as f64),
                    ("op", op as f64),
                    ("bit", f.bit as f64),
                ]
            });
        }
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
    /// pair, and the peer plan-alive (not killed without a rejoin behind
    /// the cut), at this rank's current virtual time or at the time the
    /// record was made, whichever is later — a rank whose clock is short
    /// of a cut's start must not read a peer parked behind that cut as
    /// healed. A pure function of the plan, the local unreachability
    /// record, and the clock — survivors sharing the observation answer
    /// identically at the same protocol point, like
    /// [`Communicator::rejoin_ready`].
    pub fn heal_ready(&self, global: usize) -> bool {
        let i = self.inner.borrow();
        let Some(&seen) = i.unreachable_peers.get(&global) else {
            return false;
        };
        let at = i.clock.now.max(seen);
        let healed = !i.plan.pair_cut(global, i.global_rank, at) && i.plan.alive_at(global, at);
        healed && !i.dead_peers.contains_key(&global)
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
}

// --- adaptive failure detection: what a guarded receive asks ----------

impl Inner {
    /// Charges the backoff pause before retry number `attempt` of a
    /// guarded receive from `src_global`: `pause`, stretched by up to
    /// `jitter` — a deterministic draw keyed on the plan seed, the link
    /// and the retry count.
    pub(super) fn back_off(&mut self, src_global: usize, pause: f64, jitter: f64, attempt: usize) {
        self.stats.retries += 1;
        let stretch = if jitter > 0.0 {
            let me = self.global_rank as u64;
            jitter * fault::jitter_unit(self.plan.seed(), me, src_global as u64, self.stats.retries)
        } else {
            0.0
        };
        let t0 = self.clock.now;
        self.clock.advance_comm(pause * (1.0 + stretch));
        self.span_to_now("comm", "backoff", t0, || [("attempt", attempt as f64)]);
    }

    /// Whether the detector currently ranks the peer *suspect but not
    /// presumed dead* — the regime where a speculative re-request is
    /// worthwhile (the peer is late beyond its learned rhythm, yet not
    /// so silent that it is written off). The first flagging of a peer
    /// since it was last heard is counted in
    /// [`RankStats::suspects_flagged`](crate::RankStats::suspects_flagged).
    pub(super) fn suspect_not_dead(&mut self, src_global: usize) -> bool {
        if self.dead_peers.contains_key(&src_global) {
            return false;
        }
        let Some(phi) = self.health.phi(src_global, self.clock.now) else {
            return false;
        };
        let cfg = *self.health.config();
        if phi >= cfg.phi_suspect && phi < cfg.phi_dead {
            if self.health.mark_suspect(src_global) {
                self.stats.suspects_flagged += 1;
            }
            true
        } else {
            false
        }
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
                comm.record_flips_fired(2, 0, &c);
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

    /// A peer parked behind a cut is not healed for a rank whose clock
    /// is still short of the cut's start: `heal_ready` reads the plan at
    /// the park's time at the earliest. Cut `[2, 5)` asked from 1.9
    /// about a peer parked at 2.1: not ready, and ready from 5 on; a cut
    /// that never heals: never ready.
    #[test]
    fn heal_ready_reads_the_plan_no_earlier_than_the_park() {
        let model = NetModel {
            alpha: 0.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        for heals in [true, false] {
            let mut plan = crate::FaultPlan::new(0).partition(&[1], 2.0);
            if heals {
                plan = plan.heal(&[1], 5.0);
            }
            let (out, _) = World::run_with_faults(2, model, plan, |comm| {
                if comm.rank() == 1 {
                    comm.advance_compute(2.1);
                    comm.park().unwrap();
                    return vec![];
                }
                comm.advance_compute(1.9);
                assert_eq!(comm.recv(1, 1).unwrap_err(), Error::Unreachable { rank: 1 });
                assert_eq!(comm.now(), 1.9, "surfacing a park moves no clock");
                let mut ready = vec![comm.heal_ready(1)];
                for t in [4.9, 5.0, 100.0] {
                    comm.advance_compute(t - comm.now());
                    ready.push(comm.heal_ready(1));
                }
                ready
            });
            let want = if heals {
                [false, false, true, true]
            } else {
                [false; 4]
            };
            assert_eq!(out[0], want, "heals: {heals}");
        }
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
                let dl = comm.inner.borrow().health.deadline(0);
                let phi = || {
                    let i = comm.inner.borrow();
                    i.health.phi(0, i.clock.now).unwrap()
                };
                let suspect_not_dead = || comm.inner.borrow_mut().suspect_not_dead(0);
                // Right after hearing from the peer, φ is low.
                let quiet = phi();
                assert!(quiet < 1.0, "fresh peer is unsuspicious: {quiet}");
                assert!(!suspect_not_dead());
                // Moderate silence: suspect but not presumed dead.
                comm.advance_compute(1.35);
                let suspect = suspect_not_dead();
                let phi_mid = phi();
                // Long silence: written off, past speculation.
                comm.advance_compute(8.0);
                let phi_late = phi();
                assert!(phi_late > phi_mid && phi_mid > quiet);
                assert!(!suspect_not_dead(), "φ past dead: {phi_late}");
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
