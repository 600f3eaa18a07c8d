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
use crate::engine::Endpoint;
use crate::error::{Error, Result};
use crate::fault::{self, FaultPlan};
use crate::health::{DetectorConfig, HealthMonitor};
use crate::netmodel::NetModel;
use crate::router::{Envelope, Payload};
use crate::stats::RankStats;
use crate::trace::{TraceConfig, Tracer, Track};
use crate::{Rank, Tag};

/// Per-rank shared state: transport endpoint, pending-message buffer,
/// virtual clock, and counters. One `Inner` exists per global rank, on
/// that rank's fiber; all its communicators share it.
pub(crate) struct Inner {
    pub global_rank: usize,
    pub world_size: usize,
    endpoint: Endpoint,
    /// Messages received from the channel but not yet matched, keyed by
    /// `(ctx, src_global, tag)`, FIFO per key.
    pending: HashMap<(u64, usize, Tag), VecDeque<Envelope>>,
    pub clock: Clock,
    pub model: NetModel,
    pub stats: RankStats,
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
    /// (requires SPMD launch order within the group).
    pub nb_seq: HashMap<u64, u64>,
    /// Per-rank event recorder (disabled by default; see
    /// [`crate::trace`]). Lives on this thread only — no locks.
    pub tracer: Tracer,
    /// Spend-once bookkeeping for scripted compute bit flips, indexed
    /// by [`crate::BitFlip::entry`] (a flip's ordinal among the plan's
    /// compute flips): a flip that has fired on this rank never fires
    /// again, so a rollback/replay of the same iteration runs clean.
    pub compute_flips_spent: Vec<bool>,
    /// Spend-once bookkeeping for scripted memory bit flips, indexed
    /// by their ordinal among the plan's memory flips.
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

impl Matched {
    /// What a tombstone resolves its receive to: the sender is
    /// unreachable when the message was severed by a partition, the
    /// message is simply lost when the plan dropped it.
    fn lost(tombstone: &Envelope) -> Matched {
        if tombstone.severed {
            Matched::Unreachable(tombstone.depart)
        } else {
            Matched::Dropped
        }
    }
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
/// `α + β·words`, and the receive expires iff `start + transfer`
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
    /// Builds the state of rank `rank` of a `size`-rank world.
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
            stats: RankStats::default(),
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
        t0: f64,
        t1: f64,
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
        self.span(cat, name, Track::Main, t0, t1, args);
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
            Payload::Words(_) | Payload::Control(_) | Payload::Tombstone { .. } => return false,
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
            let head = match queue.front() {
                // Leave the tombstone parked: retries must keep
                // observing the loss instead of blocking forever.
                Some(env) if matches!(env.data, Payload::Tombstone { .. }) => {
                    return Ok(Matched::lost(env));
                }
                _ => queue.pop_front(),
            };
            // A queue leaves the table with its last envelope: most keys
            // are parked under once (a tag per collective step), and an
            // empty queue kept for each would only grow the table for
            // the life of the rank.
            if queue.is_empty() {
                self.pending.remove(&key);
            }
            if let Some(env) = head {
                return Ok(Matched::Data(env));
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
                let lost = Matched::lost(&env);
                self.park(env);
                return Ok(lost);
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
                let key = (ctx, src, tag);
                let queue = self.pending.get_mut(&key).expect("head seen");
                let env = queue.pop_front().expect("head seen");
                // Emptied queues leave the table, as in `match_recv`.
                if queue.is_empty() {
                    self.pending.remove(&key);
                }
                env
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
        src_global: usize,
        src: Rank,
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
                        Lane::Blocking | Lane::Channel => limit.expect("deadline implies timeout"),
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
                let extra = if self.plan.active() {
                    self.plan.extra_delay(env.src, me, env.seq)
                } else {
                    0.0
                };
                let transfer = self.model.alpha + self.model.beta * words as f64;
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
                    let t0 = ready_at - transfer;
                    self.span("channel", "xfer", Track::Channel, t0, ready_at, peer_words);
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
            return Err(Error::Corrupted { rank: src, tag });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    /// Recursive doubling parks the envelopes of partners that run
    /// ahead, each under a tag used once; every one of those queues
    /// must have left the table with its envelope.
    #[test]
    fn pending_is_empty_after_a_recursive_doubling_exchange() {
        let parked = World::run(64, NetModel::free(), |comm| {
            let r = comm.rank();
            let mut x = vec![r as f64];
            for step in 0..6 {
                let peer = r ^ (1 << step);
                let got = comm.sendrecv(peer, &x, peer, 100 + step).unwrap();
                x[0] += got[0];
            }
            assert_eq!(x[0], 2016.0);
            comm.inner.borrow().pending.len()
        });
        assert_eq!(parked, vec![0; 64]);
    }

    /// A dropped message's tombstone stays parked so that every retry
    /// observes the loss; what was parked around it leaves when read.
    #[test]
    fn pending_keeps_only_the_tombstone_of_a_dropped_message() {
        let plan = FaultPlan::new(1).drop_nth(0, 1, 1);
        World::run_with_faults(2, NetModel::free(), plan, |comm| {
            if comm.rank() == 0 {
                for tag in 7..10 {
                    comm.send(1, tag, &[tag as f64]).unwrap();
                }
                return;
            }
            // Reading tag 9 first parks tag 7 and the tombstone of tag 8.
            assert_eq!(comm.recv(0, 9).unwrap(), vec![9.0]);
            assert_eq!(comm.inner.borrow().pending.len(), 2);
            assert_eq!(comm.recv(0, 7).unwrap(), vec![7.0]);
            for _ in 0..2 {
                let lost = comm.recv_timeout(0, 8, 1.0);
                assert!(matches!(lost, Err(Error::Timeout { .. })), "{lost:?}");
            }
            let i = comm.inner.borrow();
            let left: Vec<_> = i.pending.iter().collect();
            assert_eq!(left.len(), 1, "{left:?}");
            assert_eq!(*left[0].0, (0, 0, 8));
            assert!(matches!(
                left[0].1.front().map(|e| &e.data),
                Some(Payload::Tombstone { words: 1 })
            ));
            assert_eq!(left[0].1.len(), 1);
        });
    }
}
