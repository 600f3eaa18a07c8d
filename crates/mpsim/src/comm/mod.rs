//! Communicators: the MPI-like handle each rank program uses.
//!
//! A [`Communicator`] names a group of global ranks and gives the local
//! rank send/recv/collective-building primitives within that group.
//! Sub-communicators created with [`Communicator::grid`] or
//! [`Communicator::shrink_exclude`] share the owning rank's virtual
//! clock, mailbox, and traffic counters, exactly like MPI communicators
//! share a process. Both are computed from the member table alone, with
//! no message.
//!
//! Three modules, one direction of knowledge:
//!
//! * `wire` — the per-rank `Inner` state and every decision about
//!   an envelope (fault injection, matching, notices, the clock charge
//!   of a completed receive). The only module that names the
//!   transport's `Endpoint`, `Envelope` fields or `Payload` variants.
//! * this module — point-to-point and control-plane operations,
//!   `grid`, tracing, stats: coordinates and timeouts in, payloads out.
//! * `membership` — fault epochs, failure agreement, shrink,
//!   revive/readmit/park/heal, detector queries and scripted bit flips.

mod membership;
mod wire;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::health::FtConfig;
use crate::netmodel::NetModel;
use crate::stats::RankStats;
use crate::{Rank, Tag};

pub use wire::ChannelRecv;
pub(crate) use wire::Inner;
use wire::Lane;

/// Tags at or above this value are reserved for internal use (control
/// plane and library collectives). Application code should stay below.
pub const RESERVED_TAG_BASE: Tag = 1 << 48;

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
    /// was posted on a [guarded](Communicator::guarded) handle.
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
/// rank's clock and mailbox.
#[derive(Clone)]
pub struct Communicator {
    pub(crate) inner: Rc<RefCell<Inner>>,
    /// Context id separating this communicator's traffic.
    ctx: u64,
    /// Global ranks of the members, in rank order.
    members: Arc<Vec<usize>>,
    /// The local rank within `members`.
    rank: Rank,
    /// The fault policy of a [guarded](Communicator::guarded) handle,
    /// inline (`FtConfig` is `Copy`: no allocation per handle).
    ft: Option<FtConfig>,
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
    /// The world communicator of `inner`'s rank over `members`, the
    /// identity table `0..size` that `World::run_opts` builds once and
    /// every rank of the world shares: a table per rank is P² words per
    /// world (128 MiB at P = 4096, 32 GiB at P = 65 536). `grid` and
    /// `shrink_exclude` children keep a table per group, except a group
    /// equal to its parent, which shares the parent's.
    pub(crate) fn world(inner: Rc<RefCell<Inner>>, members: Arc<Vec<usize>>) -> Self {
        let rank = inner.borrow().global_rank;
        debug_assert_eq!(members.len(), inner.borrow().world_size);
        Communicator {
            inner,
            ctx: 0,
            members,
            rank,
            ft: None,
        }
    }

    /// A handle on the same group and context whose **data-plane
    /// receives obey `cfg`**. The fault policy is a property of the
    /// communicator, as an error handler is of an MPI communicator, so
    /// every collective and point-to-point pattern runs defended on it,
    /// unchanged:
    ///
    /// * `recv` resolves the peer's deadline (`cfg.deadline`: fixed, or
    ///   learned per peer by the adaptive detector) and makes
    ///   `cfg.attempts` windows of it, separated by `backoff ·
    ///   backoff_factor^(i−1)` pauses each stretched by up to `jitter` (a
    ///   deterministic draw keyed on the plan seed, the link and the
    ///   retry count, so contending retriers desynchronize yet replays
    ///   are bit-identical). Only [`Error::Timeout`] is retried. With
    ///   `cfg.speculative`, an exhausted schedule earns one re-request
    ///   with a 4× window if the detector ranks the peer *suspect but
    ///   not presumed dead*. The plan's default timeout is not consulted.
    /// * `irecv` stamps the handle with the deadline `now + resolved`;
    ///   `wait` returns [`Error::Timeout`] at it for a later arrival.
    /// * `recv_channel` runs `recv`'s schedule, each window counted from
    ///   the channel's horizon `max(now, comm_busy)`.
    ///
    /// A receive that still fails — timeout, [`Error::Corrupted`], peer
    /// death, partition, or a peer's abort — **broadcasts one group
    /// abort** blaming the culprit ([`Communicator::send_abort`]) before
    /// returning the error, so a member blocked on this rank unblocks
    /// with [`Error::Aborted`] and cascades in turn: nobody hangs on a
    /// failed collective. This rank's own death aborts nothing (its
    /// death notice announces it).
    ///
    /// `grid` and `shrink_exclude` children inherit the policy. The
    /// control plane — `recv_control`, `fault_sync`, `barrier`,
    /// `await_control_any` — never reads it.
    pub fn guarded(&self, cfg: &FtConfig) -> Communicator {
        Communicator {
            ft: Some(*cfg),
            ..self.clone()
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
    /// On a [guarded](Communicator::guarded) handle the receive obeys
    /// the handle's policy. Otherwise, when a fault plan with a default
    /// timeout is active, it behaves like
    /// [`Communicator::recv_timeout`] with that timeout; without one it
    /// waits indefinitely for late messages, but still returns
    /// [`Error::Timeout`] (with `waited = ∞`) for a message the plan
    /// provably dropped, and [`Error::RankFailed`] /
    /// [`Error::Aborted`] when the peer died or abandoned the phase.
    pub fn recv(&self, src: Rank, tag: Tag) -> Result<Vec<f64>> {
        match &self.ft {
            Some(cfg) => self.on_schedule(src, cfg, |t| self.recv_timeout(src, tag, t)),
            None => self.recv_unguarded(src, tag),
        }
    }

    /// [`Communicator::recv`] as an unguarded handle performs it — also
    /// what [`Communicator::barrier`] uses on either kind.
    fn recv_unguarded(&self, src: Rank, tag: Tag) -> Result<Vec<f64>> {
        let timeout = self.inner.borrow().plan.default_timeout();
        self.recv_deadline(src, tag, timeout)
    }

    /// A guarded receive's schedule around `f`, one receive window of the
    /// length it is given: the retries, the speculative re-request, then
    /// the group abort for whatever fault is left (see
    /// [`Communicator::guarded`]). Blocking and channel receives run this
    /// one schedule.
    fn on_schedule<T>(&self, src: Rank, cfg: &FtConfig, f: impl Fn(f64) -> Result<T>) -> Result<T> {
        assert!(cfg.attempts > 0, "need at least one attempt");
        let src_global = self.global_rank_of(src)?;
        let timeout = cfg
            .deadline
            .resolve(&self.inner.borrow().health, src_global);
        let mut pause = cfg.backoff;
        let mut got = f(timeout);
        for retry in 1..cfg.attempts {
            if !matches!(got, Err(Error::Timeout { .. })) {
                break;
            }
            self.inner
                .borrow_mut()
                .back_off(src_global, pause, cfg.jitter, retry);
            pause *= cfg.backoff_factor;
            got = f(timeout);
        }
        // Straggler mitigation: the schedule is exhausted but the
        // detector says the peer is merely slow, not presumed dead —
        // grant one speculative re-request with an extended window.
        if cfg.speculative
            && matches!(got, Err(Error::Timeout { .. }))
            && self.inner.borrow_mut().suspect_not_dead(src_global)
        {
            self.inner.borrow_mut().stats.speculative_retries += 1;
            got = f(timeout * 4.0);
        }
        self.abort_on_fault(got)
    }

    /// Blocking receive that gives up after `timeout` virtual seconds.
    ///
    /// If no matching message can complete by `now + timeout`, the clock
    /// is charged the full wait (as communication time) and
    /// [`Error::Timeout`] is returned. A late — not dropped — message
    /// stays buffered, so a retry that waits long enough still gets it:
    /// the guarded [`Communicator::recv`] is a schedule of these.
    /// Reads no policy, on either kind of handle.
    pub fn recv_timeout(&self, src: Rank, tag: Tag, timeout: f64) -> Result<Vec<f64>> {
        assert!(timeout > 0.0, "timeout must be positive");
        self.recv_deadline(src, tag, Some(timeout))
    }

    fn recv_deadline(&self, src: Rank, tag: Tag, timeout: Option<f64>) -> Result<Vec<f64>> {
        let src_global = self.global_rank_of(src)?;
        let mut i = self.inner.borrow_mut();
        let got = i.complete(self.ctx, src_global, src, tag, timeout, Lane::Blocking)?;
        Ok(got.data)
    }

    /// Posts a non-blocking receive. The matching message is considered
    /// to arrive at `depart + α + β·words` *independently of what this
    /// rank does meanwhile* — i.e. a perfectly overlapped transfer, the
    /// assumption the paper makes for halo exchanges (Fig. 3) and for
    /// Fig. 8's overlap study. Complete with [`Communicator::wait`]. On
    /// a [guarded](Communicator::guarded) handle the arrival must happen
    /// within the peer's resolved deadline of posting.
    pub fn irecv(&self, src: Rank, tag: Tag) -> Result<RecvHandle> {
        let src_global = self.global_rank_of(src)?;
        let deadline = self.ft.as_ref().map(|cfg| {
            let i = self.inner.borrow();
            i.clock.now + cfg.deadline.resolve(&i.health, src_global)
        });
        Ok(RecvHandle {
            ctx: self.ctx,
            src_global,
            src,
            tag,
            deadline,
        })
    }

    /// Completes a non-blocking receive, clamping the clock forward to
    /// the arrival time if the data is not yet there. Honors the
    /// handle's deadline and surfaces drops, peer death, and aborts like
    /// [`Communicator::recv`] — with the group abort on a guarded
    /// handle.
    pub fn wait(&self, handle: RecvHandle) -> Result<Vec<f64>> {
        let RecvHandle {
            ctx,
            src_global,
            src,
            tag,
            deadline,
        } = handle;
        let mut i = self.inner.borrow_mut();
        let got = i.complete(ctx, src_global, src, tag, deadline, Lane::Overlapped);
        drop(i);
        self.abort_on_fault(got.map(|got| got.data))
    }

    /// Progresses a non-blocking operation by one receive, charging the
    /// α–β transfer to the **concurrent comm channel** instead of the
    /// main timeline (see [`Clock::channel_transfer`]): the transfer
    /// starts when the data has departed the sender and this rank's
    /// channel is free, and the main clock does not move. Returns the
    /// payload, the absolute time the channel finished (the departure
    /// time for a forwarded chunk), and the seconds charged.
    ///
    /// The call may suspend the rank until the message is in the
    /// mailbox, but the matching is deterministic, so virtual time
    /// never depends on real-time interleaving.
    ///
    /// On a [guarded](Communicator::guarded) handle the transfer must
    /// finish within a window of the peer's resolved deadline from the
    /// channel's current horizon (`max(now, comm_busy)`), on the retry
    /// schedule of a guarded [`Communicator::recv`]: an expired window
    /// charges the main clock the wait, and any fault left aborts the
    /// group. Drops, peer death, and aborts surface like
    /// [`Communicator::recv`] on either kind.
    pub fn recv_channel(&self, src: Rank, tag: Tag) -> Result<ChannelRecv> {
        let src_global = self.global_rank_of(src)?;
        let attempt = |limit| {
            let mut i = self.inner.borrow_mut();
            i.complete(self.ctx, src_global, src, tag, limit, Lane::Channel)
        };
        match &self.ft {
            Some(cfg) => self.on_schedule(src, cfg, |window| attempt(Some(window))),
            None => self.abort_on_fault(attempt(None)),
        }
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
    /// operations in the same order (SPMD).
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
            let _ = self.recv_unguarded(src, BARRIER_TAG)?;
            k <<= 1;
        }
        // Dissemination leaves clocks equal when they started equal; to
        // make the invariant unconditional, synchronize explicitly
        // (free: clocks only move forward to the max).
        self.sync_clocks()
    }

    /// Synchronizes virtual clocks across the communicator to their
    /// maximum without charging any message cost. Control-plane helper
    /// for delimiting timed experiment phases: ⌈log₂ P⌉ dissemination
    /// rounds, in round `k` each rank passing the largest clock it has
    /// seen to the rank `2^k` ahead, so after the last round every rank
    /// has seen all `P` (P·⌈log₂ P⌉ control envelopes in all).
    pub fn sync_clocks(&self) -> Result<()> {
        let p = self.size();
        let mut max = self.now();
        let mut d = 1;
        while d < p {
            self.send_control((self.rank + d) % p, SYNC_TAG, max.to_le_bytes().to_vec())?;
            let bytes = self.recv_control((self.rank + p - d) % p, SYNC_TAG)?;
            let seen = f64::from_le_bytes(bytes[..8].try_into().expect("8-byte clock"));
            max = max.max(seen);
            d <<= 1;
        }
        self.sync_to(max);
        Ok(())
    }

    /// Moves this rank's clock forward to `t`, charged as communication
    /// (a `comm/sync` span); a clock already there stays put.
    pub fn sync_to(&self, t: f64) {
        let mut i = self.inner.borrow_mut();
        let t0 = i.clock.now;
        i.clock.sync_to(t);
        if i.clock.now > t0 {
            i.span_to_now("comm", "sync", t0, || []);
        }
    }

    /// The communicator over `members` (global ranks, in rank order)
    /// sharing this one's per-rank state and fault policy; `None` when
    /// this rank is not among them. Its context hashes this one's, the
    /// member list and `epoch` (a shrink's recovery epoch), so every
    /// member derives the same id alone; two grids' equal groups are one
    /// context, ordered by SPMD program order like any two collectives
    /// on one communicator. A group equal to this one shares its table.
    fn child<I>(&self, members: I, epoch: Option<u64>) -> Option<Communicator>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let rank = members.clone().position(|g| g == self.members[self.rank])?;
        let head = [self.ctx, members.clone().count() as u64];
        let ids = members.clone().map(|g| g as u64);
        let ctx = derive_ctx(head.into_iter().chain(ids).chain(epoch));
        let members = if members.clone().eq(self.members.iter().copied()) {
            Arc::clone(&self.members)
        } else {
            Arc::new(members.collect())
        };
        Some(Communicator {
            inner: Rc::clone(&self.inner),
            ctx,
            members,
            rank,
            ft: self.ft,
        })
    }

    /// Views the communicator as the paper's row-major `pr × pc` grid
    /// (Fig. 5) and returns `(row_comm, col_comm)` for this rank `i·pc + j`:
    ///
    /// * `row_comm` = members `i·pc .. (i+1)·pc`, size `pc` — the ranks
    ///   holding the *same model shard* across batch shards, i.e. the
    ///   "Pc-sized groups" used for the ∆W all-reduce.
    /// * `col_comm` = members `k·pc + j` for `k < pr`, size `pr` — the
    ///   ranks holding the *same batch shard* across model shards, i.e.
    ///   the "Pr-sized groups" used for the forward all-gather and the ∆X
    ///   all-reduce.
    ///
    /// Computed from the member table: no message, no virtual time.
    /// Requires `pr * pc == self.size()`.
    pub fn grid(&self, pr: usize, pc: usize) -> Result<(Communicator, Communicator)> {
        if pr.checked_mul(pc) != Some(self.size()) {
            return Err(Error::CollectiveMismatch(format!(
                "grid {pr}x{pc} does not tile a communicator of size {}",
                self.size()
            )));
        }
        let (i, j) = (self.rank / pc, self.rank % pc);
        let row = self.members[i * pc..(i + 1) * pc].iter().copied();
        let col = (0..pr).map(|k| self.members[k * pc + j]);
        let member = "a rank belongs to its own row and column";
        Ok((
            self.child(row, None).expect(member),
            self.child(col, None).expect(member),
        ))
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
    fn grid_forms_expected_groups() {
        let model = NetModel::free();
        let out = World::run(6, model, |comm| {
            let (row, col) = comm.grid(2, 3).unwrap();
            let groups = (row.members().to_vec(), col.members().to_vec());
            (groups, (row.rank(), col.rank()))
        });
        let (rows, cols) = ([[0, 1, 2], [3, 4, 5]], [[0, 3], [1, 4], [2, 5]]);
        for (g, ((row, col), ranks)) in out.iter().enumerate() {
            assert_eq!((&row[..], &col[..]), (&rows[g / 3][..], &cols[g % 3][..]));
            assert_eq!(*ranks, (g % 3, g / 3), "row rank = column index, and back");
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

    /// A barrier is ⌈log₂ P⌉ rounds on both planes: one data envelope
    /// and one clock-sync control envelope per rank and round.
    #[test]
    fn barrier_sends_log_p_control_envelopes_per_rank() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        for p in [1, 2, 3, 5, 8, 13, 64] {
            let (out, stats) = World::run_with_stats(p, model, |comm| {
                comm.advance_compute((comm.rank() * 7 % p) as f64);
                comm.barrier().unwrap();
                comm.now()
            });
            let rounds = p.next_power_of_two().trailing_zeros() as u64;
            for s in &stats.ranks {
                assert_eq!((s.msgs_sent, s.ctrl_msgs_sent), (rounds, rounds), "P = {p}");
            }
            assert!(out.iter().all(|&t| t == out[0]), "P = {p}: {out:?}");
            assert!(out[0] >= (p - 1) as f64, "P = {p}: the slowest rank");
        }
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
                let cfg = FtConfig::fixed(6.0).with_attempts(3).with_backoff(0.5);
                let v = comm.guarded(&cfg).recv(0, 3).unwrap();
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

    /// Three 1 s windows, pauses of 1 s doubling, stretched by `jitter`.
    fn exponential(jitter: f64) -> FtConfig {
        FtConfig {
            backoff_factor: 2.0,
            jitter,
            ..FtConfig::fixed(1.0).with_attempts(3).with_backoff(1.0)
        }
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
                let e = comm.guarded(&exponential(0.0)).recv(0, 3).unwrap_err();
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
                    let _ = comm.guarded(&exponential(0.5)).recv(0, 3);
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
    /// from the call on every lane, as the single-attempt policy of a
    /// guarded handle.
    fn lane_recv(comm: &Communicator, via: Via, timeout: Option<f64>) -> Result<Vec<f64>> {
        let comm = match timeout {
            Some(t) => comm.guarded(&FtConfig::fixed(t)),
            None => comm.clone(),
        };
        match via {
            Via::Recv => comm.recv(0, 7),
            Via::Wait => comm.wait(comm.irecv(0, 7)?),
            Via::Channel => comm.recv_channel(0, 7).map(|r| r.data),
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
            let rejected = Err(Error::Corrupted { rank: 0, tag: 7 });
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
                        let comm = comm.guarded(&FtConfig::fixed(1.0));
                        let h = comm.irecv(0, 3).unwrap();
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

    /// `grid` (a whole-world row and a half-world one) and
    /// `shrink_exclude` hand the policy on; the world handle never had
    /// one. Rank 1's first four messages to rank 0 are dropped, one per
    /// communicator.
    #[test]
    fn children_inherit_the_policy_and_the_world_has_none() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let plan = (0..4).fold(crate::FaultPlan::new(1), |p, n| p.drop_nth(1, 0, n));
        let (out, stats) = World::run_with_faults(4, model, plan, |comm| {
            let guarded = comm.guarded(&FtConfig::fixed(2.0));
            let (whole, _) = guarded.grid(1, 4).unwrap();
            let (row, _col) = guarded.grid(2, 2).unwrap();
            let shrunk = guarded.shrink_exclude(&[3], 1);
            let mut seen = Vec::new();
            if comm.rank() < 2 {
                for c in [&whole, &row, &shrunk.unwrap(), comm] {
                    if c.rank() == 1 {
                        c.send(0, 5, &[1.0]).unwrap();
                    } else {
                        seen.push((c.recv(1, 5).unwrap_err(), comm.now()));
                    }
                }
            }
            seen
        });
        let timeout = |waited| Error::Timeout {
            rank: 1,
            tag: 5,
            waited,
        };
        // Each child waits out its 2 s deadline and aborts; the world
        // handle reports the provable loss without moving the clock.
        let want = vec![
            (timeout(2.0), 2.0),
            (timeout(2.0), 4.0),
            (timeout(2.0), 6.0),
            (timeout(f64::INFINITY), 6.0),
        ];
        assert_eq!(out[0], want);
        assert_eq!(stats.ranks[0].aborts_sent, 3);
        assert_eq!(stats.ranks[0].timeouts, 4);
    }

    /// The control plane never reads the policy: under a deadline far
    /// shorter than the ranks' skew, `barrier` and `fault_sync` on a
    /// guarded handle do exactly what they do on a plain one.
    #[test]
    fn barrier_and_fault_sync_ignore_the_policy() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let run = |guard: bool| {
            World::run_with_faults(4, model, crate::FaultPlan::new(0), |comm| {
                let comm = if guard {
                    comm.guarded(&FtConfig::fixed(1e-3))
                } else {
                    comm.clone()
                };
                comm.advance_compute(comm.rank() as f64);
                comm.barrier().unwrap();
                let round = comm.fault_sync(vec![comm.rank() as u8]).unwrap();
                (round, comm.clock())
            })
        };
        let (plain, guarded) = (run(false), run(true));
        assert_eq!(plain.0, guarded.0);
        assert_eq!(plain.1, guarded.1, "RankStats and clocks");
        assert!(plain.0[0].1.now >= 3.0 + 2.0, "the barrier did run");
    }

    #[test]
    fn speculative_rerequest_rescues_a_suspect_straggler() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        // Message #9 on the 0→1 link arrives ~6 s late — past the
        // learned deadline (~mean + 4σ of the warm-up waits) but well
        // inside the speculative window.
        let plan = crate::FaultPlan::new(17).straggle(0, 1, 6.0, 0.0, crate::Span::Once(9));
        let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
            if comm.rank() == 0 {
                // Warm-up traffic with varied pacing so the detector
                // learns a gap/wait distribution with real spread.
                for k in 0..9u64 {
                    comm.advance_compute(1.0 + (k % 3) as f64);
                    comm.send(1, 7, &[k as f64]).unwrap();
                }
                comm.advance_compute(1.0);
                comm.send(1, 7, &[9.0]).unwrap();
                Ok(vec![])
            } else {
                for _ in 0..9 {
                    comm.recv(0, 7).unwrap();
                }
                let learned = comm.inner.borrow().health.deadline(0);
                let learned = learned.expect("detector is warm");
                assert!(
                    (4.0..8.0).contains(&learned),
                    "learned deadline should be a few seconds, got {learned}"
                );
                let cfg = FtConfig::adaptive(&model, 1).with_attempts(1);
                comm.guarded(&cfg).recv(0, 7)
            }
        });
        assert_eq!(
            out[1].as_deref(),
            Ok(&[9.0][..]),
            "the straggler was recovered speculatively"
        );
        assert_eq!(stats.ranks[1].timeouts, 1, "the learned deadline tripped");
        assert_eq!(stats.ranks[1].speculative_retries, 1);
        assert_eq!(stats.ranks[1].suspects_flagged, 1);
        assert_eq!(stats.ranks[1].aborts_sent, 0, "rescued: nothing surfaced");
        assert!(stats.ranks[1].straggler_wait > 0.0);
    }
}
