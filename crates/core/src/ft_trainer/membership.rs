//! The elastic-membership protocol: who is in the run, whether this
//! rank's side of a cut may keep training, and which recovery epoch and
//! rollback target everyone enters together. It deals in global ranks,
//! epochs, iteration numbers and bytes — what is checkpointed, trained
//! or redistributed is `super::state`'s business — and every step is
//! written once, in [`Membership::agree`]:
//!
//! | round | sends | decides | unconditional because |
//! |---|---|---|---|
//! | *(sweep)* | nothing | drops unreachability records whose peer `heal_ready` shows healed and alive (excluded ranks exempt) | the records are a receive-side cache that admission can seed stale, and a stale one blanks its peer's presence slot forever |
//! | presence | [`RoundMsg`]: iterations committed, last checkpoint, *aborted*, *has state*, excluded ranks now ready to return | the dead, whether anyone saw a fault, the rollback target (minimum checkpoint over ranks with state), the admission set (union of the `ready` votes) | it is the failure detector: a death or a cut is only observable by asking |
//! | echo | the ranks heard in the presence round | the bidirectional fragment: a peer counts only if its message arrived *and* its echo names this rank, so a one-way cut reads the same on both sides | conditioning it on the presence verdict would desynchronize the SPMD round counters under asymmetric cuts |
//! | verdict | the fragment just computed | consistency: commit only if every member of the fragment computed exactly this fragment; otherwise nudge the clock and [`Step::Retry`] | a cut that activates mid-round makes reachability non-transitive, and only comparing fragments shows it |
//! | *(local)* | nothing | stale unreachability records of fragment members are dropped; quorum of the fragment against the last committed view, the minority [`Step::Parked`] | local decisions on common knowledge |
//! | welcome | [`Welcome`] to each admitted rank, after [`enter_epoch`] | the epoch, round counter, target and view a rejoiner starts from | sent iff the admission set is non-empty, which every member knows |
//!
//! Every round rides the control plane (free in virtual time); DESIGN.md
//! §12 has the reasons at length.

use mpsim::{Communicator, Error};

use super::wire::{decode_list, encode_list, RoundMsg, View, Welcome};

/// Control tag carrying welcome messages to re-admitted ranks, far
/// above the fault-sync tag range.
const WELCOME_TAG: u64 = (1 << 48) + (1 << 20);

/// What [`Membership::agree`] tells the caller to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Step {
    /// Nobody is missing, nobody aborted, nobody returns: train.
    Train,
    /// A recovery epoch is open: roll back to `target` and rebuild.
    Recover { epoch: u64, target: usize },
    /// The round was inconclusive (the clock was nudged): agree again.
    Retry,
    /// This rank's fragment lost quorum and has gone silent; the clock
    /// is at the heal horizon when there is one.
    Parked,
}

/// One rank's protocol state across the agreement rounds of one life.
pub(super) struct Membership {
    /// The part that is common knowledge among the members — exactly
    /// what a welcome carries, so welcoming a rank is sending it this.
    /// `losses.len()` is the iteration this rank reports and a commit
    /// truncates it to the rollback target; `target` is the rollback
    /// target of the recovery epoch in flight.
    pub known: Welcome,
    /// This rank saw a fault (or an inconclusive round, or a recovery
    /// that did not commit) since the last commit.
    pub aborted: bool,
    /// A rejoiner enters mid-epoch: the survivors already ran the
    /// agreement that admitted it, so its first `agree` goes straight to
    /// the recovery.
    in_recovery_epoch: bool,
    /// Virtual seconds an inconclusive round moves the clock by.
    nudge: f64,
}

/// Sets the counters every member of a recovery epoch must share: the
/// epoch itself (staling older aborts; the epoch's communicators hash it
/// into their contexts) and the agreement-round counter.
fn enter_epoch(comm: &Communicator, epoch: u64, seq: u64) {
    comm.set_fault_epoch(epoch);
    comm.align_fault_sync_seq(seq);
}

/// Drops this rank's unreachability records of the peers `stale` picks.
fn forget_unreachable(comm: &Communicator, stale: impl Fn(usize) -> bool) {
    let ranks: Vec<usize> = comm
        .known_unreachable()
        .into_iter()
        .map(|(r, _)| r)
        .filter(|&r| stale(r))
        .collect();
    if !ranks.is_empty() {
        comm.readmit(&ranks);
    }
}

/// Blocks a revived or parked rank until a welcome for a *new* epoch
/// arrives (welcomes from admissions in a previous life of this rank
/// carry an epoch it has already seen, and bytes that are no welcome at
/// all, are skipped).
fn wait_welcome(comm: &Communicator) -> Result<Welcome, Error> {
    loop {
        let bytes = comm.await_control_any(WELCOME_TAG)?;
        if let Some(w) = Welcome::decode(&bytes).filter(|w| w.epoch > comm.fault_epoch()) {
            return Ok(w);
        }
    }
}

/// Every life of one rank: `life(None)` from scratch, then `life` from
/// the survivors' welcome each time the plan returns the rank to the run
/// after a life ended in its own death or lost quorum. A scripted death
/// with a scripted rejoin revives at the rejoin time. A parked rank
/// ([`Membership::agree`] already fast-forwarded it to the heal horizon)
/// returns if the cut heals — it re-enters stateless: the park kept its
/// checkpoints, but the majority may have re-planned the grid
/// arbitrarily in between — while a cut that never heals leaves it
/// permanently outside, and its error stands.
pub(super) fn lives<T>(
    comm: &Communicator,
    mut life: impl FnMut(Option<Welcome>) -> Result<T, Error>,
) -> Result<T, Error> {
    let me = comm.global_rank_of(comm.rank())?;
    let mut welcome = None;
    loop {
        match life(welcome) {
            Err(Error::RankFailed { rank }) if rank == me && comm.revive().is_some() => {}
            Err(Error::Unreachable { rank })
                if rank == me && !comm.heal_horizon().is_some_and(f64::is_infinite) => {}
            other => return other,
        }
        welcome = Some(wait_welcome(comm)?);
    }
}

/// The presence round, tallied.
struct Presence {
    /// Members whose slot came back empty.
    dead: Vec<usize>,
    /// Members whose message arrived.
    heard: Vec<usize>,
    any_abort: bool,
    /// Minimum last checkpoint over the ranks that hold state.
    min_ckpt: usize,
    /// Union of the `ready` votes, ascending.
    admit: Vec<usize>,
}

impl Membership {
    /// The membership of a run that starts on `view` with no faults seen.
    pub fn fresh(view: View, nudge: f64) -> Membership {
        let known = Welcome {
            view,
            ..Welcome::default()
        };
        Membership {
            known,
            aborted: false,
            in_recovery_epoch: false,
            nudge,
        }
    }

    /// Re-enters a run from the survivors' welcome: syncs the protocol
    /// counters to the epoch they just entered, clears stale death
    /// records (everyone not excluded is live), then behaves like any
    /// live-but-stateless participant.
    pub fn rejoin(comm: &Communicator, known: Welcome, nudge: f64) -> Membership {
        enter_epoch(comm, known.epoch, known.seq);
        let live: Vec<usize> = (0..comm.size())
            .filter(|r| !known.excluded.contains(r))
            .collect();
        comm.readmit(&live);
        Membership {
            known,
            aborted: true,
            in_recovery_epoch: true,
            nudge,
        }
    }

    /// One agreement step (the module's table): `last_ckpt` and
    /// `has_state` are what this rank reports about the state it holds.
    pub fn agree(
        &mut self,
        comm: &Communicator,
        last_ckpt: usize,
        has_state: bool,
    ) -> Result<Step, Error> {
        // Sweep. Unreachability records are a receive-side cache, and the
        // round-union admission can seed them stale: a rank whose clock
        // is still behind the heal is pulled into the recovery epoch, its
        // in-flight sends arrive severed, and the record then blanks its
        // presence slot — no round readmits it and the retries livelock
        // at the heal horizon. The plan is the ground truth: a record of
        // a peer that `heal_ready` shows healed and alive is stale.
        // Excluded ranks are exempt: their re-admission needs the record
        // intact for `heal_ready` to nominate them in the `ready` vote.
        let excluded = &self.known.excluded;
        forget_unreachable(comm, |r| comm.heal_ready(r) && !excluded.contains(&r));
        if std::mem::take(&mut self.in_recovery_epoch) {
            return Ok(self.recover_step());
        }

        let seen = self.presence(comm, last_ckpt, has_state)?;
        let Some(fragment) = fragment(comm, &seen.heard)? else {
            // Inconclusive: nudge the clock past the activation edge.
            // The control plane is free in virtual time, so an un-nudged
            // retry would replay the same instant and verdict forever.
            comm.advance_compute(self.nudge);
            self.aborted = true;
            return Ok(Step::Retry);
        };

        // Traffic flows both ways with every peer of the fragment, so a
        // record this rank still holds for one is stale (typically a
        // severed tombstone from a sender whose clock trailed the heal)
        // and would insta-fail every receive from it. Clearing is local:
        // the record, like the echo verdict, is per-rank state.
        forget_unreachable(comm, |r| fragment.contains(&r));

        // Quorum (split-brain safety): only a majority of the last
        // committed membership — ties to the side of its lowest member —
        // keeps training. A minority parks: it keeps its checkpoints,
        // updates nothing, goes silent behind a Parked marker and waits
        // at the heal horizon (when finite) for the majority's welcome.
        let members = &self.known.view.members;
        let won = mpsim::has_quorum(&fragment, members);
        if fragment.len() < members.len() || !won {
            comm.trace_instant(
                "quorum",
                "verdict",
                &[
                    ("fragment", fragment.len() as f64),
                    ("members", members.len() as f64),
                    ("won", won as u8 as f64),
                ],
            );
        }
        if !won {
            comm.park()?;
            return Ok(Step::Parked);
        }

        let newly_dead = seen.dead.iter().any(|g| !self.known.excluded.contains(g));
        if !(newly_dead || seen.any_abort || !seen.admit.is_empty()) {
            return Ok(Step::Train);
        }
        self.open_epoch(comm, seen)
    }

    fn recover_step(&self) -> Step {
        Step::Recover {
            epoch: self.known.epoch,
            target: self.known.target,
        }
    }

    /// Presence round: re-admission is plan-driven for both exits, a
    /// scripted rejoin after a kill or a healed partition cut.
    fn presence(
        &self,
        comm: &Communicator,
        last_ckpt: usize,
        has_state: bool,
    ) -> Result<Presence, Error> {
        let msg = RoundMsg {
            iter: self.known.losses.len(),
            last_ckpt,
            aborted: self.aborted,
            has_state,
            ready: (self.known.excluded.iter().copied())
                .filter(|&g| comm.rejoin_ready(g) || comm.heal_ready(g))
                .collect(),
        };
        let round = comm.fault_sync(msg.encode())?;
        let mut seen = Presence {
            dead: Vec::new(),
            heard: Vec::new(),
            any_abort: false,
            min_ckpt: usize::MAX,
            admit: Vec::new(),
        };
        for (&g, slot) in comm.members().iter().zip(&round) {
            let Some(bytes) = slot else {
                seen.dead.push(g);
                continue;
            };
            seen.heard.push(g);
            // Bytes that are no round read as an abort signal: the extra
            // recovery round re-aligns the counters.
            let Some(m) = RoundMsg::decode(bytes) else {
                seen.any_abort = true;
                continue;
            };
            seen.any_abort |= m.aborted;
            if m.has_state {
                seen.min_ckpt = seen.min_ckpt.min(m.last_ckpt);
            }
            seen.admit.extend(m.ready);
        }
        seen.admit.sort_unstable();
        seen.admit.dedup();
        Ok(seen)
    }

    /// Opens the next recovery epoch over what the presence round saw
    /// and welcomes the admitted ranks into it.
    fn open_epoch(&mut self, comm: &Communicator, seen: Presence) -> Result<Step, Error> {
        let known = &mut self.known;
        known.excluded = seen.dead;
        known.excluded.retain(|g| !seen.admit.contains(g));
        (known.epoch, known.seq) = (comm.fault_epoch() + 1, comm.fault_sync_seq());
        enter_epoch(comm, known.epoch, known.seq);
        known.target = seen.min_ckpt;
        if !seen.admit.is_empty() {
            comm.readmit(&seen.admit);
            known.stateless.extend(&seen.admit);
            known.stateless.sort_unstable();
            known.stateless.dedup();
            // All fields are common knowledge, so every sender's bytes
            // are identical and the real-time race over which copy a
            // rejoiner consumes is harmless.
            let bytes = known.encode();
            for &g in &seen.admit {
                comm.send_control(g, WELCOME_TAG, bytes.clone())?;
            }
        }
        Ok(self.recover_step())
    }

    /// Confirmation of a recovery attempt: `true` iff every participant
    /// reports `ok` and nobody outside `excluded` went missing meanwhile.
    /// Anything else leaves this rank `aborted`, so the next `agree` opens
    /// another epoch. A vote is severed on its sender's clock, so a rank
    /// still short of a heal can hear every vote while the healed ranks
    /// miss its own; each rank therefore echoes its verdict, and no clock
    /// moves between the two rounds, so the severing repeats: whoever
    /// commits heard every echo, and every echo was true. Each ballot
    /// carries its sender's clock, and a commit moves every clock to the
    /// latest: the recovery ends when its last participant votes, and a
    /// rank left behind would read the fault plan at a time the others
    /// have passed (a cut that has begun for them, not yet for it).
    pub fn confirm(&mut self, comm: &Communicator, ok: bool) -> Result<bool, Error> {
        // The latest clock of a round in which every member not excluded
        // voted yes.
        let tally = |slots: Vec<Option<Vec<u8>>>| {
            let vote = |(g, slot): (&usize, &Option<Vec<u8>>)| match slot.as_deref() {
                Some([1, clock @ ..]) => Some(f64::from_le_bytes(clock.try_into().ok()?)),
                Some(_) => None,
                None => self.known.excluded.contains(g).then_some(0.0),
            };
            let mut votes = comm.members().iter().zip(&slots).map(vote);
            votes.try_fold(0.0, |t: f64, v| Some(t.max(v?)))
        };
        let ballot = |yes: bool| [&[yes as u8][..], &comm.now().to_le_bytes()].concat();
        let verdict = tally(comm.fault_sync(ballot(ok))?);
        let commit = verdict.and(tally(comm.fault_sync(ballot(verdict.is_some()))?));
        commit.inspect(|&t| comm.sync_to(t));
        self.aborted = commit.is_none();
        Ok(commit.is_some())
    }

    /// Commits a confirmed recovery that rolled back to iteration `iter`
    /// on `view`; returns the ranks it gave state to.
    pub fn commit(&mut self, view: View, iter: usize) -> Vec<usize> {
        self.known.view = view;
        self.known.losses.truncate(iter);
        std::mem::take(&mut self.known.stateless)
    }
}

/// Echo and verdict rounds: the bidirectional fragment this rank
/// belongs to, or `None` when its members disagree about it.
fn fragment(comm: &Communicator, heard: &[usize]) -> Result<Option<Vec<usize>>, Error> {
    let me = comm.global_rank_of(comm.rank())?;
    // Every live rank echoes who it heard in the presence round. A peer
    // belongs to this rank's fragment only if traffic flows *both*
    // ways: its message arrived here, and its echo proves this rank's
    // message arrived there.
    let echo = comm.fault_sync(encode_list(heard))?;
    let names_me = |slot: &Option<Vec<u8>>| {
        slot.as_deref()
            .is_some_and(|b| decode_list(b).contains(&me))
    };
    let fragment: Vec<usize> = (comm.members().iter().zip(&echo))
        .filter(|&(&g, slot)| g == me || (heard.contains(&g) && names_me(slot)))
        .map(|(&g, _)| g)
        .collect();

    // The echo settles each *pair*, but severing is evaluated on the
    // sender's clock: a message that departed just before a cut
    // activated crosses a link that severs everyone else's, reachability
    // stops being transitive, and ranks would commit to overlapping but
    // different fragments — then deadlock in the redistribution. So every
    // rank echoes its fragment and commits only if every member of it
    // computed exactly the same one.
    let verdict = comm.fault_sync(encode_list(&fragment))?;
    let consistent = (comm.members().iter().zip(&verdict))
        .filter(|&(g, _)| *g != me && fragment.contains(g))
        .all(|(_, slot)| slot.as_deref().is_some_and(|b| decode_list(b) == fragment));
    Ok(consistent.then_some(fragment))
}

#[cfg(test)]
mod tests {
    //! The protocol with nothing to protect: a world whose "training" is
    //! a tick of compute per iteration and whose recovery redistributes
    //! nothing, so what is observed is the agreement alone.

    use super::*;
    use mpsim::{FaultPlan, NetModel, RunOpts, World, WorldStats};

    const TICK: f64 = 1e-3;
    const ITERS: usize = 12;

    /// What the lives of one rank saw.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Log {
        retries: usize,
        /// `(epoch, excluded, view committed)` of every committed recovery.
        commits: Vec<(u64, Vec<usize>, Vec<usize>)>,
        /// Per return to the run: the welcome's `(epoch, seq)` and this
        /// rank's own `(fault epoch, round counter)` once it has entered.
        returns: Vec<[(u64, u64); 2]>,
        /// `(iterations committed, fault epoch, round counter)` at exit.
        end: (usize, u64, u64),
    }

    /// One life of a rank that trains nothing. `skew` stretches this
    /// rank's tick, so clocks drift apart as they do under real work.
    fn life(
        comm: &Communicator,
        welcome: Option<Welcome>,
        skew: f64,
        log: &mut Log,
    ) -> Result<(), Error> {
        let me = comm.global_rank_of(comm.rank())?;
        let everyone = View {
            pr: 1,
            pc: comm.size(),
            members: comm.members().to_vec(),
        };
        let mut m = match welcome {
            None => Membership::fresh(everyone, TICK),
            Some(w) => {
                let said = (w.epoch, w.seq);
                let m = Membership::rejoin(comm, w, TICK);
                log.returns
                    .push([said, (comm.fault_epoch(), comm.fault_sync_seq())]);
                m
            }
        };
        loop {
            let has_state = !m.known.stateless.contains(&me);
            // "Checkpoint" every iteration: the last one is the count.
            match m.agree(comm, m.known.losses.len(), has_state)? {
                Step::Retry => log.retries += 1,
                Step::Parked => return Err(Error::Unreachable { rank: me }),
                Step::Recover { epoch, target } => {
                    if m.confirm(comm, true)? {
                        let excluded = m.known.excluded.clone();
                        let members: Vec<usize> = (comm.members().iter().copied())
                            .filter(|g| !excluded.contains(g))
                            .collect();
                        let view = View {
                            pr: 1,
                            pc: members.len(),
                            members: members.clone(),
                        };
                        m.commit(view, target);
                        log.commits.push((epoch, excluded, members));
                    }
                }
                Step::Train if m.known.losses.len() == ITERS => break,
                Step::Train => {
                    comm.advance_compute(TICK * skew);
                    m.known.losses.push(0.0);
                }
            }
        }
        log.end = (
            m.known.losses.len(),
            comm.fault_epoch(),
            comm.fault_sync_seq(),
        );
        Ok(())
    }

    fn run(
        p: usize,
        plan: FaultPlan,
        skew: fn(usize) -> f64,
    ) -> (Vec<Result<Log, Error>>, WorldStats) {
        let opts = RunOpts {
            faults: plan,
            ..RunOpts::default()
        };
        let (logs, stats, _) = World::run_opts(p, NetModel::free(), opts, |comm| {
            let mut log = Log::default();
            let skew = skew(comm.global_rank_of(comm.rank())?);
            lives(comm, |w| life(comm, w, skew, &mut log))?;
            Ok(log)
        });
        (logs, stats)
    }

    /// Every rank that finished committed all iterations on the same
    /// counters, and no two ranks ever committed a different membership
    /// in the same epoch: at most one fragment held quorum.
    fn finishers(logs: &[Result<Log, Error>]) -> Vec<&Log> {
        let done: Vec<&Log> = logs.iter().filter_map(|l| l.as_ref().ok()).collect();
        for l in &done {
            assert_eq!(l.end, (ITERS, done[0].end.1, done[0].end.2));
            for w in &l.returns {
                assert_eq!(w[0], w[1], "a rejoiner enters on the welcome's counters");
            }
            for c in &l.commits {
                let mut all = done.iter().flat_map(|o| &o.commits);
                assert!(all.all(|d| d.0 != c.0 || d == c), "epoch {} forked", c.0);
            }
        }
        done
    }

    #[test]
    fn symmetric_even_split_parks_the_side_without_the_lowest_member() {
        let plan = FaultPlan::new(1)
            .partition(&[2, 3], 2.5 * TICK)
            .heal(&[2, 3], 6.5 * TICK);
        let (logs, stats) = run(4, plan, |_| 1.0);
        let done = finishers(&logs);
        assert_eq!(done.len(), 4, "the cut healed: everyone finishes");
        assert_eq!(stats.total_parks(), 2);
        for g in [0, 1] {
            // Both sides read the cut alike: what the winners excluded is
            // exactly who parked, and they take them back together.
            let c = &done[g].commits;
            assert_eq!((&c[0].1, &c[0].2), (&vec![2, 3], &vec![0, 1]));
            assert_eq!(c.last().expect("regrow").2, vec![0, 1, 2, 3]);
            assert!(done[g].returns.is_empty());
        }
        for g in [2, 3] {
            assert_eq!(stats.ranks[g].parks, 1);
            assert_eq!(done[g].returns.len(), 1, "welcomed back once");
            assert_eq!(done[g].commits.len(), 1, "its only commit is the regrow");
        }
    }

    #[test]
    fn one_way_cut_parks_the_rank_that_cannot_be_heard() {
        // Rank 4 hears everyone and nobody hears it: its presence
        // arrives nowhere, so no echo names it and its fragment is
        // itself alone — the verdict the other five reach about it.
        let plan = FaultPlan::new(2)
            .partition_oneway(&[4], 3.5 * TICK)
            .heal(&[4], 7.5 * TICK);
        let (logs, stats) = run(6, plan, |_| 1.0);
        let done = finishers(&logs);
        assert_eq!(done.len(), 6);
        assert_eq!(stats.total_parks(), 1);
        assert_eq!(stats.ranks[4].parks, 1);
        assert_eq!(done[0].commits[0].1, vec![4]);
        assert_eq!(done[4].returns.len(), 1);
    }

    #[test]
    fn a_cut_activating_mid_round_is_retried_until_both_sides_agree() {
        // Ranks 0 and 3 run slow, so when the round after iteration 3
        // starts their clocks are still short of the cut while the
        // others' are past it: 0 <-> 3 still talk across a cut that
        // severs everyone else, reachability is not transitive, and the
        // fragments computed from the echoes overlap without being
        // equal. The verdict round catches it on every rank; the nudge
        // carries the slow clocks over the edge and the rerun is clean.
        let skew = |g: usize| if g == 0 || g == 3 { 1.0 } else { 1.2 };
        let plan = FaultPlan::new(3)
            .partition(&[3, 4], 3.3 * TICK)
            .heal(&[3, 4], 9.5 * TICK);
        let (logs, stats) = run(5, plan, skew);
        let done = finishers(&logs);
        assert_eq!(done.len(), 5);
        assert!(done.iter().all(|l| l.retries >= 1), "{done:?}");
        assert_eq!(stats.total_parks(), 2);
        assert_eq!((stats.ranks[3].parks, stats.ranks[4].parks), (1, 1));
        assert_eq!(done[0].commits[0].1, vec![3, 4]);
    }

    #[test]
    fn a_killed_rank_rejoins_on_the_survivors_counters() {
        let plan = FaultPlan::new(4).kill(2, 2.5 * TICK).rejoin(2, 6.5 * TICK);
        let (logs, stats) = run(5, plan, |_| 1.0);
        let done = finishers(&logs);
        assert_eq!(done.len(), 5);
        assert_eq!((stats.total_rejoins(), stats.total_parks()), (1, 0));
        let c = &done[0].commits;
        assert_eq!((&c[0].1, &c[0].2), (&vec![2], &vec![0, 1, 3, 4]));
        assert_eq!((&c[1].1, &c[1].2), (&vec![], &vec![0, 1, 2, 3, 4]));
        // The welcome carried the survivors' epoch and round counter,
        // and the rejoiner's first act was the recovery they were in.
        assert_eq!(done[2].returns.len(), 1);
        assert_eq!(done[2].commits, vec![c[1].clone()]);
    }

    /// A confirmation that straddles a heal: ranks 0 and 1 vote while
    /// their clocks are short of the heal of {2, 3}, whose clocks are past
    /// it. A vote is severed on its sender's clock, so 0 and 1 hear every
    /// vote while 2 and 3 miss theirs: one round alone commits on the
    /// near side and aborts on the far one. The echo round repeats the
    /// severing, so every member returns the same verdict.
    #[test]
    fn a_confirmation_straddling_a_heal_cannot_split() {
        let plan = FaultPlan::new(6)
            .partition(&[2, 3], TICK)
            .heal(&[2, 3], 3.0 * TICK);
        let opts = RunOpts {
            faults: plan,
            ..RunOpts::default()
        };
        let (verdicts, _, _) = World::run_opts(4, NetModel::free(), opts, |comm| {
            let near = comm.global_rank_of(comm.rank())? < 2;
            comm.advance_compute(if near { 2.0 * TICK } else { 4.0 * TICK });
            let view = View {
                pr: 1,
                pc: 4,
                members: vec![0, 1, 2, 3],
            };
            Membership::fresh(view, TICK).confirm(comm, true)
        });
        assert_eq!(verdicts, vec![Ok(false); 4]);
    }

    #[test]
    fn a_minority_whose_cut_never_heals_stays_out() {
        let plan = FaultPlan::new(5).partition(&[4, 5], 2.5 * TICK);
        let (logs, stats) = run(6, plan, |_| 1.0);
        let done = finishers(&logs);
        assert_eq!(done.len(), 4, "the majority finishes without them");
        assert_eq!(stats.total_parks(), 2);
        for g in [4, 5] {
            assert_eq!(logs[g], Err(Error::Unreachable { rank: g }));
        }
        for l in done {
            assert_eq!(l.commits, vec![(1, vec![4, 5], vec![0, 1, 2, 3])]);
        }
    }
}
