//! Discrete-event execution engine: ranks as fibers on virtual-time
//! schedulers, one per host core.
//!
//! ## Two switches, one schedule
//!
//! A rank blocks in exactly one way: waiting on its (empty) mailbox.
//! Message *matching* is by `(context, src, tag)` with per-sender FIFO,
//! every timestamp is computed from envelope `depart` fields and the
//! receiver's own virtual clock, and no real-time timeouts exist
//! anywhere. Consequently **any** schedule that (a) only suspends a
//! rank when its mailbox is empty and it asked to receive, and (b)
//! delivers each sender's envelopes in send order, produces the same
//! numbers, stats, and traces. The engine is one such schedule: fibers
//! run until they block on `recv`, a send to a blocked rank makes it
//! runnable, and a scheduler always resumes its runnable rank with the
//! smallest `(blocked-at virtual time, rank)` key — an order that keeps
//! co-temporal ranks in lockstep so per-rank progress (and memory held
//! in mailboxes) stays balanced.
//!
//! How a fiber gets the turn is its [`fiber::Switch`]: the asm context
//! switch onto a slab stack, or a parked OS thread per rank — the
//! differential-testing oracle, which runs this same schedule through
//! the same fabric, mailboxes and quiescence verdict without the asm,
//! the slab stacks or their canaries. Nothing here learns which one is
//! running.
//!
//! ## Shards and workers
//!
//! The ranks of a world are cut into `W` contiguous blocks. Each block
//! is a **shard**: its own ready heap and rank states under its own
//! lock, and one **worker** — an OS thread running the loop
//! `Fabric::work` — that creates, resumes and drops the shard's fibers.
//! The caller is shard 0's worker; the others are persistent helper
//! threads, started on first need and blocked on a channel between
//! worlds. A fiber never changes threads, so every thread-local a rank
//! leans on (this module's current-fiber pointer, the stack-slab cache,
//! `tensor`'s buffer free list and packing panels) stays sound, and on
//! the asm switch warm from one world to the next. By (a) and (b) above
//! the numbers are the same for every `W`; `W = 1` is the
//! single-threaded engine.
//!
//! Three rules make the shards one engine:
//!
//! 1. `send` pushes to the mailbox, *then* takes the destination
//!    shard's lock to turn `Blocked` into `Ready` (and wakes that
//!    shard's worker if it is parked).
//! 2. `recv`, having found its mailbox empty, tests it again *under its
//!    own shard's lock* before it writes `Blocked`. Whichever of the
//!    two critical sections comes second sees the other's effect: the
//!    sender finds `Blocked`, or the receiver finds the envelope.
//! 3. A worker whose heap is empty spins briefly, then registers idle
//!    under the fabric's quiescence lock — which `send` never takes —
//!    and parks; it deregisters under the same lock before it resumes
//!    any fiber. Whoever registers last holds that lock while no fiber
//!    runs anywhere, so no send is in flight and the heaps cannot
//!    change: if all are empty the world is quiescent.
//!
//! ## Termination and the disconnect rule
//!
//! At quiescence with some fiber still blocked the system can provably
//! never make progress (sends only happen from running fibers), so the
//! engine wakes exactly the fibers blocked at that point, each with the
//! verdict. A woken `recv` first looks in its mailbox (another woken
//! rank may have run, and sent, before it); only an empty one surfaces
//! `Err` → [`crate::Error::Disconnected`], once: the rank's next
//! `recv` blocks like any other, and errs only if the world goes
//! quiescent again. Programs that never deadlock never observe the
//! verdict; programs that would hang on free-running threads get a
//! clean error instead.
//!
//! ## Panics
//!
//! A panicking rank closure is caught at the fiber boundary and
//! re-thrown by [`run`] **after** all other fibers, on every worker,
//! have run to completion (they observe the dead rank via fault notices
//! or, at exhaustion, the disconnect rule). The lowest panicking rank's
//! payload wins, as a join in rank order would have it.

pub mod fiber;
pub mod stack;

use std::any::Any;
use std::cell::Cell;
use std::collections::{BinaryHeap, VecDeque};
use std::panic;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::router::Envelope;
use fiber::{Fiber, FiberState, Resume, Switch};
use stack::StackPool;

thread_local! {
    /// The fiber currently running on this thread (null outside the
    /// engine). Saved/restored around every resume so nested engines
    /// (a `World` run from inside a rank closure) compose; a
    /// [`Switch::Thread`] fiber's own thread sets it once, for good.
    static CURRENT: Cell<*const FiberState> = const { Cell::new(ptr::null()) };
}

/// Locks an engine mutex, poisoned or not: every critical section of
/// this module leaves its data valid at each step, and rank panics are
/// caught at the fiber boundary, outside all of them. A poisoned lock
/// therefore means an engine assertion failed on some worker; the
/// others must still be able to drain and count themselves out.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] under the same rule.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// `Ready` covers a rank that has a heap entry and one that is running:
/// a send treats both alike (only `Blocked → Ready` pushes an entry,
/// which keeps it at one entry per rank).
#[derive(Clone, Copy, PartialEq, Debug)]
enum RankState {
    Ready,
    /// Blocked on an empty mailbox; payload = virtual time at block.
    Blocked(f64),
    Done,
}

/// Min-heap entry: earlier blocked-time first, then lower rank.
struct ReadyEntry {
    t: f64,
    rank: u32,
    /// Made ready by the disconnect verdict, not by a send.
    cut: bool,
}

impl PartialEq for ReadyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for ReadyEntry {}
impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min key.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

struct Sched {
    /// States of the shard's ranks, by rank minus the shard's first.
    state: Vec<RankState>,
    ready: BinaryHeap<ReadyEntry>,
    /// The shard's worker waits on [`Shard::wake`] for an entry.
    parked: bool,
}

impl Sched {
    /// A shard's ranks, every one ready at virtual time 0.
    fn new(ranks: std::ops::Range<usize>) -> Sched {
        let mut s = Sched {
            state: vec![RankState::Blocked(0.0); ranks.len()],
            ready: BinaryHeap::with_capacity(ranks.len()),
            parked: false,
        };
        for (i, rank) in ranks.enumerate() {
            s.make_ready(i, rank, false);
        }
        s
    }

    /// The one `Blocked → Ready` transition, for a send and the verdict.
    fn make_ready(&mut self, i: usize, rank: usize, cut: bool) -> bool {
        let RankState::Blocked(t) = self.state[i] else {
            return false;
        };
        self.state[i] = RankState::Ready;
        let rank = rank as u32;
        self.ready.push(ReadyEntry { t, rank, cut });
        true
    }
}

struct Shard {
    sched: Mutex<Sched>,
    wake: Condvar,
}

/// What the quiescence lock guards.
#[derive(Default)]
struct Quiet {
    /// Workers parked, about to park, or out.
    idle: usize,
    /// Workers that finished their shard and dropped its fibers.
    out: usize,
    /// Payload of the lowest rank that panicked, so far.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

/// The shared message fabric: one mailbox per rank plus the shards'
/// scheduler state. O(P) memory.
pub struct Fabric {
    boxes: Vec<Mutex<VecDeque<Envelope>>>,
    alive: Vec<AtomicBool>,
    /// Ranks per shard (the last may hold fewer).
    block: usize,
    shards: Vec<Shard>,
    quiet: Mutex<Quiet>,
    all_out: Condvar,
}

impl Fabric {
    /// A fabric for `size` ranks cut into blocks of `⌈size / workers⌉`:
    /// `workers` shards, or fewer when that many blocks already cover
    /// the ranks (9 ranks on 4 workers are 3 blocks of 3).
    ///
    /// # Panics
    ///
    /// If `size` is 0 or exceeds `u32::MAX`.
    pub fn new(size: usize, workers: usize) -> Arc<Fabric> {
        assert!(size > 0, "an event fabric needs at least one rank");
        assert!(u32::try_from(size).is_ok(), "{size} ranks: at most 2^32");
        let block = size.div_ceil(workers.clamp(1, size));
        let shard = |lo: usize| Shard {
            sched: Mutex::new(Sched::new(lo..size.min(lo + block))),
            wake: Condvar::new(),
        };
        Arc::new(Fabric {
            boxes: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            block,
            shards: (0..size).step_by(block).map(shard).collect(),
            quiet: Mutex::default(),
            all_out: Condvar::new(),
        })
    }

    /// The endpoint for `rank`. Take each rank's endpoint exactly once.
    pub fn endpoint(self: &Arc<Fabric>, rank: usize) -> Endpoint {
        Endpoint {
            fabric: Arc::clone(self),
            rank,
        }
    }

    /// The shard `rank` lives on and its index there.
    fn home(&self, rank: usize) -> (&Shard, usize) {
        (&self.shards[rank / self.block], rank % self.block)
    }
}

/// A rank's handle on the fabric: `send` fails iff the destination
/// endpoint was dropped, `recv` fails iff no envelope is buffered and
/// none can ever arrive.
pub struct Endpoint {
    fabric: Arc<Fabric>,
    rank: usize,
}

impl Endpoint {
    // The `()` errors carry exactly one bit ("peer gone") and are
    // mapped to `Error` one layer up.
    #[allow(clippy::result_unit_err)]
    pub fn send(&self, dst: usize, env: Envelope) -> Result<(), ()> {
        let fabric = &*self.fabric;
        if !fabric.alive[dst].load(Ordering::Relaxed) {
            return Err(());
        }
        // Rule 1: the envelope is in the mailbox before the state is read.
        lock(&fabric.boxes[dst]).push_back(env);
        let (shard, i) = fabric.home(dst);
        let mut s = lock(&shard.sched);
        if s.make_ready(i, dst, false) && s.parked {
            shard.wake.notify_one();
        }
        Ok(())
    }

    /// Pop the next envelope, suspending the calling fiber while the
    /// mailbox is empty. `now` is the caller's virtual clock, used as
    /// the scheduling key while blocked.
    #[allow(clippy::result_unit_err)]
    pub fn recv(&self, now: f64) -> Result<Envelope, ()> {
        let mailbox = &self.fabric.boxes[self.rank];
        loop {
            if let Some(env) = lock(mailbox).pop_front() {
                return Ok(env);
            }
            let (shard, i) = self.fabric.home(self.rank);
            let st = CURRENT.get();
            assert!(!st.is_null(), "mpsim endpoint used outside the engine");
            {
                // Rule 2: a send that pushed before this lock is seen
                // here; one that pushes after it finds `Blocked`.
                let mut s = lock(&shard.sched);
                if let Some(env) = lock(mailbox).pop_front() {
                    return Ok(env);
                }
                s.state[i] = RankState::Blocked(now);
            }
            // SAFETY: `st` is this thread's running fiber, which is the
            // caller: a fiber stays on its worker, or on its own thread.
            if unsafe { fiber::suspend_current(st) } {
                // The verdict, for this one receive: a rank woken with
                // us may have run, and sent, first.
                return lock(mailbox).pop_front().ok_or(());
            }
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.fabric.alive[self.rank].store(false, Ordering::Relaxed);
    }
}

/// Builds the closure of one rank; called once per rank, on the worker
/// that will run it.
pub type Spawn<'a> = dyn Fn(usize) -> Box<dyn FnOnce()> + Sync + 'a;

/// Empty pops a worker makes (a few µs) before it parks: a cross-shard
/// reply usually lands inside that, and a futex sleep and wake cost
/// more than it does.
const SPINS: u32 = 200;

impl Fabric {
    /// The worker loop of shard `w`: creates the shard's fibers on
    /// `switch`, resumes them in `(blocked-at, rank)` order until all
    /// are done, and drops them — all on the calling thread.
    fn work(&self, w: usize, switch: Switch, spawn: &Spawn<'_>) {
        let shard = &self.shards[w];
        let lo = w * self.block;
        let mut left = lock(&shard.sched).state.len();
        assert_eq!(lock(&shard.sched).ready.len(), left, "fabric reused");
        let mut pool = StackPool::new();
        let mut fibers: Vec<Fiber> = (lo..lo + left)
            .map(|rank| Fiber::new(pool.alloc(), spawn(rank), switch))
            .collect();
        let mut spins = 0;
        while left > 0 {
            let next = lock(&shard.sched).ready.pop();
            let Some(entry) = next else {
                // Alone, nobody can send to us: no point in spinning.
                if spins < SPINS && self.shards.len() > 1 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    self.park(w);
                    spins = 0;
                }
                continue;
            };
            spins = 0;
            let rank = entry.rank as usize;
            let fib = &mut fibers[rank - lo];
            let prev = CURRENT.replace(fib.state_ptr());
            let res = fib.resume(entry.cut);
            CURRENT.set(prev);
            if res == Resume::Suspended {
                // The fiber marked itself Blocked before switching; a
                // send since may already have made it Ready again.
                continue;
            }
            if let (Resume::Panicked, Some(payload)) = (res, fib.take_panic()) {
                let mut q = lock(&self.quiet);
                if q.panic.as_ref().is_none_or(|&(r, _)| rank < r) {
                    q.panic = Some((rank, payload));
                }
            }
            lock(&shard.sched).state[rank - lo] = RankState::Done;
            left -= 1;
        }
        // The closures borrow from `run`'s caller: gone before we say so.
        drop(fibers);
        drop(pool);
        let mut q = lock(&self.quiet);
        q.out += 1;
        self.now_idle(&mut q);
        self.all_out.notify_all();
    }

    /// Rule 3, for a worker whose heap was empty: register idle, wait
    /// for an entry, deregister.
    fn park(&self, w: usize) {
        self.now_idle(&mut lock(&self.quiet));
        let shard = &self.shards[w];
        let mut s = lock(&shard.sched);
        s.parked = true;
        while s.ready.is_empty() {
            s = wait(&shard.wake, s);
        }
        s.parked = false;
        drop(s);
        lock(&self.quiet).idle -= 1;
    }

    /// Counts the calling worker idle and, if it is the last, decides
    /// quiescence: with every worker registered no fiber runs, so no
    /// send is in flight and the heaps hold still while `q` is held.
    /// Any entry left means its worker is on its way back. None, and
    /// the world can never progress again: every blocked fiber is made
    /// ready with the disconnect verdict.
    fn now_idle(&self, q: &mut Quiet) {
        q.idle += 1;
        let busy = |shard: &Shard| !lock(&shard.sched).ready.is_empty();
        if q.idle < self.shards.len() || self.shards.iter().any(busy) {
            return;
        }
        let mut woke = 0;
        for (w, shard) in self.shards.iter().enumerate() {
            let mut s = lock(&shard.sched);
            let before = woke;
            for i in 0..s.state.len() {
                woke += usize::from(s.make_ready(i, w * self.block + i, true));
            }
            if woke > before && s.parked {
                shard.wake.notify_one();
            }
        }
        let all_out = q.out == self.shards.len();
        assert!(
            woke > 0 || all_out,
            "mpsim event engine stuck: no rank ready or blocked"
        );
    }
}

/// What a helper thread is sent: one shard's [`Fabric::work`].
type Job = Box<dyn FnOnce() + Send>;

/// The process's helper threads. Each blocks on its channel between
/// worlds; none is ever joined — they hold no resource that needs
/// releasing and end with the process.
struct Helpers {
    idle: Vec<mpsc::Sender<Job>>,
    /// Helpers out serving a world.
    leased: usize,
}

static HELPERS: Mutex<Helpers> = Mutex::new(Helpers {
    idle: Vec::new(),
    leased: 0,
});

fn start_helper() -> mpsc::Sender<Job> {
    let (tx, rx) = mpsc::channel::<Job>();
    std::thread::Builder::new()
        .name("mpsim-worker".into())
        .spawn(move || rx.into_iter().for_each(|job| job()))
        .expect("mpsim: cannot start an engine worker thread");
    tx
}

/// How many workers an event world of `size` ranks runs on. One —
/// today's single-threaded schedule — whenever more cannot be shown
/// safe and useful from here: under an active fault plan (`faulted`:
/// which rank meets a disconnect first is schedule-dependent, and the
/// repo's faulted worlds are 4–6 ranks), inside a rank closure (the
/// outer world owns the cores), while another world has the helpers
/// out, below four ranks per worker (a helper's allocator arena and
/// caches cost a small world more than it gains), on a one-core host.
/// `pinned` replaces the last three with the caller's count.
pub fn workers_for(size: usize, pinned: Option<usize>, faulted: bool) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if faulted || !CURRENT.get().is_null() {
        return 1;
    }
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let by_rule = || match lock(&HELPERS).leased {
        0 => (*CORES.get_or_init(cores)).min(size / 4),
        _ => 1,
    };
    pinned.unwrap_or_else(by_rule).clamp(1, size)
}

/// Run every rank of `fabric` to completion on fibers that `switch`
/// hands the turn: shard 0 on the calling thread, every other shard on
/// a helper thread.
///
/// `spawn(rank)` builds rank `rank`'s closure, on the thread that will
/// run it. Each closure must eventually return (or panic); blocking
/// happens only inside [`Endpoint::recv`]. The lowest panicking
/// rank's payload is re-thrown here after all fibers have completed.
///
/// The closures may borrow data from the caller's stack frame (they are
/// transmuted to `'static` by the caller): this function returns — or
/// unwinds — only after every worker has run its fibers to completion
/// and dropped them, closures included. If the engine itself has a bug
/// it waits for ever, or leaks started-but-unfinished fibers (never
/// resumed, never dropped), rather than let one dangle.
pub fn run(fabric: &Arc<Fabric>, switch: Switch, spawn: &Spawn<'_>) {
    let helpers: Vec<_> = {
        let mut h = lock(&HELPERS);
        h.leased += fabric.shards.len() - 1;
        (1..fabric.shards.len())
            .map(|_| h.idle.pop().unwrap_or_else(start_helper))
            .collect()
    };
    for (i, helper) in helpers.iter().enumerate() {
        let fabric = Arc::clone(fabric);
        let job: Box<dyn FnOnce() + Send + '_> =
            Box::new(move || fabric.work(i + 1, switch, spawn));
        // SAFETY: `job` borrows `spawn` and what it captures. This
        // frame stays until the job's `work` has counted itself out
        // (the wait below), which is its last use of that borrow.
        let job: Job = unsafe { std::mem::transmute(job) };
        helper.send(job).expect("an engine worker thread is gone");
    }
    // Shard 0 here. Should its loop unwind (an engine assertion), the
    // helpers are waited for all the same before the frame goes.
    let own = panic::catch_unwind(panic::AssertUnwindSafe(|| fabric.work(0, switch, spawn)));
    let mut q = lock(&fabric.quiet);
    while q.out < helpers.len() + usize::from(own.is_ok()) {
        q = wait(&fabric.all_out, q);
    }
    let rank_panic = q.panic.take().map(|(_, payload)| payload);
    drop(q);
    let mut h = lock(&HELPERS);
    h.leased -= helpers.len();
    h.idle.extend(helpers);
    drop(h);
    if let Some(payload) = own.err().or(rank_panic) {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Payload;
    use fiber::tests::SWITCHES;
    use std::sync::atomic::AtomicUsize;

    type Body<'a> = Box<dyn Fn(Endpoint) + Sync + 'a>;

    fn msg(src: usize, tag: u64, depart: f64) -> Envelope {
        Envelope::new(0, src, tag, depart, Payload::Control(vec![src as u8]))
    }

    /// Runs `bodies[rank]` as rank `rank` of a fabric cut for `workers`,
    /// on fibers that `switch` hands the turn. Every test below runs
    /// each of its cases on both switches.
    fn run_ranks(switch: Switch, workers: usize, bodies: Vec<Body<'_>>) {
        let fabric = Fabric::new(bodies.len(), workers);
        assert_eq!(fabric.shards.len(), workers.min(bodies.len()));
        let spawn = |rank: usize| {
            let (ep, body) = (fabric.endpoint(rank), &bodies[rank]);
            let closure: Box<dyn FnOnce() + '_> = Box::new(move || body(ep));
            // SAFETY: `run` returns after every closure was dropped.
            unsafe { std::mem::transmute::<_, Box<dyn FnOnce() + 'static>>(closure) }
        };
        run(&fabric, switch, &spawn);
    }

    #[test]
    fn ping_pong_two_ranks() {
        for switch in SWITCHES {
            let log = Mutex::new(Vec::new());
            let body = |rank: usize| -> Body<'_> {
                let log = &log;
                Box::new(move |ep| {
                    for round in 0..3u64 {
                        if rank == 0 {
                            ep.send(1, msg(rank, round, 0.0)).unwrap();
                        }
                        let env = ep.recv(0.0).unwrap();
                        log.lock().unwrap().push((env.src, env.tag));
                        if rank == 1 {
                            ep.send(0, msg(rank, round + 100, 0.0)).unwrap();
                        }
                    }
                })
            };
            run_ranks(switch, 1, vec![body(0), body(1)]);
            assert_eq!(
                *log.lock().unwrap(),
                vec![(0, 0), (1, 100), (0, 1), (1, 101), (0, 2), (1, 102)]
            );
        }
    }

    /// The lost-wake-up window of rules 1 and 2, crossed 2·10⁵ times:
    /// two ranks on two workers bounce one-word messages, each `recv`
    /// racing the other side's `send`.
    #[test]
    fn cross_shard_ping_pong_loses_no_wakeup() {
        const ROUNDS: u64 = 100_000;
        let body = |rank: usize| -> Body<'_> {
            Box::new(move |ep| {
                for round in 0..ROUNDS {
                    if rank == 0 {
                        ep.send(1, msg(0, round, 0.0)).unwrap();
                    }
                    assert_eq!(ep.recv(round as f64).unwrap().tag, round);
                    if rank == 1 {
                        ep.send(0, msg(1, round, 0.0)).unwrap();
                    }
                }
            })
        };
        for switch in SWITCHES {
            run_ranks(switch, 2, vec![body(0), body(1)]);
        }
    }

    #[test]
    fn deadlock_becomes_disconnect_error() {
        for (switch, workers) in SWITCHES.into_iter().flat_map(|s| [(s, 1), (s, 2)]) {
            let errs = AtomicUsize::new(0);
            // Both ranks recv with nobody sending: a hang on free-running
            // threads, a clean error here.
            let body = || -> Body<'_> {
                Box::new(|ep| {
                    errs.fetch_add(usize::from(ep.recv(0.0).is_err()), Ordering::Relaxed);
                })
            };
            run_ranks(switch, workers, vec![body(), body()]);
            assert_eq!(errs.into_inner(), 2, "{switch:?}, {workers} workers");
        }
    }

    /// Blocked fibers on two shards while a third shard's worker is
    /// already out: the last worker to go idle decides for all three.
    #[test]
    fn quiescence_spans_shards_one_of_them_finished() {
        for switch in SWITCHES {
            let errs = AtomicUsize::new(0);
            let waits = || -> Body<'_> {
                Box::new(|ep| {
                    errs.fetch_add(usize::from(ep.recv(1.0).is_err()), Ordering::Relaxed);
                })
            };
            let bodies: Vec<Body<'_>> = vec![
                waits(),
                waits(),
                waits(),
                waits(),
                Box::new(drop),
                Box::new(drop),
            ];
            run_ranks(switch, 3, bodies);
            assert_eq!(errs.into_inner(), 4, "{switch:?}");
        }
    }

    /// The verdict goes to exactly the fibers blocked at the quiescent
    /// point, once each, whoever runs first afterwards. All three ranks
    /// block; ranks 0 and 2 answer their `Err` with a send to rank 1.
    /// Under a world-global flag that any send clears, rank 0's send
    /// would put rank 2 back to sleep and rank 1 would never see tag 9.
    /// One worker runs the woken ranks in rank order, so rank 1 finds
    /// 7, then 9; sharded, the two arrive in either order, and rank 1
    /// may run before both and then holds its one `Err` first. Its last
    /// `recv` is the second quiescence.
    #[test]
    fn a_verdict_is_per_wake_and_a_later_send_does_not_cancel_it() {
        for (switch, workers) in SWITCHES.into_iter().flat_map(|s| [(s, 1), (s, 3)]) {
            let body = |rank: usize| -> Body<'_> {
                Box::new(move |ep| {
                    if rank != 1 {
                        assert!(ep.recv(0.0).is_err(), "first quiescence");
                        return ep.send(1, msg(rank, 7 + rank as u64, 0.0)).unwrap();
                    }
                    let mut seen: Vec<_> = (0..2).map(|_| ep.recv(0.0).map(|e| e.tag)).collect();
                    if workers > 1 {
                        if seen[0].is_err() {
                            seen[0] = ep.recv(0.0).map(|e| e.tag);
                        }
                        seen.sort();
                    }
                    assert_eq!(seen, [Ok(7), Ok(9)]);
                    assert!(ep.recv(0.0).is_err(), "second quiescence");
                })
            };
            run_ranks(switch, workers, vec![body(0), body(1), body(2)]);
        }
    }

    #[test]
    fn buffered_envelopes_survive_disconnect() {
        for (switch, workers) in SWITCHES.into_iter().flat_map(|s| [(s, 1), (s, 2)]) {
            let got = AtomicUsize::new(0);
            let bodies: Vec<Body<'_>> = vec![
                // Exit immediately; rank 1 must still get the envelope.
                Box::new(|ep| ep.send(1, msg(0, 7, 0.0)).unwrap()),
                Box::new(|ep| {
                    got.store(ep.recv(0.0).unwrap().tag as usize, Ordering::Relaxed);
                    // Second recv: nothing buffered, nobody left → Err.
                    assert!(ep.recv(0.0).is_err());
                }),
            ];
            run_ranks(switch, workers, bodies);
            assert_eq!(got.into_inner(), 7);
        }
    }

    #[test]
    fn send_to_dropped_endpoint_fails() {
        for (switch, workers) in SWITCHES.into_iter().flat_map(|s| [(s, 1), (s, 2)]) {
            let bodies: Vec<Body<'_>> = vec![
                Box::new(|ep| {
                    // Wait for rank 1 to finish (it never sends, so we
                    // see the disconnect), then observe the dead endpoint.
                    assert!(ep.recv(0.0).is_err());
                    assert!(ep.send(1, msg(0, 0, 0.0)).is_err());
                }),
                Box::new(drop),
            ];
            run_ranks(switch, workers, bodies);
        }
    }

    #[test]
    fn scheduler_prefers_smallest_virtual_time() {
        for switch in SWITCHES {
            // Rank 0 blocks at t=5, rank 1 at t=2; rank 2 sends to both
            // and finishes. Rank 1 (earlier blocked time) must run first.
            let order = Mutex::new(Vec::new());
            let waiter = |rank: usize, t: f64| -> Body<'_> {
                let order = &order;
                Box::new(move |ep| {
                    let _ = ep.recv(t).unwrap();
                    order.lock().unwrap().push(rank);
                })
            };
            let sender: Body<'_> = Box::new(|ep| {
                // Block once so ranks 0 and 1 are both parked first.
                let _ = ep.recv(0.0); // disconnect-woken: Err — fine.
                let _ = ep.send(0, msg(2, 0, 0.0));
                let _ = ep.send(1, msg(2, 1, 0.0));
            });
            run_ranks(switch, 1, vec![waiter(0, 5.0), waiter(1, 2.0), sender]);
            assert_eq!(*order.lock().unwrap(), vec![1, 0], "{switch:?}");
        }
    }

    /// A panic on a helper's shard comes back through `run`, the lowest
    /// rank's payload of several, after every worker has drained.
    #[test]
    fn rank_panic_propagates_after_others_finish() {
        for (switch, workers) in SWITCHES.into_iter().flat_map(|s| [1, 2, 4].map(|w| (s, w))) {
            let finished = AtomicUsize::new(0);
            let body = |rank: usize| -> Body<'_> {
                let finished = &finished;
                Box::new(move |ep| {
                    let _ = &ep;
                    assert!(rank != 5 && rank != 7, "rank {rank} exploded");
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            };
            let bodies = (0..8).map(body).collect();
            let err = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                run_ranks(switch, workers, bodies)
            }))
            .expect_err("panic must propagate");
            assert_eq!(err.downcast_ref::<String>().unwrap(), "rank 5 exploded");
            assert_eq!(
                finished.into_inner(),
                6,
                "other ranks run to completion first"
            );
        }
    }
}
