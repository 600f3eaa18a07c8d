//! Discrete-event execution engine: ranks as fibers on a virtual-time
//! scheduler, replacing one-OS-thread-per-rank.
//!
//! ## Why this is bit-identical to the threaded backend
//!
//! The threaded simulator blocks in exactly one way: a rank waiting on
//! its (empty) mailbox. Message *matching* is by `(context, src, tag)`
//! with per-sender FIFO, every timestamp is computed from envelope
//! `depart` fields and the receiver's own virtual clock, and no
//! real-time timeouts exist anywhere. Consequently **any** schedule
//! that (a) only suspends a rank when its mailbox is empty and it asked
//! to receive, and (b) delivers each sender's envelopes in send order,
//! produces the same numbers, stats, and traces as free-running OS
//! threads. The event engine is one such schedule: fibers run until
//! they block on `recv`, a send to a blocked rank makes it runnable,
//! and the scheduler always resumes the runnable rank with the
//! smallest `(blocked-at virtual time, rank)` key — a deterministic
//! discrete-event order that also keeps co-temporal ranks in lockstep
//! so per-rank progress (and memory held in mailboxes) stays balanced.
//!
//! ## Termination and the disconnect rule
//!
//! A threaded rank's `recv` fails once every peer endpoint has been
//! dropped. The event engine generalises this: when *no* fiber is
//! runnable and at least one is blocked, the system can provably never
//! make progress (sends only happen from running fibers), so the
//! engine sets a `disconnected` flag and wakes every blocked fiber.
//! A woken fiber first drains its mailbox (buffered envelopes are
//! always delivered, as with the channel backend); only an empty
//! mailbox surfaces `Err` → [`crate::Error::Disconnected`]. Any
//! subsequent send clears the flag, so a program that recovers from
//! the error and restores traffic keeps running. Programs that never
//! deadlock never observe the flag; programs that *would* hang the
//! threaded backend get a clean error instead.
//!
//! ## Panics
//!
//! A panicking rank closure is caught at the fiber boundary and
//! re-thrown by the scheduler **after** all other fibers have run to
//! completion (they observe the dead rank exactly as the threaded
//! backend would: via fault notices or, at exhaustion, the disconnect
//! rule). Payloads are re-thrown in rank order, matching the threaded
//! backend's join-in-rank-order propagation.

pub mod fiber;
pub mod stack;

use std::cell::Cell;
use std::collections::{BinaryHeap, VecDeque};
use std::panic;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::router::Envelope;
use fiber::{Fiber, FiberState, Resume};
use stack::StackPool;

thread_local! {
    /// The fiber currently running on this thread (null outside the
    /// engine). Saved/restored around every resume so nested engines
    /// (a `World` run from inside a rank closure) compose.
    static CURRENT: Cell<*const FiberState> = const { Cell::new(ptr::null()) };
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum RankState {
    Ready,
    Running,
    /// Blocked on an empty mailbox; payload = virtual time at block.
    Blocked(f64),
    Done,
}

/// Min-heap entry: earlier blocked-time first, then lower rank.
struct ReadyEntry {
    t: f64,
    rank: usize,
}

impl PartialEq for ReadyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t.total_cmp(&other.t).is_eq() && self.rank == other.rank
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
    state: Vec<RankState>,
    ready: BinaryHeap<ReadyEntry>,
    /// Set when the engine found no runnable fiber; cleared by any send.
    disconnected: bool,
}

/// The shared message fabric: one mailbox per rank plus the scheduler
/// state. O(P) memory — unlike the threaded router's P² cloned senders.
pub struct Fabric {
    boxes: Vec<Mutex<VecDeque<Envelope>>>,
    alive: Vec<AtomicBool>,
    sched: Mutex<Sched>,
}

impl Fabric {
    pub fn new(size: usize) -> Arc<Fabric> {
        Arc::new(Fabric {
            boxes: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            sched: Mutex::new(Sched {
                state: vec![RankState::Ready; size],
                ready: BinaryHeap::new(),
                disconnected: false,
            }),
        })
    }

    /// The endpoint for `rank`. Take each rank's endpoint exactly once.
    pub fn endpoint(self: &Arc<Fabric>, rank: usize) -> EventEndpoint {
        EventEndpoint {
            fabric: Arc::clone(self),
            rank,
        }
    }
}

/// A rank's handle on the fabric — the event-engine counterpart of the
/// threaded `(Receiver, Vec<Sender>)` endpoint, with matching failure
/// semantics: `send` fails iff the destination endpoint was dropped,
/// `recv` fails iff no envelope is buffered and none can ever arrive.
pub struct EventEndpoint {
    fabric: Arc<Fabric>,
    rank: usize,
}

impl EventEndpoint {
    // The `()` errors mirror `std::sync::mpsc`'s send/recv failures,
    // which the threaded endpoint exposes verbatim; both carry exactly
    // one bit ("peer gone") and are mapped to `Error` one layer up.
    #[allow(clippy::result_unit_err)]
    pub fn send(&self, dst: usize, env: Envelope) -> Result<(), ()> {
        if !self.fabric.alive[dst].load(Ordering::Relaxed) {
            return Err(());
        }
        self.fabric.boxes[dst].lock().unwrap().push_back(env);
        let mut s = self.fabric.sched.lock().unwrap();
        s.disconnected = false;
        if let RankState::Blocked(t) = s.state[dst] {
            s.state[dst] = RankState::Ready;
            s.ready.push(ReadyEntry { t, rank: dst });
        }
        Ok(())
    }

    /// Pop the next envelope, suspending the calling fiber while the
    /// mailbox is empty. `now` is the caller's virtual clock, used as
    /// the scheduling key while blocked.
    #[allow(clippy::result_unit_err)]
    pub fn recv(&self, now: f64) -> Result<Envelope, ()> {
        loop {
            if let Some(env) = self.fabric.boxes[self.rank].lock().unwrap().pop_front() {
                return Ok(env);
            }
            if self.fabric.sched.lock().unwrap().disconnected {
                return Err(());
            }
            let st = CURRENT.with(|c| c.get());
            assert!(
                !st.is_null(),
                "mpsim event endpoint used outside the event engine"
            );
            {
                let mut s = self.fabric.sched.lock().unwrap();
                s.state[self.rank] = RankState::Blocked(now);
            }
            unsafe { fiber::suspend_current(st) };
        }
    }
}

impl Drop for EventEndpoint {
    fn drop(&mut self) {
        self.fabric.alive[self.rank].store(false, Ordering::Relaxed);
    }
}

/// Run `size` rank closures to completion on the event scheduler.
///
/// Each closure must eventually return (or panic); blocking happens
/// only inside [`EventEndpoint::recv`]. Panics from rank closures are
/// re-thrown here in rank order after all fibers have completed,
/// mirroring the threaded backend's join order.
///
/// # Safety
/// The closures may borrow data from the caller's stack frame (they are
/// transmuted to `'static` by the caller); this function guarantees
/// every fiber has run to completion — and thus dropped its closure —
/// before returning or unwinding, except if the engine itself has a
/// bug, in which case started-but-unfinished fibers leak (never
/// resumed, never dropped) rather than dangle.
pub fn run(fabric: &Arc<Fabric>, closures: Vec<Box<dyn FnOnce()>>) {
    let size = closures.len();
    let mut pool = StackPool::new();
    let mut fibers: Vec<Fiber> = closures
        .into_iter()
        .map(|f| Fiber::new(pool.alloc(), f))
        .collect();

    {
        let mut s = fabric.sched.lock().unwrap();
        assert_eq!(s.state.len(), size, "fabric size != closure count");
        for rank in 0..size {
            assert_eq!(s.state[rank], RankState::Ready, "fabric reused");
            s.ready.push(ReadyEntry { t: 0.0, rank });
        }
    }

    let mut done = 0usize;
    let mut panics: Vec<Option<Box<dyn std::any::Any + Send>>> = (0..size).map(|_| None).collect();

    while done < size {
        let next = { fabric.sched.lock().unwrap().ready.pop() };
        match next {
            Some(entry) => {
                let rank = entry.rank;
                {
                    let mut s = fabric.sched.lock().unwrap();
                    debug_assert_eq!(s.state[rank], RankState::Ready);
                    s.state[rank] = RankState::Running;
                }
                let fib = &mut fibers[rank];
                let prev = CURRENT.with(|c| c.replace(fib.state_ptr()));
                let res = fib.resume();
                CURRENT.with(|c| c.set(prev));
                match res {
                    Resume::Suspended => {
                        // Fiber marked itself Blocked before switching;
                        // a send during its run may already have made
                        // it Ready again — both are fine.
                    }
                    Resume::Finished => {
                        fabric.sched.lock().unwrap().state[rank] = RankState::Done;
                        done += 1;
                    }
                    Resume::Panicked => {
                        panics[rank] = fibers[rank].take_panic();
                        fabric.sched.lock().unwrap().state[rank] = RankState::Done;
                        done += 1;
                    }
                }
            }
            None => {
                // No runnable fiber but not everyone is done: no send
                // can ever happen again unless we intervene. Declare
                // disconnection and wake all blocked fibers so their
                // recv either drains buffered envelopes or errors.
                let mut s = fabric.sched.lock().unwrap();
                s.disconnected = true;
                let mut woke = 0;
                for rank in 0..size {
                    if let RankState::Blocked(t) = s.state[rank] {
                        s.state[rank] = RankState::Ready;
                        s.ready.push(ReadyEntry { t, rank });
                        woke += 1;
                    }
                }
                assert!(
                    woke > 0,
                    "mpsim event engine stuck: {done}/{size} done, none blocked"
                );
            }
        }
    }

    // All fibers completed; re-throw the lowest-rank panic (threaded
    // backend join order). Later payloads are dropped, as they would
    // be by join-in-order.
    if let Some(payload) = panics.into_iter().flatten().next() {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Payload;
    use std::rc::Rc;

    fn msg(src: usize, tag: u64, depart: f64) -> Envelope {
        Envelope::new(0, src, tag, depart, Payload::Control(vec![src as u8]))
    }

    #[test]
    fn ping_pong_two_ranks() {
        let fabric = Fabric::new(2);
        let log: Rc<std::cell::RefCell<Vec<(usize, u64)>>> = Rc::default();
        let mk = |rank: usize,
                  fabric: &Arc<Fabric>,
                  log: &Rc<std::cell::RefCell<Vec<(usize, u64)>>>|
         -> Box<dyn FnOnce()> {
            let ep = fabric.endpoint(rank);
            let log = log.clone();
            Box::new(move || {
                let peer = 1 - rank;
                for round in 0..3u64 {
                    if rank == 0 {
                        ep.send(peer, msg(rank, round, 0.0)).unwrap();
                        let env = ep.recv(0.0).unwrap();
                        log.borrow_mut().push((env.src, env.tag));
                    } else {
                        let env = ep.recv(0.0).unwrap();
                        log.borrow_mut().push((env.src, env.tag));
                        ep.send(peer, msg(rank, round + 100, 0.0)).unwrap();
                    }
                }
            })
        };
        let closures = vec![mk(0, &fabric, &log), mk(1, &fabric, &log)];
        run(&fabric, closures);
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (1, 100), (0, 1), (1, 101), (0, 2), (1, 102)]
        );
    }

    #[test]
    fn deadlock_becomes_disconnect_error() {
        let fabric = Fabric::new(2);
        let errs: Rc<std::cell::Cell<usize>> = Rc::default();
        let closures: Vec<Box<dyn FnOnce()>> = (0..2)
            .map(|rank| {
                let ep = fabric.endpoint(rank);
                let errs = errs.clone();
                Box::new(move || {
                    // Both ranks recv with nobody sending: a hang on
                    // the threaded backend, a clean error here.
                    if ep.recv(0.0).is_err() {
                        errs.set(errs.get() + 1);
                    }
                }) as Box<dyn FnOnce()>
            })
            .collect();
        run(&fabric, closures);
        assert_eq!(errs.get(), 2);
    }

    #[test]
    fn buffered_envelopes_survive_disconnect() {
        let fabric = Fabric::new(2);
        let got: Rc<std::cell::Cell<u64>> = Rc::default();
        let ep0 = fabric.endpoint(0);
        let ep1 = fabric.endpoint(1);
        let got2 = got.clone();
        let closures: Vec<Box<dyn FnOnce()>> = vec![
            Box::new(move || {
                ep0.send(1, msg(0, 7, 0.0)).unwrap();
                // Exit immediately; rank 1 must still get the envelope.
            }),
            Box::new(move || {
                let env = ep1.recv(0.0).unwrap();
                got2.set(env.tag);
                // Second recv: nothing buffered, nobody left → Err.
                assert!(ep1.recv(0.0).is_err());
            }),
        ];
        run(&fabric, closures);
        assert_eq!(got.get(), 7);
    }

    #[test]
    fn send_to_dropped_endpoint_fails() {
        let fabric = Fabric::new(2);
        let ep0 = fabric.endpoint(0);
        let ep1 = fabric.endpoint(1);
        let closures: Vec<Box<dyn FnOnce()>> = vec![
            Box::new(move || {
                // Wait for rank 1 to finish (it never sends, so we see
                // the disconnect), then observe the dead endpoint.
                assert!(ep0.recv(0.0).is_err());
                assert!(ep0.send(1, msg(0, 0, 0.0)).is_err());
            }),
            Box::new(move || drop(ep1)),
        ];
        run(&fabric, closures);
    }

    #[test]
    fn scheduler_prefers_smallest_virtual_time() {
        // Rank 0 blocks at t=5, rank 1 at t=2; rank 2 sends to both and
        // finishes. Rank 1 (earlier blocked time) must run first.
        let fabric = Fabric::new(3);
        let order: Rc<std::cell::RefCell<Vec<usize>>> = Rc::default();
        let mut closures: Vec<Box<dyn FnOnce()>> = Vec::new();
        for rank in 0..2usize {
            let ep = fabric.endpoint(rank);
            let order = order.clone();
            let t = if rank == 0 { 5.0 } else { 2.0 };
            closures.push(Box::new(move || {
                let _ = ep.recv(t).unwrap();
                order.borrow_mut().push(rank);
            }));
        }
        let ep2 = fabric.endpoint(2);
        closures.push(Box::new(move || {
            // Block once so ranks 0 and 1 are both parked first.
            let _ = ep2.recv(0.0); // disconnect-woken: Err — fine.
            let _ = ep2.send(0, msg(2, 0, 0.0));
            let _ = ep2.send(1, msg(2, 1, 0.0));
        }));
        run(&fabric, closures);
        assert_eq!(*order.borrow(), vec![1, 0]);
    }

    #[test]
    fn rank_panic_propagates_after_others_finish() {
        let fabric = Fabric::new(2);
        let finished: Rc<std::cell::Cell<bool>> = Rc::default();
        let ep0 = fabric.endpoint(0);
        let ep1 = fabric.endpoint(1);
        let fin = finished.clone();
        let closures: Vec<Box<dyn FnOnce()>> = vec![
            Box::new(move || {
                let _ = &ep0;
                panic!("rank 0 exploded");
            }),
            Box::new(move || {
                let _ = &ep1;
                fin.set(true);
            }),
        ];
        let err = panic::catch_unwind(panic::AssertUnwindSafe(|| run(&fabric, closures)))
            .expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"rank 0 exploded"));
        assert!(finished.get(), "other ranks run to completion first");
    }
}
