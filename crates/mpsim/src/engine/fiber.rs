//! Fibers: a rank's closure, resumed by the scheduler and suspended by
//! itself, one turn at a time.
//!
//! Two [`Switch`]es hand the turn over, and nothing outside this module
//! learns which one is running:
//!
//! * [`Switch::Asm`], the engine's: a cooperative context switch onto a
//!   slab stack (below);
//! * [`Switch::Thread`], the differential-testing oracle's: the closure
//!   runs on an OS thread of its own, spawned on first resume, parked
//!   while it does not hold the turn and joined once it finishes. It
//!   shares every line of the engine with the asm switch except the
//!   `unsafe` ones — the asm, the slabs and the canaries — so a result
//!   that differs between the two convicts those.
//!
//! Only the x86_64 System V callee-saved state needs to travel across
//! an asm switch: rbp, rbx, r12–r15, and rsp itself. Everything else is
//! caller-saved and the switch is an ordinary `extern "C"` call from
//! the compiler's point of view.
//!
//! The switch protocol: `fiber_switch(save, restore)` pushes the six
//! callee-saved registers, stores the resulting rsp through `save`,
//! installs `restore` as rsp, pops six registers and returns. A brand
//! new fiber's stack is pre-seeded so those pops produce a pointer to
//! its [`FiberState`] in r12 and the "return" lands in a naked
//! trampoline that moves r12 into rdi, aligns the stack, and calls the
//! Rust entry — so the very first resume is indistinguishable from any
//! later one.
//!
//! Panics never unwind across a switch: the entry catches them
//! (`catch_unwind`) and parks the payload in the state for the
//! scheduler to rethrow (or swallow, for deliberate cancellation).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::stack::StackSlot;
use super::{lock, wait, CURRENT};

#[cfg(all(target_arch = "x86_64", any(target_os = "linux", target_os = "macos")))]
std::arch::global_asm!(
    // fn mpsim_fiber_switch(save: *mut usize /*rdi*/, restore: usize /*rsi*/)
    ".globl mpsim_fiber_switch",
    // Some toolchains want .type/.size; keep it minimal and portable.
    "mpsim_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // First-entry trampoline: the seeded stack "returns" here with the
    // FiberState pointer in r12.
    ".globl mpsim_fiber_entry_tramp",
    "mpsim_fiber_entry_tramp:",
    "mov rdi, r12",
    "and rsp, -16",
    "call mpsim_fiber_entry_rust",
    "ud2",
);

extern "C" {
    fn mpsim_fiber_switch(save: *mut usize, restore: usize);
    #[allow(dead_code)]
    fn mpsim_fiber_entry_tramp();
}

/// What a resume observed about the fiber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// The fiber yielded (blocked); it can be resumed again.
    Suspended,
    /// The closure returned normally.
    Finished,
    /// The closure panicked; the payload is parked in the state.
    Panicked,
}

/// Shared mutable cell between the scheduler and one fiber. Kept in a
/// `Box` so its address is stable across switches (the trampoline
/// carries the raw pointer in r12).
pub struct FiberState {
    /// Suspended fiber's rsp (valid while suspended).
    fiber_sp: Cell<usize>,
    /// Scheduler's rsp while the fiber runs (valid while running).
    sched_sp: Cell<usize>,
    /// Set once the closure has returned or panicked.
    done: Cell<bool>,
    /// The closure, present until first entry.
    entry: Cell<Option<Box<dyn FnOnce()>>>,
    /// Parked panic payload, if the closure panicked.
    panic: Cell<Option<Box<dyn Any + Send>>>,
    /// True iff `panic` was ever set (survives `take_panic`).
    panicked: Cell<bool>,
    /// What the scheduler passed to the resume in progress; handed to
    /// the fiber as [`suspend_current`]'s return value.
    note: Cell<bool>,
    /// The turn, on a [`Switch::Thread`] fiber.
    baton: Option<Arc<Baton>>,
}

/// How a fiber gets and gives back the turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switch {
    /// The asm context switch onto the fiber's slab stack.
    Asm,
    /// A parked OS thread per fiber, handed the turn through a mutex.
    Thread,
}

/// Whose turn it is on a [`Switch::Thread`] fiber: `true` while its
/// thread runs, `false` while the scheduler does.
#[derive(Default)]
struct Baton {
    rank_turn: Mutex<bool>,
    passed: Condvar,
}

impl Baton {
    /// Hands the turn to the fiber's thread (`true`) or the scheduler.
    /// Only the other side can be waiting, so one notify reaches it.
    fn give(&self, to_rank: bool) {
        *lock(&self.rank_turn) = to_rank;
        self.passed.notify_one();
    }

    /// Waits until the turn is the fiber's thread's (`true`) or the
    /// scheduler's.
    fn take(&self, rank: bool) {
        let mut turn = lock(&self.rank_turn);
        while *turn != rank {
            turn = wait(&self.passed, turn);
        }
    }
}

/// What a [`Switch::Thread`] fiber's thread starts from: the fiber's
/// state, the rank's closure in it.
struct Handover(*const FiberState);

// SAFETY: the pointer's target, the state, is only touched by the side
// that holds the baton, and every handover passes through the baton's
// mutex, which orders the accesses before it against those after. That
// covers the closure in the state, which need not be `Send`: it runs and
// is dropped on the fiber's thread under the turn, and what it captured
// is shared with the scheduler's thread exactly as on the asm switch,
// one side at a time. The scheduler joins a finished fiber's thread
// before it does anything else, so not even that thread's exit runs
// beside it. A fiber dropped unfinished leaves its thread parked on the
// baton's own `Arc`, never to touch the state again.
unsafe impl Send for Handover {}

impl Handover {
    /// Called inside the thread's closure, so that the closure captures
    /// the whole `Handover` rather than its bare (non-`Send`) pointer.
    fn state(self) -> *const FiberState {
        self.0
    }
}

/// Runs the closure parked in `st`, parks its panic if it has one, and
/// marks the fiber done.
fn enter(st: &FiberState) {
    let entry = st.entry.take().expect("fiber entered twice");
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(entry)) {
        st.panic.set(Some(payload));
        st.panicked.set(true);
    }
    st.done.set(true);
}

/// Entry point called by the asm trampoline on first resume.
///
/// # Safety
/// `state` must point at the live `FiberState` whose stack we are on.
#[no_mangle]
unsafe extern "C" fn mpsim_fiber_entry_rust(state: *mut FiberState) -> ! {
    let st = &*state;
    enter(st);
    // Final switch back to the scheduler; never returns.
    mpsim_fiber_switch(st.fiber_sp.as_ptr(), st.sched_sp.get());
    unreachable!("finished fiber resumed");
}

pub struct Fiber {
    state: Box<FiberState>,
    stack: StackSlot,
    started: bool,
    /// A [`Switch::Thread`] fiber's thread, from first resume to finish.
    thread: Option<JoinHandle<()>>,
}

impl Fiber {
    /// Create a fiber that will run `f` when first resumed: on `stack`,
    /// or on a thread of its own.
    pub fn new(stack: StackSlot, f: Box<dyn FnOnce()>, switch: Switch) -> Self {
        let state = Box::new(FiberState {
            fiber_sp: Cell::new(0),
            sched_sp: Cell::new(0),
            done: Cell::new(false),
            entry: Cell::new(Some(f)),
            panic: Cell::new(None),
            panicked: Cell::new(false),
            note: Cell::new(false),
            baton: (switch == Switch::Thread).then(Arc::default),
        });
        let mut fiber = Fiber {
            state,
            stack,
            started: false,
            thread: None,
        };
        if switch == Switch::Asm {
            fiber.seed_stack();
        }
        fiber
    }

    /// Lay out the initial frame so the first `mpsim_fiber_switch` into
    /// this stack pops zeros into r15/r14/r13, the state pointer into
    /// r12, zeros into rbx/rbp, and "returns" into the trampoline.
    fn seed_stack(&mut self) {
        let top = self.stack.top();
        let state_ptr = &*self.state as *const FiberState as usize;
        unsafe {
            let sp = top as *mut usize;
            // Stack grows down; write the frame top-down.
            sp.sub(1)
                .write(mpsim_fiber_entry_tramp as *const () as usize); // ret target
            sp.sub(2).write(0); // rbp
            sp.sub(3).write(0); // rbx
            sp.sub(4).write(state_ptr); // r12
            sp.sub(5).write(0); // r13
            sp.sub(6).write(0); // r14
            sp.sub(7).write(0); // r15
            self.state.fiber_sp.set(sp.sub(7) as usize);
        }
    }

    /// Raw pointer to the shared state, for the running fiber's TLS.
    pub fn state_ptr(&self) -> *const FiberState {
        &*self.state
    }

    pub fn is_done(&self) -> bool {
        self.state.done.get()
    }

    /// Switch from the scheduler into the fiber until it yields or
    /// finishes; the [`suspend_current`] this wakes it from returns
    /// `note`. Must only be called from the scheduler's own stack, on
    /// the thread every earlier resume of this fiber was made from.
    pub fn resume(&mut self, note: bool) -> Resume {
        debug_assert!(!self.is_done(), "resumed a finished fiber");
        self.state.note.set(note);
        match &self.state.baton {
            None => unsafe {
                mpsim_fiber_switch(self.state.sched_sp.as_ptr(), self.state.fiber_sp.get());
            },
            Some(baton) => {
                if !self.started {
                    self.thread = Some(spawn_parked(Handover(&*self.state), Arc::clone(baton)));
                }
                baton.give(true);
                baton.take(false);
            }
        }
        self.started = true;
        if !self.stack.canary_ok() {
            // The stack overflowed past its red zone into the canary;
            // neighbouring stacks may already be corrupt. Unwinding
            // through corrupted frames would make it worse — die hard.
            eprintln!(
                "mpsim: fiber stack overflow detected (canary clobbered); \
                 raise MPSIM_STACK_KB. aborting."
            );
            std::process::abort();
        }
        if !self.state.done.get() {
            return Resume::Suspended;
        }
        if let Some(thread) = self.thread.take() {
            thread.join().expect("the closure's panic was caught");
        }
        if self.state.panicked.get() {
            Resume::Panicked
        } else {
            Resume::Finished
        }
    }

    /// Remove and return the parked panic payload, if any.
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.state.panic.take()
    }
}

/// Starts a [`Switch::Thread`] fiber's thread, which waits for its first
/// turn. Like a fiber on the asm switch it is the running fiber of its
/// thread for as long as it lives: `CURRENT` names its state.
fn spawn_parked(handover: Handover, baton: Arc<Baton>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("mpsim-rank".into())
        .spawn(move || {
            let state = handover.state();
            baton.take(true);
            CURRENT.set(state);
            // SAFETY: the scheduler, which owns the state, holds still
            // until it has the turn back, and `enter` runs on our turn.
            enter(unsafe { &*state });
            baton.give(false);
        })
        .expect("mpsim: cannot start a rank thread")
}

/// Called from *inside* a fiber (via the engine TLS) to hand the turn
/// back to the scheduler. Returns, with the resume's `note`, when the
/// scheduler resumes the fiber.
///
/// # Safety
/// `state` must be the `FiberState` of the currently running fiber.
pub unsafe fn suspend_current(state: *const FiberState) -> bool {
    let st = &*state;
    match &st.baton {
        None => mpsim_fiber_switch(st.fiber_sp.as_ptr(), st.sched_sp.get()),
        Some(baton) => {
            // Our own handle: the scheduler may drop the fiber while we
            // wait for a turn it then never gives.
            let baton = Arc::clone(baton);
            baton.give(false);
            baton.take(true);
        }
    }
    st.note.get()
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if !self.started && !self.is_done() {
            // Never ran: just drop the boxed closure.
            self.state.entry.set(None);
        }
        // A started-but-unfinished fiber can only be dropped if the
        // scheduler itself died; its stack objects leak, or its thread
        // stays parked (the engine's cancellation protocol exists
        // precisely to avoid this path in normal operation, including
        // panics).
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::stack::StackPool;
    use super::*;
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Output};
    use std::rc::Rc;

    /// Every test below runs on both switches.
    pub(in crate::engine) const SWITCHES: [Switch; 2] = [Switch::Asm, Switch::Thread];

    fn spawn(pool: &mut StackPool, switch: Switch, f: impl FnOnce() + 'static) -> Fiber {
        Fiber::new(pool.alloc(), Box::new(f), switch)
    }

    #[test]
    fn runs_to_completion() {
        for switch in SWITCHES {
            let mut pool = StackPool::new();
            let hit = Rc::new(Cell::new(false));
            let h = hit.clone();
            let mut f = spawn(&mut pool, switch, move || h.set(true));
            assert_eq!(f.resume(false), Resume::Finished, "{switch:?}");
            assert!(hit.get());
        }
    }

    #[test]
    fn yields_and_resumes() {
        for switch in SWITCHES {
            let mut pool = StackPool::new();
            let steps = Rc::new(Cell::new(0));
            let notes = Rc::new(Cell::new(0));
            let ptr_cell = Rc::new(Cell::new(0usize));
            let (s, n, p) = (steps.clone(), notes.clone(), ptr_cell.clone());
            let mut f = spawn(&mut pool, switch, move || {
                s.set(1);
                let note = unsafe { suspend_current(p.get() as *const FiberState) };
                n.set(n.get() + usize::from(note));
                s.set(2);
                let note = unsafe { suspend_current(p.get() as *const FiberState) };
                n.set(n.get() + 10 * usize::from(note));
                s.set(3);
            });
            ptr_cell.set(f.state_ptr() as usize);
            assert_eq!(f.resume(false), Resume::Suspended);
            assert_eq!(steps.get(), 1);
            assert_eq!(f.resume(true), Resume::Suspended);
            assert_eq!(steps.get(), 2);
            assert_eq!(f.resume(false), Resume::Finished);
            assert_eq!((steps.get(), notes.get()), (3, 1), "{switch:?}");
        }
    }

    #[test]
    fn panic_is_parked_not_propagated() {
        for switch in SWITCHES {
            let mut pool = StackPool::new();
            let mut f = spawn(&mut pool, switch, || panic!("boom-42"));
            assert_eq!(f.resume(false), Resume::Panicked, "{switch:?}");
            let payload = f.take_panic().expect("payload parked");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "boom-42");
        }
    }

    #[test]
    fn deep_locals_survive_switches() {
        for switch in SWITCHES {
            let mut pool = StackPool::new();
            let sum = Rc::new(Cell::new(0u64));
            let s = sum.clone();
            let mut f = spawn(&mut pool, switch, move || {
                let data: Vec<u64> = (0..10_000).collect();
                s.set(data.iter().sum());
            });
            assert_eq!(f.resume(false), Resume::Finished, "{switch:?}");
            assert_eq!(sum.get(), 49_995_000);
        }
    }

    /// Set in the child copy of the test binary that the two overflow
    /// tests below start.
    const CHILD: &str = "MPSIM_FIBER_OVERFLOW_CHILD";

    /// In this process: runs test `name` alone in a child copy of the
    /// test binary with 64 KiB stacks and returns how the child ended.
    /// In that child: runs `overflow`, which must not return.
    fn in_child(name: &str, overflow: impl FnOnce()) -> Output {
        if std::env::var_os(CHILD).is_some() {
            overflow();
            panic!("the overflow returned");
        }
        let exe = std::env::current_exe().expect("test binary path");
        Command::new(exe)
            .args([name, "--exact", "--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .env("MPSIM_STACK_KB", "64")
            .output()
            .expect("child test binary runs")
    }

    /// Recurses in 1 KiB frames, each written in full, until a frame
    /// lies below `floor`.
    fn burn_down_to(floor: usize) -> u64 {
        let frame = std::hint::black_box([floor as u64; 128]);
        if frame.as_ptr() as usize <= floor {
            return frame[0];
        }
        burn_down_to(floor).wrapping_add(std::hint::black_box(&frame)[1])
    }

    /// Runs [`burn_down_to`] as a fiber on `stack`, `depth` bytes below
    /// its top.
    fn overflow_on(stack: StackSlot, depth: usize) {
        let floor = stack.top() - depth;
        let mut f = Fiber::new(
            stack,
            Box::new(move || {
                std::hint::black_box(burn_down_to(floor));
            }),
            Switch::Asm,
        );
        f.resume(false);
    }

    /// The first stack of a slab sits on its guard page: running off its
    /// end is a hardware fault, not a silent write.
    #[test]
    fn overflowing_the_guarded_stack_is_a_sigsegv() {
        let out = in_child(
            "engine::fiber::tests::overflowing_the_guarded_stack_is_a_sigsegv",
            || overflow_on(StackPool::new().alloc(), 128 << 10),
        );
        assert_eq!(out.status.signal(), Some(11), "{out:?}");
    }

    /// Any other stack sits on its neighbour: running 4 KiB past its end
    /// writes over the canary there, and the switch back aborts.
    #[test]
    fn overflowing_a_stack_onto_its_neighbour_aborts() {
        let out = in_child(
            "engine::fiber::tests::overflowing_a_stack_onto_its_neighbour_aborts",
            || {
                let mut pool = StackPool::new();
                let _below = pool.alloc();
                overflow_on(pool.alloc(), (64 + 4) << 10);
            },
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.signal(), Some(6), "{out:?}");
        assert!(stderr.contains("canary clobbered"), "{stderr}");
    }
}
