//! Stackful fibers for the discrete-event engine.
//!
//! A fiber is a rank's closure running on its own stack, suspended and
//! resumed by a cooperative context switch. Only the x86_64 System V
//! callee-saved state needs to travel across a switch: rbp, rbx,
//! r12–r15, and rsp itself. Everything else is caller-saved and the
//! switch is an ordinary `extern "C"` call from the compiler's point
//! of view.
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
//! Panics never unwind across the raw switch: the entry fn catches
//! them (`catch_unwind`) and parks the payload in the state for the
//! scheduler to rethrow (or swallow, for deliberate cancellation).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};

use super::stack::StackSlot;

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
}

/// Entry point called by the asm trampoline on first resume.
///
/// # Safety
/// `state` must point at the live `FiberState` whose stack we are on.
#[no_mangle]
unsafe extern "C" fn mpsim_fiber_entry_rust(state: *mut FiberState) -> ! {
    {
        let st = &*state;
        let entry = st.entry.take().expect("fiber entered twice");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(entry)) {
            st.panic.set(Some(payload));
            st.panicked.set(true);
        }
        st.done.set(true);
    }
    // Final switch back to the scheduler; never returns.
    let st = &*state;
    mpsim_fiber_switch(st.fiber_sp.as_ptr(), st.sched_sp.get());
    unreachable!("finished fiber resumed");
}

pub struct Fiber {
    state: Box<FiberState>,
    stack: StackSlot,
    started: bool,
}

impl Fiber {
    /// Create a fiber that will run `f` on `stack` when first resumed.
    pub fn new(stack: StackSlot, f: Box<dyn FnOnce()>) -> Self {
        let state = Box::new(FiberState {
            fiber_sp: Cell::new(0),
            sched_sp: Cell::new(0),
            done: Cell::new(false),
            entry: Cell::new(Some(f)),
            panic: Cell::new(None),
            panicked: Cell::new(false),
            note: Cell::new(false),
        });
        let mut fiber = Fiber {
            state,
            stack,
            started: false,
        };
        fiber.seed_stack();
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
        self.started = true;
        self.state.note.set(note);
        unsafe {
            mpsim_fiber_switch(self.state.sched_sp.as_ptr(), self.state.fiber_sp.get());
        }
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
        if self.state.done.get() {
            if self.state.panicked.get() {
                Resume::Panicked
            } else {
                Resume::Finished
            }
        } else {
            Resume::Suspended
        }
    }

    /// Remove and return the parked panic payload, if any.
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.state.panic.take()
    }
}

/// Called from *inside* a fiber (via the engine TLS) to switch back to
/// the scheduler. Returns, with the resume's `note`, when the scheduler
/// resumes the fiber.
///
/// # Safety
/// `state` must be the `FiberState` of the currently running fiber.
pub unsafe fn suspend_current(state: *const FiberState) -> bool {
    let st = &*state;
    mpsim_fiber_switch(st.fiber_sp.as_ptr(), st.sched_sp.get());
    st.note.get()
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if !self.started && !self.is_done() {
            // Never ran: just drop the boxed closure.
            self.state.entry.set(None);
        }
        // A started-but-unfinished fiber can only be dropped if the
        // scheduler itself died; its stack objects leak (the engine's
        // cancellation protocol exists precisely to avoid this path in
        // normal operation, including panics).
    }
}

#[cfg(test)]
mod tests {
    use super::super::stack::StackPool;
    use super::*;
    use std::rc::Rc;

    fn spawn(pool: &mut StackPool, f: impl FnOnce() + 'static) -> Fiber {
        Fiber::new(pool.alloc(), Box::new(f))
    }

    #[test]
    fn runs_to_completion() {
        let mut pool = StackPool::new();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        let mut f = spawn(&mut pool, move || h.set(true));
        assert_eq!(f.resume(false), Resume::Finished);
        assert!(hit.get());
    }

    #[test]
    fn yields_and_resumes() {
        let mut pool = StackPool::new();
        let steps = Rc::new(Cell::new(0));
        let ptr_cell = Rc::new(Cell::new(0usize));
        let (s, p) = (steps.clone(), ptr_cell.clone());
        let mut f = spawn(&mut pool, move || {
            s.set(1);
            unsafe { suspend_current(p.get() as *const FiberState) };
            s.set(2);
            unsafe { suspend_current(p.get() as *const FiberState) };
            s.set(3);
        });
        ptr_cell.set(f.state_ptr() as usize);
        assert_eq!(f.resume(false), Resume::Suspended);
        assert_eq!(steps.get(), 1);
        assert_eq!(f.resume(false), Resume::Suspended);
        assert_eq!(steps.get(), 2);
        assert_eq!(f.resume(false), Resume::Finished);
        assert_eq!(steps.get(), 3);
    }

    #[test]
    fn panic_is_parked_not_propagated() {
        let mut pool = StackPool::new();
        let mut f = spawn(&mut pool, || panic!("boom-42"));
        assert_eq!(f.resume(false), Resume::Panicked);
        let payload = f.take_panic().expect("payload parked");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom-42");
    }

    #[test]
    fn deep_locals_survive_switches() {
        let mut pool = StackPool::new();
        let sum = Rc::new(Cell::new(0u64));
        let s = sum.clone();
        let mut f = spawn(&mut pool, move || {
            let data: Vec<u64> = (0..10_000).collect();
            s.set(data.iter().sum());
        });
        assert_eq!(f.resume(false), Resume::Finished);
        assert_eq!(sum.get(), 49_995_000);
    }
}
