//! Slab-allocated fiber stacks.
//!
//! At P = 65536 we cannot afford one `mmap` (plus one guard-page
//! `mprotect`) per rank: each distinct protection range costs a kernel
//! VMA and `vm.max_map_count` defaults to ~65530. Instead stacks are
//! carved out of large slabs — one `mmap` per slab, `MAP_NORESERVE` so
//! untouched pages cost nothing — with a single `PROT_NONE` guard page
//! at the *low* end of the slab (stacks grow down, so the first stack
//! in the slab is hard-guarded) and a software canary just below the
//! base of every stack that the scheduler checks on each
//! suspend/finish. "Just below" is the top 64 bytes of the stack
//! underneath, which that stack never uses: the page they lie in holds
//! its neighbour's oldest frames and is resident anyway, so a rank
//! costs one touched page at spawn, not two, and the check reads a warm
//! line. (The first stack of a slab has the guard page underneath and
//! keeps its canary in its own lowest bytes.)
//!
//! This trades per-stack hardware guards for: (a) a canary that catches
//! overflow at the next fiber switch, and (b) generous default stack
//! sizes (virtual memory is free under `MAP_NORESERVE`). A stack that
//! blows through its canary *and* its neighbour silently is possible in
//! principle but requires skipping >1 MiB in a single frame without
//! touching it — rank closures here are shallow (no recursion in the
//! collectives or trainers).
//!
//! ## Slabs outlive the engine run that mapped them
//!
//! A world is often one of many on its thread (the chaos campaign runs
//! hundreds, the trainers one per grid), and mapping a slab costs an
//! `mmap`, an `mprotect`, two first-touch page faults per stack (seed
//! frame at the top, canary at the base) and a `munmap`. So a pool
//! draws its slabs from a per-thread cache and its `Drop` hands them
//! back, still mapped, pages still resident:
//!
//! * the cache holds at most `MAX_CACHED_SLABS` (64); what a larger world
//!   returns beyond that is unmapped, as is the whole cache when its
//!   thread exits;
//! * a slab is in the cache or in exactly one live pool, so a world run
//!   from inside a rank closure never gets a slab the outer world's
//!   pool has checked out;
//! * a reused stack holds its last fiber's dead frames: [`StackPool::alloc`]
//!   re-arms the canary and `Fiber::new` re-seeds the entry frame, and
//!   nothing else on it is read before it is written. The guard page is
//!   set once when the slab is mapped and never lifted;
//! * every slab has the one stack size that `MPSIM_STACK_KB` set when
//!   the process first read it, so any cached slab fits any pool.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Bytes per fiber stack (virtual; physical pages are faulted lazily).
/// Overridable via `MPSIM_STACK_KB` (see [`stack_bytes`]).
const DEFAULT_STACK_BYTES: usize = 1 << 20; // 1 MiB

/// Floor of `MPSIM_STACK_KB`: smaller values are raised to it.
const MIN_STACK_KB: usize = 64;
/// Ceiling of `MPSIM_STACK_KB` (1 GiB; a slab maps 64 stacks): larger
/// values are rejected.
const MAX_STACK_KB: usize = 1 << 20;

/// Stacks per mmap'd slab. 64 stacks × 1 MiB + 1 guard page per slab
/// keeps the VMA count at P/64 + small change.
const STACKS_PER_SLAB: usize = 64;

/// Slabs a thread keeps mapped between engine runs: the 64 slabs of one
/// 4096-rank world.
const MAX_CACHED_SLABS: usize = 64;

thread_local! {
    /// Mapped slabs no live pool on this thread has checked out.
    static FREE_SLABS: RefCell<Vec<Slab>> = const { RefCell::new(Vec::new()) };
}

/// The stack size a set `MPSIM_STACK_KB` asks for, in bytes: KiB,
/// raised to the 64 KiB floor and rounded up to whole pages.
fn parse_stack_kb(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(kb) if kb <= MAX_STACK_KB => Ok((kb.max(MIN_STACK_KB) * 1024).next_multiple_of(PAGE)),
        _ => Err(format!(
            "MPSIM_STACK_KB={raw:?}: expected a stack size in KiB, an integer up to {MAX_STACK_KB}"
        )),
    }
}

/// Bytes per fiber stack, read from the environment once per process:
/// the cached slabs of every thread must agree on it.
///
/// # Panics
///
/// On every call while `MPSIM_STACK_KB` is set to something
/// [`parse_stack_kb`] rejects.
fn stack_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| match std::env::var_os("MPSIM_STACK_KB") {
        None => DEFAULT_STACK_BYTES,
        Some(raw) => parse_stack_kb(&raw.to_string_lossy()).unwrap_or_else(|msg| panic!("{msg}")),
    })
}

const PAGE: usize = 4096;

/// Canary pattern a stack overflowing its base runs into.
const CANARY: u64 = 0x5ee7_ab1e_dead_57ac;
const CANARY_WORDS: usize = 8;
const CANARY_BYTES: usize = CANARY_WORDS * 8;

#[cfg(target_os = "linux")]
mod sys {
    use std::arch::asm;

    const SYS_MMAP: usize = 9;
    const SYS_MPROTECT: usize = 10;
    const SYS_MUNMAP: usize = 11;

    pub const PROT_NONE: usize = 0;
    pub const PROT_READ_WRITE: usize = 3;
    const MAP_PRIVATE_ANON_NORESERVE: usize = 0x2 | 0x20 | 0x4000;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> usize {
        let ret;
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn is_err(ret: usize) -> bool {
        ret > usize::MAX - 4096
    }

    /// Anonymous private no-reserve mapping, readable+writable.
    pub unsafe fn map_anon(len: usize) -> Option<*mut u8> {
        let ret = syscall6(
            SYS_MMAP,
            0,
            len,
            PROT_READ_WRITE,
            MAP_PRIVATE_ANON_NORESERVE,
            usize::MAX, // fd = -1
            0,
        );
        if is_err(ret) {
            None
        } else {
            Some(ret as *mut u8)
        }
    }

    pub unsafe fn protect(addr: *mut u8, len: usize, prot: usize) -> bool {
        !is_err(syscall6(SYS_MPROTECT, addr as usize, len, prot, 0, 0, 0))
    }

    pub unsafe fn unmap(addr: *mut u8, len: usize) {
        let _ = syscall6(SYS_MUNMAP, addr as usize, len, 0, 0, 0, 0);
    }
}

/// One carved-out stack. `base` is the lowest address; the usable top
/// is `base + len` less the `CANARY_BYTES` kept for the canary of the
/// stack above, 16-byte aligned.
#[derive(Clone, Copy)]
pub struct StackSlot {
    base: *mut u8,
    len: usize,
    /// This stack's canary: the `CANARY_BYTES` below `base`, or for
    /// the first stack of a slab the ones from `base` up.
    canary: *mut u64,
}

impl StackSlot {
    /// Highest usable address (stacks grow down from here).
    pub fn top(&self) -> usize {
        (self.base as usize + self.len - CANARY_BYTES) & !15
    }

    /// Write the canary pattern.
    pub fn arm_canary(&self) {
        // SAFETY: `canary` points at CANARY_BYTES of the slab this slot
        // was carved from, which no stack's usable range covers.
        unsafe {
            for i in 0..CANARY_WORDS {
                self.canary.add(i).write(CANARY);
            }
        }
    }

    /// True iff the canary is intact.
    pub fn canary_ok(&self) -> bool {
        // SAFETY: as in `arm_canary`.
        unsafe { (0..CANARY_WORDS).all(|i| self.canary.add(i).read() == CANARY) }
    }
}

struct Slab {
    addr: *mut u8,
    len: usize,
}

impl Slab {
    /// Maps a slab of [`STACKS_PER_SLAB`] stacks of `stack_bytes` above
    /// one guard page.
    fn map(stack_bytes: usize) -> Slab {
        count_map();
        let len = PAGE + STACKS_PER_SLAB * stack_bytes;
        #[cfg(target_os = "linux")]
        let addr = unsafe {
            let a = sys::map_anon(len).expect("mpsim: mmap for fiber stacks failed");
            // Hard guard page at the low end of the slab.
            assert!(
                sys::protect(a, PAGE, sys::PROT_NONE),
                "mpsim: mprotect guard page failed"
            );
            a
        };
        #[cfg(not(target_os = "linux"))]
        let addr = {
            let mut v = vec![0u8; len];
            let a = v.as_mut_ptr();
            std::mem::forget(v);
            a
        };
        Slab { addr, len }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        unsafe {
            sys::unmap(self.addr, self.len);
        }
        #[cfg(not(target_os = "linux"))]
        unsafe {
            // Fallback path allocates via Vec; reconstitute and drop.
            drop(Vec::from_raw_parts(self.addr, 0, self.len));
        }
    }
}

/// Holds every slab of one engine run, checked out of the thread's
/// cache (or freshly mapped) and handed back on drop; individual stacks
/// are never freed early (fibers live as long as the engine), so there
/// is no free-list — just a bump cursor over slabs.
pub struct StackPool {
    slabs: Vec<Slab>,
    stack_bytes: usize,
    cursor: Cell<usize>, // index of next unallocated stack in last slab
}

impl Default for StackPool {
    fn default() -> Self {
        Self::new()
    }
}

impl StackPool {
    /// # Panics
    ///
    /// If `MPSIM_STACK_KB` is set and is not a stack size in KiB.
    pub fn new() -> Self {
        StackPool {
            slabs: Vec::new(),
            stack_bytes: stack_bytes(),
            cursor: Cell::new(STACKS_PER_SLAB),
        }
    }

    fn grow(&mut self) {
        // `try_with`: where the thread's cache is already destroyed (a
        // world run from a later thread-local's destructor), map afresh.
        let cached = FREE_SLABS.try_with(|free| free.borrow_mut().pop());
        let slab = match cached {
            Ok(Some(slab)) => slab,
            _ => Slab::map(self.stack_bytes),
        };
        self.slabs.push(slab);
        self.cursor.set(0);
    }

    /// Hand out the next stack slot; canary is armed.
    pub fn alloc(&mut self) -> StackSlot {
        if self.cursor.get() >= STACKS_PER_SLAB {
            self.grow();
        }
        let i = self.cursor.get();
        self.cursor.set(i + 1);
        let slab = self.slabs.last().expect("slab just grown");
        // SAFETY: both offsets lie inside the slab's mapping.
        let base = unsafe { slab.addr.add(PAGE + i * self.stack_bytes) };
        let canary = unsafe { base.sub(if i == 0 { 0 } else { CANARY_BYTES }) };
        let slot = StackSlot {
            base,
            len: self.stack_bytes,
            canary: canary.cast(),
        };
        slot.arm_canary();
        slot
    }
}

impl Drop for StackPool {
    /// Hands the slabs back to the thread's cache up to its bound; the
    /// rest — all of them, if the cache is already destroyed — unmap as
    /// `self.slabs` drops.
    fn drop(&mut self) {
        let _ = FREE_SLABS.try_with(|free| {
            let mut free = free.borrow_mut();
            let room = MAX_CACHED_SLABS.saturating_sub(free.len());
            free.extend(self.slabs.drain(..room.min(self.slabs.len())));
        });
    }
}

/// Test hook: [`Slab::map`] reports each mapping to the unit tests'
/// per-thread counter.
#[cfg(not(test))]
fn count_map() {}
#[cfg(test)]
fn count_map() {
    tests::MAPS.with(|m| m.set(m.get() + 1));
}

/// What this thread's slab cache has done so far, for the crate's unit
/// tests: `(slabs mapped, slabs cached now)`.
#[cfg(test)]
pub(crate) fn slab_counters() -> (usize, usize) {
    (tests::MAPS.get(), FREE_SLABS.with(|f| f.borrow().len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Slabs [`Slab::map`] has mapped on this thread.
        pub(super) static MAPS: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn slots_are_disjoint_and_aligned() {
        let mut pool = StackPool::new();
        let a = pool.alloc();
        let b = pool.alloc();
        assert_eq!(a.top() % 16, 0);
        assert_eq!(b.top() % 16, 0);
        assert!(a.top() <= b.base as usize || b.top() <= a.base as usize);
        assert!(a.canary_ok() && b.canary_ok());
    }

    /// On a fresh slab and again on the same slab reused: `alloc` arms
    /// the canary whatever the last tenant left there.
    #[test]
    fn canary_detects_clobber() {
        let mut bases = Vec::new();
        for _ in 0..2 {
            let mut pool = StackPool::new();
            let s = pool.alloc();
            assert!(s.canary_ok());
            unsafe { (s.base as *mut u64).write(0) };
            assert!(!s.canary_ok());
            // A later stack of the slab: the first word under its base
            // is its canary, above the usable top of the stack below.
            let t = pool.alloc();
            assert!(s.top() <= t.base as usize - CANARY_BYTES && t.canary_ok());
            unsafe { (t.base as *mut u64).sub(1).write(0) };
            assert!(!t.canary_ok());
            bases.push(s.base);
        }
        assert_eq!(bases[0], bases[1], "the second pool reused the slab");
        assert_eq!(slab_counters(), (1, 1));
    }

    #[test]
    fn pool_spans_multiple_slabs() {
        let mut pool = StackPool::new();
        let slots: Vec<StackSlot> = (0..STACKS_PER_SLAB + 3).map(|_| pool.alloc()).collect();
        assert!(pool.slabs.len() >= 2);
        for s in &slots {
            assert!(s.canary_ok());
        }
    }

    /// A pool that opens while another is live (a world inside a rank
    /// closure) gets slabs the first has not checked out, and both go
    /// back to the cache.
    #[test]
    fn live_pools_never_share_a_slab() {
        StackPool::new().alloc(); // leaves one slab cached
        let mut outer = StackPool::new();
        let a = outer.alloc();
        let mut inner = StackPool::new();
        let b = inner.alloc();
        assert_eq!(slab_counters(), (2, 0), "inner mapped its own slab");
        assert!(a.top() <= b.base as usize || b.top() <= a.base as usize);
        drop(inner);
        assert!(a.canary_ok());
        drop(outer);
        assert_eq!(slab_counters(), (2, 2));
    }

    #[test]
    fn stack_kb_parser_accepts_sizes_and_rejects_garbage() {
        assert_eq!(parse_stack_kb("256"), Ok(256 * 1024));
        assert_eq!(parse_stack_kb("1024"), Ok(DEFAULT_STACK_BYTES));
        assert_eq!(parse_stack_kb(" 130 "), Ok(132 * 1024), "page-rounded");
        // Below the floor: raised to it, as before.
        assert_eq!(parse_stack_kb("8"), Ok(MIN_STACK_KB * 1024));
        assert_eq!(parse_stack_kb("0"), Ok(MIN_STACK_KB * 1024));
        let too_large = (MAX_STACK_KB + 1).to_string();
        for garbage in ["", "1M", "-64", "64.0", "lots", "\u{fffd}", &too_large] {
            let err = parse_stack_kb(garbage).expect_err(garbage);
            let wording = format!("MPSIM_STACK_KB={garbage:?}: expected a stack size in KiB");
            assert!(err.starts_with(&wording), "{err}");
        }
    }
}
