//! The counting allocator the allocation-budget tests share: a test
//! binary installs it with `#[global_allocator]` and reads
//! [`allocated`] around the code it measures. One `#[test]` per such
//! binary: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes requested from the system allocator so far (never decreases:
/// frees are not subtracted).
pub fn allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

// SAFETY: defers every operation to `System` unchanged; the counter is
// a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
