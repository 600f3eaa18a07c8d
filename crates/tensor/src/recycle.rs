//! The one buffer-reuse mechanism of the data path: a thread-local free
//! list that [`crate::Matrix`] buffers retire to and are drawn from.
//!
//! Why a free list and not buffers owned by the caller: the trainers
//! run as hundreds of short-lived ranks — fibers of one host thread —
//! whose matrices all die when their world ends. The system allocator
//! then trims the freed heap back to the kernel, and the next world
//! faults every page in again (measured: ≈ 90 k minor faults and a
//! fifth of the CPU time of an `fc_1p5d` pass). Reuse *inside* a rank
//! cannot help across that boundary; a list on the thread can, because
//! the buffer one rank drops is exactly what the next rank, or the next
//! world, asks for.
//!
//! The list sizes itself: idle and in-use words together never exceed
//! half the most words the thread's matrices have held at once
//! (`retained + live ≤ peak live / 2`, enforced by evicting the largest
//! buffers first). Under load that leaves the list empty — the system
//! allocator recycles inside a busy heap well enough — and between
//! worlds it keeps about half of the last footprint mapped for the
//! next one. Why half: on `fc_1p5d` a full high-water list saves no
//! more time than a half one (≈ 0.10 M against ≈ 0.26 M minor faults
//! per run, where a build without the list has 1.28 M; the same
//! `wall_rel` within noise) and costs 40 MB of resident memory;
//! EXPERIMENTS.md has the table.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Buffers below this many words (one 4 KB page) are left to the
/// system allocator, which serves them from already-mapped bins.
const MIN_WORDS: usize = 512;

#[derive(Default)]
struct FreeList {
    /// Retired buffers by capacity; each keeps `len == capacity`, so
    /// handing one out never needs a fill.
    by_cap: BTreeMap<usize, Vec<Vec<f64>>>,
    /// Words held in `by_cap`.
    retained: usize,
    /// Words currently out in live matrices of this thread.
    live: usize,
    /// High-water mark of `live`.
    peak_live: usize,
}

impl FreeList {
    /// Frees the largest retired buffers until
    /// `retained + live ≤ peak_live / 2`.
    fn evict(&mut self) {
        let room = (self.peak_live / 2).saturating_sub(self.live);
        while self.retained > room {
            let mut class = self.by_cap.last_entry().expect("retained > 0");
            let buf = class.get_mut().pop().expect("no empty size class is kept");
            if class.get().is_empty() {
                class.remove();
            }
            self.retained -= buf.capacity();
        }
    }
}

thread_local! {
    static FREE: RefCell<FreeList> = RefCell::new(FreeList::default());
}

/// A buffer of exactly `len` words. `true`: freshly allocated and all
/// zeros. `false`: a retired buffer whose contents are whatever its
/// last owner left — initialized, but stale.
fn take(len: usize) -> (Vec<f64>, bool) {
    let hit = FREE
        .try_with(|cell| {
            let mut fl = cell.borrow_mut();
            let mut found = None;
            if len >= MIN_WORDS {
                // Smallest retired buffer that fits without wasting
                // more than it serves.
                if let Some((&cap, bufs)) = fl.by_cap.range_mut(len..=2 * len).next() {
                    let buf = bufs.pop().expect("no empty size class is kept");
                    if bufs.is_empty() {
                        fl.by_cap.remove(&cap);
                    }
                    fl.retained -= cap;
                    found = Some(buf);
                }
            }
            fl.live += found.as_ref().map_or(len, |b| b.capacity());
            fl.peak_live = fl.peak_live.max(fl.live);
            found
        })
        .ok()
        .flatten();
    match hit {
        Some(mut buf) => {
            buf.truncate(len);
            (buf, false)
        }
        None => (vec![0.0; len], true),
    }
}

/// `len` words of zeros.
pub(crate) fn zeroed(len: usize) -> Vec<f64> {
    let (mut buf, fresh) = take(len);
    if !fresh {
        buf.fill(0.0);
    }
    buf
}

/// `len` words the caller is about to overwrite entirely; contents
/// unspecified.
pub(crate) fn stale(len: usize) -> Vec<f64> {
    take(len).0
}

/// Accounts for a buffer that enters a live matrix without coming from
/// the list (`Matrix::from_vec`).
pub(crate) fn adopt(words: usize) {
    let _ = FREE.try_with(|cell| {
        let mut fl = cell.borrow_mut();
        fl.live += words;
        fl.peak_live = fl.peak_live.max(fl.live);
    });
}

/// Accounts for a buffer that leaves a live matrix without retiring to
/// the list (`Matrix::into_vec`).
pub(crate) fn release(words: usize) {
    let _ = FREE.try_with(|cell| {
        let mut fl = cell.borrow_mut();
        // A matrix may die on another thread than it was born on.
        fl.live = fl.live.saturating_sub(words);
        fl.evict();
    });
}

/// Retires a dropped matrix's buffer to the list (sub-page buffers and
/// anything dropped during thread teardown are simply freed), then
/// re-establishes the list's bound.
pub(crate) fn give(mut buf: Vec<f64>) {
    let cap = buf.capacity();
    let _ = FREE.try_with(|cell| {
        let mut fl = cell.borrow_mut();
        fl.live = fl.live.saturating_sub(cap);
        if cap >= MIN_WORDS {
            // Restore `len == capacity`: the tail beyond the old length
            // may never have been written.
            buf.resize(cap, 0.0);
            fl.retained += cap;
            fl.by_cap.entry(cap).or_default().push(buf);
        }
        fl.evict();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retained() -> usize {
        FREE.with(|c| c.borrow().retained)
    }

    /// Raises the thread's high-water mark so the tests below have
    /// room to retire buffers into.
    fn high_water(words: usize) {
        give(zeroed(words));
    }

    #[test]
    fn a_retired_buffer_serves_the_next_request_of_its_size() {
        high_water(1 << 16);
        let a = zeroed(4096);
        let ptr = a.as_ptr();
        give(a);
        assert_eq!(retained(), 4096);
        let b = stale(4000);
        assert_eq!(b.as_ptr(), ptr, "same allocation handed back");
        assert_eq!(b.len(), 4000);
        assert_eq!(retained(), 0);
        // An oversized retiree does not serve a small request.
        give(b);
        assert!(take(1024).1, "a 4096-word buffer is too big for 1024");
    }

    #[test]
    fn zeroed_is_zero_even_from_a_dirty_buffer_and_small_ones_bypass_the_list() {
        high_water(1 << 16);
        let mut a = zeroed(2048);
        a.fill(7.0);
        give(a);
        assert_eq!(retained(), 2048);
        assert!(zeroed(2048).iter().all(|&v| v == 0.0));
        let before = retained();
        give(zeroed(MIN_WORDS - 1));
        assert_eq!(retained(), before, "sub-page buffers go to the allocator");
    }

    #[test]
    fn idle_plus_in_use_stays_under_half_the_high_water_mark() {
        // High water: eight buffers at once.
        let all: Vec<_> = (0..8).map(|_| zeroed(8192)).collect();
        let mut all = all.into_iter();
        let in_use: Vec<_> = all.by_ref().take(1).collect();
        all.for_each(give);
        // One in use: room for three idle (4 · 8192 = half the mark).
        assert_eq!(retained(), 3 * 8192);
        // More in use squeezes the list; the new buffers are fresh ones
        // only once the list is empty.
        let more: Vec<_> = (0..4).map(|_| stale(8192)).collect();
        assert_eq!(retained(), 0, "in use ≥ half the mark: nothing idle");
        more.into_iter().chain(in_use).for_each(give);
        assert!(retained() <= 4 * 8192);
    }
}
