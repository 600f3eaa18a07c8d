//! Block partitioning of a buffer across ranks.

use std::ops::Range;

/// Splits `0..n` into `p` contiguous blocks whose sizes differ by at
/// most one: block `i` is `(i*n/p)..((i+1)*n/p)`. This is the standard
/// MPI block distribution and keeps ring collectives balanced for any
/// `n`.
pub fn block_range(n: usize, p: usize, i: usize) -> Range<usize> {
    debug_assert!(i < p, "block index {i} out of {p}");
    (i * n) / p..((i + 1) * n) / p
}

/// The elements of block `i` when `n` words of rows of `row` words each
/// are split over `p` ranks on whole rows: rows
/// `block_range(n / row, p, i)`.
///
/// # Panics
///
/// Panics unless the `n` words are whole rows.
pub(crate) fn row_block_range(n: usize, row: usize, p: usize, i: usize) -> Range<usize> {
    let whole = n == 0 || (row > 0 && n % row == 0);
    assert!(whole, "{n} words in rows of {row}");
    let rows = block_range(n.checked_div(row).unwrap_or(0), p, i);
    rows.start * row..rows.end * row
}

/// Where each of `p` blocks starts in a buffer of `n` words whose first
/// `n − riders` are cut on whole rows of `row` words ([`block_range`]'s
/// cut of the rows) and whose last `riders` words ride in block `p − 1`:
/// the closure maps block `b` to its first word, and `p` to `n`. Riders
/// move no cut, so every other word keeps the block, and the reduction
/// tree, it has in the buffer without them.
pub(crate) fn starts(n: usize, riders: usize, row: usize, p: usize) -> impl Fn(usize) -> usize {
    let rows = (n - riders).checked_div(row).unwrap_or(0);
    move |b| if b == p { n } else { b * rows / p * row }
}

/// `data` cut down to its elements `keep`, in place.
pub(crate) fn keep(mut data: Vec<f64>, keep: Range<usize>) -> Vec<f64> {
    data.truncate(keep.end);
    data.drain(..keep.start);
    data
}

/// All `p` block ranges for a buffer of length `n`.
pub fn block_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
    (0..p).map(|i| block_range(n, p, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn covers_exactly_once() {
        let ranges = block_ranges(10, 3);
        assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
    }

    #[test]
    fn handles_more_ranks_than_elements() {
        let ranges = block_ranges(2, 4);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 2);
        // Ranges remain monotone and contiguous.
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    proptest! {
        #[test]
        fn partition_is_contiguous_and_balanced(n in 0usize..1000, p in 1usize..64) {
            let ranges = block_ranges(n, p);
            prop_assert_eq!(ranges[0].start, 0);
            prop_assert_eq!(ranges[p - 1].end, n);
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            prop_assert!(max - min <= 1, "blocks within one element of each other");
        }
    }
}
