//! Data-distribution helpers: which block of a dimension a rank owns,
//! and shard extraction from (conceptually global) matrices.
//!
//! In the simulator every rank can *construct* the full input
//! deterministically (same seed), then keep only its shard — mirroring
//! how an MPI training job has each rank read its own slice of the
//! dataset. No communication is implied by shard extraction.

use std::ops::Range;

use tensor::Matrix;

/// The contiguous block of `0..n` owned by rank `i` of `p` (sizes
/// differ by at most one; same convention as MPI block distribution) —
/// the one partition rule of the stack, shared with the ring
/// collectives' chunking.
pub use collectives::chunks::block_range as part_range;

/// The overlap of two ranges; empty when they are disjoint.
pub fn intersect(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let start = a.start.max(b.start);
    let end = a.end.min(b.end);
    start..end.max(start)
}

/// Rank `i`'s row shard of a matrix (model-dimension split of `W`).
pub fn row_shard(m: &Matrix, p: usize, i: usize) -> Matrix {
    let r = part_range(m.rows(), p, i);
    m.row_block(r.start, r.end)
}

/// Rank `j`'s column shard of a matrix (batch-dimension split of `X`).
pub fn col_shard(m: &Matrix, p: usize, j: usize) -> Matrix {
    let r = part_range(m.cols(), p, j);
    m.col_block(r.start, r.end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_tile_the_matrix() {
        let m = Matrix::from_fn(7, 9, |i, j| (i * 9 + j) as f64);
        let rows: Vec<Matrix> = (0..3).map(|i| row_shard(&m, 3, i)).collect();
        assert_eq!(Matrix::vcat(&rows), m);
        let cols: Vec<Matrix> = (0..4).map(|j| col_shard(&m, 4, j).transpose()).collect();
        assert_eq!(Matrix::vcat(&cols), m.transpose());
    }

    #[test]
    fn part_lens_sum_to_n() {
        for n in [0, 1, 5, 16, 17] {
            for p in [1, 2, 3, 5, 8] {
                let total: usize = (0..p).map(|i| part_range(n, p, i).len()).sum();
                assert_eq!(total, n, "n={n} p={p}");
            }
        }
    }
}
