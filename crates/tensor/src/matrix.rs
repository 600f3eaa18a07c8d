//! Row-major dense matrix.

use std::fmt;

use crate::recycle;

/// A dense row-major `rows × cols` matrix of `f64`. Its buffer is drawn
/// from, and on drop retired to, the thread's free list
/// ([`crate::recycle`]), so the matrices a rank churns through are
/// served from memory that is already mapped.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut out = Matrix::stale(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        out
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.data));
    }
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: recycle::zeroed(rows * cols),
        }
    }

    /// A matrix whose every element the caller is about to write:
    /// contents unspecified (initialized, possibly stale).
    fn stale(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: recycle::stale(rows * cols),
        }
    }

    /// Reshapes to `rows × cols` for an output the caller is about to
    /// overwrite entirely (a GEMM or a gather): the buffer is kept
    /// when it is large enough and the contents afterwards are
    /// unspecified.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if self.data.capacity() < len {
            *self = Matrix::stale(rows, cols);
        } else {
            self.data.resize(len, 0.0);
            self.rows = rows;
            self.cols = cols;
        }
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Matrix::stale(rows, cols);
        let mut slots = out.data.iter_mut();
        for i in 0..rows {
            for j in 0..cols {
                *slots.next().expect("rows·cols slots") = f(i, j);
            }
        }
        out
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        recycle::adopt(data.capacity());
        Matrix { rows, cols, data }
    }

    /// The identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to element `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer (which thereby
    /// leaves the free list's care).
    pub fn into_vec(mut self) -> Vec<f64> {
        let data = std::mem::take(&mut self.data);
        recycle::release(data.capacity());
        data
    }

    /// The transpose (materialized copy).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::stale(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Copies rows `r0..r1` into a new `(r1-r0) × cols` matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> Matrix {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row block {r0}..{r1} out of {}",
            self.rows
        );
        let mut out = Matrix::stale(r1 - r0, self.cols);
        out.data
            .copy_from_slice(&self.data[r0 * self.cols..r1 * self.cols]);
        out
    }

    /// Copies columns `c0..c1` into a new `rows × (c1-c0)` matrix.
    pub fn col_block(&self, c0: usize, c1: usize) -> Matrix {
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col block {c0}..{c1} out of {}",
            self.cols
        );
        let w = c1 - c0;
        let mut out = Matrix::stale(self.rows, w);
        for (i, dst) in out.data.chunks_exact_mut(w.max(1)).enumerate() {
            dst.copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Writes `block` into rows `r0..` of `self`.
    pub fn set_row_block(&mut self, r0: usize, block: &Matrix) {
        assert_eq!(block.cols, self.cols, "column count mismatch");
        assert!(r0 + block.rows <= self.rows, "row block overflows target");
        self.data[r0 * self.cols..(r0 + block.rows) * self.cols].copy_from_slice(&block.data);
    }

    /// Concatenates matrices vertically (equal column counts). Takes
    /// any iterator of borrows, so shards held in other structures
    /// stack without being cloned first.
    pub fn vcat<'a>(blocks: impl IntoIterator<Item = &'a Matrix>) -> Matrix {
        let blocks: Vec<&Matrix> = blocks.into_iter().collect();
        assert!(!blocks.is_empty(), "vcat of zero blocks");
        let cols = blocks[0].cols;
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut out = Matrix::stale(rows, cols);
        let mut r = 0;
        for b in blocks {
            out.set_row_block(r, b);
            r += b.rows;
        }
        out
    }

    /// Largest absolute element-wise difference from `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in comparison");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether all elements are within `tol` of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            let ell = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_and_col_blocks() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let rb = m.row_block(1, 3);
        assert_eq!(rb.shape(), (2, 4));
        assert_eq!(rb.get(0, 0), 4.0);
        let cb = m.col_block(2, 4);
        assert_eq!(cb.shape(), (4, 2));
        assert_eq!(cb.get(0, 0), 2.0);
        assert_eq!(cb.get(3, 1), 15.0);
    }

    #[test]
    fn cat_inverts_blocking() {
        let m = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f64);
        let v = Matrix::vcat(&[m.row_block(0, 2), m.row_block(2, 4)]);
        assert_eq!(v, m);
    }

    #[test]
    fn set_row_block_writes_back() {
        let mut m = Matrix::zeros(3, 3);
        m.set_row_block(1, &Matrix::from_fn(1, 3, |_, j| j as f64 + 1.0));
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn eye_is_identity_under_get() {
        let m = Matrix::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&b, 1e-14));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
