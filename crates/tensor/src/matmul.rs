//! Matrix products: `C = A·B`, `C = Aᵀ·B`, `C = A·Bᵀ`.
//!
//! All three run on the panel-packed GEMM core in [`crate::gemm`]: each
//! operand is handed to the packer one sliver row at a time — a
//! `copy_from_slice` where that row is contiguous in the source
//! (row-major `B`, `A` stored transposed), a strided gather otherwise —
//! so `Aᵀ`/`Bᵀ` are never materialized. Each entry point is one
//! [`gemm::gemm_packed`] call whatever the shape: the tile-scale shards
//! of a large-`P` grid run on the same kernel as a 512³ square.
//!
//! Every element of every variant is an ascending-k `mul_add` fold (the
//! [`crate::gemm`] determinism contract), so results are bit-identical
//! across the scalar and AVX2 microkernels and run-to-run, and
//! [`crate::abft`] can recompute single elements bit-exactly.
//!
//! The previous executed kernel (i-k-j blocked loops) is frozen as
//! [`matmul_ref`] — the benchmark baseline that `kernel_sweep` and CI
//! measure speedups against.

use rayon::prelude::*;

use crate::gemm;
use crate::matrix::Matrix;

/// Row-block size for the frozen reference kernel's parallel loop.
const ROW_BLOCK: usize = 32;
/// K-panel size for the frozen reference kernel's cache blocking.
const K_BLOCK: usize = 256;

/// FLOPs of a `m×k · k×n` product (2 per multiply-add), as used by the
/// compute-time models.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

fn gemm_rows(c_rows: &mut [f64], row0: usize, nrows: usize, a: &Matrix, b: &Matrix) {
    let n = b.cols();
    let k_total = a.cols();
    let mut k0 = 0;
    while k0 < k_total {
        let k1 = (k0 + K_BLOCK).min(k_total);
        for (di, i) in (row0..row0 + nrows).enumerate() {
            let a_row = a.row(i);
            let c_row = &mut c_rows[di * n..(di + 1) * n];
            for k in k0..k1 {
                let aik = a_row[k];
                let b_row = b.row(k);
                for (cj, &bkj) in c_row.iter_mut().zip(b_row) {
                    *cj += aik * bkj;
                }
            }
        }
        k0 = k1;
    }
}

/// The pre-packing executed kernel (blocked i-k-j, rayon over row
/// blocks), frozen as the measured baseline for kernel speedups. Not
/// used by any compute path; benchmarks only.
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (m, n) = (a.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || a.cols() == 0 {
        return c;
    }
    c.as_mut_slice()
        .par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(blk, c_rows)| {
            let row0 = blk * ROW_BLOCK;
            let nrows = ROW_BLOCK.min(m - row0);
            gemm_rows(c_rows, row0, nrows, a, b);
        });
    c
}

/// `C = A·B`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut c);
    c
}

/// [`matmul`] into a caller-owned `c`: `c` is reshaped to `m×n` and
/// overwritten, reusing its buffer when it is large enough — whatever
/// it held before is neither read nor cleared first (the kernels store
/// their first K panel; see [`crate::gemm`]).
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    c.reshape(m, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    gemm::gemm_packed(
        m,
        n,
        k,
        |i0, kk, dst| gemm::gather_lanes(av, i0 * k + kk, k, dst),
        |kk, j0, dst| gemm::copy_lanes(bv, kk * n + j0, dst),
        c.as_mut_slice(),
    );
}

/// `C = Aᵀ·B` without materializing `Aᵀ` (used for `∆X = Wᵀ·∆Y`).
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_at_b_into(a, b, &mut c);
    c
}

/// [`matmul_at_b`] into a caller-owned `c` (see [`matmul_into`]).
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.rows(), b.rows(), "AᵀB dimension mismatch");
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    c.reshape(m, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    // A is stored k×m, so a sliver row (consecutive i at one k) is
    // contiguous in the source.
    gemm::gemm_packed(
        m,
        n,
        k,
        |i0, kk, dst| gemm::copy_lanes(av, kk * m + i0, dst),
        |kk, j0, dst| gemm::copy_lanes(bv, kk * n + j0, dst),
        c.as_mut_slice(),
    );
}

/// `C = A·Bᵀ` without materializing `Bᵀ` (used for `∆W = ∆Y·Xᵀ`).
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_a_bt_into(a, b, &mut c);
    c
}

/// [`matmul_a_bt`] into a caller-owned `c` (see [`matmul_into`]).
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "ABᵀ dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    c.reshape(m, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    // B is stored n×k: both operands are strided gathers.
    gemm::gemm_packed(
        m,
        n,
        k,
        |i0, kk, dst| gemm::gather_lanes(av, i0 * k + kk, k, dst),
        |kk, j0, dst| gemm::gather_lanes(bv, j0 * k + kk, k, dst),
        c.as_mut_slice(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn test_matrix(rows: usize, cols: usize, seed: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17) as f64 * 0.01 + seed).sin()
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_matrix(5, 5, 0.3);
        assert!(matmul(&a, &Matrix::eye(5)).approx_eq(&a, 1e-14));
        assert!(matmul(&Matrix::eye(5), &a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn matches_naive_nonsquare() {
        let a = test_matrix(7, 13, 0.1);
        let b = test_matrix(13, 5, 0.2);
        assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-12));
    }

    #[test]
    fn large_enough_to_exercise_blocking() {
        let a = test_matrix(100, 300, 0.1);
        let b = test_matrix(300, 70, 0.2);
        assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn packed_path_matches_reference_kernel() {
        // Big enough to take the packed path; the frozen baseline and
        // the new kernel agree to rounding.
        let a = test_matrix(70, 90, 0.1);
        let b = test_matrix(90, 50, 0.2);
        assert!(matmul(&a, &b).approx_eq(&matmul_ref(&a, &b), 1e-10));
    }

    /// The determinism contract, written out: every element an
    /// ascending-k `mul_add` fold from `0.0` over the logical `m×k` and
    /// `k×n` operands.
    fn fma_dot(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).fold(0.0, |acc, kk| a.get(i, kk).mul_add(b.get(kk, j), acc))
        })
    }

    /// All three orientations of a `m×k · k×n` product, each into a
    /// NaN-filled reused output, against [`fma_dot`] to the bit.
    fn assert_contract(m: usize, k: usize, n: usize, seed: f64) {
        let (a, b) = (test_matrix(m, k, seed), test_matrix(k, n, seed + 1.0));
        let expect = fma_dot(&a, &b);
        let mut c = Matrix::from_fn(n + 1, m + 2, |_, _| f64::NAN);
        matmul_into(&a, &b, &mut c);
        assert_eq!(c.as_slice(), expect.as_slice(), "A·B {m}×{k}·{k}×{n}");
        c.as_mut_slice().fill(f64::NAN);
        matmul_at_b_into(&a.transpose(), &b, &mut c);
        assert_eq!(c.as_slice(), expect.as_slice(), "AᵀB {m}×{k}·{k}×{n}");
        c.as_mut_slice().fill(f64::NAN);
        matmul_a_bt_into(&a, &b.transpose(), &mut c);
        assert_eq!(c.as_slice(), expect.as_slice(), "ABᵀ {m}×{k}·{k}×{n}");
    }

    #[test]
    fn tile_scale_products_are_the_contract_fold_in_every_orientation() {
        // No product is too small for the packed kernel. One element,
        // `k = 1`, `m < MR`, `n < NR`, `m = MR + 1`, 4×4·4×4 …
        let (mr, nr) = (gemm::MR, gemm::NR);
        for (m, k, n) in [
            (1, 1, 1),
            (7, 1, 9),
            (mr - 3, 11, 2 * nr),
            (2 * mr, 5, nr - 3),
            (mr + 1, nr, nr),
            (4, 4, 4),
        ] {
            assert_contract(m, k, n, 0.4);
        }
        // … and the shards `chaos_ft` trains (`mlp_tiny` on a 2×3 grid,
        // B = 24), as (rows of W, d_in, batch columns): `W·X`, `∆Y·Xᵀ`
        // and `Wᵀ·∆Y` each in all three orientations.
        for (rows, d_in, b) in [(24, 64, 8), (16, 48, 8), (5, 32, 8)] {
            assert_contract(rows, d_in, b, 0.8);
            assert_contract(rows, b, d_in, 0.8);
            assert_contract(d_in, rows, b, 0.8);
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        // Determinism contract: same inputs → same bits, every run,
        // on a shape large enough to use packing and panel boundaries.
        let a = test_matrix(130, 520, 0.6);
        let b = test_matrix(520, 90, 0.9);
        let c1 = matmul(&a, &b);
        let c2 = matmul(&a, &b);
        assert_eq!(c1.as_slice(), c2.as_slice());
        let at = test_matrix(520, 130, 0.6);
        let d1 = matmul_at_b(&at, &b);
        let d2 = matmul_at_b(&at, &b);
        assert_eq!(d1.as_slice(), d2.as_slice());
    }

    #[test]
    fn transposed_variants_are_bit_identical_to_plain_matmul() {
        // All orientations share one accumulation order, so AᵀB and ABᵀ
        // agree with materialized-transpose matmul to the bit — under
        // one register tile and across panel boundaries.
        for (m, k, n) in [(9, 6, 4), (80, 300, 64)] {
            let a = test_matrix(k, m, 0.5);
            let b = test_matrix(k, n, 0.7);
            assert_eq!(
                matmul_at_b(&a, &b).as_slice(),
                matmul(&a.transpose(), &b).as_slice()
            );
            let a2 = test_matrix(m, k, 0.5);
            let b2 = test_matrix(n, k, 0.7);
            assert_eq!(
                matmul_a_bt(&a2, &b2).as_slice(),
                matmul(&a2, &b2.transpose()).as_slice()
            );
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = test_matrix(9, 6, 0.5);
        let b = test_matrix(9, 4, 0.7);
        assert!(matmul_at_b(&a, &b).approx_eq(&matmul(&a.transpose(), &b), 1e-12));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = test_matrix(6, 9, 0.5);
        let b = test_matrix(4, 9, 0.7);
        assert!(matmul_a_bt(&a, &b).approx_eq(&matmul(&a, &b.transpose()), 1e-12));
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(matmul(&a, &b).shape(), (0, 4));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(matmul(&a, &b), Matrix::zeros(2, 4));
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matmul_matches_naive(
            m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0.0f64..10.0
        ) {
            let a = test_matrix(m, k, seed);
            let b = test_matrix(k, n, seed + 1.0);
            prop_assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-11));
        }

        #[test]
        fn transpose_variants_consistent(
            m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0.0f64..10.0
        ) {
            let a = test_matrix(k, m, seed);
            let b = test_matrix(k, n, seed + 2.0);
            prop_assert!(matmul_at_b(&a, &b).approx_eq(&matmul(&a.transpose(), &b), 1e-11));
            let a2 = test_matrix(m, k, seed);
            let b2 = test_matrix(n, k, seed + 3.0);
            prop_assert!(matmul_a_bt(&a2, &b2).approx_eq(&matmul(&a2, &b2.transpose()), 1e-11));
        }

        #[test]
        fn into_forms_equal_their_wrappers_even_on_a_dirty_reused_output(
            m in 1usize..70, k in 1usize..70, n in 1usize..70, seed in 0.0f64..10.0
        ) {
            // `c` arrives holding another product (stale values, wrong shape, and —
            // after the first call — more capacity than it needs).
            let mut c = matmul(&test_matrix(n + 3, 5, seed), &test_matrix(5, m + 2, seed));
            let (a, b) = (test_matrix(m, k, seed), test_matrix(k, n, seed + 1.0));
            matmul_into(&a, &b, &mut c);
            prop_assert_eq!(c.shape(), (m, n));
            prop_assert!(c == matmul(&a, &b));
            let (at, bt) = (test_matrix(k, m, seed + 2.0), test_matrix(n, k, seed + 3.0));
            matmul_at_b_into(&at, &b, &mut c);
            prop_assert!(c == matmul_at_b(&at, &b));
            matmul_a_bt_into(&a, &bt, &mut c);
            prop_assert!(c == matmul_a_bt(&a, &bt));
            // Empty inner dimension: the reused output must come back
            // all zeros, not as it was.
            matmul_into(&Matrix::zeros(m, 0), &Matrix::zeros(0, n), &mut c);
            prop_assert_eq!(&c, &Matrix::zeros(m, n));
        }

        #[test]
        fn every_orientation_is_the_contract_fold_and_near_the_frozen_baseline(
            m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0.0f64..10.0
        ) {
            // One executor from 1×1×1 up: bit-equal to the ascending-k
            // fold in all three orientations, and within rounding of the
            // frozen (non-fused) baseline.
            assert_contract(m, k, n, seed);
            let a = test_matrix(m, k, seed);
            let b = test_matrix(k, n, seed + 1.0);
            prop_assert!(matmul(&a, &b).approx_eq(&matmul_ref(&a, &b), 1e-11));
        }
    }
}
