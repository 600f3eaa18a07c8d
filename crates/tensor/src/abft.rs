//! Algorithm-based fault tolerance (ABFT) for the three GEMM shapes.
//!
//! Huang–Abraham checksums adapted to the paper's layer products
//! (`Y = W·X`, `∆W = ∆Y·Xᵀ`, `∆X = Wᵀ·∆Y`): writing the product as
//! `C = M·N` (with `M`/`N` the possibly-transposed operands, never
//! materialized), the row sums of `C` must equal `M·(N·e)` and the
//! column sums must equal `(eᵀ·M)·N`, where `e` is the all-ones vector.
//! Both sides cost `O(mk + kn + mn)` — asymptotically free next to the
//! `O(mkn)` product — and a single corrupted element shows up as
//! exactly one inconsistent row *and* one inconsistent column, which
//! locates it.
//!
//! Correction is **bit-exact recomputation**, not checksum subtraction:
//! the located element is re-derived in the owning kernel's exact
//! accumulation order — the [`crate::gemm`] determinism contract, an
//! ascending-`k` `f64::mul_add` fold from `0.0`, identical for all
//! three product shapes, at every size, on the scalar and the AVX2
//! microkernel — so a corrected product is indistinguishable, to the
//! last bit, from one that was never corrupted. That is what lets the
//! fault-tolerant trainer keep its bit-parity guarantees with ABFT
//! enabled: verification only reads, and correction restores the exact
//! kernel output.
//!
//! Residuals are judged against a per-row/per-column tolerance derived
//! from `|M|·|N|` — the worst-case rounding envelope of the float sums
//! — so clean products never trip the check (no false positives), at
//! the cost of missing flips in the lowest mantissa bits, whose effect
//! is below numerical noise anyway. The `bench/abft_sweep` binary
//! measures that detection-coverage curve per bit.

use crate::matrix::Matrix;

/// Rounding-envelope safety factor for the residual tolerances.
const SAFETY: f64 = 32.0;

/// Outcome of an ABFT verification pass over one GEMM output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every row and column checksum is consistent.
    Clean,
    /// Exactly one element was inconsistent; it has been recomputed
    /// bit-exactly in place.
    Corrected {
        /// Row of the corrected element.
        row: usize,
        /// Column of the corrected element.
        col: usize,
    },
    /// The inconsistency pattern does not locate a single element
    /// (multi-element corruption, or a detection too marginal to
    /// localize); the caller must escalate to rollback.
    Uncorrectable {
        /// Rows whose checksum is inconsistent.
        bad_rows: usize,
        /// Columns whose checksum is inconsistent.
        bad_cols: usize,
    },
}

/// FLOPs charged for one ABFT verification of an `m×k · k×n` product
/// (checksum vectors on both operands and the output, plus their
/// absolute-value tolerance twins). Used by the distributed wrappers to
/// put the overhead on the virtual clock, so measured ABFT cost is real
/// under the α–β/FLOP model.
pub fn abft_flops(m: usize, k: usize, n: usize) -> f64 {
    4.0 * (m * k + k * n + m * n) as f64
}

/// Row sums of `c` (length `rows`).
fn row_sums(c: &Matrix) -> Vec<f64> {
    (0..c.rows()).map(|i| c.row(i).iter().sum()).collect()
}

/// Column sums of `c` (length `cols`).
fn col_sums(c: &Matrix) -> Vec<f64> {
    let mut s = vec![0.0; c.cols()];
    for i in 0..c.rows() {
        for (sj, &v) in s.iter_mut().zip(c.row(i)) {
            *sj += v;
        }
    }
    s
}

/// Shared verification core. `exp_row`/`exp_col` are the checksum-side
/// expectations `M·(N·e)` and `(eᵀ·M)·N`; `tol_row`/`tol_col` their
/// `|M|·|N|`-scaled rounding envelopes; `recompute(i, j)` re-derives
/// one element in the kernel's exact accumulation order.
// The negated `<=` comparisons below are deliberate, not a style slip:
// see the comment at the residual filters.
#[allow(clippy::too_many_arguments, clippy::neg_cmp_op_on_partial_ord)]
fn verify_core(
    c: &mut Matrix,
    exp_row: &[f64],
    tol_row: &[f64],
    exp_col: &[f64],
    tol_col: &[f64],
    recompute: impl Fn(usize, usize) -> f64,
) -> Verdict {
    let rs = row_sums(c);
    let cs = col_sums(c);
    // Negated `<=` so a NaN residual (an exponent flip can turn an
    // element into Inf/NaN, whose sums poison the checks) counts as bad
    // instead of silently failing every `>` comparison.
    let bad_rows: Vec<usize> = (0..c.rows())
        .filter(|&i| !((rs[i] - exp_row[i]).abs() <= tol_row[i]))
        .collect();
    let bad_cols: Vec<usize> = (0..c.cols())
        .filter(|&j| !((cs[j] - exp_col[j]).abs() <= tol_col[j]))
        .collect();
    match (bad_rows.as_slice(), bad_cols.as_slice()) {
        ([], []) => Verdict::Clean,
        ([i], [j]) => {
            c.set(*i, *j, recompute(*i, *j));
            Verdict::Corrected { row: *i, col: *j }
        }
        _ => Verdict::Uncorrectable {
            bad_rows: bad_rows.len(),
            bad_cols: bad_cols.len(),
        },
    }
}

/// `tol[i] = SAFETY · scale · ε · magnitude[i]`, with a tiny absolute
/// floor so an all-zero row/column never flags on `-0.0` noise.
fn tolerances(magnitudes: &[f64], scale: usize) -> Vec<f64> {
    let rel = SAFETY * scale as f64 * f64::EPSILON;
    magnitudes.iter().map(|&m| rel * m + 1e-300).collect()
}

/// Verifies (and, for a single bad element, repairs) `c = a·b`
/// as computed by [`crate::matmul::matmul`].
pub fn verify_matmul(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Verdict {
    let (m, n) = (c.rows(), c.cols());
    let k = a.cols();
    if m == 0 || n == 0 || k == 0 {
        return Verdict::Clean;
    }
    // N·e and |N|·e: row sums of B.
    let mut ne = vec![0.0; k];
    let mut ne_abs = vec![0.0; k];
    for kk in 0..k {
        for &v in b.row(kk) {
            ne[kk] += v;
            ne_abs[kk] += v.abs();
        }
    }
    // exp_row = A·(N·e); magnitude = |A|·(|N|·e).
    let mut exp_row = vec![0.0; m];
    let mut mag_row = vec![0.0; m];
    for i in 0..m {
        for (kk, &aik) in a.row(i).iter().enumerate() {
            exp_row[i] += aik * ne[kk];
            mag_row[i] += aik.abs() * ne_abs[kk];
        }
    }
    // eᵀ·M and eᵀ·|M|: column sums of A.
    let em = col_sums(a);
    let em_abs = {
        let mut s = vec![0.0; k];
        for i in 0..m {
            for (sk, &v) in s.iter_mut().zip(a.row(i)) {
                *sk += v.abs();
            }
        }
        s
    };
    // exp_col = (eᵀ·M)·B; magnitude analogue.
    let mut exp_col = vec![0.0; n];
    let mut mag_col = vec![0.0; n];
    for kk in 0..k {
        for (j, &bkj) in b.row(kk).iter().enumerate() {
            exp_col[j] += em[kk] * bkj;
            mag_col[j] += em_abs[kk] * bkj.abs();
        }
    }
    let tol_row = tolerances(&mag_row, k + n);
    let tol_col = tolerances(&mag_col, k + m);
    verify_core(c, &exp_row, &tol_row, &exp_col, &tol_col, |i, j| {
        // The gemm contract: ascending-k fused multiply-add from 0.0
        // (KC panels load/store the C tile, so the chain is continuous).
        let mut acc = 0.0;
        for (kk, &aik) in a.row(i).iter().enumerate() {
            acc = aik.mul_add(b.get(kk, j), acc);
        }
        acc
    })
}

/// Verifies/repairs `c = a·bᵀ` as computed by
/// [`crate::matmul::matmul_a_bt`] (`b` is `n×k`, untransposed).
pub fn verify_a_bt(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Verdict {
    let (m, n) = (c.rows(), c.cols());
    let k = a.cols();
    if m == 0 || n == 0 || k == 0 {
        return Verdict::Clean;
    }
    // N = Bᵀ: N·e is the column sums of B.
    let ne = col_sums(b);
    let ne_abs = {
        let mut s = vec![0.0; k];
        for j in 0..n {
            for (sk, &v) in s.iter_mut().zip(b.row(j)) {
                *sk += v.abs();
            }
        }
        s
    };
    let mut exp_row = vec![0.0; m];
    let mut mag_row = vec![0.0; m];
    for i in 0..m {
        for (kk, &aik) in a.row(i).iter().enumerate() {
            exp_row[i] += aik * ne[kk];
            mag_row[i] += aik.abs() * ne_abs[kk];
        }
    }
    let em = col_sums(a);
    let em_abs = {
        let mut s = vec![0.0; k];
        for i in 0..m {
            for (sk, &v) in s.iter_mut().zip(a.row(i)) {
                *sk += v.abs();
            }
        }
        s
    };
    // exp_col[j] = Σ_k (eᵀM)[k]·B[j][k].
    let mut exp_col = vec![0.0; n];
    let mut mag_col = vec![0.0; n];
    for j in 0..n {
        for (kk, &bjk) in b.row(j).iter().enumerate() {
            exp_col[j] += em[kk] * bjk;
            mag_col[j] += em_abs[kk] * bjk.abs();
        }
    }
    let tol_row = tolerances(&mag_row, k + n);
    let tol_col = tolerances(&mag_col, k + m);
    verify_core(c, &exp_row, &tol_row, &exp_col, &tol_col, |i, j| {
        // Same gemm contract; B is read transposed but the fold over
        // ascending k is unchanged.
        let mut acc = 0.0;
        for (&ak, &bk) in a.row(i).iter().zip(b.row(j)) {
            acc = ak.mul_add(bk, acc);
        }
        acc
    })
}

/// Verifies/repairs `c = aᵀ·b` as computed by
/// [`crate::matmul::matmul_at_b`] (`a` is `k×m`, untransposed).
pub fn verify_at_b(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Verdict {
    let (m, n) = (c.rows(), c.cols());
    let k = a.rows();
    if m == 0 || n == 0 || k == 0 {
        return Verdict::Clean;
    }
    // N = B: N·e is the row sums of B.
    let mut ne = vec![0.0; k];
    let mut ne_abs = vec![0.0; k];
    for kk in 0..k {
        for &v in b.row(kk) {
            ne[kk] += v;
            ne_abs[kk] += v.abs();
        }
    }
    // M = Aᵀ: row i of M is column i of A; eᵀ·M is the row sums of A.
    let mut exp_row = vec![0.0; m];
    let mut mag_row = vec![0.0; m];
    let mut em = vec![0.0; k];
    let mut em_abs = vec![0.0; k];
    for kk in 0..k {
        for (i, &aki) in a.row(kk).iter().enumerate() {
            exp_row[i] += aki * ne[kk];
            mag_row[i] += aki.abs() * ne_abs[kk];
            em[kk] += aki;
            em_abs[kk] += aki.abs();
        }
    }
    let mut exp_col = vec![0.0; n];
    let mut mag_col = vec![0.0; n];
    for kk in 0..k {
        for (j, &bkj) in b.row(kk).iter().enumerate() {
            exp_col[j] += em[kk] * bkj;
            mag_col[j] += em_abs[kk] * bkj.abs();
        }
    }
    let tol_row = tolerances(&mag_row, k + n);
    let tol_col = tolerances(&mag_col, k + m);
    verify_core(c, &exp_row, &tol_row, &exp_col, &tol_col, |i, j| {
        // Same gemm contract; A is read transposed. The old kernel's
        // zero-skip is gone — the packed kernel multiplies through
        // zeros, and `fma(±0, b, acc)` is exact, so the blind fold is
        // the bit-exact mirror.
        let mut acc = 0.0;
        for kk in 0..k {
            acc = a.get(kk, i).mul_add(b.get(kk, j), acc);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{matmul, matmul_a_bt, matmul_at_b};
    use proptest::prelude::*;

    fn test_matrix(rows: usize, cols: usize, seed: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17) as f64 * 0.01 + seed).sin()
        })
    }

    fn flip_bit(c: &mut Matrix, i: usize, j: usize, bit: u32) {
        let v = c.get(i, j);
        c.set(i, j, f64::from_bits(v.to_bits() ^ (1u64 << bit)));
    }

    /// Each shape as (product, verifier) so every test covers all three.
    type Product = fn(&Matrix, &Matrix) -> Matrix;
    type Verifier = fn(&Matrix, &Matrix, &mut Matrix) -> Verdict;

    type Shape = (
        &'static str,
        Product,
        Verifier,
        (usize, usize),
        (usize, usize),
    );

    fn shapes() -> Vec<Shape> {
        // (name, product, verify, a_shape, b_shape) with C = 9×7.
        vec![
            (
                "matmul",
                matmul as Product,
                verify_matmul as Verifier,
                (9, 13),
                (13, 7),
            ),
            (
                "a_bt",
                matmul_a_bt as Product,
                verify_a_bt as Verifier,
                (9, 13),
                (7, 13),
            ),
            (
                "at_b",
                matmul_at_b as Product,
                verify_at_b as Verifier,
                (13, 9),
                (13, 7),
            ),
        ]
    }

    #[test]
    fn clean_products_verify_clean_and_are_untouched() {
        for (name, product, verify, ash, bsh) in shapes() {
            let a = test_matrix(ash.0, ash.1, 0.3);
            let b = test_matrix(bsh.0, bsh.1, 0.7);
            let mut c = product(&a, &b);
            let orig = c.clone();
            assert_eq!(verify(&a, &b, &mut c), Verdict::Clean, "{name}");
            assert_eq!(
                c, orig,
                "{name}: verification must not modify a clean product"
            );
        }
    }

    #[test]
    fn single_high_bit_flip_is_located_and_repaired_bit_exactly() {
        for (name, product, verify, ash, bsh) in shapes() {
            let a = test_matrix(ash.0, ash.1, 0.4);
            let b = test_matrix(bsh.0, bsh.1, 0.9);
            let clean = product(&a, &b);
            for bit in [44u32, 51, 55, 62] {
                let mut c = clean.clone();
                flip_bit(&mut c, 3, 5, bit);
                match verify(&a, &b, &mut c) {
                    Verdict::Corrected { row: 3, col: 5 } => {}
                    other => panic!("{name} bit {bit}: {other:?}"),
                }
                assert_eq!(c, clean, "{name} bit {bit}: repair is bit-exact");
            }
        }
    }

    #[test]
    fn multi_element_corruption_is_uncorrectable() {
        for (name, product, verify, ash, bsh) in shapes() {
            let a = test_matrix(ash.0, ash.1, 0.2);
            let b = test_matrix(bsh.0, bsh.1, 0.5);
            let mut c = product(&a, &b);
            flip_bit(&mut c, 1, 2, 51);
            flip_bit(&mut c, 6, 4, 51);
            match verify(&a, &b, &mut c) {
                Verdict::Uncorrectable {
                    bad_rows: 2,
                    bad_cols: 2,
                } => {}
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn same_row_corruption_is_uncorrectable_not_misrepaired() {
        let (_, product, verify, ash, bsh) = shapes().remove(0);
        let a = test_matrix(ash.0, ash.1, 0.2);
        let b = test_matrix(bsh.0, bsh.1, 0.5);
        let mut c = product(&a, &b);
        flip_bit(&mut c, 4, 1, 50);
        flip_bit(&mut c, 4, 6, 50);
        match verify(&a, &b, &mut c) {
            Verdict::Uncorrectable {
                bad_rows: 1,
                bad_cols: 2,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repair_is_bit_exact_across_kc_panel_boundaries() {
        // k > KC forces the packed kernel through multiple K panels
        // (C tile loaded/stored per panel); the recompute closure's
        // single continuous mul_add fold must still match bit-exactly.
        let k = crate::gemm::KC + 37;
        let a = test_matrix(40, k, 0.4);
        let b = test_matrix(k, 24, 0.9);
        let clean = matmul(&a, &b);
        let mut c = clean.clone();
        flip_bit(&mut c, 17, 11, 52);
        match verify_matmul(&a, &b, &mut c) {
            Verdict::Corrected { row: 17, col: 11 } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(c, clean, "panel-crossing repair must be bit-exact");

        let at = test_matrix(k, 40, 0.2);
        let clean_t = matmul_at_b(&at, &b);
        let mut ct = clean_t.clone();
        flip_bit(&mut ct, 9, 3, 55);
        match verify_at_b(&at, &b, &mut ct) {
            Verdict::Corrected { row: 9, col: 3 } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(ct, clean_t);

        let bt = test_matrix(24, k, 0.6);
        let clean_b = matmul_a_bt(&a, &bt);
        let mut cb = clean_b.clone();
        flip_bit(&mut cb, 5, 20, 49);
        match verify_a_bt(&a, &bt, &mut cb) {
            Verdict::Corrected { row: 5, col: 20 } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(cb, clean_b);
    }

    #[test]
    fn repair_is_bit_exact_on_tile_scale_shard_products() {
        // The smallest and largest `mlp_tiny` shards `chaos_ft` verifies
        // (rows of W, d_in, batch columns): a flip in the ragged last
        // row and column of each of the three products is re-derived to
        // the packed kernel's bits.
        for (rows, d_in, bc) in [(5, 32, 8), (24, 64, 8)] {
            let w = test_matrix(rows, d_in, 0.3);
            let x = test_matrix(d_in, bc, 0.6);
            let dy = test_matrix(rows, bc, 0.8);
            for (name, product, verify, a, b) in [
                ("W·X", matmul as Product, verify_matmul as Verifier, &w, &x),
                ("∆Y·Xᵀ", matmul_a_bt, verify_a_bt, &dy, &x),
                ("Wᵀ·∆Y", matmul_at_b, verify_at_b, &w, &dy),
            ] {
                let clean = product(a, b);
                let (i, j) = (clean.rows() - 1, clean.cols() - 1);
                let mut c = clean.clone();
                flip_bit(&mut c, i, j, 53);
                assert_eq!(
                    verify(a, b, &mut c),
                    Verdict::Corrected { row: i, col: j },
                    "{name} on {rows}×{d_in}×{bc}"
                );
                assert_eq!(
                    c, clean,
                    "{name} on {rows}×{d_in}×{bc}: repair is bit-exact"
                );
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_clean() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let mut c = matmul(&a, &b);
        assert_eq!(verify_matmul(&a, &b, &mut c), Verdict::Clean);
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = matmul(&a, &b);
        assert_eq!(verify_matmul(&a, &b, &mut c), Verdict::Clean);
    }

    #[test]
    fn flops_are_low_order() {
        // The checksum cost must be asymptotically below the product.
        assert!(abft_flops(64, 64, 64) < crate::matmul::matmul_flops(64, 64, 64));
        assert_eq!(abft_flops(2, 3, 4), 4.0 * (6 + 12 + 8) as f64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// No false positives: clean products of any size verify Clean
        /// for every shape, and the buffer is bit-identical afterwards.
        #[test]
        fn clean_runs_never_flag(
            m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0.0f64..10.0
        ) {
            let a = test_matrix(m, k, seed);
            let b = test_matrix(k, n, seed + 1.0);
            let mut c = matmul(&a, &b);
            let orig = c.clone();
            prop_assert_eq!(verify_matmul(&a, &b, &mut c), Verdict::Clean);
            prop_assert_eq!(&c, &orig);

            let bt = test_matrix(n, k, seed + 2.0);
            let mut cb = matmul_a_bt(&a, &bt);
            let origb = cb.clone();
            prop_assert_eq!(verify_a_bt(&a, &bt, &mut cb), Verdict::Clean);
            prop_assert_eq!(&cb, &origb);

            let at = test_matrix(k, m, seed + 3.0);
            let bb = test_matrix(k, n, seed + 4.0);
            let mut ct = matmul_at_b(&at, &bb);
            let origt = ct.clone();
            prop_assert_eq!(verify_at_b(&at, &bb, &mut ct), Verdict::Clean);
            prop_assert_eq!(&ct, &origt);
        }

        /// Any single exponent-region flip anywhere is repaired to the
        /// bit-exact clean product.
        #[test]
        fn high_bit_flips_always_repair(
            m in 2usize..12, k in 2usize..12, n in 2usize..12,
            seed in 0.0f64..10.0, ei in 0usize..100, bit in 48u32..63
        ) {
            let a = test_matrix(m, k, seed);
            let b = test_matrix(k, n, seed + 1.0);
            let clean = matmul(&a, &b);
            let mut c = clean.clone();
            let (i, j) = (ei % m, (ei / m) % n);
            flip_bit(&mut c, i, j, bit);
            match verify_matmul(&a, &b, &mut c) {
                Verdict::Corrected { row, col } => {
                    prop_assert_eq!((row, col), (i, j));
                    prop_assert_eq!(&c, &clean);
                }
                other => prop_assert!(false, "expected correction, got {:?}", other),
            }
        }
    }
}
