//! Panel-packed, cache-blocked GEMM core with a register-tiled
//! microkernel — the engine behind [`crate::matmul`] and the
//! implicit-GEMM convolution in [`crate::conv`].
//!
//! ## Structure (the classic Goto/BLIS loop nest)
//!
//! ```text
//! for j0 in steps of NC:                    // C column panels
//!   for k0 in steps of KC:                  // K panels
//!     pack B[k0.., j0..]  → B̃  (KC×NC, NR-column slivers)
//!     for i0 in steps of MC:                // parallel over row blocks
//!       pack A[i0.., k0..] → Ã  (MC×KC, MR-row slivers)
//!       for each (MR×NR) tile: microkernel(Ã sliver, B̃ sliver, C tile)
//! ```
//!
//! Operands are supplied as *sliver-row closures*: `fill_a(i0, k, dst)`
//! writes the `dst.len() ≤ MR` consecutive rows `i0..` of column `k`,
//! and `fill_b(k, j0, dst)` the `dst.len() ≤ NR` consecutive columns
//! `j0..` of row `k` — exactly one row of a packed sliver. The same
//! core therefore serves plain row-major matrices, the transposed
//! operand shapes (`AᵀB`, `ABᵀ`), and the fused im2col layout that
//! packs convolution panels straight out of an NCHW tensor without
//! materializing the column matrix, and whenever the sliver row is
//! contiguous in the source (row-major `B`, transposed `A`) the closure
//! is a single `copy_from_slice`. Packing touches each operand element
//! exactly once per panel pass; all floating-point arithmetic lives in
//! the microkernels.
//!
//! ## Determinism contract
//!
//! Every output element is the fold, over **ascending k**, of a fused
//! multiply-add: `c ← fma(a_ik, b_kj, c)` starting from `0.0`. The
//! first KC panel folds into a zeroed register tile and *stores* it —
//! whatever the output buffer held is never read, so a reused output
//! needs no clearing pass — and every later panel loads the C tile at
//! its start and stores it after, so panel boundaries do not break the
//! chain, and IEEE-754 `fusedMultiplyAdd` is exactly rounded, so the
//! hardware-FMA fast path and the scalar `f64::mul_add` fallback
//! produce **bit-identical** results — on any machine, any thread
//! count, every run. ABFT recomputation
//! ([`crate::abft`]) relies on this: re-deriving one element as a plain
//! ascending-k `mul_add` dot reproduces the kernel's bits exactly.
//! Deliberately absent: split accumulators (k-unrolled partial sums)
//! and non-fused mul+add paths, both of which would tie the numerical
//! result to the dispatch decision — and a size under which a product
//! skips packing. The contract has one executor from 1×1×1 up: unpacked
//! loops only win under one register tile (`W·X` at 6×8×8: 66 ns
//! packed, 111 not; 3×8×8: 58 against 55; 1×1×1: 40 against 18), where
//! no trainer issues products in volume, and lose 2–4.6× on the layer
//! shards that strong scaling produces (EXPERIMENTS.md, "Every product
//! on the packed kernel").
//!
//! The AVX2+FMA microkernel is selected by runtime feature detection
//! (`is_x86_feature_detected!`); everything else goes through the same
//! `mul_add` source, which on FMA-less hardware falls back to libm's
//! correctly-rounded software `fma` — slow, but bit-identical.

use std::cell::RefCell;

use rayon::prelude::*;

/// Microkernel tile rows (register blocking in M).
pub const MR: usize = 6;
/// Microkernel tile columns (register blocking in N); two AVX2 f64
/// vectors wide.
pub const NR: usize = 8;
/// K-panel depth: one Ã sliver column block of KC f64 (2 KB) streams
/// from L1 while B̃ slivers stream from L2.
pub const KC: usize = 256;
/// Row-block height (multiple of MR): Ã is MC×KC ≈ 96 KB, sized to L2.
pub const MC: usize = 48;
/// Column-panel width (multiple of NR): B̃ is KC×NC ≈ 1 MB, sized to
/// L2/L3.
pub const NC: usize = 512;

/// Minimum multiply-adds (`m·n·k`) before row blocks are fanned out to
/// worker threads; below this a single core finishes before the spawn
/// overhead is paid back.
const PAR_MIN_MNK: usize = 1 << 23;

/// Whether the AVX2+FMA microkernel is available (runtime-detected,
/// cached). The fallback path is bit-identical, so this only ever
/// changes speed.
#[inline]
pub fn fma_kernel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Words of packing scratch a `m×k · k×n` product needs: one B̃ panel
/// on the calling thread plus one Ã block per worker thread, both held
/// in thread-local buffers that only ever grow to the largest such
/// need. Bounded by the cache blocking
/// (`KC·NC + MC·KC`) — never by the operand sizes — which is what lets
/// the implicit-GEMM convolution run without a materialized im2col
/// matrix.
pub fn packing_scratch_words(m: usize, n: usize, k: usize) -> usize {
    if m == 0 || n == 0 || k == 0 {
        return 0;
    }
    let kc = KC.min(k);
    let b_panel = kc * NC.min(n.next_multiple_of(NR));
    let a_block = MC.min(m.next_multiple_of(MR)) * kc;
    b_panel + a_block
}

thread_local! {
    /// Per-thread Ã block, reused across panels and GEMM calls.
    static A_PANEL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's B̃ panel, reused the same way: a fresh one
    /// per call is up to 1 MB of pages faulted in and thrown away. Both
    /// buffers are fully overwritten before they are read (a ragged
    /// sliver zeroes its tail lanes), so stale contents never matter.
    static B_PANEL: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Borrows the first `words` of a thread-local packing buffer, growing
/// it on first need.
fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<RefCell<Vec<f64>>>,
    words: usize,
    body: impl FnOnce(&mut [f64]) -> R,
) -> R {
    cell.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < words {
            buf.resize(words, 0.0);
        }
        body(&mut buf[..words])
    })
}

/// Portable microkernel over the top `rows` rows of an `MR × NR` tile:
/// loads them from `c` — or, on the product's `first` K panel, starts
/// from the `+0.0` a cleared tile would have held — folds the packed
/// slivers over ascending k with `mul_add`, stores them back. All `MR`
/// rows are folded (a ragged sliver's tail lanes are zero); the rows
/// past `rows` are neither read from `c` nor written to it.
fn micro_6x8(kc: usize, a: &[f64], b: &[f64], c: &mut [f64], ldc: usize, rows: usize, first: bool) {
    let mut acc = [[0.0f64; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(rows) {
            row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
    }
    for kk in 0..kc {
        let av = &a[kk * MR..kk * MR + MR];
        let bv = &b[kk * NR..kk * NR + NR];
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (cc, accv) in row.iter_mut().enumerate() {
                *accv = ar.mul_add(bv[cc], *accv);
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rows) {
        c[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// AVX2+FMA microkernel: 6×8 register tile (12 accumulator ymm, 2 B
/// vectors, 1 broadcast — 15 of 16 registers), `vfmadd` per lane, which
/// per element is exactly the ascending-k `mul_add` fold of the
/// determinism contract. Touches the top `rows` rows of `c`, like
/// [`micro_6x8`].
///
/// # Safety
///
/// Caller must have verified AVX2+FMA support via
/// [`fma_kernel_available`], `rows` must be in `1..=MR`, and `c` must
/// have `rows` rows of `ldc` with at least `NR` valid columns at the
/// tile origin.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_6x8_fma(
    kc: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    debug_assert!((1..=MR).contains(&rows) && c.len() >= (rows - 1) * ldc + NR);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    let mut acc = [[_mm256_setzero_pd(); 2]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(rows) {
            row[0] = _mm256_loadu_pd(cp.add(r * ldc));
            row[1] = _mm256_loadu_pd(cp.add(r * ldc + 4));
        }
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(kk * NR));
        let b1 = _mm256_loadu_pd(bp.add(kk * NR + 4));
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_pd(*ap.add(kk * MR + r));
            row[0] = _mm256_fmadd_pd(ar, b0, row[0]);
            row[1] = _mm256_fmadd_pd(ar, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate().take(rows) {
        _mm256_storeu_pd(cp.add(r * ldc), row[0]);
        _mm256_storeu_pd(cp.add(r * ldc + 4), row[1]);
    }
}

/// Runs one full-width tile of `rows` rows on the best available
/// microkernel.
// The argument list mirrors the microkernel ABI; bundling it into a
// struct would just move the field list.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_rows(
    fma: bool,
    kc: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
    first: bool,
) {
    assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    assert!((1..=MR).contains(&rows) && c.len() >= (rows - 1) * ldc + NR);
    #[cfg(target_arch = "x86_64")]
    if fma {
        // SAFETY: `fma` is only true after runtime AVX2+FMA detection,
        // and the asserts above are the kernel's extent preconditions.
        unsafe { micro_6x8_fma(kc, a, b, c, ldc, rows, first) };
        return;
    }
    let _ = fma;
    micro_6x8(kc, a, b, c, ldc, rows, first);
}

/// Dispatches one `mr_eff × nr_eff` tile; `first` marks the product's
/// first K panel, whose fold starts from zero instead of from `c`. A
/// tile short of rows only (`m % MR`, the layer-shard case) runs in
/// place. A tile short of columns runs into a stack tile — preloaded
/// with the valid part of `c` unless `first` — and copies the valid
/// part back: the zero-filled sliver lanes only ever reach discarded
/// entries, and every kept element is still the ascending-k fold.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_dispatch(
    fma: bool,
    kc: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    first: bool,
) {
    if nr_eff == NR {
        micro_rows(fma, kc, a, b, c, ldc, mr_eff, first);
        return;
    }
    let mut tile = [0.0f64; MR * NR];
    if !first {
        for r in 0..mr_eff {
            tile[r * NR..r * NR + nr_eff].copy_from_slice(&c[r * ldc..r * ldc + nr_eff]);
        }
    }
    micro_rows(fma, kc, a, b, &mut tile, NR, mr_eff, first);
    for r in 0..mr_eff {
        c[r * ldc..r * ldc + nr_eff].copy_from_slice(&tile[r * NR..r * NR + nr_eff]);
    }
}

/// Sliver-row fill for an operand whose lanes are contiguous in `src`
/// (row-major B, or A stored transposed): `dst[l] = src[start + l]`.
#[inline(always)]
pub fn copy_lanes(src: &[f64], start: usize, dst: &mut [f64]) {
    dst.copy_from_slice(&src[start..start + dst.len()]);
}

/// Sliver-row fill for an operand whose lanes are `stride` apart in
/// `src` (row-major A, or B stored transposed):
/// `dst[l] = src[start + l·stride]`.
#[inline(always)]
pub fn gather_lanes(src: &[f64], start: usize, stride: usize, dst: &mut [f64]) {
    for (l, d) in dst.iter_mut().enumerate() {
        *d = src[start + l * stride];
    }
}

/// Packs one sliver (`W` lanes wide, k-major) of `kc` rows, `lanes` of
/// them valid: `fill(kk, dst)` writes the valid lanes of row `kk`. The
/// tail lanes of a ragged sliver are zeroed once up front, so the
/// microkernel stays branch-free and the fill never tests a lane.
#[inline(always)]
fn pack_sliver<const W: usize>(sliver: &mut [f64], lanes: usize, fill: impl Fn(usize, &mut [f64])) {
    if lanes == W {
        for (kk, dst) in sliver.chunks_exact_mut(W).enumerate() {
            fill(kk, dst);
        }
    } else {
        sliver.fill(0.0);
        for (kk, dst) in sliver.chunks_exact_mut(W).enumerate() {
            fill(kk, &mut dst[..lanes]);
        }
    }
}

/// Panel-packed GEMM: `C = op(A)·op(B)` where the operands are
/// presented as sliver-row closures over an `m×k` view of A and a
/// `k×n` view of B: `fill_a(i0, kk, dst)` must write
/// `dst[r] = A[i0 + r, kk]` and `fill_b(kk, j0, dst)` must write
/// `dst[c] = B[kk, j0 + c]`, for every lane of `dst` (at most
/// [`MR`] / [`NR`] of them, always in range). `c` is row-major `m×n`
/// and is overwritten: its contents on entry are never read (an empty
/// contraction, `k = 0`, leaves all zeros).
///
/// Row blocks fan out over rayon when the product is large enough to
/// amortize the dispatch; the result is bit-identical either way.
pub fn gemm_packed<FA, FB>(m: usize, n: usize, k: usize, fill_a: FA, fill_b: FB, c: &mut [f64])
where
    FA: Fn(usize, usize, &mut [f64]) + Sync,
    FB: Fn(usize, usize, &mut [f64]) + Sync,
{
    assert_eq!(
        c.len(),
        m * n,
        "gemm_packed: c holds {} words, m×n = {m}×{n}",
        c.len()
    );
    if m == 0 || n == 0 || k == 0 {
        c.fill(0.0);
        return;
    }
    let fma = fma_kernel_available();
    let parallel = m > MC
        && m.saturating_mul(n).saturating_mul(k) >= PAR_MIN_MNK
        && rayon::current_num_threads() > 1;

    // The two terms of `packing_scratch_words`.
    let b_words = KC.min(k) * NC.min(n.next_multiple_of(NR));
    let a_words = MC.min(m.next_multiple_of(MR)) * KC.min(k);
    with_scratch(&B_PANEL, b_words, |b_panel| {
        let mut j0 = 0;
        while j0 < n {
            let jeff = NC.min(n - j0);
            let jsl = jeff.div_ceil(NR);
            let mut k0 = 0;
            while k0 < k {
                let keff = KC.min(k - k0);
                // Pack B̃: NR-column slivers, k-major within a sliver.
                for (t, sliver) in b_panel[..jsl * keff * NR]
                    .chunks_exact_mut(keff * NR)
                    .enumerate()
                {
                    let js = j0 + t * NR;
                    pack_sliver::<NR>(sliver, NR.min(j0 + jeff - js), |kk, dst| {
                        fill_b(k0 + kk, js, dst)
                    });
                }
                let b_ref = &*b_panel;
                let fill_a = &fill_a;
                let process = |blk: usize, c_chunk: &mut [f64], ap: &mut [f64]| {
                    let i0 = blk * MC;
                    let ieff = MC.min(m - i0);
                    let isl = ieff.div_ceil(MR);
                    let ap = &mut ap[..isl * MR * keff];
                    // Pack Ã: MR-row slivers, k-major.
                    for (s, sliver) in ap.chunks_exact_mut(keff * MR).enumerate() {
                        let is = i0 + s * MR;
                        pack_sliver::<MR>(sliver, MR.min(i0 + ieff - is), |kk, dst| {
                            fill_a(is, k0 + kk, dst)
                        });
                    }
                    for t in 0..jsl {
                        let nr_eff = NR.min(jeff - t * NR);
                        let b_sliver = &b_ref[t * keff * NR..(t + 1) * keff * NR];
                        for s in 0..isl {
                            let mr_eff = MR.min(ieff - s * MR);
                            let a_sliver = &ap[s * keff * MR..(s + 1) * keff * MR];
                            let c_off = (s * MR) * n + j0 + t * NR;
                            micro_dispatch(
                                fma,
                                keff,
                                a_sliver,
                                b_sliver,
                                &mut c_chunk[c_off..],
                                n,
                                mr_eff,
                                nr_eff,
                                k0 == 0,
                            );
                        }
                    }
                };
                // One Ã borrow per worker: per row block on the pool's
                // threads, once for the whole panel on this one.
                if parallel {
                    c.par_chunks_mut(MC * n)
                        .enumerate()
                        .for_each(|(blk, chunk)| {
                            with_scratch(&A_PANEL, a_words, |ap| process(blk, chunk, ap))
                        });
                } else {
                    with_scratch(&A_PANEL, a_words, |ap| {
                        for (blk, chunk) in c.chunks_mut(MC * n).enumerate() {
                            process(blk, chunk, ap);
                        }
                    });
                }
                k0 += keff;
            }
            j0 += jeff;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, k: usize, seed: f64) -> Vec<f64> {
        (0..m * k)
            .map(|i| ((i * 31) as f64 * 0.01 + seed).sin())
            .collect()
    }

    /// Reference: per-element ascending-k `mul_add` fold — the contract.
    fn fma_dot(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// `gemm_packed` over row-major `a` (m×k) and `b` (k×n).
    fn packed_nn(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        gemm_packed(
            m,
            n,
            k,
            |i0, kk, dst| gather_lanes(a, i0 * k + kk, k, dst),
            |kk, j0, dst| copy_lanes(b, kk * n + j0, dst),
            c,
        );
    }

    /// Row-major `rows×cols` `x`, stored `cols×rows`.
    fn transposed(rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
        let mut t = vec![0.0; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    #[test]
    fn packed_matches_contract_bitwise_across_panel_boundaries() {
        // Sizes straddle MR/NR/KC/MC/NC edges, including k > KC so the
        // C-tile load/store chain across panels is exercised.
        for (m, n, k) in [
            (1, 1, 1),
            (MR, NR, 4),
            (MR + 1, NR + 3, KC + 7),
            (MC + 5, NR * 3 + 2, KC * 2 + 3),
            (2 * MC, NC + 9, 40),
        ] {
            let a = dense(m, k, 0.3);
            let b = dense(k, n, 0.7);
            // The output arrives dirty: the first panel must store over
            // it, not fold into it.
            let mut c = dense(m, n, 5.5);
            packed_nn(m, n, k, &a, &b, &mut c);
            let expect = fma_dot(m, n, k, &a, &b);
            assert_eq!(c, expect, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn sliver_row_packing_matches_contract_on_ragged_shapes() {
        // Ragged in every blocking dimension (m % MR, n % NR, k > KC),
        // including the conv-path `m = 8` (a full sliver plus a 2-row
        // one). A larger product runs first so the thread-local Ã block
        // and B̃ panel hold stale words where the ragged slivers' zero
        // lanes go, and each output starts as NaNs: a first panel that
        // stores a zero-seeded fold is bit-identical to one that folds
        // into a cleared tile (`fma(a, b, +0.0)` either way), and must
        // never read what the buffer held. Operands are read through the opposite layouts from
        // `packed_nn` (A stored k×m, B stored n×k), and the fills check
        // that the packer never asks for a lane outside the operand.
        let (bm, bn, bk) = (MC, 2 * NR, KC);
        let mut big = vec![0.0; bm * bn];
        packed_nn(
            bm,
            bn,
            bk,
            &dense(bm, bk, 1.1),
            &dense(bk, bn, 1.3),
            &mut big,
        );
        for (m, n, k) in [
            (8, 3 * NR + 5, KC + 19),
            (MR + 2, NR - 1, 2 * KC + 1),
            (MC + MR - 1, NC + NR + 3, KC + 1),
        ] {
            let a = dense(m, k, 0.2);
            let b = dense(k, n, 0.8);
            let (at, bt) = (transposed(m, k, &a), transposed(k, n, &b));
            let mut c = vec![f64::NAN; m * n];
            gemm_packed(
                m,
                n,
                k,
                |i0, kk, dst| {
                    assert!(!dst.is_empty() && dst.len() <= MR && i0 + dst.len() <= m && kk < k);
                    copy_lanes(&at, kk * m + i0, dst)
                },
                |kk, j0, dst| {
                    assert!(!dst.is_empty() && dst.len() <= NR && j0 + dst.len() <= n && kk < k);
                    gather_lanes(&bt, j0 * k + kk, k, dst)
                },
                &mut c,
            );
            assert_eq!(c, fma_dot(m, n, k, &a, &b), "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn portable_and_dispatched_microkernels_agree_bitwise() {
        // On an AVX2+FMA host the portable tile kernel is otherwise
        // never run; pin it to the dispatched one on a full and a
        // ragged tile, chained from a nonzero C (a later panel) and
        // stored over it (the first).
        let kc = 37;
        let (a, b) = (dense(kc, MR, 0.4), dense(kc, NR, 0.6));
        for (mr_eff, nr_eff, first) in
            [(MR, NR, false), (2, 5, false), (MR, NR, true), (2, 5, true)]
        {
            let c0 = dense(MR, NR, 0.9);
            let mut portable = c0.clone();
            let mut dispatched = c0.clone();
            micro_dispatch(false, kc, &a, &b, &mut portable, NR, mr_eff, nr_eff, first);
            micro_dispatch(
                fma_kernel_available(),
                kc,
                &a,
                &b,
                &mut dispatched,
                NR,
                mr_eff,
                nr_eff,
                first,
            );
            assert_eq!(portable, dispatched, "{mr_eff}x{nr_eff}");
            if first {
                // Storing over C equals folding into a cleared C.
                let mut cleared = vec![0.0; MR * NR];
                micro_dispatch(false, kc, &a, &b, &mut cleared, NR, mr_eff, nr_eff, false);
                for (i, (got, want)) in portable.iter().zip(&cleared).enumerate() {
                    if i / NR < mr_eff && i % NR < nr_eff {
                        assert_eq!(got.to_bits(), want.to_bits(), "entry {i}");
                    }
                }
            }
            // A ragged tile leaves C outside its valid part untouched.
            for (i, (got, was)) in portable.iter().zip(&c0).enumerate() {
                let inside = i / NR < mr_eff && i % NR < nr_eff;
                assert_eq!(got == was, !inside, "entry {i} of {mr_eff}x{nr_eff}");
            }
        }
    }

    /// Shapes at or under one register tile — one element, `k = 1`,
    /// fewer rows than a sliver, fewer columns than one, one row past a
    /// sliver — and the `W·X` / `∆Y·Xᵀ` / `Wᵀ·∆Y` products of the three
    /// `mlp_tiny` shards `chaos_ft` trains (2×3 grid, B = 24): the
    /// kernel's floor, as `(m, n, k)`.
    const TILE_SCALE: [(usize, usize, usize); 15] = [
        (1, 1, 1),
        (7, 9, 1),
        (MR - 3, 2 * NR, 11),
        (2 * MR, NR - 3, 5),
        (MR + 1, NR, NR),
        (4, 4, 4),
        (24, 8, 64),
        (24, 64, 8),
        (64, 8, 24),
        (16, 8, 48),
        (16, 48, 8),
        (48, 8, 16),
        (5, 8, 32),
        (5, 32, 8),
        (32, 8, 5),
    ];

    #[test]
    fn tile_scale_products_match_contract_bitwise_in_every_layout() {
        // No product is too small for the packed path: through each of
        // the three operand layouts (row-major A and B; A stored k×m,
        // `AᵀB`; B stored n×k, `ABᵀ`) it lands in a NaN-filled output
        // and equals the contract fold to the bit.
        for (m, n, k) in TILE_SCALE {
            let a = dense(m, k, 0.2);
            let b = dense(k, n, 0.4);
            let (at, bt) = (transposed(m, k, &a), transposed(k, n, &b));
            let expect = fma_dot(m, n, k, &a, &b);
            let mut c = vec![f64::NAN; m * n];
            packed_nn(m, n, k, &a, &b, &mut c);
            assert_eq!(c, expect, "AB m={m} n={n} k={k}");
            c.fill(f64::NAN);
            gemm_packed(
                m,
                n,
                k,
                |i0, kk, dst| copy_lanes(&at, kk * m + i0, dst),
                |kk, j0, dst| copy_lanes(&b, kk * n + j0, dst),
                &mut c,
            );
            assert_eq!(c, expect, "AᵀB m={m} n={n} k={k}");
            c.fill(f64::NAN);
            gemm_packed(
                m,
                n,
                k,
                |i0, kk, dst| gather_lanes(&a, i0 * k + kk, k, dst),
                |kk, j0, dst| gather_lanes(&bt, j0 * k + kk, k, dst),
                &mut c,
            );
            assert_eq!(c, expect, "ABᵀ m={m} n={n} k={k}");
        }
    }

    #[test]
    fn scratch_is_bounded_by_blocking_not_operands() {
        let huge = packing_scratch_words(10_000, 1_000_000, 5_000);
        assert!(huge <= KC * NC + MC * KC);
        // And independent of n once past the panel cap.
        assert_eq!(
            packing_scratch_words(256, 10_000, 512),
            packing_scratch_words(256, 1_000_000, 512)
        );
    }

    #[test]
    fn scratch_estimate_is_what_a_fresh_thread_grows() {
        // There is no size under which a product skips packing, so the
        // estimate is never 0 for a non-empty product, and it is exactly
        // the thread-local growth the product causes — tile-scale,
        // ragged, and past every blocking constant.
        for (m, n, k) in TILE_SCALE
            .into_iter()
            .chain([(MC + 5, NR * 3 + 2, KC + 3), (2 * MC, NC + 9, 40)])
        {
            let grown = std::thread::spawn(move || {
                let mut c = vec![0.0; m * n];
                packed_nn(m, n, k, &dense(m, k, 0.3), &dense(k, n, 0.7), &mut c);
                A_PANEL.with(|p| p.borrow().len()) + B_PANEL.with(|p| p.borrow().len())
            })
            .join()
            .expect("product thread");
            assert!(grown > 0);
            assert_eq!(grown, packing_scratch_words(m, n, k), "m={m} n={n} k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "gemm_packed: c holds 12 words, m×n = 3×5")]
    fn wrong_length_output_panics_with_the_shape() {
        packed_nn(
            3,
            5,
            2,
            &dense(3, 2, 0.1),
            &dense(2, 5, 0.2),
            &mut [0.0; 12],
        );
    }
}
