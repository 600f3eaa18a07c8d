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
//!       pack A[i0.., k0..] → Ã  (MC×KC, MR-row slivers), or read A in place
//!       for each (MR×NR) tile: microkernel(A tile, B̃ sliver, C tile)
//! ```
//!
//! B is supplied as a *sliver-row closure*: `fill_b(k, j0, dst)`
//! writes the `dst.len() ≤ NR` consecutive columns `j0..` of row `k` —
//! exactly one row of a packed sliver. The broadcast operand A comes
//! from one of two places. [`gemm_packed`] packs it the same way,
//! `fill_a(i0, k, dst)` writing the `dst.len() ≤ MR` consecutive rows
//! `i0..` of column `k`: that serves plain row-major matrices and the
//! transposed shapes (`AᵀB`, `ABᵀ`) of [`crate::matmul`], and wherever
//! the sliver row is contiguous in the source the closure is a single
//! `copy_from_slice`. `gemm_in_place` reads it where it lies, through
//! two offset tables (`Offsets`: `A[i, k] = src[rows[i] + ks[k]]`),
//! and stores C the same way (`Scatter`): the convolution's im2col
//! matrix is the huge operand and never packed, and its product lands
//! straight in NCHW (or in `dW`), so only the small weight (or `∆Y`)
//! operand is packed. Both run one loop nest and one microkernel
//! source, generic over where a tile's broadcast comes from. Packing
//! touches each operand element exactly once per panel pass; all
//! floating-point arithmetic lives in the microkernels.
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
use std::marker::PhantomData;

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

/// Words of the B̃ panel of a product with `n` columns and depth `k`,
/// held on the calling thread: all the packing scratch
/// [`gemm_in_place`] needs, whose A is never packed. Bounded by the
/// cache blocking (`KC·NC`), never by the operand sizes.
pub(crate) fn panel_words(n: usize, k: usize) -> usize {
    KC.min(k) * NC.min(n.next_multiple_of(NR))
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

/// The broadcast operand of one register tile: `MR` rows over one K
/// panel.
trait Lanes: Copy {
    /// `A[r, kk]` of the tile.
    ///
    /// # Safety
    ///
    /// `r < MR` and `kk` below the depth of the panel the tile was made
    /// for.
    unsafe fn at(self, r: usize, kk: usize) -> f64;
}

/// A packed Ã sliver, k-major: `A[r, kk]` at `kk·MR + r`.
#[derive(Clone, Copy)]
struct Sliver<'a>(&'a [f64]);

impl Lanes for Sliver<'_> {
    #[inline(always)]
    unsafe fn at(self, r: usize, kk: usize) -> f64 {
        // SAFETY: the sliver is `kc·MR` words (`Packed::tile`).
        unsafe { *self.0.get_unchecked(kk * MR + r) }
    }
}

/// `MR` rows read in place: `A[r, kk]` at `rows[r] + ks[kk]`, each row
/// a pointer to its first word.
#[derive(Clone, Copy)]
struct InPlace<'a> {
    rows: [*const f64; MR],
    ks: &'a [u32],
}

impl Lanes for InPlace<'_> {
    #[inline(always)]
    unsafe fn at(self, r: usize, kk: usize) -> f64 {
        // SAFETY: `ks` spans the panel and `Offsets::new` checked every
        // row plus every offset to land in the source.
        unsafe { *self.rows[r].add(*self.ks.get_unchecked(kk) as usize) }
    }
}

/// Portable microkernel over the top `rows` rows and the first `4·V`
/// columns of an `MR × NR` tile: loads them from `c` — or, on the
/// product's `first` K panel, starts from the `+0.0` a cleared tile
/// would have held — folds the tile's broadcast rows against the packed
/// B̃ sliver over ascending k with `mul_add`, stores them back. All `MR`
/// rows are folded (a ragged tile's tail rows are zero or repeat a
/// valid one); the rows past `rows` are neither read from `c` nor
/// written to it.
fn micro_6x8<const V: usize, A: Lanes>(
    kc: usize,
    a: A,
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
    first: bool,
) {
    let lanes = 4 * V;
    let mut acc = [[0.0f64; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(rows) {
            row[..lanes].copy_from_slice(&c[r * ldc..r * ldc + lanes]);
        }
    }
    for kk in 0..kc {
        let bv = &b[kk * NR..kk * NR + lanes];
        for (r, row) in acc.iter_mut().enumerate() {
            // SAFETY: `r < MR` and `kk < kc`, the tile's depth.
            let ar = unsafe { a.at(r, kk) };
            for (accv, &bc) in row.iter_mut().zip(bv) {
                *accv = ar.mul_add(bc, *accv);
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rows) {
        c[r * ldc..r * ldc + lanes].copy_from_slice(&row[..lanes]);
    }
}

/// AVX2+FMA microkernel: 6×8 register tile (12 accumulator ymm, 2 B
/// vectors, 1 broadcast — 15 of 16 registers), `vfmadd` per lane, which
/// per element is exactly the ascending-k `mul_add` fold of the
/// determinism contract; `V = 1` runs its left half, 6×4, for a tile
/// whose valid columns fit in it. Touches the top `rows` rows of `c`,
/// like [`micro_6x8`].
///
/// # Safety
///
/// Caller must have verified AVX2+FMA support via
/// [`fma_kernel_available`], `a` must be a tile of depth `kc`, `b` must
/// hold `kc·NR` words, `rows` must be in `1..=MR`, `V` in `1..=2`, and
/// `c` must have `rows` rows of `ldc` with at least `4·V` valid columns
/// at the tile origin.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_6x8_fma<const V: usize, A: Lanes>(
    kc: usize,
    a: A,
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    debug_assert!(b.len() >= kc * NR && (1..=2).contains(&V));
    debug_assert!((1..=MR).contains(&rows) && c.len() >= (rows - 1) * ldc + 4 * V);
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    let mut acc = [[_mm256_setzero_pd(); V]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(rows) {
            for (v, x) in row.iter_mut().enumerate() {
                *x = _mm256_loadu_pd(cp.add(r * ldc + 4 * v));
            }
        }
    }
    for kk in 0..kc {
        let mut bv = [_mm256_setzero_pd(); V];
        for (v, x) in bv.iter_mut().enumerate() {
            *x = _mm256_loadu_pd(bp.add(kk * NR + 4 * v));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_pd(a.at(r, kk));
            for (x, &bx) in row.iter_mut().zip(&bv) {
                *x = _mm256_fmadd_pd(ar, bx, *x);
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rows) {
        for (v, &x) in row.iter().enumerate() {
            _mm256_storeu_pd(cp.add(r * ldc + 4 * v), x);
        }
    }
}

/// Runs one tile of `rows` rows and `4·V` columns on the best available
/// microkernel; `a` must be a tile of depth `kc`.
// The argument list mirrors the microkernel ABI; bundling it into a
// struct would just move the field list.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_rows<const V: usize, A: Lanes>(
    fma: bool,
    kc: usize,
    a: A,
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    rows: usize,
    first: bool,
) {
    assert!(b.len() >= kc * NR && (1..=2).contains(&V));
    assert!((1..=MR).contains(&rows) && c.len() >= (rows - 1) * ldc + 4 * V);
    #[cfg(target_arch = "x86_64")]
    if fma {
        // SAFETY: `fma` is only true after runtime AVX2+FMA detection,
        // and the asserts above are the kernel's extent preconditions.
        unsafe { micro_6x8_fma::<V, A>(kc, a, b, c, ldc, rows, first) };
        return;
    }
    let _ = fma;
    micro_6x8::<V, A>(kc, a, b, c, ldc, rows, first);
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
fn micro_dispatch<A: Lanes>(
    fma: bool,
    kc: usize,
    a: A,
    b: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    first: bool,
) {
    if nr_eff == NR {
        micro_rows::<2, A>(fma, kc, a, b, c, ldc, mr_eff, first);
        return;
    }
    let mut tile = [0.0f64; MR * NR];
    if !first {
        for r in 0..mr_eff {
            tile[r * NR..r * NR + nr_eff].copy_from_slice(&c[r * ldc..r * ldc + nr_eff]);
        }
    }
    micro_rows::<2, A>(fma, kc, a, b, &mut tile, NR, mr_eff, first);
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

/// An `m × k` operand read where it lies: `A[i, kk] = src[rows[i] +
/// ks[kk]]` — the separable offset map of an im2col matrix
/// ([`crate::conv::Im2colMap`]), read by pixel rows or by tap rows.
pub(crate) struct Offsets<'a> {
    src: &'a [f64],
    rows: &'a [u32],
    ks: &'a [u32],
}

impl<'a> Offsets<'a> {
    /// Checks that every `rows[i] + ks[kk]` lands in `src`.
    pub(crate) fn new(src: &'a [f64], rows: &'a [u32], ks: &'a [u32]) -> Self {
        let max = |t: &[u32]| t.iter().max().map_or(0, |&v| v as usize);
        assert!(
            max(rows) + max(ks) < src.len(),
            "offsets past {} words",
            src.len()
        );
        Offsets { src, rows, ks }
    }

    /// The tile of rows `is..is + mr_eff` over the K panel from `k0`. A
    /// ragged tile's tail rows repeat its last: they are folded, never
    /// stored.
    fn tile(&self, is: usize, mr_eff: usize, k0: usize) -> InPlace<'_> {
        let row = |r: usize| self.rows[is + r.min(mr_eff - 1)] as usize;
        // SAFETY: `new` checked that each row's first word is in `src`.
        let rows = std::array::from_fn(|r| unsafe { self.src.as_ptr().add(row(r)) });
        InPlace {
            rows,
            ks: &self.ks[k0..],
        }
    }
}

/// An `m × n` product stored where its words lie: `C[i, j]` at
/// `c[rows[i] + j·stride]` — a convolution's NCHW output (a row per
/// pixel, a plane per channel) or `dW` stored transposed.
pub(crate) struct Scatter<'a> {
    c: *mut f64,
    rows: &'a [u32],
    n: usize,
    stride: usize,
    _c: PhantomData<&'a mut [f64]>,
}

// SAFETY: distinct `(i, j)` name distinct words (`Scatter::new`), so the
// row blocks that threads store from never share a word.
unsafe impl Sync for Scatter<'_> {}

impl<'a> Scatter<'a> {
    /// Checks that `(i, j) ↦ rows[i] + j·stride`, `j < n`, names each
    /// word of `c` at most once: the rows ascend, and each sits in the
    /// first `stride` words of its `n·stride`-word record, so a word's
    /// record, place in it and column give back the row.
    pub(crate) fn new(c: &'a mut [f64], rows: &'a [u32], n: usize, stride: usize) -> Self {
        let record = n * stride;
        let fits =
            |&r: &u32| (r as usize) % record < stride && r as usize + record - stride < c.len();
        assert!(
            record > 0 && rows.windows(2).all(|w| w[0] < w[1]) && rows.iter().all(fits),
            "scatter of {} rows x {n} at stride {stride} into {} words",
            rows.len(),
            c.len()
        );
        let (c, _c) = (c.as_mut_ptr(), PhantomData);
        Scatter {
            c,
            rows,
            n,
            stride,
            _c,
        }
    }

    /// Runs the tile of rows `is..is + mr_eff`, columns `j..j +
    /// nr_eff`, through a stack tile preloaded from `c` unless `first`;
    /// a tile whose columns fit in half of one runs the half kernel.
    #[allow(clippy::too_many_arguments)]
    fn tile<A: Lanes>(
        &self,
        fma: bool,
        kc: usize,
        a: A,
        b: &[f64],
        is: usize,
        mr_eff: usize,
        j: usize,
        nr_eff: usize,
        first: bool,
    ) {
        // SAFETY: `new` checked every word in bounds and named once, and
        // row `is + r` is this block's alone.
        let word = |r: usize, c: usize| unsafe {
            self.c
                .add(self.rows[is + r] as usize + (j + c) * self.stride)
        };
        let mut tile = [0.0f64; MR * NR];
        if !first {
            for r in 0..mr_eff {
                for c in 0..nr_eff {
                    tile[r * NR + c] = unsafe { *word(r, c) };
                }
            }
        }
        if nr_eff > NR / 2 {
            micro_rows::<2, A>(fma, kc, a, b, &mut tile, NR, mr_eff, first);
        } else {
            micro_rows::<1, A>(fma, kc, a, b, &mut tile, NR, mr_eff, first);
        }
        for r in 0..mr_eff {
            for c in 0..nr_eff {
                unsafe { *word(r, c) = tile[r * NR + c] };
            }
        }
    }
}

/// The loop nest's operands: where A's tiles come from and where C's go.
enum Operands<'a, FA> {
    /// A packed into Ã slivers through its sliver-row closure, C
    /// row-major ([`gemm_packed`]).
    Packed(FA, &'a mut [f64]),
    /// A read in place, C scattered ([`gemm_in_place`]).
    InPlace(Offsets<'a>, Scatter<'a>),
}

/// One MC-row block's share of the [`Operands`].
enum Block<'b, FA> {
    /// The closure and the block's rows of C.
    Packed(&'b FA, &'b mut [f64]),
    /// Both maps; the block's rows are its index's.
    InPlace(&'b Offsets<'b>, &'b Scatter<'b>),
}

impl<FA: Sync> Operands<'_, FA> {
    /// Calls `f(blk, block)` for every MC-row block of an `m × n`
    /// product, on the pool's threads when `parallel`.
    fn for_blocks(
        &mut self,
        m: usize,
        n: usize,
        parallel: bool,
        f: impl Fn(usize, Block<'_, FA>) + Sync,
    ) {
        match self {
            Operands::Packed(fa, c) if parallel => c
                .par_chunks_mut(MC * n)
                .enumerate()
                .for_each(|(blk, c)| f(blk, Block::Packed(fa, c))),
            Operands::Packed(fa, c) => {
                for (blk, c) in c.chunks_mut(MC * n).enumerate() {
                    f(blk, Block::Packed(fa, c));
                }
            }
            // The pool splits a slice: one (sizeless) unit per block.
            Operands::InPlace(a, c) if parallel => vec![(); m.div_ceil(MC)]
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(blk, _)| f(blk, Block::InPlace(a, c))),
            Operands::InPlace(a, c) => {
                for blk in 0..m.div_ceil(MC) {
                    f(blk, Block::InPlace(a, c));
                }
            }
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
    gemm(m, n, k, fill_b, Operands::Packed(fill_a, c));
}

/// [`gemm_packed`] with A read in place through `a`'s offset tables
/// and C stored through `c`'s: as many rows in both, one column of `c`
/// per column of B, `fill_b` as there. Only B is packed. An empty
/// product stores nothing.
pub(crate) fn gemm_in_place<FB>(a: Offsets<'_>, fill_b: FB, c: Scatter<'_>)
where
    FB: Fn(usize, usize, &mut [f64]) + Sync,
{
    let (m, n, k) = (a.rows.len(), c.n, a.ks.len());
    assert_eq!(c.rows.len(), m, "gemm_in_place: rows of A and C");
    if m > 0 && k > 0 {
        gemm::<fn(usize, usize, &mut [f64]), _>(m, n, k, fill_b, Operands::InPlace(a, c));
    }
}

/// The loop nest both entry points run, on a non-empty product.
fn gemm<FA, FB>(m: usize, n: usize, k: usize, fill_b: FB, mut ops: Operands<'_, FA>)
where
    FA: Fn(usize, usize, &mut [f64]) + Sync,
    FB: Fn(usize, usize, &mut [f64]) + Sync,
{
    let fma = fma_kernel_available();
    let parallel = m > MC
        && m.saturating_mul(n).saturating_mul(k) >= PAR_MIN_MNK
        && rayon::current_num_threads() > 1;
    let a_words = match ops {
        Operands::Packed(..) => MC.min(m.next_multiple_of(MR)) * KC.min(k),
        Operands::InPlace(..) => 0,
    };
    with_scratch(&B_PANEL, panel_words(n, k), |b_panel| {
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
                // One Ã borrow per row block, on whichever thread runs it.
                ops.for_blocks(m, n, parallel, |blk, mut out| {
                    with_scratch(&A_PANEL, a_words, |ap| {
                        let i0 = blk * MC;
                        let ieff = MC.min(m - i0);
                        let ap = &mut ap[..a_words.min(ieff.div_ceil(MR) * MR * keff)];
                        if let Block::Packed(fill_a, _) = out {
                            // Pack Ã: MR-row slivers, k-major.
                            for (s, sliver) in ap.chunks_exact_mut(keff * MR).enumerate() {
                                let is = i0 + s * MR;
                                pack_sliver::<MR>(sliver, MR.min(i0 + ieff - is), |kk, dst| {
                                    fill_a(is, k0 + kk, dst)
                                });
                            }
                        }
                        for t in 0..jsl {
                            let (j, nr_eff) = (j0 + t * NR, NR.min(jeff - t * NR));
                            let b = &b_ref[t * keff * NR..(t + 1) * keff * NR];
                            for s in 0..ieff.div_ceil(MR) {
                                let (is, mr_eff, first) =
                                    (i0 + s * MR, MR.min(ieff - s * MR), k0 == 0);
                                match &mut out {
                                    Block::Packed(_, c) => {
                                        let a = Sliver(&ap[s * keff * MR..(s + 1) * keff * MR]);
                                        let c = &mut c[s * MR * n + j..];
                                        micro_dispatch(fma, keff, a, b, c, n, mr_eff, nr_eff, first)
                                    }
                                    Block::InPlace(a, sc) => {
                                        let a = a.tile(is, mr_eff, k0);
                                        sc.tile(fma, keff, a, b, is, mr_eff, j, nr_eff, first)
                                    }
                                }
                            }
                        }
                    })
                });
                k0 += keff;
            }
            j0 += jeff;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words of packing scratch a `m×k · k×n` [`gemm_packed`] needs: one
    /// B̃ panel on the calling thread plus one Ã block per worker
    /// thread, both in thread-local buffers that only ever grow to the
    /// largest such need — bounded by the cache blocking
    /// (`KC·NC + MC·KC`), never by the operand sizes.
    fn packing_scratch_words(m: usize, n: usize, k: usize) -> usize {
        if m == 0 || n == 0 || k == 0 {
            return 0;
        }
        panel_words(n, k) + MC.min(m.next_multiple_of(MR)) * KC.min(k)
    }

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
            micro_dispatch(
                false,
                kc,
                Sliver(&a),
                &b,
                &mut portable,
                NR,
                mr_eff,
                nr_eff,
                first,
            );
            micro_dispatch(
                fma_kernel_available(),
                kc,
                Sliver(&a),
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
                micro_dispatch(
                    false,
                    kc,
                    Sliver(&a),
                    &b,
                    &mut cleared,
                    NR,
                    mr_eff,
                    nr_eff,
                    false,
                );
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
    fn an_in_place_product_packs_only_b() {
        // A read through offsets and C scattered transposed, on a fresh
        // thread: the fold is the contract's, the thread grows exactly
        // the B̃ panel, and no Ã block.
        let (m, n, k) = (MC + 5, NR + 3, KC + 7);
        let (a, b) = (dense(m, k, 0.3), dense(k, n, 0.7));
        let grown = std::thread::spawn(move || {
            let (rows, ks): (Vec<u32>, Vec<u32>) = (
                (0..m as u32).map(|i| i * k as u32).collect(),
                (0..k as u32).collect(),
            );
            let cols: Vec<u32> = (0..m as u32).collect();
            let mut c = vec![f64::NAN; m * n];
            let c_ref = Scatter::new(&mut c, &cols, n, m);
            gemm_in_place(
                Offsets::new(&a, &rows, &ks),
                |kk, j0, dst| copy_lanes(&b, kk * n + j0, dst),
                c_ref,
            );
            assert_eq!(transposed(n, m, &c), fma_dot(m, n, k, &a, &b));
            A_PANEL.with(|p| p.borrow().len()) + B_PANEL.with(|p| p.borrow().len())
        })
        .join()
        .expect("product thread");
        assert_eq!(grown, panel_words(n, k));
    }

    #[test]
    #[should_panic(expected = "scatter of 2 rows x 3 at stride 4 into 12 words")]
    fn a_scatter_that_names_a_word_twice_panics() {
        // Row 1 sits past its record's first `stride` words: its column 0
        // would be row 0's column 1.
        Scatter::new(&mut [0.0; 12], &[0, 4], 3, 4);
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
