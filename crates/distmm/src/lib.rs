//! # distmm — distributed matrix multiply and convolution over `mpsim`
//!
//! Executable versions of the parallel layer algebras in the paper's
//! Figures 1, 2, 3, and 5 — one algebra per layer kind:
//!
//! * [`onep5d`] — the paper's contribution (Fig. 5): the 1.5D algorithm
//!   on a `Pr × Pc` grid; `W` split over `Pr` (replicated `Pc` times),
//!   `X`/`Y` split over `Pc` (replicated `Pr` times). `Pr = 1` *is*
//!   pure batch parallelism (Fig. 2: the only communication is the ∆W
//!   all-reduce) and `Pc = 1` pure model parallelism (Fig. 1: an
//!   all-gather per forward layer, an all-reduce for ∆X); its tests pin
//!   both corners' values and costs.
//! * [`cols`] — column relayout between layers whose grids differ (the
//!   executable Eq. 6).
//! * [`domain_general`] — domain-parallel convolution and pooling
//!   (Fig. 3) for any stride, padding and kernel, over [`rows`]: the
//!   one non-blocking window exchange, whose traffic for a stride-1
//!   same-padded kernel is Eq. 7's fixed halo and which the interior of
//!   the strip is convolved behind.
//! * [`dist`] — which block of a dimension a rank owns.
//!
//! Every algorithm is verified against serial `tensor` kernels, and its
//! virtual-clock cost against the corresponding closed form.

// Index-based loops are the clearest way to write rank/block index
// arithmetic; the clippy suggestions (iterators, is_multiple_of) obscure
// the correspondence with the paper's formulas.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]
pub mod cols;
pub mod dist;
pub mod domain_general;
pub mod onep5d;
pub mod rows;

pub use dist::part_range;
