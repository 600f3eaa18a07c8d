//! # tensor — dense linear-algebra and convolution substrate
//!
//! The paper views DNN training as three matrix products per layer
//! (`Y = W·X`, `∆W = ∆Y·Xᵀ`, `∆X = Wᵀ·∆Y`) plus convolutions that can
//! be lowered to matrix products via im2col. This crate provides those
//! kernels — a row-major [`Matrix`] driven by a panel-packed,
//! cache-blocked GEMM with a register-tiled microkernel ([`gemm`]), an
//! NCHW [`Tensor4`] with direct and implicit-GEMM convolution, pooling,
//! and activations — so the distributed algorithms in `distmm` and the
//! trainer in `integrated` operate on real numbers and can be verified
//! against serial references.
//!
//! Everything is `f64`, and every kernel follows one deterministic
//! accumulation order (ascending-k fused multiply-add; see [`gemm`]):
//! results are bit-reproducible run-to-run and across the scalar/SIMD
//! dispatch, which is what lets [`abft`] repair corrupted elements
//! bit-exactly.

// Index-based loops are the clearest way to write rank/block index
// arithmetic; the clippy suggestions (iterators, is_multiple_of) obscure
// the correspondence with the paper's formulas.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]
pub mod abft;
pub mod activation;
pub mod conv;
pub mod gemm;
pub mod init;
pub mod lrn;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod recycle;

pub use conv::{Conv2dParams, Tensor4};
pub use matrix::Matrix;
