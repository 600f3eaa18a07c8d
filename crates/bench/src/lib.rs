//! # bench — experiment harness
//!
//! The `figures` binary holds one row per analytic table/figure of the
//! paper (see DESIGN.md's per-experiment index); the other binaries run
//! the executed experiments and sweeps. This library holds the shared
//! experiment plumbing: the fixed Table-1 setup and the
//! bar-chart-as-table renderer used by the figure rows.

pub mod figures;
pub mod kernels;
pub mod setup;

pub use setup::{parse_args, Args, Setup};
