//! # bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's
//! per-experiment index). This library holds the shared experiment
//! plumbing: the fixed Table-1 setup and the bar-chart-as-table
//! renderer used by the figure binaries.

pub mod figures;
pub mod kernels;
pub mod setup;

pub use setup::{parse_args, Args, Setup};
