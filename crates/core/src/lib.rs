//! # integrated — the paper's contribution
//!
//! Communication-cost models (Eqs. 3–9), the compute and memory models,
//! the `Pr × Pc` strategy optimizer, the comm/compute overlap model
//! (Fig. 8), the 1.5D-vs-SUMMA analysis (§4 Discussion), and an
//! executable distributed-SGD trainer over `mpsim`/`distmm` validated
//! against both serial numerics and the closed-form costs.

// Index-based loops are the clearest way to write rank/block index
// arithmetic; the clippy suggestions (iterators, is_multiple_of) obscure
// the correspondence with the paper's formulas.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]
pub mod bounds;
pub mod chaos;
pub mod cnn;
pub mod compute;
pub mod cost;
pub mod data;
pub mod epochs;
pub mod ft_trainer;
pub mod machine;
pub mod memory;
pub mod mixed;
pub mod optimizer;
pub mod overlap;
pub mod plan;
pub mod report;
pub mod strategy;
pub mod summa_analysis;
pub mod trainer;

pub use machine::MachineModel;
pub use strategy::{LayerParallelism, Strategy};
