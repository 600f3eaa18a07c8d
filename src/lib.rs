//! # integrated-parallelism — reproduction facade
//!
//! Reproduction of Gholami, Azad, Jin, Keutzer & Buluç, *"Integrated
//! Model, Batch, and Domain Parallelism in Training Neural Networks"*
//! (SPAA 2018). This crate re-exports the whole workspace so examples
//! and integration tests (and downstream users) need a single
//! dependency:
//!
//! * [`mpsim`] — MPI-like simulator with α–β virtual clocks,
//! * [`collectives`] — ring/Bruck/recursive collectives + closed forms,
//! * [`tensor`] — dense matmul/conv kernels,
//! * [`dnn`] — layer shape algebra (Eq. 2) and the model zoo,
//! * [`distmm`] — executable 1D/1.5D/domain distributed algorithms,
//! * [`integrated`] — the paper's cost models (Eqs. 3–9), optimizer,
//!   overlap/memory/SUMMA analyses, and the verified trainer.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure.

pub use collectives;
pub use distmm;
pub use dnn;
pub use integrated;
pub use mpsim;
pub use tensor;
