//! The repo's benchmark: five seeded workloads measured on two clocks —
//! host wall-clock (how long the simulation takes us) and virtual time
//! (the makespan the paper predicts) — with per-layer probes. See
//! `README.md` for the metric definitions and `../BENCHMARK.json` for
//! the names, units and regression bounds.

pub mod api;
pub mod compare;
pub mod harness;
pub mod json;
pub mod probe;
pub mod provenance;
pub mod reference;
pub mod trace;
pub mod workloads;
