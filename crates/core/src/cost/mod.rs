//! Communication-cost models — the paper's Eqs. 3–9, implemented
//! exactly as printed.
//!
//! All costs are symbolic [`CostTerms`] (α counts + word counts) per
//! **one SGD iteration**, broken down by collective so reports can
//! reproduce the paper's stacked/hatched bars:
//!
//! * `allgather` — forward activation assembly across the model
//!   dimension (the blocking collective the paper holds against model
//!   parallelism),
//! * `dx_allreduce` — backward activation-gradient all-reduce across
//!   the model dimension,
//! * `dw_allreduce` — weight-gradient all-reduce across the batch
//!   dimension (the *cross-hatched* "batch parallel communication"
//!   portion of the paper's Fig. 6 bars), and
//! * `halo` — domain-parallel boundary exchanges.
//!
//! The paper writes its all-reduce terms with `⌈log₂ P⌉` latency and
//! ring bandwidth (see [`collectives::cost::rabenseifner_allreduce`]); these
//! functions follow the paper's arithmetic so the figure binaries
//! reproduce its numbers.

pub mod crossover;
pub mod integrated;
pub mod pure;

pub use crossover::{batch_over_model_volume_ratio, crossover_batch};
pub use integrated::{best_grid, integrated_full, integrated_model_batch};
pub use pure::{pure_batch, pure_domain, pure_model, redistribution};

use collectives::cost::CostTerms;
use std::ops::{Add, AddAssign};

use crate::machine::MachineModel;

/// Per-iteration communication cost, broken down by collective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommCost {
    /// Forward all-gather across the model dimension.
    pub allgather: CostTerms,
    /// Backward ∆X all-reduce across the model dimension.
    pub dx_allreduce: CostTerms,
    /// ∆W all-reduce across the batch dimension.
    pub dw_allreduce: CostTerms,
    /// Domain-parallel halo exchanges.
    pub halo: CostTerms,
}

impl CommCost {
    /// The zero cost.
    pub const ZERO: CommCost = CommCost {
        allgather: CostTerms::ZERO,
        dx_allreduce: CostTerms::ZERO,
        dw_allreduce: CostTerms::ZERO,
        halo: CostTerms::ZERO,
    };

    /// Sum of all components.
    pub fn total(&self) -> CostTerms {
        self.allgather + self.dx_allreduce + self.dw_allreduce + self.halo
    }

    /// Total seconds on a machine.
    pub fn seconds(&self, m: &MachineModel) -> f64 {
        m.seconds(self.total())
    }

    /// Seconds attributable to the batch-dimension ∆W all-reduce (the
    /// hatched portion of the paper's bars).
    pub fn batch_seconds(&self, m: &MachineModel) -> f64 {
        m.seconds(self.dw_allreduce)
    }
}

impl Add for CommCost {
    type Output = CommCost;
    fn add(self, o: CommCost) -> CommCost {
        CommCost {
            allgather: self.allgather + o.allgather,
            dx_allreduce: self.dx_allreduce + o.dx_allreduce,
            dw_allreduce: self.dw_allreduce + o.dw_allreduce,
            halo: self.halo + o.halo,
        }
    }
}

impl AddAssign for CommCost {
    fn add_assign(&mut self, o: CommCost) {
        *self = *self + o;
    }
}

/// A per-layer cost entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerComm {
    /// Layer name (`conv3`, `fc7`, …).
    pub name: String,
    /// That layer's contribution.
    pub cost: CommCost,
}

/// A full per-iteration cost breakdown: per-layer entries plus totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostBreakdown {
    /// One entry per weighted layer, in order.
    pub layers: Vec<LayerComm>,
    /// Sum over layers.
    pub total: CommCost,
}

impl CostBreakdown {
    pub(crate) fn push(&mut self, name: &str, cost: CommCost) {
        self.total += cost;
        self.layers.push(LayerComm {
            name: name.to_string(),
            cost,
        });
    }

    /// Total seconds on a machine.
    pub fn seconds(&self, m: &MachineModel) -> f64 {
        self.total.seconds(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let c = CommCost {
            allgather: CostTerms::new(1.0, 10.0),
            dx_allreduce: CostTerms::new(2.0, 20.0),
            dw_allreduce: CostTerms::new(3.0, 30.0),
            halo: CostTerms::new(4.0, 40.0),
        };
        assert_eq!(c.total(), CostTerms::new(10.0, 100.0));
    }

    #[test]
    fn breakdown_accumulates() {
        let mut b = CostBreakdown::default();
        let c = CommCost {
            allgather: CostTerms::new(1.0, 5.0),
            ..CommCost::ZERO
        };
        b.push("conv1", c);
        b.push("conv2", c);
        assert_eq!(b.layers.len(), 2);
        assert_eq!(b.total.allgather, CostTerms::new(2.0, 10.0));
    }
}
