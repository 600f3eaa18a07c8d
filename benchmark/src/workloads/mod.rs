//! The five workloads. Each is a closed loop with one client and fixed
//! work: a *pass* runs the workload's units (one grid run, or one
//! chaos plan) one after another on the calling thread, and the
//! harness repeats passes for the measuring window.

pub mod chaos;
pub mod cnn;
pub mod fc;
pub mod scale;

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::api::WorldStats;
use crate::probe::{Layers, ProbeDims};
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "fc_1p5d",
    "cnn_domain",
    "scale_square",
    "scale_flat",
    "chaos_ft",
];

/// What one pass saw on the virtual clock, summed over its units.
/// Everything here is a pure function of the seed and the code: two
/// passes, or two runs, must agree bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Σ units `WorldStats::makespan()`.
    pub makespan: f64,
    /// max units |executed transfer s / closed form − 1|.
    pub eq_residual: f64,
    /// min / max units executed transfer s / closed form.
    pub eq_ratio_min: f64,
    pub eq_ratio_max: f64,
    /// `measured_overlap_fraction()` of the widest batch grid (fc only).
    pub overlap_fraction: f64,
    /// Σ units of the world size: ranks spawned.
    pub ranks: u64,
    pub envelopes: u64,
    pub words: u64,
    /// (allreduce, allgather, iallreduce, iallgather) calls.
    pub calls: (u64, u64, u64, u64),
    pub timeouts: u64,
    pub retries: u64,
    pub dropped: u64,
    /// Σ units of the slowest rank's compute / comm seconds.
    pub compute: f64,
    pub comm: f64,
    /// Σ exposed drain waits of the non-blocking collectives.
    pub exposed_wait: f64,
    pub recoveries: u64,
    pub rollbacks: u64,
    pub recovery: f64,
    /// FNV of the output bits of every unit: losses, skeleton
    /// checksums, chaos plan seeds (information, and how the
    /// self-tests see that another seed gave other inputs).
    pub loss_digest: u64,
}

impl Sim {
    pub fn new() -> Sim {
        Sim {
            eq_ratio_min: f64::INFINITY,
            loss_digest: 0xcbf2_9ce4_8422_2325,
            ..Sim::default()
        }
    }

    pub fn absorb(&mut self, s: &WorldStats) {
        self.makespan += s.makespan();
        self.ranks += s.ranks.len() as u64;
        self.envelopes += s.total_msgs();
        self.words += s.total_words();
        let c = s.total_collective_calls();
        self.calls = (
            self.calls.0 + c.0,
            self.calls.1 + c.1,
            self.calls.2 + c.2,
            self.calls.3 + c.3,
        );
        self.timeouts += s.total_timeouts();
        self.retries += s.total_retries();
        self.dropped += s.total_dropped();
        self.compute += s.max_compute();
        self.comm += s.max_comm();
        self.exposed_wait += s.total_comm_wait_secs();
        self.rollbacks += s.total_corrupt_recovered();
        self.recovery += s.max_recovery_secs();
    }

    /// Folds one unit's executed-vs-closed-form transfer ratio in.
    pub fn absorb_eq_ratio(&mut self, executed: f64, closed_form: f64) {
        let ratio = executed / closed_form;
        self.eq_residual = self.eq_residual.max((ratio - 1.0).abs());
        self.eq_ratio_min = self.eq_ratio_min.min(ratio);
        self.eq_ratio_max = self.eq_ratio_max.max(ratio);
    }

    /// One training unit: its statistics and losses, checked for
    /// per-step loss parity with the single-worker reference (1e-9; a
    /// NaN or a missing step fails too) and for identical replicas.
    pub fn absorb_training(
        &mut self,
        stats: &WorldStats,
        losses: &[f64],
        serial: &[f64],
        replica_divergence: f64,
        broken: &mut Vec<String>,
    ) {
        self.absorb(stats);
        self.absorb_losses(losses);
        if losses.len() != serial.len() {
            broken.push(format!(
                "{} losses, serial has {}",
                losses.len(),
                serial.len()
            ));
        }
        for (t, (a, s)) in losses.iter().zip(serial).enumerate() {
            let close = (a - s).abs() < 1e-9;
            if !close {
                broken.push(format!("iter {t}: loss {a} vs serial {s}"));
            }
        }
        if replica_divergence != 0.0 {
            broken.push(format!("replicas diverge by {replica_divergence:e}"));
        }
    }

    pub fn absorb_losses(&mut self, losses: &[f64]) {
        for l in losses {
            self.absorb_u64(l.to_bits());
        }
    }

    pub fn absorb_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.loss_digest ^= b as u64;
            self.loss_digest = self.loss_digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The slowest rank's executed α–β transfer seconds: blocking receives
/// plus the non-blocking channel — the quantity Eq. 8/9 predicts.
pub fn executed_transfer_secs(s: &WorldStats) -> f64 {
    s.ranks
        .iter()
        .map(|r| r.transfer_secs + r.channel_secs)
        .fold(0.0, f64::max)
}

/// Outcome of one pass: operations attempted, one line per failed
/// operation, and the virtual-clock summary.
#[derive(Debug, Clone)]
pub struct Pass {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub sim: Sim,
}

impl Pass {
    pub fn new() -> Pass {
        Pass {
            attempted: 0,
            failures: Vec::new(),
            sim: Sim::new(),
        }
    }

    /// Runs one operation under `catch_unwind`: a panic is a failed
    /// operation, not the end of the benchmark. `f` reports broken
    /// checks by pushing to the failure list it is handed.
    pub fn operation(&mut self, what: &str, f: impl FnOnce(&mut Sim, &mut Vec<String>)) {
        self.attempted += 1;
        let mut broken = Vec::new();
        let sim = &mut self.sim;
        if catch_unwind(AssertUnwindSafe(|| f(sim, &mut broken))).is_err() {
            broken.push("panicked".to_string());
        }
        if !broken.is_empty() {
            self.failures.push(format!("{what}: {}", broken.join("; ")));
        }
    }
}

impl Default for Pass {
    fn default() -> Self {
        Pass::new()
    }
}

pub trait Workload {
    /// One fixed-work pass over every unit, checking outputs as it goes.
    fn pass(&self, tr: &mut Tracer) -> Pass;

    /// Sizes as they go into the provenance block.
    fn sizes(&self) -> String;

    /// World size, group size and word counts for the layer
    /// micro-probes.
    fn probe_dims(&self) -> ProbeDims;

    /// Replays each layer's share of one pass from outside (traced run
    /// only). `pass_s` is the median untraced pass time.
    fn replay(&self, tr: &mut Tracer, pass_s: f64) -> Layers;
}

/// Builds a workload: generates its inputs from `seed`, builds its
/// references. `smoke` is the self-test sizing.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fc_1p5d" => Box::new(fc::Fc::setup(seed, smoke)),
        "cnn_domain" => Box::new(cnn::Cnn::setup(seed, smoke)),
        "scale_square" => Box::new(scale::Scale::setup(seed, smoke, false)),
        "scale_flat" => Box::new(scale::Scale::setup(seed, smoke, true)),
        "chaos_ft" => Box::new(chaos::Chaos::setup(seed, smoke)),
        _ => return None,
    })
}

/// Power-of-two `pr × pc` grids of `p` ranks, batch-only first.
pub fn pow2_grids(p: usize) -> Vec<(usize, usize)> {
    (0..=p.trailing_zeros())
        .map(|k| (1usize << k, p >> k))
        .collect()
}
