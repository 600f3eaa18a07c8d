//! `chaos_ft` — the robustness workload: seeded chaos plans (kills with
//! rejoin, healed partitions, duplication, reordering) judged by the
//! six-invariant oracle, plus bit-flip plans judged with ABFT on.
//!
//! Chosen because nothing else runs the fault-tolerant trainer, fault
//! injection, health/retry and ABFT, and because it spawns hundreds of
//! tiny worlds, so world spawn and teardown cost shows here.
//!
//! `Oracle::check` returns a verdict only, so the virtual-clock numbers
//! come from a bare `train_1p5d_ft` run of the same plans during
//! set-up, on a copy of the oracle's (hard-coded) task; the copy is
//! pinned by comparing fault-free makespans bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::api::{
    mlp_tiny, synthetic_data, train_1p5d_ft, train_serial, ChaosPlan, FaultPlan, FtConfig,
    FtDistResult, FtTrainConfig, MachineModel, Matrix, Network, Oracle, TrainConfig,
};
use crate::probe::{Layers, ProbeDims};
use crate::trace::Tracer;
use crate::workloads::fc::replay_fc;
use crate::workloads::{Pass, Sim, Workload};

const GRID: (usize, usize) = (2, 3);
const ITERS: usize = 8;
const BATCH: usize = 24;

/// Bit-flip plan seeds are drawn from `0..SDC_POOL`. Unlike plain chaos
/// plans (none of 12 000 seeds across the `u64` range violates an
/// invariant), about 1 % of `generate_sdc` seeds outside the range CI
/// sweeps do — a finding for the robustness aim, not a benchmark
/// input: a workload's operations must not fail at the commit that
/// defines it.
const SDC_POOL: u64 = 200;

pub struct Chaos {
    /// (plan, judged with ABFT on).
    plans: Vec<(ChaosPlan, bool)>,
    oracle: Oracle,
    oracle_abft: Oracle,
    net: Network,
    x: Matrix,
    labels: Vec<usize>,
    sim: Sim,
    setup_failures: Vec<String>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Chaos {
    pub fn setup(seed: u64, smoke: bool) -> Chaos {
        let (n_gen, n_sdc) = if smoke { (4, 2) } else { (40, 20) };
        let base = splitmix(seed);
        let plans = (0..n_gen)
            .map(|i| (ChaosPlan::generate(base.wrapping_add(i)), false))
            .chain((0..n_sdc).map(|i| {
                (
                    ChaosPlan::generate_sdc((base % SDC_POOL + i) % SDC_POOL),
                    true,
                )
            }))
            .collect();
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, BATCH, 5);
        let mut c = Chaos {
            plans,
            oracle: Oracle::new(GRID.0, GRID.1, ITERS),
            oracle_abft: Oracle::with_abft(GRID.0, GRID.1, ITERS, true),
            net,
            x,
            labels,
            sim: Sim::new(),
            setup_failures: Vec::new(),
        };
        (c.sim, c.setup_failures, _) = c.bare_runs();
        c
    }

    /// The oracle's trainer configuration (`Oracle::with_abft`).
    fn ft_config(abft: bool) -> FtTrainConfig {
        FtTrainConfig {
            lr: 0.3,
            iters: ITERS,
            seed: 7,
            ckpt_every: 2,
            abft,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine: MachineModel::cori_knl(),
            ..FtTrainConfig::default()
        }
    }

    fn oracle_for(&self, abft: bool) -> &Oracle {
        if abft {
            &self.oracle_abft
        } else {
            &self.oracle
        }
    }

    fn bare(&self, plan: FaultPlan, abft: bool) -> FtDistResult {
        train_1p5d_ft(
            &self.net,
            &self.x,
            &self.labels,
            &Self::ft_config(abft),
            GRID.0,
            GRID.1,
            plan,
        )
    }

    /// Runs every plan on the bare trainer: the virtual-clock summary,
    /// what went wrong, and the host seconds spent in the trainer.
    fn bare_runs(&self) -> (Sim, Vec<String>, f64) {
        let mut sim = Sim::new();
        let mut failures = Vec::new();
        for abft in [false, true] {
            let clean = self.bare(FaultPlan::default(), abft).stats.makespan();
            let want = self.oracle_for(abft).clean_makespan();
            if clean.to_bits() != want.to_bits() {
                failures.push(format!(
                    "bare trainer (abft {abft}) is not the oracle's task: fault-free makespan {clean:e} vs {want:e}"
                ));
            }
        }
        let mut secs = 0.0;
        for (k, (plan, abft)) in self.plans.iter().enumerate() {
            let faults = plan.to_fault_plan(self.oracle_for(*abft).clean_makespan());
            let t = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| self.bare(faults, *abft)));
            secs += t.elapsed().as_secs_f64();
            match ran {
                Ok(r) => {
                    sim.absorb(&r.stats);
                    sim.absorb_u64(plan.seed);
                    if let Some(first) = r.survivors().first() {
                        sim.recoveries += first.recoveries.len() as u64;
                        sim.absorb_losses(&first.losses);
                    }
                }
                Err(_) => failures.push(format!("plan {k}: bare trainer panicked")),
            }
        }
        (sim, failures, secs)
    }
}

impl Workload for Chaos {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::new();
        for (k, (plan, abft)) in self.plans.iter().enumerate() {
            let kind = if *abft { "sdc" } else { "chaos" };
            pass.operation(&format!("{kind} plan seed {}", plan.seed), |_, broken| {
                let (verdict, _) = tr.span("core", format!("Oracle::check {kind} #{k}"), |_| {
                    self.oracle_for(*abft).check(plan)
                });
                if let Err(v) = verdict {
                    broken.push(v.to_string());
                }
            });
        }
        pass.failures.extend(self.setup_failures.iter().cloned());
        pass.sim = self.sim.clone();
        pass
    }

    fn sizes(&self) -> String {
        let sdc = self.plans.iter().filter(|p| p.1).count();
        format!(
            "mlp_tiny B={BATCH} grid={}x{} iters={ITERS} plans={}+{sdc} sdc",
            GRID.0,
            GRID.1,
            self.plans.len() - sdc
        )
    }

    fn probe_dims(&self) -> ProbeDims {
        // The tiny MLP's widest layer (64×48) over the 2×3 grid.
        ProbeDims {
            p: GRID.0 * GRID.1,
            group: GRID.1,
            words: 64 * 48 / GRID.0,
            halo_words: 48 * BATCH / GRID.1,
        }
    }

    /// The fault-free schedule of the same task stands in for every
    /// plan at the `distmm`, `collectives` and `tensor` level; fault
    /// handling, recovery and the oracle's checks are what `core.self_s`
    /// then holds.
    fn replay(&self, tr: &mut Tracer, _pass_s: f64) -> Layers {
        let n = self.plans.len() as f64;
        let mut out = replay_fc(tr, &self.net, BATCH, ITERS, &[GRID]);
        for rate in [&mut out.gemm, &mut out.gemm_skinny] {
            rate.flops *= n;
            rate.secs *= n;
        }
        out.collectives_s *= n;
        out.distmm_s *= n;

        let cfg = TrainConfig {
            lr: 0.3,
            iters: ITERS,
            seed: 7,
        };
        let (_, serial_s) = tr.span("core", "train_serial", |_| {
            train_serial(&self.net, &self.x, &self.labels, &cfg)
        });
        out.serial_s = serial_s * n;

        // Per-plan latency and what the oracle adds to the bare trainer.
        let (check_s, _) = tr.span("core", "probe:plan_latency", |_| {
            let mut total = 0.0;
            for (plan, abft) in &self.plans {
                let t = Instant::now();
                let _ = catch_unwind(AssertUnwindSafe(|| self.oracle_for(*abft).check(plan)));
                let s = t.elapsed().as_secs_f64();
                out.plan_ms.push(s * 1e3);
                total += s;
            }
            total
        });
        let (bare_s, _) = tr.span("core", "probe:bare_trainer", |_| self.bare_runs().2);
        out.oracle_overhead = check_s / bare_s;
        out
    }
}
