//! Chaos-campaign engine: seeded random fault plans, an invariant
//! oracle, and a greedy delta-debugging minimizer with replayable JSON
//! plans.
//!
//! A **campaign** draws [`ChaosPlan`]s from a seed — each a list of
//! [`Fault`]s, the fault vocabulary of [`FaultPlan`] itself (kills,
//! rejoins, partitions, heals, duplications, reorderings, bit flips;
//! hand-written plans may also straggle, drop and corrupt), with every
//! virtual-time quantity expressed as a *fraction of the fault-free
//! makespan*, so a plan is scale-free and replays identically on any
//! machine model. The [`Oracle`] runs each plan through the
//! fault-tolerant trainer and checks the safety invariants the
//! split-brain design promises:
//!
//! 1. **termination** — every rank finishes without error or panic,
//!    except outcomes the plan itself scripts (a permanently-killed
//!    rank ends `RankFailed`; under a never-healed partition the
//!    quorum-less side parks forever and ends `Unreachable`); the
//!    carve-outs keep the minimizer honest — it can't "shrink" a real
//!    failure into a plan whose only sin is scripting a death
//!    (real-time deadlock is the CI job timeout's to catch; everything
//!    the simulator can observe terminates in virtual time);
//! 2. **virtual-time horizon** — the faulty makespan stays within a
//!    generous multiple of fault-free, catching runaway retry or
//!    recovery loops;
//! 3. **single writer** — every finishing rank reports the *same*
//!    committed loss chain of the configured length: had two fragments
//!    both stepped the optimizer (split brain), their chains would
//!    diverge;
//! 4. **loss parity** — the chain matches the fault-free trajectory to
//!    1e-6: recovery replays, parks, and heals leave no numerical
//!    residue;
//! 5. **trace well-formedness** — with tracing on, every span closes,
//!    times are finite and ordered, and nothing is stamped past the
//!    end of the run;
//! 6. **no silent divergence** — every scripted bit flip
//!    ([`Fault::BitflipCompute`] / [`Fault::BitflipMemory`])
//!    that actually fires — lands on a live rank and leaves the
//!    checksums' rounding envelope — is either corrected in place by
//!    ABFT or escalated into a checkpoint recovery, and the final
//!    weights match the fault-free run to 1e-6. An undefended oracle
//!    (`abft: false`) flags *any* fired flip — that is the
//!    [`ChaosPlan::known_bad_sdc`] fixture's job.
//!
//! When a plan violates an invariant, [`minimize`] greedily
//! delta-debugs the event list — repeatedly dropping any event whose
//! removal preserves the violation — and the shrunk plan is emitted as
//! JSON ([`ChaosPlan::to_json`]) that [`ChaosPlan::from_json`] replays
//! bit-deterministically.
//!
//! The `chaos_campaign` bench binary drives all of this; CI runs 2000
//! seeded plans of each kind (`--seeds 2000`, with and without `--sdc`)
//! and uploads the minimized failing plan as an artifact when an
//! invariant breaks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::ft_trainer::{train_1p5d_ft_traced, FtTrainConfig};
use crate::trainer::synthetic_data;
use crate::MachineModel;
use collectives::FtConfig;
use dnn::zoo::mlp_tiny;
use dnn::Network;
use mpsim::{EventKind, Fault, FaultPlan, Span, TraceConfig};
use tensor::Matrix;

/// SplitMix64: the same tiny deterministic generator the fault plan
/// uses for its own draws. Every campaign artifact derives from one
/// `u64` seed through this.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty draw range");
        (self.next_u64() as u128 % n as u128) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A replayable chaos scenario: grid shape, iteration count, and the
/// scheduled events. Everything the oracle needs to re-run it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed the plan was generated from (also seeds the fault plan's
    /// own jitter draws). Informational for hand-written plans.
    pub seed: u64,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Training iterations.
    pub iters: usize,
    /// Scheduled faults. Every virtual-time quantity — an `at`, a
    /// straggler's `extra` and `jitter` — is a fraction of the
    /// fault-free makespan.
    pub events: Vec<Fault>,
}

impl ChaosPlan {
    /// World size of the scenario.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Draws a random plan that the trainer is *expected to survive*:
    /// either one kill-with-rejoin or one healed partition whose cut
    /// group is small enough to (a) lose quorum and (b) leave every
    /// weight row with a surviving replica, plus a sprinkle of
    /// semantically-neutral message chaos (duplication, bounded
    /// reordering). Deterministic in `seed`.
    pub fn generate(seed: u64) -> ChaosPlan {
        let (pr, pc, iters) = (2usize, 3usize, 8usize);
        let size = pr * pc;
        let mut rng = ChaosRng::new(seed);
        let mut events = Vec::new();

        match rng.below(3) {
            0 => {
                // One fail-stop with a scripted revival.
                let victim = rng.below(size);
                let at = 0.25 + 0.2 * rng.unit();
                let back = at + 0.1 + 0.15 * rng.unit();
                events.push(Fault::Kill { rank: victim, at });
                events.push(Fault::Rejoin {
                    rank: victim,
                    at: back,
                });
            }
            oneway_pick => {
                // One healed partition. Group size 1 or 2 out of 6:
                // always a minority (parks), and — rows being pc = 3
                // ranks wide — never a full weight row, so the majority
                // can keep training. The heal lands well after the cut
                // so no agreement round straddles the boundary.
                let oneway = oneway_pick == 2;
                let k = 1 + rng.below(2);
                let mut group = Vec::with_capacity(k);
                while group.len() < k {
                    let g = rng.below(size);
                    if !group.contains(&g) {
                        group.push(g);
                    }
                }
                group.sort_unstable();
                let at = 0.25 + 0.2 * rng.unit();
                let heal = at + 0.15 + 0.15 * rng.unit();
                events.push(Fault::Partition {
                    group: group.clone(),
                    at,
                    oneway,
                });
                events.push(Fault::Heal { group, at: heal });
            }
        }

        for _ in 0..rng.below(4) {
            let src = rng.below(size);
            let dst = rng.below(size);
            if src != dst {
                events.push(Fault::Duplicate {
                    src,
                    dst,
                    nth: rng.below(40) as u64,
                });
            }
        }
        for _ in 0..rng.below(3) {
            let src = rng.below(size);
            let dst = rng.below(size);
            if src != dst {
                events.push(Fault::Reorder {
                    src,
                    dst,
                    nth: rng.below(40) as u64,
                    depth: 1 + rng.below(3) as u64,
                });
            }
        }

        ChaosPlan {
            seed,
            pr,
            pc,
            iters,
            events,
        }
    }

    /// Draws a plan for an **SDC campaign**: a base [`generate`] plan
    /// plus one or two high-bit compute flips and (half the time) a
    /// weight-memory flip. Bits are drawn from `44..=62` — far above
    /// the ABFT checksum tolerance on any nonzero word; on an exact
    /// `0.0` they make a value inside the rounding envelope, which
    /// fires nothing. Ops are drawn from `0..9`: the tiny MLP runs eight
    /// GEMMs per iteration (3 forward, (∆X, ∆W) for each upper layer,
    /// layer 0's ∆W), so op 8 lands nowhere — kept so every seed still
    /// draws the plan it always drew. A flip aimed at a rank that is
    /// dead or parked at the scripted iteration never lands either; the
    /// oracle's sixth invariant only judges flips that fired.
    ///
    /// [`generate`]: ChaosPlan::generate
    pub fn generate_sdc(seed: u64) -> ChaosPlan {
        let mut plan = Self::generate(seed);
        let size = plan.size();
        // Decorrelate from the base plan's draws.
        let mut rng = ChaosRng::new(seed ^ 0x5DC0_F11B_5DC0_F11B);
        for _ in 0..1 + rng.below(2) {
            plan.events.push(Fault::BitflipCompute {
                rank: rng.below(size),
                iter: rng.below(plan.iters) as u64,
                op: rng.below(9) as u64,
                bit: 44 + rng.below(19) as u32,
            });
        }
        if rng.below(2) == 0 {
            plan.events.push(Fault::BitflipMemory {
                rank: rng.below(size),
                iter: rng.below(plan.iters) as u64,
                param: rng.next_u64() % 4096,
                bit: 44 + rng.below(19) as u32,
            });
        }
        plan
    }

    /// The known-bad fixture: kills **every replica of weight row 1**
    /// (ranks 3, 4, 5 of the 2×3 grid) at the same instant, buried in
    /// harmless message chaos. Unrecoverable by construction — the
    /// surviving fragment holds quorum but no copy of half the model —
    /// so the oracle flags it and [`minimize`] must strip it down to
    /// the three kills.
    pub fn known_bad() -> ChaosPlan {
        ChaosPlan {
            seed: 0xBAD,
            pr: 2,
            pc: 3,
            iters: 8,
            events: vec![
                Fault::Duplicate {
                    src: 0,
                    dst: 1,
                    nth: 3,
                },
                Fault::Kill { rank: 3, at: 0.35 },
                Fault::Reorder {
                    src: 1,
                    dst: 2,
                    nth: 4,
                    depth: 2,
                },
                Fault::Kill { rank: 4, at: 0.35 },
                Fault::Duplicate {
                    src: 2,
                    dst: 0,
                    nth: 7,
                },
                Fault::Kill { rank: 5, at: 0.35 },
            ],
        }
    }

    /// The known-bad **SDC** fixture: a single high-bit compute flip
    /// buried in harmless message chaos. Checked by an oracle with
    /// ABFT *off*, the flip sails through undetected and the final
    /// weights silently diverge — the sixth invariant flags it, and
    /// [`minimize`] must strip the plan down to just the flip.
    pub fn known_bad_sdc() -> ChaosPlan {
        ChaosPlan {
            seed: 0x5DC_BAD,
            pr: 2,
            pc: 3,
            iters: 8,
            events: vec![
                Fault::Duplicate {
                    src: 0,
                    dst: 1,
                    nth: 3,
                },
                Fault::BitflipCompute {
                    rank: 3,
                    iter: 2,
                    op: 1,
                    bit: 51,
                },
                Fault::Reorder {
                    src: 1,
                    dst: 2,
                    nth: 4,
                    depth: 2,
                },
                Fault::Duplicate {
                    src: 2,
                    dst: 0,
                    nth: 7,
                },
            ],
        }
    }

    /// Checks the plan: a non-empty grid and iteration count, every
    /// rank it names inside the grid, and its faults through
    /// [`FaultPlan::validate`]. [`ChaosPlan::from_json`] ends here and
    /// [`Oracle::check`] starts here.
    pub fn validate(&self) -> Result<(), String> {
        if self.pr == 0 || self.pc == 0 || self.iters == 0 {
            return Err("pr, pc and iters must be positive".to_string());
        }
        let size = self.pr.saturating_mul(self.pc);
        let mut ranks = self.events.iter().flat_map(Fault::ranks);
        if let Some(r) = ranks.find(|&r| r >= size) {
            return Err(format!(
                "rank {r} is outside the {}x{} grid",
                self.pr, self.pc
            ));
        }
        self.to_fault_plan(1.0).validate()
    }

    /// Ranks the plan kills and never revives afterwards: their
    /// `RankFailed` outcome is scripted, not a trainer bug.
    pub fn permanently_killed(&self) -> Vec<usize> {
        let plan = self.to_fault_plan(1.0);
        (0..self.size())
            .filter(|&r| !plan.alive_at(r, f64::INFINITY))
            .collect()
    }

    /// Whether any partition is never healed. The quorum-less side of
    /// such a cut parks forever by design, so its `Unreachable` outcome
    /// is scripted. (Which side parks is the quorum rule's verdict —
    /// possibly the cut group's *complement* — so this is a plan-level
    /// flag, not a per-rank set.)
    pub fn has_unhealed_partition(&self) -> bool {
        let plan = self.to_fault_plan(1.0);
        let never_heals = |f: &Fault| match f {
            Fault::Partition { at, .. } => plan.heal_horizon(*at) == Some(f64::INFINITY),
            _ => false,
        };
        self.events.iter().any(never_heals)
    }

    /// Realizes the scale-free plan against a concrete fault-free
    /// makespan: fractions become absolute virtual times.
    pub fn to_fault_plan(&self, makespan: f64) -> FaultPlan {
        let plan = FaultPlan::new(self.seed).with_default_timeout(10.0);
        self.events
            .iter()
            .fold(plan, |plan, f| plan.with(f.clone().scale_times(makespan)))
    }

    /// Serializes the plan as JSON (the workspace links no JSON
    /// library, so this is written by hand). Every *finite* f64
    /// round-trips exactly — Rust's `{}` formatting prints the shortest
    /// decimal that re-parses to the same bits, including subnormals —
    /// but `NaN`/`inf` are not JSON tokens and would serialize as
    /// garbage the parser rejects, so they are refused.
    ///
    /// # Panics
    ///
    /// Panics if any time or delay in the plan is non-finite.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\n  \"seed\": {},\n  \"pr\": {},\n  \"pc\": {},\n  \"iters\": {},\n  \"events\": [",
            self.seed, self.pr, self.pc, self.iters
        );
        for (i, ev) in self.events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {{\"type\": ");
            let _ = match ev {
                Fault::Kill { rank, at } => {
                    write!(s, "\"kill\", \"rank\": {rank}, \"at\": {}}}", num(*at))
                }
                Fault::Rejoin { rank, at } => {
                    write!(s, "\"rejoin\", \"rank\": {rank}, \"at\": {}}}", num(*at))
                }
                Fault::Partition { group, at, oneway } => write!(
                    s,
                    "\"partition\", \"group\": {group:?}, \"at\": {}, \"oneway\": {oneway}}}",
                    num(*at)
                ),
                Fault::Heal { group, at } => {
                    write!(s, "\"heal\", \"group\": {group:?}, \"at\": {}}}", num(*at))
                }
                Fault::Duplicate { src, dst, nth } => write!(
                    s,
                    "\"duplicate\", \"src\": {src}, \"dst\": {dst}, \"nth\": {nth}}}"
                ),
                Fault::Drop { src, dst, nth } => {
                    write!(s, "\"drop\", \"src\": {src}, \"dst\": {dst}, \"nth\": {nth}}}")
                }
                Fault::Corrupt { src, dst, nth } => write!(
                    s,
                    "\"corrupt\", \"src\": {src}, \"dst\": {dst}, \"nth\": {nth}}}"
                ),
                Fault::Reorder {
                    src,
                    dst,
                    nth,
                    depth,
                } => write!(
                    s,
                    "\"reorder\", \"src\": {src}, \"dst\": {dst}, \"nth\": {nth}, \"depth\": {depth}}}"
                ),
                Fault::Straggle {
                    src,
                    dst,
                    extra,
                    jitter,
                    span,
                } => write!(
                    s,
                    "\"straggle\", \"src\": {src}, \"dst\": {dst}, \"extra\": {}, \"jitter\": {}, \"span\": {}}}",
                    num(*extra),
                    num(*jitter),
                    match span {
                        Span::All => "\"all\"".to_string(),
                        Span::Once(n) => n.to_string(),
                    }
                ),
                Fault::BitflipCompute {
                    rank,
                    iter,
                    op,
                    bit,
                } => write!(
                    s,
                    "\"bitflip_compute\", \"rank\": {rank}, \"iter\": {iter}, \"op\": {op}, \"bit\": {bit}}}"
                ),
                Fault::BitflipMemory {
                    rank,
                    iter,
                    param,
                    bit,
                } => write!(
                    s,
                    "\"bitflip_memory\", \"rank\": {rank}, \"iter\": {iter}, \"param\": {param}, \"bit\": {bit}}}"
                ),
            };
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a plan previously written by [`ChaosPlan::to_json`] (or
    /// by hand). Returns a descriptive error on malformed input:
    /// integer fields are read from their digits — exact for every
    /// `u64`, so a replayed seed is the seed that failed — and a
    /// negative, fractional or out-of-range one is refused by key. A
    /// plan that parses is then [`ChaosPlan::validate`]d, so a bad time
    /// (`1e999` parses as `inf`) or a rank off the grid is an error
    /// here, not a panic in the run.
    pub fn from_json(text: &str) -> Result<ChaosPlan, String> {
        let v = Json::parse(text)?;
        let obj = v.as_object("top level")?;
        let events = get(obj, "events")?.as_array("events")?.iter().enumerate();
        let plan = ChaosPlan {
            seed: get_int(obj, "seed")?,
            pr: get_int(obj, "pr")?,
            pc: get_int(obj, "pc")?,
            iters: get_int(obj, "iters")?,
            events: events.map(fault_from_json).collect::<Result<_, _>>()?,
        };
        plan.validate()?;
        Ok(plan)
    }
}

/// The `i`-th entry of a plan's `"events"`.
fn fault_from_json((i, ev): (usize, &Json)) -> Result<Fault, String> {
    let e = ev.as_object(&format!("events[{i}]"))?;
    let ty = get(e, "type")?.as_str(&format!("events[{i}].type"))?;
    Ok(match ty {
        "kill" => Fault::Kill {
            rank: get_int(e, "rank")?,
            at: get_num(e, "at")?,
        },
        "rejoin" => Fault::Rejoin {
            rank: get_int(e, "rank")?,
            at: get_num(e, "at")?,
        },
        "partition" => Fault::Partition {
            group: get_ranks(e, "group")?,
            at: get_num(e, "at")?,
            oneway: get(e, "oneway")?.as_bool("oneway")?,
        },
        "heal" => Fault::Heal {
            group: get_ranks(e, "group")?,
            at: get_num(e, "at")?,
        },
        "duplicate" => Fault::Duplicate {
            src: get_int(e, "src")?,
            dst: get_int(e, "dst")?,
            nth: get_int(e, "nth")?,
        },
        "drop" => Fault::Drop {
            src: get_int(e, "src")?,
            dst: get_int(e, "dst")?,
            nth: get_int(e, "nth")?,
        },
        "corrupt" => Fault::Corrupt {
            src: get_int(e, "src")?,
            dst: get_int(e, "dst")?,
            nth: get_int(e, "nth")?,
        },
        "reorder" => Fault::Reorder {
            src: get_int(e, "src")?,
            dst: get_int(e, "dst")?,
            nth: get_int(e, "nth")?,
            depth: get_int(e, "depth")?,
        },
        "straggle" => Fault::Straggle {
            src: get_int(e, "src")?,
            dst: get_int(e, "dst")?,
            extra: get_num(e, "extra")?,
            jitter: get_num(e, "jitter")?,
            span: match get(e, "span")? {
                Json::Str(all) if all == "all" => Span::All,
                n => Span::Once(n.as_int("span")?),
            },
        },
        "bitflip_compute" => Fault::BitflipCompute {
            rank: get_int(e, "rank")?,
            iter: get_int(e, "iter")?,
            op: get_int(e, "op")?,
            bit: get_int(e, "bit")?,
        },
        "bitflip_memory" => Fault::BitflipMemory {
            rank: get_int(e, "rank")?,
            iter: get_int(e, "iter")?,
            param: get_int(e, "param")?,
            bit: get_int(e, "bit")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    })
}

/// `x`, refused when JSON cannot encode it.
fn num(x: f64) -> f64 {
    assert!(
        x.is_finite(),
        "chaos plan time or delay {x} is not finite and cannot be serialized as JSON"
    );
    x
}

/// A broken invariant: which one, and what the oracle saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Invariant name: `termination`, `horizon`, `single-writer`,
    /// `loss-parity`, `trace-wellformed`, or `no-silent-divergence`.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The termination invariant on every rank's outcome: each finishes
/// `Ok`, except outcomes `plan` itself scripts — a killed-and-never-
/// revived rank rightfully ends `RankFailed`, and with a never-healed
/// partition the quorum-less side rightfully parks forever and ends
/// `Unreachable`. Anything else (a survivor erroring, a healed rank
/// stuck, a wrong error kind) is a violation, which names the first such
/// rank and lists every rank's outcome: a rank left waiting at
/// quiescence reads beside the peer whose return left it there.
fn termination<T>(per_rank: &[Result<T, mpsim::Error>], plan: &ChaosPlan) -> Result<(), Violation> {
    let (killed, cut_forever) = (plan.permanently_killed(), plan.has_unhealed_partition());
    for (r, out) in per_rank.iter().enumerate() {
        match out {
            Ok(_) => {}
            Err(mpsim::Error::RankFailed { rank }) if *rank == r && killed.contains(&r) => {}
            Err(mpsim::Error::Unreachable { rank }) if *rank == r && cut_forever => {}
            Err(e) => {
                let every: Vec<String> = (per_rank.iter())
                    .map(|o| o.as_ref().map_or_else(|e| e.to_string(), |_| "Ok".into()))
                    .collect();
                return Err(Violation {
                    invariant: "termination",
                    detail: format!("rank {r} failed: {e}; every rank's outcome: {every:?}"),
                });
            }
        }
    }
    Ok(())
}

/// The invariant oracle: holds the workload and the cached fault-free
/// reference run, and judges chaos plans against it.
pub struct Oracle {
    net: Network,
    x: Matrix,
    labels: Vec<usize>,
    cfg: FtTrainConfig,
    pr: usize,
    pc: usize,
    clean_losses: Vec<f64>,
    clean_weights: Vec<Matrix>,
    clean_makespan: f64,
}

impl Oracle {
    /// Builds the oracle for a `pr × pc` grid over the standard tiny
    /// MLP workload and runs the fault-free reference. ABFT is off:
    /// plans with bit-flip events checked by this oracle are expected
    /// to trip the sixth invariant.
    pub fn new(pr: usize, pc: usize, iters: usize) -> Oracle {
        Self::with_abft(pr, pc, iters, false)
    }

    /// Like [`Oracle::new`] but with the trainer's ABFT defense
    /// switched by `abft`. SDC campaigns use `abft: true` so scripted
    /// bit flips must be corrected or recovered, never silent.
    pub fn with_abft(pr: usize, pc: usize, iters: usize, abft: bool) -> Oracle {
        let net = mlp_tiny();
        let (x, labels) = synthetic_data(&net, 24, 5);
        let cfg = FtTrainConfig {
            lr: 0.3,
            iters,
            seed: 7,
            ckpt_every: 2,
            abft,
            ft: FtConfig::fixed(10.0).with_attempts(2).with_backoff(0.5),
            machine: MachineModel::cori_knl(),
            ..FtTrainConfig::default()
        };
        let (clean, _) = train_1p5d_ft_traced(
            &net,
            &x,
            &labels,
            &cfg,
            pr,
            pc,
            FaultPlan::default(),
            TraceConfig::disabled(),
        );
        let clean_losses = clean.losses();
        assert_eq!(clean_losses.len(), iters, "fault-free reference finished");
        let clean_weights = clean.weights();
        let clean_makespan = clean.stats.makespan();
        Oracle {
            net,
            x,
            labels,
            cfg,
            pr,
            pc,
            clean_losses,
            clean_weights,
            clean_makespan,
        }
    }

    /// Fault-free makespan of the reference run (what event fractions
    /// are scaled by).
    pub fn clean_makespan(&self) -> f64 {
        self.clean_makespan
    }

    /// Runs `plan` and checks every invariant. `Ok(())` means the
    /// trainer survived the chaos with a clean bill.
    pub fn check(&self, plan: &ChaosPlan) -> Result<(), Violation> {
        assert_eq!(
            (plan.pr, plan.pc, plan.iters),
            (self.pr, self.pc, self.cfg.iters),
            "plan grid and length must match the oracle's workload"
        );
        if let Err(msg) = plan.validate() {
            return Err(Violation {
                invariant: "valid-plan",
                detail: msg,
            });
        }
        let realized = plan.to_fault_plan(self.clean_makespan);

        // A rank panic unwinds through World's thread join; catch it so
        // one poisoned plan doesn't kill the whole campaign.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            train_1p5d_ft_traced(
                &self.net,
                &self.x,
                &self.labels,
                &self.cfg,
                self.pr,
                self.pc,
                realized,
                TraceConfig::enabled(),
            )
        }));
        let (result, trace) = match ran {
            Ok(r) => r,
            Err(_) => {
                return Err(Violation {
                    invariant: "termination",
                    detail: "a rank panicked".to_string(),
                })
            }
        };

        // 1. termination.
        termination(&result.per_rank, plan)?;

        // 2. virtual-time horizon: no runaway retry/recovery loops.
        let horizon = self.clean_makespan * 50.0 + 30.0;
        let makespan = result.stats.makespan();
        if !(makespan.is_finite() && makespan <= horizon) {
            return Err(Violation {
                invariant: "horizon",
                detail: format!("makespan {makespan} past horizon {horizon}"),
            });
        }

        // 3. single writer: one committed loss chain, full length,
        // reported verbatim by every finishing rank.
        let finishers: Vec<(usize, &crate::ft_trainer::FtRankOutcome)> = result
            .per_rank
            .iter()
            .enumerate()
            .filter_map(|(r, out)| out.as_ref().ok().map(|o| (r, o)))
            .collect();
        let first = match finishers.first() {
            Some((_, o)) => *o,
            None => {
                return Err(Violation {
                    invariant: "single-writer",
                    detail: "no rank finished training".to_string(),
                })
            }
        };
        if first.losses.len() != plan.iters {
            return Err(Violation {
                invariant: "single-writer",
                detail: format!(
                    "loss chain has {} entries, expected {}",
                    first.losses.len(),
                    plan.iters
                ),
            });
        }
        for (r, o) in &finishers {
            if o.losses != first.losses {
                return Err(Violation {
                    invariant: "single-writer",
                    detail: format!("rank {r} reports a diverged loss chain"),
                });
            }
        }

        // 4. loss parity with the fault-free replay.
        for (i, (a, b)) in self.clean_losses.iter().zip(&first.losses).enumerate() {
            if (a - b).abs() >= 1e-6 {
                return Err(Violation {
                    invariant: "loss-parity",
                    detail: format!("iter {i}: fault-free {a} vs chaotic {b}"),
                });
            }
        }

        // 5. trace well-formedness.
        for rt in &trace.ranks {
            if rt.unclosed > 0 {
                return Err(Violation {
                    invariant: "trace-wellformed",
                    detail: format!("rank {}: {} unclosed spans", rt.rank, rt.unclosed),
                });
            }
            for ev in &rt.events {
                let ok = ev.t0.is_finite()
                    && ev.t1.is_finite()
                    && ev.t0 >= 0.0
                    && ev.t1 >= ev.t0
                    && ev.t1 <= makespan * (1.0 + 1e-9) + 1e-12
                    && (ev.kind != EventKind::Instant || ev.t0 == ev.t1);
                if !ok {
                    return Err(Violation {
                        invariant: "trace-wellformed",
                        detail: format!(
                            "rank {}: bad event {}/{} at [{}, {}]",
                            rt.rank, ev.cat, ev.name, ev.t0, ev.t1
                        ),
                    });
                }
            }
        }

        // 6. no silent divergence. Flips aimed at a dead/parked rank
        // never land, and a flip inside the rounding envelope (a high
        // bit of an exact 0.0) lands but fires nothing, so the gate is
        // the *fired* counter, not the plan's event list. A fired flip
        // must leave a detection mark (ABFT correction or recovery);
        // with ABFT off nothing can, so an undefended oracle flags any
        // fired flip. Either way the final weights must match the
        // fault-free run — with an explicit NaN arm so a NaN-poisoned
        // model counts as divergence.
        let fired = result.stats.total_bitflips_compute() + result.stats.total_bitflips_memory();
        let detected =
            result.stats.total_corrupt_corrected() + result.stats.total_corrupt_recovered();
        if fired > 0 && detected == 0 {
            return Err(Violation {
                invariant: "no-silent-divergence",
                detail: format!("{fired} bit flip(s) fired, none corrected or recovered"),
            });
        }
        let faulty_weights = result.weights();
        let mut wdiff: f64 = 0.0;
        for (a, b) in self.clean_weights.iter().zip(&faulty_weights) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                wdiff = wdiff.max((x - y).abs());
            }
        }
        if wdiff >= 1e-6 || wdiff.is_nan() {
            return Err(Violation {
                invariant: "no-silent-divergence",
                detail: format!("final weights diverge from fault-free by {wdiff:e}"),
            });
        }

        Ok(())
    }

    /// Whether `plan` genuinely breaks an invariant: invalid plans
    /// (which the simulator refuses to even start) don't count, so the
    /// minimizer never "improves" a real failure into an unrunnable
    /// plan.
    pub fn violates(&self, plan: &ChaosPlan) -> bool {
        match self.check(plan) {
            Err(v) => v.invariant != "valid-plan",
            Ok(()) => false,
        }
    }
}

/// Greedy delta-debugging: repeatedly drops any single event whose
/// removal keeps the plan failing, until no single removal does. The
/// result is 1-minimal — every remaining event is necessary for the
/// violation — and still violating.
pub fn minimize(plan: &ChaosPlan, oracle: &Oracle) -> ChaosPlan {
    assert!(
        oracle.violates(plan),
        "minimize needs a plan that actually fails"
    );
    let mut best = plan.clone();
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if oracle.violates(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
    }
    best
}

// --- minimal JSON reader (recursive descent) -------------------------

/// A parsed JSON value (just enough for chaos plans).
enum Json {
    Bool(bool),
    /// A number, as written: integer fields are parsed from the digits
    /// (an `f64` cannot hold every `u64`), times as `f64`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut at = 0;
        let v = parse_value(b, &mut at, 0)?;
        skip_ws(b, &mut at);
        if at != b.len() {
            return Err(format!("trailing garbage at byte {at}"));
        }
        Ok(v)
    }

    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(kv) => Ok(kv),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(xs) => Ok(xs),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    fn as_num(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(text) => Ok(text.parse().expect("validated by parse_value")),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    /// The value as an integer of type `T`, parsed from its digits;
    /// negative, fractional and out-of-range values are errors naming
    /// `key`.
    fn as_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let Json::Num(text) = self else {
            return Err(format!("{key}: expected a number"));
        };
        let int = text.parse::<u64>().ok().and_then(|x| T::try_from(x).ok());
        int.ok_or_else(|| {
            format!("key {key:?} must be a non-negative integer in range, got {text}")
        })
    }

    fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected a boolean")),
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn get_int<T: TryFrom<u64>>(obj: &[(String, Json)], key: &str) -> Result<T, String> {
    get(obj, key)?.as_int(key)
}

fn get_num(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    get(obj, key)?.as_num(key)
}

fn get_ranks(obj: &[(String, Json)], key: &str) -> Result<Vec<usize>, String> {
    get(obj, key)?
        .as_array(key)?
        .iter()
        .map(|v| v.as_int(key))
        .collect()
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && (b[*at] as char).is_ascii_whitespace() {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, at);
    if *at < b.len() && b[*at] == c {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, at))
    }
}

/// Deepest nesting [`parse_value`] follows (a plan needs 4: object,
/// events, event, group). The descent is recursive, so an unbounded
/// `[[[[…` would overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 8;

fn parse_value(b: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
    }
    skip_ws(b, at);
    match b.get(*at) {
        Some(b'{') => {
            *at += 1;
            let mut kv = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(b, at);
                let key = match parse_value(b, at, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {at}")),
                };
                expect(b, at, b':')?;
                let val = parse_value(b, at, depth + 1)?;
                kv.push((key, val));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut xs = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(xs));
            }
            loop {
                xs.push(parse_value(b, at, depth + 1)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(xs));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}")),
                }
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut s = String::new();
            loop {
                match b.get(*at) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *at += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *at += 1;
                        match b.get(*at) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *at += 1;
                    }
                    Some(&c) => {
                        s.push(c as char);
                        *at += 1;
                    }
                }
            }
        }
        Some(b't') if b[*at..].starts_with(b"true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*at..].starts_with(b"false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(&c) if c == b'-' || c.is_ascii_digit() => {
            let start = *at;
            *at += 1;
            while *at < b.len()
                && (b[*at].is_ascii_digit()
                    || b[*at] == b'.'
                    || b[*at] == b'e'
                    || b[*at] == b'E'
                    || b[*at] == b'+'
                    || b[*at] == b'-')
            {
                *at += 1;
            }
            std::str::from_utf8(&b[start..*at])
                .ok()
                .filter(|s| s.parse::<f64>().is_ok())
                .map(|s| Json::Num(s.to_string()))
                .ok_or_else(|| format!("malformed number at byte {start}"))
        }
        _ => Err(format!("unexpected input at byte {at}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rank left waiting at quiescence reads as such, beside the
    /// peer's early return: rank 1 returns `Unreachable` while rank 0
    /// waits on it, and the verdict names rank 1's return, not a panic.
    #[test]
    fn a_termination_verdict_names_every_ranks_outcome() {
        let out = mpsim::World::run(2, mpsim::NetModel::free(), |comm| match comm.rank() {
            0 => comm.recv(1, 7).map(|_| ()),
            _ => Err(mpsim::Error::Unreachable { rank: 1 }),
        });
        let plan = |events| ChaosPlan {
            seed: 0,
            pr: 1,
            pc: 2,
            iters: 1,
            events,
        };
        let v = termination(&out, &plan(vec![])).unwrap_err();
        assert_eq!(v.invariant, "termination");
        assert!(
            v.detail.starts_with("rank 0 failed: ") && v.detail.contains("quiescent"),
            "{v}"
        );
        let rank1 = mpsim::Error::Unreachable { rank: 1 };
        assert!(v.detail.ends_with(&format!("\"{rank1}\"]")), "{v}");
        assert!(!v.detail.contains("panic"), "{v}");
        let cut = plan(vec![Fault::Partition {
            group: vec![1],
            at: 0.5,
            oneway: false,
        }]);
        assert_eq!(termination(&out, &cut).unwrap_err().detail, v.detail);
        let parked = [Ok(()), Err(mpsim::Error::Unreachable { rank: 1 })];
        assert!(termination(&parked, &cut).is_ok(), "a scripted park");
    }

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = ChaosPlan::generate(7);
        let b = ChaosPlan::generate(7);
        assert_eq!(a, b, "same seed, same plan");
        let c = ChaosPlan::generate(8);
        assert_ne!(a, c, "different seed, different plan");
        assert!(!a.events.is_empty());
    }

    #[test]
    fn json_round_trips_every_event_kind() {
        let plan = ChaosPlan {
            seed: 42,
            pr: 2,
            pc: 3,
            iters: 8,
            events: vec![
                Fault::Kill { rank: 5, at: 0.35 },
                Fault::Rejoin { rank: 5, at: 0.6 },
                Fault::Partition {
                    group: vec![1, 3],
                    at: 0.3,
                    oneway: true,
                },
                Fault::Heal {
                    group: vec![1, 3],
                    at: 0.62,
                },
                Fault::Duplicate {
                    src: 0,
                    dst: 1,
                    nth: 3,
                },
                Fault::Reorder {
                    src: 2,
                    dst: 4,
                    nth: 9,
                    depth: 2,
                },
                Fault::BitflipCompute {
                    rank: 3,
                    iter: 2,
                    op: 7,
                    bit: 51,
                },
                Fault::BitflipMemory {
                    rank: 1,
                    iter: 5,
                    param: 1234,
                    bit: 48,
                },
                Fault::Straggle {
                    src: 0,
                    dst: 1,
                    extra: 0.01,
                    jitter: 0.002,
                    span: Span::All,
                },
                Fault::Straggle {
                    src: 1,
                    dst: 0,
                    extra: 0.05,
                    jitter: 0.0,
                    span: Span::Once(4),
                },
                Fault::Drop {
                    src: 2,
                    dst: 3,
                    nth: 1,
                },
                Fault::Corrupt {
                    src: 3,
                    dst: 2,
                    nth: 0,
                },
            ],
        };
        let back = ChaosPlan::from_json(&plan.to_json()).expect("round trip parses");
        assert_eq!(plan, back);
        // Integers are exact over the whole `u64` range (2⁵³ + 1 and
        // `u64::MAX` both round when read through an `f64`).
        for seed in [(1 << 53) + 1, u64::MAX] {
            let events = vec![Fault::Duplicate {
                src: 0,
                dst: 1,
                nth: seed,
            }];
            let plan = ChaosPlan {
                seed,
                events,
                ..plan.clone()
            };
            assert_eq!(ChaosPlan::from_json(&plan.to_json()), Ok(plan));
        }
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"seed\": }",
            "{\"seed\": 1, \"pr\": 2, \"pc\": 3, \"iters\": 4, \"events\": [{}]}",
            "{\"seed\": 1} trailing",
        ] {
            assert!(ChaosPlan::from_json(bad).is_err(), "accepted {bad:?}");
        }
        // Integer fields: negative, fractional and out-of-range values
        // are refused by key, not cast.
        let plan = |seed: &str, pr: &str, event: &str| {
            format!(r#"{{"seed": {seed}, "pr": {pr}, "pc": 3, "iters": 4, "events": [{event}]}}"#)
        };
        let flip = |rank: &str, iter: &str, bit: &str| {
            let ev = format!(
                r#"{{"type": "bitflip_compute", "rank": {rank}, "iter": {iter}, "op": 0, "bit": {bit}}}"#
            );
            plan("1", "2", &ev)
        };
        assert!(ChaosPlan::from_json(&flip("0", "1", "4")).is_ok());
        for (bad, key) in [
            (plan("-3", "2", ""), "seed"),
            (plan("18446744073709551616", "2", ""), "seed"),
            (plan("1", "2.9", ""), "pr"),
            (flip("-1", "1", "4"), "rank"),
            (flip("0", "1.5", "4"), "iter"),
            (flip("0", "1", "4294967297"), "bit"),
            (
                plan("1", "2", r#"{"type": "heal", "group": [0, -1], "at": 0.5}"#),
                "group",
            ),
        ] {
            let err = ChaosPlan::from_json(&bad).expect_err(&bad);
            assert!(err.contains(&format!("{key:?}")), "{bad}: {err}");
        }
        // Deep nesting is an error, not a stack overflow.
        let err = ChaosPlan::from_json(&"[".repeat(200_000)).expect_err("nesting accepted");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn generated_plans_realize_to_valid_fault_plans() {
        for seed in 0..50 {
            let plan = ChaosPlan::generate(seed);
            let realized = plan.to_fault_plan(1.0);
            assert_eq!(
                realized.validate(),
                Ok(()),
                "seed {seed} generated an invalid plan"
            );
        }
    }

    #[test]
    fn oracle_passes_a_sample_of_green_plans() {
        let oracle = Oracle::new(2, 3, 8);
        for seed in [0u64, 1, 2] {
            let plan = ChaosPlan::generate(seed);
            if let Err(v) = oracle.check(&plan) {
                panic!("seed {seed} violated an invariant: {v}\n{}", plan.to_json());
            }
        }
    }

    #[test]
    fn sdc_plans_are_deterministic_and_realize_valid() {
        assert_eq!(
            ChaosPlan::generate_sdc(11),
            ChaosPlan::generate_sdc(11),
            "same seed, same plan"
        );
        for seed in 0..50 {
            let plan = ChaosPlan::generate_sdc(seed);
            assert!(
                plan.events.iter().any(|e| matches!(
                    e,
                    Fault::BitflipCompute { .. } | Fault::BitflipMemory { .. }
                )),
                "seed {seed} drew no flip"
            );
            assert_eq!(
                plan.to_fault_plan(1.0).validate(),
                Ok(()),
                "seed {seed} generated an invalid plan"
            );
        }
    }

    #[test]
    fn abft_oracle_passes_a_sample_of_sdc_plans() {
        let oracle = Oracle::with_abft(2, 3, 8, true);
        for seed in [0u64, 1, 2] {
            let plan = ChaosPlan::generate_sdc(seed);
            if let Err(v) = oracle.check(&plan) {
                panic!("seed {seed} violated an invariant: {v}\n{}", plan.to_json());
            }
        }
    }

    #[test]
    fn known_bad_sdc_is_caught_undefended_and_minimizes_to_the_flip() {
        let oracle = Oracle::new(2, 3, 8); // ABFT off: undefended
        let bad = ChaosPlan::known_bad_sdc();
        let v = oracle.check(&bad).expect_err("fixture must violate");
        assert_eq!(v.invariant, "no-silent-divergence", "got {v}");

        let min = minimize(&bad, &oracle);
        assert_eq!(min.events.len(), 1, "minimized to {:?}", min.events);
        assert!(matches!(
            min.events[0],
            Fault::BitflipCompute {
                rank: 3,
                iter: 2,
                op: 1,
                bit: 51
            }
        ));
        // The defended oracle survives the very same minimized plan.
        let defended = Oracle::with_abft(2, 3, 8, true);
        let replayed = ChaosPlan::from_json(&min.to_json()).expect("parses");
        assert_eq!(replayed, min);
        defended
            .check(&replayed)
            .expect("ABFT corrects what the undefended run lets through");
    }

    #[test]
    fn known_bad_fixture_minimizes_to_the_three_kills_and_replays() {
        let oracle = Oracle::new(2, 3, 8);
        let bad = ChaosPlan::known_bad();
        let v = oracle.check(&bad).expect_err("fixture must violate");
        assert_eq!(v.invariant, "termination", "kills an irreplaceable row");

        let min = minimize(&bad, &oracle);
        // Exactly the three kills: removing any one leaves a surviving
        // replica of weight row 1 and the plan goes green, while every
        // noise event is droppable.
        assert_eq!(min.events.len(), 3, "minimized to {:?}", min.events);
        assert!(min.events.iter().all(|e| matches!(e, Fault::Kill { .. })));
        assert!(oracle.violates(&min), "minimized plan still fails");

        // The minimized plan replays deterministically from its JSON.
        let replayed = ChaosPlan::from_json(&min.to_json()).expect("parses");
        assert_eq!(replayed, min);
        let a = oracle.check(&replayed).expect_err("still violating");
        let b = oracle.check(&replayed).expect_err("still violating");
        assert_eq!(a, b, "verdict replays bit-identically");
    }

    #[test]
    fn from_json_rejects_non_finite_times() {
        // 1e999 overflows to +inf during parsing; it must be refused at
        // the schema layer, not smuggled into a plan.
        let txt = r#"{"seed": 1, "pr": 2, "pc": 3, "iters": 4, "events": [
            {"type": "kill", "rank": 0, "at": 1e999}
        ]}"#;
        let err = ChaosPlan::from_json(txt).expect_err("inf time accepted");
        assert!(err.contains("must be finite"), "got {err:?}");
    }

    /// `tests/fixtures/chaos/<name>.json`.
    fn fixture(name: &str) -> String {
        let path = format!(
            "{}/../../tests/fixtures/chaos/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).expect(&path)
    }

    #[test]
    fn from_json_ends_with_validate() {
        let err = ChaosPlan::from_json(&fixture("negative_time")).expect_err("negative time");
        assert!(
            err.contains("Kill { rank: 4, at: -0.5 } has a negative time"),
            "{err}"
        );
        let plan = |pr: usize, event: &str| {
            format!(r#"{{"seed": 1, "pr": {pr}, "pc": 3, "iters": 4, "events": [{event}]}}"#)
        };
        for (bad, want) in [
            (
                plan(2, r#"{"type": "kill", "rank": 6, "at": 0.5}"#),
                "rank 6 is outside the 2x3 grid",
            ),
            (
                plan(2, r#"{"type": "drop", "src": 0, "dst": 9, "nth": 0}"#),
                "rank 9",
            ),
            (
                plan(2, r#"{"type": "heal", "group": [1], "at": 0.5}"#),
                "heal of [1]",
            ),
            (plan(0, ""), "must be positive"),
            (
                plan(
                    2,
                    r#"{"type": "straggle", "src": 0, "dst": 1, "extra": -1, "jitter": 0, "span": 3}"#,
                ),
                "Straggle { src: 0, dst: 1, extra: -1.0, jitter: 0.0, span: Once(3) } has a negative",
            ),
        ] {
            let err = ChaosPlan::from_json(&bad).expect_err(&bad);
            assert!(err.contains(want), "{bad}: {err}");
        }
    }

    #[test]
    fn fixtures_replay_green_on_their_own_grid_and_length() {
        for name in ["grid_2x2", "four_iters"] {
            let plan = ChaosPlan::from_json(&fixture(name)).expect(name);
            let oracle = Oracle::new(plan.pr, plan.pc, plan.iters);
            assert_eq!(oracle.check(&plan), Ok(()), "{name}");
        }
    }

    #[test]
    fn json_bytes_and_generated_plans_are_pinned() {
        let ev = |body: &str| {
            let events: Vec<String> = body.lines().map(|l| format!("    {l}")).collect();
            format!("\n  \"events\": [\n{}\n  ]\n}}\n", events.join(",\n"))
        };
        let head = |seed: u64| {
            format!("{{\n  \"seed\": {seed},\n  \"pr\": 2,\n  \"pc\": 3,\n  \"iters\": 8,")
        };
        let known_bad = r#"{"type": "duplicate", "src": 0, "dst": 1, "nth": 3}
{"type": "kill", "rank": 3, "at": 0.35}
{"type": "reorder", "src": 1, "dst": 2, "nth": 4, "depth": 2}
{"type": "kill", "rank": 4, "at": 0.35}
{"type": "duplicate", "src": 2, "dst": 0, "nth": 7}
{"type": "kill", "rank": 5, "at": 0.35}"#;
        let known_bad_sdc = r#"{"type": "duplicate", "src": 0, "dst": 1, "nth": 3}
{"type": "bitflip_compute", "rank": 3, "iter": 2, "op": 1, "bit": 51}
{"type": "reorder", "src": 1, "dst": 2, "nth": 4, "depth": 2}
{"type": "duplicate", "src": 2, "dst": 0, "nth": 7}"#;
        let gen7 = r#"{"type": "kill", "rank": 0, "at": 0.4301521361213767}
{"type": "rejoin", "rank": 0, "at": 0.6175916800755884}
{"type": "duplicate", "src": 3, "dst": 4, "nth": 22}
{"type": "reorder", "src": 4, "dst": 0, "nth": 24, "depth": 1}"#;
        let sdc131 = r#"{"type": "partition", "group": [2], "at": 0.34261939493225985, "oneway": false}
{"type": "heal", "group": [2], "at": 0.5504540957263783}
{"type": "reorder", "src": 4, "dst": 2, "nth": 7, "depth": 3}
{"type": "bitflip_compute", "rank": 5, "iter": 3, "op": 8, "bit": 58}
{"type": "bitflip_compute", "rank": 0, "iter": 2, "op": 5, "bit": 45}"#;
        for (plan, seed, body) in [
            (ChaosPlan::known_bad(), 0xBAD, known_bad),
            (ChaosPlan::known_bad_sdc(), 0x5DC_BAD, known_bad_sdc),
            (ChaosPlan::generate(7), 7, gen7),
            (ChaosPlan::generate_sdc(131), 131, sdc131),
        ] {
            assert_eq!(plan.to_json(), head(seed) + &ev(body), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn to_json_refuses_non_finite_times() {
        let plan = ChaosPlan {
            seed: 0,
            pr: 2,
            pc: 2,
            iters: 4,
            events: vec![Fault::Kill {
                rank: 0,
                at: f64::NAN,
            }],
        };
        let _ = plan.to_json();
    }

    // The `{}` formatting in `to_json` prints the shortest decimal that
    // re-parses to the same f64 bits, so *every* finite float — huge,
    // tiny, subnormal — must survive the JSON round trip exactly.
    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn json_round_trips_extreme_finite_times(
            bits in 0u64..u64::MAX,
            pick in 0usize..8,
            jitter in 0u64..1u64 << 52,
        ) {
            // Half the draws come from a curated extreme list (exact
            // boundary values plus a mantissa perturbation), half from
            // raw bit patterns filtered to finite.
            let extremes = [
                5e-324,                  // smallest subnormal
                f64::MIN_POSITIVE,       // smallest normal
                f64::MIN_POSITIVE / 2.0, // mid subnormal
                f64::MAX,
                1e300,
                1e-300,
                0.1 + f64::EPSILON,
                0.0,
            ];
            let base = extremes[pick];
            let perturbed = f64::from_bits(base.to_bits().wrapping_add(jitter % 7));
            for at in [base, perturbed, f64::from_bits(bits)] {
                if !at.is_finite() || at.is_sign_negative() {
                    continue;
                }
                let mut events = vec![
                    Fault::Kill { rank: 0, at },
                    Fault::Partition { group: vec![2], at, oneway: true },
                    Fault::Straggle { src: 0, dst: 1, extra: at, jitter: at, span: Span::All },
                    Fault::Straggle { src: 1, dst: 0, extra: at, jitter: 0.0, span: Span::Once(bits) },
                    Fault::Drop { src: 2, dst: 3, nth: bits },
                    Fault::Corrupt { src: 3, dst: 2, nth: jitter },
                    Fault::Duplicate { src: 1, dst: 2, nth: bits },
                    Fault::Reorder { src: 2, dst: 1, nth: jitter, depth: 1 + jitter },
                    Fault::BitflipCompute { rank: 3, iter: bits, op: jitter, bit: 62 },
                    Fault::BitflipMemory { rank: 2, iter: jitter, param: bits, bit: 0 },
                ];
                // A rejoin and a heal must come strictly after their kill
                // and partition.
                if at > 0.0 {
                    events.extend([
                        Fault::Kill { rank: 1, at: 0.0 },
                        Fault::Rejoin { rank: 1, at },
                        Fault::Partition { group: vec![0, 1], at: 0.0, oneway: false },
                        Fault::Heal { group: vec![0, 1], at },
                    ]);
                }
                let plan = ChaosPlan {
                    seed: 9,
                    pr: 2,
                    pc: 2,
                    iters: 4,
                    events,
                };
                let back = ChaosPlan::from_json(&plan.to_json()).map_err(TestCaseError)?;
                prop_assert_eq!(&plan, &back, "time {} did not round-trip", at);
            }
        }
    }

    /// `from_json` on `bytes`, decoded lossily as a file read would be,
    /// returns instead of panicking, and a plan it accepts comes back
    /// from its own `to_json` unchanged.
    fn parses_or_refuses(bytes: &[u8]) -> TestCaseResult {
        let text = String::from_utf8_lossy(bytes);
        let parsed = catch_unwind(|| {
            ChaosPlan::from_json(&text).map(|plan| (ChaosPlan::from_json(&plan.to_json()), plan))
        });
        let parsed = parsed.map_err(|_| TestCaseError(format!("panicked on {text:?}")))?;
        if let Ok((back, plan)) = parsed {
            prop_assert_eq!(back, Ok(plan), "accepted {:?}", text);
        }
        Ok(())
    }

    #[test]
    fn every_single_byte_mutation_of_a_fixture_parses_or_refuses() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/chaos");
        for entry in std::fs::read_dir(dir).unwrap() {
            let fixture = std::fs::read(entry.unwrap().path()).unwrap();
            for at in 0..fixture.len() {
                let mut deleted = fixture.clone();
                deleted.remove(at);
                let replaced = (0..=u8::MAX).map(|byte| {
                    let mut bytes = fixture.clone();
                    bytes[at] = byte;
                    bytes
                });
                for bytes in replaced.chain([deleted]) {
                    parses_or_refuses(&bytes).unwrap_or_else(|e| panic!("{}", e.0));
                }
            }
        }
    }

    /// Words and punctuation of the plan grammar, so that a random
    /// string gets past its first byte more often than raw bytes do.
    const TOKENS: &str = concat!(
        r#"{ } [ ] , : " \ "seed" "pr" "pc" "iters" "events" "type" "kill" "rejoin" "rank" "#,
        r#""at" "straggle" "span" "all" 0 1 -1 0.5 1e999 18446744073709551616 true"#,
    );

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_bytes_parse_or_refuse(raw in prop::collection::vec(0u16..256, 0..96)) {
            parses_or_refuses(&raw.iter().map(|&b| b as u8).collect::<Vec<_>>())?;
        }

        #[test]
        fn arbitrary_token_strings_parse_or_refuse(
            picks in prop::collection::vec(0..TOKENS.split(' ').count(), 0..64)
        ) {
            let tokens: Vec<&str> = TOKENS.split(' ').collect();
            let text: String = picks.iter().map(|&i| tokens[i]).collect();
            parses_or_refuses(text.as_bytes())?;
        }
    }
}
