//! `scale_square` and `scale_flat` — the 1.5D communication skeleton at
//! large P: per iteration and weighted layer every rank charges its
//! share of the step FLOPs, all-reduces the layer's gradient shard
//! (`|W|/pr` words) across its row group and the activation shard
//! (`d·B/pc` words) across its column group, by recursive doubling over
//! the implicit group (the skeleton of `crates/bench`'s `scale_sweep`,
//! copied here so that bin may change freely).
//!
//! Both workloads load the `mpsim` engine only; `tensor` is idle. They
//! differ in *how*: the square grids (64×64, 8×512 at P = 4096) send
//! about 0.3 M envelopes of 2–512 words and are envelope-rate-bound;
//! the flat grids (1×2048, 2048×1) send envelopes of 0.6–4 k words and
//! are bound by payload copies and allocation. A zero-copy payload
//! change should win on `scale_flat` and not on `scale_square`, a
//! scheduler or context-switch change the reverse.
//!
//! Payloads are small integers derived from the seed, so every sum is
//! exact in `f64` whatever the reduction order, and the expected
//! checksum of every reduced vector has a closed form, computed here
//! independently of the engine. Generating and folding a payload costs
//! a mask and a multiply per word, so that the skeleton's own
//! arithmetic stays small beside the engine's.

use crate::api::{
    mlp, recursive_doubling_allreduce, Communicator, MpError, MpResult, NetModel, World, WorldStats,
};
use crate::json::Value;
use crate::probe::{Layers, ProbeDims};
use crate::trace::Tracer;
use crate::workloads::{executed_transfer_secs, Pass, Workload};

const GOLDEN: &str = include_str!("../../golden.json");

pub struct Scale {
    name: &'static str,
    seed: u64,
    p: usize,
    grids: Vec<(usize, usize)>,
    iters: usize,
    b: usize,
    /// Per weighted layer: |W| and d_out·B.
    layer_words: Vec<usize>,
    act_words: Vec<usize>,
    flops: f64,
    /// Expected checksum per grid, from the closed-form sums.
    expected: Vec<u64>,
    /// Blessed (checksum, makespan) per grid for this seed, if any.
    golden: Option<Vec<(u64, f64)>>,
}

/// The word rank `r` contributes at position `e`: an integer in
/// [-128, 127].
fn word(seed: u64, r: usize, e: usize) -> f64 {
    let h = (r as u64)
        .wrapping_mul(31)
        .wrapping_add((e as u64).wrapping_mul(7))
        .wrapping_add(seed);
    (h & 255) as f64 - 128.0
}

/// Position-weighted fold of integer-valued words: cheap, and moved by
/// any wrong, missing or misplaced word.
fn checksum(words: &[f64]) -> u64 {
    words.iter().enumerate().fold(0u64, |h, (e, w)| {
        h.wrapping_add((*w as i64 as u64).wrapping_mul(2 * e as u64 + 1))
    })
}

/// Recursive-doubling all-reduce (sum) over the implicit group
/// `{base + k·stride : k < g}`; `g` a power of two. Cost:
/// `log₂(g)·(α + n·β)`.
fn allreduce_rd_group(
    comm: &Communicator,
    data: &mut [f64],
    base: usize,
    stride: usize,
    g: usize,
    tag_base: u64,
) -> MpResult<()> {
    let local = (comm.rank() - base) / stride;
    let mut d = 1usize;
    let mut step = 0u64;
    while d < g {
        let partner = base + (local ^ d) * stride;
        let incoming = comm.sendrecv(partner, data, partner, tag_base + step)?;
        for (x, y) in data.iter_mut().zip(&incoming) {
            *x += y;
        }
        d <<= 1;
        step += 1;
    }
    Ok(())
}

impl Scale {
    pub fn setup(seed: u64, smoke: bool, flat: bool) -> Scale {
        // Sized so that one pass is 1-1.5 s on a 2-core box: the flat
        // grids move 14x the words per rank, so they get half the ranks.
        let p: usize = match (smoke, flat) {
            (true, _) => 64,
            (false, true) => 2048,
            (false, false) => 4096,
        };
        let side = 1usize << (p.trailing_zeros() / 2);
        let (name, grids) = if flat {
            ("scale_flat", vec![(1, p), (p, 1)])
        } else {
            ("scale_square", vec![(side, side), (side / 8, side * 8)])
        };
        let iters = 1;
        let net = mlp("mlp-scale", &[32, 64, 64, 10]);
        let layers = net.weighted_layers();
        let b = 64usize;
        let mut s = Scale {
            name,
            seed,
            p,
            grids,
            iters,
            b,
            layer_words: layers.iter().map(|l| l.weights).collect(),
            act_words: layers.iter().map(|l| l.d_out() * b).collect(),
            flops: layers
                .iter()
                .map(|l| l.train_flops_per_sample() * b as f64)
                .sum(),
            expected: Vec::new(),
            golden: None,
        };
        s.expected = s.grids.iter().map(|&g| s.expected_checksum(g)).collect();
        s.golden = s.lookup_golden();
        s
    }

    fn shard_words(&self, (pr, pc): (usize, usize)) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.layer_words
            .iter()
            .zip(&self.act_words)
            .map(move |(&w, &a)| (w.div_ceil(pr).max(1), a.div_ceil(pc).max(1)))
    }

    /// What the ranks' checksums must add up to: every member of a
    /// group ends with the group's element-wise sum, which integer
    /// payloads make exact.
    fn expected_checksum(&self, (pr, pc): (usize, usize)) -> u64 {
        let mut acc = 0u64;
        for (gw, aw) in self.shard_words((pr, pc)) {
            let mut per_iter = 0u64;
            // Row groups: ranks i·pc .. i·pc+pc reduce the gradient.
            for i in 0..pr {
                let sum: Vec<f64> = (0..gw)
                    .map(|e| (0..pc).map(|j| word(self.seed, i * pc + j, e)).sum())
                    .collect();
                per_iter = per_iter.wrapping_add(checksum(&sum).wrapping_mul(pc as u64));
            }
            // Column groups: ranks j, j+pc, .. reduce the activations.
            for j in 0..pc {
                let sum: Vec<f64> = (0..aw)
                    .map(|e| (0..pr).map(|i| word(!self.seed, i * pc + j, e)).sum())
                    .collect();
                per_iter = per_iter.wrapping_add(checksum(&sum).wrapping_mul(pr as u64));
            }
            acc = acc.wrapping_add(per_iter.wrapping_mul(self.iters as u64));
        }
        acc
    }

    fn run_grid(&self, (pr, pc): (usize, usize), model: NetModel) -> (u64, WorldStats) {
        let nlayers = self.layer_words.len() as u64;
        let flops_per_call = self.flops / self.p as f64 / (self.iters as f64 * nlayers as f64);
        let (outs, stats) = World::run_with_stats(pr * pc, model, |comm| {
            let r = comm.rank();
            let (i, j) = (r / pc, r % pc);
            let mut acc = 0u64;
            for it in 0..self.iters as u64 {
                for (l, (gw, aw)) in self.shard_words((pr, pc)).enumerate() {
                    comm.advance_flops(flops_per_call);
                    let mut grad: Vec<f64> = (0..gw).map(|e| word(self.seed, r, e)).collect();
                    let tag = 10_000 + ((it * nlayers + l as u64) * 2) * 64;
                    allreduce_rd_group(comm, &mut grad, i * pc, 1, pc, tag)?;
                    acc = acc.wrapping_add(checksum(&grad));
                    let mut act: Vec<f64> = (0..aw).map(|e| word(!self.seed, r, e)).collect();
                    allreduce_rd_group(comm, &mut act, j, pc, pr, tag + 64)?;
                    acc = acc.wrapping_add(checksum(&act));
                }
            }
            Ok::<u64, MpError>(acc)
        });
        // Wrapping-add fold: members of a group hold identical values,
        // so an XOR fold would cancel pairwise.
        let acc = outs.into_iter().fold(0u64, |a, o| {
            a.wrapping_add(o.expect("skeleton rank failed"))
        });
        (acc, stats)
    }

    /// Closed form of one iteration's transfers on the slowest rank.
    fn closed_form_secs(&self, (pr, pc): (usize, usize), model: &NetModel) -> f64 {
        self.shard_words((pr, pc))
            .map(|(gw, aw)| {
                recursive_doubling_allreduce(pc, gw as f64).seconds(model)
                    + recursive_doubling_allreduce(pr, aw as f64).seconds(model)
            })
            .sum()
    }

    fn golden_key(&self) -> String {
        format!("{}:P{}:seed{}", self.name, self.p, self.seed)
    }

    fn lookup_golden(&self) -> Option<Vec<(u64, f64)>> {
        let all = crate::json::parse(GOLDEN).expect("golden.json parses");
        let entry = all.get(&self.golden_key())?.as_arr()?;
        entry
            .iter()
            .map(|g| {
                Some((
                    g.get("checksum")?.as_str()?.parse().ok()?,
                    g.get("makespan")?.as_f64()?,
                ))
            })
            .collect()
    }

    /// This seed's `golden.json` entry, from a fresh run (`--bless`).
    pub fn bless(&self) -> (String, Value) {
        let entry = self
            .grids
            .iter()
            .map(|&g| {
                let (sum, stats) = self.run_grid(g, NetModel::cori_knl());
                Value::obj(vec![
                    ("grid", Value::str(format!("{}x{}", g.0, g.1))),
                    // u64 checksums do not fit a JSON number.
                    ("checksum", Value::str(sum.to_string())),
                    ("makespan", stats.makespan().into()),
                ])
            })
            .collect();
        (self.golden_key(), Value::Arr(entry))
    }
}

impl Workload for Scale {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let model = NetModel::cori_knl();
        let mut pass = Pass::new();
        for (k, &(pr, pc)) in self.grids.iter().enumerate() {
            pass.operation(&format!("grid {pr}x{pc}"), |sim, broken| {
                let ((sum, stats), _) = tr.span("mpsim", format!("skeleton {pr}x{pc}"), |tr| {
                    tr.count("ranks", self.p as f64);
                    self.run_grid((pr, pc), model)
                });
                if sum != self.expected[k] {
                    broken.push(format!(
                        "checksum {sum} differs from the closed-form sums' {}",
                        self.expected[k]
                    ));
                }
                if let Some(golden) = &self.golden {
                    let (gsum, gspan) = golden[k];
                    if sum != gsum || stats.makespan().to_bits() != gspan.to_bits() {
                        broken.push(format!(
                            "golden mismatch: checksum {sum} vs {gsum}, makespan {:e} vs {gspan:e}",
                            stats.makespan()
                        ));
                    }
                }
                sim.absorb(&stats);
                sim.absorb_u64(sum);
                sim.absorb_eq_ratio(
                    executed_transfer_secs(&stats) / self.iters as f64,
                    self.closed_form_secs((pr, pc), &model),
                );
            });
        }
        pass
    }

    fn sizes(&self) -> String {
        format!(
            "mlp-scale B={} P={} iters={} grids={:?}",
            self.b, self.p, self.iters, self.grids
        )
    }

    fn probe_dims(&self) -> ProbeDims {
        // The first grid's widest gradient shard and its row group.
        let (pr, pc) = self.grids[0];
        let words = self
            .shard_words((pr, pc))
            .map(|(gw, _)| gw)
            .max()
            .expect("layers");
        ProbeDims {
            p: self.p,
            group: pc,
            words,
            halo_words: words,
        }
    }

    /// The skeleton *is* a collectives-level program: nothing above
    /// `collectives` runs, so its replay is the pass itself and `core`,
    /// `distmm` and `tensor` hold no time. The single-worker baseline
    /// is the same payload generation and checksums on a 1×1 grid.
    fn replay(&self, tr: &mut Tracer, pass_s: f64) -> Layers {
        let (_, serial_s) = tr.span("core", "skeleton 1x1", |_| {
            self.run_grid((1, 1), NetModel::cori_knl())
        });
        Layers {
            collectives_s: pass_s,
            distmm_s: pass_s,
            serial_s: serial_s * self.grids.len() as f64,
            ..Layers::default()
        }
    }
}
