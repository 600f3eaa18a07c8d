//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seedable, fully deterministic script of
//! [`Fault`]s that the simulator consults at well-defined points:
//! per-link message counters index drops / corruptions / straggler
//! delays, and each rank's own virtual clock triggers its death. Because
//! every decision is a pure function of `(seed, src, dst, per-link
//! sequence number)` or of virtual time — never of wall-clock or OS
//! scheduling — a run with faults is exactly as replayable as a run
//! without: same plan, same program ⇒ bit-identical virtual times,
//! losses, and recovery decisions.
//!
//! [`Fault`] is the one fault vocabulary. Each builder below is one
//! push through [`FaultPlan::with`]; the chaos campaign's plans list the
//! same variants with times written as fractions of the fault-free
//! makespan and realise them through the same call. No builder checks
//! its arguments: [`FaultPlan::validate`] is the one place a fault is
//! checked, and [`crate::World`] runs it before any rank starts.
//!
//! Fault classes:
//!
//! * **Stragglers** ([`Fault::Straggle`]) — extra latency (plus
//!   optional deterministic jitter) added to the transfer time of
//!   messages on one `src → dst` link, either for a single message
//!   ([`Span::Once`]) or all of them ([`Span::All`]). Charged at the
//!   receiver like any α–β cost and recorded in
//!   [`crate::RankStats::straggler_wait`].
//! * **Drops** ([`Fault::Drop`]) — the n-th data message on a link is
//!   silently lost. The simulator delivers a *tombstone* in its place so
//!   the receiver's timeout machinery can observe the loss
//!   deterministically instead of hanging (see
//!   [`crate::Communicator::recv_timeout`]).
//! * **Corruption** ([`Fault::Corrupt`]) — a single bit of one payload
//!   word is flipped after the envelope checksum is stamped, so the
//!   receiver's checksum verification detects it
//!   ([`crate::Error::Corrupted`]). The flip targets mantissa bits only,
//!   keeping the word finite.
//! * **Rank death** ([`Fault::Kill`]) — a rank dies at the first
//!   communication operation at or after a virtual time `T`: it
//!   broadcasts a death notice to every rank (so no peer can hang
//!   waiting on it) and every subsequent operation on it returns
//!   [`crate::Error::RankFailed`].
//! * **Rank rejoin** ([`Fault::Rejoin`]) — a killed rank is scripted to
//!   come back at a virtual time `T`: [`crate::Communicator::revive`]
//!   clears its death flag (spending the kill that felled it),
//!   fast-forwards its clock to `T`, and broadcasts a rejoin
//!   announcement. Survivors consult the same script
//!   ([`FaultPlan::rejoin_time_after`]) to decide re-admission, so the
//!   decision is a pure function of the plan and virtual time —
//!   deterministic, like every other fault decision.
//! * **Partitions** ([`Fault::Partition`], [`Fault::Heal`]) — from
//!   virtual time `T` until a scripted heal, a set of ranks is cut off
//!   from the rest of the world: data messages crossing the cut become
//!   tombstones (so timeouts observe the loss), control messages surface
//!   as unreachable, and death/abort/park notices crossing the cut are
//!   demoted to bare unreachability markers — neither side learns
//!   anything about the other beyond "cannot reach". The asymmetric
//!   variant severs only the `group → outside` direction, modeling
//!   one-way reachability. The cut decision is keyed on the *sender's*
//!   virtual clock at post time, so it is exactly as replayable as every
//!   other fault.
//! * **Duplication** ([`Fault::Duplicate`]) — the n-th data message on a
//!   link is delivered twice. The second copy is flagged in flight and
//!   deterministically absorbed by the receiver's matching layer, so
//!   results never change; the fault exercises the queueing paths.
//! * **Bounded reordering** ([`Fault::Reorder`]) — the n-th data message
//!   on a link is held back by the sender's transport and released after
//!   up to `depth` later messages on the same link. Per-`(ctx, tag)` flow
//!   order is preserved (a same-flow send flushes the held message
//!   first), so the receiver's `(ctx, src, tag)` matching absorbs the
//!   shuffle bit-identically — which is precisely the property the chaos
//!   proptests pin.
//! * **Compute bit flips** ([`Fault::BitflipCompute`]) — silent data
//!   corruption inside a rank: one mantissa/exponent bit of one element
//!   of a GEMM *output* is flipped at a scripted `(rank, iter, op)` site.
//!   Unlike wire corruption this never crosses a link, so no envelope
//!   checksum can see it — only algorithm-based fault tolerance
//!   (checksummed GEMM in `distmm`) or end-state divergence detects it.
//!   Each scripted flip fires at most once per rank (spend-once), so a
//!   rollback/replay of the same iteration re-executes clean.
//! * **Memory bit flips** ([`Fault::BitflipMemory`]) — silent corruption
//!   of *resident weights*: a scripted bit of a scripted parameter word
//!   is flipped between iterations. ABFT on the GEMMs cannot catch this
//!   (the products are self-consistent with the corrupted operand); the
//!   trainer's weight-checksum audit escalates it straight to rollback.
//!   Also spend-once.

/// Which messages on a link a straggler entry applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Only the `n`-th data message on the link (0-based).
    Once(u64),
    /// Every data message on the link.
    All,
}

impl Span {
    fn matches(&self, seq: u64) -> bool {
        match *self {
            Span::Once(n) => seq == n,
            Span::All => true,
        }
    }
}

/// One scripted fault (see the module docs for each class). Ranks are
/// global; link indices (`nth`, [`Span::Once`]) count the data messages
/// on the `src → dst` link from 0; times (`at`) and delays (`extra`,
/// `jitter`) are virtual seconds in a [`FaultPlan`] and fractions of the
/// fault-free makespan in a chaos plan. Flips are iteration-indexed.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// [`FaultPlan::straggle`].
    Straggle {
        src: usize,
        dst: usize,
        extra: f64,
        jitter: f64,
        span: Span,
    },
    /// [`FaultPlan::drop_nth`].
    Drop { src: usize, dst: usize, nth: u64 },
    /// [`FaultPlan::corrupt_nth`].
    Corrupt { src: usize, dst: usize, nth: u64 },
    /// [`FaultPlan::duplicate_nth`].
    Duplicate { src: usize, dst: usize, nth: u64 },
    /// [`FaultPlan::reorder_nth`].
    Reorder {
        src: usize,
        dst: usize,
        nth: u64,
        depth: u64,
    },
    /// [`FaultPlan::kill`].
    Kill { rank: usize, at: f64 },
    /// [`FaultPlan::rejoin`].
    Rejoin { rank: usize, at: f64 },
    /// [`FaultPlan::partition`], or [`FaultPlan::partition_oneway`]
    /// when `oneway`.
    Partition {
        group: Vec<usize>,
        at: f64,
        oneway: bool,
    },
    /// [`FaultPlan::heal`].
    Heal { group: Vec<usize>, at: f64 },
    /// [`FaultPlan::bitflip_compute`].
    BitflipCompute {
        rank: usize,
        iter: u64,
        op: u64,
        bit: u32,
    },
    /// [`FaultPlan::bitflip_memory`].
    BitflipMemory {
        rank: usize,
        iter: u64,
        param: u64,
        bit: u32,
    },
}

impl Fault {
    /// Every rank the fault names.
    pub fn ranks(&self) -> Vec<usize> {
        match self {
            Fault::Straggle { src, dst, .. } | Fault::Drop { src, dst, .. } => vec![*src, *dst],
            Fault::Corrupt { src, dst, .. } | Fault::Duplicate { src, dst, .. } => vec![*src, *dst],
            Fault::Reorder { src, dst, .. } => vec![*src, *dst],
            Fault::Kill { rank, .. } | Fault::Rejoin { rank, .. } => vec![*rank],
            Fault::BitflipCompute { rank, .. } | Fault::BitflipMemory { rank, .. } => vec![*rank],
            Fault::Partition { group, .. } | Fault::Heal { group, .. } => group.clone(),
        }
    }

    /// The fault with every virtual-time quantity multiplied by `k`: an
    /// `at`, and a straggler's `extra` and `jitter`. Link indices and
    /// flips are not times and pass through.
    pub fn scale_times(mut self, k: f64) -> Fault {
        match &mut self {
            Fault::Kill { at, .. } | Fault::Rejoin { at, .. } => *at *= k,
            Fault::Partition { at, .. } | Fault::Heal { at, .. } => *at *= k,
            Fault::Straggle { extra, jitter, .. } => {
                *extra *= k;
                *jitter *= k;
            }
            _ => {}
        }
        self
    }
}

/// A scripted single-bit flip resolved for one call site, handed to the
/// layer that owns the buffer (GEMM wrapper or trainer) to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// The flip's ordinal among the plan's flips of its kind (compute
    /// or memory) — the key for the communicator's spend-once
    /// bookkeeping.
    pub entry: usize,
    /// Element selector: a deterministic hash for compute flips (the
    /// applier reduces it modulo the output length) or the scripted
    /// flat parameter index for memory flips.
    pub index: u64,
    /// Which bit of the f64 word to flip (0..=62; bit 63 — the sign —
    /// is rejected by [`FaultPlan::validate`]).
    pub bit: u32,
}

/// Applies resolved flips to `data`, XOR-ing `1 << bit` into the word
/// at `index % data.len()`. When two flips select the same word the
/// second advances to the next free word, so scripted multi-flip
/// faults never silently cancel. Returns the flat indices actually
/// hit (empty when `data` is empty).
pub fn apply_flips(data: &mut [f64], flips: &[BitFlip]) -> Vec<usize> {
    let mut hit: Vec<usize> = Vec::with_capacity(flips.len());
    if data.is_empty() {
        return hit;
    }
    for f in flips {
        let mut at = (f.index % data.len() as u64) as usize;
        while hit.contains(&at) && hit.len() < data.len() {
            at = (at + 1) % data.len();
        }
        data[at] = f64::from_bits(data[at].to_bits() ^ (1u64 << f.bit));
        hit.push(at);
    }
    hit
}

/// A deterministic script of injected faults. See the module docs for
/// the fault classes and their semantics.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    default_timeout: Option<f64>,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan with the given jitter seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds `fault`. Partition and heal groups are sorted and
    /// deduplicated here ([`FaultPlan::link_cut`] binary-searches them);
    /// everything else is [`FaultPlan::validate`]'s to check.
    pub fn with(mut self, mut fault: Fault) -> Self {
        if let Fault::Partition { group, .. } | Fault::Heal { group, .. } = &mut fault {
            group.sort_unstable();
            group.dedup();
        }
        self.faults.push(fault);
        self
    }

    /// Adds `extra + jitter·u` seconds of latency (with `u` a
    /// deterministic uniform draw in `[0, 1)` keyed on the seed and the
    /// message's link sequence number) to messages from global rank
    /// `src` to `dst` covered by `span`.
    pub fn straggle(self, src: usize, dst: usize, extra: f64, jitter: f64, span: Span) -> Self {
        self.with(Fault::Straggle {
            src,
            dst,
            extra,
            jitter,
            span,
        })
    }

    /// Drops the `nth` (0-based) data message sent from `src` to `dst`.
    pub fn drop_nth(self, src: usize, dst: usize, nth: u64) -> Self {
        self.with(Fault::Drop { src, dst, nth })
    }

    /// Flips one payload bit of the `nth` data message from `src` to
    /// `dst` (after its checksum is stamped, so the receiver detects it).
    pub fn corrupt_nth(self, src: usize, dst: usize, nth: u64) -> Self {
        self.with(Fault::Corrupt { src, dst, nth })
    }

    /// Kills global rank `rank` at its first communication operation at
    /// or after virtual time `at`.
    pub fn kill(self, rank: usize, at: f64) -> Self {
        self.with(Fault::Kill { rank, at })
    }

    /// Schedules global rank `rank` to rejoin (revive) at virtual time
    /// `at`. Only meaningful after a [`FaultPlan::kill`] of the same
    /// rank that fires strictly before `at`; survivors use the same
    /// entry to decide deterministic re-admission.
    pub fn rejoin(self, rank: usize, at: f64) -> Self {
        self.with(Fault::Rejoin { rank, at })
    }

    /// Delivers the `nth` (0-based) data message from `src` to `dst`
    /// twice; the duplicate copy is absorbed by the receiver's matching
    /// layer, so results are unchanged.
    pub fn duplicate_nth(self, src: usize, dst: usize, nth: u64) -> Self {
        self.with(Fault::Duplicate { src, dst, nth })
    }

    /// Holds the `nth` (0-based) data message from `src` to `dst` back
    /// in the sender's transport until up to `depth` later messages on
    /// the same link have been posted (bounded reordering). Per-flow
    /// `(ctx, tag)` order is preserved, so results are unchanged.
    pub fn reorder_nth(self, src: usize, dst: usize, nth: u64, depth: u64) -> Self {
        self.with(Fault::Reorder {
            src,
            dst,
            nth,
            depth,
        })
    }

    /// Cuts the links between `group` and the rest of the world (both
    /// directions) from virtual time `at` until a matching
    /// [`FaultPlan::heal`], or forever if none is scripted.
    pub fn partition(self, group: &[usize], at: f64) -> Self {
        self.with(Fault::Partition {
            group: group.to_vec(),
            at,
            oneway: false,
        })
    }

    /// Asymmetric (one-way) partition: from virtual time `at`, messages
    /// *from* `group` *to* the rest of the world are severed, while the
    /// reverse direction still flows — the group can hear but not be
    /// heard.
    pub fn partition_oneway(self, group: &[usize], at: f64) -> Self {
        self.with(Fault::Partition {
            group: group.to_vec(),
            at,
            oneway: true,
        })
    }

    /// Heals the earliest still-open partition of exactly this `group`
    /// at virtual time `at`. Healing a never-partitioned set is
    /// rejected by [`FaultPlan::validate`].
    pub fn heal(self, group: &[usize], at: f64) -> Self {
        let group = group.to_vec();
        self.with(Fault::Heal { group, at })
    }

    /// Flips bit `bit` of one element of the output of the `op_idx`-th
    /// GEMM that global rank `rank` executes in training iteration
    /// `iter` (silent *compute* corruption). The element is a
    /// deterministic hash draw over the output buffer; the flip fires
    /// at most once per rank even across rollback/replay.
    pub fn bitflip_compute(self, rank: usize, iter: u64, op_idx: u64, bit: u32) -> Self {
        self.with(Fault::BitflipCompute {
            rank,
            iter,
            op: op_idx,
            bit,
        })
    }

    /// Flips bit `bit` of the `param_idx`-th resident weight word
    /// (flat index across the rank's layer shards, modulo their total
    /// length) on global rank `rank` at the start of training iteration
    /// `iter` (silent *memory* corruption). Spend-once, like
    /// [`FaultPlan::bitflip_compute`].
    pub fn bitflip_memory(self, rank: usize, iter: u64, param_idx: u64, bit: u32) -> Self {
        self.with(Fault::BitflipMemory {
            rank,
            iter,
            param: param_idx,
            bit,
        })
    }

    /// Sets the deadline (in virtual seconds) that plain
    /// [`crate::Communicator::recv`] applies when this plan is active,
    /// so applications that never call `recv_timeout` still fail fast
    /// instead of hanging on a dropped message.
    pub fn with_default_timeout(mut self, timeout: f64) -> Self {
        self.default_timeout = Some(timeout);
        self
    }

    /// Checks the plan and returns a descriptive error for the first bad
    /// fault found: a time or delay that is negative or not finite (NaN
    /// poisons the total order the event engine sorts by, ±inf
    /// degenerates into "never" / "always"), an empty partition, a
    /// zero-depth reorder, a flip outside bits 0..=62, a rejoin that
    /// does not follow a kill, a heal that closes no partition, two
    /// straggler entries for one message; or a default timeout that is
    /// not finite and positive. Enforced by [`crate::World`] before any
    /// rank starts, so an undefined interleaving is rejected up front
    /// instead of silently producing arbitrary behavior.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let timeout = self.default_timeout.unwrap_or(1.0);
        if !(timeout.is_finite() && timeout > 0.0) {
            return Err(format!(
                "default timeout {timeout} must be finite and positive"
            ));
        }
        for (i, f) in self.faults.iter().enumerate() {
            let why = match *f {
                Fault::Partition { ref group, .. } if group.is_empty() => {
                    Some("partition group must be non-empty".to_string())
                }
                Fault::Kill { at, .. } | Fault::Partition { at, .. } => bad_time(f, at),
                Fault::Rejoin { rank, at } => {
                    bad_time(f, at).or_else(|| self.unpaired_rejoin(rank))
                }
                Fault::Heal { ref group, at } => {
                    bad_time(f, at).or_else(|| self.unpaired_heal(group, at))
                }
                Fault::Straggle { extra, jitter, .. } => bad_time(f, extra)
                    .or(bad_time(f, jitter))
                    .or_else(|| self.overlapping_straggler(i)),
                Fault::Reorder { depth: 0, .. } => {
                    Some(format!("{f:?} has depth 0 (a no-op; use depth >= 1)"))
                }
                // A sign flip is a different fault model and an
                // out-of-range bit would panic in the shift.
                Fault::BitflipCompute { bit, .. } | Fault::BitflipMemory { bit, .. } => {
                    (bit > 62).then(|| format!("{f:?} targets bit {bit} (bits 0..=62 are valid)"))
                }
                _ => None,
            };
            if let Some(why) = why {
                return Err(why);
            }
        }
        Ok(())
    }

    /// Why `rank`'s rejoins do not each follow a kill, if they do not:
    /// kill and rejoin must alternate, kill first.
    fn unpaired_rejoin(&self, rank: usize) -> Option<String> {
        let mut after = f64::NEG_INFINITY;
        while let Some(jt) = self.rejoin_time_after(rank, after) {
            let Some(kt) = self.kill_time_after(rank, after) else {
                return Some(format!(
                    "rejoin of rank {rank} at t={jt} without a kill strictly before it \
                     (kill and rejoin must alternate, kill first)"
                ));
            };
            if jt <= kt {
                return Some(format!(
                    "rejoin of rank {rank} at t={jt} does not follow its kill at t={kt} \
                     (same-epoch kill+rejoin is contradictory)"
                ));
            }
            after = jt;
        }
        None
    }

    /// Why a heal of `group` at `at` is refused, if it is: it must close
    /// a partition of exactly that group that started strictly before.
    fn unpaired_heal(&self, healed: &[usize], at: f64) -> Option<String> {
        let opened = |f: &Fault| match f {
            Fault::Partition { group, at: t, .. } => group == healed && *t < at,
            _ => false,
        };
        (!self.faults.iter().any(opened)).then(|| {
            format!(
                "heal of {healed:?} at t={at} does not match any partition of that group \
                 starting strictly before it"
            )
        })
    }

    /// Why the straggler at `i` is refused, if it is: a later one on
    /// its link covers one of its messages (summing two entries for one
    /// message is almost always a typo).
    fn overlapping_straggler(&self, i: usize) -> Option<String> {
        let link = |f: &Fault| match *f {
            Fault::Straggle { src, dst, span, .. } => Some((src, dst, span)),
            _ => None,
        };
        let (src, dst, a) = link(&self.faults[i])?;
        let overlaps = |&(s, d, b): &(usize, usize, Span)| {
            (s, d) == (src, dst) && (a == b || a == Span::All || b == Span::All)
        };
        let (_, _, b) = self.faults[i + 1..]
            .iter()
            .filter_map(link)
            .find(overlaps)?;
        Some(format!(
            "overlapping straggler spans on link {src} -> {dst} ({a:?} and {b:?})"
        ))
    }

    /// Whether the plan injects anything at all. An inactive plan is
    /// skipped entirely on the send/recv fast paths.
    pub fn active(&self) -> bool {
        !self.faults.is_empty() || self.default_timeout.is_some()
    }

    /// Whether the plan scripts any compute or memory bit flips at all
    /// (a cheap gate for the per-GEMM / per-iteration query sites).
    pub fn has_bitflips(&self) -> bool {
        self.compute_flip_entries() + self.memory_flip_entries() > 0
    }

    /// Total number of scripted compute-flip entries (each fires at
    /// most once).
    pub fn compute_flip_entries(&self) -> usize {
        self.flips(true).count()
    }

    /// Total number of scripted memory-flip entries.
    pub fn memory_flip_entries(&self) -> usize {
        self.flips(false).count()
    }

    /// The compute flips scripted for the `op`-th GEMM of iteration
    /// `iter` on global rank `rank`. The element hash is keyed on
    /// `(seed, rank, iter, op, entry)`, so distinct entries landing on
    /// the same GEMM pick independent elements (the applier resolves
    /// residual collisions by advancing).
    pub fn compute_flips_at(&self, rank: usize, iter: u64, op: u64) -> Vec<BitFlip> {
        self.flips(true)
            .enumerate()
            .filter(|&(_, (site, _))| site == (rank, iter, op))
            .map(|(entry, (_, bit))| BitFlip {
                entry,
                index: splitmix(self.seed ^ mix3(rank as u64, iter ^ (op << 32), entry as u64)),
                bit,
            })
            .collect()
    }

    /// The memory flips scripted for the start of iteration `iter` on
    /// global rank `rank`; `index` is the scripted flat parameter
    /// index verbatim.
    pub fn memory_flips_at(&self, rank: usize, iter: u64) -> Vec<BitFlip> {
        self.flips(false)
            .enumerate()
            .filter(|&(_, ((r, i, _), _))| (r, i) == (rank, iter))
            .map(|(entry, ((_, _, index), bit))| BitFlip { entry, index, bit })
            .collect()
    }

    /// `((rank, iter, op), bit)` of every compute flip, or `((rank,
    /// iter, param), bit)` of every memory flip, in plan order: a flip's
    /// position here is its spend-once `entry`.
    fn flips(&self, compute: bool) -> impl Iterator<Item = ((usize, u64, u64), u32)> + '_ {
        self.faults.iter().filter_map(move |f| match *f {
            Fault::BitflipCompute {
                rank,
                iter,
                op,
                bit,
            } if compute => Some(((rank, iter, op), bit)),
            Fault::BitflipMemory {
                rank,
                iter,
                param,
                bit,
            } if !compute => Some(((rank, iter, param), bit)),
            _ => None,
        })
    }

    /// The default deadline plain `recv` applies under this plan.
    pub fn default_timeout(&self) -> Option<f64> {
        self.default_timeout
    }

    /// Total extra latency injected into the `seq`-th data message on
    /// the `src → dst` link.
    pub fn extra_delay(&self, src: usize, dst: usize, seq: u64) -> f64 {
        self.faults.iter().fold(0.0, |extra, f| match *f {
            Fault::Straggle {
                src: s,
                dst: d,
                extra: e,
                jitter,
                span,
            } if (s, d) == (src, dst) && span.matches(seq) => {
                extra + (e + jitter * self.unit(src, dst, seq))
            }
            _ => extra,
        })
    }

    /// Whether the `seq`-th data message on `src → dst` is dropped.
    pub fn dropped(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.faults.contains(&Fault::Drop { src, dst, nth: seq })
    }

    /// Whether the `seq`-th data message on `src → dst` is corrupted.
    pub fn corrupted(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.faults.contains(&Fault::Corrupt { src, dst, nth: seq })
    }

    /// Whether the `seq`-th data message on `src → dst` is duplicated.
    pub fn duplicated(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.faults
            .contains(&Fault::Duplicate { src, dst, nth: seq })
    }

    /// The reorder depth for the `seq`-th data message on `src → dst`,
    /// if the plan holds it back.
    pub fn reorder_depth(&self, src: usize, dst: usize, seq: u64) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Reorder {
                src: s,
                dst: d,
                nth,
                depth,
            } if (s, d, nth) == (src, dst, seq) => Some(depth),
            _ => None,
        })
    }

    /// The partitions as `(group, start, oneway, heal time)`. A
    /// partition heals at the earliest heal entry of exactly its group
    /// strictly after it starts, or at `f64::INFINITY` if none.
    fn partitions(&self) -> impl Iterator<Item = (&[usize], f64, bool, f64)> + '_ {
        self.faults.iter().filter_map(|f| match f {
            Fault::Partition { group, at, oneway } => {
                let heal = self.earliest(*at, |h| match h {
                    Fault::Heal { group: g, at: t } if g == group => Some(*t),
                    _ => None,
                });
                Some((&group[..], *at, *oneway, heal.unwrap_or(f64::INFINITY)))
            }
            _ => None,
        })
    }

    /// Whether a message posted from `src` to `dst` at (sender) virtual
    /// time `t` is severed by an active partition. For a symmetric
    /// partition any link crossing the cut is severed; for a one-way
    /// partition only `group → outside` is.
    pub fn link_cut(&self, src: usize, dst: usize, t: f64) -> bool {
        self.partitions().any(|(group, at, oneway, heal)| {
            if t < at || t >= heal {
                return false;
            }
            let sin = group.binary_search(&src).is_ok();
            let din = group.binary_search(&dst).is_ok();
            sin != din && (!oneway || sin)
        })
    }

    /// Whether any partition severs traffic in either direction between
    /// `a` and `b` at virtual time `t`.
    pub fn pair_cut(&self, a: usize, b: usize, t: f64) -> bool {
        self.link_cut(a, b, t) || self.link_cut(b, a, t)
    }

    /// The virtual time at which every partition active at `t` has
    /// healed: `None` when no partition is active, `f64::INFINITY` when
    /// one of them never heals. A parked minority rank fast-forwards
    /// its clock here before announcing itself for re-admission.
    pub fn heal_horizon(&self, t: f64) -> Option<f64> {
        let mut horizon: Option<f64> = None;
        for (_, at, _, end) in self.partitions() {
            if t >= at && t < end {
                horizon = Some(horizon.map_or(end, |h: f64| h.max(end)));
            }
        }
        horizon
    }

    /// Whether the plan says `rank` is alive at virtual time `t`: not
    /// killed, or revived by a rejoin in `(kill, t]`. Used by survivors
    /// to avoid welcoming a rank the plan has permanently removed.
    pub fn alive_at(&self, rank: usize, t: f64) -> bool {
        let mut after = f64::NEG_INFINITY;
        loop {
            match self.kill_time_after(rank, after) {
                None => return true,
                Some(k) if k > t => return true,
                Some(k) => match self.rejoin_time_after(rank, k) {
                    Some(j) if j <= t => after = j,
                    _ => return false,
                },
            }
        }
    }

    /// The virtual time at which `rank` dies, if the plan kills it.
    pub fn kill_time(&self, rank: usize) -> Option<f64> {
        self.kill_time_after(rank, f64::NEG_INFINITY)
    }

    /// The earliest scripted kill of `rank` strictly after virtual time
    /// `after` (a revival spends every kill at or before the rejoin
    /// time; a later second kill can still fire).
    pub fn kill_time_after(&self, rank: usize, after: f64) -> Option<f64> {
        self.earliest(after, |f| match *f {
            Fault::Kill { rank: r, at } if r == rank => Some(at),
            _ => None,
        })
    }

    /// The earliest scripted rejoin of `rank` strictly after virtual
    /// time `after` (its death time, so a pre-death rejoin entry is
    /// never matched).
    pub fn rejoin_time_after(&self, rank: usize, after: f64) -> Option<f64> {
        self.earliest(after, |f| match *f {
            Fault::Rejoin { rank: r, at } if r == rank => Some(at),
            _ => None,
        })
    }

    /// The earliest time `time` picks out of the plan strictly after
    /// `after`.
    fn earliest(&self, after: f64, time: impl Fn(&Fault) -> Option<f64>) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(time)
            .filter(|&t| t > after)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Flips a deterministic mantissa bit of one word of `data` (the
    /// corruption applied to a message the plan marks as corrupted).
    pub fn corrupt_payload(&self, data: &mut [f64], src: usize, dst: usize, seq: u64) {
        if data.is_empty() {
            return;
        }
        let h = splitmix(self.seed ^ mix3(src as u64, dst as u64, seq));
        let word = (h % data.len() as u64) as usize;
        // Bits 0..52 are mantissa bits of an f64: flipping one perturbs
        // the value but cannot produce an infinity or NaN.
        let bit = (h >> 32) % 52;
        data[word] = f64::from_bits(data[word].to_bits() ^ (1u64 << bit));
    }

    /// Deterministic uniform draw in `[0, 1)` for jitter.
    fn unit(&self, src: usize, dst: usize, seq: u64) -> f64 {
        let h = splitmix(self.seed ^ mix3(src as u64, dst as u64, seq));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The plan's jitter seed (also keys retry-backoff jitter).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }
}

/// Why the time or delay `t` of `f` is refused, if it is: it must be
/// finite and non-negative.
fn bad_time(f: &Fault, t: f64) -> Option<String> {
    let kind = if t.is_finite() {
        "negative"
    } else {
        "non-finite"
    };
    let ok = t.is_finite() && t >= 0.0;
    (!ok).then(|| format!("{f:?} has a {kind} time or delay {t} (must be finite and non-negative)"))
}

/// Deterministic uniform draw in `[0, 1)` keyed on `(seed, a, b, c)` —
/// shared by straggler jitter and retry-backoff jitter.
pub(crate) fn jitter_unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let h = splitmix(seed ^ mix3(a, b, c));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ splitmix(b) ^ c.rotate_left(32))
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent lanes of [`checksum`]: consecutive words go to
/// consecutive lanes, so the four multiply chains pipeline instead of
/// serialising on one accumulator.
const CHECKSUM_LANES: usize = 4;

/// Checksum over the bit patterns of a word payload. Stamped on every
/// data envelope while a plan is active and re-verified by the
/// receiver, out of band of the α–β cost model (word counts are
/// unchanged, so cost-fidelity tests hold under fault injection).
///
/// Word `i` is folded into lane `i mod 4` by
/// `s ← rotl((s ⊕ bits(wᵢ)) · P, 29)` with `P` odd; the lanes are then
/// folded, in order, into a state seeded with the length by the same
/// step. Xor with a constant, multiplication by an odd constant and
/// rotation are each bijections of `u64`, so a lane step is a
/// bijection of the lane state for a fixed word *and* of the word for
/// a fixed state, and the final fold is a bijection in each lane.
/// Hence **any change confined to one word changes the checksum with
/// certainty** — which is exactly the corruption fault (one flipped
/// bit of one payload word). The lane seeds differ and every step
/// depends on what came before it, so the value also depends on
/// position and length (swapping two unequal words, or appending
/// `0.0`, changes it short of a 2⁻⁶⁴ collision). The value is only
/// ever compared with another `checksum` of the same process; it is
/// not a stable format.
pub fn checksum(words: &[f64]) -> u64 {
    const P: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |s: u64, w: u64| (s ^ w).wrapping_mul(P).rotate_left(29);
    let mut lanes: [u64; CHECKSUM_LANES] = [
        0xcbf2_9ce4_8422_2325,
        0x8422_2325_cbf2_9ce4,
        0x2545_F491_4F6C_DD1D,
        0xD6E8_FEB8_6659_FD93,
    ];
    let mut quads = words.chunks_exact(CHECKSUM_LANES);
    for q in &mut quads {
        for (s, w) in lanes.iter_mut().zip(q) {
            *s = step(*s, w.to_bits());
        }
    }
    // A ragged tail is a last, short row of the same lane layout.
    for (s, w) in lanes.iter_mut().zip(quads.remainder()) {
        *s = step(*s, w.to_bits());
    }
    lanes.iter().fold(words.len() as u64, |h, &s| step(h, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validate_rejects_non_finite_and_negative_times() {
        // The builders take anything; `validate` refuses NaN, ±inf and
        // negative times and delays with a message naming finiteness.
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            for plan in [
                FaultPlan::new(1).kill(0, t),
                FaultPlan::new(1).kill(0, 0.0).rejoin(0, t),
                FaultPlan::new(1).partition(&[0, 1], t),
                FaultPlan::new(1).partition_oneway(&[0], t),
                FaultPlan::new(1).partition(&[0, 1], 0.0).heal(&[0, 1], t),
                FaultPlan::new(1).straggle(0, 1, t, 0.0, Span::All),
                FaultPlan::new(1).straggle(0, 1, 0.0, t, Span::All),
            ] {
                let err = plan.validate().expect_err(&format!("accepted {t}"));
                assert!(err.contains("must be finite"), "{err}");
                let kind = if t.is_finite() {
                    "negative"
                } else {
                    "non-finite"
                };
                assert!(err.contains(kind), "{err}");
            }
        }
        for t in [f64::NAN, f64::INFINITY, -0.5, 0.0] {
            let err = FaultPlan::new(1).with_default_timeout(t).validate();
            assert!(err.unwrap_err().contains("must be finite and positive"));
        }
        // Extreme *finite* times remain valid.
        assert_eq!(
            FaultPlan::new(1).kill(0, 5e-324).kill(1, 1e300).validate(),
            Ok(())
        );
    }

    #[test]
    fn flips_are_keyed_on_their_ordinal_among_flips_of_their_kind() {
        // Spend-once entries and the compute element hash count only
        // flips of the same kind, so faults listed before them move
        // nothing.
        let two = |p: FaultPlan| p.bitflip_compute(2, 3, 1, 50).bitflip_compute(2, 3, 1, 47);
        let alone = two(FaultPlan::new(5));
        let behind = two(FaultPlan::new(5).kill(0, 1.0).bitflip_memory(2, 3, 9, 40));
        assert_eq!(alone.compute_flips_at(2, 3, 1).len(), 2);
        assert_eq!(
            behind.compute_flips_at(2, 3, 1),
            alone.compute_flips_at(2, 3, 1)
        );
        assert_eq!(behind.compute_flip_entries(), 2);
        let mem = behind.bitflip_memory(2, 4, 11, 41);
        assert_eq!(mem.memory_flip_entries(), 2);
        let want = BitFlip {
            entry: 1,
            index: 11,
            bit: 41,
        };
        assert_eq!(mem.memory_flips_at(2, 4), vec![want]);
    }

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultPlan::default().active());
        assert!(!FaultPlan::new(7).active());
        assert!(FaultPlan::new(7).drop_nth(0, 1, 0).active());
        assert!(FaultPlan::new(7).with_default_timeout(1.0).active());
    }

    #[test]
    fn straggler_spans_select_messages() {
        let p = FaultPlan::new(1).straggle(0, 1, 2.5, 0.0, Span::Once(3));
        assert_eq!(p.extra_delay(0, 1, 3), 2.5);
        assert_eq!(p.extra_delay(0, 1, 2), 0.0);
        assert_eq!(p.extra_delay(1, 0, 3), 0.0, "other direction unaffected");
        let all = FaultPlan::new(1).straggle(0, 1, 1.0, 0.0, Span::All);
        assert_eq!(all.extra_delay(0, 1, 0), 1.0);
        assert_eq!(all.extra_delay(0, 1, 99), 1.0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = FaultPlan::new(42).straggle(0, 1, 1.0, 0.5, Span::All);
        let a = p.extra_delay(0, 1, 7);
        let b = FaultPlan::new(42)
            .straggle(0, 1, 1.0, 0.5, Span::All)
            .extra_delay(0, 1, 7);
        assert_eq!(a, b, "same seed, same jitter");
        assert!((1.0..1.5).contains(&a));
        let c = FaultPlan::new(43)
            .straggle(0, 1, 1.0, 0.5, Span::All)
            .extra_delay(0, 1, 7);
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn drop_and_corrupt_index_by_link_sequence() {
        let p = FaultPlan::new(0).drop_nth(2, 3, 5).corrupt_nth(3, 2, 0);
        assert!(p.dropped(2, 3, 5));
        assert!(!p.dropped(2, 3, 4));
        assert!(!p.dropped(3, 2, 5));
        assert!(p.corrupted(3, 2, 0));
        assert!(!p.corrupted(2, 3, 0));
    }

    #[test]
    fn kill_time_takes_earliest() {
        let p = FaultPlan::new(0).kill(4, 10.0).kill(4, 3.0).kill(5, 1.0);
        assert_eq!(p.kill_time(4), Some(3.0));
        assert_eq!(p.kill_time(5), Some(1.0));
        assert_eq!(p.kill_time(0), None);
    }

    #[test]
    fn kill_and_rejoin_windows_are_strictly_after() {
        let p = FaultPlan::new(0)
            .kill(4, 3.0)
            .rejoin(4, 7.0)
            .kill(4, 12.0)
            .rejoin(4, 20.0);
        assert!(p.active());
        // First life: dies at 3, rejoins at 7 (not the later 20).
        assert_eq!(p.kill_time(4), Some(3.0));
        assert_eq!(p.rejoin_time_after(4, 3.0), Some(7.0));
        // Second life: the revival spends kills ≤ 7; the 12.0 kill is
        // next, then the 20.0 rejoin.
        assert_eq!(p.kill_time_after(4, 7.0), Some(12.0));
        assert_eq!(p.rejoin_time_after(4, 12.0), Some(20.0));
        // No third life.
        assert_eq!(p.kill_time_after(4, 20.0), None);
        assert_eq!(p.rejoin_time_after(4, 20.0), None);
        // Other ranks unaffected.
        assert_eq!(p.rejoin_time_after(5, 0.0), None);
    }

    #[test]
    fn corruption_flips_exactly_one_finite_bit() {
        let p = FaultPlan::new(9);
        let orig = vec![1.0, -2.5, 3.25, 0.0];
        let mut v = orig.clone();
        p.corrupt_payload(&mut v, 0, 1, 0);
        let flipped: u32 = orig
            .iter()
            .zip(&v)
            .map(|(a, b)| (a.to_bits() ^ b.to_bits()).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        assert!(v.iter().all(|x| x.is_finite()), "corruption stays finite");
        assert_ne!(checksum(&orig), checksum(&v));
        // Deterministic: same plan corrupts the same bit.
        let mut w = orig.clone();
        p.corrupt_payload(&mut w, 0, 1, 0);
        assert_eq!(v, w);
    }

    #[test]
    fn symmetric_partition_cuts_both_directions_until_heal() {
        let p = FaultPlan::new(0).partition(&[1, 3], 2.0).heal(&[1, 3], 5.0);
        assert!(p.active());
        assert!(!p.link_cut(1, 0, 1.9), "not yet partitioned");
        assert!(p.link_cut(1, 0, 2.0), "group -> outside severed");
        assert!(p.link_cut(0, 3, 2.0), "outside -> group severed");
        assert!(!p.link_cut(1, 3, 3.0), "intra-group traffic flows");
        assert!(!p.link_cut(0, 2, 3.0), "outside traffic flows");
        assert!(!p.link_cut(1, 0, 5.0), "healed at the heal instant");
        assert!(p.pair_cut(0, 1, 3.0));
        assert!(!p.pair_cut(0, 2, 3.0));
    }

    #[test]
    fn oneway_partition_cuts_only_group_to_outside() {
        let p = FaultPlan::new(0).partition_oneway(&[2], 1.0);
        assert!(p.link_cut(2, 0, 1.5), "group cannot be heard");
        assert!(!p.link_cut(0, 2, 1.5), "group can still hear");
        assert!(p.pair_cut(0, 2, 1.5), "the pair is still impaired");
        // Never healed: cut forever.
        assert!(p.link_cut(2, 0, 1e12));
        assert_eq!(p.heal_horizon(1.5), Some(f64::INFINITY));
        assert_eq!(p.heal_horizon(0.5), None);
    }

    #[test]
    fn heal_horizon_takes_the_latest_active_heal() {
        let p = FaultPlan::new(0)
            .partition(&[1], 1.0)
            .heal(&[1], 4.0)
            .partition(&[2, 3], 2.0)
            .heal(&[2, 3], 6.0);
        assert_eq!(p.heal_horizon(2.5), Some(6.0));
        assert_eq!(p.heal_horizon(4.5), Some(6.0));
        assert_eq!(p.heal_horizon(6.0), None, "everything healed");
    }

    #[test]
    fn alive_at_follows_kill_rejoin_lifetimes() {
        let p = FaultPlan::new(0).kill(4, 3.0).rejoin(4, 7.0).kill(4, 12.0);
        assert!(p.alive_at(4, 2.9));
        assert!(!p.alive_at(4, 3.0));
        assert!(!p.alive_at(4, 6.9));
        assert!(p.alive_at(4, 7.0));
        assert!(!p.alive_at(4, 12.0));
        assert!(p.alive_at(0, 100.0), "unkilled ranks are always alive");
    }

    #[test]
    fn duplicate_and_reorder_index_by_link_sequence() {
        let p = FaultPlan::new(0)
            .duplicate_nth(0, 1, 4)
            .reorder_nth(1, 0, 2, 3);
        assert!(p.active());
        assert!(p.duplicated(0, 1, 4));
        assert!(!p.duplicated(0, 1, 3));
        assert!(!p.duplicated(1, 0, 4));
        assert_eq!(p.reorder_depth(1, 0, 2), Some(3));
        assert_eq!(p.reorder_depth(1, 0, 1), None);
        assert_eq!(p.reorder_depth(0, 1, 2), None);
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let p = FaultPlan::new(3)
            .kill(4, 3.0)
            .rejoin(4, 7.0)
            .straggle(0, 1, 1.0, 0.0, Span::Once(2))
            .straggle(0, 1, 1.0, 0.0, Span::Once(3))
            .partition(&[1, 2], 1.0)
            .heal(&[1, 2], 2.0)
            .duplicate_nth(0, 1, 0)
            .reorder_nth(0, 1, 1, 2);
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(FaultPlan::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_rejoin_without_prior_kill() {
        let err = FaultPlan::new(0).rejoin(4, 5.0).validate().unwrap_err();
        assert!(err.contains("rejoin of rank 4"), "got: {err}");
        assert!(err.contains("without a kill"), "got: {err}");
    }

    #[test]
    fn validate_rejects_same_epoch_kill_and_rejoin() {
        let err = FaultPlan::new(0)
            .kill(2, 4.0)
            .rejoin(2, 4.0)
            .validate()
            .unwrap_err();
        assert!(err.contains("rank 2"), "got: {err}");
        assert!(err.contains("contradictory"), "got: {err}");
    }

    #[test]
    fn validate_rejects_overlapping_straggler_spans() {
        let all2 = FaultPlan::new(0)
            .straggle(0, 1, 1.0, 0.0, Span::All)
            .straggle(0, 1, 2.0, 0.0, Span::All);
        assert!(all2.validate().unwrap_err().contains("overlapping"));
        let all_once = FaultPlan::new(0)
            .straggle(0, 1, 1.0, 0.0, Span::All)
            .straggle(0, 1, 2.0, 0.0, Span::Once(3));
        assert!(all_once.validate().unwrap_err().contains("0 -> 1"));
        let same_once = FaultPlan::new(0)
            .straggle(2, 3, 1.0, 0.0, Span::Once(7))
            .straggle(2, 3, 2.0, 0.0, Span::Once(7));
        assert!(same_once.validate().unwrap_err().contains("2 -> 3"));
        // Distinct messages or distinct links are fine.
        assert!(FaultPlan::new(0)
            .straggle(0, 1, 1.0, 0.0, Span::Once(1))
            .straggle(0, 1, 2.0, 0.0, Span::Once(2))
            .validate()
            .is_ok());
        assert!(FaultPlan::new(0)
            .straggle(0, 1, 1.0, 0.0, Span::All)
            .straggle(1, 0, 2.0, 0.0, Span::All)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_heal_of_never_partitioned_set() {
        let err = FaultPlan::new(0).heal(&[1, 2], 5.0).validate().unwrap_err();
        assert!(err.contains("heal of [1, 2]"), "got: {err}");
        // A heal before (or at) the partition start is just as wrong.
        let err = FaultPlan::new(0)
            .partition(&[1, 2], 5.0)
            .heal(&[1, 2], 5.0)
            .validate()
            .unwrap_err();
        assert!(err.contains("strictly before"), "got: {err}");
        // Group mismatch does not pair either.
        let err = FaultPlan::new(0)
            .partition(&[1, 2], 1.0)
            .heal(&[1, 3], 2.0)
            .validate()
            .unwrap_err();
        assert!(err.contains("[1, 3]"), "got: {err}");
    }

    #[test]
    fn validate_rejects_zero_depth_reorders() {
        let err = FaultPlan::new(0)
            .reorder_nth(0, 1, 5, 0)
            .validate()
            .unwrap_err();
        assert!(err.contains("depth 0"), "got: {err}");
    }

    #[test]
    fn bitflips_index_by_rank_iter_and_op() {
        let p = FaultPlan::new(5)
            .bitflip_compute(2, 3, 1, 50)
            .bitflip_memory(1, 4, 17, 40);
        assert!(p.active());
        assert!(p.has_bitflips());
        assert_eq!(p.compute_flip_entries(), 1);
        assert_eq!(p.memory_flip_entries(), 1);
        assert_eq!(p.compute_flips_at(2, 3, 1).len(), 1);
        assert!(p.compute_flips_at(2, 3, 0).is_empty());
        assert!(p.compute_flips_at(2, 2, 1).is_empty());
        assert!(p.compute_flips_at(0, 3, 1).is_empty());
        let m = p.memory_flips_at(1, 4);
        assert_eq!(
            m,
            vec![BitFlip {
                entry: 0,
                index: 17,
                bit: 40
            }]
        );
        assert!(p.memory_flips_at(1, 3).is_empty());
        assert!(p.memory_flips_at(0, 4).is_empty());
        // Deterministic element draw; entry index keys the spend-once
        // bookkeeping.
        let a = p.compute_flips_at(2, 3, 1);
        let b = p.compute_flips_at(2, 3, 1);
        assert_eq!(a, b);
        assert_eq!(a[0].entry, 0);
        assert_eq!(a[0].bit, 50);
    }

    #[test]
    fn apply_flips_advances_past_collisions() {
        // Two flips selecting the same word must hit distinct words.
        let flips = [
            BitFlip {
                entry: 0,
                index: 2,
                bit: 51,
            },
            BitFlip {
                entry: 1,
                index: 2,
                bit: 48,
            },
        ];
        let orig = vec![1.0, 2.0, 3.0, 4.0];
        let mut v = orig.clone();
        let hit = apply_flips(&mut v, &flips);
        assert_eq!(hit, vec![2, 3]);
        let changed: Vec<usize> = orig
            .iter()
            .zip(&v)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, vec![2, 3]);
        // Flipping a scripted bit is an involution: re-applying restores.
        apply_flips(&mut v, &flips);
        assert_eq!(v, orig);
        // Empty buffers are a no-op.
        assert!(apply_flips(&mut [], &flips).is_empty());
    }

    #[test]
    fn validate_rejects_sign_bit_flips() {
        let err = FaultPlan::new(0)
            .bitflip_compute(0, 0, 0, 63)
            .validate()
            .unwrap_err();
        assert!(err.contains("bit 63"), "got: {err}");
        let err = FaultPlan::new(0)
            .bitflip_memory(0, 0, 0, 64)
            .validate()
            .unwrap_err();
        assert!(err.contains("bit 64"), "got: {err}");
        assert!(FaultPlan::new(0)
            .bitflip_compute(0, 0, 0, 62)
            .bitflip_memory(0, 0, 0, 0)
            .validate()
            .is_ok());
    }

    #[test]
    fn checksum_detects_single_word_changes() {
        let a = vec![0.5; 64];
        let mut b = a.clone();
        b[17] = 0.5000000001;
        assert_ne!(checksum(&a), checksum(&b));
        assert_eq!(checksum(&a), checksum(&a.clone()));
        assert_eq!(checksum(&[]), checksum(&[]));
    }

    /// Seeded payload with arbitrary bit patterns (NaNs, subnormals,
    /// both zeros): the checksum reads bits, not values.
    fn payload(len: usize, seed: u64) -> Vec<f64> {
        (0..len as u64)
            .map(|i| f64::from_bits(mix3(seed, i, 0x5eed)))
            .collect()
    }

    #[test]
    fn every_single_bit_flip_is_detected_on_short_payloads() {
        // Exhaustive over word × bit for every length up to three full
        // lane rows plus every tail length.
        for len in 0..=3 * CHECKSUM_LANES + 3 {
            let v = payload(len, len as u64);
            let base = checksum(&v);
            for word in 0..len {
                for bit in 0..64 {
                    let mut w = v.clone();
                    w[word] = f64::from_bits(w[word].to_bits() ^ (1u64 << bit));
                    assert_ne!(checksum(&w), base, "len {len} word {word} bit {bit}");
                }
            }
        }
        assert_eq!(checksum(&[]), checksum(&payload(0, 9)), "empty is stable");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_single_word_change_is_detected(
            len in 1usize..4100, seed in 0u64..u64::MAX, at in 0usize..4100, bit in 0u32..64,
            other in 0u64..u64::MAX,
        ) {
            let v = payload(len, seed);
            let base = checksum(&v);
            let at = at % len;
            let mut flipped = v.clone();
            flipped[at] = f64::from_bits(v[at].to_bits() ^ (1u64 << bit));
            prop_assert!(checksum(&flipped) != base, "len {} word {} bit {}", len, at, bit);
            // Not just one bit: any other word in that slot.
            if other != v[at].to_bits() {
                let mut replaced = v.clone();
                replaced[at] = f64::from_bits(other);
                prop_assert!(checksum(&replaced) != base);
            }
        }

        #[test]
        fn position_and_length_are_part_of_the_checksum(
            len in 2usize..4100, seed in 0u64..u64::MAX, a in 0usize..4100, b in 0usize..4100,
        ) {
            let v = payload(len, seed);
            let (a, b) = (a % len, b % len);
            if v[a].to_bits() != v[b].to_bits() {
                let mut swapped = v.clone();
                swapped.swap(a, b);
                prop_assert!(checksum(&swapped) != checksum(&v), "swap {} {}", a, b);
            }
            let mut longer = v.clone();
            longer.push(0.0);
            prop_assert!(checksum(&longer) != checksum(&v));
        }
    }

    #[test]
    fn every_length_up_to_4099_detects_a_flip_in_its_last_and_a_sampled_word() {
        // All tail lengths at every size the trainers send, one sampled
        // bit each (the exhaustive sweep above covers the short ones).
        for len in 1..=4099usize {
            let v = payload(len, 77);
            let base = checksum(&v);
            for word in [len - 1, mix3(len as u64, 1, 2) as usize % len] {
                let bit = mix3(len as u64, word as u64, 3) % 64;
                let mut w = v.clone();
                w[word] = f64::from_bits(w[word].to_bits() ^ (1u64 << bit));
                assert_ne!(checksum(&w), base, "len {len} word {word} bit {bit}");
            }
        }
    }
}
