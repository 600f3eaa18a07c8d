//! Traffic and timing statistics.

use crate::clock::Clock;

/// Per-rank traffic counters (data-plane only; control traffic is
/// counted separately because it is free in virtual time).
///
/// The fault counters are only non-zero when a [`crate::FaultPlan`] is
/// active; all of them are deterministic, because they are incremented
/// only at points whose occurrence is a pure function of the plan and
/// the program (send-side drops; surfaced timeouts, corruptions, and
/// failures — never at the instant a notice happens to be drained from
/// the transport channel, which depends on real-time interleaving).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Number of data messages sent.
    pub msgs_sent: u64,
    /// Total words sent across all data messages.
    pub words_sent: u64,
    /// Number of control messages sent.
    pub ctrl_msgs_sent: u64,
    /// Data messages this rank sent that the fault plan dropped.
    pub msgs_dropped: u64,
    /// Words lost in dropped messages.
    pub words_dropped: u64,
    /// Receive deadlines that expired on this rank.
    pub timeouts: u64,
    /// Receive retries attempted after a timeout.
    pub retries: u64,
    /// Corruptions this rank detected *and repaired in place* (ABFT
    /// single-element GEMM corrections — no checkpoint restore).
    pub corrupt_corrected: u64,
    /// Corruptions this rank detected and escalated to rollback/replay:
    /// envelope-checksum rejections plus uncorrectable ABFT verdicts
    /// and weight-memory audit failures.
    pub corrupt_recovered: u64,
    /// Compute bit flips (GEMM-output SDC) that *fired* on this rank:
    /// landed and moved the product outside its checksums' rounding
    /// envelope ([`crate::Communicator::record_flips_fired`]).
    pub bitflips_compute: u64,
    /// Memory bit flips (resident-weight SDC) the fault plan injected
    /// on this rank. Every one fires: the weight audit compares bits.
    pub bitflips_memory: u64,
    /// Distinct dead peers this rank detected (each counted once).
    pub failures_detected: u64,
    /// Collective abort notices this rank broadcast.
    pub aborts_sent: u64,
    /// Peers the adaptive detector newly flagged *suspect* (φ past the
    /// suspect threshold but under the dead threshold) at a query
    /// point; re-armed each time the peer is heard from again.
    pub suspects_flagged: u64,
    /// Speculative re-requests issued for suspect-but-not-dead peers
    /// after the regular retry schedule was exhausted.
    pub speculative_retries: u64,
    /// Times this rank revived from a scripted death and announced a
    /// rejoin.
    pub rejoins: u64,
    /// Virtual seconds of injected straggler delay absorbed by this
    /// rank's receives.
    pub straggler_wait: f64,
    /// Words written to checkpoints by this rank (recorded by
    /// fault-tolerant trainers via
    /// [`crate::Communicator::record_checkpoint_words`]).
    pub ckpt_words: u64,
    /// Virtual seconds this rank spent in failure recovery
    /// (re-planning, weight redistribution) — excludes replayed
    /// training iterations, which are reported by the trainer.
    pub recovery_secs: f64,
    /// Virtual seconds of transfer charged to this rank's concurrent
    /// comm channel by non-blocking collectives (the communication the
    /// overlap engine *attempted* to hide).
    pub channel_secs: f64,
    /// Virtual seconds the main timeline spent blocked draining
    /// outstanding non-blocking operations (channel work that was
    /// *not* hidden behind compute).
    pub comm_wait_secs: f64,
    /// Virtual seconds of channel transfer that ran concurrently with
    /// the main timeline (channel work that *was* hidden).
    pub overlapped_secs: f64,
    /// Blocking all-reduce calls issued by this rank.
    pub allreduce_calls: u64,
    /// Blocking all-gather calls issued by this rank.
    pub allgather_calls: u64,
    /// Non-blocking all-reduce launches by this rank.
    pub nb_allreduce_calls: u64,
    /// Non-blocking all-gather launches by this rank. No collective in
    /// this workspace launches one (every all-gather blocks), so a run
    /// reads 0; the field keeps the four-way call count's shape.
    pub nb_allgather_calls: u64,
    /// Virtual seconds of pure α–β data transfer charged to this rank's
    /// blocking receives (excludes idle waiting for a sender to reach
    /// its send point, which [`Clock::comm`] folds in). This is the
    /// measured quantity comparable to Eq. 8's analytic per-iteration
    /// communication term.
    pub transfer_secs: f64,
    /// Data messages this rank sent that an active partition severed.
    pub msgs_severed: u64,
    /// Duplicate message copies this rank sent (fault-plan injected).
    pub msgs_duplicated: u64,
    /// Duplicate copies this rank's matching layer absorbed on receive.
    pub dups_absorbed: u64,
    /// Data messages this rank's transport held back for reordering.
    pub msgs_reordered: u64,
    /// Distinct peers this rank resolved as unreachable across a
    /// partition (each counted once per partition episode).
    pub unreachable_detected: u64,
    /// Times this rank parked in a minority fragment (quorum loss).
    pub parks: u64,
}

/// World-level summary returned by [`crate::World::run_with_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldStats {
    /// Per-rank traffic counters, indexed by global rank.
    pub ranks: Vec<RankStats>,
    /// Final virtual clock of each rank.
    pub clocks: Vec<Clock>,
}

/// Maximum over `values`, starting from 0, that **propagates NaN**
/// instead of masking it: `f64::max` silently ignores a NaN operand, so
/// a fold from 0.0 would report a clean 0 for a poisoned run. A NaN in
/// any per-rank statistic makes the aggregate NaN, which the regression
/// tests (and any `assert!(x.is_finite())` downstream) can catch.
fn max_or_nan(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, v| {
        if acc.is_nan() || v.is_nan() {
            f64::NAN
        } else {
            acc.max(v)
        }
    })
}

impl WorldStats {
    /// The makespan: the latest final virtual time across ranks. This is
    /// the quantity the paper's bar charts plot per iteration/epoch.
    pub fn makespan(&self) -> f64 {
        max_or_nan(self.clocks.iter().map(|c| c.now))
    }

    /// Maximum per-rank communication time.
    pub fn max_comm(&self) -> f64 {
        max_or_nan(self.clocks.iter().map(|c| c.comm))
    }

    /// Maximum per-rank compute time.
    pub fn max_compute(&self) -> f64 {
        max_or_nan(self.clocks.iter().map(|c| c.compute))
    }

    /// Total words moved across the whole world (sum over ranks).
    pub fn total_words(&self) -> u64 {
        self.ranks.iter().map(|r| r.words_sent).sum()
    }

    /// Total data messages across the whole world.
    pub fn total_msgs(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total data messages dropped by the fault plan.
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_dropped).sum()
    }

    /// Total receive timeouts surfaced across ranks.
    pub fn total_timeouts(&self) -> u64 {
        self.ranks.iter().map(|r| r.timeouts).sum()
    }

    /// Total receive retries across ranks.
    pub fn total_retries(&self) -> u64 {
        self.ranks.iter().map(|r| r.retries).sum()
    }

    /// Total corruptions detected across ranks, however they were
    /// handled: in-place ABFT corrections plus rollback escalations.
    pub fn total_corrupt_detected(&self) -> u64 {
        self.total_corrupt_corrected() + self.total_corrupt_recovered()
    }

    /// Total corruptions repaired in place (ABFT) across ranks.
    pub fn total_corrupt_corrected(&self) -> u64 {
        self.ranks.iter().map(|r| r.corrupt_corrected).sum()
    }

    /// Total corruptions escalated to rollback/replay across ranks.
    pub fn total_corrupt_recovered(&self) -> u64 {
        self.ranks.iter().map(|r| r.corrupt_recovered).sum()
    }

    /// Total compute bit flips (GEMM-output SDC) injected across ranks.
    pub fn total_bitflips_compute(&self) -> u64 {
        self.ranks.iter().map(|r| r.bitflips_compute).sum()
    }

    /// Total memory bit flips (weight SDC) injected across ranks.
    pub fn total_bitflips_memory(&self) -> u64 {
        self.ranks.iter().map(|r| r.bitflips_memory).sum()
    }

    /// Total distinct (peer, detector) failure detections across ranks.
    pub fn total_failures_detected(&self) -> u64 {
        self.ranks.iter().map(|r| r.failures_detected).sum()
    }

    /// Total abort notices broadcast across ranks.
    pub fn total_aborts(&self) -> u64 {
        self.ranks.iter().map(|r| r.aborts_sent).sum()
    }

    /// Total rank revivals (rejoin announcements) across ranks.
    pub fn total_rejoins(&self) -> u64 {
        self.ranks.iter().map(|r| r.rejoins).sum()
    }

    /// Total data messages severed by partitions across ranks.
    pub fn total_severed(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_severed).sum()
    }

    /// Total distinct unreachable-peer detections across ranks.
    pub fn total_unreachable_detected(&self) -> u64 {
        self.ranks.iter().map(|r| r.unreachable_detected).sum()
    }

    /// Total minority-fragment parks across ranks.
    pub fn total_parks(&self) -> u64 {
        self.ranks.iter().map(|r| r.parks).sum()
    }

    /// Total injected straggler delay absorbed across ranks (virtual s).
    pub fn total_straggler_wait(&self) -> f64 {
        self.ranks.iter().map(|r| r.straggler_wait).sum()
    }

    /// Total words checkpointed across ranks.
    pub fn total_ckpt_words(&self) -> u64 {
        self.ranks.iter().map(|r| r.ckpt_words).sum()
    }

    /// Largest per-rank recovery time (virtual s) — the recovery term
    /// of the makespan.
    pub fn max_recovery_secs(&self) -> f64 {
        max_or_nan(self.ranks.iter().map(|r| r.recovery_secs))
    }

    /// Total seconds spent blocked draining non-blocking operations.
    pub fn total_comm_wait_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.comm_wait_secs).sum()
    }

    /// Total channel transfer seconds hidden behind the main timeline.
    pub fn total_overlapped_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.overlapped_secs).sum()
    }

    /// Largest per-rank drain wait (virtual s).
    pub fn max_comm_wait_secs(&self) -> f64 {
        max_or_nan(self.ranks.iter().map(|r| r.comm_wait_secs))
    }

    /// Total blocking + non-blocking collective calls, by kind:
    /// `(allreduce, allgather, nb_allreduce, nb_allgather)`.
    pub fn total_collective_calls(&self) -> (u64, u64, u64, u64) {
        self.ranks.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.allreduce_calls,
                acc.1 + r.allgather_calls,
                acc.2 + r.nb_allreduce_calls,
                acc.3 + r.nb_allgather_calls,
            )
        })
    }

    /// The *measured* overlap fraction: the share of **channel-executed
    /// transfer time** that was hidden behind compute,
    /// `Σ overlapped / (Σ overlapped + Σ comm_wait)`. The denominator
    /// is exactly the time the non-blocking engine moved: the hidden
    /// part plus the exposed drain waits. Blocking-collective time
    /// deliberately does **not** enter — a run with only blocking
    /// collectives attempted no overlap and reports 0.0, rather than a
    /// spurious mix of hidden seconds against all main-timeline comm.
    /// Compare with the paper's assumed 2/3 backprop fraction (Fig. 8).
    /// Returns 0 when no channel communication happened.
    pub fn measured_overlap_fraction(&self) -> f64 {
        let hidden = self.total_overlapped_secs();
        let exposed = self.total_comm_wait_secs();
        if hidden + exposed <= 0.0 {
            return 0.0;
        }
        hidden / (hidden + exposed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_fault_totals_aggregate() {
        let stats = WorldStats {
            ranks: vec![
                RankStats {
                    msgs_dropped: 1,
                    words_dropped: 8,
                    timeouts: 2,
                    retries: 1,
                    corrupt_recovered: 1,
                    failures_detected: 1,
                    aborts_sent: 1,
                    straggler_wait: 0.25,
                    ckpt_words: 100,
                    recovery_secs: 2.0,
                    ..RankStats::default()
                },
                RankStats {
                    timeouts: 1,
                    straggler_wait: 0.75,
                    ckpt_words: 50,
                    recovery_secs: 3.0,
                    corrupt_corrected: 2,
                    bitflips_compute: 2,
                    bitflips_memory: 1,
                    rejoins: 1,
                    msgs_severed: 3,
                    unreachable_detected: 4,
                    parks: 1,
                    ..RankStats::default()
                },
            ],
            clocks: vec![Clock::default(); 2],
        };
        assert_eq!(stats.total_dropped(), 1);
        assert_eq!(stats.total_rejoins(), 1);
        assert_eq!(stats.total_timeouts(), 3);
        assert_eq!(stats.total_retries(), 1);
        assert_eq!(stats.total_corrupt_corrected(), 2);
        assert_eq!(stats.total_corrupt_recovered(), 1);
        assert_eq!(
            stats.total_corrupt_detected(),
            3,
            "detected = corrected + recovered"
        );
        assert_eq!(stats.total_bitflips_compute(), 2);
        assert_eq!(stats.total_bitflips_memory(), 1);
        assert_eq!(stats.total_failures_detected(), 1);
        assert_eq!(stats.total_aborts(), 1);
        assert!((stats.total_straggler_wait() - 1.0).abs() < 1e-12);
        assert_eq!(stats.total_ckpt_words(), 150);
        assert!((stats.max_recovery_secs() - 3.0).abs() < 1e-12);
        assert_eq!(stats.total_severed(), 3);
        assert_eq!(stats.total_unreachable_detected(), 4);
        assert_eq!(stats.total_parks(), 1);
    }

    #[test]
    fn overlap_counters_aggregate() {
        // `a` holds its own counters plus a copy of `b`'s.
        let a = RankStats {
            channel_secs: 3.0,
            comm_wait_secs: 0.5,
            overlapped_secs: 2.5,
            nb_allreduce_calls: 3,
            allgather_calls: 1,
            nb_allgather_calls: 2,
            allreduce_calls: 4,
            ..RankStats::default()
        };
        let b = RankStats {
            channel_secs: 1.0,
            overlapped_secs: 1.0,
            nb_allgather_calls: 2,
            allreduce_calls: 4,
            ..RankStats::default()
        };
        assert!((a.channel_secs - 3.0).abs() < 1e-12);
        assert!((a.overlapped_secs - 2.5).abs() < 1e-12);
        let stats = WorldStats {
            ranks: vec![a, b],
            clocks: vec![
                Clock {
                    now: 2.0,
                    comm: 1.0,
                    compute: 1.0,
                    ..Clock::default()
                };
                2
            ],
        };
        assert_eq!(stats.total_collective_calls(), (8, 1, 3, 4));
        assert!((stats.total_comm_wait_secs() - 0.5).abs() < 1e-12);
        assert!((stats.max_comm_wait_secs() - 0.5).abs() < 1e-12);
        // hidden = 2.5 + 1.0, exposed = the 0.5 s of drain wait. The
        // ranks' 1.0 s of blocking comm is NOT in the denominator: it
        // was never a candidate for overlap.
        assert!((stats.measured_overlap_fraction() - 3.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn blocking_only_run_reports_zero_overlap_fraction() {
        // Regression for the denominator bugfix: plenty of blocking
        // comm, zero channel traffic → the fraction must be exactly 0,
        // not hidden/(hidden + blocking_comm).
        let stats = WorldStats {
            ranks: vec![
                RankStats {
                    allreduce_calls: 7,
                    ..RankStats::default()
                };
                2
            ],
            clocks: vec![
                Clock {
                    now: 5.0,
                    comm: 4.0,
                    compute: 1.0,
                    ..Clock::default()
                };
                2
            ],
        };
        assert_eq!(stats.measured_overlap_fraction(), 0.0);
    }

    #[test]
    fn nan_in_rank_stats_propagates_to_maxima() {
        // Regression for the NaN-masking bugfix: `f64::max` ignores a
        // NaN operand, so the old fold-from-0.0 reported clean zeros
        // for a poisoned run.
        let poisoned = WorldStats {
            ranks: vec![
                RankStats::default(),
                RankStats {
                    comm_wait_secs: f64::NAN,
                    recovery_secs: f64::NAN,
                    ..RankStats::default()
                },
            ],
            clocks: vec![
                Clock {
                    now: f64::NAN,
                    comm: f64::NAN,
                    compute: f64::NAN,
                    ..Clock::default()
                },
                Clock::default(),
            ],
        };
        assert!(poisoned.makespan().is_nan());
        assert!(poisoned.max_comm().is_nan());
        assert!(poisoned.max_compute().is_nan());
        assert!(poisoned.max_comm_wait_secs().is_nan());
        assert!(poisoned.max_recovery_secs().is_nan());
        // NaN anywhere, even in the first rank, still propagates.
        let first = WorldStats {
            ranks: vec![RankStats::default(); 2],
            clocks: vec![
                Clock {
                    now: f64::NAN,
                    ..Clock::default()
                },
                Clock {
                    now: 3.0,
                    ..Clock::default()
                },
            ],
        };
        assert!(first.makespan().is_nan());
    }

    #[test]
    fn corrupt_envelope_run_yields_finite_stats() {
        // End-to-end regression: a run where the fault plan corrupts a
        // payload (receiver detects and errors) must still produce
        // finite per-rank clocks and finite aggregate maxima — no NaN
        // sneaks in through the corruption path.
        use crate::fault::FaultPlan;
        use crate::netmodel::NetModel;
        use crate::world::World;
        let model = NetModel {
            alpha: 1e-6,
            beta: 1e-9,
            flops: f64::INFINITY,
        };
        let plan = FaultPlan::new(3).corrupt_nth(0, 1, 0);
        let (out, stats) = World::run_with_faults(2, model, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0, 2.0, 3.0]).map(|_| Vec::new())
            } else {
                comm.recv(0, 7)
            }
        });
        assert!(
            matches!(out[1], Err(crate::Error::Corrupted { .. })),
            "receiver detected the corruption"
        );
        assert_eq!(stats.total_corrupt_detected(), 1);
        assert_eq!(
            stats.total_corrupt_recovered(),
            1,
            "an envelope rejection counts as escalated, not corrected"
        );
        assert_eq!(stats.total_corrupt_corrected(), 0);
        for c in &stats.clocks {
            assert!(c.now.is_finite() && c.comm.is_finite() && c.compute.is_finite());
        }
        assert!(stats.makespan().is_finite());
        assert!(stats.max_comm().is_finite());
        assert!(stats.max_comm_wait_secs().is_finite());
        assert!(stats.max_recovery_secs().is_finite());
        assert!(stats.measured_overlap_fraction().is_finite());
    }

    #[test]
    fn makespan_is_max_clock() {
        let stats = WorldStats {
            ranks: vec![RankStats::default(); 2],
            clocks: vec![
                Clock {
                    now: 1.0,
                    comm: 0.5,
                    compute: 0.5,
                    ..Clock::default()
                },
                Clock {
                    now: 3.0,
                    comm: 1.0,
                    compute: 2.0,
                    ..Clock::default()
                },
            ],
        };
        assert_eq!(stats.makespan(), 3.0);
        assert_eq!(stats.max_comm(), 1.0);
        assert_eq!(stats.max_compute(), 2.0);
    }
}
