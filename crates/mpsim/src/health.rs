//! Adaptive failure detection: EWMA latency statistics and a φ-accrual
//! suspicion level per peer.
//!
//! Fixed receive timeouts force one global constant to cover both a
//! 2 µs-α intra-rack link and a straggling wide-area hop. The accrual
//! detector of Hayashibara et al. instead outputs a *suspicion level*
//!
//! ```text
//! φ(t) = −log₁₀ P(no message by t | history)
//! ```
//!
//! where the history is summarized by exponentially-weighted moving
//! estimates of the mean and variance of (a) inter-arrival gaps (for φ)
//! and (b) observed receive waits (for per-peer deadlines). Callers pick
//! thresholds, not timeouts: `φ ≥ phi_suspect` marks a peer *suspect*
//! (worth a speculative re-request), `φ ≥ phi_dead` presumes it dead.
//!
//! **Determinism.** All samples are *virtual-clock* durations taken at
//! message-consumption points — never at the instant an envelope happens
//! to be drained from the transport channel, which depends on OS
//! scheduling. A replayed run therefore feeds the detector bit-identical
//! samples and reaches bit-identical verdicts.

use crate::netmodel::NetModel;

/// Tuning knobs of the adaptive detector, typically derived from the
/// network model via [`DetectorConfig::from_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// EWMA weight of the newest sample (0 < w ≤ 1).
    pub ewma_weight: f64,
    /// Samples required before the detector emits verdicts; until then
    /// callers fall back to their fixed deadline.
    pub min_samples: u32,
    /// φ at or above which a peer is *suspect* (speculation territory).
    pub phi_suspect: f64,
    /// φ at or above which a peer is *presumed dead*.
    pub phi_dead: f64,
    /// Learned deadlines are `mean + deadline_sigmas · σ`.
    pub deadline_sigmas: f64,
    /// Lower clamp on learned deadlines (a few α: no deadline can be
    /// shorter than the latency floor of the network itself).
    pub floor: f64,
    /// Upper clamp on learned deadlines.
    pub cap: f64,
}

impl DetectorConfig {
    /// Sane defaults derived from the α–β network model: the deadline
    /// floor is a small multiple of the message latency α.
    pub fn from_model(m: &NetModel) -> Self {
        let alpha = if m.alpha > 0.0 { m.alpha } else { 1e-9 };
        DetectorConfig {
            ewma_weight: 0.15,
            min_samples: 4,
            phi_suspect: 1.0,
            phi_dead: 8.0,
            deadline_sigmas: 4.0,
            floor: 4.0 * alpha,
            cap: f64::INFINITY,
        }
    }
}

/// Exponentially-weighted moving mean and variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ewma {
    weight: f64,
    mean: f64,
    var: f64,
    n: u32,
}

impl Ewma {
    /// An empty estimator with the given newest-sample weight.
    pub fn new(weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight <= 1.0,
            "EWMA weight must be in (0, 1]"
        );
        Ewma {
            weight,
            ..Ewma::default()
        }
    }

    /// Folds one sample in (West's EWMA variance update).
    pub fn observe(&mut self, x: f64) {
        self.n = self.n.saturating_add(1);
        if self.n == 1 {
            self.mean = x;
            self.var = 0.0;
            return;
        }
        let d = x - self.mean;
        self.mean += self.weight * d;
        self.var = (1.0 - self.weight) * (self.var + self.weight * d * d);
    }

    /// Current mean estimate (0 before any sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current standard-deviation estimate.
    pub fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// Number of samples folded in.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether no sample has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    /// Virtual time this peer was last heard from.
    last_heard: Option<f64>,
    /// Inter-arrival gaps between consecutive messages (drives φ).
    gaps: Ewma,
    /// Observed receive waits (drives the learned per-peer deadline).
    waits: Ewma,
    /// Whether the peer has already been flagged suspect (so the first
    /// flagging of each peer can be counted exactly once).
    suspected: bool,
}

impl PeerHealth {
    fn new(weight: f64) -> Self {
        PeerHealth {
            last_heard: None,
            gaps: Ewma::new(weight),
            waits: Ewma::new(weight),
            suspected: false,
        }
    }
}

/// Per-peer health state for one rank: feeds on consumption-point
/// samples, answers φ and learned-deadline queries.
///
/// Storage is sparse: state materializes only for peers actually heard
/// from (or explicitly flagged). A rank talks to O(log P) or O(√P)
/// peers under the collectives here, so the dense per-rank `Vec` this
/// replaces — P entries × P ranks = O(P²) aggregate, ~378 GB at
/// P = 65536 — becomes O(peers actually observed). An absent entry is
/// observationally identical to a fresh one: every read path treats
/// missing in-range peers as `PeerHealth::new`.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: DetectorConfig,
    /// World size: peers at or above this index are ignored, matching
    /// the bounds-checking of the dense representation.
    size: usize,
    peers: std::collections::BTreeMap<usize, PeerHealth>,
}

impl HealthMonitor {
    /// A monitor over `peers` global ranks.
    pub fn new(cfg: DetectorConfig, peers: usize) -> Self {
        HealthMonitor {
            cfg,
            size: peers,
            peers: std::collections::BTreeMap::new(),
        }
    }

    /// The detector configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// In-range lookup for reads: a copy of the peer's state, fresh if
    /// never touched (`PeerHealth` is `Copy`); `None` out of range.
    fn peek(&self, peer: usize) -> Option<PeerHealth> {
        if peer >= self.size {
            return None;
        }
        Some(
            self.peers
                .get(&peer)
                .copied()
                .unwrap_or_else(|| PeerHealth::new(self.cfg.ewma_weight)),
        )
    }

    /// In-range lookup for writes: materializes the entry on demand.
    fn entry(&mut self, peer: usize) -> Option<&mut PeerHealth> {
        if peer >= self.size {
            return None;
        }
        let w = self.cfg.ewma_weight;
        Some(self.peers.entry(peer).or_insert_with(|| PeerHealth::new(w)))
    }

    /// Records that `peer` was heard from at virtual time `now`
    /// (message consumed); consecutive calls feed the gap statistics.
    pub fn heard(&mut self, peer: usize, now: f64) {
        let Some(p) = self.entry(peer) else {
            return;
        };
        if let Some(last) = p.last_heard {
            let gap = now - last;
            if gap >= 0.0 {
                p.gaps.observe(gap);
            }
        }
        p.last_heard = Some(now);
        p.suspected = false;
    }

    /// Records an observed receive wait (virtual seconds from posting
    /// the receive to data delivery) from `peer`.
    pub fn observed_wait(&mut self, peer: usize, secs: f64) {
        if peer < self.size && secs >= 0.0 {
            if let Some(p) = self.entry(peer) {
                p.waits.observe(secs);
            }
        }
    }

    /// The φ-accrual suspicion level of `peer` at virtual time `now`,
    /// or `None` until [`DetectorConfig::min_samples`] gaps have been
    /// observed (callers should fall back to fixed policies).
    pub fn phi(&self, peer: usize, now: f64) -> Option<f64> {
        let p = self.peek(peer)?;
        let last = p.last_heard?;
        if p.gaps.len() < self.cfg.min_samples {
            return None;
        }
        let elapsed = (now - last).max(0.0);
        let mean = p.gaps.mean();
        // σ floor: a metronomically regular peer must not produce a
        // zero-width distribution (any lateness would be φ = ∞).
        let std = p.gaps.std().max(0.1 * mean.abs()).max(1e-12);
        let z = (elapsed - mean) / std;
        let p_later = (0.5 * erfc(z / std::f64::consts::SQRT_2)).max(1e-300);
        Some(-p_later.log10())
    }

    /// The learned per-peer receive deadline — `mean + k·σ` of observed
    /// waits, clamped to `[floor, cap]` — or `None` until enough
    /// samples exist.
    pub fn deadline(&self, peer: usize) -> Option<f64> {
        let p = self.peek(peer)?;
        if p.waits.len() < self.cfg.min_samples {
            return None;
        }
        let spread = p.waits.std().max(0.1 * p.waits.mean().abs());
        let d = p.waits.mean() + self.cfg.deadline_sigmas * spread;
        Some(d.clamp(self.cfg.floor, self.cfg.cap).max(1e-12))
    }

    /// The elapsed-silence threshold (`mean + k·σ` of inter-arrival
    /// gaps) below which a slow peer is, by construction, never
    /// presumed dead: at `elapsed = gap_deadline`, `z = k` and with the
    /// default `k = 4` the accrual level is ≈ 4.5 — far under
    /// [`DetectorConfig::phi_dead`].
    pub fn gap_deadline(&self, peer: usize) -> Option<f64> {
        let p = self.peek(peer)?;
        if p.gaps.len() < self.cfg.min_samples {
            return None;
        }
        let spread = p.gaps.std().max(0.1 * p.gaps.mean().abs());
        Some(p.gaps.mean() + self.cfg.deadline_sigmas * spread)
    }

    /// Marks `peer` suspect; returns `true` on the first flagging since
    /// it was last heard from (so callers can count transitions).
    pub fn mark_suspect(&mut self, peer: usize) -> bool {
        match self.entry(peer) {
            Some(p) if !p.suspected => {
                p.suspected = true;
                true
            }
            _ => false,
        }
    }

    /// Number of gap samples observed for `peer`.
    pub fn gap_samples(&self, peer: usize) -> u32 {
        self.peek(peer).map_or(0, |p| p.gaps.len())
    }

    /// Forgets everything about `peer` (on re-admission after a rejoin:
    /// pre-death statistics do not describe the revived process).
    /// A removed entry is indistinguishable from a fresh one.
    pub fn reset(&mut self, peer: usize) {
        self.peers.remove(&peer);
    }
}

/// How the per-receive deadline of a guarded communicator is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deadline {
    /// A fixed deadline in virtual seconds, identical for every peer.
    Fixed(f64),
    /// Per-peer deadlines learned by the adaptive failure detector
    /// (mean + k·σ of observed receive waits, see [`HealthMonitor`]),
    /// falling back to `fallback` until enough samples exist for a peer.
    Adaptive {
        /// Deadline used while the detector lacks samples.
        fallback: f64,
    },
}

impl Deadline {
    /// The deadline for a receive from global rank `peer`, given what
    /// `health` has learned about it.
    pub(crate) fn resolve(&self, health: &HealthMonitor, peer: usize) -> f64 {
        match *self {
            Deadline::Fixed(t) => t,
            Deadline::Adaptive { fallback } => health.deadline(peer).unwrap_or(fallback),
        }
    }

    /// The deadline used when no peer statistics are available.
    pub fn fallback(&self) -> f64 {
        match *self {
            Deadline::Fixed(t) | Deadline::Adaptive { fallback: t } => t,
        }
    }
}

/// The fault policy of a guarded communicator
/// ([`Communicator::guarded`](crate::Communicator::guarded), which says
/// how each kind of receive applies it).
///
/// Prefer deriving one from the network model
/// ([`FtConfig::for_model`], [`FtConfig::adaptive`]) over hard-coding
/// seconds: a deadline that is generous on one α–β point is a hair
/// trigger on another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtConfig {
    /// Deadline policy for each receive attempt.
    pub deadline: Deadline,
    /// Total receive attempts per message (≥ 1).
    pub attempts: usize,
    /// Base backoff (virtual seconds) before the second attempt.
    pub backoff: f64,
    /// Multiplicative backoff growth per retry (1.0 = constant).
    pub backoff_factor: f64,
    /// Jitter fraction in `[0, 1]` stretching each backoff pause by a
    /// deterministic per-(link, retry) draw.
    pub jitter: f64,
    /// After the retry schedule is exhausted by timeouts, issue one
    /// speculative re-request with an extended window if the detector
    /// ranks the peer *suspect but not presumed dead* (straggler
    /// mitigation).
    pub speculative: bool,
}

impl FtConfig {
    /// A single-attempt policy with a fixed per-receive deadline.
    pub fn fixed(timeout: f64) -> Self {
        assert!(timeout > 0.0, "timeout must be positive");
        FtConfig {
            deadline: Deadline::Fixed(timeout),
            attempts: 1,
            backoff: 0.0,
            backoff_factor: 1.0,
            jitter: 0.0,
            speculative: false,
        }
    }

    /// A policy derived from the α–β network model: the deadline is a
    /// generous multiple of the point-to-point time of a
    /// `words_hint`-word message (so only genuine faults trip it), with
    /// three attempts under exponential, jittered backoff starting at a
    /// few α.
    pub fn for_model(m: &NetModel, words_hint: usize) -> Self {
        let t = (64.0 * m.ptp(words_hint)).max(1e-9);
        FtConfig {
            deadline: Deadline::Fixed(t),
            attempts: 3,
            backoff: (4.0 * m.alpha).max(1e-12),
            backoff_factor: 2.0,
            jitter: 0.25,
            speculative: false,
        }
    }

    /// Like [`FtConfig::for_model`], but with per-peer deadlines
    /// learned by the adaptive failure detector (the model-derived
    /// value is only the cold-start fallback) and speculative
    /// re-requests for suspect peers enabled.
    pub fn adaptive(m: &NetModel, words_hint: usize) -> Self {
        let base = FtConfig::for_model(m, words_hint);
        FtConfig {
            deadline: Deadline::Adaptive {
                fallback: base.deadline.fallback(),
            },
            speculative: true,
            ..base
        }
    }

    /// Sets the number of attempts per receive.
    pub fn with_attempts(mut self, attempts: usize) -> Self {
        assert!(attempts >= 1, "need at least one attempt");
        self.attempts = attempts;
        self
    }

    /// Sets the base backoff between attempts.
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        assert!(backoff >= 0.0, "backoff must be non-negative");
        self.backoff = backoff;
        self
    }
}

/// Split-brain-safe quorum rule for partitioned membership.
///
/// A fragment `F` of the last-agreed membership `M` has quorum iff it
/// holds a strict majority of `M` — `2·|F ∩ M| > |M|` — with a
/// deterministic tie-break for an exact 50/50 split: the fragment
/// containing the lowest-numbered member of `M` wins. At most one
/// fragment can satisfy the rule, so at most one side of any partition
/// keeps updating weights (single writer); every other fragment parks.
///
/// Both slices are sets of global ranks; neither needs to be sorted.
/// An empty membership has no quorum.
pub fn has_quorum(fragment: &[usize], membership: &[usize]) -> bool {
    if membership.is_empty() {
        return false;
    }
    let in_both = membership.iter().filter(|g| fragment.contains(g)).count();
    if 2 * in_both > membership.len() {
        return true;
    }
    if 2 * in_both == membership.len() {
        // Exact tie: lowest-numbered member of M breaks it.
        let lowest = membership.iter().min().expect("non-empty membership");
        return fragment.contains(lowest);
    }
    false
}

/// Complementary error function, Abramowitz–Stegun 7.1.26 (|ε| ≤
/// 1.5e-7): plenty for suspicion levels, and dependency-free.
fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * ax);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let e = poly * (-ax * ax).exp();
    if x >= 0.0 {
        e
    } else {
        2.0 - e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig::from_model(&NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        })
    }

    #[test]
    fn ewma_tracks_mean_and_spread() {
        let mut e = Ewma::new(0.5);
        assert!(e.is_empty());
        for _ in 0..20 {
            e.observe(2.0);
        }
        assert!((e.mean() - 2.0).abs() < 1e-12);
        assert!(e.std() < 1e-6, "constant stream has no spread");
        e.observe(10.0);
        assert!(e.mean() > 2.0);
        assert!(e.std() > 0.0);
        assert_eq!(e.len(), 21);
    }

    #[test]
    fn phi_needs_min_samples_then_grows_with_silence() {
        let mut h = HealthMonitor::new(cfg(), 2);
        assert_eq!(h.phi(1, 0.0), None, "no data yet");
        // Regular 1 s heartbeat.
        for k in 0..10 {
            h.heard(1, k as f64);
        }
        let on_time = h.phi(1, 9.5).unwrap();
        let late = h.phi(1, 13.0).unwrap();
        let very_late = h.phi(1, 60.0).unwrap();
        assert!(on_time < 1.0, "on-schedule peer is unsuspicious: {on_time}");
        assert!(late > on_time);
        assert!(very_late > h.config().phi_dead, "long silence: {very_late}");
    }

    #[test]
    fn slow_but_steady_peer_stays_below_dead_threshold() {
        // A peer that is *slow* (10 s gaps) but regular must never be
        // presumed dead while its silence stays below the learned gap
        // deadline.
        let mut h = HealthMonitor::new(cfg(), 1);
        for k in 0..30 {
            h.heard(0, 10.0 * k as f64);
        }
        let last = 290.0;
        let dl = h.gap_deadline(0).unwrap();
        assert!(dl >= 10.0, "deadline at least the typical gap: {dl}");
        let phi = h.phi(0, last + dl).unwrap();
        assert!(
            phi < h.config().phi_dead,
            "φ = {phi} at the learned deadline must stay below dead"
        );
    }

    #[test]
    fn learned_deadline_clamps_to_floor() {
        let mut h = HealthMonitor::new(cfg(), 1);
        for _ in 0..10 {
            h.observed_wait(0, 1e-6); // far below 4·α floor
        }
        assert_eq!(h.deadline(0), Some(4.0), "clamped to 4·α");
    }

    #[test]
    fn deadline_follows_observed_waits() {
        let mut h = HealthMonitor::new(cfg(), 1);
        for _ in 0..50 {
            h.observed_wait(0, 100.0);
        }
        let d = h.deadline(0).unwrap();
        assert!(d >= 100.0, "deadline covers the typical wait: {d}");
        assert!(d <= 200.0, "but is not absurdly padded: {d}");
    }

    #[test]
    fn suspect_flag_latches_until_heard() {
        let mut h = HealthMonitor::new(cfg(), 1);
        assert!(h.mark_suspect(0), "first flagging counts");
        assert!(!h.mark_suspect(0), "second does not");
        h.heard(0, 1.0);
        assert!(h.mark_suspect(0), "hearing from the peer re-arms");
    }

    #[test]
    fn reset_forgets_history() {
        let mut h = HealthMonitor::new(cfg(), 1);
        for k in 0..10 {
            h.heard(0, k as f64);
        }
        assert!(h.phi(0, 100.0).is_some());
        h.reset(0);
        assert_eq!(h.phi(0, 100.0), None);
        assert_eq!(h.gap_samples(0), 0);
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 1e-6);
    }

    #[test]
    fn model_derived_policies_scale_with_the_network() {
        let m = NetModel {
            alpha: 1e-3,
            beta: 1e-6,
            flops: f64::INFINITY,
        };
        let c = FtConfig::for_model(&m, 1000);
        assert_eq!(c.deadline, Deadline::Fixed(64.0 * (1e-3 + 1e-6 * 1000.0)));
        assert_eq!(c.attempts, 3);
        assert!((c.backoff - 4e-3).abs() < 1e-15);
        assert_eq!(c.backoff_factor, 2.0);
        assert!(c.jitter > 0.0 && !c.speculative);
        let a = FtConfig::adaptive(&m, 1000);
        assert_eq!(
            a.deadline,
            Deadline::Adaptive {
                fallback: c.deadline.fallback()
            }
        );
        assert!(a.speculative);
    }

    #[test]
    fn phi_with_zero_or_one_sample_is_none() {
        let mut h = HealthMonitor::new(cfg(), 2);
        // Zero samples: never heard from at all.
        assert_eq!(h.phi(0, 1e9), None);
        // One heard() call records a timestamp but zero gaps.
        h.heard(0, 1.0);
        assert_eq!(h.gap_samples(0), 0);
        assert_eq!(h.phi(0, 1e9), None, "one observation yields no gaps");
        // A second call gives one gap — still below min_samples (4).
        h.heard(0, 2.0);
        assert_eq!(h.gap_samples(0), 1);
        assert_eq!(h.phi(0, 1e9), None, "1 gap < min_samples");
        // Out-of-range peer index never panics.
        assert_eq!(h.phi(99, 0.0), None);
    }

    #[test]
    fn ewma_deadline_tracks_monotone_increasing_gaps() {
        // Gaps grow 1, 2, 3, …: the learned gap deadline must keep up
        // with the growth (stay above the latest gap) instead of
        // freezing on early history.
        let mut h = HealthMonitor::new(cfg(), 1);
        let mut t = 0.0;
        let mut last_gap = 0.0;
        for k in 1..=30 {
            last_gap = k as f64;
            t += last_gap;
            h.heard(0, t);
        }
        let dl = h.gap_deadline(0).unwrap();
        assert!(
            dl > last_gap,
            "deadline {dl} must exceed the newest gap {last_gap}"
        );
        // And the peer is not presumed dead right at the next expected
        // arrival despite the drift.
        let phi = h.phi(0, t + last_gap).unwrap();
        assert!(phi < h.config().phi_dead, "φ = {phi} at one more gap");
    }

    #[test]
    fn quorum_requires_strict_majority() {
        let m = [0, 1, 2, 3, 4];
        assert!(has_quorum(&[0, 1, 2], &m));
        assert!(has_quorum(&[2, 3, 4], &m));
        assert!(!has_quorum(&[3, 4], &m));
        assert!(!has_quorum(&[], &m));
        // Ranks outside the membership don't help.
        assert!(!has_quorum(&[7, 8, 9, 3, 4], &m));
    }

    #[test]
    fn quorum_tie_breaks_on_lowest_member() {
        let m = [0, 1, 2, 3, 4, 5];
        // Exact 3–3 split: the side holding rank 0 wins.
        assert!(has_quorum(&[0, 2, 4], &m));
        assert!(!has_quorum(&[1, 3, 5], &m));
        // Membership need not start at 0: lowest member of M decides.
        let m2 = [3, 4, 5, 6];
        assert!(has_quorum(&[3, 4], &m2));
        assert!(!has_quorum(&[5, 6], &m2));
    }

    #[test]
    fn quorum_of_empty_membership_is_never_granted() {
        assert!(!has_quorum(&[0, 1], &[]));
        assert!(!has_quorum(&[], &[]));
    }

    #[test]
    fn at_most_one_fragment_holds_quorum() {
        // Any 2-way split of any membership: exactly one side may win.
        let m: Vec<usize> = (0..7).collect();
        for mask in 0u32..(1 << 7) {
            let a: Vec<usize> = (0..7).filter(|&b| mask & (1 << b) != 0).collect();
            let b: Vec<usize> = (0..7).filter(|&b| mask & (1 << b) == 0).collect();
            let wins = has_quorum(&a, &m) as u32 + has_quorum(&b, &m) as u32;
            assert_eq!(wins, 1, "split {a:?} / {b:?} must crown exactly one side");
        }
    }
}
