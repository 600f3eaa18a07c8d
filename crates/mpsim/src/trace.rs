//! Per-rank event tracing with virtual-time-stamped spans.
//!
//! Every rank owns a [`Tracer`]: a bounded ring buffer of
//! [`TraceEvent`]s recorded at the *virtual* times of the simulation
//! (never wall-clock). Because each rank's `Inner` state is owned by
//! exactly one OS thread, the buffer needs no locks — "lock-free" the
//! easy way: there is nothing to contend on.
//!
//! Two timelines per rank mirror the clock model ([`crate::Clock`]):
//!
//! * [`Track::Main`] — the rank's main timeline (`now = comm +
//!   compute`). Spans on it never overlap: the clock is monotone and
//!   every span covers a contiguous `[t0, t1]` advance of `now`.
//! * [`Track::Channel`] — the concurrent comm channel
//!   (`Clock::comm_busy`). Transfers serialize against each other (one
//!   NIC), so channel spans are likewise non-overlapping, but they run
//!   concurrently with main-track spans — that concurrency *is* the
//!   measured overlap.
//!
//! ## Event taxonomy
//!
//! Leaf categories partition main-timeline time and carry the exact
//! accounting the simulator charges:
//!
//! | cat        | names                                   | meaning |
//! |------------|-----------------------------------------|---------|
//! | `compute`  | `compute`                               | local FLOPs / explicit compute |
//! | `comm`     | `recv`, `wait`, `timeout`, `backoff`, `sync`, `death_sync` | blocking main-timeline communication |
//! | `drain`    | `drain`                                 | exposed wait on the comm channel; `args`: `charged`, `hidden` |
//! | `fault`    | `dead_gap` (span), `died`/`peer_dead`/`rejoin` (instants) | fault-injection effects |
//! | `channel`  | `xfer`                                  | channel-track transfer spans |
//!
//! Scope categories (`collective`, `nb`, `trainer`) are nested guard
//! spans emitted by the `collectives` crate and the trainers via
//! [`crate::Communicator::trace_span`]; they wrap leaf spans and carry
//! context (`p`, `words`, `chunk`, `layer`, …) without double-counting
//! time.
//!
//! The `sched` category holds the bucket scheduler's zero-duration
//! instants — `bucket_flush` (a gradient bucket launched its row-group
//! all-reduce; args: `words`, `min_layer`, `max_layer`, `pending`) and
//! `progress_poll` (a backward-loop poll point drove one chunk step;
//! args: `pending`) — markers on the main timeline that never enter the
//! leaf-time partition.
//!
//! ## Exactness invariants
//!
//! The drain events accumulate the *same* floating-point values, in the
//! same order, as [`crate::RankStats`], so for every rank:
//!
//! * `Σ dur(drain)`      == `RankStats::comm_wait_secs` (bit-exact),
//! * `Σ drain.hidden`    == `RankStats::overlapped_secs` (bit-exact),
//! * `max t1` over spans == the rank's final `Clock::now` — every
//!   clock-advancing operation emits a span ending at the new `now`.
//!
//! The `trace_analyze` bench bin cross-checks all three to 1e-9.
//!
//! ## Drop policy
//!
//! The ring buffer keeps the **newest** `cap` events: when full, the
//! oldest event is evicted and counted in [`RankTrace::dropped`].
//! Keeping the tail preserves the `max t1` makespan invariant and the
//! most recent window of activity — the part a timeline viewer needs
//! when a run misbehaves at the end. The accounting invariants above
//! are only guaranteed when `dropped == 0` (raise the cap).
//!
//! Tracing is opt-in ([`TraceConfig::enabled`]) and adds **zero
//! overhead to the virtual clock**: no trace call ever reads or writes
//! a [`crate::Clock`] — timestamps are passed in by the already-updated
//! call sites, and with tracing disabled every record call is a single
//! branch on a bool.

use std::collections::VecDeque;

/// Default ring-buffer capacity (events per rank).
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// Which per-rank timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The main timeline (`Clock::now`).
    Main,
    /// The concurrent comm channel (`Clock::comm_busy`).
    Channel,
}

/// How an event extends in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span `[t0, t1]` (Chrome phase `"X"`).
    Span,
    /// A point event at `t0 == t1` (Chrome phase `"i"`).
    Instant,
}

/// One virtual-time-stamped event on a rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Category (see the module docs for the taxonomy).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Timeline the event lives on.
    pub track: Track,
    /// Span or instant.
    pub kind: EventKind,
    /// Start virtual time (seconds).
    pub t0: f64,
    /// End virtual time (seconds); equals `t0` for instants.
    pub t1: f64,
    /// Nesting depth at record time (0 = top level). Leaf events
    /// emitted inside guard spans have depth ≥ 1.
    pub depth: u32,
    /// Numeric annotations (`words`, `peer`, `chunk`, `charged`, …).
    pub args: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// Span duration in virtual seconds (0 for instants).
    #[inline]
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Looks up a numeric annotation by key.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// A span opened by [`Tracer::begin`] and not yet closed.
#[derive(Debug, Clone)]
struct OpenSpan {
    cat: &'static str,
    name: &'static str,
    t0: f64,
    args: Vec<(&'static str, f64)>,
}

/// Configuration for per-rank tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events at all. `false` makes every trace call a no-op.
    pub enabled: bool,
    /// Ring-buffer capacity in events per rank (oldest evicted first).
    pub cap: usize,
}

impl TraceConfig {
    /// Tracing on, with the default per-rank capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            cap: DEFAULT_TRACE_CAP,
        }
    }

    /// Tracing off (the default): zero clock overhead, no allocation.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            cap: 0,
        }
    }

    /// Overrides the ring-buffer capacity.
    pub fn with_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "trace capacity must be positive");
        self.cap = cap;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Per-rank event recorder: a bounded ring buffer plus the stack of
/// open guard spans. Owned by the rank's thread — no locks.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    open: Vec<OpenSpan>,
}

impl Tracer {
    /// Builds a tracer from a config.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            enabled: cfg.enabled,
            cap: if cfg.enabled { cfg.cap.max(1) } else { 0 },
            events: VecDeque::new(),
            dropped: 0,
            open: Vec::new(),
        }
    }

    /// A disabled tracer (every call is a no-op).
    pub fn disabled() -> Self {
        Tracer::new(TraceConfig::disabled())
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Records a complete span on a track.
    pub fn span(
        &mut self,
        cat: &'static str,
        name: &'static str,
        track: Track,
        t0: f64,
        t1: f64,
        args: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(t0.is_finite() && t1.is_finite(), "non-finite span time");
        debug_assert!(t1 >= t0, "span ends before it starts");
        let depth = self.open.len() as u32;
        self.push(TraceEvent {
            cat,
            name,
            track,
            kind: EventKind::Span,
            t0,
            t1,
            depth,
            args: args.to_vec(),
        });
    }

    /// Records a point event.
    pub fn instant(
        &mut self,
        cat: &'static str,
        name: &'static str,
        t: f64,
        args: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(t.is_finite(), "non-finite instant time");
        let depth = self.open.len() as u32;
        self.push(TraceEvent {
            cat,
            name,
            track: Track::Main,
            kind: EventKind::Instant,
            t0: t,
            t1: t,
            depth,
            args: args.to_vec(),
        });
    }

    /// Opens a nested guard span at `t0`; close with [`Tracer::end`].
    /// Guard spans live on the main track.
    pub fn begin(
        &mut self,
        cat: &'static str,
        name: &'static str,
        t0: f64,
        args: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        self.open.push(OpenSpan {
            cat,
            name,
            t0,
            args: args.to_vec(),
        });
    }

    /// Closes the innermost open guard span at `t1`.
    pub fn end(&mut self, t1: f64) {
        if !self.enabled {
            return;
        }
        let Some(open) = self.open.pop() else {
            debug_assert!(false, "Tracer::end without matching begin");
            return;
        };
        let depth = self.open.len() as u32;
        // The clock is monotone, but be defensive: a span never ends
        // before it starts.
        let t1 = t1.max(open.t0);
        self.push(TraceEvent {
            cat: open.cat,
            name: open.name,
            track: Track::Main,
            kind: EventKind::Span,
            t0: open.t0,
            t1,
            depth,
            args: open.args,
        });
    }

    /// Consumes the tracer into a [`RankTrace`], force-closing any
    /// still-open guard spans at `now` (counted in
    /// [`RankTrace::unclosed`]; with the RAII guard API this stays 0
    /// even on error paths).
    pub fn finish(&mut self, rank: usize, now: f64) -> RankTrace {
        let unclosed = self.open.len() as u64;
        while !self.open.is_empty() {
            self.end(now);
        }
        RankTrace {
            rank,
            events: std::mem::take(&mut self.events).into(),
            dropped: self.dropped,
            unclosed,
        }
    }
}

/// The finished trace of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// Global rank the events belong to.
    pub rank: usize,
    /// Events in record order (spans are recorded when they *close*,
    /// so a parent guard span appears after its children).
    pub events: Vec<TraceEvent>,
    /// Events evicted by the ring buffer (oldest-first).
    pub dropped: u64,
    /// Guard spans force-closed at [`Tracer::finish`] (0 in well-formed
    /// programs — the RAII guards close on drop, even under `?`).
    pub unclosed: u64,
}

/// Leaf categories that partition main-timeline time (scope spans like
/// `collective`/`trainer` wrap these without double-counting).
pub const LEAF_CATS: [&str; 4] = ["compute", "comm", "drain", "fault"];

impl RankTrace {
    /// Latest event end time — with full instrumentation this equals
    /// the rank's final `Clock::now` (its contribution to the
    /// makespan).
    pub fn end_time(&self) -> f64 {
        self.events.iter().map(|e| e.t1).fold(0.0, f64::max)
    }

    /// Exposed drain wait reconstructed from the trace; bit-exact equal
    /// to [`crate::RankStats::comm_wait_secs`] when nothing was
    /// dropped.
    pub fn comm_wait_secs(&self) -> f64 {
        // `+ 0.0` normalizes the empty-sum identity (-0.0) to +0.0,
        // matching the stats accumulators; it is exact for every other
        // value.
        self.events
            .iter()
            .filter(|e| e.cat == "drain")
            .map(|e| e.dur())
            .sum::<f64>()
            + 0.0
    }

    /// Hidden channel seconds reconstructed from the trace; bit-exact
    /// equal to [`crate::RankStats::overlapped_secs`] when nothing was
    /// dropped.
    pub fn overlapped_secs(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.cat == "drain")
            .map(|e| e.arg("hidden").unwrap_or(0.0))
            .sum::<f64>()
            + 0.0
    }

    /// Channel-track transfer seconds reconstructed from the trace.
    pub fn channel_secs(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.track == Track::Channel)
            .map(|e| e.dur())
            .sum::<f64>()
            + 0.0
    }

    /// How many instants with the given category and name were
    /// recorded (e.g. `("sched", "bucket_flush")`,
    /// `("sched", "progress_poll")`, `("nb", "chunk_step")`).
    pub fn instant_count(&self, cat: &str, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.cat == cat && e.name == name)
            .count()
    }

    /// Main-timeline seconds per leaf category, in [`LEAF_CATS`] order.
    /// The sum over categories reconstructs the rank's final `now`.
    pub fn breakdown(&self) -> Vec<(&'static str, f64)> {
        LEAF_CATS
            .iter()
            .map(|&cat| {
                let total: f64 = self
                    .events
                    .iter()
                    .filter(|e| e.cat == cat && e.track == Track::Main)
                    .map(|e| e.dur())
                    .sum::<f64>()
                    + 0.0;
                (cat, total)
            })
            .collect()
    }
}

/// All ranks' traces from one [`crate::World`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldTrace {
    /// Per-rank traces in rank order.
    pub ranks: Vec<RankTrace>,
}

impl WorldTrace {
    /// Makespan reconstructed from the trace alone.
    pub fn makespan(&self) -> f64 {
        self.ranks.iter().map(|r| r.end_time()).fold(0.0, f64::max)
    }

    /// Total recorded events across ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Total ring-buffer evictions across ranks.
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped).sum()
    }
}

/// Exporter: Chrome Trace Event JSON (Perfetto / `chrome://tracing`)
/// and a compact per-rank summary table.
pub struct TraceSink<'a> {
    trace: &'a WorldTrace,
}

/// Minimal JSON string escaping (names are static identifiers, but the
/// exporter never trusts that).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<'a> TraceSink<'a> {
    /// Wraps a finished world trace for export.
    pub fn new(trace: &'a WorldTrace) -> Self {
        TraceSink { trace }
    }

    /// Serializes the trace in Chrome Trace Event JSON ("JSON object
    /// format": `{"traceEvents": [...]}`).
    ///
    /// Mapping: `pid` = rank, `tid` 0 = main timeline, `tid` 1 = comm
    /// channel; virtual seconds × 1e6 → the format's microsecond `ts`.
    /// Spans use phase `"X"` (complete events), instants phase `"i"`
    /// with thread scope. Metadata events name each process/thread.
    /// The workspace links no JSON library, so the JSON is written by
    /// hand (same convention as the bench bins).
    pub fn chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        for r in &self.trace.ranks {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"rank {}\"}}}}",
                    r.rank, r.rank
                ),
                &mut out,
            );
            for (tid, tname) in [(0, "main"), (1, "channel")] {
                emit(
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\
                         \"args\":{{\"name\":\"{tname}\"}}}}",
                        r.rank
                    ),
                    &mut out,
                );
            }
            for e in &r.events {
                let tid = match e.track {
                    Track::Main => 0,
                    Track::Channel => 1,
                };
                let ts = e.t0 * 1e6;
                let mut line = format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{tid},\"ts\":{ts}",
                    json_escape(e.name),
                    json_escape(e.cat),
                    r.rank
                );
                match e.kind {
                    EventKind::Span => {
                        let _ = write!(line, ",\"ph\":\"X\",\"dur\":{}", e.dur() * 1e6);
                    }
                    EventKind::Instant => line.push_str(",\"ph\":\"i\",\"s\":\"t\""),
                }
                if !e.args.is_empty() {
                    line.push_str(",\"args\":{");
                    for (i, (k, v)) in e.args.iter().enumerate() {
                        if i > 0 {
                            line.push(',');
                        }
                        let _ = write!(line, "\"{}\":{v}", json_escape(k));
                    }
                    line.push('}');
                }
                line.push('}');
                emit(line, &mut out);
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`TraceSink::chrome_json`] to a file.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }

    /// A compact per-rank summary table: event counts and the leaf
    /// time breakdown (virtual seconds).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "rank", "events", "dropped", "end", "compute", "comm", "drain", "hidden", "channel"
        );
        for r in &self.trace.ranks {
            let b = r.breakdown();
            let leaf = |cat: &str| {
                b.iter()
                    .find(|(c, _)| *c == cat)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                out,
                "{:>4} {:>7} {:>7} {:>12.6e} {:>12.6e} {:>12.6e} {:>12.6e} {:>12.6e} {:>12.6e}",
                r.rank,
                r.events.len(),
                r.dropped,
                r.end_time(),
                leaf("compute"),
                leaf("comm"),
                leaf("drain"),
                r.overlapped_secs(),
                r.channel_secs(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(cap: usize) -> Tracer {
        Tracer::new(TraceConfig::enabled().with_cap(cap))
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.span("compute", "compute", Track::Main, 0.0, 1.0, &[]);
        t.instant("fault", "died", 0.5, &[]);
        t.begin("trainer", "forward", 0.0, &[]);
        t.end(2.0);
        let rt = t.finish(0, 2.0);
        assert!(rt.events.is_empty());
        assert_eq!(rt.dropped, 0);
        assert_eq!(rt.unclosed, 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut t = traced(3);
        for i in 0..5 {
            t.span(
                "compute",
                "compute",
                Track::Main,
                i as f64,
                i as f64 + 0.5,
                &[],
            );
        }
        let rt = t.finish(0, 5.0);
        assert_eq!(rt.events.len(), 3);
        assert_eq!(rt.dropped, 2);
        // Newest events survive: the makespan invariant holds.
        assert!((rt.end_time() - 4.5).abs() < 1e-12);
        assert!((rt.events[0].t0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nesting_sets_depth() {
        let mut t = traced(16);
        t.begin("trainer", "iteration", 0.0, &[]);
        t.begin("collective", "allreduce_ring", 0.5, &[("p", 4.0)]);
        t.span("comm", "recv", Track::Main, 0.5, 1.0, &[]);
        t.end(1.0); // allreduce_ring
        t.end(2.0); // iteration
        let rt = t.finish(0, 2.0);
        assert_eq!(rt.unclosed, 0);
        // Record order: leaf first (depth 2), then the collective
        // (depth 1), then the iteration (depth 0).
        assert_eq!(rt.events[0].depth, 2);
        assert_eq!(rt.events[1].depth, 1);
        assert_eq!(rt.events[1].arg("p"), Some(4.0));
        assert_eq!(rt.events[2].depth, 0);
        assert!((rt.events[2].t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finish_force_closes_open_spans() {
        let mut t = traced(16);
        t.begin("trainer", "forward", 1.0, &[]);
        let rt = t.finish(0, 3.0);
        assert_eq!(rt.unclosed, 1);
        assert_eq!(rt.events.len(), 1);
        assert!((rt.events[0].t1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn drain_accounting_round_trips() {
        let mut t = traced(16);
        t.span(
            "drain",
            "drain",
            Track::Main,
            1.0,
            1.25,
            &[("charged", 0.75), ("hidden", 0.5)],
        );
        t.span(
            "drain",
            "drain",
            Track::Main,
            2.0,
            2.0,
            &[("charged", 0.1), ("hidden", 0.1)],
        );
        let rt = t.finish(0, 2.0);
        assert!((rt.comm_wait_secs() - 0.25).abs() < 1e-15);
        assert!((rt.overlapped_secs() - 0.6).abs() < 1e-15);
    }

    #[test]
    fn breakdown_partitions_leaf_time() {
        let mut t = traced(16);
        t.span("compute", "compute", Track::Main, 0.0, 2.0, &[]);
        t.span("comm", "recv", Track::Main, 2.0, 3.0, &[]);
        t.span("drain", "drain", Track::Main, 3.0, 3.5, &[("hidden", 0.0)]);
        t.span("channel", "xfer", Track::Channel, 0.5, 1.5, &[]);
        // A scope span must not double-count.
        t.begin("collective", "allreduce_ring", 0.0, &[]);
        t.end(3.5);
        let rt = t.finish(0, 3.5);
        let total: f64 = rt.breakdown().iter().map(|&(_, v)| v).sum();
        assert!((total - 3.5).abs() < 1e-12);
        assert!((rt.channel_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sched_instants_never_enter_the_leaf_partition() {
        let mut t = traced(16);
        t.span("compute", "compute", Track::Main, 0.0, 2.0, &[]);
        t.instant(
            "sched",
            "bucket_flush",
            0.5,
            &[("words", 8192.0), ("min_layer", 2.0), ("max_layer", 3.0)],
        );
        t.instant("sched", "progress_poll", 1.0, &[("pending", 1.0)]);
        t.instant("sched", "progress_poll", 1.5, &[("pending", 1.0)]);
        t.span("drain", "drain", Track::Main, 2.0, 2.5, &[("hidden", 0.25)]);
        let rt = t.finish(0, 2.5);
        let total: f64 = rt.breakdown().iter().map(|&(_, v)| v).sum();
        assert!((total - 2.5).abs() < 1e-12, "instants add no leaf time");
        assert_eq!(rt.instant_count("sched", "bucket_flush"), 1);
        assert_eq!(rt.instant_count("sched", "progress_poll"), 2);
        assert_eq!(rt.instant_count("sched", "missing"), 0);
        assert!((rt.end_time() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_is_structurally_valid() {
        let mut t = traced(16);
        t.span(
            "compute",
            "compute",
            Track::Main,
            0.0,
            1e-3,
            &[("flops", 12.0)],
        );
        t.instant("fault", "died", 5e-4, &[]);
        t.span(
            "channel",
            "xfer",
            Track::Channel,
            0.0,
            2e-3,
            &[("words", 64.0)],
        );
        let world = WorldTrace {
            ranks: vec![t.finish(0, 1e-3)],
        };
        let json = TraceSink::new(&world).chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets (hand-written writer sanity).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // One complete span per Span event, instants use "i".
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"tid\":1"), "channel thread present");
        assert!(json.contains("\"args\":{\"words\":64}"));
    }

    #[test]
    fn summary_lists_every_rank() {
        let mut a = traced(8);
        a.span("compute", "compute", Track::Main, 0.0, 1.0, &[]);
        let world = WorldTrace {
            ranks: vec![a.finish(0, 1.0), Tracer::disabled().finish(1, 0.0)],
        };
        let s = TraceSink::new(&world).summary();
        assert_eq!(s.lines().count(), 3, "header + two ranks");
    }
}
