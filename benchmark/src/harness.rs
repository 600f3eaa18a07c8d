//! Runs one workload and turns what it measured into named metrics.
//!
//! Two kinds of run, never mixed:
//!
//! * **end-to-end** (`--trace 0`): one set-up, untraced passes for the
//!   measuring window with the reference kernel timed between them
//!   (`wall_rel` is the median pass in units of it, `wall_s` the median
//!   pass in seconds, both with quartiles), then three more set-ups
//!   whose median, scaled to the reference kernel's nominal speed, is
//!   `setup_s`.
//! * **traced** (`--trace 1`): one set-up, passes alternating tracing
//!   off/on for half the window (their ratio is `host.trace_overhead`),
//!   then the layer probes and replays under spans, written to
//!   `out/spans.<workload>.json`.

use std::path::Path;
use std::time::Instant;

use crate::json::{self, Value};
use crate::probe::{collective_probes, mpsim_probe, COLLECTIVES};
use crate::reference::{Reference, NOMINAL_S};
use crate::trace::Tracer;
use crate::workloads::{self, Pass, Sim, Workload};

pub const SPEC: &str = include_str!("../../BENCHMARK.json");

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Quartiles and sample count where the value is a median.
    pub spread: Option<(f64, f64, usize)>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Everything else worth printing: the issue's names that cannot
    /// be defined on every workload, and diagnostics.
    pub extras: Vec<Metric>,
    pub sizes: String,
    pub passes: usize,
    /// FNV of the output bits of every unit (see `Sim::loss_digest`).
    pub loss_digest: u64,
    /// Every untraced pass of the measuring window, in order.
    pub wall_samples: Vec<f64>,
    /// The reference kernel's times: in the end-to-end run one before
    /// the first pass and one after each.
    pub ref_samples: Vec<f64>,
}

/// `BENCHMARK.json`'s metric names and units for one kind of run.
pub fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let spec = json::parse(SPEC).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("metric field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Median and quartiles by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (exclusive method).
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + frac * (v[(lo + 1).min(n - 1)] - v[lo])
    };
    (at(0.25), at(0.5), at(0.75))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// (user, system) CPU seconds of this process so far.
fn cpu_seconds() -> (f64, f64) {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` in the layout
    // Linux x86-64 defines (two timevals and fourteen longs), and
    // RUSAGE_SELF (0) is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&u.utime), secs(&u.stime))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Collects passes: failures, operation counts, and the check that the
/// virtual clock says the same thing every time.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
    sim: Option<Sim>,
    passes: usize,
}

impl Ledger {
    fn take(&mut self, pass: Pass) {
        self.passes += 1;
        self.attempted += pass.attempted;
        self.failures.extend(pass.failures);
        match &self.sim {
            None => self.sim = Some(pass.sim),
            Some(first) if *first != pass.sim => self.failures.push(format!(
                "pass {}: virtual-clock summary differs from the first pass",
                self.passes
            )),
            Some(_) => {}
        }
    }
}

/// Each pass in units of the reference kernel: its time over the mean
/// of the reference's times just before and just after it.
fn relative(walls: &[f64], refs: &[f64]) -> Vec<f64> {
    walls
        .iter()
        .zip(refs.windows(2))
        .map(|(w, r)| w / ((r[0] + r[1]) / 2.0))
        .collect()
}

fn timed_pass(w: &dyn Workload, tr: &mut Tracer, ledger: &mut Ledger) -> f64 {
    let (pass, secs) = tr.span("host", "pass", |tr| w.pass(tr));
    ledger.take(pass);
    secs
}

/// The metrics of one run, named and given units by `BENCHMARK.json`.
struct Report {
    listed: Vec<(String, String)>,
    metrics: Vec<Metric>,
    extras: Vec<Metric>,
}

impl Report {
    fn new(section: &str) -> Report {
        Report {
            listed: spec_metrics(section),
            metrics: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// A metric `BENCHMARK.json` lists; its unit comes from there, the
    /// one place units are fixed.
    fn put(&mut self, name: &str, value: f64) {
        let unit = &self
            .listed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"))
            .1;
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.clone(),
            value,
            spread: None,
        });
    }

    /// A listed metric that is the median of `samples`.
    fn put_median(&mut self, name: &str, samples: &[f64]) {
        let (q1, median, q3) = quartiles(samples);
        self.put(name, median);
        self.metrics.last_mut().expect("just pushed").spread = Some((q1, q3, samples.len()));
    }

    /// Anything else worth printing, with its own unit.
    fn extra(&mut self, name: &str, unit: &str, value: f64) {
        self.extras.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            spread: None,
        });
    }

    fn extra_median(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let (q1, median, q3) = quartiles(samples);
        self.extra(name, unit, median);
        self.extras.last_mut().expect("just pushed").spread = Some((q1, q3, samples.len()));
    }
}

pub fn run(opts: &Opts, out_dir: &Path) -> Result<Outcome, String> {
    let name: &'static str = workloads::WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let mut tr = Tracer::new(name, false);
    let mut ledger = Ledger::default();

    // Set-up: inputs from the seed, references, and one warm-up pass
    // (stack pools, scratch buffers, page faults), all outside the
    // measuring window. Returns the workload and the seconds it took.
    let set_up = |ledger: &mut Ledger, tr: &mut Tracer| {
        let t = Instant::now();
        let w = workloads::build(name, opts.seed, opts.smoke).expect("known workload");
        ledger.take(w.pass(tr));
        (w, t.elapsed().as_secs_f64())
    };
    let (w, setup_cold_s) = set_up(&mut ledger, &mut tr);

    let (report, wall_samples, ref_samples) = if opts.trace {
        let r = traced(opts, w.as_ref(), &mut tr, &mut ledger, setup_cold_s);
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("spans.{name}.json"));
        std::fs::write(&path, tr.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        r
    } else {
        let start = Instant::now();
        let mut reference = Reference::new();
        let (mut walls, mut refs) = (Vec::new(), vec![reference.run()]);
        while walls.len() < 3 || start.elapsed().as_secs_f64() < opts.seconds {
            walls.push(timed_pass(w.as_ref(), &mut tr, &mut ledger));
            refs.push(reference.run());
        }
        // Three more set-ups, the reference kernel between them;
        // setup_s is their median at reference speed. They come after
        // the measuring window so that every pass, here and in the
        // traced run, sees the heap one set-up leaves behind, and they
        // leave out the first one, which alone pays for cold caches and
        // first-use initialisation (reported as `setup_cold_s`).
        let (mut setups, mut setup_refs) = (Vec::new(), vec![reference.run()]);
        for _ in 0..3 {
            let (again, secs) = set_up(&mut ledger, &mut tr);
            drop(again);
            setups.push(secs);
            setup_refs.push(reference.run());
        }
        let setup_s: Vec<f64> = relative(&setups, &setup_refs)
            .iter()
            .map(|x| x * NOMINAL_S)
            .collect();
        let sim = ledger.sim.as_ref().expect("passes ran");
        let mut r = Report::new("end_to_end");
        r.put_median("wall_rel", &relative(&walls, &refs));
        r.put_median("setup_s", &setup_s);
        r.put("peak_rss_mb", peak_rss_mb());
        r.put("virt_makespan", sim.makespan);
        // The times `wall_rel` and `setup_s` are made of. Raw seconds
        // follow the host's speed of the minute, so they are shown, not
        // gated.
        r.extra_median("wall_s", "s", &walls);
        let ref_ms: Vec<f64> = refs.iter().map(|s| s * 1e3).collect();
        r.extra_median("ref_ms", "ms", &ref_ms);
        r.extra_median("setup_raw_s", "s", &setups);
        r.extra("setup_cold_s", "s", setup_cold_s);
        // The issue's other end-to-end names. BENCHMARK.json cannot gate
        // them (0 on some workloads, undefined on others), so `compare`
        // holds them to exact equality instead.
        r.extra("eq_residual", "ratio", sim.eq_residual);
        r.extra("overlap_fraction", "ratio", sim.overlap_fraction);
        let fail_share = ledger.failures.len() as f64 / ledger.attempted as f64;
        r.extra("fail_share", "ratio", fail_share);
        (r, walls, refs)
    };

    Ok(Outcome {
        attempted: ledger.attempted,
        failures: ledger.failures,
        metrics: report.metrics,
        extras: report.extras,
        sizes: w.sizes(),
        passes: ledger.passes,
        loss_digest: ledger.sim.map_or(0, |s| s.loss_digest),
        wall_samples,
        ref_samples,
    })
}

/// The traced run: passes with tracing off and on, then the probes and
/// replays, then the per-layer metrics.
fn traced(
    opts: &Opts,
    w: &dyn Workload,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    setup_cold_s: f64,
) -> (Report, Vec<f64>, Vec<f64>) {
    // How fast the machine is just now, outside the rusage window.
    let mut reference = Reference::new();
    let mut refs = vec![reference.run(), reference.run()];
    // Alternate tracing off and on so both see the same machine.
    let (cpu0, start) = (cpu_seconds(), Instant::now());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while on.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        tr.set_enabled(false);
        off.push(timed_pass(w, tr, ledger));
        tr.set_enabled(true);
        on.push(timed_pass(w, tr, ledger));
    }
    let cpu1 = cpu_seconds();
    refs.extend([reference.run(), reference.run()]);
    let passes = (off.len() + on.len()) as f64;
    let pass_s = quartiles(&off).1;
    let sim = ledger.sim.clone().expect("passes ran");

    let dims = w.probe_dims();
    let mp = mpsim_probe(dims.p, tr);
    let coll = collective_probes(&dims, tr);
    let layers = w.replay(tr, pass_s);

    let tensor_s = layers.tensor_busy_s();
    let spawn_s = sim.ranks as f64 * mp.spawn_us_per_rank * 1e-6;
    let envelope_s = sim.envelopes as f64 * mp.ns_per_envelope * 1e-9;
    let word_s = sim.words as f64 * mp.ns_per_word * 1e-9;
    let mpsim_s = spawn_s + envelope_s + word_s;
    // The onion, peeled by subtraction: each layer's self time is its
    // replay minus the replays of the layers it calls.
    let collectives_self = layers.collectives_s - mpsim_s;
    let distmm_self = layers.distmm_s - tensor_s - layers.collectives_s;
    let core_self = pass_s - layers.distmm_s;
    // A negative self time means a replay over-accounts (it cannot be
    // faster than the real call it contains); the residual says by how
    // much of the pass the onion fails to close.
    let residual = [collectives_self, distmm_self, core_self]
        .iter()
        .map(|s| (-s).max(0.0))
        .sum::<f64>()
        / pass_s;

    let mut r = Report::new("per_layer");
    r.put("tensor.flops", layers.tensor_flops());
    r.put("tensor.share", tensor_s / pass_s);
    r.put("tensor.gemm_gflops", layers.gemm.gflops());
    r.put("tensor.gemm_skinny_gflops", layers.gemm_skinny.gflops());
    r.put("tensor.conv_fwd_gflops", layers.conv_fwd.gflops());
    r.put("tensor.conv_bwd_gflops", layers.conv_bwd.gflops());
    r.put("mpsim.envelopes", sim.envelopes as f64);
    r.put("mpsim.words", sim.words as f64);
    r.put("mpsim.spawn_us_per_rank", mp.spawn_us_per_rank);
    r.put("mpsim.ns_per_envelope", mp.ns_per_envelope);
    r.put("mpsim.ns_per_word", mp.ns_per_word);
    r.put("mpsim.envelopes_per_s", sim.envelopes as f64 / pass_s);
    r.put("mpsim.est_busy_s", mpsim_s);
    r.put("mpsim.share", mpsim_s / pass_s);
    r.put("mpsim.trace_overhead", mp.trace_overhead);
    r.put("mpsim.timeouts", sim.timeouts as f64);
    r.put("mpsim.retries", sim.retries as f64);
    r.put("mpsim.dropped", sim.dropped as f64);
    r.put("collectives.calls_allreduce", sim.calls.0 as f64);
    r.put("collectives.calls_allgather", sim.calls.1 as f64);
    r.put("collectives.calls_iallreduce", sim.calls.2 as f64);
    r.put("collectives.calls_iallgather", sim.calls.3 as f64);
    for (c, p) in COLLECTIVES.iter().zip(&coll) {
        r.put(&format!("collectives.{c}.host_us"), p.host_us);
    }
    for (c, p) in COLLECTIVES.iter().zip(&coll) {
        r.put(&format!("collectives.{c}.virt_ratio"), p.virt_ratio);
    }
    r.put("collectives.self_share", collectives_self / pass_s);
    r.put("collectives.exposed_wait", sim.exposed_wait);
    r.put("collectives.overlap_fraction", sim.overlap_fraction);
    r.put("distmm.self_share", distmm_self / pass_s);
    r.put("distmm.virt_comm_ratio", layers.distmm_virt_comm_ratio);
    r.put("distmm.halo_words", layers.halo_words as f64);
    r.put("core.self_share", core_self / pass_s);
    r.put("core.virt_compute", sim.compute);
    r.put("core.virt_comm", sim.comm);
    r.put("core.eq_residual", sim.eq_residual);
    // No closed form on chaos_ft: the ratios stay at 0.
    let ratio = |r: f64| if r.is_finite() { r } else { 0.0 };
    r.put("core.eq8_ratio_min", ratio(sim.eq_ratio_min));
    r.put("core.eq8_ratio_max", ratio(sim.eq_ratio_max));
    r.put("core.sim_slowdown", pass_s / layers.serial_s);
    r.put("core.recoveries", sim.recoveries as f64);
    r.put("core.rollbacks", sim.rollbacks as f64);
    r.put("core.recovery_virt", sim.recovery);
    r.put("core.oracle_overhead", layers.oracle_overhead);
    let (user, sys) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    r.put("host.cpu_s", (user + sys) / passes);
    r.put("host.sys_s", sys / passes);
    r.put("host.trace_overhead", quartiles(&on).1 / pass_s);
    r.put("host.setup_cold_s", setup_cold_s);
    r.put("host.wall_s", pass_s);
    r.put("host.ref_ms", quartiles(&refs).1 * 1e3);

    r.extra("tensor.busy_s", "s", tensor_s);
    r.extra("mpsim.spawn_busy_s", "s", spawn_s);
    r.extra("mpsim.envelope_busy_s", "s", envelope_s);
    r.extra("mpsim.word_busy_s", "s", word_s);
    r.extra("collectives.self_s", "s", collectives_self);
    r.extra("distmm.self_s", "s", distmm_self);
    r.extra("distmm.fwd_host_us", "us", layers.distmm_fwd_us);
    r.extra("distmm.bwd_host_us", "us", layers.distmm_bwd_us);
    r.extra("distmm.halo_host_us", "us", layers.halo_host_us);
    r.extra("core.self_s", "s", core_self);
    r.extra("core.serial_baseline_s", "s", layers.serial_s);
    if !layers.plan_ms.is_empty() {
        let mut ms = layers.plan_ms.clone();
        ms.sort_by(f64::total_cmp);
        r.extra("core.plan_ms_p50", "ms", ms[ms.len() / 2]);
        r.extra("core.plan_ms_p95", "ms", ms[ms.len() * 95 / 100]);
    }
    r.extra("host.onion_residual", "ratio", residual);
    for (layer, secs) in tr.self_seconds_by_layer() {
        r.extra(&format!("spans.{layer}.self_s"), "s", secs);
    }
    (r, off, refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn spec_lists_both_kinds_of_metric() {
        assert!(spec_metrics("end_to_end").iter().any(|m| m.0 == "setup_s"));
        assert!(spec_metrics("per_layer").len() > 10);
    }
}
