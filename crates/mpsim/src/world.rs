//! Spawning a simulated world of ranks.
//!
//! Every rank is a fiber on the discrete-event engine: the world's
//! ranks are sharded over as many workers (the calling thread plus
//! pooled helpers) as [`engine::workers_for`] finds safe and useful,
//! one for small, faulted and nested worlds. The backends differ only
//! in how a fiber gets the turn, and produce bit-identical results (see
//! [`crate::engine`] for the determinism argument):
//!
//! * [`Backend::Events`] (default) — the asm context switch onto slab
//!   stacks. O(P) engine state; practical up to P = 65536 and beyond.
//!   [`Backend::EventsOn`] pins the worker count.
//! * [`Backend::Threads`] — a parked OS thread per rank, under the same
//!   scheduler: the differential-testing oracle for the switch's
//!   `unsafe` code. One thread per rank caps it at a few hundred ranks.
//!
//! Selection: [`RunOpts::backend`] (one call) beats
//! [`Backend::set_override`] (process-global, for tests), which beats
//! the `MPSIM_BACKEND` environment variable (`events` | `events:<workers>`
//! | `threads`), which beats the default (`events`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::comm::{Communicator, Inner};
use crate::engine::{self, fiber::Switch};
use crate::fault::FaultPlan;
use crate::netmodel::NetModel;
use crate::stats::WorldStats;
use crate::trace::{TraceConfig, WorldTrace};

/// Which execution engine runs the ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// [`Backend::Events`] with every rank on a parked OS thread of its
    /// own, handed the turn by the same scheduler instead of the asm
    /// switch: the differential-testing oracle. Small worlds only.
    Threads,
    /// Discrete-event fiber engine: ranks run cooperatively on slab
    /// stacks, scheduled by virtual time, on the worker count
    /// [`engine::workers_for`] picks for the world and the host. The
    /// default.
    Events,
    /// [`Backend::Events`] on this many workers (at least one, at most
    /// one per rank), whatever the host: `EventsOn(1)` is the
    /// single-threaded engine, which host-time attribution wants, and
    /// the tests sweep the count to show no result depends on it. A
    /// faulted or nested world still runs on one.
    EventsOn(usize),
}

/// 0 = no override, 1 = Threads, 2 = Events, 2 + w = EventsOn(w).
static BACKEND_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

impl Backend {
    /// The backend the next `World::run*` call will use (unless it
    /// names one in [`RunOpts::backend`]):
    /// [`Backend::set_override`] if set, else `MPSIM_BACKEND`
    /// (`events` | `events:<workers>` | `threads`), else
    /// [`Backend::Events`].
    pub fn current() -> Backend {
        match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
            0 => {}
            1 => return Backend::Threads,
            2 => return Backend::Events,
            w => return Backend::EventsOn(w - 2),
        }
        match std::env::var("MPSIM_BACKEND") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|| {
                panic!(
                    "MPSIM_BACKEND={v:?}: expected \"events\", \"events:<workers>\" or \"threads\""
                )
            }),
            Err(_) => Backend::Events,
        }
    }

    /// What a value of `MPSIM_BACKEND` names, if anything.
    fn parse(v: &str) -> Option<Backend> {
        match v.split_once(':') {
            None if v == "threads" => Some(Backend::Threads),
            None if v == "events" => Some(Backend::Events),
            Some(("events", w)) => w.parse().ok().filter(|&w| w > 0).map(Backend::EventsOn),
            _ => None,
        }
    }

    /// Process-global backend override, strongest selector. Lets tests
    /// drive code that calls `World::run*` internally (the trainers,
    /// the chaos campaign) onto a chosen backend. `None` restores env /
    /// default selection.
    pub fn set_override(backend: Option<Backend>) {
        let v = match backend {
            None => 0,
            Some(Backend::Threads) => 1,
            Some(Backend::Events) => 2,
            Some(Backend::EventsOn(w)) => 2 + w.max(1),
        };
        BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
    }
}

/// Everything a world can be run under besides its size and network
/// model. The default is the paper's setting: no faults, no tracing,
/// backend chosen by [`Backend::current`].
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Deterministic [`FaultPlan`]: drops, stragglers, corruption,
    /// partitions and rank deaths are injected exactly as scripted.
    pub faults: FaultPlan,
    /// Per-rank event tracing (disabled by default; with tracing
    /// disabled an instrumented site costs one boolean test).
    pub trace: TraceConfig,
    /// Run on this backend, ignoring override/environment selection
    /// (`None`: [`Backend::current`]). This is the differential-testing
    /// switch: run the same world once per backend and compare
    /// everything bit-for-bit.
    pub backend: Option<Backend>,
}

/// Entry point: runs `size` ranks as fibers, hands each a world
/// [`Communicator`], and collects their return values in rank order.
pub struct World;

impl World {
    /// Runs `f` on every rank of a `size`-rank world under `model`.
    ///
    /// # Examples
    ///
    /// A two-rank ping: the receiver's virtual clock advances by
    /// `α + β·words`.
    ///
    /// ```
    /// use mpsim::{NetModel, World};
    ///
    /// let model = NetModel { alpha: 1e-6, beta: 1e-9, flops: f64::INFINITY };
    /// let out = World::run(2, model, |comm| {
    ///     if comm.rank() == 0 {
    ///         comm.send(1, 0, &[1.0, 2.0]).unwrap();
    ///         0.0
    ///     } else {
    ///         let data = comm.recv(0, 0).unwrap();
    ///         assert_eq!(data, vec![1.0, 2.0]);
    ///         comm.now()
    ///     }
    /// });
    /// assert!((out[1] - (1e-6 + 2.0 * 1e-9)).abs() < 1e-18);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`, and propagates a panic from any rank
    /// (after all ranks have completed). A rank returning early while
    /// peers still expect its messages surfaces as
    /// [`crate::Error::Disconnected`] on the peers.
    pub fn run<T, F>(size: usize, model: NetModel, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Communicator) -> T + Sync,
    {
        Self::run_opts(size, model, RunOpts::default(), f).0
    }

    /// Like [`World::run`] but also returns traffic counters and final
    /// virtual clocks for every rank.
    ///
    /// # Panics
    ///
    /// As [`World::run`]: `size == 0`, or a rank panic.
    pub fn run_with_stats<T, F>(size: usize, model: NetModel, f: F) -> (Vec<T>, WorldStats)
    where
        T: Send,
        F: Fn(&Communicator) -> T + Sync,
    {
        let (out, stats, _) = Self::run_opts(size, model, RunOpts::default(), f);
        (out, stats)
    }

    /// Runs under a deterministic [`FaultPlan`]. Returns per-rank
    /// results and the world statistics (whose fault counters record
    /// what was injected and detected).
    ///
    /// # Panics
    ///
    /// As [`World::run_opts`].
    pub fn run_with_faults<T, F>(
        size: usize,
        model: NetModel,
        plan: FaultPlan,
        f: F,
    ) -> (Vec<T>, WorldStats)
    where
        T: Send,
        F: Fn(&Communicator) -> T + Sync,
    {
        let opts = RunOpts {
            faults: plan,
            ..RunOpts::default()
        };
        let (out, stats, _) = Self::run_opts(size, model, opts, f);
        (out, stats)
    }

    /// [`World::run_with_stats`] with per-rank event tracing. The
    /// returned [`WorldTrace`] holds every recorded span/instant; feed
    /// it to [`crate::TraceSink`] for Chrome Trace JSON or a summary.
    ///
    /// # Panics
    ///
    /// As [`World::run`]: `size == 0`, or a rank panic.
    pub fn run_traced_with_stats<T, F>(
        size: usize,
        model: NetModel,
        trace: TraceConfig,
        f: F,
    ) -> (Vec<T>, WorldStats, WorldTrace)
    where
        T: Send,
        F: Fn(&Communicator) -> T + Sync,
    {
        let opts = RunOpts {
            trace,
            ..RunOpts::default()
        };
        Self::run_opts(size, model, opts, f)
    }

    /// The general entry point: fault plan, tracing and backend all
    /// come from `opts`; the other `run*` are this with
    /// [`RunOpts::default`] and at most one field set.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`, if `opts.faults` fails
    /// [`FaultPlan::validate`] (message `invalid fault plan: …`, raised
    /// before any rank runs), or if a rank panics (the panic is
    /// re-thrown after all ranks have completed; with several panicking
    /// ranks the lowest rank's payload wins).
    pub fn run_opts<T, F>(
        size: usize,
        model: NetModel,
        opts: RunOpts,
        f: F,
    ) -> (Vec<T>, WorldStats, WorldTrace)
    where
        T: Send,
        F: Fn(&Communicator) -> T + Sync,
    {
        assert!(size > 0, "world size must be positive");
        let RunOpts {
            faults,
            trace,
            backend,
        } = opts;
        if let Err(msg) = faults.validate() {
            panic!("invalid fault plan: {msg}");
        }
        let (pinned, switch) = match backend.unwrap_or_else(Backend::current) {
            Backend::Threads => (None, Switch::Thread),
            Backend::Events => (None, Switch::Asm),
            Backend::EventsOn(w) => (Some(w), Switch::Asm),
        };
        let workers = engine::workers_for(size, pinned, faults.active());
        let fabric = engine::Fabric::new(size, workers);
        // What every rank reads and none writes is built once per world
        // and shared: the fault plan and the world's member table.
        let plan = Arc::new(faults);
        let members: Arc<Vec<usize>> = Arc::new((0..size).collect());
        let slots: Vec<Mutex<Option<_>>> = (0..size).map(|_| Mutex::new(None)).collect();
        // Rank `rank`'s body, run on its fiber: build the rank's state
        // around its endpoint, run `f`, hand back what the world
        // collects. It stays a closure of its own, called by reference
        // from the boxed one below: a boxed closure that captures
        // `plan`, `members` and `model` itself makes every fibre stack
        // a page deeper (+16 MB at P = 4096).
        let rank_body = |rank: usize, endpoint: engine::Endpoint| {
            let plan = Arc::clone(&plan);
            let inner = Inner::new(rank, size, endpoint, model, plan, trace);
            let inner = Rc::new(RefCell::new(inner));
            let comm = Communicator::world(Rc::clone(&inner), Arc::clone(&members));
            let out = f(&comm);
            drop(comm);
            let mut i = inner.borrow_mut();
            let now = i.clock.now;
            let trace = i.tracer.finish(rank, now);
            (out, i.stats, i.clock, trace)
        };
        let rank_body = &rank_body;
        let spawn = |rank: usize| {
            let (endpoint, slot) = (fabric.endpoint(rank), &slots[rank]);
            let closure: Box<dyn FnOnce() + '_> = Box::new(move || {
                let out = rank_body(rank, endpoint);
                *slot.lock().expect("one writer per slot") = Some(out);
            });
            // SAFETY: engine::run only returns — or unwinds — after
            // every worker has run its fibers to completion and dropped
            // their closures, so the borrows of `rank_body` and `slots`
            // captured here never outlive this stack frame. (If the
            // engine itself has a bug it waits or leaks unfinished
            // fibers rather than resume them later.)
            unsafe { std::mem::transmute::<_, Box<dyn FnOnce() + 'static>>(closure) }
        };
        engine::run(&fabric, switch, &spawn);
        let mut results = Vec::with_capacity(size);
        let mut stats = WorldStats::default();
        let mut traces = WorldTrace::default();
        for (rank, slot) in slots.into_iter().enumerate() {
            let slot = slot.into_inner().expect("one writer per slot");
            let (out, rank_stats, clock, trace) =
                slot.unwrap_or_else(|| panic!("rank {rank} produced no result"));
            results.push(out);
            stats.ranks.push(rank_stats);
            stats.clocks.push(clock);
            traces.ranks.push(trace);
        }
        (results, stats, traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::stack::slab_counters;

    #[test]
    fn results_arrive_in_rank_order() {
        let out = World::run(8, NetModel::free(), |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, NetModel::free(), |comm| {
            assert_eq!(comm.size(), 1);
            comm.barrier().unwrap();
            1
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn stats_collects_clock_per_rank() {
        let model = NetModel {
            alpha: 0.0,
            beta: 0.0,
            flops: 1e9,
        };
        let (_, stats) = World::run_with_stats(3, model, |comm| {
            comm.advance_flops((comm.rank() as f64 + 1.0) * 1e9);
        });
        assert!((stats.makespan() - 3.0).abs() < 1e-12);
        assert!((stats.max_compute() - 3.0).abs() < 1e-12);
        assert_eq!(stats.max_comm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_size_world_panics() {
        let _ = World::run(0, NetModel::free(), |_| ());
    }

    #[test]
    fn deterministic_replay_produces_identical_stats() {
        let run = || {
            World::run_with_stats(6, NetModel::cori_knl(), |comm| {
                // A little traffic with data-dependent sizes.
                let peer = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                let data = vec![comm.rank() as f64; comm.rank() + 1];
                comm.send(peer, 1, &data).unwrap();
                let got = comm.recv(prev, 1).unwrap();
                comm.advance_flops(got.len() as f64 * 1e6);
                comm.now()
            })
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "virtual times are bit-identical across runs");
        assert_eq!(sa.ranks, sb.ranks);
    }

    /// The two backends agree bit-for-bit on a plain workload.
    #[test]
    fn backends_agree_on_ring_workload() {
        let workload = |comm: &Communicator| {
            let peer = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let data = vec![comm.rank() as f64 + 0.25; comm.rank() + 3];
            comm.send(peer, 1, &data).unwrap();
            let got = comm.recv(prev, 1).unwrap();
            comm.advance_flops(got.len() as f64 * 1e7);
            comm.barrier().unwrap();
            (got, comm.now())
        };
        let run = |backend| {
            let opts = RunOpts {
                backend: Some(backend),
                ..RunOpts::default()
            };
            World::run_opts(5, NetModel::cori_knl(), opts, workload)
        };
        let (ra, sa, _) = run(Backend::Threads);
        let (rb, sb, _) = run(Backend::Events);
        assert_eq!(ra, rb);
        assert_eq!(sa.ranks, sb.ranks);
        assert_eq!(sa.clocks, sb.clocks);
    }

    /// The event engine on `workers` workers, whatever the host has.
    fn events_on(workers: usize) -> RunOpts {
        RunOpts {
            backend: Some(Backend::EventsOn(workers)),
            ..RunOpts::default()
        }
    }

    fn here() -> std::thread::ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn backend_values_parse() {
        assert_eq!(Backend::parse("threads"), Some(Backend::Threads));
        assert_eq!(Backend::parse("events"), Some(Backend::Events));
        assert_eq!(Backend::parse("events:3"), Some(Backend::EventsOn(3)));
        for bad in [
            "",
            "event",
            "events:",
            "events:0",
            "events:-1",
            "threads:2",
            "events:2:2",
        ] {
            assert_eq!(Backend::parse(bad), None, "{bad:?}");
        }
    }

    /// A world inside a world: the event engine nests (TLS save/restore
    /// around fiber resume), as the chaos campaign and benches rely on.
    /// The inner worlds run on stacks of their own: the outer world's
    /// slab is checked out, so rank 0's inner world maps a second one
    /// and rank 1's reuses that.
    #[test]
    fn nested_worlds_compose_on_event_backend() {
        let out = World::run_opts(2, NetModel::free(), events_on(1), |comm| {
            let inner = World::run_opts(3, NetModel::free(), events_on(1), |c| c.rank() * 2).0;
            (comm.rank(), inner, slab_counters())
        })
        .0;
        let inner = vec![0, 2, 4];
        assert_eq!(
            out,
            vec![(0, inner.clone(), (2, 1)), (1, inner, (2, 1))],
            "(rank, inner results, (slabs mapped, slabs cached))"
        );
        assert_eq!(slab_counters(), (2, 2));
    }

    /// A world started from inside a rank of a sharded world runs on
    /// that rank's worker alone, whatever count it asks for: the outer
    /// world owns the cores.
    #[test]
    fn a_world_inside_a_sharded_rank_runs_on_one_worker() {
        let (out, _, _) = World::run_opts(8, NetModel::free(), events_on(2), |_| {
            let (inner, _, _) = World::run_opts(8, NetModel::free(), events_on(2), |c| {
                c.barrier().unwrap();
                here()
            });
            assert_eq!(
                inner,
                [here(); 8],
                "inner ranks left the outer rank's thread"
            );
            here()
        });
        assert_eq!(out[..4], [here(); 4], "shard 0 runs on the caller");
        assert!(
            out[4..].iter().all(|&id| id == out[4] && id != here()),
            "shard 1 on one helper"
        );
    }

    /// An active fault plan keeps a world on one worker — the caller —
    /// whatever count the backend value asks for.
    #[test]
    fn a_faulted_world_runs_on_one_worker() {
        let opts = RunOpts {
            faults: FaultPlan::new(1).with_default_timeout(5.0),
            ..events_on(4)
        };
        assert!(opts.faults.active());
        let (out, _, _) = World::run_opts(16, NetModel::free(), opts, |comm| {
            comm.barrier().unwrap();
            here()
        });
        assert_eq!(out, [here(); 16]);
    }

    /// Two OS threads run a world each, at once. The first has helpers
    /// out, so the second — its worker count left to the rule, its
    /// ranks on the asm switch — stays on its own thread; neither waits
    /// for the other, and both get a lone run's bits.
    #[test]
    fn a_second_concurrent_world_runs_single_worker() {
        let work = |comm: &Communicator| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let got = comm.sendrecv(next, &[comm.rank() as f64; 3], prev, 1);
            comm.barrier().unwrap();
            (got.unwrap(), comm.now().to_bits(), here())
        };
        let bits = |out: &[(Vec<f64>, u64, _)]| -> Vec<_> {
            out.iter()
                .map(|(got, now, _)| (got.clone(), *now))
                .collect()
        };
        let model = NetModel::cori_knl();
        let (alone, alone_stats, _) = World::run_opts(8, model, events_on(1), work);
        let (inside, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                World::run_opts(8, model, events_on(2), |comm| {
                    if comm.rank() == 0 {
                        // Keep this world's helper out until the second
                        // world has come and gone.
                        inside.wait();
                        done.wait();
                    }
                    work(comm)
                })
            });
            inside.wait();
            let events = RunOpts {
                backend: Some(Backend::Events),
                ..RunOpts::default()
            };
            let (second, second_stats, _) = World::run_opts(8, model, events, work);
            done.wait();
            let (first, first_stats, _) = first.join().unwrap();
            assert!(second.iter().all(|(_, _, id)| *id == here()));
            assert_ne!(first[0].2, first[7].2, "the first world was sharded");
            for (out, stats) in [(&first, &first_stats), (&second, &second_stats)] {
                assert_eq!(bits(out), bits(&alone));
                assert_eq!(
                    (&stats.ranks, &stats.clocks),
                    (&alone_stats.ranks, &alone_stats.clocks)
                );
            }
        });
    }

    /// Slabs go back to the thread's cache when a rank panicked, and
    /// the next world runs on them: it maps nothing, and every switch
    /// of every rank checks a canary that `alloc` re-armed (a clobbered
    /// one aborts the process).
    #[test]
    fn a_world_after_a_panicking_world_reuses_its_stacks() {
        let boom = std::panic::catch_unwind(|| {
            World::run_opts(100, NetModel::free(), events_on(1), |comm| {
                assert_ne!(comm.rank(), 70, "rank 70 exploded");
                comm.rank()
            })
        })
        .expect_err("the rank's panic propagates");
        let msg = boom.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("rank 70 exploded"), "{msg}");
        assert_eq!(slab_counters(), (2, 2), "100 ranks: two slabs, both kept");

        let model = NetModel::cori_knl();
        let (out, _, _) = World::run_opts(100, model, events_on(1), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let got = comm.sendrecv(next, &[comm.rank() as f64], prev, 1);
            comm.barrier().unwrap();
            got.unwrap()[0]
        });
        let want: Vec<f64> = (0..100).map(|r| ((r + 99) % 100) as f64).collect();
        assert_eq!(out, want);
        assert_eq!(slab_counters(), (2, 2), "the second world mapped nothing");
    }

    /// The slab cache is per worker thread: of a 256-rank world on two
    /// workers each maps (or finds cached) the two slabs of its own 128
    /// ranks, and a second such world maps nothing on a thread that
    /// served the first. The caller's count is exact; a helper is
    /// shared with the tests running beside this one, so only its
    /// change is checked.
    #[test]
    fn each_worker_keeps_its_own_slab_cache() {
        let maps_by_thread = || {
            let (out, _, _) = World::run_opts(256, NetModel::free(), events_on(2), |comm| {
                comm.barrier().unwrap();
                (here(), slab_counters())
            });
            assert_eq!(
                out[..128],
                [(here(), (2, 0)); 128],
                "the caller's shard: 2 slabs, both out"
            );
            assert!(out[128..]
                .iter()
                .all(|&(id, _)| id == out[128].0 && id != here()));
            assert_eq!(slab_counters(), (2, 2));
            out[128]
        };
        let (helper, first) = maps_by_thread();
        let (again, second) = maps_by_thread();
        if again == helper {
            assert_eq!(second, first, "the helper mapped nothing new either");
        }
    }

    /// A world larger than the cache keeps the cache at its constant:
    /// 4 160 ranks are 65 slabs, 64 stay mapped.
    #[test]
    fn slab_cache_stays_bounded_after_a_world_larger_than_it() {
        let (out, _, _) = World::run_opts(4160, NetModel::free(), events_on(1), |comm| comm.rank());
        assert_eq!(out.len(), 4160);
        assert_eq!(slab_counters(), (65, 64));
    }
}
