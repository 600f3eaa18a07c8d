//! Spawning a simulated world of ranks.
//!
//! Two execution backends produce bit-identical results (see
//! [`crate::engine`] for the determinism argument):
//!
//! * [`Backend::Events`] (default) — every rank is a fiber on a
//!   discrete-event scheduler in the calling thread. O(P) engine
//!   state; practical up to P = 65536 and beyond.
//! * [`Backend::Threads`] — the original one-OS-thread-per-rank
//!   backend, kept as a differential-testing oracle. P² channel
//!   senders and one stack per rank cap it at a few hundred ranks.
//!
//! Selection: [`RunOpts::backend`] (one call) beats
//! [`Backend::set_override`] (process-global, for tests), which beats
//! the `MPSIM_BACKEND` environment variable (`events` | `threads`),
//! which beats the default (`events`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::comm::{Communicator, Inner};
use crate::engine;
use crate::fault::FaultPlan;
use crate::netmodel::NetModel;
use crate::router::{self, Endpoint};
use crate::stats::WorldStats;
use crate::topology::Topology;
use crate::trace::{TraceConfig, WorldTrace};

/// Which execution engine runs the ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per rank: the original backend. Kept as the
    /// differential-testing oracle; use for small worlds only.
    Threads,
    /// Discrete-event fiber engine: all ranks run cooperatively on the
    /// calling thread, scheduled by virtual time. The default.
    Events,
}

/// 0 = no override, 1 = Threads, 2 = Events.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);

impl Backend {
    /// The backend the next `World::run*` call will use (unless it
    /// names one in [`RunOpts::backend`]):
    /// [`Backend::set_override`] if set, else `MPSIM_BACKEND`
    /// (`events` | `threads`), else [`Backend::Events`].
    pub fn current() -> Backend {
        match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
            1 => return Backend::Threads,
            2 => return Backend::Events,
            _ => {}
        }
        match std::env::var("MPSIM_BACKEND") {
            Ok(v) if v == "threads" => Backend::Threads,
            Ok(v) if v == "events" => Backend::Events,
            Ok(v) => panic!("MPSIM_BACKEND={v:?}: expected \"events\" or \"threads\""),
            Err(_) => Backend::Events,
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
        };
        BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
    }
}

/// Everything a world can be run under besides its size and network
/// model. The default is the paper's setting: flat network, no faults,
/// no tracing, backend chosen by [`Backend::current`].
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Hierarchical [`Topology`]: intra-node messages get their α/β
    /// scaled, modelling fat nodes.
    pub topo: Topology,
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

/// Entry point: runs `size` ranks — fibers on the event backend, scoped
/// OS threads on the threaded backend — hands each a world
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

    /// The general entry point: topology, fault plan, tracing and
    /// backend all come from `opts`; the other `run*` are this with
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
            topo,
            faults,
            trace,
            backend,
        } = opts;
        if let Err(msg) = faults.validate() {
            panic!("invalid fault plan: {msg}");
        }
        let plan = Arc::new(faults);
        // What every rank reads and none writes is built once per world
        // and shared: the fault plan and the world's member table.
        let members: Arc<Vec<usize>> = Arc::new((0..size).collect());
        // The per-rank body both backends run, on the rank's own
        // thread or fiber: build the rank's state around its endpoint,
        // run `f`, hand back what the world collects.
        let rank_body = |rank: usize, endpoint: Endpoint| {
            let plan = Arc::clone(&plan);
            let inner = Inner::new(rank, size, endpoint, model, topo, plan, trace);
            let inner = Rc::new(RefCell::new(inner));
            let comm = Communicator::world(Rc::clone(&inner), Arc::clone(&members));
            let out = f(&comm);
            drop(comm);
            let mut i = inner.borrow_mut();
            let now = i.clock.now;
            let trace = i.tracer.finish(rank, now);
            (out, i.stats, i.clock, trace)
        };
        let joined = match backend.unwrap_or_else(Backend::current) {
            Backend::Threads => Self::run_threads(size, &rank_body),
            Backend::Events => Self::run_events(size, &rank_body),
        };
        let mut results = Vec::with_capacity(size);
        let mut stats = WorldStats::default();
        let mut traces = WorldTrace::default();
        for (out, rank_stats, clock, trace) in joined {
            results.push(out);
            stats.ranks.push(rank_stats);
            stats.clocks.push(clock);
            traces.ranks.push(trace);
        }
        (results, stats, traces)
    }

    /// Threaded backend: one scoped OS thread per rank, crossbeam
    /// channels, join in rank order.
    fn run_threads<R: Send>(
        size: usize,
        rank_body: &(impl Fn(usize, Endpoint) -> R + Sync),
    ) -> Vec<R> {
        let mut joined = Vec::with_capacity(size);
        // Lowest-rank panic payload, re-thrown intact after every rank
        // has been joined — same contract as the event backend.
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = router::build(size)
                .into_iter()
                .enumerate()
                .map(|(rank, endpoint)| scope.spawn(move || rank_body(rank, endpoint)))
                .collect();
            for h in handles {
                match h.join() {
                    Ok(v) => joined.push(v),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        joined
    }

    /// Event backend: every rank is a fiber on the discrete-event
    /// engine; the whole world runs on the calling thread.
    fn run_events<R>(size: usize, rank_body: &impl Fn(usize, Endpoint) -> R) -> Vec<R> {
        let (fabric, endpoints) = router::build_event(size);
        let slots: Rc<RefCell<Vec<Option<R>>>> =
            Rc::new(RefCell::new((0..size).map(|_| None).collect()));
        let mut closures: Vec<Box<dyn FnOnce()>> = Vec::with_capacity(size);
        for (rank, endpoint) in endpoints.into_iter().enumerate() {
            let slots = Rc::clone(&slots);
            let closure: Box<dyn FnOnce() + '_> = Box::new(move || {
                let out = rank_body(rank, endpoint);
                slots.borrow_mut()[rank] = Some(out);
            });
            // SAFETY: engine::run only returns — or unwinds — after
            // every fiber has completed and dropped its closure, so the
            // borrows of `rank_body` and `slots` captured here never
            // outlive this stack frame. (If the engine itself has a bug
            // it leaks unfinished fibers rather than resume them later.)
            let closure: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(closure) };
            closures.push(closure);
        }
        engine::run(&fabric, closures);
        let slots = Rc::try_unwrap(slots)
            .ok()
            .expect("all fiber closures dropped")
            .into_inner();
        slots
            .into_iter()
            .enumerate()
            .map(|(rank, s)| s.unwrap_or_else(|| panic!("rank {rank} produced no result")))
            .collect()
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
    fn topology_scales_intra_node_messages() {
        use crate::topology::Topology;
        let model = NetModel {
            alpha: 1.0,
            beta: 1.0,
            flops: f64::INFINITY,
        };
        let topo = Topology {
            node_size: 2,
            intra_alpha_factor: 0.5,
            intra_beta_factor: 0.25,
        };
        // Ranks 0 and 1 share a node; ranks 0 and 2 do not.
        let opts = RunOpts {
            topo,
            ..RunOpts::default()
        };
        let (out, _, _) = World::run_opts(4, model, opts, |comm| match comm.rank() {
            0 => {
                comm.send(1, 0, &[0.0; 4]).unwrap();
                comm.send(2, 0, &[0.0; 4]).unwrap();
                0.0
            }
            1 => {
                comm.recv(0, 0).unwrap();
                comm.now()
            }
            2 => {
                comm.recv(0, 0).unwrap();
                comm.now()
            }
            _ => 0.0,
        });
        // Intra-node: 0.5*alpha + 0.25*4*beta = 1.5; inter: 1 + 4 = 5.
        assert!((out[1] - 1.5).abs() < 1e-12, "intra-node: {}", out[1]);
        assert!((out[2] - 5.0).abs() < 1e-12, "inter-node: {}", out[2]);
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

    fn events() -> RunOpts {
        RunOpts {
            backend: Some(Backend::Events),
            ..RunOpts::default()
        }
    }

    /// A world inside a world: the event engine nests (TLS save/restore
    /// around fiber resume), as the chaos campaign and benches rely on.
    /// The inner worlds run on stacks of their own: the outer world's
    /// slab is checked out, so rank 0's inner world maps a second one
    /// and rank 1's reuses that.
    #[test]
    fn nested_worlds_compose_on_event_backend() {
        let out = World::run_opts(2, NetModel::free(), events(), |comm| {
            let inner = World::run_opts(3, NetModel::free(), events(), |c| c.rank() * 2).0;
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

    /// Slabs go back to the thread's cache when a rank panicked, and
    /// the next world runs on them: it maps nothing, and every switch
    /// of every rank checks a canary that `alloc` re-armed (a clobbered
    /// one aborts the process).
    #[test]
    fn a_world_after_a_panicking_world_reuses_its_stacks() {
        let boom = std::panic::catch_unwind(|| {
            World::run_opts(100, NetModel::free(), events(), |comm| {
                assert_ne!(comm.rank(), 70, "rank 70 exploded");
                comm.rank()
            })
        })
        .expect_err("the rank's panic propagates");
        let msg = boom.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("rank 70 exploded"), "{msg}");
        assert_eq!(slab_counters(), (2, 2), "100 ranks: two slabs, both kept");

        let model = NetModel::cori_knl();
        let (out, _, _) = World::run_opts(100, model, events(), |comm| {
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

    /// A world larger than the cache keeps the cache at its constant:
    /// 4 160 ranks are 65 slabs, 64 stay mapped.
    #[test]
    fn slab_cache_stays_bounded_after_a_world_larger_than_it() {
        let (out, _, _) = World::run_opts(4160, NetModel::free(), events(), |comm| comm.rank());
        assert_eq!(out.len(), 4160);
        assert_eq!(slab_counters(), (65, 64));
    }
}
