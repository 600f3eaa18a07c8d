//! # mpsim — a deterministic message-passing simulator
//!
//! This crate is the "MPI" substrate of the repository. The paper
//! (*Integrated Model, Batch, and Domain Parallelism in Training Neural
//! Networks*, SPAA 2018) evaluates its algorithms with an α–β network
//! model on NERSC Cori; this crate lets us *execute* those algorithms —
//! every rank is a fiber on a discrete-event engine, messages land in
//! per-rank mailboxes, and every rank carries a **virtual clock** that
//! is advanced by the same flat α–β model the paper assumes, plus a
//! FLOP/s model for local compute.
//!
//! Because real data moves through real collective algorithms, we can
//! check two things at once:
//!
//! 1. **numerical correctness** — a distributed matmul/SGD step produces
//!    the same numbers as a serial reference, and
//! 2. **cost-model fidelity** — the virtual time of an executed
//!    collective matches the closed-form α–β expression for its
//!    algorithm (ring, Bruck, recursive doubling, …).
//!
//! ## Timing semantics
//!
//! * `send` is *eager*: it never blocks and charges no local time; the
//!   message records the sender's clock as its departure time.
//! * `recv` completes at `max(receiver_clock, depart) + α + β·words`,
//!   i.e. the transfer cost is charged at the receiver and a receiver
//!   can never observe data "from the future".
//! * `irecv`/`wait` model perfectly-overlapped transfers: the message
//!   arrives at `depart + α + β·words` regardless of what the receiver
//!   was doing, and `wait` only clamps the receiver clock up to the
//!   arrival time. This is the overlap the paper assumes for the
//!   domain-parallel halo exchange (its Fig. 3) and for Fig. 8.
//! * `recv_channel`/`complete_channel` model an *executed* overlap
//!   engine: transfers are charged to a per-rank concurrent comm
//!   channel (`Clock::comm_busy`) that progresses while the main
//!   timeline runs compute; transfers on one channel serialize against
//!   each other (one NIC), and the main clock pays only when it drains
//!   an unfinished operation. This is what the non-blocking collectives
//!   of the `collectives` crate build on.
//! * `Clock::advance_flops` charges local compute at the machine's
//!   sustained FLOP/s.
//!
//! With synchronous SPMD ranks these rules reproduce the textbook
//! Thakur/Rabenseifner collective costs exactly (see the `collectives`
//! crate's tests).
//!
//! ## Determinism
//!
//! Message matching is by `(context, source, tag)` with per-pair FIFO
//! order, so a fixed program produces bit-identical results and virtual
//! times on every run, independent of OS scheduling and of the engine's
//! worker count.

pub mod clock;
pub mod comm;
pub mod engine;
pub mod error;
pub mod fault;
pub mod health;
pub mod netmodel;
pub mod router;
pub mod stats;
pub mod trace;
pub mod world;

pub use clock::Clock;
pub use comm::{ChannelRecv, Communicator, RecvHandle, TraceSpan};
pub use error::{Error, FaultCtx, Result};
pub use fault::{apply_flips, BitFlip, Fault, FaultPlan, Span};
pub use health::{has_quorum, Deadline, DetectorConfig, Ewma, FtConfig, HealthMonitor};
pub use netmodel::NetModel;
pub use stats::{RankStats, WorldStats};
pub use trace::{EventKind, RankTrace, TraceConfig, TraceEvent, TraceSink, Track, WorldTrace};
pub use world::{Backend, RunOpts, World};

/// A rank index within a communicator.
pub type Rank = usize;

/// A message tag. Tags below [`comm::RESERVED_TAG_BASE`] are available to
/// applications; higher values are reserved for internal use by
/// collectives and control-plane traffic.
pub type Tag = u64;
