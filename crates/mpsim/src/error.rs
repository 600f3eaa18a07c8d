//! Error type for simulator operations.

use std::fmt;

/// Where in the training computation a detected fault bit: the
/// iteration and the per-iteration operation index (GEMMs numbered in
/// execution order; forward layers first, then backward ops). Attached
/// to [`Error::SilentCorruption`] so a minimized chaos-plan report can
/// say *where* a fault struck, not just on which rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCtx {
    /// Training iteration in which the fault was detected.
    pub iter: u64,
    /// Per-iteration operation index at the detection point.
    pub op: u64,
}

impl fmt::Display for FaultCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "iter {} op {}", self.iter, self.op)
    }
}

/// Errors surfaced by `mpsim` operations.
///
/// The simulator is intended for in-process experiments, so most misuse
/// (e.g. deadlock from mismatched send/recv) manifests as a hang rather
/// than an error; `Error` covers the conditions we can detect cheaply,
/// plus the fault conditions injected by a [`crate::FaultPlan`]
/// (timeouts, rank failure, payload corruption, collective aborts).
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A rank index was outside `0..size` for the communicator.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// Nothing can arrive from the peer any more: the world went
    /// quiescent while this rank waited on it (a deadlock, or the peer
    /// returned or panicked early), or, without faults, the peer had
    /// returned before this rank sent to it.
    Disconnected {
        /// Global rank of the unreachable peer.
        peer: usize,
    },
    /// A received payload had a different length than the caller
    /// required (a fixed-size destination buffer).
    LengthMismatch {
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// A collective was invoked with inconsistent arguments across
    /// ranks (detected opportunistically).
    CollectiveMismatch(String),
    /// A receive deadline expired before a matching message arrived
    /// (either the message was dropped by the fault plan, or it is
    /// merely late — a retry may still succeed). `waited` is the
    /// virtual time spent waiting, charged to the clock as
    /// communication; it is `f64::INFINITY` when the simulator can
    /// prove the message will never arrive (a dropped message observed
    /// without a deadline).
    Timeout {
        /// Communicator-local rank the receive was posted against.
        rank: usize,
        /// Tag of the expected message.
        tag: crate::Tag,
        /// Virtual seconds waited before giving up.
        waited: f64,
    },
    /// A peer rank died (was killed by the fault plan). Reported with
    /// the *global* rank so the failure can be correlated across
    /// sub-communicators; also returned by every operation on the dead
    /// rank itself.
    RankFailed {
        /// Global rank of the failed peer (or of this rank, when it is
        /// the one that died).
        rank: usize,
    },
    /// A received payload failed checksum verification (the fault plan
    /// flipped a bit in flight). The transfer cost has already been
    /// charged; the corrupt data is discarded rather than delivered.
    Corrupted {
        /// Communicator-local rank the message came from.
        rank: usize,
        /// Tag of the corrupt message.
        tag: crate::Tag,
    },
    /// Silent data corruption detected *inside* a rank — an ABFT
    /// checksum mismatch on a GEMM output that could not be corrected
    /// in place, or a weight-memory audit failure. No wire message was
    /// involved; the rank's own state is suspect, so callers must
    /// escalate to checkpoint rollback.
    SilentCorruption {
        /// Global rank whose computation or memory was corrupted.
        rank: usize,
        /// What failed verification: `"gemm"` (uncorrectable ABFT
        /// residual) or `"weights"` (resident-parameter audit).
        what: &'static str,
        /// Where in the training computation the corruption was
        /// detected.
        ctx: Option<FaultCtx>,
    },
    /// A peer abandoned the current collective/data-plane phase after
    /// observing a fault, blaming global rank `culprit`. Callers should
    /// stop the phase and enter recovery.
    Aborted {
        /// Global rank blamed for the abort.
        culprit: usize,
    },
    /// A peer is unreachable across a network partition (or has parked
    /// in a minority fragment): it may well be alive, but no traffic
    /// from it can arrive until the partition heals. Reported with the
    /// *global* rank, like [`Error::RankFailed`].
    Unreachable {
        /// Global rank of the unreachable peer.
        rank: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            Error::Disconnected { peer } => {
                write!(
                    f,
                    "the world went quiescent while this rank waited on peer rank {peer}"
                )
            }
            Error::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "payload length mismatch: expected {expected} elements, got {got}"
                )
            }
            Error::CollectiveMismatch(msg) => write!(f, "collective argument mismatch: {msg}"),
            Error::Timeout { rank, tag, waited } => {
                write!(
                    f,
                    "receive from rank {rank} (tag {tag}) timed out after {waited} virtual seconds"
                )
            }
            Error::RankFailed { rank } => write!(f, "rank {rank} failed (killed by fault plan)"),
            Error::Corrupted { rank, tag } => {
                write!(
                    f,
                    "payload from rank {rank} (tag {tag}) failed checksum verification"
                )
            }
            Error::SilentCorruption { rank, what, ctx } => {
                write!(f, "silent data corruption on rank {rank} ({what})")?;
                if let Some(c) = ctx {
                    write!(f, " at {c}")?;
                }
                Ok(())
            }
            Error::Aborted { culprit } => {
                write!(f, "collective aborted by a peer blaming rank {culprit}")
            }
            Error::Unreachable { rank } => {
                write!(f, "rank {rank} unreachable across a network partition")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Error> {
        vec![
            Error::RankOutOfRange { rank: 5, size: 4 },
            Error::Disconnected { peer: 2 },
            Error::LengthMismatch {
                expected: 8,
                got: 6,
            },
            Error::CollectiveMismatch("block sizes differ".into()),
            Error::Timeout {
                rank: 1,
                tag: 42,
                waited: 2.5,
            },
            Error::RankFailed { rank: 3 },
            Error::Corrupted { rank: 0, tag: 7 },
            Error::Aborted { culprit: 6 },
            Error::Unreachable { rank: 4 },
            Error::SilentCorruption {
                rank: 5,
                what: "gemm",
                ctx: Some(FaultCtx { iter: 1, op: 4 }),
            },
        ]
    }

    #[test]
    fn display_mentions_the_key_facts() {
        let msgs: Vec<String> = all_variants().iter().map(|e| e.to_string()).collect();
        assert!(msgs[0].contains("rank 5") && msgs[0].contains("size 4"));
        assert!(msgs[1].contains("peer rank 2"));
        assert!(msgs[2].contains("expected 8") && msgs[2].contains("got 6"));
        assert!(msgs[3].contains("block sizes differ"));
        assert!(
            msgs[4].contains("rank 1") && msgs[4].contains("tag 42") && msgs[4].contains("2.5")
        );
        assert!(msgs[5].contains("rank 3") && msgs[5].contains("failed"));
        assert!(msgs[6].contains("rank 0") && msgs[6].contains("checksum"));
        assert!(msgs[7].contains("rank 6") && msgs[7].contains("abort"));
        assert!(msgs[8].contains("rank 4") && msgs[8].contains("unreachable"));
        assert!(
            msgs[9].contains("rank 5")
                && msgs[9].contains("silent")
                && msgs[9].contains("gemm")
                && msgs[9].contains("iter 1"),
            "got: {}",
            msgs[9]
        );
        // Without a context the tag is simply absent.
        let bare = Error::SilentCorruption {
            rank: 5,
            what: "gemm",
            ctx: None,
        }
        .to_string();
        assert!(!bare.contains("iter"), "got: {bare}");
    }

    #[test]
    fn implements_std_error_without_a_source() {
        for e in all_variants() {
            let dyn_err: &dyn std::error::Error = &e;
            assert!(dyn_err.source().is_none());
            assert!(!dyn_err.to_string().is_empty());
        }
    }

    #[test]
    fn equality_distinguishes_payloads() {
        assert_eq!(
            Error::Timeout {
                rank: 1,
                tag: 2,
                waited: 3.0
            },
            Error::Timeout {
                rank: 1,
                tag: 2,
                waited: 3.0
            }
        );
        assert_ne!(
            Error::Timeout {
                rank: 1,
                tag: 2,
                waited: 3.0
            },
            Error::Timeout {
                rank: 1,
                tag: 2,
                waited: 4.0
            }
        );
        assert_ne!(Error::RankFailed { rank: 1 }, Error::Aborted { culprit: 1 });
        // Clone + Debug round-trip (the traits tests rely on).
        let e = Error::Corrupted { rank: 2, tag: 9 };
        assert_eq!(e.clone(), e);
        assert!(format!("{e:?}").contains("Corrupted"));
        // The context participates in equality: same site, different
        // iteration → different error.
        assert_ne!(
            Error::SilentCorruption {
                rank: 1,
                what: "weights",
                ctx: Some(FaultCtx { iter: 0, op: 0 }),
            },
            Error::SilentCorruption {
                rank: 1,
                what: "weights",
                ctx: Some(FaultCtx { iter: 1, op: 0 }),
            }
        );
    }
}
