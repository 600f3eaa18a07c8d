//! What moves between ranks: [`Envelope`]s carrying a [`Payload`].
//!
//! The transport is the engine's fabric ([`crate::engine::Endpoint`]):
//! one mailbox per rank. Matching by `(context, source, tag)` happens
//! at the receiver ([`crate::comm::Communicator`]); the transport only
//! moves envelopes.

use crate::Tag;

/// The payload of a message.
///
/// `Words` carries simulation data and is charged to the virtual clock
/// at `α + β·len` on receive. `Control` carries metadata for
/// control-plane operations (failure agreement, clock synchronization)
/// and is *free* in virtual time — mirroring how published cost analyses
/// ignore communicator-management traffic.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Simulation data, counted in words.
    Words(Vec<f64>),
    /// Zero-virtual-time control metadata.
    Control(Vec<u8>),
    /// Stand-in for a data message the fault plan dropped: carries no
    /// data, but lets the receiver's timeout machinery observe the loss
    /// deterministically instead of blocking forever.
    Tombstone {
        /// Word count the lost message would have had.
        words: usize,
    },
    /// Death notice: the sender died at virtual time `at`. Broadcast
    /// once to every rank so nobody can hang waiting on the dead rank;
    /// matched out of band (any context, any tag).
    Death {
        /// Sender's virtual time of death.
        at: f64,
    },
    /// Collective abort notice: the sender abandoned the current
    /// data-plane phase, blaming global rank `culprit`. Unblocks peers
    /// mid-collective; honored only at matching recovery `epoch`.
    Abort {
        /// Global rank blamed for the abort.
        culprit: usize,
        /// Sender's recovery epoch when it aborted.
        epoch: u64,
    },
    /// Rejoin announcement: a previously dead sender revived at virtual
    /// time `at`. Advisory — re-admission decisions are driven by the
    /// fault plan (deterministic), not by when this notice is drained;
    /// the notice exists so peers can observe the announcement and so
    /// introspection/tests can see who offered to return.
    Rejoin {
        /// Sender's virtual time of revival.
        at: f64,
    },
    /// Park notice: the sender found itself in a minority fragment
    /// after a partition and parked (no weight updates, no shrink)
    /// until re-admission. Broadcast as the parking rank's *last* act
    /// before going silent, so peers blocked on it can deterministically
    /// resolve the rank as unreachable instead of hanging.
    Parked {
        /// Sender's virtual time when it parked.
        at: f64,
    },
}

impl Payload {
    /// Number of words charged to the network model (0 for control and
    /// notices; a tombstone's payload never arrives, so it charges 0).
    pub fn words(&self) -> usize {
        match self {
            Payload::Words(v) => v.len(),
            _ => 0,
        }
    }
}

/// One in-flight message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Communicator context id the message belongs to.
    pub ctx: u64,
    /// Global rank of the sender.
    pub src: usize,
    /// Application tag.
    pub tag: Tag,
    /// Sender's virtual clock at the moment of send.
    pub depart: f64,
    /// Per-link data-message sequence number (index of this message
    /// among all data messages on its `src → dst` link). Only maintained
    /// while a fault plan is active; 0 otherwise.
    pub seq: u64,
    /// [`crate::fault::checksum`] of the payload words as sent, stamped before any
    /// injected corruption so the receiver can verify integrity. `None`
    /// when no fault plan is active.
    pub csum: Option<u64>,
    /// Whether this envelope is the extra copy injected by a
    /// [`crate::FaultPlan::duplicate_nth`] fault. The receiver's
    /// matching layer absorbs flagged copies deterministically.
    pub dup: bool,
    /// Whether this envelope crossed an active partition. Data becomes
    /// a tombstone and notices are demoted to bare unreachability
    /// markers at the receiver — no content crosses the cut, but peers
    /// blocked on the sender can still resolve it deterministically.
    pub severed: bool,
    /// Message contents.
    pub data: Payload,
}

impl Envelope {
    /// An envelope as its sender builds it: sequence 0, no checksum,
    /// neither duplicate nor severed. The fault layer stamps those on
    /// the way out.
    pub fn new(ctx: u64, src: usize, tag: Tag, depart: f64, data: Payload) -> Self {
        Envelope {
            ctx,
            src,
            tag,
            depart,
            seq: 0,
            csum: None,
            dup: false,
            severed: false,
            data,
        }
    }

    /// A data message of `words` leaving `src` at virtual time `depart`.
    pub fn data(ctx: u64, src: usize, tag: Tag, depart: f64, words: Vec<f64>) -> Self {
        Envelope::new(ctx, src, tag, depart, Payload::Words(words))
    }

    /// A control message: free in virtual time, so it departs at 0.
    pub fn control(ctx: u64, src: usize, tag: Tag, bytes: Vec<u8>) -> Self {
        Envelope::new(ctx, src, tag, 0.0, Payload::Control(bytes))
    }

    /// An out-of-band notice stamped `at`: matched on any context and
    /// any tag, so it carries context 0 and tag 0.
    pub fn notice(src: usize, at: f64, notice: Payload) -> Self {
        Envelope::new(0, src, 0, at, notice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_payload_counts_zero_words() {
        assert_eq!(Payload::Control(vec![0u8; 100]).words(), 0);
        assert_eq!(Payload::Words(vec![0.0; 100]).words(), 100);
    }
}
