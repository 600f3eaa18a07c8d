//! The byte layout of the membership protocol's three message kinds —
//! [`RoundMsg`] (presence round), the rank list (echo and verdict
//! rounds) and [`Welcome`] — over one little-endian [`Writer`] /
//! [`Reader`] pair.
//!
//! A transiently desynchronized peer (e.g. around a partition heal
//! racing an agreement round) can deliver bytes from a *different*
//! protocol step, so a decoder trusts nothing it reads off the wire:
//! every `Reader::get_*` checks the bytes remaining, a list length is
//! checked against `remaining / 8` **before** anything is allocated for
//! it, and a message must be consumed exactly. What does not parse
//! decodes to the kind's fallback, never to a panic: a round and a
//! welcome as `None` (the caller reads the one as an abort signal and
//! skips the other), a list as empty. (A round is
//! `25 + 8k` bytes and the other kinds are multiples of 8, so under the
//! exact-length rule a round never parses as a list or the reverse.)

struct Writer(Vec<u8>);

impl Writer {
    fn put_u8(mut self, v: u8) -> Self {
        self.0.push(v);
        self
    }

    fn put_u64(mut self, v: u64) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// A count-prefixed list of global ranks.
    fn put_list(self, list: &[usize]) -> Self {
        let w = self.put_u64(list.len() as u64);
        list.iter().fold(w, |w, &g| w.put_u64(g as u64))
    }

    fn put_f64s(self, list: &[f64]) -> Self {
        let w = self.put_u64(list.len() as u64);
        list.iter().fold(w, |w, &x| w.put_u64(x.to_bits()))
    }
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn get_u8(&mut self) -> Option<u8> {
        let (&v, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(v)
    }

    fn get_u64(&mut self) -> Option<u64> {
        let (head, rest) = self.0.split_first_chunk::<8>()?;
        self.0 = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// A count-prefixed run of words: the count is bounded by the bytes
    /// that are left before a `Vec` of that capacity is asked for.
    fn get_words<T>(&mut self, of: impl Fn(u64) -> T) -> Option<Vec<T>> {
        let n = usize::try_from(self.get_u64()?).ok()?;
        if n > self.0.len() / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(of(self.get_u64()?));
        }
        Some(out)
    }

    fn get_list(&mut self) -> Option<Vec<usize>> {
        self.get_words(|g| g as usize)
    }

    fn get_f64s(&mut self) -> Option<Vec<f64>> {
        self.get_words(f64::from_bits)
    }

    /// The message ends here: trailing bytes are another kind's.
    fn end(self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

const FLAG_ABORTED: u8 = 1;
const FLAG_HAS_STATE: u8 = 2;

/// What a live rank reports in each presence round.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct RoundMsg {
    pub iter: usize,
    pub last_ckpt: usize,
    pub aborted: bool,
    /// Whether this rank holds committed training state. Re-admitted
    /// rejoiners report `false` until a recovery commits, and their
    /// `last_ckpt` is excluded from the rollback-target minimum.
    pub has_state: bool,
    /// Excluded ranks whose scripted rejoin time has passed on this
    /// rank's clock. The union over the round is the admission set —
    /// identical on every member, so admission is common knowledge.
    pub ready: Vec<usize>,
}

impl RoundMsg {
    pub fn encode(&self) -> Vec<u8> {
        let flags =
            ((self.aborted as u8) * FLAG_ABORTED) | ((self.has_state as u8) * FLAG_HAS_STATE);
        Writer(Vec::with_capacity(25 + 8 * self.ready.len()))
            .put_u64(self.iter as u64)
            .put_u64(self.last_ckpt as u64)
            .put_u8(flags)
            .put_list(&self.ready)
            .0
    }

    pub fn decode(b: &[u8]) -> Option<RoundMsg> {
        let mut r = Reader(b);
        let (iter, last_ckpt) = (r.get_u64()? as usize, r.get_u64()? as usize);
        let flags = r.get_u8()?;
        let ready = r.get_list()?;
        r.end()?;
        Some(RoundMsg {
            iter,
            last_ckpt,
            aborted: flags & FLAG_ABORTED != 0,
            has_state: flags & FLAG_HAS_STATE != 0,
            ready,
        })
    }
}

/// Payload of the echo and verdict rounds: a list of global ranks.
pub(super) fn encode_list(ranks: &[usize]) -> Vec<u8> {
    Writer(Vec::with_capacity(8 + 8 * ranks.len()))
        .put_list(ranks)
        .0
}

/// Bytes that are not a list read as the empty one, which keeps the
/// sender out of this round's fragment.
pub(super) fn decode_list(b: &[u8]) -> Vec<usize> {
    let mut r = Reader(b);
    let list = r.get_list();
    list.filter(|_| r.end().is_some()).unwrap_or_default()
}

/// The last committed grid: its extents and its members in grid
/// row-major order — the membership quorum is counted against and the
/// layout a recovery redistributes from.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct View {
    pub pr: usize,
    pub pc: usize,
    pub members: Vec<usize>,
}

/// The state snapshot survivors hand a re-admitted rank so it can enter
/// the in-progress recovery epoch as if it had been present: every
/// sender's copy is byte-identical (all fields are common knowledge),
/// so the real-time race over which welcome arrives first is harmless.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct Welcome {
    /// Recovery epoch the survivors just entered.
    pub epoch: u64,
    /// Survivors' fault-sync round counter after the admission round.
    pub seq: u64,
    /// Agreed rollback iteration.
    pub target: usize,
    /// The last committed grid.
    pub view: View,
    /// Ranks still excluded after this admission.
    pub excluded: Vec<usize>,
    /// Ranks admitted but not yet holding state (the addressee included).
    pub stateless: Vec<usize>,
    /// Global loss history (identical on every survivor).
    pub losses: Vec<f64>,
}

impl Welcome {
    pub fn encode(&self) -> Vec<u8> {
        Writer(Vec::new())
            .put_u64(self.epoch)
            .put_u64(self.seq)
            .put_u64(self.target as u64)
            .put_u64(self.view.pr as u64)
            .put_u64(self.view.pc as u64)
            .put_list(&self.excluded)
            .put_list(&self.stateless)
            .put_list(&self.view.members)
            .put_f64s(&self.losses)
            .0
    }

    pub fn decode(b: &[u8]) -> Option<Welcome> {
        let mut r = Reader(b);
        let (epoch, seq) = (r.get_u64()?, r.get_u64()?);
        let target = r.get_u64()? as usize;
        let (pr, pc) = (r.get_u64()? as usize, r.get_u64()? as usize);
        let (excluded, stateless, members) = (r.get_list()?, r.get_list()?, r.get_list()?);
        let losses = r.get_f64s()?;
        r.end()?;
        Some(Welcome {
            epoch,
            seq,
            target,
            view: View { pr, pc, members },
            excluded,
            stateless,
            losses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round() -> RoundMsg {
        RoundMsg {
            iter: 3,
            last_ckpt: 2,
            aborted: true,
            has_state: true,
            ready: vec![4, 1],
        }
    }

    fn welcome() -> Welcome {
        Welcome {
            epoch: 2,
            seq: 17,
            target: 4,
            view: View {
                pr: 2,
                pc: 3,
                members: vec![0, 1, 2, 3, 4, 5],
            },
            excluded: vec![4],
            stateless: vec![1, 5],
            losses: vec![0.75, -0.0, 1e-300, f64::MAX],
        }
    }

    fn welcome_bytes(w: &Welcome) -> usize {
        let lists = w.excluded.capacity() + w.stateless.capacity() + w.view.members.capacity();
        8 * (lists + w.losses.capacity())
    }

    #[test]
    fn every_kind_round_trips() {
        assert_eq!(RoundMsg::decode(&round().encode()), Some(round()));
        for list in [vec![], vec![7], vec![0, 1, 2, 5]] {
            assert_eq!(decode_list(&encode_list(&list)), list);
        }
        assert_eq!(Welcome::decode(&welcome().encode()), Some(welcome()));
        let empty = Welcome::default();
        assert_eq!(Welcome::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn cross_decoded_and_truncated_bytes_yield_the_fallback() {
        // The kinds as the protocol sends them, plus the one-byte
        // confirmation vote and the lengths a forged count would need.
        let idle = RoundMsg {
            ready: vec![],
            ..round()
        };
        let rounds = [round().encode(), idle.encode()];
        let lists = [
            encode_list(&[]),
            encode_list(&[3]),
            // As a round: flags 1, then a ready-count of 2^57.
            encode_list(&[0, 1, 2]),
            encode_list(&[0, 1, 2, 3, 4, 5]),
        ];
        let welcomes = [welcome().encode()];
        let forged = [
            vec![1u8],
            u64::MAX.to_le_bytes().to_vec(),
            // `8 + 8 * n` wraps to 8 for this count.
            (1u64 << 61).to_le_bytes().to_vec(),
            [&[0u8; 17][..], &u64::MAX.to_le_bytes()].concat(),
        ];

        let not_a_round = |b: &[u8]| assert_eq!(RoundMsg::decode(b), None, "{b:?}");
        let not_a_list = |b: &[u8]| assert!(decode_list(b).is_empty(), "{b:?}");
        let not_a_welcome = |b: &[u8]| assert_eq!(Welcome::decode(b), None, "{b:?}");

        for b in lists.iter().chain(&welcomes).chain(&forged) {
            not_a_round(b);
        }
        for b in rounds.iter().chain(&welcomes).chain(&forged) {
            not_a_list(b);
        }
        for b in rounds.iter().chain(&lists).chain(&forged) {
            not_a_welcome(b);
        }
        // Every strict prefix (and a byte too many) of every kind.
        for b in &rounds {
            (0..b.len()).for_each(|n| not_a_round(&b[..n]));
            not_a_round(&[b.as_slice(), &[0]].concat());
        }
        for b in &lists[1..] {
            (0..b.len()).for_each(|n| not_a_list(&b[..n]));
            not_a_list(&[b.as_slice(), &[0]].concat());
        }
        for b in &welcomes {
            (0..b.len()).for_each(|n| not_a_welcome(&b[..n]));
            not_a_welcome(&[b.as_slice(), &[0]].concat());
        }
    }

    #[test]
    fn a_decode_allocates_no_more_than_it_was_given() {
        let r = round().encode();
        let held = |m: RoundMsg| 8 * m.ready.capacity();
        assert!(RoundMsg::decode(&r).map(held).expect("round trip") <= r.len());
        let l = encode_list(&[0, 1, 2, 5]);
        assert!(8 * decode_list(&l).capacity() <= l.len());
        let w = welcome().encode();
        assert!(welcome_bytes(&Welcome::decode(&w).expect("round trip")) <= w.len());
    }
}
