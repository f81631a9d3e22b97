//! Typed per-session protocol state machines.
//!
//! The chunk-window and chunk-stream rules that
//! [`mux`](crate::mux) and [`server`](crate::server) follow are small
//! explicit automata with value semantics (`Clone + Eq + Hash`), so that
//!
//! * the client and server *drive* their wire behavior through the same
//!   types the `parafile-model` checker explores exhaustively — the
//!   checked specification is the shipped code, not a parallel copy;
//! * every illegal transition is a typed [`ProtoViolation`] instead of an
//!   ad-hoc boolean, so callers must decide what a violation means on
//!   their side of the wire (client: broken connection; server: typed
//!   `Malformed` reply).
//!
//! Two automata cover a chunked write (DESIGN.md §14):
//!
//! * [`ChunkSender`] — the client's bounded in-flight window over a
//!   `WriteChunk` stream;
//! * [`WriteStream`] — the server's continuation/consistency discipline
//!   over an incoming chunk stream.

// An ignored accessor result is a silent bug: value-returning public
// functions are `#[must_use]`.
#![deny(clippy::must_use_candidate)]

/// An illegal protocol-automaton transition.
///
/// Guards ([`ChunkSender::next_to_send`], [`WriteStream::continues`])
/// exist so well-behaved peers never construct one; the violations are
/// what the automata answer when a guard is bypassed — by a hostile peer,
/// a transport fault, or a deliberately mutated model run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtoViolation {
    /// An acknowledgment arrived for a chunk that was never sent.
    AckWithoutSend,
    /// A non-initial chunk frame does not continue the in-progress stream.
    NotContinuation,
    /// A chunk's data would push the stream past its declared total.
    Overrun,
    /// The final chunk leaves the stream short of its declared total.
    ShortFinal,
}

impl std::fmt::Display for ProtoViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoViolation::AckWithoutSend => f.write_str("acknowledgment without a sent chunk"),
            ProtoViolation::NotContinuation => {
                f.write_str("write chunk does not continue the in-progress stream")
            }
            ProtoViolation::Overrun => f.write_str("chunk overruns the declared total"),
            ProtoViolation::ShortFinal => f.write_str("final chunk leaves the stream short"),
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk-window automaton (client side)

/// What the sender should put on the wire next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkPlan {
    /// Zero-based chunk index (`offset = index * chunk_size`).
    pub index: u64,
    /// Whether this is the stream's final chunk.
    pub last: bool,
}

/// The client's bounded in-flight window over one `WriteChunk` stream.
///
/// The window invariant — at most `window` sent-but-unacknowledged chunks
/// — is what keeps a slow daemon from being buried under an unbounded
/// burst. [`next_to_send`](Self::next_to_send) is the *guard*:
/// it answers `None` while the window is full. [`record_send`]
/// (Self::record_send) is deliberately total (it counts the send even
/// past the window) so the model checker can drive a mutated client
/// through the guard and watch the invariant trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkSender {
    n_chunks: u64,
    window: u64,
    sent: u64,
    acked: u64,
}

impl ChunkSender {
    /// A window automaton for a stream of `n_chunks` chunks (at least 1)
    /// with `window` frames in flight (at least 1).
    #[must_use]
    pub fn new(n_chunks: u64, window: u64) -> Self {
        Self { n_chunks: n_chunks.max(1), window: window.max(1), sent: 0, acked: 0 }
    }

    /// Chunks sent but not yet acknowledged.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.sent - self.acked
    }

    /// Chunks recorded as sent so far (the next unsent chunk's index).
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The window bound this automaton enforces.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The next chunk the window admits, or `None` when every chunk is
    /// sent or the window is full.
    #[must_use]
    pub fn next_to_send(&self) -> Option<ChunkPlan> {
        if self.sent >= self.n_chunks || self.in_flight() >= self.window {
            return None;
        }
        Some(ChunkPlan { index: self.sent, last: self.sent + 1 == self.n_chunks })
    }

    /// Records that the chunk from [`next_to_send`](Self::next_to_send)
    /// reached the wire. Total by design (see the type docs); the real
    /// client only calls it behind the guard.
    pub fn record_send(&mut self) {
        self.sent += 1;
    }

    /// Records one acknowledgment from the daemon.
    pub fn record_ack(&mut self) -> Result<(), ProtoViolation> {
        if self.acked >= self.sent {
            return Err(ProtoViolation::AckWithoutSend);
        }
        self.acked += 1;
        Ok(())
    }

    /// Whether every chunk has been sent.
    #[must_use]
    pub fn all_sent(&self) -> bool {
        self.sent >= self.n_chunks
    }

    /// Whether the stream is fully sent *and* fully acknowledged.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.all_sent() && self.acked == self.sent
    }

    /// The window invariant itself, as a predicate the model checker (and
    /// debug assertions) can evaluate on any reachable state.
    #[must_use]
    pub fn within_window(&self) -> bool {
        self.in_flight() <= self.window
    }
}

// ---------------------------------------------------------------------------
// Chunk-stream automaton (server side)

/// The identifying header of one `WriteChunk` frame, as the server-side
/// automaton sees it (payload bytes reduced to their length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkHeader {
    /// Target file id.
    pub file: u64,
    /// Issuing compute node.
    pub compute: u32,
    /// View interval left extremity.
    pub l_s: u64,
    /// View interval right extremity.
    pub r_s: u64,
    /// Retry-stamp session (0 = unstamped).
    pub session: u64,
    /// Retry-stamp sequence number.
    pub seq: u64,
    /// Byte offset of this chunk within the stream payload.
    pub offset: u64,
    /// Total payload bytes the stream declares.
    pub total: u64,
    /// Whether this is the final chunk.
    pub last: bool,
    /// This chunk's data length.
    pub len: u64,
}

/// How a legal chunk moved the stream forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamProgress {
    /// A middle chunk: acknowledge with `ChunkOk` and keep the stream.
    Middle,
    /// The final chunk: the stream is complete.
    Final,
}

/// The server's view of one in-progress chunked write.
///
/// Chunk frames of a logical write arrive back to back on one
/// connection. The automaton pins the stream identity (everything but
/// `offset`/`last`/`len` must repeat verbatim) and its arithmetic: chunks
/// are contiguous, never overrun the declared total, and the final chunk
/// lands exactly on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteStream {
    file: u64,
    compute: u32,
    l_s: u64,
    r_s: u64,
    session: u64,
    seq: u64,
    total: u64,
    received: u64,
}

impl WriteStream {
    /// Opens a stream from its first chunk's header (`offset` must be 0;
    /// the caller dispatches on it).
    #[must_use]
    pub fn start(h: &ChunkHeader) -> Self {
        Self {
            file: h.file,
            compute: h.compute,
            l_s: h.l_s,
            r_s: h.r_s,
            session: h.session,
            seq: h.seq,
            total: h.total,
            received: 0,
        }
    }

    /// Reopens a stream mid-way from a resumed chunk's header: identical to
    /// [`start`](Self::start) except the bytes up to `h.offset` are taken
    /// as already received. The caller (the daemon) must only do this when
    /// its own recorded progress for the stream's `(session, seq)` stamp
    /// equals `h.offset` — the automaton then enforces contiguity from
    /// there exactly as for a fresh stream.
    #[must_use]
    pub fn resume(h: &ChunkHeader) -> Self {
        Self { received: h.offset, ..Self::start(h) }
    }

    /// Whether `h` is the next frame of *this* stream: same identity, and
    /// its offset is exactly the bytes received so far.
    #[must_use]
    pub fn continues(&self, h: &ChunkHeader) -> bool {
        self.file == h.file
            && self.compute == h.compute
            && self.l_s == h.l_s
            && self.r_s == h.r_s
            && self.session == h.session
            && self.seq == h.seq
            && self.total == h.total
            && self.received == h.offset
    }

    /// Accepts one chunk, advancing the stream. The overrun/short-final
    /// checks run *before* any byte is accounted, so a rejected chunk
    /// leaves the automaton unchanged.
    pub fn accept(&mut self, h: &ChunkHeader) -> Result<StreamProgress, ProtoViolation> {
        let Some(after) = self.received.checked_add(h.len) else {
            return Err(ProtoViolation::Overrun);
        };
        if after > self.total {
            return Err(ProtoViolation::Overrun);
        }
        if h.last && after != self.total {
            return Err(ProtoViolation::ShortFinal);
        }
        self.received = after;
        Ok(if h.last { StreamProgress::Final } else { StreamProgress::Middle })
    }

    /// Payload bytes received so far (the next chunk's expected offset).
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// The stream's declared payload total.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The stream's `(session, seq)` retry stamp.
    #[must_use]
    pub fn stamp(&self) -> (u64, u64) {
        (self.session, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_blocks_at_capacity_and_drains() {
        let mut s = ChunkSender::new(5, 2);
        assert_eq!(s.next_to_send(), Some(ChunkPlan { index: 0, last: false }));
        s.record_send();
        s.record_send();
        assert_eq!(s.in_flight(), 2);
        assert_eq!(s.next_to_send(), None, "window full");
        assert!(s.within_window());
        s.record_ack().expect("one in flight");
        assert_eq!(s.next_to_send(), Some(ChunkPlan { index: 2, last: false }));
        for _ in 0..3 {
            s.record_send();
            s.record_ack().expect("drain");
        }
        s.record_ack().expect("final ack");
        assert!(s.is_complete());
        assert_eq!(s.record_ack(), Err(ProtoViolation::AckWithoutSend));
    }

    #[test]
    fn final_chunk_is_flagged() {
        let s = ChunkSender::new(1, 4);
        assert_eq!(s.next_to_send(), Some(ChunkPlan { index: 0, last: true }));
    }

    fn header(offset: u64, len: u64, last: bool) -> ChunkHeader {
        ChunkHeader {
            file: 1,
            compute: 2,
            l_s: 0,
            r_s: 99,
            session: 7,
            seq: 3,
            offset,
            total: 10,
            last,
            len,
        }
    }

    #[test]
    fn stream_accepts_contiguous_chunks() {
        let mut ws = WriteStream::start(&header(0, 4, false));
        assert_eq!(ws.accept(&header(0, 4, false)), Ok(StreamProgress::Middle));
        assert!(ws.continues(&header(4, 4, false)));
        assert_eq!(ws.accept(&header(4, 4, false)), Ok(StreamProgress::Middle));
        assert_eq!(ws.accept(&header(8, 2, true)), Ok(StreamProgress::Final));
        assert_eq!(ws.received(), ws.total());
        assert_eq!(ws.stamp(), (7, 3));
    }

    #[test]
    fn stream_rejects_gaps_overruns_and_short_finals() {
        let mut ws = WriteStream::start(&header(0, 4, false));
        ws.accept(&header(0, 4, false)).expect("first chunk");
        // A gap (wrong offset) is not a continuation.
        assert!(!ws.continues(&header(6, 2, false)));
        // A different stream identity is not a continuation either.
        let mut other = header(4, 2, false);
        other.seq = 99;
        assert!(!ws.continues(&other));
        // Overrun: 4 received + 8 > 10 declared.
        assert_eq!(ws.accept(&header(4, 8, false)), Err(ProtoViolation::Overrun));
        assert_eq!(ws.received(), 4, "rejected chunk leaves the stream unchanged");
        // Short final: 4 + 2 < 10.
        assert_eq!(ws.accept(&header(4, 2, true)), Err(ProtoViolation::ShortFinal));
        assert_eq!(ws.received(), 4);
    }

    #[test]
    fn resumed_stream_continues_from_its_offset() {
        // A retried stream resuming at offset 4 accepts 4.. and rejects a
        // restart at 0 (that would be a different continuation).
        let ws = WriteStream::resume(&header(4, 4, false));
        assert_eq!(ws.received(), 4);
        assert!(ws.continues(&header(4, 4, false)));
        assert!(!ws.continues(&header(0, 4, false)));
        let mut ws = ws;
        assert_eq!(ws.accept(&header(4, 4, false)), Ok(StreamProgress::Middle));
        assert_eq!(ws.accept(&header(8, 2, true)), Ok(StreamProgress::Final));
        assert_eq!(ws.received(), ws.total());
    }

    #[test]
    fn stream_overflow_is_an_overrun_not_a_wrap() {
        let mut h = header(0, 4, false);
        h.total = u64::MAX;
        let mut ws = WriteStream::start(&h);
        ws.received = u64::MAX - 1;
        let mut big = h;
        big.len = u64::MAX;
        assert_eq!(ws.accept(&big), Err(ProtoViolation::Overrun));
    }
}
