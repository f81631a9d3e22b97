//! The client transport: a session drives its own sockets on the caller's
//! thread.
//!
//! A [`Mux`] is a plain struct its session owns: a [`Reactor`], a
//! [`TimerWheel`], one non-blocking connection per node and the table of
//! requests owed an answer. No thread sits behind it. [`Mux::submit`]
//! encodes a request into its node's write buffer and returns a [`Slot`];
//! [`Mux::wait`], [`Mux::wait_any`], [`Mux::pause`] and [`Mux::poll`] run
//! reactor turns on the caller's thread — read replies, flush write
//! buffers, fire due timers — until their slots settle or their deadline
//! passes. Frames are sent when the caller waits, not at every submit:
//! each turn writes every node's unsent bytes before it polls and again
//! before it returns, and a submit writes only once its node's buffer
//! holds [`READ_CHUNK`] bytes (the daemon's read size), so a bulk frame
//! leaves at once and a pipelined batch of small ones in one `send`
//! (DESIGN.md §17). Requests are pipelined (many in flight per
//! connection, replies matched FIFO by request id), and all timing (retry
//! backoff, shed hints, response timeouts) runs on the wheel, whose timers
//! fall due during whichever call runs the next turn (DESIGN.md §17). A
//! session is exactly one connection per node, dialed with a non-blocking
//! `connect` that completes on a writable event.
//!
//! # The per-request ladder
//!
//! Transport failures on retry-safe requests (everything except
//! `Shutdown` — stamped writes are deduplicated by the daemon, everything
//! else is naturally idempotent) are retried over a fresh connection with
//! capped, jittered exponential backoff ([`RetryPolicy`]), each retry
//! spending from the session [`RetryBudget`]; a request that dies on a
//! fresh connection resets its backoff (the peer is back). Protocol
//! errors are never retried: the daemon meant them. A [`Deadline`] vetoes
//! every (re)send that would start after expiry, and `Busy`/`Overloaded`
//! sheds are retried after their hinted delay.
//!
//! # Chunking
//!
//! A `Write` larger than the daemon's advertised
//! `max_chunk` (learned from a one-time `Ping` probe) is streamed as
//! `WriteChunk` frames with [`CHUNK_WINDOW`] in flight; a stream that died
//! mid-way asks `ResumeQuery` how far it got before retrying. Callers see
//! a plain `WriteOk` either way. `PF_NET_CHUNK` lowers the chunk size
//! (`0` disables chunking). Reads are always one `Read`/`Data` exchange,
//! bounded by the same frame cap as `Fetch`.
//!
//! # Ordering
//!
//! Requests are pipelined, but the queue *stalls* whenever its head is
//! parked for a retry, so cross-request reordering is confined to
//! requests already on the wire when a connection fails — DESIGN.md §17
//! argues why the session's invariants tolerate that window.
//!
//! # Idle connections
//!
//! Nobody reads a connection between calls, so a daemon that reaped it
//! for idleness leaves its EOF unread. Before a request goes onto a
//! connection that has been silent for a millisecond, one non-blocking turn
//! runs: the EOF retires the connection, and the request dials a fresh one
//! instead of dying on the old one and spending a retry.

// Runs on the event loop: nothing here may block it (clippy.toml lists the
// banned calls).
#![deny(clippy::disallowed_methods)]

use crate::backoff::Backoff;
use crate::error::{ErrCode, NetError, ProtocolError};
use crate::proto::ChunkSender;
use crate::reactor::{Clock, Event, Interest, MonotonicClock, Reactor, TimerId, TimerWheel};
use crate::resilience::{Deadline, RetryBudget};
use crate::server::{NetStream, Peer};
use crate::wire::{self, Filled, FrameBuf, Lent, Reply, Request, DEFAULT_MAX_FRAME, READ_CHUNK};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-flight `WriteChunk` frames per connection before the sender waits
/// for an acknowledgment. Small by design: the point is overlapping the
/// encode/send of chunk *n+1* with the server's journal+scatter of chunk
/// *n*, not unbounded buffering.
pub const CHUNK_WINDOW: usize = 4;

/// Retry/backoff policy for idempotent requests.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total connection attempts per request (1 = no retry).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff cap (doubling stops here).
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The backoff schedule this policy prescribes, jitter-seeded by
    /// `seed` (a peer identity, so distinct clients desynchronize).
    #[must_use]
    pub fn backoff(&self, seed: u64) -> Backoff {
        Backoff::new(self.base_delay, self.max_delay, seed)
    }
}

/// How long a sent request may wait for its reply before the connection
/// is declared dead.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Milliseconds of silence after which a connection is checked for a
/// pending EOF before a request goes onto it (see the module docs).
const QUIET_MS: u64 = 1;

/// Names one submitted request until its terminal result is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(u64);

fn deadline_error() -> NetError {
    NetError::Protocol(ProtocolError::new(
        ErrCode::DeadlineExceeded,
        "deadline expired on the client before the request could be (re)sent",
    ))
}

/// Rounds a duration up to whole milliseconds (so sub-ms waits stay waits).
fn dur_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(u64::from(!d.is_zero()))
}

fn io_error(why: String) -> NetError {
    NetError::Io(std::io::Error::other(why))
}

/// Why a frame was sent: decides how its reply (or its loss) is handled.
enum Kind {
    /// An ordinary submitted request, kept for re-sending; its terminal
    /// result settles its slot.
    Plain(Request),
    /// The one-time `Ping` capability probe; stalls the queue until
    /// answered, failures land on the queue head that wanted it.
    Probe,
    /// A `ResumeQuery` for the active write stream.
    Resume,
    /// One `WriteChunk` of the active write stream.
    Chunk {
        /// Whether this chunk closes the stream (answered by `WriteOk`).
        last: bool,
    },
}

/// One request the mux owes an answer for (queued or on the wire).
struct Pending {
    /// Unique per mux; a plain request's slot id.
    serial: u64,
    kind: Kind,
    /// Attempts consumed so far; the request fails at `attempts_max`.
    attempt: u32,
    attempts_max: u32,
    backoff: Backoff,
    sent_id: u64,
    expire: Option<TimerId>,
}

impl Pending {
    /// The request a plain pending (re)sends; internal frames are encoded
    /// once, when sent, and keep nothing.
    fn request(&self) -> Option<&Request> {
        match &self.kind {
            Kind::Plain(request) => Some(request),
            Kind::Probe | Kind::Resume | Kind::Chunk { .. } => None,
        }
    }

    /// An internal frame (probe / resume / chunk): no slot, no retries of
    /// its own — failures are charged to the request it serves.
    fn internal(serial: u64, kind: Kind, backoff: Backoff) -> Self {
        Pending { serial, kind, attempt: 0, attempts_max: 1, backoff, sent_id: 0, expire: None }
    }

    /// Whether this is the request behind `slot`.
    fn holds(&self, slot: Slot) -> bool {
        self.serial == slot.0 && matches!(self.kind, Kind::Plain(_))
    }
}

/// An in-progress chunked write: owns the head request while its chunks
/// stream; the queue stalls behind it (one stream per connection).
struct StreamState {
    req: Pending,
    /// `None` while the `ResumeQuery` round-trip is outstanding.
    sender: Option<ChunkSender>,
    /// Whole chunks fast-forwarded past by a `ResumeAt` answer.
    skip: u64,
    chunk: usize,
    total: u64,
    n_chunks: u64,
}

enum ConnState {
    Idle,
    /// A non-blocking connect is in flight; it completes on a writable
    /// event.
    Connecting(NetStream),
    Ready(NetStream),
}

/// Everything the mux tracks per node.
struct NodeMux {
    addr: String,
    seed: u64,
    conn: ConnState,
    /// Resolved addresses the current dial has still to try.
    peers: VecDeque<Peer>,
    /// True until the connection delivers its first reply — a request
    /// dying on a fresh connection resets its backoff (the peer is back;
    /// the widened schedule is stale).
    fresh: bool,
    /// Clock reading when the connection last delivered a reply (or
    /// connected).
    heard_ms: u64,
    /// The peer's advertised chunk capability (`Pong.max_chunk`), learned
    /// from the one-time probe. `None` = not yet probed; `Some(0)` = the
    /// peer does not chunk.
    peer_max_chunk: Option<u32>,
    /// `PF_NET_CHUNK`: `Some(0)` disables chunking, `Some(n)` caps chunk
    /// data at `n` bytes, `None` uses the peer's advertised capability.
    chunk_override: Option<u32>,
    /// The `(session, seq)` stamp of a chunked write that died mid-stream,
    /// eligible for a `ResumeQuery` before its retry.
    resume_candidate: Option<(u64, u64)>,
    probe_inflight: bool,
    /// Test hook: the next request submitted for this node fails with an
    /// I/O error and resets the connection.
    kill_next: bool,
    next_id: u64,
    max_frame: u32,
    /// Not yet on the wire, head first.
    queue: VecDeque<Pending>,
    /// On the wire awaiting replies, FIFO — the daemon answers in order.
    inflight: VecDeque<Pending>,
    stream: Option<StreamState>,
    /// `Some(epoch)` while the queue is parked for a retry/backoff wait;
    /// the matching `Resend` timer un-parks it.
    park: Option<u64>,
    park_seq: u64,
    rx: FrameBuf,
    wbuf: Vec<u8>,
    wstart: usize,
    interest: Interest,
}

impl NodeMux {
    fn new(addr: String) -> Self {
        // FNV-1a over the address: the jitter seed that desynchronizes
        // same-process clients of different daemons.
        let seed = addr.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        NodeMux {
            addr,
            seed,
            conn: ConnState::Idle,
            peers: VecDeque::new(),
            fresh: true,
            heard_ms: 0,
            peer_max_chunk: None,
            chunk_override: std::env::var("PF_NET_CHUNK").ok().and_then(|v| v.trim().parse().ok()),
            resume_candidate: None,
            probe_inflight: false,
            kill_next: false,
            next_id: 1,
            max_frame: DEFAULT_MAX_FRAME,
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            stream: None,
            park: None,
            park_seq: 0,
            rx: FrameBuf::new(DEFAULT_MAX_FRAME),
            wbuf: Vec::new(),
            wstart: 0,
            interest: Interest::READ,
        }
    }

    /// The chunk data size to use against this peer right now (`0` =
    /// send monolithic): the daemon's advertised cap, lowered by
    /// `PF_NET_CHUNK`, and always small enough to fit a frame.
    fn effective_chunk(&self) -> u32 {
        if self.chunk_override == Some(0) {
            return 0;
        }
        let cap = self.peer_max_chunk.unwrap_or(0);
        if cap == 0 {
            return 0;
        }
        let want = self.chunk_override.unwrap_or(cap).min(cap);
        want.clamp(1, self.max_frame.saturating_sub(64).max(1))
    }

    fn pending_bytes(&self) -> usize {
        self.wbuf.len() - self.wstart
    }

    /// Whether `slot`'s request is queued, on the wire or streaming here.
    fn owes(&self, slot: Slot) -> bool {
        self.queue
            .iter()
            .chain(&self.inflight)
            .chain(self.stream.as_ref().map(|st| &st.req))
            .any(|p| p.holds(slot))
    }
}

/// Timer payloads.
enum Timed {
    /// Un-park `node`'s queue (retry backoff or shed hint elapsed).
    Resend { node: usize, epoch: u64 },
    /// A sent request ran out of response time.
    Expire { node: usize, serial: u64 },
}

/// What `pump` decided to do next for a node.
enum Act {
    Done,
    Connect,
    Stream,
    Probe,
    StartStream(usize),
    SendHead,
    DropExpiredHead,
}

/// The multiplexed transport: submit requests for any node, then wait for
/// their slots. One instance serves a whole session.
pub struct Mux {
    /// `None` when the OS refused a selector: every submit then fails with
    /// an I/O error, which the session's failover paths treat like any
    /// unreachable transport.
    reactor: Option<Reactor>,
    events: Vec<Event>,
    clock: MonotonicClock,
    wheel: TimerWheel<Timed>,
    nodes: Vec<NodeMux>,
    deadline: Deadline,
    policy: RetryPolicy,
    budget: Arc<RetryBudget>,
    serial: u64,
    /// Terminal results not yet taken, by slot.
    settled: HashMap<u64, Result<Reply, NetError>>,
}

impl Mux {
    /// A transport for `addrs` (index = node number). Nothing is dialed
    /// until the first request for a node.
    #[must_use]
    pub fn new(addrs: &[String], budget: Arc<RetryBudget>) -> Self {
        Mux {
            reactor: Reactor::new().ok(),
            events: Vec::new(),
            clock: MonotonicClock::new(),
            wheel: TimerWheel::new(),
            nodes: addrs.iter().cloned().map(NodeMux::new).collect(),
            deadline: Deadline::none(),
            policy: RetryPolicy::default(),
            budget,
            serial: 0,
            settled: HashMap::new(),
        }
    }

    /// Queues `request` for `node` and encodes it into the node's write
    /// buffer, which is written now only if it holds [`READ_CHUNK`] bytes,
    /// else by the next turn (module docs). Returns the slot its single
    /// terminal result settles; never blocks (in-flight depth is bounded by
    /// the daemon's admission control, not a client queue). The result
    /// stays in the mux until [`wait`](Self::wait) or [`poll`](Self::poll)
    /// takes it.
    pub fn submit(&mut self, node: usize, request: Request) -> Result<Slot, NetError> {
        if node >= self.nodes.len() {
            return Err(NetError::Usage(format!("node {node} out of range")));
        }
        if self.reactor.is_none() {
            return Err(io_error("the OS refused the transport a selector".into()));
        }
        let serial = self.next_serial();
        if std::mem::take(&mut self.nodes[node].kill_next) {
            self.settled
                .insert(serial, Err(io_error(format!("node {node} request killed by fault hook"))));
            self.fail_conn(node, "connection killed by fault hook");
            return Ok(Slot(serial));
        }
        self.notice_reaped(node);
        let attempts_max = if request.retry_safe() { self.policy.attempts.max(1) } else { 1 };
        let backoff = self.policy.backoff(self.nodes[node].seed ^ serial);
        self.nodes[node].queue.push_back(Pending {
            serial,
            kind: Kind::Plain(request),
            attempt: 0,
            attempts_max,
            backoff,
            sent_id: 0,
            expire: None,
        });
        self.pump(node);
        Ok(Slot(serial))
    }

    /// Runs reactor turns until `slot` settles, and takes its result.
    pub fn wait(&mut self, slot: Slot) -> Result<Reply, NetError> {
        if !self.owes(slot) {
            return Err(NetError::Usage(format!("slot {} is not owed by this transport", slot.0)));
        }
        loop {
            if let Some(result) = self.settled.remove(&slot.0) {
                return result;
            }
            self.turn(None);
        }
    }

    /// Runs reactor turns until one of `slots` settles (returned, its
    /// result left for [`wait`](Self::wait) to take) or `until` passes
    /// (`None`).
    pub fn wait_any(&mut self, slots: &[Slot], until: Option<Instant>) -> Option<Slot> {
        loop {
            if let Some(&done) = slots.iter().find(|s| self.settled.contains_key(&s.0)) {
                return Some(done);
            }
            if !slots.iter().any(|&s| self.owes(s)) {
                return None;
            }
            let timeout = match until {
                None => None,
                Some(t) => match t.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return None,
                },
            };
            self.turn(timeout);
        }
    }

    /// Runs reactor turns until `until` passes, as [`wait_any`](Self::wait_any)
    /// does with no slot: a backoff during which every connection moves.
    pub fn pause(&mut self, until: Instant) {
        while let Some(left) = until.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
        {
            self.turn(Some(left));
        }
    }

    /// Hands back a consumed `Data` payload: `node`'s next bulk reply that
    /// fits is received into it ([`FrameBuf::recycle`]).
    pub fn recycle(&mut self, node: usize, payload: Vec<u8>) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.rx.recycle(payload);
        }
    }

    /// Takes `slot`'s result if it has settled, after one non-blocking
    /// turn when it had not yet.
    pub fn poll(&mut self, slot: Slot) -> Option<Result<Reply, NetError>> {
        if !self.settled.contains_key(&slot.0) {
            self.turn(Some(Duration::ZERO));
        }
        self.settled.remove(&slot.0)
    }

    /// One synchronous exchange: [`submit`](Self::submit), then
    /// [`wait`](Self::wait). What the recovery paths and the wire-level
    /// tests use.
    pub fn call(&mut self, node: usize, request: Request) -> Result<Reply, NetError> {
        let slot = self.submit(node, request)?;
        self.wait(slot)
    }

    /// Number of nodes this mux drives (its address-list arity).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Sets the one deadline every request of this mux follows: a queued
    /// request or retry that would start after it fails with
    /// `DeadlineExceeded`, every frame sent carries it, and every response
    /// timer or backoff armed from now on is clamped to it.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Arms a one-shot fault: the next request submitted for `node` fails
    /// with an I/O error and the node's connection is reset. Test hook.
    pub fn arm_kill(&mut self, node: usize) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.kill_next = true;
        }
    }

    fn owes(&self, slot: Slot) -> bool {
        self.settled.contains_key(&slot.0) || self.nodes.iter().any(|n| n.owes(slot))
    }

    fn next_serial(&mut self) -> u64 {
        self.serial += 1;
        self.serial
    }

    /// Settles a pending's terminal result and cancels its response timer.
    fn settle(&mut self, mut p: Pending, result: Result<Reply, NetError>) {
        if let Some(t) = p.expire.take() {
            let _ = self.wheel.cancel(t);
        }
        if matches!(p.kind, Kind::Plain(_)) {
            self.settled.insert(p.serial, result);
        }
    }

    /// One reactor turn on the caller's thread: wait up to `timeout`
    /// (`None` = no limit), and never past the next due timer, for
    /// readiness; handle every event; then fire the timers that fell due.
    fn turn(&mut self, timeout: Option<Duration>) {
        // A write that fails a connection may settle a slot: then look, not block.
        let settled = self.settled.len();
        self.flush_all();
        let timeout = if self.settled.len() > settled { Some(Duration::ZERO) } else { timeout };
        let timer = self.wheel.until_next(self.clock.now_ms()).map(Duration::from_millis);
        let timeout = match (timeout, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let Some(reactor) = self.reactor.as_mut() else { return };
        let mut events = std::mem::take(&mut self.events);
        if reactor.poll(&mut events, timeout).is_err() {
            self.events = events;
            self.fail_all("reactor poll failed");
            return;
        }
        for ev in &events {
            let n = ev.token;
            if n >= self.nodes.len() {
                continue;
            }
            if matches!(self.nodes[n].conn, ConnState::Connecting(_)) {
                self.on_dialed(n);
                continue;
            }
            if ev.readable || ev.error {
                self.on_readable(n);
            }
            if ev.writable {
                self.flush_node(n);
            }
        }
        self.events = events;
        self.fire_timers();
        self.flush_all();
    }

    /// Writes every node's unsent frames.
    fn flush_all(&mut self) {
        for n in 0..self.nodes.len() {
            if self.nodes[n].pending_bytes() > 0 {
                self.flush_node(n);
            }
        }
    }

    /// Runs one non-blocking turn before a request goes onto `n`'s
    /// connection when it has been silent for [`QUIET_MS`], so an EOF the
    /// daemon left there while nobody was reading retires it first.
    fn notice_reaped(&mut self, n: usize) {
        let node = &self.nodes[n];
        if matches!(node.conn, ConnState::Ready(_))
            && node.inflight.is_empty()
            && node.stream.is_none()
            && self.clock.now_ms() >= node.heard_ms + QUIET_MS
        {
            self.turn(Some(Duration::ZERO));
        }
    }

    /// Advances a node's send side as far as readiness and policy allow.
    fn pump(&mut self, n: usize) {
        loop {
            let act = {
                let node = &self.nodes[n];
                if node.park.is_some() {
                    Act::Done
                } else if node.stream.is_some() {
                    match node.conn {
                        ConnState::Ready(_) => Act::Stream,
                        _ => Act::Done, // a stream dies with its connection
                    }
                } else if node.queue.is_empty() {
                    Act::Done
                } else if self.deadline.expired() {
                    Act::DropExpiredHead
                } else {
                    match node.conn {
                        ConnState::Idle => Act::Connect,
                        ConnState::Connecting(_) => Act::Done,
                        ConnState::Ready(_) => {
                            let head = node.queue[0].request();
                            let chunkable =
                                matches!(head, Some(Request::Write { .. } | Request::Read { .. }));
                            if chunkable
                                && node.chunk_override != Some(0)
                                && node.peer_max_chunk.is_none()
                            {
                                if node.probe_inflight {
                                    Act::Done
                                } else {
                                    Act::Probe
                                }
                            } else {
                                let chunk = node.effective_chunk() as usize;
                                match head {
                                    Some(Request::Write { payload, .. })
                                        if chunk > 0 && payload.len() > chunk =>
                                    {
                                        Act::StartStream(chunk)
                                    }
                                    _ => Act::SendHead,
                                }
                            }
                        }
                    }
                }
            };
            match act {
                Act::Done => break,
                Act::Connect => {
                    self.start_connect(n);
                    break;
                }
                Act::Stream => {
                    self.pump_stream(n);
                    break;
                }
                Act::Probe => {
                    let serial = self.next_serial();
                    let backoff = self.policy.backoff(self.nodes[n].seed ^ serial);
                    let p = Pending::internal(serial, Kind::Probe, backoff);
                    self.nodes[n].probe_inflight = true;
                    self.send_frame(n, p, &Request::Ping);
                    break; // the queue stalls until the probe resolves
                }
                Act::StartStream(chunk) => {
                    self.start_stream(n, chunk);
                    self.pump_stream(n);
                    break;
                }
                Act::SendHead => {
                    let Some(p) = self.nodes[n].queue.pop_front() else { break };
                    if let Some(request) = p.request() {
                        let sent = self.encode_frame(n, request.opcode(), |d, out| {
                            request.append_payload(d, out);
                        });
                        self.track(n, p, sent);
                    }
                }
                Act::DropExpiredHead => {
                    let Some(p) = self.nodes[n].queue.pop_front() else { break };
                    self.settle(p, Err(deadline_error()));
                }
            }
        }
        if self.nodes[n].pending_bytes() >= READ_CHUNK {
            self.flush_node(n);
        }
    }

    /// Encodes one frame in place into the node's write buffer —
    /// `body(deadline_ms, out)` appends its payload — and returns the
    /// request id it went out under.
    fn encode_frame(&mut self, n: usize, opcode: u8, body: impl FnOnce(u32, &mut Vec<u8>)) -> u64 {
        let deadline_ms = self.deadline.wire_ms();
        let node = &mut self.nodes[n];
        let id = node.next_id;
        node.next_id += 1;
        wire::append_frame(&mut node.wbuf, opcode, id, |out| body(deadline_ms, out));
        id
    }

    /// Arms the response timer of `p`, just encoded as `sent`, and moves
    /// it to the in-flight queue.
    fn track(&mut self, n: usize, mut p: Pending, sent_id: u64) {
        let expire_at = self.clock.now_ms() + dur_ms(self.deadline.clamp_timeout(RESPONSE_TIMEOUT));
        let tid = self.wheel.schedule(expire_at, Timed::Expire { node: n, serial: p.serial });
        p.sent_id = sent_id;
        p.expire = Some(tid);
        self.nodes[n].inflight.push_back(p);
    }

    /// [`encode_frame`](Self::encode_frame) + [`track`](Self::track) for an
    /// internal frame, whose small `request` lives outside its pending.
    fn send_frame(&mut self, n: usize, p: Pending, request: &Request) {
        let sent = self.encode_frame(n, request.opcode(), |d, out| {
            request.append_payload(d, out);
        });
        self.track(n, p, sent);
    }

    /// Pops the queue head into a chunked write stream, issuing a
    /// `ResumeQuery` first when a prior attempt of the same stamp died
    /// mid-stream.
    fn start_stream(&mut self, n: usize, chunk: usize) {
        // With no head there is no stream, and `pump_stream` finds none.
        let Some(p) = self.nodes[n].queue.pop_front() else { return };
        let Some(&Request::Write { file, session, seq, ref payload, .. }) = p.request() else {
            // Unreachable by construction; settle rather than wedge.
            self.settle(p, Err(NetError::BadReply("stream over a non-write".into())));
            return;
        };
        let total = payload.len() as u64;
        let n_chunks = payload.len().div_ceil(chunk).max(1) as u64;
        let node = &self.nodes[n];
        let want_resume = session != 0 && node.resume_candidate == Some((session, seq));
        let sender =
            if want_resume { None } else { Some(ChunkSender::new(n_chunks, CHUNK_WINDOW as u64)) };
        self.nodes[n].stream =
            Some(StreamState { req: p, sender, skip: 0, chunk, total, n_chunks });
        if want_resume {
            let serial = self.next_serial();
            let backoff = self.policy.backoff(self.nodes[n].seed ^ serial);
            let rq = Request::ResumeQuery { file, session, seq };
            self.send_frame(n, Pending::internal(serial, Kind::Resume, backoff), &rq);
        }
    }

    /// Feeds the active write stream's send window, encoding each chunk
    /// straight from its slice of the parent request's payload.
    fn pump_stream(&mut self, n: usize) {
        // The stream steps out of its node while frames are encoded from
        // the payload it owns; nothing below looks for it there.
        let Some(mut st) = self.nodes[n].stream.take() else { return };
        while let Some(plan) = st.sender.as_ref().and_then(ChunkSender::next_to_send) {
            let Some(&Request::Write { file, compute, l_s, r_s, session, seq, ref payload }) =
                st.req.request()
            else {
                break;
            };
            let off = (plan.index + st.skip) as usize * st.chunk;
            let bulk = &payload[off..(off + st.chunk).min(payload.len())];
            let (offset, total, last) = (off as u64, st.total, plan.last);
            let data = Vec::new();
            let head = Request::WriteChunk {
                file,
                compute,
                l_s,
                r_s,
                session,
                seq,
                offset,
                total,
                last,
                data,
            };
            let chunk = Lent { head, bulk };
            let serial = self.next_serial();
            let backoff = self.policy.backoff(self.nodes[n].seed ^ serial);
            let p = Pending::internal(serial, Kind::Chunk { last }, backoff);
            let sent = self.encode_frame(n, chunk.head.opcode(), |d, out| {
                chunk.append_payload(d, out);
            });
            self.track(n, p, sent);
            if let Some(sender) = st.sender.as_mut() {
                sender.record_send();
            }
        }
        self.nodes[n].stream = Some(st);
        self.flush_node(n);
    }

    // -- connection lifecycle ------------------------------------------------

    /// Resolves the node's address and dials the first peer it names.
    fn start_connect(&mut self, n: usize) {
        match Peer::resolve(&self.nodes[n].addr) {
            Ok(peers) => {
                self.nodes[n].peers = peers.into();
                self.dial_next(n, "the address resolved to nothing".into());
            }
            Err(e) => self.connect_failed(n, &format!("could not resolve the address: {e}")),
        }
    }

    /// Starts a non-blocking connect to the next resolved peer of `n`.
    /// When none is left the dial has failed, with `why` the last reason.
    fn dial_next(&mut self, n: usize, mut why: String) {
        while let Some(peer) = self.nodes[n].peers.pop_front() {
            let (stream, connected) = match NetStream::dial(&peer) {
                Ok(dialed) => dialed,
                Err(e) => {
                    why = format!("connect failed: {e}");
                    continue;
                }
            };
            let interest = if connected { Interest::READ } else { Interest::WRITE };
            let registered = match self.reactor.as_mut() {
                Some(r) => r.register(stream.as_raw_fd(), n, interest),
                None => Err(std::io::Error::other("no reactor")),
            };
            if let Err(e) = registered {
                why = format!("could not register the connection: {e}");
                continue;
            }
            self.nodes[n].interest = interest;
            if connected {
                self.on_connected(n, stream);
            } else {
                self.nodes[n].conn = ConnState::Connecting(stream);
            }
            return;
        }
        self.nodes[n].conn = ConnState::Idle;
        self.connect_failed(n, &why);
    }

    /// A readiness event on a connecting socket: the connect finished one
    /// way or the other (or the event is stale and it goes on).
    fn on_dialed(&mut self, n: usize) {
        let ConnState::Connecting(stream) = &self.nodes[n].conn else { return };
        let outcome = stream.connect_outcome();
        if matches!(outcome, Ok(false)) {
            return;
        }
        let ConnState::Connecting(stream) =
            std::mem::replace(&mut self.nodes[n].conn, ConnState::Idle)
        else {
            return;
        };
        match outcome {
            Ok(_) => self.on_connected(n, stream),
            Err(e) => {
                self.deregister(&stream);
                self.dial_next(n, format!("connect failed: {e}"));
            }
        }
    }

    /// `stream`, registered under `n`, is connected: it becomes the node's
    /// connection and the queue starts moving.
    fn on_connected(&mut self, n: usize, stream: NetStream) {
        let now = self.clock.now_ms();
        let node = &mut self.nodes[n];
        node.conn = ConnState::Ready(stream);
        node.peers.clear();
        node.fresh = true;
        node.heard_ms = now;
        node.rx.clear();
        node.wbuf.clear();
        node.wstart = 0;
        self.pump(n);
    }

    fn deregister(&mut self, stream: &NetStream) {
        if let Some(r) = self.reactor.as_mut() {
            let _ = r.deregister(stream.as_raw_fd());
        }
    }

    /// A connect attempt failed: every queued request pays one attempt
    /// and the survivors wait out the head's backoff before the next
    /// dial.
    fn connect_failed(&mut self, n: usize, why: &str) {
        let queued: Vec<Pending> = self.nodes[n].queue.drain(..).collect();
        let mut survivors = Vec::new();
        for p in queued {
            if let Some(p) = self.charge_attempt(n, p, false, why) {
                survivors.push(p);
            }
        }
        self.nodes[n].queue = survivors.into();
        self.park_head(n);
    }

    /// Charges one attempt to `p` after a transport failure; settles it
    /// when attempts or the retry budget run out, returns it otherwise.
    fn charge_attempt(
        &mut self,
        n: usize,
        mut p: Pending,
        was_fresh: bool,
        why: &str,
    ) -> Option<Pending> {
        if let Some(t) = p.expire.take() {
            let _ = self.wheel.cancel(t);
        }
        p.attempt += 1;
        if p.attempt >= p.attempts_max || !self.budget.try_spend() {
            self.settle(p, Err(io_error(format!("node {n}: {why}"))));
            return None;
        }
        if was_fresh {
            p.backoff.reset();
        }
        Some(p)
    }

    /// Tears down `n`'s connection. In-flight plain requests ride the
    /// retry ladder; probe/resume/chunk frames are dropped (the requests
    /// they serve retry as a whole); an active stream records its resume
    /// candidate. Survivors requeue at the front in their original order.
    fn fail_conn(&mut self, n: usize, why: &str) {
        match std::mem::replace(&mut self.nodes[n].conn, ConnState::Idle) {
            ConnState::Ready(stream) | ConnState::Connecting(stream) => self.deregister(&stream),
            ConnState::Idle => {}
        }
        let (was_fresh, inflight, stream) = {
            let node = &mut self.nodes[n];
            node.rx.clear();
            node.wbuf.clear();
            node.wstart = 0;
            node.probe_inflight = false;
            node.interest = Interest::READ;
            (node.fresh, node.inflight.drain(..).collect::<Vec<_>>(), node.stream.take())
        };
        let mut survivors = Vec::new();
        for mut p in inflight {
            match p.kind {
                Kind::Plain(_) => {
                    if let Some(p) = self.charge_attempt(n, p, was_fresh, why) {
                        survivors.push(p);
                    }
                }
                Kind::Probe | Kind::Resume | Kind::Chunk { .. } => {
                    if let Some(t) = p.expire.take() {
                        let _ = self.wheel.cancel(t);
                    }
                }
            }
        }
        if let Some(st) = stream {
            self.note_stream_resume(n, &st.req);
            if let Some(p) = self.charge_attempt(n, st.req, was_fresh, why) {
                survivors.push(p);
            }
        }
        for p in survivors.into_iter().rev() {
            self.nodes[n].queue.push_front(p);
        }
        self.park_head(n);
    }

    /// Parks the queue behind the head request's next backoff interval
    /// (no-op when already parked or empty) and arms the un-park timer.
    fn park_head(&mut self, n: usize) {
        let (epoch, delay) = {
            let node = &mut self.nodes[n];
            if node.park.is_some() {
                return;
            }
            let Some(head) = node.queue.front_mut() else { return };
            let delay = head.backoff.next_delay();
            let epoch = node.park_seq;
            node.park_seq += 1;
            node.park = Some(epoch);
            (epoch, delay)
        };
        let at = self.clock.now_ms() + dur_ms(self.deadline.clamp_timeout(delay));
        self.wheel.schedule(at, Timed::Resend { node: n, epoch });
    }

    /// Parks `p` at the queue front for `wait` (a shed's hinted delay).
    fn park_with(&mut self, n: usize, p: Pending, wait: Duration) {
        let epoch = {
            let node = &mut self.nodes[n];
            node.queue.push_front(p);
            let epoch = node.park_seq;
            node.park_seq += 1;
            node.park = Some(epoch);
            epoch
        };
        let at = self.clock.now_ms() + dur_ms(wait);
        self.wheel.schedule(at, Timed::Resend { node: n, epoch });
    }

    fn fail_all(&mut self, why: &str) {
        for n in 0..self.nodes.len() {
            let node = &mut self.nodes[n];
            let mut owed: Vec<Pending> = node.inflight.drain(..).collect();
            owed.extend(node.queue.drain(..));
            if let Some(st) = node.stream.take() {
                owed.push(st.req);
            }
            for p in owed {
                self.settle(p, Err(io_error(format!("node {n}: {why}"))));
            }
        }
    }

    // -- socket readiness ----------------------------------------------------

    fn flush_node(&mut self, n: usize) {
        let outcome = {
            let node = &mut self.nodes[n];
            let ConnState::Ready(stream) = &node.conn else { return };
            let mut sref = stream;
            let mut result: Result<(), String> = Ok(());
            while node.wstart < node.wbuf.len() {
                match sref.write(&node.wbuf[node.wstart..]) {
                    Ok(0) => {
                        result = Err("connection closed while writing".to_string());
                        break;
                    }
                    Ok(k) => node.wstart += k,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        result = Err(format!("write failed: {e}"));
                        break;
                    }
                }
            }
            if node.wstart >= node.wbuf.len() {
                node.wbuf.clear();
                node.wstart = 0;
            }
            result
        };
        if let Err(why) = outcome {
            self.fail_conn(n, &why);
            return;
        }
        // Keep write interest only while bytes are pending.
        let want =
            if self.nodes[n].pending_bytes() > 0 { Interest::READ_WRITE } else { Interest::READ };
        let node = &mut self.nodes[n];
        if node.interest != want {
            if let (ConnState::Ready(stream), Some(r)) = (&node.conn, self.reactor.as_mut()) {
                node.interest = want;
                let _ = r.reregister(stream.as_raw_fd(), n, want);
            }
        }
    }

    fn on_readable(&mut self, n: usize) {
        loop {
            let read = {
                let node = &mut self.nodes[n];
                let ConnState::Ready(stream) = &node.conn else { return };
                let mut sref = stream;
                node.rx.read_from(&mut sref)
            };
            match read {
                Ok(Filled::Eof) => {
                    // With nothing owed this is the daemon's idle timeout
                    // reaping a warm connection — fail_conn settles
                    // nothing and the node just goes Idle.
                    self.fail_conn(n, "daemon closed the connection before replying");
                    return;
                }
                Ok(filled) => {
                    // A short read drained the socket: the poll is
                    // level-triggered, so anything arriving later is
                    // reported again and a further read now could only
                    // answer WouldBlock.
                    if !self.drain_frames(n) || filled == Filled::Drained {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail_conn(n, &format!("read failed: {e}"));
                    return;
                }
            }
        }
    }

    /// Handles every complete frame the splitter holds. Returns `false`
    /// when the connection died while handling a reply.
    fn drain_frames(&mut self, n: usize) -> bool {
        loop {
            if !matches!(self.nodes[n].conn, ConnState::Ready(_)) {
                return false;
            }
            let (id, decoded) = match self.nodes[n].rx.next_frame() {
                Ok(None) => return true,
                Ok(Some(f)) => {
                    let decoded = Reply::decode_owned_at(f.version, f.opcode, f.payload)
                        .map_err(|e| e.to_string());
                    (f.request_id, decoded)
                }
                Err(e) => {
                    // Framing is broken: the waiting request gets the
                    // specific error; the connection is beyond resync.
                    if let Some(p) = self.nodes[n].inflight.pop_front() {
                        self.finish_bad(n, p, format!("reply {e}"));
                    }
                    self.fail_conn(n, "malformed reply frame");
                    return false;
                }
            };
            self.on_reply(n, id, decoded);
        }
    }

    // -- reply handling ------------------------------------------------------

    fn on_reply(&mut self, n: usize, id: u64, decoded: Result<Reply, String>) {
        let Some(mut p) = self.nodes[n].inflight.pop_front() else {
            self.fail_conn(n, "unsolicited reply frame");
            return;
        };
        if let Some(t) = p.expire.take() {
            let _ = self.wheel.cancel(t);
        }
        if id != p.sent_id {
            // Reply/request streams desynchronized: drop the connection
            // and retry everything it owed.
            self.nodes[n].inflight.push_front(p);
            self.fail_conn(n, &format!("reply id {id} did not match the request"));
            return;
        }
        let reply = match decoded {
            Ok(r) => r,
            Err(why) => {
                self.finish_bad(n, p, why);
                return;
            }
        };
        // Any decoded reply proves the connection works.
        self.nodes[n].fresh = false;
        self.nodes[n].heard_ms = self.clock.now_ms();
        if let Reply::Pong { max_chunk, .. } = &reply {
            self.nodes[n].peer_max_chunk = Some(*max_chunk);
        }
        match p.kind {
            Kind::Plain(_) => self.finish_plain(n, p, reply),
            Kind::Probe => self.finish_probe(n, reply),
            Kind::Resume => self.finish_resume(n, reply),
            Kind::Chunk { last } => self.finish_chunk(n, last, reply),
        }
    }

    /// A reply that could not be decoded: terminal `BadReply` for the
    /// request it answers (never retried), scoped by what that frame was.
    fn finish_bad(&mut self, n: usize, p: Pending, why: String) {
        match p.kind {
            Kind::Plain(_) => self.settle(p, Err(NetError::BadReply(why))),
            Kind::Probe => {
                self.nodes[n].probe_inflight = false;
                if let Some(head) = self.nodes[n].queue.pop_front() {
                    self.settle(head, Err(NetError::BadReply(why)));
                }
                self.pump(n);
            }
            Kind::Resume | Kind::Chunk { .. } => {
                self.abort_stream(n, NetError::BadReply(why));
            }
        }
    }

    fn finish_plain(&mut self, n: usize, p: Pending, reply: Reply) {
        match reply {
            Reply::Error(e) => self.settle(p, Err(NetError::Protocol(e))),
            Reply::Busy { retry_after_ms } => self.retry_shed(n, p, retry_after_ms, false),
            Reply::Overloaded { retry_after_ms } => self.retry_shed(n, p, retry_after_ms, true),
            other => {
                self.budget.record_success();
                self.settle(p, Ok(other));
            }
        }
    }

    /// A `Busy`/`Overloaded` shed: retry after the hinted delay if the
    /// ladder allows, surface [`NetError::Busy`] otherwise. `Overloaded`
    /// also drops the connection (the daemon is about to).
    fn retry_shed(&mut self, n: usize, mut p: Pending, hint_ms: u32, reconnect: bool) {
        p.attempt += 1;
        if p.attempt >= p.attempts_max || !self.budget.try_spend() {
            self.settle(p, Err(NetError::Busy { retry_after_ms: hint_ms }));
        } else {
            let wait = self.deadline.clamp_timeout(Duration::from_millis(u64::from(hint_ms)));
            self.park_with(n, p, wait);
        }
        if reconnect {
            self.fail_conn(n, "daemon shed the whole connection");
        }
    }

    fn finish_probe(&mut self, n: usize, reply: Reply) {
        self.nodes[n].probe_inflight = false;
        match reply {
            Reply::Pong { .. } => self.pump(n), // capability recorded in on_reply
            Reply::Error(e) => {
                if let Some(head) = self.nodes[n].queue.pop_front() {
                    self.settle(head, Err(NetError::Protocol(e)));
                }
                self.pump(n);
            }
            Reply::Busy { retry_after_ms } | Reply::Overloaded { retry_after_ms } => {
                let reconnect = matches!(reply, Reply::Overloaded { .. });
                if let Some(head) = self.nodes[n].queue.pop_front() {
                    self.retry_shed(n, head, retry_after_ms, reconnect);
                }
            }
            other => {
                if let Some(head) = self.nodes[n].queue.pop_front() {
                    let why = format!("expected Pong, got {other:?}");
                    self.settle(head, Err(NetError::BadReply(why)));
                }
                self.pump(n);
            }
        }
    }

    fn finish_resume(&mut self, n: usize, reply: Reply) {
        let node = &mut self.nodes[n];
        let Some(st) = node.stream.as_mut() else { return };
        // Only a clean, aligned, partial answer fast-forwards; anything
        // else restarts the stream at offset 0 — always safe.
        st.skip = match reply {
            Reply::ResumeAt { offset }
                if offset > 0 && offset < st.total && offset % st.chunk as u64 == 0 =>
            {
                offset / st.chunk as u64
            }
            _ => 0,
        };
        st.sender = Some(ChunkSender::new(st.n_chunks - st.skip, CHUNK_WINDOW as u64));
        self.pump_stream(n);
    }

    fn finish_chunk(&mut self, n: usize, last: bool, reply: Reply) {
        match reply {
            Reply::ChunkOk { .. } if !last => {
                let ack = self.nodes[n]
                    .stream
                    .as_mut()
                    .and_then(|st| st.sender.as_mut())
                    .map(ChunkSender::record_ack);
                match ack {
                    Some(Err(v)) => self.abort_stream(n, NetError::BadReply(v.to_string())),
                    _ => self.pump_stream(n),
                }
            }
            Reply::WriteOk { .. } if last => {
                let Some(st) = self.nodes[n].stream.take() else { return };
                if let Some(&Request::Write { session, seq, .. }) = st.req.request() {
                    if self.nodes[n].resume_candidate == Some((session, seq)) {
                        self.nodes[n].resume_candidate = None;
                    }
                }
                self.budget.record_success();
                self.settle(st.req, Ok(reply));
                self.pump(n);
            }
            Reply::Error(e) => {
                let Some(st) = self.nodes[n].stream.take() else { return };
                self.note_stream_resume(n, &st.req);
                self.settle(st.req, Err(NetError::Protocol(e)));
                self.fail_conn(n, "chunk stream answered with an error");
            }
            Reply::Busy { retry_after_ms } | Reply::Overloaded { retry_after_ms } => {
                let Some(st) = self.nodes[n].stream.take() else { return };
                self.note_stream_resume(n, &st.req);
                self.retry_shed(n, st.req, retry_after_ms, true);
            }
            other => {
                self.abort_stream(
                    n,
                    NetError::BadReply(format!("chunk stream acknowledged with {other:?}")),
                );
            }
        }
    }

    /// Remembers an interrupted stamped stream for `ResumeQuery` on retry.
    fn note_stream_resume(&mut self, n: usize, head: &Pending) {
        if let Some(&Request::Write { session, seq, .. }) = head.request() {
            if session != 0 {
                self.nodes[n].resume_candidate = Some((session, seq));
            }
        }
    }

    /// Terminates the active stream with a terminal error and drops the
    /// (now desynchronized) connection.
    fn abort_stream(&mut self, n: usize, err: NetError) {
        if let Some(st) = self.nodes[n].stream.take() {
            self.note_stream_resume(n, &st.req);
            self.settle(st.req, Err(err));
        }
        self.fail_conn(n, "chunk stream aborted");
    }

    // -- timers --------------------------------------------------------------

    fn fire_timers(&mut self) {
        let now = self.clock.now_ms();
        for (_, timed) in self.wheel.advance(now) {
            match timed {
                Timed::Resend { node, epoch } => {
                    if node < self.nodes.len() && self.nodes[node].park == Some(epoch) {
                        self.nodes[node].park = None;
                        self.pump(node);
                    }
                }
                Timed::Expire { node, serial } => {
                    if node < self.nodes.len()
                        && self.nodes[node].inflight.iter().any(|p| p.serial == serial)
                    {
                        self.fail_conn(node, "timed out waiting for the daemon's reply");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, DaemonConfig};
    use crate::session::{spawn_loopback, Session};
    use arraydist::matrix::MatrixLayout;
    use clusterfile::StorageBackend;

    fn one_node(addr: &str) -> Mux {
        Mux::new(&[addr.to_string()], Arc::new(RetryBudget::for_session()))
    }

    /// An address nothing listens on (bound, then dropped).
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    /// Spawns one daemon and registers an identity view (1 node, 16×16 =
    /// 256 bytes, physical = logical) so raw `Write { l_s, r_s }`
    /// requests address subfile bytes directly.
    fn identity_daemon() -> (Vec<crate::server::DaemonHandle>, Vec<String>, Session) {
        let physical = MatrixLayout::ColumnBlocks.partition(16, 16, 1, 1);
        let logical = MatrixLayout::ColumnBlocks.partition(16, 16, 1, 1);
        let (handles, addrs) =
            spawn_loopback(1, StorageBackend::Memory).expect("spawn loopback daemon");
        let mut session = Session::connect(&addrs);
        session.create_file(1, physical, 256).expect("create file");
        session.set_view(0, 1, &logical, 0).expect("set view");
        (handles, addrs, session)
    }

    fn write_req(i: u64) -> Request {
        Request::Write {
            file: 1,
            compute: 0,
            l_s: i * 2,
            r_s: i * 2 + 1,
            session: 0,
            seq: 0,
            payload: vec![i as u8, (i as u8) ^ 0xAB],
        }
    }

    fn fetch_bytes(reply: Reply) -> Vec<u8> {
        match reply {
            Reply::Data { payload } => payload,
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    fn ninety_six_in_flight_requests_match_the_serial_path_byte_for_byte() {
        // Pipelined half: submit 96 writes over ONE warm connection
        // before collecting a single reply, so the whole burst is in
        // flight (or queued behind the connection) at once.
        let (mut handles_m, addrs_m, session_m) = identity_daemon();
        let mut mux = one_node(&addrs_m[0]);
        let slots: Vec<Slot> =
            (0..96).map(|i| mux.submit(0, write_req(i)).expect("submit")).collect();
        for (i, slot) in slots.into_iter().enumerate() {
            match mux.wait(slot).expect("write reply") {
                Reply::WriteOk { written: 2, .. } => {}
                other => panic!("write {i}: unexpected reply {other:?}"),
            }
        }
        let fetched = fetch_bytes(mux.call(0, Request::Fetch { file: 1 }).expect("fetch"));

        // Serial half: the same 96 writes one `call` at a time against a
        // twin daemon.
        let (mut handles_s, addrs_s, session_s) = identity_daemon();
        let mut serial_mux = one_node(&addrs_s[0]);
        for i in 0..96 {
            match serial_mux.call(0, write_req(i)).expect("serial write") {
                Reply::WriteOk { written: 2, .. } => {}
                other => panic!("serial write {i}: unexpected reply {other:?}"),
            }
        }
        let serial =
            fetch_bytes(serial_mux.call(0, Request::Fetch { file: 1 }).expect("serial fetch"));

        assert_eq!(fetched, serial, "pipelined bytes must match the serial path");
        // And both match the analytically expected image.
        let mut expected = vec![0u8; 256];
        for i in 0..96u64 {
            expected[(i * 2) as usize] = i as u8;
            expected[(i * 2 + 1) as usize] = (i as u8) ^ 0xAB;
        }
        assert_eq!(fetched, expected);

        drop((session_m, session_s, mux, serial_mux));
        for h in handles_m.iter_mut().chain(handles_s.iter_mut()) {
            h.stop();
        }
    }

    #[test]
    fn an_out_of_range_node_is_a_usage_error() {
        let mut mux = one_node("127.0.0.1:1");
        assert!(matches!(mux.submit(7, Request::Ping), Err(NetError::Usage(_))));
    }

    #[test]
    fn retries_reconnect_after_daemon_restart() {
        // Bind on an OS-assigned port, talk, stop the daemon, restart it on
        // the same port, and check the retry ladder reconnects.
        let mut handle = serve("127.0.0.1:0", DaemonConfig::default()).expect("bind");
        let addr = handle.addr().to_string();
        let mut mux = one_node(&addr);
        let open = Request::Open { file: 1, subfile: 0, len: 8, tenant: 0 };
        assert_eq!(mux.call(0, open.clone()).expect("first open"), Reply::Ok);
        handle.stop();
        let _handle2 = serve(&addr, DaemonConfig::default()).expect("rebind");
        assert_eq!(
            mux.call(0, open).expect("open after restart retries onto the new daemon"),
            Reply::Ok
        );
    }

    #[test]
    fn connect_failure_is_io_after_retries() {
        let mut mux = one_node(&dead_addr());
        let err = mux.call(0, Request::Stat { file: 1 }).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
    }

    #[test]
    fn chunk_override_zero_disables_chunking() {
        // `PF_NET_CHUNK=0`: whatever the peer advertises, send monolithic.
        let mut node = NodeMux::new("127.0.0.1:1".to_string());
        node.peer_max_chunk = Some(4096);
        node.chunk_override = None;
        assert_eq!(node.effective_chunk(), 4096);
        node.chunk_override = Some(0);
        assert_eq!(node.effective_chunk(), 0);
    }

    #[test]
    fn retry_budget_caps_retries_across_calls() {
        // Nothing listens on this address; every attempt is a connect
        // failure. With a 1-token budget the first call gets exactly one
        // retry (policy would allow 3) and the second call gets none.
        let budget = Arc::new(RetryBudget::new(1, 0));
        let mut mux = Mux::new(&[dead_addr()], Arc::clone(&budget));
        let err = mux.call(0, Request::Stat { file: 1 }).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
        assert_eq!(budget.tokens(), 0, "the single token was spent");
        let start = std::time::Instant::now();
        let err = mux.call(0, Request::Stat { file: 1 }).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "dry budget fails fast instead of backing off through 3 retries"
        );
    }

    #[test]
    fn expired_deadline_fails_before_the_wire() {
        // The address is never contacted: an already-expired deadline is a
        // client-local typed error.
        let mut mux = one_node(&dead_addr());
        mux.set_deadline(Deadline::within(Duration::ZERO));
        match mux.call(0, Request::Stat { file: 1 }).unwrap_err() {
            NetError::Protocol(e) => assert_eq!(e.code, ErrCode::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // Clearing the deadline restores normal behavior (here: a connect
        // error after retries, not a deadline error).
        mux.set_deadline(Deadline::none());
        let err = mux.call(0, Request::Stat { file: 1 }).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
    }
}
