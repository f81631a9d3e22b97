//! The daemon's serving loop: one non-blocking event-loop thread that
//! accepts, reads, executes and replies for every connection, and owns
//! every hosted subfile (DESIGN.md §17).
//!
//! Each turn of the loop:
//!
//! 1. **polls** for readiness — with a zero timeout while parsed frames or
//!    a scrub pass are waiting, so work already read never starves
//!    accepts and reads;
//! 2. **reads** every readable connection into its `FrameBuf`, splits the
//!    stream into frames and stamps each frame's `received` instant (the
//!    deadline clock starts at receipt, before any queueing);
//! 3. **fires timers** from the [`TimerWheel`]: idle reaping, the release
//!    of a connection parked by an injected delay, and the scrub cadence;
//! 4. **dispatches** one pass over the deficit-round-robin ring of tenants
//!    ([`Drr`], DESIGN.md §18): a connection taken from it runs the frames
//!    it was charged for (at most [`WORKER_BURST`]), strictly in arrival
//!    order, through the prologue in [`execute`] and
//!    [`handle_frame`](super::Daemon::handle_frame). Replies are appended
//!    to the connection's write buffer, which is flushed once per burst,
//!    not once per reply;
//! 5. **scrubs** at most one `SCRUB_WINDOW_PAGES` window of one subfile.
//!
//! Nothing here sleeps or blocks except [`Reactor::poll`]: idle timeouts
//! and injected `delay` faults ride the timer wheel, so a delayed frame
//! stalls its own connection, never the event loop. Backpressure is
//! bounded at both edges: a connection with [`FRAME_QUEUE_DEPTH`] parsed
//! frames has its read interest dropped (TCP pushes back to the client)
//! until dispatch drains it below half, and a slow reader whose unsent
//! replies exceed [`WRITE_BUF_CAP`] is skipped by dispatch until its
//! socket drains.
//!
//! Every per-frame semantic the model checker and chaos suite pin down —
//! `Busy`/`Overloaded` shedding, journal-before-ack, exactly-once stamps,
//! reply truncation and kill faults — lives in
//! [`handle_frame`](super::Daemon::handle_frame) and the frame prologue in
//! [`execute`].

// Runs on the event loop: nothing here may block it (clippy.toml lists the
// banned calls).
#![deny(clippy::disallowed_methods)]

use super::{ChunkWrite, Daemon, NetListener, NetStream, OVERLOADED_RETRY_MS};
use crate::error::ProtocolError;
use crate::fault::FrameFault;
use crate::reactor::{Clock, Event, Interest, MonotonicClock, Reactor, TimerId, TimerWheel};
use crate::wire::{self, Filled, FrameBuf, Reply, WireError, PROTOCOL_VERSION};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::time::{Duration, Instant};

/// Reactor token of the listening socket; connections start above it.
const LISTENER_TOKEN: usize = 0;

/// Parsed frames buffered per connection before its read interest is
/// dropped (flow control propagates to the client through TCP).
const FRAME_QUEUE_DEPTH: usize = 32;

/// Queue length at which a paused connection's reads resume.
const FRAME_QUEUE_RESUME: usize = FRAME_QUEUE_DEPTH / 2;

/// Unsent reply bytes per connection beyond which dispatch skips it until
/// the socket drains (slow-reader backpressure).
const WRITE_BUF_CAP: usize = 1 << 20;

/// Frames one dispatch runs for a connection before moving on, so a blast
/// from one client cannot monopolize the loop; also the DRR quantum.
const WORKER_BURST: usize = 16;

/// Bursts a connection with frames left may run on consecutive turns of
/// its tenant before it yields to the tenant's other connections. Plain
/// rotation among one tenant's connections finishes their pipelined
/// batches in lockstep, so the tenant then has nothing queued while all
/// its clients turn around at once and its share goes to the others; a
/// run of 8 bursts (128 frames) lets one batch finish before the next
/// connection's starts, which staggers them, and still bounds how long
/// the tenant's other connections wait.
const CONN_RUN: usize = 8;

/// How long a shed (over-capacity) connection may sit before it is
/// reaped without delivering its `Overloaded` verdict.
const SHED_TIMEOUT: Duration = Duration::from_secs(2);

/// One frame split off a connection, waiting for dispatch.
struct QueuedFrame {
    version: u8,
    opcode: u8,
    request_id: u64,
    payload: Vec<u8>,
    /// Receipt instant — the deadline clock starts here, *before* any
    /// queueing or injected delay, so a slow daemon burns the budget.
    received: Instant,
    /// 1-based frame ordinal on this connection (the fault injector's
    /// per-connection frame counter).
    seqno: u64,
}

/// What the loop's timer wheel wakes it for.
#[derive(Debug, Clone, Copy)]
enum Timer {
    /// A connection's idle budget ran out.
    Idle(usize),
    /// A connection parked by an injected delay may run its frame.
    Release(usize),
    /// The next scrub pass is due.
    Scrub,
}

/// One connection, owned by the loop.
struct Conn {
    stream: NetStream,
    /// Inbound bytes and the frames split out of them.
    rx: FrameBuf,
    /// Parsed frames waiting for dispatch, in arrival order.
    frames: VecDeque<QueuedFrame>,
    frames_seen: u64,
    /// Tenant id learned from the connection's last `Open` frame (0 until
    /// one arrives): the DRR dispatch key.
    tenant: u32,
    /// Accepted over `max_connections`: the first frame is answered
    /// `Overloaded` and the connection closed.
    shed: bool,
    /// In-progress chunked write (one stream per connection).
    chunk: Option<ChunkWrite>,
    /// A framing-level protocol error (oversized/undersized frame),
    /// answered after the frames parsed before it; then the connection
    /// closes.
    fatal: Option<ProtocolError>,
    /// Reply bytes; `out[sent..]` has not reached the socket yet.
    out: Vec<u8>,
    sent: usize,
    /// Close once `out` drains (shutdown-with-reply, shed verdicts,
    /// injected drops and truncations, framing errors).
    closing: bool,
    /// Reads stopped because `frames` hit [`FRAME_QUEUE_DEPTH`].
    paused: bool,
    /// Reads stopped for good (framing error, or closing).
    draining: bool,
    /// The connection holds a slot in the dispatch queue, charged this
    /// many frames: its next burst runs no more than it paid for.
    queued: Option<usize>,
    /// Parked by an injected delay until this timer fires; the held frame
    /// stays at the front of `frames`.
    held: Option<TimerId>,
    /// The held frame's fault verdict, drawn when its delay began.
    verdict: Option<FrameFault>,
    /// Bursts run on consecutive turns of the tenant (see [`CONN_RUN`]).
    run: usize,
    idle_timer: Option<TimerId>,
    /// Idle budget (read timeout; [`SHED_TIMEOUT`] for shed connections).
    timeout: Option<Duration>,
    /// Loop clock at the last read that delivered bytes: the idle timer,
    /// when it fires, re-arms itself from here instead of every read
    /// moving it.
    last_read_ms: u64,
    interest: Interest,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.out.len() - self.sent
    }

    fn has_work(&self) -> bool {
        !self.frames.is_empty() || self.fatal.is_some()
    }

    /// Whether this connection should join the dispatch queue: it has
    /// frames to run, is not queued already, parked or closing, and its
    /// reader keeps up.
    fn runnable(&self) -> bool {
        self.has_work()
            && self.queued.is_none()
            && self.held.is_none()
            && !self.closing
            && self.unsent() <= WRITE_BUF_CAP
    }

    /// Writes as much unsent output as the socket takes right now;
    /// `false` when the socket is dead.
    fn flush(&mut self) -> bool {
        let mut w: &NetStream = &self.stream;
        while self.sent < self.out.len() {
            match w.write(&self.out[self.sent..]) {
                Ok(0) => return false,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        true
    }
}

/// One tenant's backlog inside the deficit-round-robin scheduler.
struct TenantQ<T> {
    /// Queued jobs with their service cost (frames ready at enqueue time).
    q: VecDeque<(T, u64)>,
    /// Unspent service credit from previous rounds.
    deficit: u64,
    /// The tenant currently occupies one slot of the round-robin ring.
    in_ring: bool,
}

/// Deficit round robin over tenant-keyed job queues (DESIGN.md §18).
///
/// Each tenant with backlog holds one slot in a round-robin ring. A `pop`
/// serves the ring head if its accumulated deficit covers the head job's
/// cost; otherwise the head earns one `quantum` of credit and rotates to
/// the tail. Costs are clamped to the quantum, so one recharge always
/// suffices and a visit never loops. Tenants leave the ring (and forfeit
/// unspent deficit) the moment their backlog drains — idle flows earn no
/// credit, the classic DRR anti-burst rule.
struct Drr<T> {
    tenants: HashMap<u32, TenantQ<T>>,
    ring: VecDeque<u32>,
    quantum: u64,
}

impl<T> Drr<T> {
    fn new(quantum: u64) -> Self {
        Self { tenants: HashMap::new(), ring: VecDeque::new(), quantum: quantum.max(1) }
    }

    fn push(&mut self, tenant: u32, item: T, cost: u64) {
        self.enqueue(tenant, item, cost, false);
    }

    /// [`push`](Self::push), but ahead of the tenant's other jobs: the
    /// tenant's next turn serves this one first.
    fn push_front(&mut self, tenant: u32, item: T, cost: u64) {
        self.enqueue(tenant, item, cost, true);
    }

    fn enqueue(&mut self, tenant: u32, item: T, cost: u64, front: bool) {
        let quantum = self.quantum;
        let tq = self.tenants.entry(tenant).or_insert_with(|| TenantQ {
            q: VecDeque::new(),
            deficit: 0,
            in_ring: false,
        });
        let job = (item, cost.clamp(1, quantum));
        if front {
            tq.q.push_front(job);
        } else {
            tq.q.push_back(job);
        }
        if !tq.in_ring {
            tq.in_ring = true;
            self.ring.push_back(tenant);
        }
    }

    fn pop(&mut self) -> Option<T> {
        loop {
            let &tenant = self.ring.front()?;
            let Some(tq) = self.tenants.get_mut(&tenant) else {
                // A slot with no queue has nothing to serve: drop it.
                self.ring.pop_front();
                continue;
            };
            let Some(&(_, cost)) = tq.q.front() else {
                self.ring.pop_front();
                self.tenants.remove(&tenant);
                continue;
            };
            if tq.deficit >= cost {
                tq.deficit -= cost;
                // The front was just seen; an empty queue leaves the ring
                // on the next turn.
                let Some((item, _)) = tq.q.pop_front() else { continue };
                if tq.q.is_empty() {
                    self.ring.pop_front();
                    self.tenants.remove(&tenant);
                }
                return Some(item);
            }
            tq.deficit += self.quantum;
            self.ring.rotate_left(1);
        }
    }
}

/// Entry point: spawned as the `pf-net-reactor` thread by [`super::serve`].
pub(super) fn run(listener: NetListener, reactor: Reactor, daemon: Daemon) {
    let cleanup = match &listener {
        NetListener::Unix(_, path) => Some(path.clone()),
        NetListener::Tcp(_) => None,
    };
    let mut driver = Driver {
        daemon,
        reactor,
        listener,
        conns: HashMap::new(),
        drr: Drr::new(WORKER_BURST as u64),
        wheel: TimerWheel::new(),
        clock: MonotonicClock::new(),
        next_token: LISTENER_TOKEN + 1,
        scrub: None,
    };
    if let Some(every) = driver.daemon.config.scrub_interval {
        driver.wheel.schedule(dur_ms(every), Timer::Scrub);
    }
    let listener_fd = driver.listener.as_raw_fd();
    if driver.reactor.register(listener_fd, LISTENER_TOKEN, Interest::READ).is_ok() {
        driver.run_loop();
    }
    // The loop severs its own connections; returning then drops the
    // listener (and the Unix socket path goes with it).
    let tokens: Vec<usize> = driver.conns.keys().copied().collect();
    for token in tokens {
        driver.close_conn(token);
    }
    if let Some(path) = cleanup {
        let _ = std::fs::remove_file(path);
    }
}

struct Driver {
    daemon: Daemon,
    reactor: Reactor,
    listener: NetListener,
    conns: HashMap<usize, Conn>,
    /// Connections with frames to run, by tenant.
    drr: Drr<usize>,
    wheel: TimerWheel<Timer>,
    clock: MonotonicClock,
    next_token: usize,
    /// The scrub pass in progress: the files still to verify (the last
    /// one first) and the next page of the last.
    scrub: Option<(Vec<u64>, usize)>,
}

/// What running one frame leaves its connection to do next.
enum Outcome {
    Continue,
    /// An injected delay: park the connection, the frame stays queued.
    Hold(Duration),
    /// Flush what is queued, then close the connection.
    Close,
    /// An injected kill or torn write "crashed" the daemon.
    Crashed,
}

impl Driver {
    fn run_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.daemon.stopping() {
            let timeout = if !self.drr.ring.is_empty() || self.scrub.is_some() {
                Some(Duration::ZERO)
            } else {
                self.wheel.until_next(self.clock.now_ms()).map(Duration::from_millis)
            };
            if self.reactor.poll(&mut events, timeout).is_err() {
                return;
            }
            if self.daemon.stopping() {
                return;
            }
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if self.conns.contains_key(&ev.token) {
                    if ev.readable && self.conn_readable(ev.token) {
                        continue; // connection closed
                    }
                    if ev.writable {
                        self.conn_writable(ev.token);
                    }
                }
            }
            self.fire_timers();
            self.dispatch();
            self.scrub_step();
        }
    }

    /// Drains the accept backlog (level-triggered: loop to `WouldBlock`).
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                stream.shutdown_both();
                continue;
            }
            // Accept-edge policy: shed the connection when over cap.
            let cap = self.daemon.config.max_connections;
            let shed = cap > 0 && self.conns.values().filter(|c| !c.shed).count() >= cap;
            let token = self.next_token;
            self.next_token += 1;
            if self.reactor.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                stream.shutdown_both();
                continue;
            }
            let timeout = if shed { Some(SHED_TIMEOUT) } else { self.daemon.config.read_timeout };
            let now = self.clock.now_ms();
            let idle_timer = timeout
                .map(|t| self.wheel.schedule(now.saturating_add(dur_ms(t)), Timer::Idle(token)));
            let conn = Conn {
                stream,
                rx: FrameBuf::new(self.daemon.config.max_frame),
                frames: VecDeque::new(),
                frames_seen: 0,
                tenant: 0,
                shed,
                chunk: None,
                fatal: None,
                out: Vec::new(),
                sent: 0,
                closing: false,
                paused: false,
                draining: false,
                queued: None,
                held: None,
                verdict: None,
                run: 0,
                idle_timer,
                timeout,
                last_read_ms: now,
                interest: Interest::READ,
            };
            self.conns.insert(token, conn);
        }
    }

    /// Reads and parses as much as the socket and the frame-queue budget
    /// allow. Returns true when the connection was closed.
    fn conn_readable(&mut self, token: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return true };
            let mut stream: &NetStream = &conn.stream;
            let filled = match conn.rx.read_from(&mut stream) {
                Ok(filled) => Some(filled),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => Some(Filled::Eof),
            };
            if conn.draining {
                conn.rx.clear();
            }
            if filled == Some(Filled::Eof) {
                self.close_conn(token);
                return true;
            }
            if filled.is_some() {
                conn.last_read_ms = self.clock.now_ms();
                self.parse_frames(token);
            }
            // A short read drained the socket (the poll is level-triggered:
            // later bytes are reported again), so only a full one goes round.
            let Some(conn) = self.conns.get(&token) else { return true };
            if filled != Some(Filled::More) || conn.draining || conn.paused {
                break;
            }
        }
        self.schedule(token, false);
        self.update_interest(token);
        false
    }

    /// Splits buffered bytes into queued frames, up to the queue's depth.
    fn parse_frames(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        while !conn.draining && !conn.paused {
            let frame = match conn.rx.next_frame() {
                Ok(None) => break,
                Ok(Some(f)) => QueuedFrame {
                    version: f.version,
                    opcode: f.opcode,
                    request_id: f.request_id,
                    payload: f.payload.into_owned(),
                    received: Instant::now(),
                    seqno: conn.frames_seen + 1,
                },
                Err(e) => {
                    // The frame was not consumed, so the stream is out of
                    // sync: dispatch answers with request id 0 after the
                    // frames already queued, and closes.
                    conn.draining = true;
                    conn.fatal = Some(e.into());
                    break;
                }
            };
            // Learn the connection's tenant as soon as an `Open` is parsed,
            // so the very first dispatch already lands in the right DRR
            // queue. Malformed frames and frames of another version stay
            // tenantless — dispatch refuses them with a typed error.
            if frame.opcode == wire::op::OPEN {
                if let Ok(wire::Request::Open { tenant, .. }) =
                    wire::Request::decode_at(frame.version, frame.opcode, &frame.payload)
                {
                    conn.tenant = tenant;
                }
            }
            conn.frames_seen += 1;
            conn.frames.push_back(frame);
            conn.paused = conn.frames.len() >= FRAME_QUEUE_DEPTH;
        }
    }

    /// Queues a connection for dispatch if it has runnable frames — ahead
    /// of its tenant's other connections when `keep_turn` (a run in
    /// progress, see [`CONN_RUN`]). The DRR charge is the frame count
    /// queued now, so a connection carrying a fat pipelined burst spends
    /// its tenant's credit faster than one carrying a single frame; frames
    /// parsed while it waits are charged at its next turn, not run on this
    /// one's credit.
    fn schedule(&mut self, token: usize, keep_turn: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !conn.runnable() {
            return;
        }
        let cost = conn.frames.len().clamp(1, WORKER_BURST);
        conn.queued = Some(cost);
        if keep_turn {
            self.drr.push_front(conn.tenant, token, cost as u64);
        } else {
            conn.run = 0;
            self.drr.push(conn.tenant, token, cost as u64);
        }
    }

    /// One pass over the DRR ring: as many bursts as tenants hold backlog
    /// when it starts, so the loop reads its sockets again after each
    /// tenant was served once.
    fn dispatch(&mut self) {
        for _ in 0..self.drr.ring.len() {
            if self.daemon.stopping() {
                return;
            }
            let Some(token) = self.drr.pop() else { return };
            self.run_burst(token);
        }
    }

    /// Runs the frames a connection was charged for (at most
    /// [`WORKER_BURST`]) in arrival order, then flushes their replies with
    /// one write.
    fn run_burst(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let charged = conn.queued.take().unwrap_or(0);
        let mut outcome = Outcome::Continue;
        for _ in 0..charged {
            if conn.held.is_some() || conn.closing || conn.unsent() > WRITE_BUF_CAP {
                break;
            }
            let Some(frame) = conn.frames.pop_front() else {
                if let Some(fatal) = conn.fatal.take() {
                    wire::append_reply(&mut conn.out, 0, &Reply::Error(fatal));
                    outcome = Outcome::Close;
                }
                break;
            };
            outcome = execute(&mut self.daemon, conn, &frame);
            match outcome {
                // The next bulk frame is received into this one's payload.
                Outcome::Continue => conn.rx.recycle(frame.payload),
                Outcome::Hold(_) => {
                    conn.frames.push_front(frame);
                    break;
                }
                Outcome::Close | Outcome::Crashed => break,
            }
        }
        // Replies to the frames that completed go out even when the last
        // one crashed the daemon: they were answered before it "died".
        let alive = conn.flush();
        match outcome {
            Outcome::Continue => {}
            Outcome::Hold(delay) => {
                let due = self.clock.now_ms().saturating_add(dur_ms(delay));
                conn.held = Some(self.wheel.schedule(due, Timer::Release(token)));
            }
            Outcome::Close => {
                conn.closing = true;
                conn.draining = true;
                conn.frames.clear();
                conn.fatal = None;
            }
            Outcome::Crashed => {
                self.daemon.crash();
                return;
            }
        }
        if !alive || (conn.closing && conn.unsent() == 0) {
            self.close_conn(token);
            return;
        }
        conn.run += 1;
        let keep_turn = conn.run < CONN_RUN;
        if conn.paused && conn.frames.len() <= FRAME_QUEUE_RESUME {
            // Bytes may already be buffered past the parse stop: parse them
            // now (no readable event will announce them), then re-arm.
            conn.paused = false;
            self.parse_frames(token);
        }
        self.schedule(token, keep_turn);
        self.update_interest(token);
    }

    /// Drains queued reply bytes; closes the connection when its write
    /// buffer empties with `closing` set (or the socket died), and lets a
    /// skipped slow reader back into dispatch once it is under the cap.
    fn conn_writable(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !conn.flush() || (conn.closing && conn.unsent() == 0) {
            self.close_conn(token);
            return;
        }
        self.schedule(token, false);
        self.update_interest(token);
    }

    /// Recomputes and applies the interest set for one connection.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let want =
            Interest { readable: !conn.paused && !conn.draining, writable: conn.unsent() > 0 };
        if want != conn.interest
            && self.reactor.reregister(conn.stream.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
    }

    /// Handles due timers: reaps idle connections — unless frames are
    /// queued or replies unsent (the daemon itself is the bottleneck; the
    /// client is not punished for it) — releases connections whose
    /// injected delay is over, and starts a scrub pass.
    fn fire_timers(&mut self) {
        let now = self.clock.now_ms();
        for (_, timer) in self.wheel.advance(now) {
            match timer {
                Timer::Idle(token) => {
                    let Some(conn) = self.conns.get_mut(&token) else { continue };
                    let Some(t) = conn.timeout else { continue };
                    let mut due = conn.last_read_ms.saturating_add(dur_ms(t));
                    if due <= now && (conn.has_work() || conn.unsent() > 0) {
                        due = now.saturating_add(dur_ms(t));
                    }
                    if due > now {
                        conn.idle_timer = Some(self.wheel.schedule(due, Timer::Idle(token)));
                    } else {
                        conn.idle_timer = None;
                        self.close_conn(token);
                    }
                }
                Timer::Release(token) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.held = None;
                    }
                    self.schedule(token, false);
                }
                Timer::Scrub => {
                    self.scrub = Some((self.daemon.files.keys().copied().collect(), 0));
                }
            }
        }
    }

    /// Verifies at most one scrub window; once a pass has walked every
    /// subfile, schedules the next one.
    fn scrub_step(&mut self) {
        let Some((files, page)) = &mut self.scrub else { return };
        while let Some(&file) = files.last() {
            if let Some(next) = self.daemon.scrub_window(file, *page) {
                *page = next;
                return;
            }
            files.pop();
            *page = 0;
        }
        self.scrub = None;
        if let Some(every) = self.daemon.config.scrub_interval {
            self.wheel.schedule(self.clock.now_ms().saturating_add(dur_ms(every)), Timer::Scrub);
        }
    }

    /// Tears one connection down: cancel its timers, deregister, sever.
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else { return };
        for id in [conn.idle_timer, conn.held].into_iter().flatten() {
            self.wheel.cancel(id);
        }
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        conn.stream.shutdown_both();
    }
}

/// The per-frame prologue and dispatch: the shed verdict, the fault hook
/// (an injected delay parks the connection before anything runs; the
/// frame's verdict applies once it is released), the version refusal,
/// then [`handle_frame`](super::Daemon::handle_frame) and its reply — an
/// injected truncation severs the connection, and a crash suppresses the
/// reply.
fn execute(daemon: &mut Daemon, conn: &mut Conn, frame: &QueuedFrame) -> Outcome {
    if conn.shed {
        let reply = Reply::Overloaded { retry_after_ms: OVERLOADED_RETRY_MS };
        wire::append_reply(&mut conn.out, frame.request_id, &reply);
        return Outcome::Close;
    }
    if let Some(injector) = &daemon.shared.fault {
        let verdict = match conn.verdict.take() {
            Some(verdict) => verdict,
            None => match injector.on_frame(frame.seqno) {
                (verdict, Some(delay)) => {
                    conn.verdict = Some(verdict);
                    return Outcome::Hold(delay);
                }
                (verdict, None) => verdict,
            },
        };
        match verdict {
            FrameFault::None => {}
            FrameFault::Drop => return Outcome::Close,
            FrameFault::Kill => return Outcome::Crashed,
        }
    }
    // A frame of any other version is refused before it is decoded:
    // nothing it carries is applied.
    if frame.version != PROTOCOL_VERSION {
        let reply = Reply::Error(WireError::UnsupportedVersion(frame.version).into());
        wire::append_reply(&mut conn.out, frame.request_id, &reply);
        return Outcome::Continue;
    }
    // The handler appends its reply frame where it is sent from.
    let start = conn.out.len();
    let shutdown = daemon.handle_frame(
        &mut conn.chunk,
        (frame.opcode, frame.request_id),
        &frame.payload,
        frame.received,
        &mut conn.out,
    );
    if daemon.shared.fault_crashed() {
        // An injected kill or torn write fired while this request ran: the
        // "crashed" daemon never replies.
        conn.out.truncate(start);
        return Outcome::Crashed;
    }
    // An injected truncation cuts the reply `keep` bytes in and severs the
    // connection; a `Shutdown` delivers its `Ok` and closes, and the loop
    // stops at the end of this dispatch.
    let truncate = daemon.shared.fault.as_ref().and_then(|f| f.truncate_reply_at(frame.seqno));
    if let Some(keep) = truncate {
        conn.out.truncate(start.saturating_add(keep as usize));
    }
    if truncate.is_some() || shutdown {
        Outcome::Close
    } else {
        Outcome::Continue
    }
}

/// Duration → wheel milliseconds (rounds up so sub-ms budgets still arm).
fn dur_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(u64::from(!d.is_zero()))
}

#[cfg(test)]
mod tests {
    use super::Drr;

    #[test]
    fn drr_serves_tenants_evenly_whatever_their_backlog() {
        // Tenant 1 floods 90 unit-cost jobs; tenants 2 and 3 queue 10 each.
        // While every tenant has backlog, service must stay even — the
        // flood buys tenant 1 nothing.
        let mut drr = Drr::new(4);
        for i in 0..90 {
            drr.push(1, (1u32, i), 1);
        }
        for i in 0..10 {
            drr.push(2, (2u32, i), 1);
            drr.push(3, (3u32, i), 1);
        }
        // Two full rounds: every tenant with backlog earns exactly two
        // quanta (8 unit jobs), whatever it has queued.
        let mut served = [0usize; 4];
        for _ in 0..24 {
            let (tenant, _) = drr.pop().expect("backlog remains");
            served[tenant as usize] += 1;
        }
        assert_eq!(served, [0, 8, 8, 8], "flooding tenant held to its fair share: {served:?}");
        // Once the quiet tenants drain, the flood gets the leftover.
        let mut total = served;
        while let Some((tenant, _)) = drr.pop() {
            total[tenant as usize] += 1;
        }
        assert_eq!(total, [0, 90, 10, 10]);
        assert!(drr.pop().is_none());
    }

    #[test]
    fn drr_charges_fat_bursts_more_than_singletons() {
        // Quantum 4: tenant 1's jobs cost 4 (full bursts), tenant 2's cost
        // 1. Per round, tenant 1 lands one job for tenant 2's four — equal
        // *service*, not equal job count.
        let mut drr = Drr::new(4);
        for i in 0..4 {
            drr.push(1, (1u32, i), 4);
        }
        for i in 0..16 {
            drr.push(2, (2u32, i), 1);
        }
        let mut served = [0usize; 3];
        for _ in 0..10 {
            let (tenant, _) = drr.pop().expect("backlog remains");
            served[tenant as usize] += 1;
        }
        assert_eq!(served[1], 2, "2 fat jobs = 8 service units: {served:?}");
        assert_eq!(served[2], 8, "8 thin jobs = 8 service units: {served:?}");
    }

    #[test]
    fn drr_push_front_serves_a_tenants_run_before_its_other_jobs() {
        let mut drr = Drr::new(4);
        drr.push(1, 1u32, 1);
        drr.push(1, 2u32, 1);
        drr.push(2, 3u32, 1);
        assert_eq!(drr.pop(), Some(1));
        // Job 1 keeps its tenant's turn: it goes ahead of job 2, and the
        // other tenant's place in the ring is untouched.
        drr.push_front(1, 1u32, 1);
        assert_eq!(drr.pop(), Some(1));
        assert_eq!(drr.pop(), Some(2));
        assert_eq!(drr.pop(), Some(3));
        assert!(drr.pop().is_none());
    }

    #[test]
    fn drr_drops_unspent_deficit_when_a_tenant_goes_idle() {
        let mut drr = Drr::new(4);
        drr.push(1, 1u32, 1);
        assert_eq!(drr.pop(), Some(1));
        assert!(drr.pop().is_none());
        // The tenant re-arrives with no banked credit: costs above the
        // clamped quantum are paid at quantum price, one per recharge.
        drr.push(1, 2u32, 100);
        drr.push(2, 3u32, 1);
        assert_eq!(drr.pop(), Some(2), "clamped cost serves after one recharge");
        assert_eq!(drr.pop(), Some(3));
        assert!(drr.pop().is_none());
    }
}
