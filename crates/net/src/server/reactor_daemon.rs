//! The daemon's serving loop: one non-blocking event-loop thread serving
//! every connection, plus a fixed pool of [`DaemonConfig::workers`]
//! frame-executing workers (DESIGN.md §17).
//!
//! Division of labor:
//!
//! * the **reactor thread** owns the listener and every socket. It
//!   accepts, reads, splits the byte stream into frames, stamps each
//!   frame's `received` instant (the deadline clock starts at receipt,
//!   before any queueing), and drains queued reply bytes back out. It
//!   never executes a request, never sleeps, and never blocks on anything
//!   but [`Reactor::poll`] — idle timeouts ride the [`TimerWheel`]
//!   instead of per-socket `SO_RCVTIMEO`.
//! * a **worker** executes decoded frames through
//!   [`handle_frame`](super::handle_frame) — one connection's frames
//!   strictly in FIFO order (an `executing` flag pins a connection to at
//!   most one worker at a time), which preserves reply ordering and the
//!   one-chunked-write-per-connection stream state. The fault injector's
//!   frame hook also runs here, so an injected delay stalls only the
//!   faulted connection's worker slot, never the event loop.
//!
//! Backpressure is bounded at both edges: a connection with
//! [`FRAME_QUEUE_DEPTH`] undispatched frames has its read interest
//! dropped (TCP pushes back to the client) until the worker drains it,
//! and a worker whose replies outrun a slow reader parks on the
//! connection's write-buffer condvar until the reactor flushes it.
//!
//! Every per-frame semantic the model checker and chaos suite pin down —
//! admission order, `Busy`/`Overloaded` shedding, journal-before-ack,
//! exactly-once stamps, reply truncation and kill faults — lives in
//! [`handle_frame`](super::handle_frame) and the frame prologue in
//! [`execute_frame`].

use super::{lock, NetListener, NetStream, Shared, BUSY_RETRY_MS, OVERLOADED_RETRY_MS};
use crate::error::ProtocolError;
use crate::fault::FrameFault;
use crate::reactor::{Clock, Event, Interest, MonotonicClock, Reactor, TimerId, TimerWheel};
use crate::wire::{self, Filled, FrameBuf, Reply, WireError, PROTOCOL_VERSION};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reactor token of the listening socket; connections start above it.
const LISTENER_TOKEN: usize = 0;

/// Undispatched frames buffered per connection before its read interest
/// is dropped (flow control propagates to the client through TCP).
const FRAME_QUEUE_DEPTH: usize = 32;

/// Queue length at which a paused connection's reads resume.
const FRAME_QUEUE_RESUME: usize = FRAME_QUEUE_DEPTH / 2;

/// Pending reply bytes per connection before the producing worker parks
/// until the reactor drains the socket (slow-reader backpressure).
const WRITE_BUF_CAP: usize = 1 << 20;

/// Frames one worker executes for a connection before requeuing it, so a
/// blast from one client cannot monopolize a worker.
const WORKER_BURST: usize = 16;

/// How long a shed (over-capacity) connection may sit before it is
/// reaped without delivering its `Overloaded` verdict.
const SHED_TIMEOUT: Duration = Duration::from_secs(2);

/// One frame decoded off a connection, queued for a worker.
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

/// Worker-visible connection state behind one mutex.
struct ConnQ {
    frames: VecDeque<QueuedFrame>,
    /// A worker currently owns this connection's frames: at most one at a
    /// time, so frames execute (and reply) strictly in arrival order.
    executing: bool,
    /// Cleared on close: workers drop frames of a dead connection.
    open: bool,
    /// The reactor stopped reading because the queue hit its depth cap.
    paused: bool,
    /// Accepted over `max_connections`: first frame is answered
    /// `Overloaded` and the connection closed.
    shed: bool,
    /// In-progress chunked write (one stream per connection).
    chunk: Option<super::ChunkWrite>,
    /// A framing-level protocol error (oversized/undersized frame): the
    /// worker answers it after draining queued frames, then closes.
    fatal: Option<ProtocolError>,
}

/// Reply bytes queued toward one connection.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    start: usize,
    /// Socket is gone; producers drop their output.
    closed: bool,
    /// Close the connection once the buffer drains (shutdown-with-reply,
    /// shed verdicts, truncated-frame severing).
    close_after_flush: bool,
}

/// One connection, shared between the reactor thread and the worker pool.
struct Conn {
    token: usize,
    stream: Arc<NetStream>,
    q: Mutex<ConnQ>,
    wq: Mutex<WriteBuf>,
    /// Signalled by the reactor after draining `wq` (backpressure release).
    wq_cv: Condvar,
    /// Tenant id learned from the connection's last `Open` frame (0
    /// until one arrives): the DRR dispatch key and the
    /// per-tenant quota key.
    tenant: AtomicU32,
}

/// Worker → reactor notifications, carried over the reactor's waker.
struct Notify {
    waker: crate::reactor::Waker,
    /// Connections whose frame queue drained below the resume mark: the
    /// reactor re-parses buffered bytes and re-arms read interest.
    rearm: Mutex<Vec<usize>>,
    /// Connections with freshly queued reply bytes to drain.
    flush: Mutex<Vec<usize>>,
}

impl Notify {
    fn push_rearm(&self, token: usize) {
        lock(&self.rearm).push(token);
        self.waker.wake();
    }

    fn push_flush(&self, token: usize) {
        lock(&self.flush).push(token);
        self.waker.wake();
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
        let quantum = self.quantum;
        let tq = self.tenants.entry(tenant).or_insert_with(|| TenantQ {
            q: VecDeque::new(),
            deficit: 0,
            in_ring: false,
        });
        tq.q.push_back((item, cost.clamp(1, quantum)));
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

struct JobQ {
    /// Per-tenant deficit-round-robin dispatch.
    drr: Drr<Arc<Conn>>,
    stopping: bool,
}

/// The worker pool's job queue: connections with undispatched frames.
struct Pool {
    jobs: Mutex<JobQ>,
    cv: Condvar,
}

impl Pool {
    fn new() -> Self {
        Self {
            jobs: Mutex::new(JobQ { drr: Drr::new(WORKER_BURST as u64), stopping: false }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a connection with frames ready; `cost` is the frame count
    /// queued at enqueue time (the DRR service charge — a connection
    /// carrying a fat burst spends its tenant's credit faster).
    fn push(&self, conn: Arc<Conn>, cost: u64) {
        lock(&self.jobs).drr.push(conn.tenant.load(Ordering::Relaxed), conn, cost);
        self.cv.notify_one();
    }

    fn next_job(&self) -> Option<Arc<Conn>> {
        let mut jobs = lock(&self.jobs);
        loop {
            if let Some(c) = jobs.drr.pop() {
                return Some(c);
            }
            if jobs.stopping {
                return None;
            }
            jobs = self.cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn stop(&self) {
        lock(&self.jobs).stopping = true;
        self.cv.notify_all();
    }
}

/// Reactor-private per-connection state (read buffer, timers, interest).
struct ConnEntry {
    conn: Arc<Conn>,
    /// Inbound bytes and the frames split out of them.
    rx: FrameBuf,
    frames_seen: u64,
    idle_timer: Option<TimerId>,
    /// Idle budget (read timeout; [`SHED_TIMEOUT`] for shed connections).
    timeout: Option<Duration>,
    interest: Interest,
    /// Reads stopped for good (framing error answered, output draining).
    draining: bool,
}

/// Entry point: spawned as the `pf-net-reactor` thread by [`super::serve`].
pub(super) fn run(listener: NetListener, reactor: Reactor, shared: &Arc<Shared>) {
    let cleanup = match &listener {
        NetListener::Unix(_, path) => Some(path.clone()),
        NetListener::Tcp(_) => None,
    };
    let notify = Arc::new(Notify {
        waker: reactor.waker(),
        rearm: Mutex::new(Vec::new()),
        flush: Mutex::new(Vec::new()),
    });
    let pool = Arc::new(Pool::new());
    let mut worker_handles = Vec::new();
    for i in 0..shared.config.workers.max(1) {
        let shared = Arc::clone(shared);
        let pool = Arc::clone(&pool);
        let notify = Arc::clone(&notify);
        if let Ok(h) = std::thread::Builder::new()
            .name(format!("pf-net-worker-{i}"))
            .spawn(move || worker_loop(&shared, &pool, &notify))
        {
            worker_handles.push(h);
        }
    }
    let mut driver = Driver {
        shared: Arc::clone(shared),
        reactor,
        listener,
        pool: Arc::clone(&pool),
        notify,
        conns: HashMap::new(),
        wheel: TimerWheel::new(),
        clock: MonotonicClock::new(),
        next_token: LISTENER_TOKEN + 1,
    };
    let listener_fd = driver.listener.as_raw_fd();
    if driver.reactor.register(listener_fd, LISTENER_TOKEN, Interest::READ).is_ok() {
        driver.run_loop();
    }
    // Teardown — ordered so every connection driver is gone before the
    // listener (owned by this thread) drops:
    // 1. no new jobs; 2. sever connections, unblocking any worker parked
    // on a write buffer; 3. join the workers; 4. only then return, which
    // drops the listener (and removes a Unix socket path).
    pool.stop();
    let tokens: Vec<usize> = driver.conns.keys().copied().collect();
    for token in tokens {
        driver.close_conn(token);
    }
    for h in worker_handles {
        let _ = h.join();
    }
    if let Some(path) = cleanup {
        let _ = std::fs::remove_file(path);
    }
}

struct Driver {
    shared: Arc<Shared>,
    reactor: Reactor,
    listener: NetListener,
    pool: Arc<Pool>,
    notify: Arc<Notify>,
    conns: HashMap<usize, ConnEntry>,
    wheel: TimerWheel<usize>,
    clock: MonotonicClock,
    next_token: usize,
}

impl Driver {
    fn run_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.shared.stopping.load(Ordering::SeqCst) {
            let timeout = self.wheel.until_next(self.clock.now_ms()).map(Duration::from_millis);
            if self.reactor.poll(&mut events, timeout).is_err() {
                return;
            }
            if self.shared.stopping.load(Ordering::SeqCst) {
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
            self.apply_notifications();
            self.fire_timers();
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
            if self.shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            if stream.set_nonblocking(true).is_err() {
                stream.shutdown_both();
                continue;
            }
            let stream = Arc::new(stream);
            // Accept-edge policy: register the connection for shutdown
            // severing, shed it when over cap.
            let shed = {
                let mut conns = lock(&self.shared.conns);
                conns.retain(|w| w.strong_count() > 0);
                let cap = self.shared.config.max_connections;
                if cap > 0 && conns.len() >= cap {
                    true
                } else {
                    conns.push(Arc::downgrade(&stream));
                    false
                }
            };
            let token = self.next_token;
            self.next_token += 1;
            if self.reactor.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                stream.shutdown_both();
                continue;
            }
            let conn = Arc::new(Conn {
                token,
                stream,
                q: Mutex::new(ConnQ {
                    frames: VecDeque::new(),
                    executing: false,
                    open: true,
                    paused: false,
                    shed,
                    chunk: None,
                    fatal: None,
                }),
                wq: Mutex::new(WriteBuf::default()),
                wq_cv: Condvar::new(),
                tenant: AtomicU32::new(0),
            });
            let timeout = if shed { Some(SHED_TIMEOUT) } else { self.shared.config.read_timeout };
            let idle_timer = timeout
                .map(|t| self.wheel.schedule(self.clock.now_ms().saturating_add(dur_ms(t)), token));
            self.conns.insert(
                token,
                ConnEntry {
                    conn,
                    rx: FrameBuf::new(self.shared.config.max_frame),
                    frames_seen: 0,
                    idle_timer,
                    timeout,
                    interest: Interest::READ,
                    draining: false,
                },
            );
        }
    }

    /// Reads and parses as much as the socket and the frame-queue budget
    /// allow. Returns true when the connection was closed.
    fn conn_readable(&mut self, token: usize) -> bool {
        loop {
            let filled = {
                let Some(entry) = self.conns.get_mut(&token) else { return true };
                let mut stream: &NetStream = &entry.conn.stream;
                let filled = match entry.rx.read_from(&mut stream) {
                    Ok(filled) => Some(filled),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => Some(Filled::Eof),
                };
                if entry.draining {
                    entry.rx.clear();
                }
                filled
            };
            if filled == Some(Filled::Eof) {
                self.close_conn(token);
                return true;
            }
            if filled.is_some() {
                self.reset_idle_timer(token);
                self.parse_frames(token);
            }
            // A short read drained the socket (the poll is level-triggered:
            // later bytes are reported again), so only a full one goes round.
            let Some(entry) = self.conns.get(&token) else { return true };
            if filled != Some(Filled::More) || entry.draining || lock(&entry.conn.q).paused {
                break;
            }
        }
        self.update_interest(token);
        false
    }

    /// Splits buffered bytes into frames and hands them to the pool.
    fn parse_frames(&mut self, token: usize) {
        let pool = Arc::clone(&self.pool);
        let Some(entry) = self.conns.get_mut(&token) else { return };
        // The pool push is deferred to the end of the parse batch so the
        // DRR charge covers every frame parsed from this readiness event,
        // not just the first — pushing at cost 1 and then appending the
        // rest of a burst behind the queued connection would let a fat
        // batch ride a singleton's charge.
        let mut enqueue = false;
        while !entry.draining {
            let frame = match entry.rx.next_frame() {
                Ok(None) => break,
                Ok(Some(f)) => QueuedFrame {
                    version: f.version,
                    opcode: f.opcode,
                    request_id: f.request_id,
                    payload: f.payload.into_owned(),
                    received: Instant::now(),
                    seqno: entry.frames_seen + 1,
                },
                Err(e) => {
                    // The frame was not consumed, so the stream is out of
                    // sync: the worker answers with request id 0 and closes.
                    fatal_framing(entry, &pool, e.into());
                    break;
                }
            };
            // Learn the connection's tenant as soon as an `Open` is parsed,
            // so the very first dispatch already lands in the right DRR
            // queue. Malformed frames and frames of another version stay
            // tenantless — the worker refuses them with a typed error.
            if frame.opcode == wire::op::OPEN {
                if let Ok(wire::Request::Open { tenant, .. }) =
                    wire::Request::decode_at(frame.version, frame.opcode, &frame.payload)
                {
                    entry.conn.tenant.store(tenant, Ordering::Relaxed);
                }
            }
            entry.frames_seen += 1;
            let mut q = lock(&entry.conn.q);
            if !q.open {
                break;
            }
            q.frames.push_back(frame);
            let full = q.frames.len() >= FRAME_QUEUE_DEPTH;
            if full {
                q.paused = true;
            }
            if !q.executing {
                // Claim the dispatch slot now (no worker may grab the
                // conn until the batch is fully parsed and priced below).
                q.executing = true;
                enqueue = true;
            }
            drop(q);
            if full {
                break;
            }
        }
        if enqueue {
            let cost = lock(&entry.conn.q).frames.len() as u64;
            pool.push(Arc::clone(&entry.conn), cost);
        }
    }

    /// Drains queued reply bytes; closes the connection when its write
    /// buffer empties with `close_after_flush` set (or the socket died).
    fn conn_writable(&mut self, token: usize) {
        let Some(entry) = self.conns.get(&token) else { return };
        let conn = Arc::clone(&entry.conn);
        let (closed, close_now) = {
            let mut wq = lock(&conn.wq);
            try_flush(&conn.stream, &mut wq);
            let drained = wq.start >= wq.buf.len();
            (wq.closed, drained && wq.close_after_flush)
        };
        conn.wq_cv.notify_all();
        if closed || close_now {
            self.close_conn(token);
            return;
        }
        self.update_interest(token);
    }

    /// Recomputes and applies the interest set for one connection.
    fn update_interest(&mut self, token: usize) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        let want_read = {
            let q = lock(&entry.conn.q);
            q.open && !q.paused && !entry.draining
        };
        let want_write = {
            let wq = lock(&entry.conn.wq);
            wq.start < wq.buf.len() && !wq.closed
        };
        let want = Interest { readable: want_read, writable: want_write };
        if want != entry.interest
            && self.reactor.reregister(entry.conn.stream.as_raw_fd(), token, want).is_ok()
        {
            entry.interest = want;
        }
    }

    /// Applies worker notifications: resume reading on drained queues,
    /// drain freshly produced output.
    fn apply_notifications(&mut self) {
        let notify = Arc::clone(&self.notify);
        let rearm: Vec<usize> = std::mem::take(&mut *lock(&notify.rearm));
        for token in rearm {
            // Bytes may already be buffered past the parse stop: parse
            // them first (no new readable event will announce them), then
            // re-arm read interest.
            self.parse_frames(token);
            self.update_interest(token);
        }
        let flush: Vec<usize> = std::mem::take(&mut *lock(&notify.flush));
        for token in flush {
            self.conn_writable(token);
        }
    }

    /// Reaps connections whose idle timer expired — unless frames are
    /// queued or executing (the daemon itself is the bottleneck; the
    /// client is not punished for it).
    fn fire_timers(&mut self) {
        for (_, token) in self.wheel.advance(self.clock.now_ms()) {
            let Some(entry) = self.conns.get_mut(&token) else { continue };
            entry.idle_timer = None;
            let busy = {
                let q = lock(&entry.conn.q);
                !q.frames.is_empty() || q.executing || q.fatal.is_some()
            };
            let has_output = {
                let wq = lock(&entry.conn.wq);
                wq.start < wq.buf.len()
            };
            if busy || has_output {
                self.reset_idle_timer(token);
            } else {
                self.close_conn(token);
            }
        }
    }

    fn reset_idle_timer(&mut self, token: usize) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        let Some(t) = entry.timeout else { return };
        if let Some(id) = entry.idle_timer.take() {
            self.wheel.cancel(id);
        }
        entry.idle_timer =
            Some(self.wheel.schedule(self.clock.now_ms().saturating_add(dur_ms(t)), token));
    }

    /// Tears one connection down: deregister, sever, unblock producers.
    fn close_conn(&mut self, token: usize) {
        let Some(entry) = self.conns.remove(&token) else { return };
        if let Some(id) = entry.idle_timer {
            self.wheel.cancel(id);
        }
        let _ = self.reactor.deregister(entry.conn.stream.as_raw_fd());
        {
            let mut q = lock(&entry.conn.q);
            q.open = false;
            q.frames.clear();
            q.fatal = None;
        }
        {
            let mut wq = lock(&entry.conn.wq);
            wq.closed = true;
            wq.buf.clear();
            wq.start = 0;
        }
        entry.conn.wq_cv.notify_all();
        entry.conn.stream.shutdown_both();
    }
}

/// Records a framing-level fatal error: the worker delivers the error
/// reply after the frames already queued, then closes the connection.
fn fatal_framing(entry: &mut ConnEntry, pool: &Arc<Pool>, e: ProtocolError) {
    entry.draining = true;
    let mut q = lock(&entry.conn.q);
    if !q.open {
        return;
    }
    q.fatal = Some(e);
    if !q.executing {
        q.executing = true;
        let cost = (q.frames.len() as u64).max(1);
        drop(q);
        pool.push(Arc::clone(&entry.conn), cost);
    }
}

/// Writes as much of `wq` as the socket accepts right now.
fn try_flush(stream: &NetStream, wq: &mut WriteBuf) {
    let mut w: &NetStream = stream;
    while wq.start < wq.buf.len() {
        match w.write(&wq.buf[wq.start..]) {
            Ok(0) => {
                wq.closed = true;
                break;
            }
            Ok(n) => wq.start += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                wq.closed = true;
                break;
            }
        }
    }
    if wq.start >= wq.buf.len() || wq.closed {
        wq.buf.clear();
        wq.start = 0;
    }
}

// ---------------------------------------------------------------------------
// Worker side

fn worker_loop(shared: &Shared, pool: &Pool, notify: &Notify) {
    while let Some(conn) = pool.next_job() {
        process_conn(shared, pool, notify, &conn);
    }
}

enum Outcome {
    Continue,
    CloseConn,
    DaemonCrashed,
}

/// Executes one connection's queued frames in FIFO order, up to
/// [`WORKER_BURST`] per dispatch (then requeues for fairness).
fn process_conn(shared: &Shared, pool: &Pool, notify: &Notify, conn: &Arc<Conn>) {
    let mut processed = 0usize;
    loop {
        let (frame, mut chunk, shed) = {
            let mut q = lock(&conn.q);
            if !q.open {
                q.frames.clear();
                q.executing = false;
                return;
            }
            match q.frames.pop_front() {
                Some(f) => {
                    let chunk = q.chunk.take();
                    let shed = q.shed;
                    drop(q);
                    (f, chunk, shed)
                }
                None => {
                    if let Some(fatal) = q.fatal.take() {
                        drop(q);
                        queue_reply(conn, notify, 0, &Reply::Error(fatal), None);
                        flush_and_close(conn, notify);
                        lock(&conn.q).executing = false;
                        return;
                    }
                    finish_dispatch(conn, notify, &mut q);
                    return;
                }
            }
        };
        let outcome = execute_frame(shared, notify, conn, &frame, &mut chunk, shed);
        {
            let mut q = lock(&conn.q);
            q.chunk = chunk;
            if q.paused && q.frames.len() <= FRAME_QUEUE_RESUME {
                q.paused = false;
                notify.push_rearm(conn.token);
            }
        }
        match outcome {
            Outcome::Continue => {}
            Outcome::CloseConn => {
                let mut q = lock(&conn.q);
                q.open = false;
                q.frames.clear();
                q.executing = false;
                return;
            }
            Outcome::DaemonCrashed => {
                shared.crash();
                lock(&conn.q).executing = false;
                return;
            }
        }
        processed += 1;
        if processed >= WORKER_BURST {
            let mut q = lock(&conn.q);
            if q.frames.is_empty() && q.fatal.is_none() {
                finish_dispatch(conn, notify, &mut q);
            } else {
                // More work: requeue with `executing` held, so no other
                // worker can interleave this connection's frames.
                let cost = q.frames.len() as u64;
                drop(q);
                pool.push(Arc::clone(conn), cost);
            }
            return;
        }
    }
}

/// Ends a dispatch with an empty queue: release the connection and ask
/// the reactor to resume reads if they were paused.
fn finish_dispatch(conn: &Conn, notify: &Notify, q: &mut ConnQ) {
    q.executing = false;
    let rearm = q.paused;
    if rearm {
        q.paused = false;
    }
    if rearm {
        notify.push_rearm(conn.token);
    }
}

/// The per-frame prologue + dispatch, executed on a worker: fault hook
/// first (delays sleep *here*, stalling only this connection), then the
/// version refusal, then admission, then
/// [`handle_frame`](super::handle_frame), then the reply (with injected
/// truncation severing the connection) and crash suppression.
fn execute_frame(
    shared: &Shared,
    notify: &Notify,
    conn: &Conn,
    frame: &QueuedFrame,
    chunk: &mut Option<super::ChunkWrite>,
    shed: bool,
) -> Outcome {
    if shed {
        let reply = Reply::Overloaded { retry_after_ms: OVERLOADED_RETRY_MS };
        queue_reply(conn, notify, frame.request_id, &reply, None);
        flush_and_close(conn, notify);
        return Outcome::CloseConn;
    }
    if let Some(fault) = &shared.fault {
        match fault.on_frame(frame.seqno) {
            FrameFault::None => {}
            FrameFault::Drop => {
                flush_and_close(conn, notify);
                return Outcome::CloseConn;
            }
            FrameFault::Kill => return Outcome::DaemonCrashed,
        }
    }
    // A frame of any other version is refused before it is admitted or
    // decoded: nothing it carries is applied.
    if frame.version != PROTOCOL_VERSION {
        let reply = Reply::Error(WireError::UnsupportedVersion(frame.version).into());
        queue_reply(conn, notify, frame.request_id, &reply, None);
        return Outcome::Continue;
    }
    // Per-tenant quota first (cheapest check): a tenant over its
    // inflight cap is shed with `Busy` before it can consume one of the
    // daemon-wide admission slots. The anonymous tenant is unmetered.
    let tenant = conn.tenant.load(Ordering::Relaxed);
    let tenant_entered = tenant != 0;
    if tenant_entered && !shared.enter_tenant(tenant) {
        let reply = Reply::Busy { retry_after_ms: BUSY_RETRY_MS };
        queue_reply(conn, notify, frame.request_id, &reply, None);
        return Outcome::Continue;
    }
    if !shared.try_acquire_slot() {
        if tenant_entered {
            shared.leave_tenant(tenant);
        }
        let reply = Reply::Busy { retry_after_ms: BUSY_RETRY_MS };
        queue_reply(conn, notify, frame.request_id, &reply, None);
        return Outcome::Continue;
    }
    let (reply, shutdown) =
        super::handle_frame(shared, chunk, frame.opcode, &frame.payload, frame.received);
    let crashed = shared.fault_crashed();
    let mut severed = false;
    if !crashed {
        let truncate = shared.fault.as_ref().and_then(|f| f.truncate_reply_at(frame.seqno));
        queue_reply(conn, notify, frame.request_id, &reply, truncate);
        severed = truncate.is_some();
    }
    shared.release_slot();
    if tenant_entered {
        shared.leave_tenant(tenant);
    }
    if crashed {
        // An injected kill or torn write fired while this request was in
        // flight: the "crashed" daemon never replies.
        return Outcome::DaemonCrashed;
    }
    if severed {
        flush_and_close(conn, notify);
        return Outcome::CloseConn;
    }
    if shutdown {
        // `handle_frame` set `stopping`; deliver the `Ok`, close this
        // connection, and wake everything that might be parked on the
        // old state — the reactor's poll and the scrub thread's pause.
        flush_and_close(conn, notify);
        shared.shutdown_cv.notify_all();
        notify.waker.wake();
        return Outcome::CloseConn;
    }
    Outcome::Continue
}

/// Encodes one reply frame in place at the end of the connection's write
/// buffer (an injected truncation cuts it `keep` bytes in), attempts an
/// immediate non-blocking drain, and leaves the reactor to finish the rest.
/// Parks when the buffer is over [`WRITE_BUF_CAP`] — slow-reader
/// backpressure bounded per connection.
fn queue_reply(
    conn: &Conn,
    notify: &Notify,
    request_id: u64,
    reply: &Reply,
    truncate: Option<u64>,
) {
    let mut wq = lock(&conn.wq);
    while wq.buf.len() - wq.start > WRITE_BUF_CAP && !wq.closed {
        wq = conn.wq_cv.wait(wq).unwrap_or_else(|e| e.into_inner());
    }
    if wq.closed {
        return;
    }
    let start = wire::append_frame(&mut wq.buf, reply.opcode(), request_id, |out| {
        reply.append_payload(out)
    });
    if let Some(keep) = truncate {
        let frame_len = wq.buf.len() - start;
        wq.buf.truncate(start + (keep as usize).min(frame_len));
    }
    try_flush(&conn.stream, &mut wq);
    let leftover = wq.start < wq.buf.len();
    drop(wq);
    if leftover {
        notify.push_flush(conn.token);
    }
}

/// Closes a connection from the worker side: no more frames, flush what
/// is queued, and let the reactor deregister + shut the socket down.
fn flush_and_close(conn: &Conn, notify: &Notify) {
    {
        let mut q = lock(&conn.q);
        q.open = false;
        q.frames.clear();
    }
    {
        let mut wq = lock(&conn.wq);
        wq.close_after_flush = true;
        try_flush(&conn.stream, &mut wq);
    }
    // Always notify: even a fully drained buffer needs the reactor to
    // deregister the fd and drop its entry.
    notify.push_flush(conn.token);
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
