//! The I/O-node daemon.
//!
//! One daemon hosts one subfile per file behind the same
//! [`StorageBackend`] the simulator uses. One non-blocking event-loop
//! thread owns the listener, every connection and every hosted subfile,
//! and executes each decoded frame itself (the `reactor_daemon`
//! submodule, DESIGN.md §17): an I/O node receives a message and then
//! scatters it or writes it contiguously, as in the paper's case study,
//! with no second thread and no lock between the socket and the store.
//! The daemon enforces a per-frame size budget, a per-connection idle
//! timeout, a connection cap (`Overloaded`) and a journal-backlog
//! watermark (`Busy`).
//!
//! All scatter/gather arithmetic goes through the stored `PROJ_S`
//! projection, and every interval is clipped to the subfile length before
//! touching the store, so a hostile peer can neither panic the daemon nor
//! make it walk an unbounded segment list.
//!
//! # Fault model (DESIGN.md §11)
//!
//! Directory-backed daemons survive crashes: every scatter write appends
//! its full intent to a per-subfile write-ahead [`Journal`] before touching
//! the store, and `Open` after a restart replays complete intents into the
//! preserved subfile bytes. Mutating requests carry a `(session, seq)`
//! retry stamp; a bounded per-subfile dedup window answers replays with
//! the original result instead of re-applying them, and journal recovery
//! repopulates that window so retries straddling a crash stay exactly-once.
//! A seeded [`FaultPlan`] (config [`DaemonConfig::fault`]) injects
//! connection drops, reply truncation, flush failures, whole-daemon kills,
//! and torn scatter writes deterministically for tests and `pf chaos`.

use crate::error::{ErrCode, ProtocolError};
use crate::fault::{FaultInjector, FaultPlan};
use crate::proto::{ChunkHeader, WriteStream};
use crate::wire::{self, op, raw_to_set, Lent, Reply, Request, StatInfo, DEFAULT_MAX_FRAME};
use clusterfile::{ChecksumMap, Journal, StorageBackend, SubfileStore};
use parafile::redist::Projection;
use parafile_audit::{audit_pattern, AuditConfig, Severity};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

mod reactor_daemon;

/// Default upper bound on a streamed chunk's data length (256 KiB).
pub const DEFAULT_MAX_CHUNK: u32 = 256 << 10;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where subfile bytes live.
    pub backend: StorageBackend,
    /// Largest accepted frame (`len` field), in bytes.
    pub max_frame: u32,
    /// How long a connection may stall mid-request before it is dropped.
    pub read_timeout: Option<Duration>,
    /// Retry stamps remembered per subfile for write deduplication.
    pub dedup_window: usize,
    /// Deterministic fault plan to inject (tests, `pf serve --chaos`).
    pub fault: Option<FaultPlan>,
    /// Largest chunk data length accepted/advertised for streamed
    /// transfers; `Pong` carries this as the chunking capability.
    pub max_chunk: u32,
    /// When set, the event loop walks every hosted subfile at this cadence
    /// and verifies its bytes against the per-page CRC32C map, one bounded
    /// window per loop turn, counting mismatches into
    /// `Stat.checksum_errors` (`pf serve --scrub SECS`). Detection only —
    /// repair is driven by a `pf scrub` client compiling a redistribution
    /// plan from a healthy replica.
    pub scrub_interval: Option<Duration>,
    /// Maximum simultaneously open client connections. Further connects
    /// have their first frame answered with `Overloaded` and the connection
    /// dropped, so an N-node session costs each daemon exactly one of
    /// these. `0` = unbounded.
    pub max_connections: usize,
    /// Un-checkpointed journal backlog (bytes appended across all hosted
    /// subfiles since their last checkpoint, process-local accounting)
    /// beyond which mutating requests degrade to `Busy` instead of growing
    /// the write-ahead journal toward ENOSPC. `None` = no watermark.
    pub journal_watermark: Option<u64>,
    /// Ignored: the event-loop thread executes every frame itself
    /// (DESIGN.md §17), so there is no worker pool to size. The field
    /// stays only because the `pfbench` benchmark package constructs it.
    pub workers: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            backend: StorageBackend::Memory,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            dedup_window: 1024,
            fault: None,
            max_chunk: DEFAULT_MAX_CHUNK,
            scrub_interval: None,
            max_connections: 0,
            journal_watermark: None,
            workers: 0,
        }
    }
}

/// `Busy.retry_after_ms` hint when a mutating request is shed by the
/// journal watermark.
const BUSY_RETRY_MS: u32 = 25;

/// `Overloaded.retry_after_ms` hint when a whole connection is shed at the
/// accept edge — reconnecting is costlier than re-sending, so the hint is
/// longer.
const OVERLOADED_RETRY_MS: u32 = 250;

// ---------------------------------------------------------------------------
// Listener / stream abstraction (TCP or Unix-domain)

/// A bound listening socket: TCP (`host:port`) or Unix (`unix:/path`).
pub enum NetListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener, with the socket path for cleanup.
    Unix(UnixListener, PathBuf),
}

impl NetListener {
    /// Binds `addr`: `unix:/some/path` for a Unix-domain socket, anything
    /// else is a TCP `host:port`.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        if let Some(path) = addr.strip_prefix("unix:") {
            let path = PathBuf::from(path);
            // A previous daemon's leftover socket file would make bind fail.
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            Ok(NetListener::Unix(UnixListener::bind(&path)?, path))
        } else {
            Ok(NetListener::Tcp(TcpListener::bind(addr)?))
        }
    }

    /// The address clients should connect to (resolves TCP port 0).
    pub fn client_addr(&self) -> std::io::Result<String> {
        match self {
            NetListener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            NetListener::Unix(_, path) => Ok(format!("unix:{}", path.display())),
        }
    }

    /// Accepts one connection (non-blocking: the event loop drains the
    /// backlog until `WouldBlock`).
    fn accept(&self) -> std::io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(NetStream::Tcp(s))
            }
            NetListener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(NetStream::Unix(s))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nb),
            NetListener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            NetListener::Tcp(l) => l.as_raw_fd(),
            NetListener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

/// A connected stream of either flavor.
pub(crate) enum NetStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// One address a client can dial.
pub(crate) enum Peer {
    Tcp(std::net::SocketAddr),
    Unix(PathBuf),
}

impl Peer {
    /// The addresses `addr` names, in dial order, in the same syntax as
    /// [`NetListener::bind`]. A host name resolves through the system
    /// resolver; an IP literal or a `unix:` path needs no lookup.
    pub(crate) fn resolve(addr: &str) -> std::io::Result<Vec<Peer>> {
        use std::net::ToSocketAddrs;
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(vec![Peer::Unix(PathBuf::from(path))])
        } else {
            Ok(addr.to_socket_addrs()?.map(Peer::Tcp).collect())
        }
    }
}

impl NetStream {
    /// Starts a non-blocking connect to `peer`. Returns the stream and
    /// whether it is already connected; an unfinished connect completes on
    /// a writable event ([`connect_outcome`](Self::connect_outcome)).
    pub(crate) fn dial(peer: &Peer) -> std::io::Result<(Self, bool)> {
        match peer {
            Peer::Tcp(addr) => {
                let (s, done) = crate::reactor::sys::connect_tcp(addr)?;
                s.set_nodelay(true).ok();
                Ok((NetStream::Tcp(s), done))
            }
            Peer::Unix(path) => {
                let (s, done) = crate::reactor::sys::connect_unix(path)?;
                Ok((NetStream::Unix(s), done))
            }
        }
    }

    /// How a [`dial`](Self::dial) that reported writable went: `Ok(true)`
    /// connected, `Ok(false)` still in progress, `Err` refused or failed.
    pub(crate) fn connect_outcome(&self) -> std::io::Result<bool> {
        let (error, peer) = match self {
            NetStream::Tcp(s) => (s.take_error()?, s.peer_addr().map(drop)),
            NetStream::Unix(s) => (s.take_error()?, s.peer_addr().map(drop)),
        };
        if let Some(e) = error {
            return Err(e);
        }
        match peer {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotConnected => Ok(false),
            Err(e) => Err(e),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_nonblocking(nb),
            NetStream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    pub(crate) fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            NetStream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Closes both directions, so the peer sees the connection end.
    fn shutdown_both(&self) {
        match self {
            NetStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            NetStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

// Shared-reference I/O, so the event loops can read and write a stream
// they only borrow.
impl Read for &NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match *self {
            NetStream::Tcp(s) => {
                let mut r: &TcpStream = s;
                r.read(buf)
            }
            NetStream::Unix(s) => {
                let mut r: &UnixStream = s;
                r.read(buf)
            }
        }
    }
}

impl Write for &NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match *self {
            NetStream::Tcp(s) => {
                let mut w: &TcpStream = s;
                w.write(buf)
            }
            NetStream::Unix(s) => {
                let mut w: &UnixStream = s;
                w.write(buf)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match *self {
            NetStream::Tcp(s) => {
                let mut w: &TcpStream = s;
                w.flush()
            }
            NetStream::Unix(s) => {
                let mut w: &UnixStream = s;
                w.flush()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon state

#[derive(Default)]
struct Stats {
    requests: u64,
    bytes_written: u64,
    bytes_read: u64,
    fragments: u64,
    /// Pages that failed CRC32C verification (reads, fetches, scrubs).
    checksum_errors: u64,
}

/// Bounded FIFO window of `(session, seq) → written` retry stamps.
///
/// A retried `Write` whose stamp is still in the window is acknowledged
/// with the original byte count instead of re-applied. Session 0 is the
/// unstamped sentinel and is never inserted. Eviction is strictly
/// insertion-ordered, so a sequence number reused after wraparound is
/// deduplicated only while its first occurrence is still resident.
struct DedupWindow {
    capacity: usize,
    order: VecDeque<(u64, u64)>,
    stamps: HashMap<(u64, u64), u64>,
    /// Volatile chunked-upload progress `(session, seq) → acked offset`,
    /// bounded by the same capacity. `ResumeQuery` answers from here so a
    /// retried stream restarts at the last applied chunk instead of
    /// offset 0. Completing a stream clears its entry; the map is never
    /// journaled, so after a restart the answer is 0 and the client starts
    /// over (the journal already covers the applied chunks).
    partial: HashMap<(u64, u64), u64>,
    partial_order: VecDeque<(u64, u64)>,
}

impl DedupWindow {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            order: VecDeque::new(),
            stamps: HashMap::new(),
            partial: HashMap::new(),
            partial_order: VecDeque::new(),
        }
    }

    fn get(&self, session: u64, seq: u64) -> Option<u64> {
        self.stamps.get(&(session, seq)).copied()
    }

    fn insert(&mut self, session: u64, seq: u64, written: u64) {
        if session == 0 || self.capacity == 0 {
            return;
        }
        let key = (session, seq);
        // A completed write supersedes any partial progress it had.
        self.partial.remove(&key);
        if self.stamps.insert(key, written).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.stamps.remove(&old);
                }
            }
        }
    }

    fn progress(&self, session: u64, seq: u64) -> Option<u64> {
        self.partial.get(&(session, seq)).copied()
    }

    fn set_progress(&mut self, session: u64, seq: u64, offset: u64) {
        if session == 0 || self.capacity == 0 {
            return;
        }
        let key = (session, seq);
        if self.partial.insert(key, offset).is_none() {
            self.partial_order.push_back(key);
            while self.partial_order.len() > self.capacity {
                if let Some(old) = self.partial_order.pop_front() {
                    self.partial.remove(&old);
                }
            }
        }
    }
}

struct FileSlot {
    subfile: u32,
    store: SubfileStore,
    /// Write-ahead intent journal (Disabled for memory backends).
    journal: Journal,
    /// Retry stamps of recently applied writes.
    dedup: DedupWindow,
    /// Per-page CRC32C map over the store, persisted to a sidecar on
    /// flush.
    sums: ChecksumMap,
    /// `PROJ_S(V∩S)` per compute node, as shipped at view-set time.
    views: HashMap<u32, Projection>,
    stats: Stats,
    /// Journal bytes appended since the last checkpoint (process-local
    /// accounting for the [`DaemonConfig::journal_watermark`]).
    journal_pending: u64,
}

/// What a [`DaemonHandle`] shares with the daemon's event-loop thread.
struct Shared {
    /// Boot stamp returned by `Ping`; changes across restarts, so a client
    /// that remembers the epoch can detect that the daemon crashed and its
    /// session-visible state (views, memory stores) is gone.
    epoch: u64,
    /// Set by `stop()`, a remote `Shutdown` or an injected crash; the loop
    /// checks it every turn and then severs its own connections.
    stopping: AtomicBool,
    /// Deterministic fault injection (None in production).
    fault: Option<FaultInjector>,
    /// `stop()` interrupts the event loop's poll through this.
    waker: crate::reactor::Waker,
}

impl Shared {
    /// Whether an injected kill/torn-write fault has "crashed" the daemon.
    fn fault_crashed(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultInjector::killed)
    }
}

/// The daemon proper: every hosted subfile, owned by the event-loop thread
/// that executes the frames touching them.
struct Daemon {
    config: DaemonConfig,
    shared: Arc<Shared>,
    files: HashMap<u64, FileSlot>,
    /// The page window every verified read and scrub step of a
    /// file-backed subfile is read through: grown by the first, reused by
    /// the rest.
    window: Vec<u8>,
}

/// A running daemon: its client-facing address and a way to stop it.
pub struct DaemonHandle {
    /// Address clients should connect to.
    addr: String,
    shared: Arc<Shared>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's boot epoch (what `Ping` answers).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Whether an injected kill/torn-write fault has "crashed" this daemon
    /// — the restart harness's cue to bring a fresh one up on the same
    /// backend with the crash faults [disarmed](FaultPlan::disarmed_crashes).
    #[must_use]
    pub fn fault_killed(&self) -> bool {
        self.shared.fault_crashed()
    }

    /// Stops the daemon: sets the stop flag, wakes the event loop and
    /// joins it. The loop observes the flag between frames, so no request
    /// is cut in half; it then closes its connections and releases the
    /// listener.
    pub fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.wait();
    }

    /// Blocks until the daemon stops (e.g. a remote `Shutdown` request).
    pub fn wait(&mut self) {
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` and runs the daemon on one background thread, the event
/// loop, which accepts, reads, executes and replies.
pub fn serve(addr: &str, config: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = NetListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let client_addr = listener.client_addr()?;
    let epoch = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64)
        .max(1);
    let reactor = crate::reactor::Reactor::new()?;
    let shared = Arc::new(Shared {
        epoch,
        stopping: AtomicBool::new(false),
        fault: config.fault.clone().map(FaultInjector::new),
        waker: reactor.waker(),
    });
    let daemon =
        Daemon { config, shared: Arc::clone(&shared), files: HashMap::new(), window: Vec::new() };
    let loop_thread = std::thread::Builder::new()
        .name("pf-net-reactor".into())
        .spawn(move || reactor_daemon::run(listener, reactor, daemon))?;
    Ok(DaemonHandle { addr: client_addr, shared, loop_thread: Some(loop_thread) })
}

/// Pages one scrub step verifies: the longest a foreground frame waits
/// behind the background scrub.
const SCRUB_WINDOW_PAGES: usize = 256;

impl Daemon {
    fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Simulates a crash: stop accepting and let the loop sever every
    /// connection abruptly (no further replies — exactly what a real crash
    /// leaves behind).
    fn crash(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
    }

    /// Whether the journal-backlog watermark forbids accepting more
    /// mutating work right now.
    fn over_watermark(&self) -> bool {
        self.config
            .journal_watermark
            .is_some_and(|wm| self.files.values().map(|s| s.journal_pending).sum::<u64>() >= wm)
    }

    /// One step of the background scrub: verifies `SCRUB_WINDOW_PAGES`
    /// pages of `file` from `page` against its checksum map, counting
    /// mismatches into `Stat.checksum_errors`. Returns the next page to
    /// verify, or `None` once the subfile is done. Detection only — a
    /// `pf scrub` client reads the counters (or fetches copies directly)
    /// and drives repair by compiling a redistribution plan from a healthy
    /// replica.
    fn scrub_window(&mut self, file: u64, page: usize) -> Option<usize> {
        let slot = self.files.get_mut(&file)?;
        if page as u64 * clusterfile::CHECKSUM_PAGE >= slot.store.len() {
            return None;
        }
        let window = &mut self.window;
        let bad = slot.sums.verify_pages(&mut slot.store, page, SCRUB_WINDOW_PAGES, window).ok()?;
        slot.stats.checksum_errors += bad;
        Some(page + SCRUB_WINDOW_PAGES)
    }

    /// Decodes and executes one request and appends its reply frame to
    /// `out` under `request_id`: a `Write`'s or `WriteChunk`'s bytes are
    /// lent from `payload`, so they are journaled, scattered and
    /// checksummed from the frame itself, and a `Read`'s or `Fetch`'s
    /// verified bytes are gathered straight into their reply frame.
    /// Returns whether the daemon should begin shutting down.
    fn handle_frame(
        &mut self,
        chunk_write: &mut Option<ChunkWrite>,
        (opcode, request_id): (u8, u64),
        payload: &[u8],
        received: std::time::Instant,
        out: &mut Vec<u8>,
    ) -> bool {
        let refuse = |e: ProtocolError| (Reply::Error(e), false);
        let (reply, shutdown) = 'reply: {
            if !op::is_request(opcode) {
                let e = ProtocolError::new(ErrCode::UnknownOp, format!("opcode {opcode:#04x}"));
                break 'reply refuse(e);
            }
            let (Lent { head: request, bulk }, deadline_ms) =
                match Lent::decode_deadline(opcode, payload) {
                    Ok(pair) => pair,
                    Err(e) => break 'reply refuse(e.into()),
                };
            if self.stopping() && !matches!(request, Request::Shutdown) {
                break 'reply refuse(ProtocolError::new(
                    ErrCode::ShuttingDown,
                    "daemon is stopping",
                ));
            }
            // Deadline check: a request whose propagated budget was already
            // spent — queueing, an injected delay, a slow disk upstream — is
            // answered without executing, so nothing is applied for work the
            // client has necessarily given up on.
            if deadline_ms > 0
                && received.elapsed() >= Duration::from_millis(u64::from(deadline_ms))
            {
                break 'reply refuse(ProtocolError::new(
                    ErrCode::DeadlineExceeded,
                    format!("deadline budget of {deadline_ms} ms expired before execution"),
                ));
            }
            // Journal-backlog watermark: mutating requests degrade to `Busy`
            // while the un-checkpointed backlog is over the configured
            // capacity, instead of growing the journal toward ENOSPC. Chunk
            // streams are shed only at their first frame — a stream already
            // admitted runs to completion.
            let starts_mutation = matches!(request, Request::Write { .. })
                || matches!(request, Request::WriteChunk { offset: 0, .. });
            if starts_mutation && self.over_watermark() {
                break 'reply (Reply::Busy { retry_after_ms: BUSY_RETRY_MS }, false);
            }
            match request {
                Request::Shutdown => {
                    self.shared.stopping.store(true, Ordering::SeqCst);
                    (Reply::Ok, true)
                }
                Request::WriteChunk { .. } => (self.write_chunk(chunk_write, request, bulk), false),
                Request::Read { .. } | Request::Fetch { .. } => {
                    match self.read(&request, request_id, out) {
                        Ok(()) => return false,
                        Err(e) => refuse(e),
                    }
                }
                other => (self.execute(other, bulk).unwrap_or_else(Reply::Error), false),
            }
        };
        wire::append_reply(out, request_id, &reply);
        shutdown
    }

    /// A `Read` (a projection's runs) or a `Fetch` (the whole subfile, the
    /// scrub driver's copy-health probe), verified and gathered in one pass
    /// straight into a `Data` frame at the end of `out`. A mismatch (so a
    /// replicated client fails over and queues this copy for repair) or an
    /// I/O error cuts the frame back before any of it ships.
    fn read(
        &mut self,
        request: &Request,
        request_id: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), ProtocolError> {
        let (&Request::Read { file, .. } | &Request::Fetch { file }) = request else {
            return Err(internal_error("read handler invoked on a non-read request".into()));
        };
        let slot = lookup(&mut self.files, file)?;
        slot.stats.requests += 1;
        let runs = match *request {
            Request::Read { compute, l_s, r_s, .. } => {
                projected_runs(slot, file, compute, l_s, r_s)?.unwrap_or_default()
            }
            _ => vec![(0, slot.store.len())],
        };
        let mut verdict = Ok(0);
        let start = wire::append_frame(out, op::R_DATA, request_id, |out| {
            verdict = slot.sums.read_verified(&mut slot.store, &runs, out, &mut self.window);
        });
        let refusal = match verdict {
            Ok(0) => {
                if matches!(request, Request::Read { .. }) {
                    slot.stats.bytes_read += runs.iter().map(|&(_, n)| n).sum::<u64>();
                    slot.stats.fragments += runs.len() as u64;
                }
                return Ok(());
            }
            Ok(bad) => checksum_mismatch(slot, bad),
            Err(e) => internal_error(format!("verified read: {e}")),
        };
        out.truncate(start);
        Err(refusal)
    }

    /// Executes `request`; `bulk` holds a `Write`'s payload (lent from its
    /// frame, the field itself is empty).
    fn execute(&mut self, request: Request, bulk: &[u8]) -> Result<Reply, ProtocolError> {
        match request {
            // The tenant id is a connection property: the event loop learns
            // it when it parses the frame, before this handler runs.
            Request::Open { file, subfile, len, tenant: _ } => self.open(file, subfile, len),
            Request::SetView { file, compute, element: _, view, proj_set, proj_period } => {
                let slot = lookup(&mut self.files, file)?;
                slot.stats.requests += 1;
                // Audit the full view pattern before accepting anything
                // from it.
                let report = audit_pattern(&view, &AuditConfig::default());
                if report.has_errors() {
                    let mut pa_codes: Vec<String> = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == Severity::Error)
                        .map(|d| d.code.as_str().to_string())
                        .collect();
                    pa_codes.sort();
                    pa_codes.dedup();
                    let mut e = ProtocolError::new(
                        ErrCode::PatternRejected,
                        format!("{} error diagnostic(s) from parafile-audit", pa_codes.len()),
                    );
                    e.pa_codes = pa_codes;
                    return Err(e);
                }
                // The projection set is not a tiling pattern, so the audit
                // does not apply — but it must still be a structurally
                // valid nested set.
                let set = raw_to_set(&proj_set).map_err(|err| {
                    ProtocolError::new(ErrCode::Malformed, format!("projection set: {err}"))
                })?;
                slot.views.insert(compute, Projection { set, period: proj_period });
                Ok(Reply::Ok)
            }
            Request::Write { file, compute, l_s, r_s, session, seq, payload: _ } => {
                self.write(file, compute, (l_s, r_s), (session, seq), bulk)
            }
            Request::Flush { file } => {
                let slot = lookup(&mut self.files, file)?;
                slot.stats.requests += 1;
                if self.shared.fault.as_ref().is_some_and(FaultInjector::on_flush) {
                    return Err(internal_error("injected flush failure".into()));
                }
                // A flush makes the store durable, so the journaled
                // intents covering it are redundant: checkpoint (store
                // flush, then a new journal generation), then persist the
                // checksum sidecar the durable bytes match.
                match slot.journal.checkpoint(&mut slot.store).and_then(|()| slot.sums.flush()) {
                    Ok(()) => {
                        slot.journal_pending = 0;
                        Ok(Reply::Ok)
                    }
                    Err(e) => Err(ProtocolError::new(ErrCode::Internal, e.to_string())),
                }
            }
            Request::Stat { file } => {
                let slot = lookup(&mut self.files, file)?;
                slot.stats.requests += 1;
                let stats = &slot.stats;
                Ok(Reply::Stat(StatInfo {
                    len: slot.store.len(),
                    views: slot.views.len() as u64,
                    requests: stats.requests,
                    bytes_written: stats.bytes_written,
                    bytes_read: stats.bytes_read,
                    fragments: stats.fragments,
                    checksum_errors: stats.checksum_errors,
                }))
            }
            Request::Ping => {
                Ok(Reply::Pong { epoch: self.shared.epoch, max_chunk: self.config.max_chunk })
            }
            Request::ResumeQuery { file, session, seq } => {
                let slot = lookup(&mut self.files, file)?;
                slot.stats.requests += 1;
                // A completed stamp means the whole write applied: the
                // retried stream is answered as a replay, so it should
                // restart from 0, not resume.
                let offset = if slot.dedup.get(session, seq).is_some() {
                    0
                } else {
                    slot.dedup.progress(session, seq).unwrap_or(0)
                };
                Ok(Reply::ResumeAt { offset })
            }
            // Shutdown, write chunks and reads are dispatched in
            // handle_frame.
            Request::Shutdown
            | Request::WriteChunk { .. }
            | Request::Read { .. }
            | Request::Fetch { .. } => Ok(Reply::Ok),
        }
    }

    /// A `Write`: journal the intent, scatter it through the projection,
    /// refresh the page checksums — or answer a stamped retry from the
    /// dedup window without re-applying it.
    fn write(
        &mut self,
        file: u64,
        compute: u32,
        (l_s, r_s): (u64, u64),
        (session, seq): (u64, u64),
        payload: &[u8],
    ) -> Result<Reply, ProtocolError> {
        let slot = lookup(&mut self.files, file)?;
        slot.stats.requests += 1;
        let clipped = projected_runs(slot, file, compute, l_s, r_s)?;
        // A stamped retry of a write already in the dedup window is
        // acknowledged with the original result, not re-applied.
        if let Some(written) = slot.dedup.get(session, seq) {
            return Ok(Reply::WriteOk { written, replayed: true });
        }
        let Some(runs) = clipped else {
            slot.dedup.insert(session, seq, 0);
            return Ok(Reply::WriteOk { written: 0, replayed: false });
        };
        let expect: u64 = runs.iter().map(|&(_, n)| n).sum();
        if (payload.len() as u64) < expect {
            return Err(ProtocolError::new(
                ErrCode::SizeMismatch,
                format!("payload holds {} bytes, projection needs {expect}", payload.len()),
            ));
        }
        let body = &payload[..expect as usize];
        // Journal the full intent before the first store byte moves
        // (write-ahead): a crash mid-scatter replays from here.
        if slot.journal.is_enabled() {
            slot.journal
                .append_intent(session, seq, &runs, body)
                .map_err(|e| internal_error(format!("journal append: {e}")))?;
            slot.journal_pending += expect;
        }
        let torn = self.shared.fault.as_ref().is_some_and(FaultInjector::on_write_torn)
            && !runs.is_empty();
        if torn {
            // Injected crash after the first applied segment: the subfile
            // is torn, the journaled intent is not. The loop suppresses
            // the reply; recovery on the next Open heals the remaining
            // segments, and rebuilds the checksum map from the recovered
            // bytes.
            let (off0, n0) = runs[0];
            slot.store
                .write_at(off0, &body[..n0 as usize])
                .map_err(|e| internal_error(format!("scatter write: {e}")))?;
            return Ok(Reply::WriteOk { written: expect, replayed: false });
        }
        // Scatter straight from the frame payload, adjacent segment runs
        // coalesced into single positioned writes; then refresh the page
        // checksums the scatter touched, once per message, each page from
        // the frame payload where a run covers it whole.
        slot.store
            .scatter(runs.iter().copied(), body)
            .map_err(|e| internal_error(format!("scatter write: {e}")))?;
        slot.sums
            .record_runs(&mut slot.store, &runs, Some(body))
            .map_err(|e| internal_error(format!("checksum update: {e}")))?;
        slot.dedup.insert(session, seq, expect);
        slot.stats.bytes_written += expect;
        slot.stats.fragments += runs.len() as u64;
        Ok(Reply::WriteOk { written: expect, replayed: false })
    }

    fn open(&mut self, file: u64, subfile: u32, len: u64) -> Result<Reply, ProtocolError> {
        if let Some(slot) = self.files.get_mut(&file) {
            slot.stats.requests += 1;
            let existing_len = slot.store.len();
            return if slot.subfile == subfile && existing_len == len {
                Ok(Reply::Ok) // idempotent reopen
            } else {
                Err(ProtocolError::new(
                    ErrCode::FileMismatch,
                    format!(
                        "file {file} already open as subfile {} with {existing_len} bytes",
                        slot.subfile
                    ),
                ))
            };
        }
        let backend = &self.config.backend;
        let io = |e: std::io::Error| ProtocolError::new(ErrCode::Internal, e.to_string());
        // Open preserving any pre-crash bytes: a directory-backed subfile
        // that survived a daemon restart is recovered (journal replay), not
        // zeroed.
        let (mut store, existed) =
            SubfileStore::open_or_create(backend, file as usize, subfile as usize, len)
                .map_err(io)?;
        let mut journal = Journal::open(backend, file as usize, subfile as usize).map_err(io)?;
        let mut dedup = DedupWindow::new(self.config.dedup_window);
        let mut replayed_intents = false;
        if existed {
            if store.len() != len {
                return Err(ProtocolError::new(
                    ErrCode::FileMismatch,
                    format!(
                        "subfile survives on disk with {} bytes, open asked for {len}",
                        store.len()
                    ),
                ));
            }
            // Replay intents a crash may have left half-applied, and
            // remember their retry stamps so post-crash retries stay
            // exactly-once.
            let report = journal
                .recover(&mut store)
                .map_err(|e| internal_error(format!("journal recovery: {e}")))?;
            replayed_intents = report.replayed > 0;
            for (session, seq, written) in report.dedup {
                dedup.insert(session, seq, written);
            }
        } else {
            // A fresh subfile must not inherit a dead daemon's intents.
            journal.reset().map_err(io)?;
        }
        // The sidecar checksum map predates any intents replayed above, so
        // it is only trusted for a cleanly-restarted subfile; otherwise the
        // map is rebuilt from the recovered bytes.
        let sums = ChecksumMap::for_store(
            backend,
            file as usize,
            subfile as usize,
            &mut store,
            existed && !replayed_intents,
        )
        .map_err(|e| internal_error(format!("checksum map: {e}")))?;
        let stats = Stats { requests: 1, ..Stats::default() };
        let views = HashMap::new();
        let slot =
            FileSlot { subfile, store, journal, dedup, sums, views, stats, journal_pending: 0 };
        self.files.insert(file, slot);
        Ok(Reply::Ok)
    }
}

fn internal_error(message: String) -> ProtocolError {
    ProtocolError::new(ErrCode::Internal, message)
}

/// Counts `bad` mismatching pages against the slot and builds the refusal
/// that makes a replicated client fail over to another copy.
fn checksum_mismatch(slot: &mut FileSlot, bad: u64) -> ProtocolError {
    slot.stats.checksum_errors += bad;
    ProtocolError::new(
        ErrCode::ChecksumMismatch,
        format!("{bad} page(s) failed CRC32C verification"),
    )
}

fn lookup(files: &mut HashMap<u64, FileSlot>, file: u64) -> Result<&mut FileSlot, ProtocolError> {
    files
        .get_mut(&file)
        .ok_or_else(|| ProtocolError::new(ErrCode::UnknownFile, format!("file {file}")))
}

/// The prologue shared by `Write`, `Read` and a chunk stream's first
/// frame: validate the interval, then walk the requesting compute node's
/// projection over it, clipped to the subfile before any arithmetic (which
/// bounds the segment walk and makes boundary-crossing requests short
/// instead of fatal). Returns the `(offset, len)` runs in payload order,
/// or `None` when the interval starts past the end of the subfile.
fn projected_runs(
    slot: &FileSlot,
    file: u64,
    compute: u32,
    l_s: u64,
    r_s: u64,
) -> Result<Option<Vec<(u64, u64)>>, ProtocolError> {
    if l_s > r_s {
        return Err(ProtocolError::new(
            ErrCode::BadRange,
            format!("interval [{l_s}, {r_s}] is empty"),
        ));
    }
    let Some(proj) = slot.views.get(&compute) else {
        return Err(ProtocolError::new(
            ErrCode::NoView,
            format!("compute node {compute} has no view on file {file}"),
        ));
    };
    let len = slot.store.len();
    if len == 0 || l_s >= len {
        return Ok(None);
    }
    let runs = proj.segments_between(l_s, r_s.min(len - 1)).into_iter().map(|s| (s.l(), s.len()));
    Ok(Some(runs.collect()))
}

// ---------------------------------------------------------------------------
// Chunked streaming (DESIGN.md §13)

/// Walks `runs` from a `(run_idx, run_pos)` cursor, taking at most `want`
/// bytes of `(offset, len)` sub-runs and advancing the cursor.
fn take_runs(
    runs: &[(u64, u64)],
    run_idx: &mut usize,
    run_pos: &mut u64,
    mut want: u64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    while want > 0 && *run_idx < runs.len() {
        let (off, len) = runs[*run_idx];
        let n = (len - *run_pos).min(want);
        out.push((off + *run_pos, n));
        *run_pos += n;
        want -= n;
        if *run_pos == len {
            *run_idx += 1;
            *run_pos = 0;
        }
    }
    out
}

/// One in-progress chunked write on a connection.
///
/// Chunk frames of a single logical write arrive back to back; the daemon
/// applies each chunk's bytes straight into the store as they arrive (the
/// segment-run cursor advances with the payload), journals each chunk
/// before applying it, and keeps the `(session, seq)` dedup discipline of
/// monolithic writes: only the *final* chunk's journal record carries the
/// stamp, so crash recovery repopulates the dedup window only for writes
/// whose stream completed — an interrupted stream is re-applied in full by
/// the client's retry.
struct ChunkWrite {
    /// The typed stream automaton: pins the stream identity and enforces
    /// contiguity, the declared total, and the final-chunk arithmetic.
    stream: WriteStream,
    mode: ChunkMode,
}

enum ChunkMode {
    /// Applying chunks into the store as they arrive.
    Apply {
        file: u64,
        /// Clipped projection segment runs `(offset, len)` in payload order.
        runs: Vec<(u64, u64)>,
        /// Gathered-payload bytes the runs cover (the `written` answer).
        expect: u64,
        /// Payload bytes scattered so far.
        applied: u64,
        run_idx: usize,
        run_pos: u64,
    },
    /// The stream's stamp hit the dedup window: acknowledge every chunk
    /// without touching the store and answer the final chunk with the
    /// original result.
    Replay { file: u64, written: u64 },
    /// The stream failed (validation, journal or storage error): swallow
    /// the remaining chunks, answering each with the same error.
    Failed(ProtocolError),
}

/// Resolves the server-side mode for a chunk stream's first frame: file
/// lookup, range/view validation, dedup check, and the projection walk.
fn start_chunk_mode(files: &mut HashMap<u64, FileSlot>, h: &ChunkHeader) -> ChunkMode {
    let file = h.file;
    let resolved = lookup(files, file).and_then(|slot| {
        let runs = projected_runs(slot, file, h.compute, h.l_s, h.r_s)?;
        Ok((slot.dedup.get(h.session, h.seq), runs.unwrap_or_default()))
    });
    let runs = match resolved {
        Ok((Some(written), _)) => return ChunkMode::Replay { file, written },
        Ok((None, runs)) => runs,
        Err(e) => return ChunkMode::Failed(e),
    };
    let expect: u64 = runs.iter().map(|&(_, n)| n).sum();
    if h.total < expect {
        let e = ProtocolError::new(
            ErrCode::SizeMismatch,
            format!("stream declares {} bytes, projection needs {expect}", h.total),
        );
        return ChunkMode::Failed(e);
    }
    ChunkMode::Apply { file, runs, expect, applied: 0, run_idx: 0, run_pos: 0 }
}

impl Daemon {
    fn write_chunk(
        &mut self,
        state: &mut Option<ChunkWrite>,
        request: Request,
        data: &[u8],
    ) -> Reply {
        let Request::WriteChunk {
            file,
            compute,
            l_s,
            r_s,
            session,
            seq,
            offset,
            total,
            last,
            data: _,
        } = request
        else {
            // handle_frame dispatches on the opcode, so any other variant
            // here is a daemon defect — answered as a typed error, never a
            // panic on the event loop.
            return Reply::Error(internal_error(
                "chunk handler invoked on a non-chunk request".into(),
            ));
        };
        let header = ChunkHeader {
            file,
            compute,
            l_s,
            r_s,
            session,
            seq,
            offset,
            total,
            last,
            len: data.len() as u64,
        };
        if offset == 0 {
            // First chunk of a stream (any abandoned predecessor is dropped
            // — starting over is the client's resync).
            *state = Some(ChunkWrite {
                stream: WriteStream::start(&header),
                mode: start_chunk_mode(&mut self.files, &header),
            });
        } else if !state.as_ref().is_some_and(|cw| cw.stream.continues(&header)) {
            // A mid-stream first frame is accepted only as a resume: the
            // stream's stamp must have recorded exactly this much progress
            // (the client learned the offset from ResumeQuery). The segment
            // cursor is fast-forwarded past the bytes the earlier attempt
            // already applied and journaled.
            let resumable = session != 0
                && self
                    .files
                    .get(&file)
                    .is_some_and(|s| s.dedup.progress(session, seq) == Some(offset));
            if !resumable {
                *state = None;
                return Reply::Error(ProtocolError::new(
                    ErrCode::Malformed,
                    "write chunk does not continue the in-progress stream",
                ));
            }
            let mut mode = start_chunk_mode(&mut self.files, &header);
            if let ChunkMode::Apply { runs, expect, applied, run_idx, run_pos, .. } = &mut mode {
                let skip = offset.min(*expect);
                let _ = take_runs(runs, run_idx, run_pos, skip);
                *applied = skip;
            }
            *state = Some(ChunkWrite { stream: WriteStream::resume(&header), mode });
        }
        let Some(cw) = state.as_mut() else {
            return Reply::Error(internal_error(
                "chunk stream state missing after installation".into(),
            ));
        };
        if let ChunkMode::Apply { file, .. } | ChunkMode::Replay { file, .. } = &cw.mode {
            if let Some(slot) = self.files.get_mut(file) {
                slot.stats.requests += 1;
            }
        }
        // Stream arithmetic must stay consistent with the declared total;
        // the automaton rejects overruns and short finals before a byte
        // lands.
        if let Err(violation) = cw.stream.accept(&header) {
            *state = None;
            return Reply::Error(ProtocolError::new(ErrCode::Malformed, violation.to_string()));
        }
        let result = match &mut cw.mode {
            ChunkMode::Failed(e) => Ok(Reply::Error(e.clone())),
            ChunkMode::Replay { written, .. } if last => {
                Ok(Reply::WriteOk { written: *written, replayed: true })
            }
            ChunkMode::Replay { .. } => Ok(Reply::ChunkOk { offset }),
            ChunkMode::Apply { file, runs, expect, applied, run_idx, run_pos } => {
                let apply_n = (data.len() as u64).min(*expect - *applied);
                let sub = take_runs(runs, run_idx, run_pos, apply_n);
                let body = &data[..apply_n as usize];
                let torn_fault = self.shared.fault.as_ref();
                lookup(&mut self.files, *file).and_then(|slot| {
                    // Only the final chunk's journal record carries the
                    // stamp (see `ChunkWrite`).
                    let stamp = if last { (session, seq) } else { (0, 0) };
                    if slot.journal.is_enabled() && (!sub.is_empty() || (last && session != 0)) {
                        slot.journal
                            .append_intent(stamp.0, stamp.1, &sub, body)
                            .map_err(|e| internal_error(format!("journal append: {e}")))?;
                        slot.journal_pending += apply_n;
                    }
                    // The injected torn-write fault fires on the stream's
                    // first chunk: apply only the first sub-run, then
                    // "crash" (the loop suppresses the reply).
                    let torn = offset == 0
                        && torn_fault.is_some_and(FaultInjector::on_write_torn)
                        && !sub.is_empty();
                    let scatter = if torn {
                        let (off0, n0) = sub[0];
                        slot.store.write_at(off0, &data[..n0 as usize])
                    } else {
                        slot.store.scatter(sub.iter().copied(), body).map(|_| ())
                    };
                    scatter.map_err(|e| internal_error(format!("scatter write: {e}")))?;
                    if !torn {
                        slot.sums
                            .record_runs(&mut slot.store, &sub, Some(body))
                            .map_err(|e| internal_error(format!("checksum update: {e}")))?;
                        if last {
                            slot.dedup.insert(session, seq, *expect);
                            slot.stats.bytes_written += *expect;
                            slot.stats.fragments += runs.len() as u64;
                        } else {
                            // Remember how far this stream's stamp has
                            // applied so a retry after a drop can resume
                            // instead of restarting.
                            slot.dedup.set_progress(session, seq, offset + data.len() as u64);
                        }
                    }
                    *applied += apply_n;
                    Ok(if last {
                        Reply::WriteOk { written: *expect, replayed: false }
                    } else {
                        Reply::ChunkOk { offset }
                    })
                })
            }
        };
        match result {
            Ok(reply) => {
                if last {
                    *state = None;
                }
                reply
            }
            Err(e) => {
                if last {
                    *state = None;
                } else {
                    cw.mode = ChunkMode::Failed(e.clone());
                }
                Reply::Error(e)
            }
        }
    }
}
