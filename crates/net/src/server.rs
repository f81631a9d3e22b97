//! The I/O-node daemon.
//!
//! One daemon hosts one subfile per file behind the same
//! [`StorageBackend`] the simulator uses. One non-blocking event-loop
//! thread owns the listener and every connection, and a fixed pool of
//! [`DaemonConfig::workers`] threads executes decoded frames (the
//! `reactor_daemon` submodule, DESIGN.md §17). The daemon enforces a
//! per-frame size budget, a per-connection idle timeout, and a bounded
//! global in-flight request count (excess requests are shed with `Busy`).
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
use crate::wire::{op, raw_to_set, Lent, Reply, Request, StatInfo, DEFAULT_MAX_FRAME};
use clusterfile::{ChecksumMap, Journal, StorageBackend, SubfileStore};
use parafile::redist::Projection;
use parafile_audit::{audit_pattern, AuditConfig, Severity};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, SystemTime};

mod reactor_daemon;

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
///
/// Daemon state is updated with plain stores and atomics — a panic between
/// two related updates cannot leave half-written structures — so the
/// poison flag carries no information the daemon can act on, and honoring
/// it would let one panicking worker wedge every connection forever.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`lock`], for read-locking an `RwLock`.
fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// [`lock`], for write-locking an `RwLock`.
fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Default upper bound on a streamed chunk's data length (256 KiB).
pub const DEFAULT_MAX_CHUNK: u32 = 256 << 10;

/// Default size of the frame-executing worker pool.
pub const DEFAULT_WORKERS: usize = 2;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where subfile bytes live.
    pub backend: StorageBackend,
    /// Largest accepted frame (`len` field), in bytes.
    pub max_frame: u32,
    /// Requests allowed in flight across all connections; further ones are
    /// shed with `Busy`.
    pub max_inflight: usize,
    /// How long a connection may stall mid-request before it is dropped.
    pub read_timeout: Option<Duration>,
    /// Retry stamps remembered per subfile for write deduplication.
    pub dedup_window: usize,
    /// Deterministic fault plan to inject (tests, `pf serve --chaos`).
    pub fault: Option<FaultPlan>,
    /// Largest chunk data length accepted/advertised for streamed
    /// transfers; `Pong` carries this as the chunking capability.
    pub max_chunk: u32,
    /// When set, a background scrub thread walks every hosted subfile at
    /// this cadence and verifies its bytes against the per-page CRC32C
    /// map, counting mismatches into `Stat.checksum_errors` (`pf serve
    /// --scrub SECS`). Detection only — repair is driven by a `pf scrub`
    /// client compiling a redistribution plan from a healthy replica.
    pub scrub_interval: Option<Duration>,
    /// Maximum simultaneously open client connections. Further connects
    /// have their first frame answered with `Overloaded` and the connection
    /// dropped, so an N-node session costs each daemon exactly one of
    /// these. `0` = unbounded.
    pub max_connections: usize,
    /// In-flight requests one stamped session may hold across all of its
    /// connections before further ones are shed with `Busy`, so one hot
    /// client cannot starve the rest. `0` = no cap.
    pub session_inflight: usize,
    /// Un-checkpointed journal backlog (bytes appended across all hosted
    /// subfiles since their last checkpoint, process-local accounting)
    /// beyond which mutating requests degrade to `Busy` instead of growing
    /// the write-ahead journal toward ENOSPC. `None` = no watermark.
    pub journal_watermark: Option<u64>,
    /// Size of the worker pool executing decoded frames behind the event
    /// loop (DESIGN.md §17): thousands of concurrent connections cost
    /// `workers + 1` threads. `0` is clamped to 1; the default is
    /// [`DEFAULT_WORKERS`]. Workers take connections from one
    /// deficit-round-robin queue, so each tenant gets an equal service
    /// quantum per round whatever its connection count (DESIGN.md §18).
    pub workers: usize,
    /// In-flight requests one tenant (the `Open` tenant id) may
    /// hold across all of its connections before further ones are shed
    /// with `Busy`, so one tenant cannot starve the rest of the daemon's
    /// admission slots. `0` = no cap.
    pub tenant_inflight: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            backend: StorageBackend::Memory,
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 64,
            read_timeout: Some(Duration::from_secs(30)),
            dedup_window: 1024,
            fault: None,
            max_chunk: DEFAULT_MAX_CHUNK,
            scrub_interval: None,
            max_connections: 0,
            session_inflight: 0,
            journal_watermark: None,
            workers: DEFAULT_WORKERS,
            tenant_inflight: 0,
        }
    }
}

/// `Busy.retry_after_ms` hint when a request is shed by admission control
/// (in-flight saturation, session cap, journal watermark).
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

impl NetStream {
    /// Connects to an address in the same syntax as [`NetListener::bind`].
    pub(crate) fn connect(addr: &str) -> std::io::Result<Self> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(NetStream::Unix(UnixStream::connect(path)?))
        } else {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true).ok();
            Ok(NetStream::Tcp(s))
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

    /// Closes both directions, unblocking any thread parked in a read.
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

// Shared-reference I/O: the event loop and the workers both hold an
// `Arc<NetStream>` while the daemon keeps a weak handle for shutdown.
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
// Shared daemon state

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    fragments: AtomicU64,
    /// Pages that failed CRC32C verification (reads, fetches, scrubs).
    checksum_errors: AtomicU64,
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
    store: Mutex<SubfileStore>,
    /// Write-ahead intent journal (Disabled for memory backends).
    journal: Mutex<Journal>,
    /// Retry stamps of recently applied writes.
    dedup: Mutex<DedupWindow>,
    /// Per-page CRC32C map over the store, persisted to a sidecar on
    /// flush. Lock order: store before sums (sums is always taken while
    /// the store guard is held, never the reverse).
    sums: Mutex<ChecksumMap>,
    /// `PROJ_S(V∩S)` per compute node, as shipped at view-set time.
    views: RwLock<HashMap<u32, Projection>>,
    stats: Stats,
    /// Journal bytes appended since the last checkpoint (process-local
    /// accounting for the [`DaemonConfig::journal_watermark`]).
    journal_pending: AtomicU64,
}

struct Shared {
    config: DaemonConfig,
    /// Boot stamp returned by `Ping`; changes across restarts, so a client
    /// that remembers the epoch can detect that the daemon crashed and its
    /// session-visible state (views, memory stores) is gone.
    epoch: u64,
    files: RwLock<HashMap<u64, Arc<FileSlot>>>,
    stopping: AtomicBool,
    inflight: Mutex<usize>,
    /// Weak handles to open connections, so shutdown can unblock them.
    conns: Mutex<Vec<std::sync::Weak<NetStream>>>,
    /// In-flight request count per stamped session (admission control:
    /// [`DaemonConfig::session_inflight`]).
    session_inflight: Mutex<HashMap<u64, usize>>,
    /// In-flight request count per tenant (admission control:
    /// [`DaemonConfig::tenant_inflight`]).
    tenant_inflight: Mutex<HashMap<u32, usize>>,
    /// Deterministic fault injection (None in production).
    fault: Option<FaultInjector>,
    /// `stop()`/`crash()`/remote `Shutdown` interrupt the event loop's
    /// poll through this.
    waker: crate::reactor::Waker,
    /// Shutdown signalling for the scrub thread: it waits here between
    /// passes instead of sleeping, so `stop()` interrupts a pause
    /// immediately and can join it before any socket teardown.
    shutdown_mu: Mutex<()>,
    shutdown_cv: Condvar,
}

impl Shared {
    /// Takes one of the [`DaemonConfig::max_inflight`] admission slots;
    /// `false` = the daemon is saturated and answers `Busy` instead of
    /// parking a worker (shed load, don't queue it).
    fn try_acquire_slot(&self) -> bool {
        let mut n = lock(&self.inflight);
        if *n >= self.config.max_inflight {
            return false;
        }
        *n += 1;
        true
    }

    /// Enters a stamped session's in-flight accounting; `false` = the
    /// session is already at its cap and this request must be shed.
    fn enter_session(&self, session: u64) -> bool {
        let cap = self.config.session_inflight;
        if cap == 0 || session == 0 {
            return true;
        }
        let mut map = lock(&self.session_inflight);
        let n = map.entry(session).or_insert(0);
        if *n >= cap {
            return false;
        }
        *n += 1;
        true
    }

    fn leave_session(&self, session: u64) {
        if self.config.session_inflight == 0 || session == 0 {
            return;
        }
        let mut map = lock(&self.session_inflight);
        if let Some(n) = map.get_mut(&session) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(&session);
            }
        }
    }

    /// Enters a tenant's in-flight accounting; `false` = the tenant is at
    /// its [`DaemonConfig::tenant_inflight`] cap and this request must be
    /// shed with `Busy`. Tenant 0 (anonymous) is unmetered.
    fn enter_tenant(&self, tenant: u32) -> bool {
        let cap = self.config.tenant_inflight;
        if cap == 0 || tenant == 0 {
            return true;
        }
        let mut map = lock(&self.tenant_inflight);
        let n = map.entry(tenant).or_insert(0);
        if *n >= cap {
            return false;
        }
        *n += 1;
        true
    }

    fn leave_tenant(&self, tenant: u32) {
        if self.config.tenant_inflight == 0 || tenant == 0 {
            return;
        }
        let mut map = lock(&self.tenant_inflight);
        if let Some(n) = map.get_mut(&tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(&tenant);
            }
        }
    }

    /// Total un-checkpointed journal bytes across hosted subfiles.
    fn journal_backlog(&self) -> u64 {
        read(&self.files).values().map(|s| s.journal_pending.load(Ordering::Relaxed)).sum()
    }

    /// Whether the journal-backlog watermark forbids accepting more
    /// mutating work right now.
    fn over_watermark(&self) -> bool {
        self.config.journal_watermark.is_some_and(|wm| self.journal_backlog() >= wm)
    }

    fn release_slot(&self) {
        let mut n = lock(&self.inflight);
        *n = n.saturating_sub(1);
    }

    /// Whether an injected kill/torn-write fault has "crashed" the daemon.
    fn fault_crashed(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultInjector::killed)
    }

    /// Simulates a crash: stop accepting, sever every connection abruptly
    /// (no replies, no flushes — exactly what a real crash leaves behind).
    fn crash(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.sever_connections();
    }

    /// Closes every open connection and wakes whatever may be parked on
    /// the old state: the scrub pause and the event loop.
    fn sever_connections(&self) {
        for conn in lock(&self.conns).drain(..) {
            if let Some(stream) = conn.upgrade() {
                stream.shutdown_both();
            }
        }
        self.shutdown_cv.notify_all();
        self.waker.wake();
    }
}

/// A running daemon: its client-facing address and a way to stop it.
pub struct DaemonHandle {
    /// Address clients should connect to.
    addr: String,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    scrub_thread: Option<std::thread::JoinHandle<()>>,
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

    /// Stops the daemon: refuses new connections, closes open ones
    /// (connections finish their in-flight request first — replies are
    /// written before the next frame read observes the closed socket), and
    /// joins the event-loop thread, which joins its workers before it
    /// releases the listener.
    ///
    /// The scrub thread is signalled and joined first: it exits promptly
    /// (condvar wait, not a sleep) and must never observe half-torn-down
    /// sockets or stores.
    pub fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.shutdown_cv.notify_all();
        if let Some(t) = self.scrub_thread.take() {
            let _ = t.join();
        }
        self.shared.sever_connections();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the daemon stops (e.g. a remote `Shutdown` request).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.shutdown_cv.notify_all();
        if let Some(t) = self.scrub_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` and runs the daemon on background threads: the event
/// loop, its [`DaemonConfig::workers`] frame executors, and (when
/// configured) the scrub thread.
pub fn serve(addr: &str, config: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = NetListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let client_addr = listener.client_addr()?;
    let epoch = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64)
        .max(1);
    let fault = config.fault.clone().map(FaultInjector::new);
    let reactor = crate::reactor::Reactor::new()?;
    let shared = Arc::new(Shared {
        config,
        epoch,
        files: RwLock::new(HashMap::new()),
        stopping: AtomicBool::new(false),
        inflight: Mutex::new(0),
        conns: Mutex::new(Vec::new()),
        session_inflight: Mutex::new(HashMap::new()),
        tenant_inflight: Mutex::new(HashMap::new()),
        fault,
        waker: reactor.waker(),
        shutdown_mu: Mutex::new(()),
        shutdown_cv: Condvar::new(),
    });
    let loop_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("pf-net-reactor".into())
        .spawn(move || reactor_daemon::run(listener, reactor, &loop_shared))?;
    let scrub_thread = match shared.config.scrub_interval {
        None => None,
        Some(interval) => {
            let scrub_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("pf-net-scrub".into())
                    .spawn(move || scrub_loop(&scrub_shared, interval))?,
            )
        }
    };
    Ok(DaemonHandle { addr: client_addr, shared, accept_thread: Some(accept_thread), scrub_thread })
}

/// Pages the background scrub verifies per `store`/`sums` acquisition.
const SCRUB_WINDOW_PAGES: usize = 256;

/// The daemon-side scrub hook: at each interval, verify every hosted
/// subfile against its page checksum map, counting mismatches into
/// `Stat.checksum_errors`. Detection only — a `pf scrub` client reads the
/// counters (or fetches copies directly) and drives repair by compiling a
/// redistribution plan from a healthy replica.
fn scrub_loop(shared: &Shared, interval: Duration) {
    let tick = Duration::from_millis(25).min(interval);
    let mut elapsed = Duration::ZERO;
    while !shared.stopping.load(Ordering::SeqCst) {
        // Interruptible pause: `stop()` notifies `shutdown_cv` so the
        // scrub thread can be joined before any socket teardown instead of
        // finishing a sleep against a daemon mid-shutdown.
        {
            let guard = lock(&shared.shutdown_mu);
            let _ = shared.shutdown_cv.wait_timeout(guard, tick).unwrap_or_else(|e| e.into_inner());
        }
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        elapsed += tick;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;
        let slots: Vec<Arc<FileSlot>> = read(&shared.files).values().cloned().collect();
        for slot in slots {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            // One window per lock acquisition: a foreground read or write
            // waits for at most SCRUB_WINDOW_PAGES pages of verification,
            // never for the whole subfile. Writes landing between windows
            // keep store and map consistent under the same two locks.
            let mut page = 0usize;
            while !shared.stopping.load(Ordering::SeqCst) {
                let mut store = lock(&slot.store);
                if page as u64 * clusterfile::CHECKSUM_PAGE >= store.len() {
                    break;
                }
                let verdict = lock(&slot.sums).verify_pages(&mut store, page, SCRUB_WINDOW_PAGES);
                drop(store);
                let Ok(bad) = verdict else { break };
                slot.stats.checksum_errors.fetch_add(bad, Ordering::Relaxed);
                page += SCRUB_WINDOW_PAGES;
            }
        }
    }
}

/// Decodes and executes one request; a `Write`'s or `WriteChunk`'s bytes
/// are lent from `payload`, so they are journaled, scattered and
/// checksummed from the frame itself. Returns the reply and whether the
/// daemon should begin shutting down.
fn handle_frame(
    shared: &Shared,
    chunk_write: &mut Option<ChunkWrite>,
    opcode: u8,
    payload: &[u8],
    received: std::time::Instant,
) -> (Reply, bool) {
    let refuse = |e: ProtocolError| (Reply::Error(e), false);
    let busy = (Reply::Busy { retry_after_ms: BUSY_RETRY_MS }, false);
    if !op::is_request(opcode) {
        return refuse(ProtocolError::new(ErrCode::UnknownOp, format!("opcode {opcode:#04x}")));
    }
    let (Lent { head: request, bulk }, deadline_ms) = match Lent::decode_deadline(opcode, payload) {
        Ok(pair) => pair,
        Err(e) => return refuse(e.into()),
    };
    if shared.stopping.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown) {
        return refuse(ProtocolError::new(ErrCode::ShuttingDown, "daemon is stopping"));
    }
    // Deadline check: a request whose propagated budget was
    // already spent — queueing, an injected delay, a slow disk upstream —
    // is answered without executing, so nothing is applied for work the
    // client has necessarily given up on.
    if deadline_ms > 0 && received.elapsed() >= Duration::from_millis(u64::from(deadline_ms)) {
        return refuse(ProtocolError::new(
            ErrCode::DeadlineExceeded,
            format!("deadline budget of {deadline_ms} ms expired before execution"),
        ));
    }
    // Journal-backlog watermark: mutating requests degrade to `Busy` while
    // the un-checkpointed backlog is over the configured capacity, instead
    // of growing the journal toward ENOSPC. Chunk streams are shed only at
    // their first frame — a stream already admitted runs to completion.
    let starts_mutation = matches!(request, Request::Write { .. })
        || matches!(request, Request::WriteChunk { offset: 0, .. });
    if starts_mutation && shared.over_watermark() {
        return busy;
    }
    // Per-session in-flight cap: one hot stamped session cannot occupy
    // every slot of the daemon.
    let session = match &request {
        Request::Write { session, .. }
        | Request::WriteChunk { session, .. }
        | Request::ResumeQuery { session, .. } => *session,
        _ => 0,
    };
    if !shared.enter_session(session) {
        return busy;
    }
    let handled = match request {
        Request::Shutdown => {
            shared.stopping.store(true, Ordering::SeqCst);
            (Reply::Ok, true)
        }
        Request::WriteChunk { .. } => {
            (handle_write_chunk(shared, chunk_write, request, bulk), false)
        }
        other => (handle_request(shared, other, bulk), false),
    };
    shared.leave_session(session);
    handled
}

/// Executes `request`; `bulk` holds a `Write`'s payload (lent from its
/// frame, the field itself is empty).
fn handle_request(shared: &Shared, request: Request, bulk: &[u8]) -> Reply {
    match request {
        // The tenant id is a connection property: the event loop learns it
        // when it parses the frame, before this handler runs.
        Request::Open { file, subfile, len, tenant: _ } => handle_open(shared, file, subfile, len),
        Request::SetView { file, compute, element: _, view, proj_set, proj_period } => {
            let slot = match lookup(shared, file) {
                Ok(s) => s,
                Err(e) => return Reply::Error(e),
            };
            slot.stats.requests.fetch_add(1, Ordering::Relaxed);
            // Audit the full view pattern before accepting anything from it.
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
                return Reply::Error(e);
            }
            // The projection set is not a tiling pattern, so the audit does
            // not apply — but it must still be a structurally valid nested
            // set.
            let set = match raw_to_set(&proj_set) {
                Ok(s) => s,
                Err(err) => {
                    return Reply::Error(ProtocolError::new(
                        ErrCode::Malformed,
                        format!("projection set: {err}"),
                    ))
                }
            };
            write(&slot.views).insert(compute, Projection { set, period: proj_period });
            Reply::Ok
        }
        Request::Write { file, compute, l_s, r_s, session, seq, payload: _ } => {
            let payload = bulk;
            with_projection(shared, file, compute, l_s, r_s, |slot, proj| {
                // A stamped retry of a write already in the dedup window is
                // acknowledged with the original result, not re-applied.
                if session != 0 {
                    if let Some(written) = lock(&slot.dedup).get(session, seq) {
                        return Reply::WriteOk { written, replayed: true };
                    }
                }
                let mut store = lock(&slot.store);
                // Clip to the subfile before any arithmetic: bounds the
                // segment walk and makes boundary-crossing writes short
                // instead of fatal.
                let len = store.len();
                if len == 0 || l_s >= len {
                    lock(&slot.dedup).insert(session, seq, 0);
                    return Reply::WriteOk { written: 0, replayed: false };
                }
                let r_c = r_s.min(len - 1);
                let runs: Vec<(u64, u64)> =
                    proj.segments_between(l_s, r_c).iter().map(|s| (s.l(), s.len())).collect();
                let expect: u64 = runs.iter().map(|&(_, n)| n).sum();
                if (payload.len() as u64) < expect {
                    return Reply::Error(ProtocolError::new(
                        ErrCode::SizeMismatch,
                        format!("payload holds {} bytes, projection needs {expect}", payload.len()),
                    ));
                }
                let body = &payload[..expect as usize];
                // Journal the full intent before the first store byte moves
                // (write-ahead): a crash mid-scatter replays from here.
                {
                    let mut journal = lock(&slot.journal);
                    if journal.is_enabled() {
                        if let Err(e) = journal.append_intent(session, seq, &runs, body) {
                            return Reply::Error(ProtocolError::new(
                                ErrCode::Internal,
                                format!("journal append: {e}"),
                            ));
                        }
                        slot.journal_pending.fetch_add(expect, Ordering::Relaxed);
                    }
                }
                let torn = shared.fault.as_ref().is_some_and(FaultInjector::on_write_torn)
                    && !runs.is_empty();
                let scatter = if torn {
                    // Injected crash after the first applied segment: the
                    // subfile is torn, the journaled intent is not.
                    // the frame executor suppresses the reply; recovery on
                    // the next Open must heal the remaining segments.
                    let (off0, n0) = runs[0];
                    store.write_at(off0, &body[..n0 as usize])
                } else {
                    // Scatter straight from the frame payload, adjacent
                    // segment runs coalesced into single positioned writes.
                    store.scatter(runs.iter().copied(), body).map(|_| ())
                };
                if let Err(e) = scatter {
                    return Reply::Error(ProtocolError::new(
                        ErrCode::Internal,
                        format!("scatter write: {e}"),
                    ));
                }
                if torn {
                    return Reply::WriteOk { written: expect, replayed: false };
                }
                // Refresh the page checksums the scatter touched, once per
                // message: each page is recomputed once, from the frame
                // payload where a run covers it whole (a torn write skips
                // this: the daemon "crashed", and the next Open rebuilds
                // the map from the recovered bytes).
                if let Err(e) = lock(&slot.sums).record_runs(&mut store, &runs, Some(body)) {
                    return Reply::Error(ProtocolError::new(
                        ErrCode::Internal,
                        format!("checksum update: {e}"),
                    ));
                }
                lock(&slot.dedup).insert(session, seq, expect);
                slot.stats.bytes_written.fetch_add(expect, Ordering::Relaxed);
                slot.stats.fragments.fetch_add(runs.len() as u64, Ordering::Relaxed);
                Reply::WriteOk { written: expect, replayed: false }
            })
        }
        Request::Read { file, compute, l_s, r_s } => {
            with_projection(shared, file, compute, l_s, r_s, |slot, proj| {
                let mut store = lock(&slot.store);
                let len = store.len();
                if len == 0 || l_s >= len {
                    return Reply::Data { payload: Vec::new() };
                }
                let r_c = r_s.min(len - 1);
                let runs: Vec<(u64, u64)> =
                    proj.segments_between(l_s, r_c).iter().map(|s| (s.l(), s.len())).collect();
                // Verify the stored pages and gather from them in one pass
                // over the same bytes: a mismatch is answered as
                // ChecksumMismatch (nothing is shipped) so a replicated
                // client fails over to another copy and queues this one
                // for repair instead of propagating silent corruption.
                let mut out = Vec::new();
                match lock(&slot.sums).read_verified(&mut store, &runs, &mut out) {
                    Ok(0) => {}
                    Ok(bad) => return checksum_mismatch(slot, bad),
                    Err(e) => {
                        return Reply::Error(ProtocolError::new(
                            ErrCode::Internal,
                            format!("verified read: {e}"),
                        ))
                    }
                }
                slot.stats.bytes_read.fetch_add(out.len() as u64, Ordering::Relaxed);
                slot.stats.fragments.fetch_add(runs.len() as u64, Ordering::Relaxed);
                Reply::Data { payload: out }
            })
        }
        Request::Flush { file } => match lookup(shared, file) {
            Ok(slot) => {
                slot.stats.requests.fetch_add(1, Ordering::Relaxed);
                if shared.fault.as_ref().is_some_and(FaultInjector::on_flush) {
                    return Reply::Error(ProtocolError::new(
                        ErrCode::Internal,
                        "injected flush failure",
                    ));
                }
                let mut store = lock(&slot.store);
                // A flush makes the store durable, so the journaled intents
                // covering it are redundant: checkpoint (store flush, then a
                // new journal generation), then persist the checksum
                // sidecar the durable bytes match.
                match lock(&slot.journal)
                    .checkpoint(&mut store)
                    .and_then(|()| lock(&slot.sums).flush())
                {
                    Ok(()) => {
                        slot.journal_pending.store(0, Ordering::Relaxed);
                        Reply::Ok
                    }
                    Err(e) => Reply::Error(ProtocolError::new(ErrCode::Internal, e.to_string())),
                }
            }
            Err(e) => Reply::Error(e),
        },
        Request::Stat { file } => match lookup(shared, file) {
            Ok(slot) => {
                slot.stats.requests.fetch_add(1, Ordering::Relaxed);
                let len = lock(&slot.store).len();
                let views = read(&slot.views).len() as u64;
                Reply::Stat(StatInfo {
                    len,
                    views,
                    requests: slot.stats.requests.load(Ordering::Relaxed),
                    bytes_written: slot.stats.bytes_written.load(Ordering::Relaxed),
                    bytes_read: slot.stats.bytes_read.load(Ordering::Relaxed),
                    fragments: slot.stats.fragments.load(Ordering::Relaxed),
                    checksum_errors: slot.stats.checksum_errors.load(Ordering::Relaxed),
                })
            }
            Err(e) => Reply::Error(e),
        },
        Request::Fetch { file } => match lookup(shared, file) {
            Ok(slot) => {
                slot.stats.requests.fetch_add(1, Ordering::Relaxed);
                let mut store = lock(&slot.store);
                // Fetch is the scrub driver's copy-health probe: a full
                // verification failure marks this copy Corrupt remotely.
                // It returns the whole subfile, so it is one critical
                // section (and one pass over the bytes), not windows.
                let whole = [(0, store.len())];
                let mut payload = Vec::new();
                match lock(&slot.sums).read_verified(&mut store, &whole, &mut payload) {
                    Ok(0) => Reply::Data { payload },
                    Ok(bad) => checksum_mismatch(&slot, bad),
                    Err(e) => Reply::Error(ProtocolError::new(ErrCode::Internal, e.to_string())),
                }
            }
            Err(e) => Reply::Error(e),
        },
        Request::Ping => Reply::Pong { epoch: shared.epoch, max_chunk: shared.config.max_chunk },
        Request::ResumeQuery { file, session, seq } => match lookup(shared, file) {
            Ok(slot) => {
                slot.stats.requests.fetch_add(1, Ordering::Relaxed);
                let offset = if session == 0 {
                    0
                } else {
                    let dedup = lock(&slot.dedup);
                    // A completed stamp means the whole write applied: the
                    // retried stream is answered as a replay, so it should
                    // restart from 0, not resume.
                    if dedup.get(session, seq).is_some() {
                        0
                    } else {
                        dedup.progress(session, seq).unwrap_or(0)
                    }
                };
                Reply::ResumeAt { offset }
            }
            Err(e) => Reply::Error(e),
        },
        // Open/SetView/Write/Read handled above; Shutdown and write chunks
        // are dispatched in handle_frame.
        Request::Shutdown | Request::WriteChunk { .. } => Reply::Ok,
    }
}

fn handle_open(shared: &Shared, file: u64, subfile: u32, len: u64) -> Reply {
    let mut files = write(&shared.files);
    if let Some(slot) = files.get(&file) {
        slot.stats.requests.fetch_add(1, Ordering::Relaxed);
        let existing_len = lock(&slot.store).len();
        return if slot.subfile == subfile && existing_len == len {
            Reply::Ok // idempotent reopen
        } else {
            Reply::Error(ProtocolError::new(
                ErrCode::FileMismatch,
                format!(
                    "file {file} already open as subfile {} with {existing_len} bytes",
                    slot.subfile
                ),
            ))
        };
    }
    // Open preserving any pre-crash bytes: a directory-backed subfile that
    // survived a daemon restart is recovered (journal replay), not zeroed.
    let opened =
        SubfileStore::open_or_create(&shared.config.backend, file as usize, subfile as usize, len);
    let (mut store, existed) = match opened {
        Ok(pair) => pair,
        Err(e) => return Reply::Error(ProtocolError::new(ErrCode::Internal, e.to_string())),
    };
    let mut journal = match Journal::open(&shared.config.backend, file as usize, subfile as usize) {
        Ok(j) => j,
        Err(e) => return Reply::Error(ProtocolError::new(ErrCode::Internal, e.to_string())),
    };
    let mut dedup = DedupWindow::new(shared.config.dedup_window);
    let mut replayed_intents = false;
    if existed {
        if store.len() != len {
            return Reply::Error(ProtocolError::new(
                ErrCode::FileMismatch,
                format!(
                    "subfile survives on disk with {} bytes, open asked for {len}",
                    store.len()
                ),
            ));
        }
        // Replay intents a crash may have left half-applied, and remember
        // their retry stamps so post-crash retries stay exactly-once.
        match journal.recover(&mut store) {
            Ok(report) => {
                replayed_intents = report.replayed > 0;
                for (session, seq, written) in report.dedup {
                    dedup.insert(session, seq, written);
                }
            }
            Err(e) => {
                return Reply::Error(ProtocolError::new(
                    ErrCode::Internal,
                    format!("journal recovery: {e}"),
                ))
            }
        }
    } else if let Err(e) = journal.reset() {
        // A fresh subfile must not inherit a dead daemon's intents.
        return Reply::Error(ProtocolError::new(ErrCode::Internal, e.to_string()));
    }
    // The sidecar checksum map predates any intents replayed above, so it
    // is only trusted for a cleanly-restarted subfile; otherwise the map
    // is rebuilt from the recovered bytes.
    let sums = match ChecksumMap::for_store(
        &shared.config.backend,
        file as usize,
        subfile as usize,
        &mut store,
        existed && !replayed_intents,
    ) {
        Ok(s) => s,
        Err(e) => {
            return Reply::Error(ProtocolError::new(
                ErrCode::Internal,
                format!("checksum map: {e}"),
            ))
        }
    };
    let slot = Arc::new(FileSlot {
        subfile,
        store: Mutex::new(store),
        journal: Mutex::new(journal),
        dedup: Mutex::new(dedup),
        sums: Mutex::new(sums),
        views: RwLock::new(HashMap::new()),
        stats: Stats::default(),
        journal_pending: AtomicU64::new(0),
    });
    slot.stats.requests.fetch_add(1, Ordering::Relaxed);
    files.insert(file, slot);
    Reply::Ok
}

/// Counts `bad` mismatching pages against the slot and builds the refusal
/// that makes a replicated client fail over to another copy.
fn checksum_mismatch(slot: &FileSlot, bad: u64) -> Reply {
    slot.stats.checksum_errors.fetch_add(bad, Ordering::Relaxed);
    Reply::Error(ProtocolError::new(
        ErrCode::ChecksumMismatch,
        format!("{bad} page(s) failed CRC32C verification"),
    ))
}

fn lookup(shared: &Shared, file: u64) -> Result<Arc<FileSlot>, ProtocolError> {
    read(&shared.files)
        .get(&file)
        .cloned()
        .ok_or_else(|| ProtocolError::new(ErrCode::UnknownFile, format!("file {file}")))
}

/// Shared prologue of `Write`/`Read`: resolve the file slot and the
/// requesting compute node's projection, validate the interval, count the
/// request.
fn with_projection(
    shared: &Shared,
    file: u64,
    compute: u32,
    l_s: u64,
    r_s: u64,
    body: impl FnOnce(&FileSlot, &Projection) -> Reply,
) -> Reply {
    let slot = match lookup(shared, file) {
        Ok(s) => s,
        Err(e) => return Reply::Error(e),
    };
    slot.stats.requests.fetch_add(1, Ordering::Relaxed);
    if l_s > r_s {
        return Reply::Error(ProtocolError::new(
            ErrCode::BadRange,
            format!("interval [{l_s}, {r_s}] is empty"),
        ));
    }
    let proj = match read(&slot.views).get(&compute) {
        Some(p) => p.clone(),
        None => {
            return Reply::Error(ProtocolError::new(
                ErrCode::NoView,
                format!("compute node {compute} has no view on file {file}"),
            ))
        }
    };
    body(&slot, &proj)
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
        slot: Arc<FileSlot>,
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
    Replay { slot: Arc<FileSlot>, written: u64 },
    /// The stream failed (validation, journal or storage error): swallow
    /// the remaining chunks, answering each with the same error.
    Failed(ProtocolError),
}

/// Resolves the server-side mode for a chunk stream's first frame: file
/// lookup, range/view validation, dedup check, and the projection walk.
fn start_chunk_mode(shared: &Shared, h: &ChunkHeader) -> ChunkMode {
    let slot = match lookup(shared, h.file) {
        Ok(s) => s,
        Err(e) => return ChunkMode::Failed(e),
    };
    if h.l_s > h.r_s {
        let e = ProtocolError::new(
            ErrCode::BadRange,
            format!("interval [{}, {}] is empty", h.l_s, h.r_s),
        );
        return ChunkMode::Failed(e);
    }
    let proj = match read(&slot.views).get(&h.compute) {
        Some(p) => p.clone(),
        None => {
            let e = ProtocolError::new(
                ErrCode::NoView,
                format!("compute node {} has no view on file {}", h.compute, h.file),
            );
            return ChunkMode::Failed(e);
        }
    };
    if h.session != 0 {
        let hit = lock(&slot.dedup).get(h.session, h.seq);
        if let Some(written) = hit {
            return ChunkMode::Replay { slot, written };
        }
    }
    let len = lock(&slot.store).len();
    let runs: Vec<(u64, u64)> = if len == 0 || h.l_s >= len {
        Vec::new()
    } else {
        proj.segments_between(h.l_s, h.r_s.min(len - 1)).iter().map(|s| (s.l(), s.len())).collect()
    };
    let expect: u64 = runs.iter().map(|&(_, n)| n).sum();
    if h.total < expect {
        let e = ProtocolError::new(
            ErrCode::SizeMismatch,
            format!("stream declares {} bytes, projection needs {expect}", h.total),
        );
        return ChunkMode::Failed(e);
    }
    ChunkMode::Apply { slot, runs, expect, applied: 0, run_idx: 0, run_pos: 0 }
}

fn handle_write_chunk(
    shared: &Shared,
    state: &mut Option<ChunkWrite>,
    request: Request,
    data: &[u8],
) -> Reply {
    let Request::WriteChunk { file, compute, l_s, r_s, session, seq, offset, total, last, data: _ } =
        request
    else {
        // handle_frame dispatches on the opcode, so any other variant here
        // is a daemon defect — answered as a typed error, never a panic on
        // the worker.
        return Reply::Error(ProtocolError::new(
            ErrCode::Internal,
            "chunk handler invoked on a non-chunk request",
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
        // First chunk of a stream (any abandoned predecessor is dropped —
        // starting over is the client's resync).
        *state = Some(ChunkWrite {
            stream: WriteStream::start(&header),
            mode: start_chunk_mode(shared, &header),
        });
    } else if !state.as_ref().is_some_and(|cw| cw.stream.continues(&header)) {
        // A mid-stream first frame is accepted only as a resume: the
        // stream's stamp must have recorded exactly this much progress
        // (the client learned the offset from ResumeQuery). The segment
        // cursor is fast-forwarded past the bytes the earlier attempt
        // already applied and journaled.
        let resumable = session != 0
            && lookup(shared, file)
                .is_ok_and(|slot| lock(&slot.dedup).progress(session, seq) == Some(offset));
        if resumable {
            let mut mode = start_chunk_mode(shared, &header);
            if let ChunkMode::Apply { runs, expect, applied, run_idx, run_pos, .. } = &mut mode {
                let skip = offset.min(*expect);
                let _ = take_runs(runs, run_idx, run_pos, skip);
                *applied = skip;
            }
            *state = Some(ChunkWrite { stream: WriteStream::resume(&header), mode });
        } else {
            *state = None;
            return Reply::Error(ProtocolError::new(
                ErrCode::Malformed,
                "write chunk does not continue the in-progress stream",
            ));
        }
    }
    let Some(cw) = state.as_mut() else {
        return Reply::Error(ProtocolError::new(
            ErrCode::Internal,
            "chunk stream state missing after installation",
        ));
    };
    if let ChunkMode::Apply { slot, .. } | ChunkMode::Replay { slot, .. } = &cw.mode {
        slot.stats.requests.fetch_add(1, Ordering::Relaxed);
    }
    // Stream arithmetic must stay consistent with the declared total; the
    // automaton rejects overruns and short finals before a byte lands.
    if let Err(violation) = cw.stream.accept(&header) {
        *state = None;
        return Reply::Error(ProtocolError::new(ErrCode::Malformed, violation.to_string()));
    }
    let result: Result<Reply, ProtocolError> = match &mut cw.mode {
        ChunkMode::Failed(e) => Ok(Reply::Error(e.clone())),
        ChunkMode::Replay { written, .. } => {
            if last {
                Ok(Reply::WriteOk { written: *written, replayed: true })
            } else {
                Ok(Reply::ChunkOk { offset })
            }
        }
        ChunkMode::Apply { slot, runs, expect, applied, run_idx, run_pos } => {
            let apply_n = (data.len() as u64).min(*expect - *applied);
            let sub = take_runs(runs, run_idx, run_pos, apply_n);
            let stamp = if last { (session, seq) } else { (0, 0) };
            let journaled: Result<(), ProtocolError> = {
                let mut journal = lock(&slot.journal);
                if journal.is_enabled() && (!sub.is_empty() || (last && session != 0)) {
                    journal
                        .append_intent(stamp.0, stamp.1, &sub, &data[..apply_n as usize])
                        .map(|()| {
                            slot.journal_pending.fetch_add(apply_n, Ordering::Relaxed);
                        })
                        .map_err(|e| {
                            ProtocolError::new(ErrCode::Internal, format!("journal append: {e}"))
                        })
                } else {
                    Ok(())
                }
            };
            journaled.and_then(|()| {
                let mut store = lock(&slot.store);
                // The injected torn-write fault fires on the stream's first
                // chunk: apply only the first sub-run, then "crash" (the
                // reply below is suppressed by the frame executor).
                let torn = offset == 0
                    && shared.fault.as_ref().is_some_and(FaultInjector::on_write_torn)
                    && !sub.is_empty();
                let scatter = if torn {
                    let (off0, n0) = sub[0];
                    store.write_at(off0, &data[..n0 as usize])
                } else {
                    store.scatter(sub.iter().copied(), &data[..apply_n as usize]).map(|_| ())
                };
                scatter.map_err(|e| {
                    ProtocolError::new(ErrCode::Internal, format!("scatter write: {e}"))
                })?;
                if !torn {
                    lock(&slot.sums)
                        .record_runs(&mut store, &sub, Some(&data[..apply_n as usize]))
                        .map_err(|e| {
                            ProtocolError::new(ErrCode::Internal, format!("checksum update: {e}"))
                        })?;
                }
                *applied += apply_n;
                if last && !torn {
                    lock(&slot.dedup).insert(session, seq, *expect);
                    slot.stats.bytes_written.fetch_add(*expect, Ordering::Relaxed);
                    slot.stats.fragments.fetch_add(runs.len() as u64, Ordering::Relaxed);
                } else if !last && !torn {
                    // Remember how far this stream's stamp has applied so a
                    // retry after a drop can resume instead of restarting.
                    lock(&slot.dedup).set_progress(session, seq, offset + data.len() as u64);
                }
                if last {
                    Ok(Reply::WriteOk { written: *expect, replayed: false })
                } else {
                    Ok(Reply::ChunkOk { offset })
                }
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
