//! Deterministic fault injection: seeded plans, daemon hooks, and a
//! frame-aware chaos proxy.
//!
//! Every failure scenario in the test matrix and CI is reproducible from a
//! single `u64` seed: [`FaultPlan::from_seed`] expands the seed into one
//! concrete scenario (connection drop, mid-frame truncation, injected
//! delay, flush failure, daemon kill, or a torn scatter write), with every
//! parameter drawn from a [`XorShift64`] stream. The same plan can be
//! wired into two places:
//!
//! * **the daemon** ([`crate::DaemonConfig::fault`]) — exercises the parts
//!   only the server can break: failing `flush()`, crashing between two
//!   segments of a scatter write (the torn-write scenario the journal
//!   exists for), or dying wholesale mid-redistribution;
//! * **the chaos proxy** ([`chaos_proxy`], CLI `pf chaos`) — sits between
//!   a client and an untouched daemon and attacks the transport: drops
//!   connections after N frames, truncates a frame mid-payload, delays
//!   frames, or blacks the node out entirely for a seeded interval.
//!
//! Faults are *schedule-deterministic*: which fault fires and at which
//! frame count is a pure function of the seed. Under concurrent
//! connections the interleaving still varies — the correctness oracle is
//! therefore always final-state equivalence with a fault-free run, not a
//! specific event order.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Minimal deterministic PRNG (xorshift64*), good enough for fault
/// parameter jitter and entirely dependency-free.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is remapped to a fixed constant.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Which direction of a proxied connection a transport fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → daemon (requests; e.g. a `Write` payload upload).
    ClientToServer,
    /// Daemon → client (replies).
    ServerToClient,
}

/// Truncate one frame after `keep` of its bytes, then sever the
/// connection — a torn frame, as a crashed peer or cut link produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncateFault {
    /// 1-based frame index (per connection, per direction) to truncate.
    pub frame: u64,
    /// Bytes of the frame to let through before cutting (may be 0).
    pub keep: u64,
    /// Which direction's frame to truncate (proxy only; the daemon always
    /// truncates its own reply).
    pub dir: Direction,
}

/// A seeded, deterministic failure scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was expanded from (0 for hand-built plans).
    pub seed: u64,
    /// Sever the connection when its Nth request frame arrives, before it
    /// is served (1-based; each connection counts independently).
    pub drop_after_frames: Option<u64>,
    /// Like `drop_after_frames`, but fires exactly once across the whole
    /// daemon/proxy lifetime: the first connection to reach its Nth frame
    /// is severed, every later connection serves normally. The
    /// deterministic "one mid-stream disconnect, then a clean retry"
    /// scenario resumable uploads are tested with.
    pub drop_once_after_frames: Option<u64>,
    /// Sleep `millis` before serving every `every`-th frame.
    pub delay: Option<(u64, u64)>,
    /// Truncate one frame mid-payload, then sever.
    pub truncate: Option<TruncateFault>,
    /// Fail this many `Flush` requests (server-side) with an `Internal`
    /// error before letting flushes succeed again.
    pub fail_flush: u64,
    /// Kill the whole daemon (or black out the proxied node) after this
    /// many frames served across all connections: no reply, no flush,
    /// every connection severed at once.
    pub kill_after_frames: Option<u64>,
    /// During the Nth `Write` (1-based, daemon-wide), apply only the first
    /// projected segment and then crash — the torn-subfile scenario the
    /// write-ahead journal exists to heal.
    pub torn_write: Option<u64>,
    /// How long a killed/blacked-out node refuses connections before the
    /// harness may bring it back (proxy blackout duration).
    pub blackout_ms: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_after_frames: None,
            drop_once_after_frames: None,
            delay: None,
            truncate: None,
            fail_flush: 0,
            kill_after_frames: None,
            torn_write: None,
            blackout_ms: 0,
        }
    }

    /// Expands `seed` into one concrete scenario. The scenario family is
    /// chosen by the low bits, every parameter by further draws, so any
    /// seed names exactly one reproducible failure.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed);
        let family = rng.next_u64() % 6;
        let mut plan = match family {
            0 => Self::drop_connection(seed),
            1 => Self::truncate_frame(seed),
            2 => Self::fail_flush(seed),
            3 => Self::kill_one_node(seed),
            4 => Self::torn_write(seed),
            _ => Self::injected_delay(seed),
        };
        plan.seed = seed;
        plan
    }

    /// Sever each connection after a seeded number of request frames.
    #[must_use]
    pub fn drop_connection(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xD20B);
        Self { seed, drop_after_frames: Some(rng.range(2, 6)), ..Self::none() }
    }

    /// Truncate a reply frame mid-payload, then sever.
    #[must_use]
    pub fn truncate_frame(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x7234);
        Self {
            seed,
            truncate: Some(TruncateFault {
                frame: rng.range(2, 5),
                keep: rng.range(1, 13),
                dir: Direction::ServerToClient,
            }),
            ..Self::none()
        }
    }

    /// Fail a seeded number of flushes with an `Internal` error.
    #[must_use]
    pub fn fail_flush(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xF1A5);
        Self { seed, fail_flush: rng.range(1, 3), ..Self::none() }
    }

    /// Kill the daemon (or black out the proxied node) mid-stream.
    #[must_use]
    pub fn kill_one_node(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x4111);
        Self {
            seed,
            kill_after_frames: Some(rng.range(3, 9)),
            blackout_ms: rng.range(50, 200),
            ..Self::none()
        }
    }

    /// Crash mid-scatter during a seeded `Write`, leaving a torn subfile
    /// for journal recovery to heal.
    #[must_use]
    pub fn torn_write(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x709E);
        Self {
            seed,
            torn_write: Some(rng.range(1, 4)),
            blackout_ms: rng.range(50, 150),
            ..Self::none()
        }
    }

    /// Sleep before serving every seeded Nth frame — the tail-slow node
    /// that hedged reads and circuit breakers (DESIGN.md §16) exist for.
    /// Never severs or corrupts anything; the node is merely late.
    #[must_use]
    pub fn injected_delay(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xDE1A);
        Self { seed, delay: Some((rng.range(1, 4), rng.range(40, 180))), ..Self::none() }
    }

    /// Parses a CLI chaos spec: either a bare seed (`"42"`, expanded via
    /// [`FaultPlan::from_seed`]) or `family:seed` with family one of
    /// `drop`, `truncate`, `flush`, `kill`, `torn`, `delay`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parse_seed =
            |s: &str| s.parse::<u64>().map_err(|_| format!("chaos seed must be a number: {s:?}"));
        match spec.split_once(':') {
            None => Ok(Self::from_seed(parse_seed(spec)?)),
            Some((family, seed)) => {
                let seed = parse_seed(seed)?;
                match family {
                    "drop" => Ok(Self::drop_connection(seed)),
                    "truncate" => Ok(Self::truncate_frame(seed)),
                    "flush" => Ok(Self::fail_flush(seed)),
                    "kill" => Ok(Self::kill_one_node(seed)),
                    "torn" => Ok(Self::torn_write(seed)),
                    "delay" => Ok(Self::injected_delay(seed)),
                    other => Err(format!(
                        "unknown chaos family {other:?} (drop|truncate|flush|kill|torn|delay)"
                    )),
                }
            }
        }
    }

    /// The plan with its one-shot crash faults disarmed — what a restarted
    /// daemon should run with, so one seed means one crash plus recovery,
    /// not a crash loop.
    #[must_use]
    pub fn disarmed_crashes(&self) -> Self {
        Self { kill_after_frames: None, torn_write: None, ..self.clone() }
    }

    /// Whether this plan injects any *transport* fault the chaos proxy can
    /// fire (drop, truncate, kill). Flush failures and torn writes are
    /// server-side faults — a proxy running such a plan plans nothing.
    #[must_use]
    pub fn plans_transport_fault(&self) -> bool {
        self.drop_after_frames.is_some()
            || self.drop_once_after_frames.is_some()
            || self.truncate.is_some()
            || self.kill_after_frames.is_some()
    }
}

/// What the injector tells the connection loop to do with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Serve normally.
    None,
    /// Sever this connection without serving or replying.
    Drop,
    /// Crash the whole daemon: sever everything, stop accepting.
    Kill,
}

/// Shared fault state for one daemon (or one proxy).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Frames served across all connections (drives kill faults).
    total_frames: AtomicU64,
    /// Flush failures still to inject.
    flush_failures_left: AtomicU64,
    /// `Write` requests seen daemon-wide (drives torn-write faults).
    writes_seen: AtomicU64,
    /// A kill/torn-write fault has fired.
    killed: AtomicBool,
    /// The one-shot drop fault has fired.
    dropped_once: AtomicBool,
}

impl FaultInjector {
    /// Builds the injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let flushes = plan.fail_flush;
        Self {
            plan,
            total_frames: AtomicU64::new(0),
            flush_failures_left: AtomicU64::new(flushes),
            writes_seen: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            dropped_once: AtomicBool::new(false),
        }
    }

    /// The plan this injector runs.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether a kill-class fault has fired.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Called once for every request frame with the connection's own
    /// 1-based frame count. Returns what to do with the frame and how long
    /// to hold it first: the caller parks the frame's connection for an
    /// injected delay (it never sleeps here), then applies the fault.
    pub fn on_frame(&self, conn_frames: u64) -> (FrameFault, Option<Duration>) {
        let delay = self
            .plan
            .delay
            .filter(|&(every, _)| every > 0 && conn_frames % every == 0)
            .map(|(_, millis)| Duration::from_millis(millis));
        (self.frame_fault(conn_frames), delay)
    }

    fn frame_fault(&self, conn_frames: u64) -> FrameFault {
        let total = self.total_frames.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(kill_at) = self.plan.kill_after_frames {
            if total >= kill_at && !self.killed.swap(true, Ordering::SeqCst) {
                return FrameFault::Kill;
            }
            if self.killed() {
                return FrameFault::Kill;
            }
        }
        if let Some(drop_at) = self.plan.drop_after_frames {
            if conn_frames >= drop_at {
                return FrameFault::Drop;
            }
        }
        if let Some(drop_at) = self.plan.drop_once_after_frames {
            if conn_frames >= drop_at && !self.dropped_once.swap(true, Ordering::SeqCst) {
                return FrameFault::Drop;
            }
        }
        FrameFault::None
    }

    /// Bytes of the reply to this connection's Nth frame to let through
    /// before severing, when a truncation fault targets it.
    #[must_use]
    pub fn truncate_reply_at(&self, conn_frames: u64) -> Option<u64> {
        match self.plan.truncate {
            Some(t) if t.dir == Direction::ServerToClient && conn_frames == t.frame => Some(t.keep),
            _ => None,
        }
    }

    /// Whether to fail this `Flush` with an injected `Internal` error.
    pub fn on_flush(&self) -> bool {
        self.flush_failures_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Called per `Write`: `true` means crash after the first applied
    /// segment (the torn-write scenario). Fires at most once.
    pub fn on_write_torn(&self) -> bool {
        let n = self.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        match self.plan.torn_write {
            Some(at) if n >= at => !self.killed.swap(true, Ordering::SeqCst),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// The chaos proxy

/// What a chaos-proxy run observed, for distinguishing "the planned fault
/// fired" from "the protocol broke in a way the plan does not explain".
///
/// Every error reply flowing back to the client is *unexpected*: a client
/// and daemon of one protocol version have no error exchange a clean run
/// needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Transport faults (drop / truncate / kill) the proxy injected.
    pub planned_faults: u64,
    /// Error replies seen flowing back to the client.
    pub unexpected_errors: u64,
    /// Frames the proxy held back with an injected delay. Delays never
    /// sever or corrupt, so they count separately from `planned_faults`:
    /// a slow node is a tail-latency scenario, not a failure.
    pub injected_delays: u64,
}

/// A running chaos proxy; dropping it stops the listener.
pub struct ChaosProxyHandle {
    addr: String,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    shared: Arc<ProxyShared>,
}

impl ChaosProxyHandle {
    /// The address clients should connect to instead of the daemon.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// What the proxy has observed so far (live counters; call after
    /// [`Self::stop`] for a final tally).
    #[must_use]
    pub fn outcome(&self) -> ChaosOutcome {
        ChaosOutcome {
            planned_faults: self.shared.planned_faults.load(Ordering::SeqCst),
            unexpected_errors: self.shared.unexpected_errors.load(Ordering::SeqCst),
            injected_delays: self.shared.injected_delays.load(Ordering::SeqCst),
        }
    }

    /// Stops accepting new connections (live pumps die with their peers).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the proxy stops.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxyHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

struct ProxyShared {
    plan: FaultPlan,
    upstream: String,
    /// While set, the node is "dead": connections severed, connects refused.
    down_until: Mutex<Option<Instant>>,
    /// Transport faults fired as planned (drop / truncate / kill).
    planned_faults: AtomicU64,
    /// Non-`UnsupportedVersion` error replies seen heading to the client.
    unexpected_errors: AtomicU64,
    /// Frames held back with an injected delay.
    injected_delays: AtomicU64,
    /// The plan's one-shot drop has fired.
    dropped_once: AtomicBool,
}

impl ProxyShared {
    fn blacked_out(&self) -> bool {
        let mut down = self.down_until.lock().unwrap_or_else(|e| e.into_inner());
        match *down {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                *down = None;
                false
            }
            None => false,
        }
    }

    fn black_out(&self) {
        let ms = self.plan.blackout_ms.max(50);
        let mut down = self.down_until.lock().unwrap_or_else(|e| e.into_inner());
        *down = Some(Instant::now() + Duration::from_millis(ms));
    }
}

/// Starts a frame-aware TCP proxy on `listen_addr` forwarding to
/// `upstream`, injecting `plan`'s transport faults. The daemon behind it
/// is untouched — this is the "hostile network / dying node" half of the
/// chaos harness, usable against any running daemon (CLI: `pf chaos`).
pub fn chaos_proxy(
    listen_addr: &str,
    upstream: &str,
    plan: FaultPlan,
) -> std::io::Result<ChaosProxyHandle> {
    let listener = TcpListener::bind(listen_addr)?;
    let addr = listener.local_addr()?.to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(ProxyShared {
        plan,
        upstream: upstream.to_string(),
        down_until: Mutex::new(None),
        planned_faults: AtomicU64::new(0),
        unexpected_errors: AtomicU64::new(0),
        injected_delays: AtomicU64::new(0),
        dropped_once: AtomicBool::new(false),
    });
    let accept_stop = Arc::clone(&stop);
    let accept_shared = Arc::clone(&shared);
    let accept_thread =
        std::thread::Builder::new().name("pf-chaos-accept".into()).spawn(move || {
            for client in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { break };
                let shared = Arc::clone(&accept_shared);
                let _ = std::thread::Builder::new()
                    .name("pf-chaos-conn".into())
                    .spawn(move || proxy_connection(client, shared));
            }
        })?;
    Ok(ChaosProxyHandle { addr, stop, accept_thread: Some(accept_thread), shared })
}

/// Pumps one proxied connection in both directions, frame by frame.
fn proxy_connection(client: TcpStream, shared: Arc<ProxyShared>) {
    if shared.blacked_out() {
        return; // node is "down": sever immediately
    }
    let Ok(server) = TcpStream::connect(&shared.upstream) else {
        return;
    };
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let c2s = std::thread::Builder::new().name("pf-chaos-c2s".into()).spawn({
        let shared = Arc::clone(&shared);
        move || pump(client_r, server, &shared, Direction::ClientToServer)
    });
    // Server→client pump runs on this thread.
    let s2c_result = pump(server_r, client, &shared, Direction::ServerToClient);
    if let Ok(handle) = c2s {
        let c2s_result = handle.join().unwrap_or(PumpEnd::Closed);
        if matches!(c2s_result, PumpEnd::Killed) || matches!(s2c_result, PumpEnd::Killed) {
            shared.black_out();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PumpEnd {
    Closed,
    Faulted,
    Killed,
}

/// Forwards frames from `src` to `dst`, applying the plan's faults for
/// `dir`. Returns how the pump ended; faults it fires and unexplained
/// error replies it forwards are tallied in `shared`.
fn pump(mut src: TcpStream, mut dst: TcpStream, shared: &ProxyShared, dir: Direction) -> PumpEnd {
    let plan = &shared.plan;
    // Tallied before the sever, so a client that sees the connection die
    // can never read a verdict that has not counted it yet.
    let fault_fired = || {
        shared.planned_faults.fetch_add(1, Ordering::SeqCst);
    };
    let mut frames = 0u64;
    loop {
        let mut len_buf = [0u8; 4];
        if src.read_exact(&mut len_buf).is_err() {
            let _ = dst.shutdown(std::net::Shutdown::Both);
            return PumpEnd::Closed;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut body = vec![0u8; len];
        if src.read_exact(&mut body).is_err() {
            let _ = dst.shutdown(std::net::Shutdown::Both);
            return PumpEnd::Closed;
        }
        frames += 1;

        if dir == Direction::ServerToClient {
            // Sniff replies for protocol errors the plan does not explain.
            // Reply body: ver:u8 | op:u8 | request:u64 | payload.
            if body.len() >= 2 && body[1] == crate::wire::op::R_ERROR {
                shared.unexpected_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        if dir == Direction::ClientToServer {
            if let Some((every, millis)) = plan.delay {
                if every > 0 && frames % every == 0 {
                    shared.injected_delays.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
            if let Some(kill_at) = plan.kill_after_frames {
                if frames >= kill_at {
                    fault_fired();
                    let _ = src.shutdown(std::net::Shutdown::Both);
                    let _ = dst.shutdown(std::net::Shutdown::Both);
                    return PumpEnd::Killed;
                }
            }
            if let Some(drop_at) = plan.drop_after_frames {
                if frames >= drop_at {
                    fault_fired();
                    let _ = src.shutdown(std::net::Shutdown::Both);
                    let _ = dst.shutdown(std::net::Shutdown::Both);
                    return PumpEnd::Faulted;
                }
            }
            if let Some(drop_at) = plan.drop_once_after_frames {
                if frames >= drop_at && !shared.dropped_once.swap(true, Ordering::SeqCst) {
                    fault_fired();
                    let _ = src.shutdown(std::net::Shutdown::Both);
                    let _ = dst.shutdown(std::net::Shutdown::Both);
                    return PumpEnd::Faulted;
                }
            }
        }
        if let Some(t) = plan.truncate {
            if t.dir == dir && frames == t.frame {
                // Forward the length prefix and `keep` body bytes, then
                // sever: the receiver sees a torn frame.
                let keep = (t.keep as usize).min(body.len());
                let _ = dst.write_all(&len_buf);
                let _ = dst.write_all(&body[..keep]);
                let _ = dst.flush();
                fault_fired();
                let _ = src.shutdown(std::net::Shutdown::Both);
                let _ = dst.shutdown(std::net::Shutdown::Both);
                return PumpEnd::Faulted;
            }
        }
        if dst.write_all(&len_buf).and_then(|()| dst.write_all(&body)).is_err() {
            let _ = src.shutdown(std::net::Shutdown::Both);
            return PumpEnd::Closed;
        }
        let _ = dst.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_cover_all_families() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        let mut families = [false; 6];
        for seed in 0..64u64 {
            let p = FaultPlan::from_seed(seed);
            if p.drop_after_frames.is_some() {
                families[0] = true;
            } else if p.truncate.is_some() {
                families[1] = true;
            } else if p.fail_flush > 0 {
                families[2] = true;
            } else if p.kill_after_frames.is_some() {
                families[3] = true;
            } else if p.torn_write.is_some() {
                families[4] = true;
            } else if p.delay.is_some() {
                families[5] = true;
            }
        }
        assert!(families.iter().all(|&f| f), "64 seeds cover every fault family: {families:?}");
    }

    #[test]
    fn parse_accepts_seeds_and_named_families() {
        assert_eq!(FaultPlan::parse("42").unwrap(), FaultPlan::from_seed(42));
        assert_eq!(FaultPlan::parse("kill:7").unwrap(), FaultPlan::kill_one_node(7));
        assert_eq!(FaultPlan::parse("truncate:7").unwrap(), FaultPlan::truncate_frame(7));
        assert_eq!(FaultPlan::parse("flush:7").unwrap(), FaultPlan::fail_flush(7));
        assert_eq!(FaultPlan::parse("drop:7").unwrap(), FaultPlan::drop_connection(7));
        assert_eq!(FaultPlan::parse("torn:7").unwrap(), FaultPlan::torn_write(7));
        assert_eq!(FaultPlan::parse("delay:7").unwrap(), FaultPlan::injected_delay(7));
        assert!(FaultPlan::parse("bogus:7").is_err());
        assert!(FaultPlan::parse("kill:x").is_err());
    }

    #[test]
    fn injector_fires_each_fault_exactly_as_planned() {
        // Flush failures are consumed one at a time.
        let inj = FaultInjector::new(FaultPlan { fail_flush: 2, ..FaultPlan::none() });
        assert!(inj.on_flush());
        assert!(inj.on_flush());
        assert!(!inj.on_flush(), "only the planned number of flushes fail");

        // Drop fires on the connection's Nth frame.
        let inj = FaultInjector::new(FaultPlan { drop_after_frames: Some(3), ..FaultPlan::none() });
        assert_eq!(inj.on_frame(1), (FrameFault::None, None));
        assert_eq!(inj.on_frame(2), (FrameFault::None, None));
        assert_eq!(inj.on_frame(3), (FrameFault::Drop, None));

        // Kill fires once on the global count, then reports killed.
        let inj = FaultInjector::new(FaultPlan { kill_after_frames: Some(2), ..FaultPlan::none() });
        assert_eq!(inj.on_frame(1), (FrameFault::None, None));
        assert_eq!(inj.on_frame(1), (FrameFault::Kill, None));
        assert!(inj.killed());

        // A delay is handed back on every Nth frame of a connection, for
        // the caller to serve; it is never slept here.
        let inj = FaultInjector::new(FaultPlan { delay: Some((2, 300)), ..FaultPlan::none() });
        let held = Some(Duration::from_millis(300));
        assert_eq!(inj.on_frame(1), (FrameFault::None, None));
        assert_eq!(inj.on_frame(2), (FrameFault::None, held));
        assert_eq!(inj.on_frame(4), (FrameFault::None, held));

        // Torn write fires exactly once.
        let inj = FaultInjector::new(FaultPlan { torn_write: Some(2), ..FaultPlan::none() });
        assert!(!inj.on_write_torn());
        assert!(inj.on_write_torn());
        assert!(!inj.on_write_torn(), "a torn-write crash fires at most once");

        // The one-shot drop fires on one connection, then never again —
        // even for a fresh connection that reaches the same frame count.
        let inj =
            FaultInjector::new(FaultPlan { drop_once_after_frames: Some(2), ..FaultPlan::none() });
        assert_eq!(inj.on_frame(1).0, FrameFault::None);
        assert_eq!(inj.on_frame(2).0, FrameFault::Drop);
        assert_eq!(inj.on_frame(2).0, FrameFault::None, "a one-shot drop never repeats");
        assert_eq!(inj.on_frame(3).0, FrameFault::None);
    }

    /// A throwaway upstream that answers every frame with a canned reply
    /// body (prefixed with its length), then keeps serving until the peer
    /// hangs up. Returns its address.
    fn canned_upstream(reply_body: Vec<u8>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let addr = listener.local_addr().expect("upstream addr").to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let reply = reply_body.clone();
                std::thread::spawn(move || loop {
                    let mut len_buf = [0u8; 4];
                    if conn.read_exact(&mut len_buf).is_err() {
                        return;
                    }
                    let mut body = vec![0u8; u32::from_le_bytes(len_buf) as usize];
                    if conn.read_exact(&mut body).is_err() {
                        return;
                    }
                    let n = u32::try_from(reply.len()).expect("reply fits a frame");
                    if conn.write_all(&n.to_le_bytes()).is_err() || conn.write_all(&reply).is_err()
                    {
                        return;
                    }
                });
            }
        });
        addr
    }

    /// Frames one raw request through `addr` and tries to read one reply.
    fn send_frame(addr: &str, body: &[u8]) -> Option<Vec<u8>> {
        let mut s = TcpStream::connect(addr).ok()?;
        let n = u32::try_from(body.len()).expect("body fits a frame");
        s.write_all(&n.to_le_bytes()).ok()?;
        s.write_all(body).ok()?;
        let mut len_buf = [0u8; 4];
        s.read_exact(&mut len_buf).ok()?;
        let mut reply = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        s.read_exact(&mut reply).ok()?;
        Some(reply)
    }

    /// A minimal reply body: ver | op | request:u64 | payload.
    fn reply_body(op_byte: u8, payload: &[u8]) -> Vec<u8> {
        let mut b = vec![crate::wire::PROTOCOL_VERSION, op_byte];
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(payload);
        b
    }

    #[test]
    fn chaos_outcome_counts_planned_faults() {
        let upstream = canned_upstream(reply_body(crate::wire::op::R_PONG, &[]));
        let plan = FaultPlan { drop_after_frames: Some(1), ..FaultPlan::none() };
        let mut proxy = chaos_proxy("127.0.0.1:0", &upstream, plan).expect("proxy");
        // Frame 1 trips the drop fault: the connection severs unreplied.
        assert_eq!(send_frame(proxy.addr(), &reply_body(0x01, &[])), None);
        proxy.stop();
        let outcome = proxy.outcome();
        assert_eq!(outcome.planned_faults, 1, "{outcome:?}");
        assert_eq!(outcome.unexpected_errors, 0, "{outcome:?}");
    }

    #[test]
    fn chaos_outcome_counts_every_error_reply_as_unexpected() {
        // Code 9 and code 1 (UnsupportedVersion) alike: with one wire
        // version there is no fallback handshake to excuse a refusal.
        for code in [9u16, 1] {
            let upstream =
                canned_upstream(reply_body(crate::wire::op::R_ERROR, &code.to_le_bytes()));
            let mut proxy =
                chaos_proxy("127.0.0.1:0", &upstream, FaultPlan::none()).expect("proxy");
            assert!(send_frame(proxy.addr(), &reply_body(0x01, &[])).is_some());
            proxy.stop();
            let outcome = proxy.outcome();
            assert_eq!(outcome.planned_faults, 0, "code {code}: {outcome:?}");
            assert_eq!(outcome.unexpected_errors, 1, "code {code}: {outcome:?}");
        }
    }

    #[test]
    fn chaos_outcome_counts_injected_delays() {
        let upstream = canned_upstream(reply_body(crate::wire::op::R_PONG, &[]));
        let plan = FaultPlan { delay: Some((1, 5)), ..FaultPlan::none() };
        let mut proxy = chaos_proxy("127.0.0.1:0", &upstream, plan).expect("proxy");
        // Delays hold frames back but every request still gets its reply.
        assert!(send_frame(proxy.addr(), &reply_body(0x01, &[])).is_some());
        assert!(send_frame(proxy.addr(), &reply_body(0x01, &[])).is_some());
        proxy.stop();
        let outcome = proxy.outcome();
        assert_eq!(outcome.injected_delays, 2, "{outcome:?}");
        assert_eq!(outcome.planned_faults, 0, "{outcome:?}");
        assert_eq!(outcome.unexpected_errors, 0, "{outcome:?}");
    }

    #[test]
    fn transport_fault_classification() {
        assert!(FaultPlan::drop_connection(1).plans_transport_fault());
        assert!(FaultPlan::truncate_frame(1).plans_transport_fault());
        assert!(FaultPlan::kill_one_node(1).plans_transport_fault());
        assert!(!FaultPlan::fail_flush(1).plans_transport_fault());
        assert!(!FaultPlan::torn_write(1).plans_transport_fault());
        // A delay is latency, not a transport fault: nothing severs.
        assert!(!FaultPlan::injected_delay(1).plans_transport_fault());
        assert!(!FaultPlan::none().plans_transport_fault());
    }

    #[test]
    fn disarmed_crashes_keep_transport_faults() {
        let plan = FaultPlan {
            drop_after_frames: Some(4),
            kill_after_frames: Some(3),
            torn_write: Some(1),
            ..FaultPlan::none()
        };
        let disarmed = plan.disarmed_crashes();
        assert_eq!(disarmed.kill_after_frames, None);
        assert_eq!(disarmed.torn_write, None);
        assert_eq!(disarmed.drop_after_frames, Some(4));
    }
}
