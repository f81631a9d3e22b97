//! Bounded exhaustive model checking for the parafile wire protocol.
//!
//! The daemon/client pair in `parafile-net` drives its wire behavior
//! through the typed automata in [`parafile_net::proto`] — the chunk
//! in-flight window and the server's chunk-stream discipline. This crate
//! closes the loop: it embeds those *same* automata in a small abstract
//! world (one client, one daemon, two FIFO message queues) and explores
//! every interleaving of sends, receives, daemon steps, and injected faults
//! up to a bounded depth, checking the protocol's safety invariants on
//! every reachable state:
//!
//! * **exactly-once** — a stamped logical write is applied fresh at most
//!   once, across retries, daemon crashes, and journal recovery;
//! * **write-before-ack** — a fresh `WriteOk` is never on the wire (or
//!   consumed) unless the stamped journal intent is durable;
//! * **chunk window** — the client never exceeds `CHUNK_WINDOW` frames in
//!   flight;
//! * **version refusal** — a frame whose version byte is not
//!   [`parafile_net::PROTOCOL_VERSION`] is never applied, journaled or
//!   acknowledged, and its client terminates;
//! * **liveness (bounded)** — no reachable non-terminal state is stuck.
//!
//! Faults are not invented here: each scenario perturbs the interleaving
//! with one of the six [`parafile_net::fault`] families
//! (`drop`/`truncate`/`flush`/`kill`/`torn`/`delay`), mapped through
//! [`Perturbation::from_plan`] so the checked fault menu is exactly the
//! chaos-proxy menu.
//!
//! The explorer is deterministic: breadth-first over a `HashSet` seen-set,
//! so the explored-state count is reproducible run to run and is reported
//! in CI against a budget. Mutations ([`Mutations`]) re-introduce the
//! bugs the invariants exist to exclude (ack-before-journal, missing
//! dedup, ignored window, ack-below-quorum, stuck-open) and the test
//! suite proves each one is caught.
//!
//! The [`quorum`] module extends the battery with a replicated-store
//! world: quorum writes over `R = 2` copies with a replica-crash
//! perturbation, checking per-replica exactly-once, journal-before-ack,
//! and quorum accounting (success implies every replica acked or is
//! recorded dirty). The [`breaker`] module embeds the session's
//! [`parafile_net::BreakerCore`] automaton and checks fail-fast
//! shedding, the single half-open probe, bounded recovery, and hedged
//! duplicate delivery. [`check_everything`] runs all three batteries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod quorum;

pub use breaker::{breaker_scenarios, check_breakers, explore_breaker, BreakerScenario};
pub use quorum::{check_quorum, explore_quorum, quorum_scenarios, QuorumScenario};

use std::collections::{HashSet, VecDeque};

use parafile_net::proto::StreamProgress;
use parafile_net::{ChunkHeader, ChunkSender, FaultPlan, WriteStream, PROTOCOL_VERSION};

/// Bytes per modeled chunk (the concrete value is irrelevant to the
/// invariants; it only has to make the stream arithmetic non-trivial).
const CHUNK_LEN: u64 = 4;
/// The modeled session id (non-zero = stamped, like a real session).
const SESSION: u64 = 7;
/// The modeled sequence number of the single logical write.
const SEQ: u64 = 1;

// ---------------------------------------------------------------------------
// Fault perturbations

/// One of the six `net::fault` families, reduced to its effect on the
/// abstract world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perturbation {
    /// Sever the connection: both queues drain to the floor, the client
    /// retries.
    Drop,
    /// Truncate a frame mid-payload then sever — indistinguishable from
    /// [`Perturbation::Drop`] at this abstraction level (the wire codec's
    /// handling of the torn frame itself is fuzzed separately), kept as
    /// its own scenario so every family has a named run.
    Truncate,
    /// The daemon answers the next write-class frame with a transient
    /// internal error instead of serving it (the `flush` family's
    /// fail-then-recover shape).
    Flush,
    /// Kill the daemon: volatile state (dedup window, in-progress stream)
    /// is lost, the journal survives, a restart recovers from it.
    Kill,
    /// Crash mid-apply *after* the journal append of the current frame —
    /// the torn-subfile scenario the write-ahead journal heals.
    Torn,
    /// A frame is held back by injected latency: nothing is lost or
    /// corrupted, the node is merely late. In the FIFO wire world a
    /// delayed frame is indistinguishable from the scheduling stalls the
    /// explorer already interleaves, so the perturbation is a budgeted
    /// no-op here; its behavioral bite (timeouts feeding the breaker,
    /// hedged reads racing the straggler) is checked by the [`breaker`]
    /// battery.
    Delay,
}

impl Perturbation {
    /// Maps a concrete chaos-proxy [`FaultPlan`] onto its abstract
    /// perturbation, so model scenarios are seeded from the same six
    /// fault families the integration chaos tests use.
    #[must_use]
    pub fn from_plan(plan: &FaultPlan) -> Option<Self> {
        if plan.torn_write.is_some() {
            Some(Self::Torn)
        } else if plan.kill_after_frames.is_some() {
            Some(Self::Kill)
        } else if plan.fail_flush > 0 {
            Some(Self::Flush)
        } else if plan.truncate.is_some() {
            Some(Self::Truncate)
        } else if plan.drop_after_frames.is_some() {
            Some(Self::Drop)
        } else if plan.delay.is_some() {
            Some(Self::Delay)
        } else {
            None
        }
    }

    /// Parses a chaos spec (`drop:1`, `torn:9`, a bare seed, ...) into a
    /// perturbation via [`FaultPlan::parse`].
    pub fn from_spec(spec: &str) -> Result<Option<Self>, String> {
        Ok(Self::from_plan(&FaultPlan::parse(spec)?))
    }
}

// ---------------------------------------------------------------------------
// Seeded mutations

/// Deliberately re-introduced protocol bugs.
///
/// Each knob disables one safeguard in the modeled daemon or client; the
/// checker must report a violated invariant for every knob (that is the
/// mutation-coverage proof that the invariants actually bite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mutations {
    /// The daemon enqueues a fresh `WriteOk` without first making the
    /// stamped journal intent durable.
    pub ack_before_journal: bool,
    /// The daemon skips the `(session, seq)` dedup lookup, so a retried
    /// write is applied again.
    pub skip_dedup: bool,
    /// The client bypasses the [`ChunkSender`] window guard and keeps
    /// sending while the window is full.
    pub ignore_window: bool,
    /// The replicated session reports success the moment any single
    /// replica acks, without recording the missing replicas as dirty
    /// (checked by the [`quorum`] world, not the wire world).
    pub ack_below_quorum: bool,
    /// An Open circuit breaker never grants its half-open probe, so a
    /// recovered node is shed forever (checked by the [`breaker`]
    /// world's bounded-recovery verdict).
    pub stuck_open: bool,
}

impl Mutations {
    /// No mutations: the shipped protocol.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Looks up a mutation knob by its CLI name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        let mut m = Self::none();
        match name {
            "ack-before-journal" => m.ack_before_journal = true,
            "skip-dedup" => m.skip_dedup = true,
            "ignore-window" => m.ignore_window = true,
            "ack-below-quorum" => m.ack_below_quorum = true,
            "stuck-open" => m.stuck_open = true,
            other => {
                return Err(format!(
                    "unknown mutation {other:?} (expected ack-before-journal, skip-dedup, ignore-window, ack-below-quorum, or stuck-open)"
                ))
            }
        }
        Ok(m)
    }

    /// Every mutation knob with its CLI name.
    #[must_use]
    pub fn all_named() -> Vec<(&'static str, Self)> {
        vec![
            ("ack-before-journal", Self { ack_before_journal: true, ..Self::none() }),
            ("skip-dedup", Self { skip_dedup: true, ..Self::none() }),
            ("ignore-window", Self { ignore_window: true, ..Self::none() }),
            ("ack-below-quorum", Self { ack_below_quorum: true, ..Self::none() }),
            ("stuck-open", Self { stuck_open: true, ..Self::none() }),
        ]
    }
}

// ---------------------------------------------------------------------------
// Scenarios

/// One bounded world to explore: a client shape, the version byte its
/// frames carry, and at most one fault perturbation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name for reports.
    pub name: &'static str,
    /// Whether the client attempts the chunked write path.
    pub chunked: bool,
    /// Number of chunks in the modeled stream (chunked scenarios).
    pub n_chunks: u64,
    /// Client in-flight window.
    pub window: u64,
    /// The version byte of every frame the client sends: the daemon
    /// admits only [`PROTOCOL_VERSION`].
    pub client_version: u8,
    /// Client retry attempts before giving up.
    pub attempts: u8,
    /// The fault family perturbing this scenario, if any.
    pub perturbation: Option<Perturbation>,
}

/// The standard scenario battery: clean runs, every fault family against
/// the chunked path, and a client whose frames carry a refused version.
///
/// Fault scenarios are derived from real chaos specs via
/// [`Perturbation::from_spec`], so this list cannot drift from the
/// `net::fault` families.
#[must_use]
pub fn standard_scenarios() -> Vec<Scenario> {
    let base = Scenario {
        name: "",
        chunked: true,
        n_chunks: 3,
        window: 2,
        client_version: PROTOCOL_VERSION,
        attempts: 3,
        perturbation: None,
    };
    let fault = |name, spec: &str| Scenario {
        name,
        perturbation: Perturbation::from_spec(spec).expect("static chaos spec parses"),
        ..base.clone()
    };
    vec![
        Scenario { name: "mono-clean", chunked: false, ..base.clone() },
        Scenario { name: "chunk-clean", ..base.clone() },
        fault("chunk-drop", "drop:1"),
        fault("chunk-truncate", "truncate:1"),
        fault("chunk-flush", "flush:1"),
        fault("chunk-kill", "kill:1"),
        fault("chunk-torn", "torn:1"),
        fault("chunk-delay", "delay:1"),
        Scenario {
            name: "mono-kill",
            chunked: false,
            perturbation: Perturbation::from_spec("kill:1").expect("static chaos spec parses"),
            ..base.clone()
        },
        Scenario {
            name: "version-refused",
            chunked: false,
            client_version: PROTOCOL_VERSION - 1,
            ..base
        },
    ]
}

// ---------------------------------------------------------------------------
// The abstract world

/// A wire message in flight on one of the two FIFO queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Msg {
    /// Client capability probe.
    Ping { version: u8 },
    /// Daemon probe answer (carries `max_chunk` on the real wire).
    Pong,
    /// Monolithic stamped write.
    Write { version: u8 },
    /// One chunk of a streamed write.
    WriteChunk { version: u8, h: ChunkHeader },
    /// Ack for a non-final chunk.
    ChunkOk,
    /// Final ack for the logical write.
    WriteOk { replayed: bool },
    /// The daemon rejected the frame's protocol version.
    ErrUnsupportedVersion,
    /// A transient daemon-side failure (the `flush` fault family).
    ErrTransient,
}

/// Client control state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Deciding how to issue the write (probe or monolithic).
    Start,
    /// Probe sent, waiting for `Pong`.
    AwaitPong,
    /// Chunk stream in progress, driven by the [`ChunkSender`] window.
    Streaming,
    /// Monolithic write sent, waiting for `WriteOk`.
    AwaitWriteOk,
    /// Terminal: the logical write was acknowledged.
    Done,
    /// Terminal: retries exhausted.
    Failed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Client {
    /// The version byte of every frame this client sends.
    version: u8,
    phase: Phase,
    sender: Option<ChunkSender>,
    attempts_left: u8,
    got_fresh_ack: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Server {
    alive: bool,
    /// Flush-family perturbation armed: fail the next write-class frame.
    fail_next: bool,
    stream: Option<WriteStream>,
    /// The in-progress chunk stream hit the dedup window at start.
    replaying: bool,
    /// Volatile `(session, seq)` dedup window holds our stamp.
    dedup_has_stamp: bool,
    /// Durable journal: chunk intent records appended (survives kills).
    journal_chunks: u8,
    /// Durable journal: the stamped (final) intent record is present.
    journal_stamped: bool,
    /// Times the logical write was applied fresh (the exactly-once
    /// counter).
    applied_fresh: u8,
    /// The daemon rejected a frame the verified client produced.
    protocol_error: bool,
}

/// One reachable global state: client, daemon, the two FIFO queues, and
/// the remaining fault budget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    client: Client,
    server: Server,
    c2s: VecDeque<Msg>,
    s2c: VecDeque<Msg>,
    fault_budget: u8,
}

impl World {
    fn init(sc: &Scenario) -> Self {
        Self {
            client: Client {
                version: sc.client_version,
                phase: Phase::Start,
                sender: None,
                attempts_left: sc.attempts.max(1),
                got_fresh_ack: false,
            },
            server: Server {
                alive: true,
                fail_next: false,
                stream: None,
                replaying: false,
                dedup_has_stamp: false,
                journal_chunks: 0,
                journal_stamped: false,
                applied_fresh: 0,
                protocol_error: false,
            },
            c2s: VecDeque::new(),
            s2c: VecDeque::new(),
            fault_budget: 0,
        }
    }

    fn terminal(&self) -> bool {
        matches!(self.client.phase, Phase::Done | Phase::Failed)
    }

    /// The connection died (fault or daemon crash): in-flight frames are
    /// gone, the daemon's per-connection stream state is gone, and the
    /// client either retries the logical write or gives up.
    fn sever_and_retry(&mut self) {
        self.c2s.clear();
        self.s2c.clear();
        self.server.stream = None;
        self.server.replaying = false;
        let c = &mut self.client;
        c.sender = None;
        if matches!(c.phase, Phase::Done | Phase::Failed) {
            return;
        }
        if c.attempts_left <= 1 {
            c.attempts_left = 0;
            c.phase = Phase::Failed;
        } else {
            c.attempts_left -= 1;
            c.phase = Phase::Start;
        }
    }
}

fn chunk_header(sc: &Scenario, index: u64, last: bool) -> ChunkHeader {
    let total = sc.n_chunks * CHUNK_LEN;
    ChunkHeader {
        file: 1,
        compute: 0,
        l_s: 0,
        r_s: total - 1,
        session: SESSION,
        seq: SEQ,
        offset: index * CHUNK_LEN,
        total,
        last,
        len: CHUNK_LEN,
    }
}

// ---------------------------------------------------------------------------
// Transitions

/// Every successor of `w` under the scenario's enabled transitions.
fn successors(w: &World, sc: &Scenario, mu: &Mutations) -> Vec<World> {
    let mut out = Vec::new();
    client_send(w, sc, mu, &mut out);
    client_recv(w, sc, &mut out);
    server_step(w, mu, &mut out);
    if !w.server.alive {
        out.push(server_restart(w));
    }
    fault_steps(w, sc, mu, &mut out);
    out
}

/// Client-initiated sends (only while the daemon accepts connections).
fn client_send(w: &World, sc: &Scenario, mu: &Mutations, out: &mut Vec<World>) {
    if !w.server.alive {
        return;
    }
    match w.client.phase {
        Phase::Start => {
            let mut n = w.clone();
            let version = n.client.version;
            if sc.chunked {
                n.c2s.push_back(Msg::Ping { version });
                n.client.phase = Phase::AwaitPong;
            } else {
                n.c2s.push_back(Msg::Write { version });
                n.client.phase = Phase::AwaitWriteOk;
            }
            out.push(n);
        }
        Phase::Streaming => {
            let Some(sender) = w.client.sender else { return };
            // The mutated client barges past the window guard: anything
            // unsent is fair game even with the window full.
            let plan = sender.next_to_send().or_else(|| {
                (mu.ignore_window && !sender.all_sent())
                    .then_some(parafile_net::proto::ChunkPlan { index: sender.sent(), last: false })
            });
            if let Some(plan) = plan {
                let mut n = w.clone();
                let sender = n.client.sender.as_mut().expect("checked above");
                let h = chunk_header(sc, plan.index, plan.last);
                n.c2s.push_back(Msg::WriteChunk { version: n.client.version, h });
                sender.record_send();
                out.push(n);
            }
        }
        _ => {}
    }
}

/// Client consumes the head of the daemon→client queue.
fn client_recv(w: &World, sc: &Scenario, out: &mut Vec<World>) {
    let Some(&msg) = w.s2c.front() else { return };
    let mut n = w.clone();
    n.s2c.pop_front();
    match msg {
        Msg::Pong => {
            if matches!(n.client.phase, Phase::AwaitPong) {
                // The real client computes n_chunks from the peer's
                // max_chunk; the scenario fixes the stream shape.
                n.client.sender = Some(ChunkSender::new(sc.n_chunks, sc.window));
                n.client.phase = Phase::Streaming;
            }
            out.push(n);
        }
        Msg::ErrUnsupportedVersion => {
            // A protocol error is never retried: the write fails.
            n.client.sender = None;
            n.client.phase = Phase::Failed;
            out.push(n);
        }
        Msg::ChunkOk => {
            if let Some(sender) = n.client.sender.as_mut() {
                if sender.record_ack().is_err() {
                    // A spurious ack is unreachable from the verified
                    // daemon; surface it as a daemon-side protocol error
                    // so the invariant pass reports it.
                    n.server.protocol_error = true;
                }
            }
            out.push(n);
        }
        Msg::WriteOk { replayed } => {
            n.client.phase = Phase::Done;
            n.client.sender = None;
            if !replayed {
                n.client.got_fresh_ack = true;
            }
            out.push(n);
        }
        Msg::ErrTransient => {
            n.sever_and_retry();
            out.push(n);
        }
        Msg::Ping { .. } | Msg::Write { .. } | Msg::WriteChunk { .. } => {
            // Malformed direction; unreachable by construction.
            n.server.protocol_error = true;
            out.push(n);
        }
    }
}

/// Daemon consumes the head of the client→daemon queue.
fn server_step(w: &World, mu: &Mutations, out: &mut Vec<World>) {
    if !w.server.alive {
        return;
    }
    let Some(&msg) = w.c2s.front() else { return };
    let mut n = w.clone();
    n.c2s.pop_front();
    match msg {
        Msg::Ping { version } => {
            if version == PROTOCOL_VERSION {
                n.s2c.push_back(Msg::Pong);
            } else {
                n.s2c.push_back(Msg::ErrUnsupportedVersion);
            }
        }
        Msg::Write { version } => {
            if version != PROTOCOL_VERSION {
                n.s2c.push_back(Msg::ErrUnsupportedVersion);
            } else if n.server.fail_next {
                n.server.fail_next = false;
                n.s2c.push_back(Msg::ErrTransient);
            } else if !mu.skip_dedup && n.server.dedup_has_stamp {
                n.s2c.push_back(Msg::WriteOk { replayed: true });
            } else {
                apply_fresh_final(&mut n.server, mu);
                n.s2c.push_back(Msg::WriteOk { replayed: false });
            }
        }
        Msg::WriteChunk { version, h } => {
            if version != PROTOCOL_VERSION {
                n.server.stream = None;
                n.s2c.push_back(Msg::ErrUnsupportedVersion);
            } else if n.server.fail_next {
                n.server.fail_next = false;
                n.server.stream = None;
                n.s2c.push_back(Msg::ErrTransient);
            } else {
                if h.offset == 0 {
                    n.server.replaying = !mu.skip_dedup && n.server.dedup_has_stamp;
                    n.server.stream = Some(WriteStream::start(&h));
                } else if n.server.stream.is_none() {
                    // The trailing tail of a stream the daemon already
                    // aborted (e.g. a transient error answered while
                    // more chunks were pipelined in flight). The real
                    // daemon answers `Malformed`; the client abandons
                    // the connection and retries. Benign.
                    n.s2c.push_back(Msg::ErrTransient);
                    out.push(n);
                    return;
                } else if !n.server.stream.as_ref().is_some_and(|ws| ws.continues(&h)) {
                    // A gap or identity mismatch within a live stream:
                    // the verified client cannot produce one, so the
                    // invariant pass flags the run instead of silently
                    // replying Malformed.
                    n.server.stream = None;
                    n.server.protocol_error = true;
                    out.push(n);
                    return;
                }
                let Some(ws) = n.server.stream.as_mut() else {
                    n.server.protocol_error = true;
                    out.push(n);
                    return;
                };
                match ws.accept(&h) {
                    Err(_) => {
                        n.server.stream = None;
                        n.server.protocol_error = true;
                    }
                    Ok(StreamProgress::Middle) => {
                        if !n.server.replaying {
                            n.server.journal_chunks = n.server.journal_chunks.saturating_add(1);
                        }
                        n.s2c.push_back(Msg::ChunkOk);
                    }
                    Ok(StreamProgress::Final) => {
                        if n.server.replaying {
                            n.s2c.push_back(Msg::WriteOk { replayed: true });
                        } else {
                            n.server.journal_chunks = n.server.journal_chunks.saturating_add(1);
                            apply_fresh_final(&mut n.server, mu);
                            n.s2c.push_back(Msg::WriteOk { replayed: false });
                        }
                        n.server.stream = None;
                        n.server.replaying = false;
                    }
                }
            }
        }
        _ => {
            n.server.protocol_error = true;
        }
    }
    out.push(n);
}

/// The fresh-apply commit point: journal the stamped intent (unless the
/// ack-before-journal mutation removes the append), apply, remember the
/// stamp in the dedup window.
fn apply_fresh_final(s: &mut Server, mu: &Mutations) {
    if !mu.ack_before_journal {
        s.journal_stamped = true;
    }
    s.applied_fresh = s.applied_fresh.saturating_add(1);
    s.dedup_has_stamp = true;
}

/// Restart a killed daemon: volatile state is rebuilt from the durable
/// journal — recovery replays stamped intents into the dedup window.
fn server_restart(w: &World) -> World {
    let mut n = w.clone();
    n.server.alive = true;
    n.server.fail_next = false;
    n.server.stream = None;
    n.server.replaying = false;
    n.server.dedup_has_stamp = n.server.journal_stamped;
    n
}

/// Fault transitions: at most one firing per run (`fault_budget`), gated
/// on states where the family can physically occur.
fn fault_steps(w: &World, sc: &Scenario, mu: &Mutations, out: &mut Vec<World>) {
    let Some(p) = sc.perturbation else { return };
    if w.fault_budget == 0 || w.terminal() {
        return;
    }
    match p {
        Perturbation::Drop | Perturbation::Truncate => {
            let mut n = w.clone();
            n.fault_budget -= 1;
            n.sever_and_retry();
            out.push(n);
        }
        Perturbation::Flush => {
            if w.server.alive && !w.server.fail_next {
                let mut n = w.clone();
                n.fault_budget -= 1;
                n.server.fail_next = true;
                out.push(n);
            }
        }
        Perturbation::Kill => {
            if w.server.alive {
                let mut n = w.clone();
                n.fault_budget -= 1;
                n.server.alive = false;
                n.server.fail_next = false;
                n.server.stream = None;
                n.server.replaying = false;
                // The dedup window is volatile; the journal is not.
                n.server.dedup_has_stamp = false;
                n.sever_and_retry();
                out.push(n);
            }
        }
        Perturbation::Delay => {
            // Latency neither loses nor corrupts anything; the FIFO
            // queues already model a frame sitting unconsumed for any
            // number of steps. Consuming the budget keeps the scenario
            // named and proves the run terminates with a dawdling peer.
            let mut n = w.clone();
            n.fault_budget -= 1;
            out.push(n);
        }
        Perturbation::Torn => {
            // Crash mid-apply: the head frame's journal append lands,
            // the scatter is cut short, no ack is ever produced.
            if !w.server.alive {
                return;
            }
            let fresh_write = match w.c2s.front() {
                Some(Msg::Write { .. }) => {
                    (mu.skip_dedup || !w.server.dedup_has_stamp).then_some(true)
                }
                Some(Msg::WriteChunk { h, .. }) if h.offset == 0 => {
                    (mu.skip_dedup || !w.server.dedup_has_stamp).then_some(h.last)
                }
                _ => None,
            };
            let Some(last) = fresh_write else { return };
            let mut n = w.clone();
            n.fault_budget -= 1;
            n.c2s.pop_front();
            n.server.journal_chunks = n.server.journal_chunks.saturating_add(1);
            if last && !mu.ack_before_journal {
                // The stamped intent is durable: recovery will complete
                // the apply, so exactly-once accounting counts it now.
                n.server.journal_stamped = true;
                n.server.applied_fresh = n.server.applied_fresh.saturating_add(1);
            }
            n.server.alive = false;
            n.server.fail_next = false;
            n.server.stream = None;
            n.server.replaying = false;
            n.server.dedup_has_stamp = false;
            n.sever_and_retry();
            out.push(n);
        }
    }
}

// ---------------------------------------------------------------------------
// Invariants

fn check_invariants(w: &World) -> Option<&'static str> {
    if let Some(sender) = &w.client.sender {
        if !sender.within_window() {
            return Some("chunk window exceeded: more frames in flight than CHUNK_WINDOW");
        }
    }
    if w.server.applied_fresh > 1 {
        return Some("exactly-once violated: stamped write applied fresh more than once");
    }
    let fresh_ack_visible = w.client.got_fresh_ack
        || w.s2c.iter().any(|m| matches!(m, Msg::WriteOk { replayed: false }));
    if fresh_ack_visible && !w.server.journal_stamped {
        return Some("write-before-ack violated: fresh WriteOk without a durable journal intent");
    }
    if w.client.version != PROTOCOL_VERSION {
        let acked = matches!(w.client.phase, Phase::Done)
            || w.s2c.iter().any(|m| matches!(m, Msg::Pong | Msg::ChunkOk | Msg::WriteOk { .. }));
        let touched =
            w.server.applied_fresh > 0 || w.server.journal_chunks > 0 || w.server.journal_stamped;
        if acked || touched {
            return Some("version refusal violated: a refused frame was applied or acknowledged");
        }
    }
    if w.server.protocol_error {
        return Some("daemon rejected a frame produced by the verified client");
    }
    if matches!(w.client.phase, Phase::Done) && w.server.applied_fresh == 0 {
        return Some("completed session whose write was never applied");
    }
    None
}

// ---------------------------------------------------------------------------
// The explorer

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum interleaving depth (transitions from the initial state).
    pub max_depth: u32,
    /// Maximum unique states to explore before declaring the run
    /// truncated.
    pub max_states: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_depth: 64, max_states: 200_000 }
    }
}

/// A violated invariant, with the offending reachable state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// BFS depth at which the state was reached.
    pub depth: u32,
    /// Debug rendering of the violating state.
    pub state: String,
}

/// The result of exhausting (or truncating) one scenario's state space.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Scenario name.
    pub scenario: &'static str,
    /// Unique states explored.
    pub states: u64,
    /// The state budget was exhausted before the frontier emptied.
    pub truncated: bool,
    /// First invariant violation found, if any.
    pub violation: Option<Violation>,
}

/// Exhaustively explores one scenario breadth-first.
///
/// Deterministic: the seen-set is keyed on the full `World` value, and
/// the reported state count is independent of hasher seeding (it counts
/// set insertions, not iteration order).
#[must_use]
pub fn explore(sc: &Scenario, mu: &Mutations, limits: &Limits) -> Exploration {
    let mut init = World::init(sc);
    init.fault_budget = u8::from(sc.perturbation.is_some());
    let mut seen: HashSet<World> = HashSet::new();
    seen.insert(init.clone());
    let mut frontier: VecDeque<(World, u32)> = VecDeque::new();
    frontier.push_back((init, 0));
    let mut states: u64 = 0;
    let mut done = Exploration { scenario: sc.name, states: 0, truncated: false, violation: None };
    while let Some((w, depth)) = frontier.pop_front() {
        states += 1;
        done.states = states;
        if states > limits.max_states {
            done.truncated = true;
            return done;
        }
        if let Some(invariant) = check_invariants(&w) {
            done.violation = Some(Violation { invariant, depth, state: format!("{w:?}") });
            return done;
        }
        if depth >= limits.max_depth {
            continue;
        }
        let succ = successors(&w, sc, mu);
        if succ.is_empty() && !w.terminal() {
            done.violation = Some(Violation {
                invariant: "stuck: non-terminal state with no enabled transition",
                depth,
                state: format!("{w:?}"),
            });
            return done;
        }
        for s in succ {
            if seen.insert(s.clone()) {
                frontier.push_back((s, depth + 1));
            }
        }
    }
    done
}

/// Runs every standard scenario under `mu`, stopping at the first
/// violation. Returns all per-scenario results produced so far.
#[must_use]
pub fn check_all(mu: &Mutations, limits: &Limits) -> Vec<Exploration> {
    let mut results = Vec::new();
    for sc in standard_scenarios() {
        let r = explore(&sc, mu, limits);
        let stop = r.violation.is_some() || r.truncated;
        results.push(r);
        if stop {
            break;
        }
    }
    results
}

/// Runs the wire-protocol battery, the replicated-store quorum battery
/// ([`quorum::check_quorum`]), and the circuit-breaker battery
/// ([`breaker::check_breakers`]), stopping at the first violation
/// across all three. This is what `pf-model` and CI execute, so every
/// mutation knob — including the quorum-only `ack-below-quorum` and the
/// breaker-only `stuck-open` — is covered by one entry point.
#[must_use]
pub fn check_everything(mu: &Mutations, limits: &Limits) -> Vec<Exploration> {
    let mut results = check_all(mu, limits);
    let stopped = |rs: &[Exploration]| rs.iter().any(|r| r.violation.is_some() || r.truncated);
    if !stopped(&results) {
        results.extend(check_quorum(mu, limits));
    }
    if !stopped(&results) {
        results.extend(check_breakers(mu, limits));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_model_is_violation_free() {
        for sc in standard_scenarios() {
            let r = explore(&sc, &Mutations::none(), &Limits::default());
            assert!(!r.truncated, "{}: exploration truncated at {} states", sc.name, r.states);
            assert!(r.violation.is_none(), "{}: unexpected violation {:?}", sc.name, r.violation);
            assert!(r.states > 3, "{}: suspiciously small state space ({})", sc.name, r.states);
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        for sc in standard_scenarios() {
            let a = explore(&sc, &Mutations::none(), &Limits::default());
            let b = explore(&sc, &Mutations::none(), &Limits::default());
            assert_eq!(a.states, b.states, "{}: state count must be reproducible", sc.name);
        }
    }

    #[test]
    fn ack_before_journal_mutation_is_caught() {
        let mu = Mutations { ack_before_journal: true, ..Mutations::none() };
        let results = check_all(&mu, &Limits::default());
        let hit = results.iter().find_map(|r| r.violation.as_ref());
        let v = hit.expect("ack-before-journal must violate an invariant");
        assert!(v.invariant.contains("write-before-ack"), "caught as {:?}", v.invariant);
    }

    #[test]
    fn skip_dedup_mutation_is_caught() {
        let mu = Mutations { skip_dedup: true, ..Mutations::none() };
        let results = check_all(&mu, &Limits::default());
        let hit = results.iter().find_map(|r| r.violation.as_ref());
        let v = hit.expect("skip-dedup must violate an invariant");
        assert!(v.invariant.contains("exactly-once"), "caught as {:?}", v.invariant);
    }

    #[test]
    fn ignore_window_mutation_is_caught() {
        let mu = Mutations { ignore_window: true, ..Mutations::none() };
        let results = check_all(&mu, &Limits::default());
        let hit = results.iter().find_map(|r| r.violation.as_ref());
        let v = hit.expect("ignore-window must violate an invariant");
        assert!(v.invariant.contains("chunk window"), "caught as {:?}", v.invariant);
    }

    #[test]
    fn every_named_mutation_is_caught() {
        for (name, mu) in Mutations::all_named() {
            let results = check_everything(&mu, &Limits::default());
            assert!(
                results.iter().any(|r| r.violation.is_some()),
                "mutation {name} slipped through the invariant net"
            );
            assert_eq!(Mutations::from_name(name).expect("name round-trips"), mu);
        }
    }

    #[test]
    fn perturbations_cover_every_fault_family() {
        let specs = ["drop:1", "truncate:1", "flush:1", "kill:1", "torn:1", "delay:1"];
        let expect = [
            Perturbation::Drop,
            Perturbation::Truncate,
            Perturbation::Flush,
            Perturbation::Kill,
            Perturbation::Torn,
            Perturbation::Delay,
        ];
        for (spec, want) in specs.iter().zip(expect) {
            let got = Perturbation::from_spec(spec).expect("spec parses");
            assert_eq!(got, Some(want), "spec {spec}");
        }
        // Seeded plans always land in exactly one family.
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed);
            assert!(Perturbation::from_plan(&plan).is_some(), "seed {seed} maps to a family");
        }
    }

    #[test]
    fn version_refused_scenario_applies_nothing_and_terminates() {
        // A client framing at another version: the run must end
        // violation-free, which (per the refusal invariant) proves the
        // refused write was never applied, journaled or acknowledged, and
        // (per the stuck check) that the client reached a terminal state.
        let sc = standard_scenarios()
            .into_iter()
            .find(|s| s.name == "version-refused")
            .expect("scenario exists");
        assert_ne!(sc.client_version, PROTOCOL_VERSION);
        let r = explore(&sc, &Mutations::none(), &Limits::default());
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
        // Under every seeded bug the refused write still never lands.
        for (name, mu) in Mutations::all_named() {
            let r = explore(&sc, &mu, &Limits::default());
            assert!(r.violation.is_none(), "{name}: {:?}", r.violation);
        }
    }
}
