//! The compute-node session: one parallel file over N I/O-node daemons.
//!
//! A [`Session`] plays the compute-node half of the paper's protocol
//! against real daemons. `set_view` compiles the `MAP_V∘MAP_S⁻¹` access
//! plan through the process-wide [`PlanEngine`] — exactly the planner the
//! simulated `Clusterfile` uses, with repeat views answered from the plan
//! cache — keeps `PROJ_V(V∩S)` locally and ships
//! `PROJ_S(V∩S)` (plus the full raw view pattern, for the daemon's audit)
//! to each intersecting I/O node. `write` maps the interval extremities,
//! gathers view bytes per node and fans the messages out concurrently;
//! `read` runs the reverse path.

//!
//! # Degraded operation
//!
//! Every mutating request carries this session's `(session_id, seq)` retry
//! stamp, so daemons deduplicate replays and retrying is always safe.
//! [`Session::probe`] pings every node and records its boot epoch; nodes
//! that fail the probe are marked dead and writes fail fast on them
//! (outcome [`SegmentOutcome::Unreachable`]) instead of paying the retry
//! schedule per access. [`Session::write_report`] narrates exactly what
//! happened per node — applied, deduplicated replay, re-established after
//! a daemon restart, or unreachable — while [`Session::write`] keeps the
//! original all-or-error contract on top of it.
//!
//! # Replication
//!
//! [`Session::connect_replicated`] layers a [`ReplicaMap`] under the
//! physical partitioning: replica rank `k` of subfile `s` lives on node
//! `(s + k) % n`, opened under the rank-derived wire id
//! [`copy_file_id`]`(file, k)`. Writes fan each compiled-plan segment out
//! to all `R` replicas under one shared `(session, seq)` stamp, return
//! once `W = ⌈(R+1)/2⌉` replicas acknowledge, and drain the stragglers
//! asynchronously — failed replicas are queued in a [`DirtySet`] for
//! repair. Reads come from the first live replica and transparently fail
//! over to the next rank on an unreachable node or a daemon-side
//! [`ErrCode::ChecksumMismatch`], queueing the bad copy for repair.
//! [`Session::scrub`] walks every replica set, majority-votes the winning
//! contents by CRC32C, and re-clones lost, corrupt, or divergent copies
//! from the winner through the plan engine's identity view over the
//! chunked write pipeline.
//!
//! # Tail tolerance (DESIGN.md §16)
//!
//! Crash handling covers nodes that *die*; the resilience layer covers
//! nodes that are merely slow or overloaded. Every request spends from one
//! session-wide [`RetryBudget`], so a systemic outage runs the bucket dry
//! and fails fast instead of amplifying load. [`Session::set_deadline`]
//! attaches an absolute time budget that rides every request on the
//! wire. Each node has a [`CircuitBreaker`]
//! fed from every collected reply: an open breaker makes writes pre-skip
//! the replica (queued dirty, exactly like a dead node) and reads prefer
//! another rank, until a half-open probe re-closes it. Replicated reads
//! are *hedged*: when the primary replica has not answered within the
//! observed p95 latency, the same read is issued to a second copy and the
//! first valid answer wins — duplicates are safe because reads are
//! idempotent and writes are stamp-deduplicated.

// Queues are bounded and the caller's thread blocks only where a waiver
// says so (clippy.toml lists the banned calls).
#![deny(clippy::disallowed_methods)]

use crate::backoff::Backoff;
use crate::error::{ErrCode, NetError};
use crate::resilience::{
    Admission, BreakerState, CircuitBreaker, Deadline, LatencyTracker, RetryBudget,
};
use crate::server::{serve, DaemonConfig, DaemonHandle};
use crate::wire::{Reply, Request, StatInfo};
use clusterfile::{crc32c, StorageBackend};
use falls::{Falls, NestedFalls, NestedSet};
use parafile::engine::{CompiledView, PlanEngine, SegmentReplay};
use parafile::mapping::Mapper;
use parafile::model::{Partition, PartitionPattern};
use parafile::redist::SubfileAccess;
use parafile_audit::{RawFalls, RawPattern};
use parafile_replica::{
    copy_file_id, plan_subfile, CopyHealth, DirtyReplica, DirtySet, ReplicaMap, ScrubVerdict,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

/// Consecutive breaker-relevant failures (transport errors, `Busy` sheds)
/// before a node's circuit breaker trips open.
const BREAKER_THRESHOLD: u32 = 3;

/// How long a tripped breaker sheds a node before letting one half-open
/// probe request through.
const BREAKER_OPEN_FOR: Duration = Duration::from_millis(250);

/// Clamp bounds for the hedged-read trigger delay: the observed read p95
/// is kept within `[HEDGE_FLOOR, HEDGE_CEILING]` so hedges neither double
/// all traffic on a fast cluster nor wait forever on a slow one.
const HEDGE_FLOOR: Duration = Duration::from_millis(5);
const HEDGE_CEILING: Duration = Duration::from_millis(250);

use crate::mux::{Mux, Slot};

/// Gathers the non-contiguous view bytes of `[lo_v, hi_v]` that `replay`
/// routes to one subfile into one message buffer (the paper's t_g phase);
/// a fully-covered interval is a plain copy.
fn gather(replay: &SegmentReplay, lo_v: u64, hi_v: u64, data: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(replay.bytes_between(lo_v, hi_v) as usize);
    replay.for_each_between(lo_v, hi_v, |seg| {
        let a = (seg.l() - lo_v) as usize;
        let b = (seg.r() - lo_v) as usize;
        payload.extend_from_slice(&data[a..=b]);
    });
    payload
}

/// Demands a plain `Ok` reply.
fn expect_ok(reply: Reply) -> Result<(), NetError> {
    match reply {
        Reply::Ok => Ok(()),
        other => Err(NetError::BadReply(format!("expected Ok, got {other:?}"))),
    }
}

/// The `SetView` that installs `view`'s element `element` on replica
/// `rank` of one subfile: the raw view pattern for the daemon's audit plus
/// the subfile-side projection from `access`.
fn set_view_request(
    file: u64,
    rank: usize,
    compute: u32,
    element: usize,
    view: &Partition,
    access: &SubfileAccess,
) -> Request {
    Request::SetView {
        file: copy_file_id(file, rank),
        compute,
        element: element as u32,
        view: RawPattern::from_partition(view),
        proj_set: access.proj_sub.set.families().iter().map(RawFalls::from_nested).collect(),
        proj_period: access.proj_sub.period,
    }
}

struct ViewState {
    view: Partition,
    element: usize,
    /// The engine-compiled access plan (view-side replay tables plus the
    /// symbolic projections), shared with the process-wide plan cache.
    plan: Arc<CompiledView>,
}

struct FileState {
    physical: Partition,
    len: u64,
    views: HashMap<u32, ViewState>,
}

/// What a [`Session::probe`] learned about one I/O node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Never probed.
    Unknown,
    /// Answered the last probe; `epoch` is its boot stamp (0 when the
    /// probe was answered with an error). A changed epoch between probes
    /// means the daemon restarted and lost its session-visible state.
    Alive {
        /// The daemon's boot epoch.
        epoch: u64,
    },
    /// Failed the last probe (or a write); writes fail fast until a later
    /// probe revives it.
    Dead,
}

/// Per-node outcome of one redistribution write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// The daemon applied the segments fresh.
    Applied {
        /// Bytes the daemon stored.
        written: u64,
    },
    /// The daemon had already applied this stamped write and answered from
    /// its dedup window — the retry cost nothing.
    Replayed {
        /// Bytes the original application stored.
        written: u64,
    },
    /// Applied after this session re-opened the file and re-shipped the
    /// view (the daemon restarted and had forgotten both).
    Recovered {
        /// Bytes the daemon stored.
        written: u64,
    },
    /// The node stayed unreachable through retries and re-establishment;
    /// its segments were not applied.
    Unreachable,
}

impl SegmentOutcome {
    /// Bytes this node acknowledged (0 when unreachable).
    #[must_use]
    pub fn written(&self) -> u64 {
        match *self {
            SegmentOutcome::Applied { written }
            | SegmentOutcome::Replayed { written }
            | SegmentOutcome::Recovered { written } => written,
            SegmentOutcome::Unreachable => 0,
        }
    }
}

/// What happened, node by node, during one redistribution write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedistReport {
    /// Total bytes acknowledged across all reachable nodes (counted once
    /// per subfile, not per replica).
    pub written: u64,
    /// `(subfile index, outcome)` for every subfile the interval
    /// intersects. Without replication a subfile and its node share the
    /// index; with replication the outcome is the subfile's best replica's.
    pub outcomes: Vec<(usize, SegmentOutcome)>,
}

impl RedistReport {
    /// Whether every intersecting subfile acknowledged its segments (on at
    /// least one replica).
    #[must_use]
    pub fn fully_applied(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| !matches!(o, SegmentOutcome::Unreachable))
    }

    /// Subfile indices whose segments were not applied anywhere.
    #[must_use]
    pub fn unreachable(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, SegmentOutcome::Unreachable))
            .map(|&(n, _)| n)
            .collect()
    }
}

/// A compute node's connection to a set of I/O-node daemons, one subfile
/// per daemon (daemon order = subfile order).
///
/// Every request — fan-outs and the recovery paths' one-at-a-time calls
/// alike — travels through the session's own [`crate::mux::Mux`], driven
/// on the caller's thread: it holds one connection per node, keeps many
/// requests in flight per connection (replies matched FIFO by request id)
/// and runs all retry/backoff/shed timing on a timer wheel whose timers
/// fall due while a call waits. No thread runs behind a session.
pub struct Session {
    /// The session's only transport.
    mux: Mux,
    files: HashMap<u64, FileState>,
    /// This session's retry-stamp namespace (nonzero; 0 is the unstamped
    /// wire sentinel).
    session_id: u64,
    /// Next retry sequence number.
    next_seq: AtomicU64,
    /// Last known health per node.
    health: Vec<NodeHealth>,
    /// Replica placement (`replicas == 1` reduces to the unreplicated
    /// protocol bit for bit: rank 0 keeps the caller's wire file id).
    map: ReplicaMap,
    /// Replica copies known stale, lost, or corrupt, awaiting scrub repair.
    dirty: DirtySet,
    /// Quorum-write stragglers and hedge losers still in flight.
    stragglers: Vec<Straggler>,
    /// Per-node circuit breakers, indexed by node. Mutexed so
    /// admission checks work from shared-borrow paths (the build phase of
    /// a write holds `&self` through the plan tables).
    breakers: Vec<Mutex<CircuitBreaker>>,
    /// Recent settled read latencies; their p95 picks the hedge delay.
    read_latency: LatencyTracker,
    /// Session-wide retry token bucket every request spends from.
    retry_budget: Arc<RetryBudget>,
    /// The deadline currently attached to every request.
    deadline: Deadline,
    /// Hedged reads issued so far (observability).
    hedged_reads: u64,
    /// Tenant id stamped on every `Open` so daemons can
    /// meter per-tenant quotas; 0 = anonymous.
    tenant: u32,
}

/// What [`Session::failover`] asks each replica of a subfile for.
#[derive(Clone, Copy)]
enum Ask {
    /// A view-interval `Read` through compute node `compute`'s view.
    Read { compute: u32, l_s: u64, r_s: u64 },
    /// The whole copy.
    Fetch,
}

/// A per-node request to fan out, with its target node index.
struct Outgoing {
    node: usize,
    request: Request,
}

/// One logical write of a [`Session::write_batch`]: a view interval and
/// its bytes.
#[derive(Debug, Clone, Copy)]
pub struct BatchWrite<'a> {
    /// First view offset of the interval.
    pub lo_v: u64,
    /// Last view offset of the interval.
    pub hi_v: u64,
    /// The interval's bytes (`hi_v - lo_v + 1` of them).
    pub data: &'a [u8],
}

/// Compute-id namespace the scrub/repair path uses for its identity
/// views, disjoint from application compute nodes (which are dense small
/// integers in practice).
pub const SCRUB_COMPUTE: u32 = u32::MAX;

/// A reply nobody waits for: a quorum-write replica whose reply had not
/// been collected when the write returned (the quorum was already
/// satisfied), or the losing side of a hedged read. Drained
/// opportunistically on later calls and synchronously at flush, scrub and
/// drop. Its outcome lands on its node's breaker (a parked half-open probe
/// that never settled would shed its node forever), and a write copy that
/// failed is queued dirty.
struct Straggler {
    node: usize,
    slot: Slot,
    /// The replica a write straggler updates; `None` for a hedge loser.
    copy: Option<DirtyReplica>,
}

/// One subfile's share of a quorum write, as built: per-rank requests in
/// rank order, plus the replicas pre-skipped because their node is dead.
struct BuiltGroup {
    subfile: usize,
    /// `(rank, node, request)` in rank order.
    targets: Vec<(usize, usize, Request)>,
    /// `(rank, node)` replicas on fail-fast dead nodes (no request sent).
    pre_dirty: Vec<(usize, usize)>,
}

/// One subfile's share of a quorum write, as dispatched: per-rank reply
/// slots awaiting collection.
struct GroupWait {
    subfile: usize,
    /// `(rank, node, slot)` in rank order.
    waits: Vec<(usize, usize, Result<Slot, NetError>)>,
    pre_dirty: Vec<(usize, usize)>,
}

/// Scrub summary for one file: the verdict per subfile plus repair
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// `(subfile, verdict)` for every subfile, in index order.
    pub verdicts: Vec<(usize, ScrubVerdict)>,
    /// Copies re-cloned from a healthy source this pass.
    pub repaired: usize,
    /// Copies that needed repair but could not be repaired this pass (or,
    /// in verify-only mode, would have been repaired); they stay queued
    /// dirty for a later pass.
    pub failed: usize,
    /// Copies skipped because their node was unreachable at probe time.
    pub skipped: usize,
    /// Subfiles with no healthy copy left — data loss.
    pub lost: Vec<usize>,
}

impl ScrubReport {
    /// Whether every subfile ended the pass at full R-way redundancy.
    #[must_use]
    pub fn fully_redundant(&self) -> bool {
        self.lost.is_empty() && self.failed == 0 && self.skipped == 0
    }
}

impl Session {
    /// Connects lazily to one daemon per address (`host:port` or
    /// `unix:/path`); address order defines subfile order.
    #[must_use]
    pub fn connect(addrs: &[String]) -> Self {
        Self::with_map(addrs, ReplicaMap::unreplicated(addrs.len()))
    }

    /// Like [`connect`](Self::connect), but every subfile is replicated on
    /// `replicas` nodes: rank `k` of subfile `s` lives on node
    /// `(s + k) % n` under the derived wire id [`copy_file_id`]`(file, k)`.
    /// Fails when `replicas` exceeds the node count (the copies could not
    /// land on distinct nodes).
    pub fn connect_replicated(addrs: &[String], replicas: usize) -> Result<Self, NetError> {
        let map = ReplicaMap::new(addrs.len().max(1), replicas)
            .map_err(|e| NetError::Usage(e.to_string()))?;
        Ok(Self::with_map(addrs, map))
    }

    fn with_map(addrs: &[String], map: ReplicaMap) -> Self {
        // A clock-and-pid stamp is unique enough across real client
        // processes; collisions only widen dedup to a twin session.
        let session_id = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
            ^ (u64::from(std::process::id()) << 32);
        let retry_budget = Arc::new(RetryBudget::for_session());
        Self {
            mux: Mux::new(addrs, Arc::clone(&retry_budget)),
            files: HashMap::new(),
            session_id: session_id.max(1),
            next_seq: AtomicU64::new(1),
            health: vec![NodeHealth::Unknown; addrs.len()],
            map,
            dirty: DirtySet::new(),
            stragglers: Vec::new(),
            breakers: (0..addrs.len())
                .map(|_| Mutex::new(CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_OPEN_FOR)))
                .collect(),
            read_latency: LatencyTracker::new(),
            retry_budget,
            deadline: Deadline::none(),
            hedged_reads: 0,
            tenant: 0,
        }
    }

    /// Sets the tenant id stamped on every subsequent `Open` (daemons
    /// meter per-tenant inflight quotas and fair-queue dispatch by it).
    /// Builder-style so connection chains
    /// read naturally.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The tenant id this session stamps on `Open` requests.
    #[must_use]
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Number of I/O nodes this session spans.
    #[must_use]
    pub fn io_nodes(&self) -> usize {
        self.mux.nodes()
    }

    /// Number of subfiles per file (one per I/O node, whatever the
    /// replication factor).
    fn subfiles(&self) -> usize {
        self.mux.nodes()
    }

    /// Replication factor R of this session.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.map.replicas()
    }

    /// Snapshot of the replica copies currently queued for repair.
    #[must_use]
    pub fn dirty_replicas(&self) -> Vec<DirtyReplica> {
        self.dirty.iter().copied().collect()
    }

    /// First replica rank of subfile `s` whose node is not known dead and
    /// whose breaker admits a request — the preferred read source (rank 0
    /// when everything is healthy, so `R = 1` reads are unchanged). A rank
    /// admitted as a half-open probe is chosen like any other: the request
    /// that follows *is* the probe, and its collected outcome settles the
    /// breaker.
    fn first_live_rank(&self, s: usize) -> usize {
        (0..self.map.replicas())
            .find(|&k| {
                let node = self.map.node_for(s, k);
                self.health[node] != NodeHealth::Dead && self.breaker_admits(node)
            })
            .unwrap_or(0)
    }

    /// Locks `node`'s breaker, recovering from poisoning.
    fn breaker(&self, node: usize) -> MutexGuard<'_, CircuitBreaker> {
        self.breakers[node].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Asks `node`'s breaker whether a request may go out now. `Probe`
    /// admissions count as yes — the caller's request becomes the probe,
    /// so every admitted request must have its outcome collected.
    fn breaker_admits(&self, node: usize) -> bool {
        !matches!(self.breaker(node).admit(), Admission::Shed)
    }

    /// Whether `node`'s breaker is fully closed — the bar for *hedge*
    /// targets, which are speculative and must not consume the single
    /// half-open probe slot.
    fn breaker_closed(&self, node: usize) -> bool {
        self.breaker(node).state() == BreakerState::Closed
    }

    /// Records a call outcome on `node`'s breaker.
    fn note_node(&self, node: usize, ok: bool) {
        let mut b = self.breaker(node);
        if ok {
            b.record_success();
        } else {
            b.record_failure();
        }
    }

    /// Classifies a settled reply for `node`'s breaker: transport errors
    /// and shed requests are failures, any substantive answer (including
    /// protocol errors — the node is alive and serving) is a success.
    /// Client-local deadline expiry says nothing about the node and is
    /// not recorded.
    fn note_reply(&self, node: usize, reply: &Result<Reply, NetError>) {
        let ok = match reply {
            Err(NetError::Io(_) | NetError::IdMismatch { .. } | NetError::Busy { .. }) => false,
            Err(NetError::Protocol(e)) if e.code == ErrCode::DeadlineExceeded => return,
            _ => true,
        };
        self.note_node(node, ok);
    }

    /// The current breaker position of `node` (observability / tests).
    #[must_use]
    pub fn breaker_state(&self, node: usize) -> BreakerState {
        self.breaker(node).state()
    }

    /// Hedged reads issued so far.
    #[must_use]
    pub fn hedged_reads(&self) -> u64 {
        self.hedged_reads
    }

    /// The session-wide retry token bucket every request spends from.
    #[must_use]
    pub fn retry_budget(&self) -> &Arc<RetryBudget> {
        &self.retry_budget
    }

    /// Attaches an absolute deadline to every subsequent operation: it
    /// clamps response timeouts, vetoes retries once spent, and rides
    /// every frame so daemons refuse to start work the budget can no
    /// longer pay for. Pass [`Deadline::none`] to remove it.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
        self.mux.set_deadline(deadline);
    }

    /// The deadline currently attached to this session's operations.
    #[must_use]
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Collects one submitted reply, recording its outcome on the node's
    /// breaker.
    fn collect(&mut self, node: usize, slot: Result<Slot, NetError>) -> Result<Reply, NetError> {
        let reply = slot.and_then(|slot| self.mux.wait(slot));
        self.note_reply(node, &reply);
        reply
    }

    /// One synchronous exchange with `node`: submit, then collect. The
    /// recovery paths' one-at-a-time requests ride the same connection —
    /// and so the same tenant, deadline, budget and FIFO order — as the
    /// fan-outs around them.
    fn call(&mut self, node: usize, request: Request) -> Result<Reply, NetError> {
        let slot = self.mux.submit(node, request);
        self.collect(node, slot)
    }

    /// [`call`](Self::call), demanding a plain `Ok`.
    fn call_ok(&mut self, node: usize, request: Request) -> Result<(), NetError> {
        expect_ok(self.call(node, request)?)
    }

    /// Fans `requests` out through the mux concurrently and returns the
    /// replies in the same order.
    fn fan_out(&mut self, requests: Vec<Outgoing>) -> Vec<(usize, Result<Reply, NetError>)> {
        let submitted: Vec<(usize, Result<Slot, NetError>)> = requests
            .into_iter()
            .map(|Outgoing { node, request }| (node, self.mux.submit(node, request)))
            .collect();
        submitted.into_iter().map(|(node, slot)| (node, self.collect(node, slot))).collect()
    }

    /// Like [`fan_out`](Self::fan_out) but every reply must be `Ok`.
    fn fan_out_ok(&mut self, requests: Vec<Outgoing>) -> Result<(), NetError> {
        self.fan_out(requests).into_iter().try_for_each(|(_, reply)| expect_ok(reply?))
    }

    /// Creates `file` of `len` bytes, physically partitioned by `physical`
    /// (one element per I/O node), opening each subfile on its daemon.
    pub fn create_file(
        &mut self,
        file: u64,
        physical: Partition,
        len: u64,
    ) -> Result<(), NetError> {
        if physical.element_count() != self.io_nodes() {
            return Err(NetError::Usage(format!(
                "physical partition has {} elements but the session spans {} I/O nodes",
                physical.element_count(),
                self.io_nodes()
            )));
        }
        let mut requests = Vec::with_capacity(self.io_nodes() * self.map.replicas());
        for s in 0..self.subfiles() {
            let sub_len = physical.element_len(s, len)?;
            for rank in 0..self.map.replicas() {
                requests.push(Outgoing {
                    node: self.map.node_for(s, rank),
                    request: Request::Open {
                        file: copy_file_id(file, rank),
                        subfile: s as u32,
                        len: sub_len,
                        tenant: self.tenant,
                    },
                });
            }
        }
        self.fan_out_ok(requests)?;
        self.files.insert(file, FileState { physical, len, views: HashMap::new() });
        Ok(())
    }

    fn file(&self, file: u64) -> Result<&FileState, NetError> {
        self.files
            .get(&file)
            .ok_or_else(|| NetError::Usage(format!("file {file} was not created in this session")))
    }

    fn view(&self, file: u64, compute: u32) -> Result<(&FileState, &ViewState), NetError> {
        let st = self.file(file)?;
        let vs = st.views.get(&compute).ok_or_else(|| {
            NetError::Usage(format!("compute node {compute} has no view on file {file}"))
        })?;
        Ok((st, vs))
    }

    /// Sets compute node `compute`'s view on `file` to element `element` of
    /// `logical`. Compiles the access plan once, keeps the view-side
    /// projections locally, and ships each subfile-side projection (with
    /// the raw view pattern for auditing) to its I/O node.
    pub fn set_view(
        &mut self,
        compute: u32,
        file: u64,
        logical: &Partition,
        element: usize,
    ) -> Result<(), NetError> {
        let st = self.file(file)?;
        let plan = PlanEngine::global().compile_view(logical, element, &st.physical)?;
        let mut requests = Vec::new();
        let mut meta = Vec::new();
        for (s, access) in plan.per_subfile().iter().enumerate() {
            if !access.is_empty() {
                for rank in 0..self.map.replicas() {
                    requests.push(Outgoing {
                        node: self.map.node_for(s, rank),
                        request: set_view_request(file, rank, compute, element, logical, access),
                    });
                    meta.push((s, rank));
                }
            }
        }
        for (i, (node, reply)) in self.fan_out(requests).into_iter().enumerate() {
            let (s, rank) = meta[i];
            match reply {
                Ok(Reply::Ok) => {}
                Ok(other) => return Err(NetError::BadReply(format!("expected Ok, got {other:?}"))),
                Err(NetError::Protocol(e)) if matches!(e.code, ErrCode::UnknownFile) => {
                    // The daemon restarted since `create_file` and forgot
                    // the subfile: re-open it and retry the view once.
                    self.reopen_copy(s, rank, file)?;
                    let access = plan.access(s);
                    self.call_ok(
                        node,
                        set_view_request(file, rank, compute, element, logical, access),
                    )?;
                }
                Err(NetError::Io(_) | NetError::IdMismatch { .. }) if self.map.replicas() > 1 => {
                    // A dead replica does not block the view: the copy is
                    // queued dirty and the view re-ships on recovery
                    // (`reestablish_copy`) or repair.
                    self.health[node] = NodeHealth::Dead;
                    self.dirty.insert(DirtyReplica { file, subfile: s, rank, node });
                }
                Err(e) => return Err(e),
            }
        }
        let vs = ViewState { view: logical.clone(), element, plan };
        let Some(fs) = self.files.get_mut(&file) else {
            return Err(NetError::Usage(format!("file {file} was not created in this session")));
        };
        fs.views.insert(compute, vs);
        Ok(())
    }

    /// Maps the view interval `[lo_v, hi_v]` onto subfile `s`, returning
    /// the subfile-linear extremities (the paper's `t_m` phase).
    fn map_extremities(
        st: &FileState,
        vs: &ViewState,
        s: usize,
        lo_v: u64,
        hi_v: u64,
    ) -> Result<(u64, u64), NetError> {
        if vs.plan.access(s).perfect_match {
            return Ok((lo_v, hi_v));
        }
        let mv = Mapper::new(&vs.view, vs.element);
        let ms = Mapper::new(&st.physical, s);
        let l_s = ms.map_next(mv.unmap(lo_v));
        let r_s = ms.map_prev(mv.unmap(hi_v)).ok_or_else(|| {
            NetError::Usage(format!("subfile {s} holds no data at or below view offset {hi_v}"))
        })?;
        Ok((l_s, r_s))
    }

    /// Writes `data` over the view interval `[lo_v, hi_v]` of `file` as
    /// compute node `compute`: per intersecting subfile, map the
    /// extremities, gather the view bytes, and send — all nodes
    /// concurrently. Returns the total bytes the daemons actually stored
    /// (less than `data.len()` when the interval runs past a subfile's
    /// physical end). Fails if any intersecting node stays unreachable;
    /// use [`write_report`](Self::write_report) to keep partial progress.
    pub fn write(
        &mut self,
        compute: u32,
        file: u64,
        lo_v: u64,
        hi_v: u64,
        data: &[u8],
    ) -> Result<u64, NetError> {
        let report = self.write_report(compute, file, lo_v, hi_v, data)?;
        let down = report.unreachable();
        if down.is_empty() {
            Ok(report.written)
        } else {
            Err(NetError::Io(std::io::Error::other(format!(
                "I/O node(s) {down:?} unreachable; their segments were not applied"
            ))))
        }
    }

    /// Like [`write`](Self::write), but degrades instead of failing: dead
    /// or newly-unreachable nodes are reported per segment group while the
    /// healthy nodes' writes proceed. A daemon that restarted (and so
    /// forgot the file and view) is transparently re-established from this
    /// session's cached state and the write retried once. Only usage
    /// errors and non-recoverable protocol errors abort the whole call.
    pub fn write_report(
        &mut self,
        compute: u32,
        file: u64,
        lo_v: u64,
        hi_v: u64,
        data: &[u8],
    ) -> Result<RedistReport, NetError> {
        let mut reports = self.write_batch(compute, file, &[BatchWrite { lo_v, hi_v, data }])?;
        reports
            .pop()
            .ok_or_else(|| NetError::BadReply("write batch returned no report".to_string()))
    }

    /// Pipelines several logical writes through the per-node mux
    /// queues: every op's per-node messages are enqueued back to back
    /// before any reply is collected, so the transport streams each
    /// node's whole batch over its warm connection without a per-op
    /// barrier.
    /// Returns one [`RedistReport`] per op, in op order, with the same
    /// degradation semantics as [`write_report`](Self::write_report).
    pub fn write_batch(
        &mut self,
        compute: u32,
        file: u64,
        ops: &[BatchWrite<'_>],
    ) -> Result<Vec<RedistReport>, NetError> {
        // Account for earlier stragglers that have landed since.
        self.drain_stragglers(false);
        // Validate and build every op's per-node requests up front (the
        // paper's t_m and t_g phases), so the submit phase below is pure
        // dispatch.
        let mut built = Vec::with_capacity(ops.len());
        for op in ops {
            if op.lo_v > op.hi_v || op.data.len() as u64 != op.hi_v - op.lo_v + 1 {
                return Err(NetError::Usage(format!(
                    "data holds {} bytes but the interval [{}, {}] needs {}",
                    op.data.len(),
                    op.lo_v,
                    op.hi_v,
                    op.hi_v.saturating_sub(op.lo_v).saturating_add(1),
                )));
            }
            built.push(self.build_write(compute, file, op.lo_v, op.hi_v, op.data)?);
        }
        // Dispatch phase: enqueue everything before collecting anything.
        let mut pending = Vec::with_capacity(built.len());
        for groups in built {
            let mut waits = Vec::with_capacity(groups.len());
            for g in groups {
                let targets = g
                    .targets
                    .into_iter()
                    .map(|(rank, node, request)| (rank, node, self.mux.submit(node, request)));
                waits.push(GroupWait {
                    subfile: g.subfile,
                    waits: targets.collect(),
                    pre_dirty: g.pre_dirty,
                });
            }
            pending.push(waits);
        }
        // Collect phase, in op order (the mux settles each node's
        // requests in FIFO order, so op k's reply on a node precedes
        // op k+1's).
        let mut out = Vec::with_capacity(pending.len());
        let mut pending = pending.into_iter();
        for (waits, op) in pending.by_ref().zip(ops) {
            let mut report = RedistReport::default();
            let mut waits = waits.into_iter();
            for group in waits.by_ref() {
                match self.collect_group(compute, file, op, group) {
                    Ok((subfile, outcome)) => {
                        report.written += outcome.written();
                        report.outcomes.push((subfile, outcome));
                    }
                    Err(e) => {
                        // Replies nobody collects still complete as
                        // stragglers, so the breakers and the dirty set
                        // hear how they went.
                        for g in waits.chain(pending.flatten()) {
                            self.defer(file, g.subfile, g.waits.into_iter());
                        }
                        return Err(e);
                    }
                }
            }
            report.outcomes.sort_unstable_by_key(|&(n, _)| n);
            out.push(report);
        }
        Ok(out)
    }

    /// Builds one logical write's per-replica messages: map the
    /// extremities, gather the view bytes, stamp the dedup sequence — one
    /// `(session, seq)` shared by all `R` copies of a subfile, so every
    /// replica daemon deduplicates the same logical write. Replicas on
    /// dead nodes are pre-skipped (no message, queued dirty at collect).
    fn build_write(
        &self,
        compute: u32,
        file: u64,
        lo_v: u64,
        hi_v: u64,
        data: &[u8],
    ) -> Result<Vec<BuiltGroup>, NetError> {
        let session = self.session_id;
        let (st, vs) = self.view(file, compute)?;
        let mut groups = Vec::new();
        for s in 0..self.subfiles() {
            let replay = vs.plan.replay(s);
            if replay.is_empty() {
                continue;
            }
            let payload = gather(replay, lo_v, hi_v, data);
            if payload.is_empty() {
                continue;
            }
            let (l_s, r_s) = Self::map_extremities(st, vs, s, lo_v, hi_v)?;
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let mut group = BuiltGroup { subfile: s, targets: Vec::new(), pre_dirty: Vec::new() };
            let mut admitted = Vec::new();
            for rank in 0..self.map.replicas() {
                let node = self.map.node_for(s, rank);
                if self.health[node] == NodeHealth::Dead || !self.breaker_admits(node) {
                    // Fail fast: a node that failed its last probe — or
                    // whose breaker is open — gets no request (and no
                    // retry schedule); the copy is queued dirty instead of
                    // blocking the quorum, and scrub repairs it later.
                    group.pre_dirty.push((rank, node));
                } else {
                    admitted.push((rank, node));
                }
            }
            // The gathered payload moves into the last copy's message;
            // only the earlier ranks of a replicated file clone it.
            if let Some((&last, earlier)) = admitted.split_last() {
                let message = |(rank, node), payload| {
                    let file = copy_file_id(file, rank);
                    (rank, node, Request::Write { file, compute, l_s, r_s, session, seq, payload })
                };
                group.targets.extend(earlier.iter().map(|&copy| message(copy, payload.clone())));
                group.targets.push(message(last, payload));
            }
            groups.push(group);
        }
        Ok(groups)
    }

    /// Collects one subfile's quorum: replies are taken in rank order
    /// until `W = ⌈(R+1)/2⌉` copies (clamped to the copies actually sent)
    /// acknowledge; the rest become stragglers drained asynchronously.
    /// Failed copies are queued dirty; the subfile succeeds — possibly
    /// degraded below quorum — as long as one replica applied it.
    fn collect_group(
        &mut self,
        compute: u32,
        file: u64,
        op: &BatchWrite<'_>,
        group: GroupWait,
    ) -> Result<(usize, SegmentOutcome), NetError> {
        let subfile = group.subfile;
        for (rank, node) in group.pre_dirty {
            self.dirty.insert(DirtyReplica { file, subfile, rank, node });
        }
        let quorum = self.map.write_quorum().min(group.waits.len()).max(1);
        let mut first_ack: Option<SegmentOutcome> = None;
        let mut acks = 0usize;
        let mut failed = None;
        let mut waits = group.waits.into_iter();
        for (rank, node, slot) in waits.by_ref() {
            let reply = self.collect(node, slot);
            match self.copy_write_outcome(subfile, rank, compute, file, op, reply) {
                Err(e) => {
                    failed = Some(e);
                    break;
                }
                Ok(SegmentOutcome::Unreachable) => {
                    self.dirty.insert(DirtyReplica { file, subfile, rank, node });
                }
                Ok(outcome) => {
                    acks += 1;
                    first_ack.get_or_insert(outcome);
                    if acks >= quorum {
                        break;
                    }
                }
            }
        }
        // Quorum satisfied (or the write failed): the remaining replicas
        // complete asynchronously.
        self.defer(file, subfile, waits);
        match failed {
            Some(e) => Err(e),
            None => Ok((subfile, first_ack.unwrap_or(SegmentOutcome::Unreachable))),
        }
    }

    /// Leaves replica writes nobody waits for to complete as stragglers; a
    /// copy whose request never went out is queued dirty.
    fn defer(
        &mut self,
        file: u64,
        subfile: usize,
        waits: impl Iterator<Item = (usize, usize, Result<Slot, NetError>)>,
    ) {
        for (rank, node, slot) in waits {
            match slot {
                Ok(slot) => {
                    let copy = Some(DirtyReplica { file, subfile, rank, node });
                    self.stragglers.push(Straggler { node, slot, copy });
                }
                Err(_) => {
                    self.dirty.insert(DirtyReplica { file, subfile, rank, node });
                }
            }
        }
    }

    /// Maps one replica's write reply to its segment outcome, driving
    /// restart recovery and dead-node bookkeeping on the way.
    fn copy_write_outcome(
        &mut self,
        subfile: usize,
        rank: usize,
        compute: u32,
        file: u64,
        op: &BatchWrite<'_>,
        reply: Result<Reply, NetError>,
    ) -> Result<SegmentOutcome, NetError> {
        let node = self.map.node_for(subfile, rank);
        Ok(match reply {
            Ok(Reply::WriteOk { written, replayed: false }) => SegmentOutcome::Applied { written },
            Ok(Reply::WriteOk { written, replayed: true }) => SegmentOutcome::Replayed { written },
            Ok(other) => {
                return Err(NetError::BadReply(format!(
                    "node {node}: expected WriteOk, got {other:?}"
                )))
            }
            Err(NetError::Protocol(e))
                if matches!(e.code, ErrCode::UnknownFile | ErrCode::NoView) =>
            {
                // The daemon restarted and forgot this session's state:
                // re-open the copy, re-ship the view, retry once.
                match self.recover_write(subfile, rank, compute, file, op) {
                    Ok(written) => SegmentOutcome::Recovered { written },
                    Err(NetError::Io(_) | NetError::IdMismatch { .. }) => {
                        self.health[node] = NodeHealth::Dead;
                        SegmentOutcome::Unreachable
                    }
                    Err(other) => return Err(other),
                }
            }
            Err(NetError::Io(_) | NetError::IdMismatch { .. }) => {
                // The node stayed down through the transport's whole
                // retry schedule: mark it dead so later writes fail fast
                // until a probe revives it.
                self.health[node] = NodeHealth::Dead;
                SegmentOutcome::Unreachable
            }
            Err(NetError::Busy { .. }) => {
                // The daemon shed the write (admission control): the node
                // is alive, so it stays out of the dead set, but this copy
                // missed the write — queued dirty by the caller, repaired
                // by scrub once the overload passes.
                SegmentOutcome::Unreachable
            }
            Err(other) => return Err(other),
        })
    }

    /// Drains stragglers: non-blocking between calls (only replies that
    /// already landed are accounted), blocking at barriers (flush, scrub,
    /// session drop).
    fn drain_stragglers(&mut self, block: bool) {
        for s in std::mem::take(&mut self.stragglers) {
            let reply = if block { Some(self.mux.wait(s.slot)) } else { self.mux.poll(s.slot) };
            let Some(reply) = reply else {
                self.stragglers.push(s);
                continue;
            };
            self.note_reply(s.node, &reply);
            let Some(copy) = s.copy else { continue };
            match reply {
                Ok(Reply::WriteOk { .. }) => {}
                Err(NetError::Io(_) | NetError::IdMismatch { .. }) => {
                    self.health[s.node] = NodeHealth::Dead;
                    self.dirty.insert(copy);
                }
                _ => {
                    self.dirty.insert(copy);
                }
            }
        }
    }

    /// Re-`Open`s replica `rank` of `file`'s subfile `subfile` with the
    /// session's cached geometry — the first half of restart recovery. On
    /// a restarted daemon the open also replays its journal into any
    /// surviving bytes.
    fn reopen_copy(&mut self, subfile: usize, rank: usize, file: u64) -> Result<(), NetError> {
        let st = self.file(file)?;
        let sub_len = st.physical.element_len(subfile, st.len)?;
        self.call_ok(
            self.map.node_for(subfile, rank),
            Request::Open {
                file: copy_file_id(file, rank),
                subfile: subfile as u32,
                len: sub_len,
                tenant: self.tenant,
            },
        )
    }

    /// Re-establishes replica `rank` of subfile `subfile` after a daemon
    /// restart: re-`Open` the copy (which replays the daemon's journal
    /// into any surviving bytes) and re-ship compute `compute`'s view, all
    /// from this session's cached state.
    fn reestablish_copy(
        &mut self,
        subfile: usize,
        rank: usize,
        compute: u32,
        file: u64,
    ) -> Result<(), NetError> {
        self.reopen_copy(subfile, rank, file)?;
        let (st, vs) = self.view(file, compute)?;
        // Cache hit in the common case: the same (view, physical) pair was
        // compiled when the view was first set.
        let plan = PlanEngine::global().compile_view(&vs.view, vs.element, &st.physical)?;
        let access = plan.access(subfile);
        if !access.is_empty() {
            let request = set_view_request(file, rank, compute, vs.element, &vs.view, access);
            self.call_ok(self.map.node_for(subfile, rank), request)?;
        }
        Ok(())
    }

    /// [`reestablish_copy`](Self::reestablish_copy), then retry the write
    /// for that replica once. The retry carries a fresh stamp: the
    /// daemon's dedup window (repopulated from its journal) decides
    /// whether the original write already landed.
    fn recover_write(
        &mut self,
        subfile: usize,
        rank: usize,
        compute: u32,
        file: u64,
        op: &BatchWrite<'_>,
    ) -> Result<u64, NetError> {
        self.reestablish_copy(subfile, rank, compute, file)?;
        let session = self.session_id;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let (st, vs) = self.view(file, compute)?;
        let (l_s, r_s) = Self::map_extremities(st, vs, subfile, op.lo_v, op.hi_v)?;
        let payload = gather(vs.plan.replay(subfile), op.lo_v, op.hi_v, op.data);
        let request = Request::Write {
            file: copy_file_id(file, rank),
            compute,
            l_s,
            r_s,
            session,
            seq,
            payload,
        };
        match self.call(self.map.node_for(subfile, rank), request)? {
            Reply::WriteOk { written, .. } => Ok(written),
            other => Err(NetError::BadReply(format!("expected WriteOk, got {other:?}"))),
        }
    }

    /// Pings every node: records and returns each node's health. An
    /// unreachable node is marked [`NodeHealth::Dead`] (writes fail fast on
    /// it); a reachable one is revived, with its boot epoch captured so a
    /// caller comparing successive probes can detect restarts.
    pub fn probe(&mut self) -> Vec<NodeHealth> {
        let replies: Vec<(usize, Result<Reply, NetError>)> = self.fan_out(
            (0..self.io_nodes()).map(|s| Outgoing { node: s, request: Request::Ping }).collect(),
        );
        for (node, reply) in replies {
            self.health[node] = match reply {
                Ok(Reply::Pong { epoch, .. }) => NodeHealth::Alive { epoch },
                // A daemon that answers at all is alive, even one that
                // refuses the probe with an error.
                Ok(_) | Err(NetError::Protocol(_)) => NodeHealth::Alive { epoch: 0 },
                Err(_) => NodeHealth::Dead,
            };
        }
        self.health.clone()
    }

    /// The last known health of every node (updated by probes and writes).
    #[must_use]
    pub fn health(&self) -> &[NodeHealth] {
        &self.health
    }

    /// This session's retry-stamp namespace.
    #[must_use]
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Reads the view interval `[lo_v, hi_v]` of `file` as compute node
    /// `compute`. Bytes past a subfile's physical end read as zero (the
    /// partial-read complement of short writes). Each subfile is read
    /// from its first live replica, failing over to the next rank on an
    /// unreachable node or a daemon-side checksum mismatch (the bad copy
    /// is queued for repair) — the self-healing read path.
    pub fn read(
        &mut self,
        compute: u32,
        file: u64,
        lo_v: u64,
        hi_v: u64,
    ) -> Result<Vec<u8>, NetError> {
        if lo_v > hi_v {
            return Err(NetError::Usage(format!("interval [{lo_v}, {hi_v}] is empty")));
        }
        // Settle any stragglers that have landed since the last call so
        // their breaker outcomes do not pile up.
        self.drain_stragglers(false);
        let (st, vs) = self.view(file, compute)?;
        let mut requests = Vec::new();
        let mut meta = Vec::new();
        for s in 0..self.subfiles() {
            let replay = vs.plan.replay(s);
            if replay.is_empty() || replay.bytes_between(lo_v, hi_v) == 0 {
                continue;
            }
            let (l_s, r_s) = Self::map_extremities(st, vs, s, lo_v, hi_v)?;
            let rank = self.first_live_rank(s);
            requests.push(Outgoing {
                node: self.map.node_for(s, rank),
                request: Request::Read { file: copy_file_id(file, rank), compute, l_s, r_s },
            });
            meta.push((s, rank, l_s, r_s));
        }
        let slots: Vec<(usize, Result<Slot, NetError>)> = requests
            .into_iter()
            .map(|Outgoing { node, request }| (node, self.mux.submit(node, request)))
            .collect();
        // Replicated sessions race a hedge against tail-slow primaries;
        // unreplicated ones have nowhere to hedge.
        let mut settled = Vec::with_capacity(slots.len());
        for ((node, slot), &(s, rank, l_s, r_s)) in slots.into_iter().zip(&meta) {
            settled.push(if self.map.replicas() > 1 {
                self.collect_hedged(compute, file, s, rank, l_s, r_s, slot)
            } else {
                (rank, self.collect(node, slot))
            });
        }
        let mut buf = vec![0u8; (hi_v - lo_v + 1) as usize];
        for ((rank, reply), &(s, _, l_s, r_s)) in settled.into_iter().zip(&meta) {
            let ask = Ask::Read { compute, l_s, r_s };
            let payload = self.failover(file, s, rank, self.map.replicas(), ask, Some(reply))?;
            // Scatter the node's fragment stream back into view positions.
            // A short payload (partial read at the subfile boundary) fills
            // only the leading fragments.
            let (_, vs) = self.view(file, compute)?;
            let mut pos = 0usize;
            vs.plan.replay(s).for_each_between(lo_v, hi_v, |seg| {
                let take = (seg.len() as usize).min(payload.len() - pos);
                if take == 0 {
                    return;
                }
                let a = (seg.l() - lo_v) as usize;
                buf[a..a + take].copy_from_slice(&payload[pos..pos + take]);
                pos += take;
            });
            // The node's next bulk reply is received into this payload.
            self.mux.recycle(self.map.node_for(s, rank), payload);
        }
        Ok(buf)
    }

    /// Settles subfile `s`'s primary read with a hedge race (DESIGN.md
    /// §16): wait the p95-based delay for the primary; if it has not
    /// answered by then, issue the same read to the next closed-breaker
    /// replica and take whichever valid answer lands first. Returns the
    /// winning rank with its reply so failover continues from the right
    /// copy. The loser is parked as a read straggler rather than dropped,
    /// so its outcome still reaches the breaker. Duplicate reads are safe:
    /// reads mutate nothing, and the write path is stamp-deduplicated.
    #[allow(clippy::too_many_arguments)]
    fn collect_hedged(
        &mut self,
        compute: u32,
        file: u64,
        s: usize,
        rank: usize,
        l_s: u64,
        r_s: u64,
        slot: Result<Slot, NetError>,
    ) -> (usize, Result<Reply, NetError>) {
        let node = self.map.node_for(s, rank);
        let primary = match slot {
            Ok(slot) => slot,
            Err(e) => {
                self.note_node(node, false);
                return (rank, Err(e));
            }
        };
        let started = Instant::now();
        let delay = self.read_latency.hedge_delay(HEDGE_FLOOR, HEDGE_CEILING);
        let mut racing = vec![(rank, node, primary)];
        if self.mux.wait_any(&[primary], Some(started + delay)).is_none() {
            // The primary is tail-slow: hedge to the next replica on a
            // distinct, live node whose breaker is fully closed (a
            // speculative read must not consume the single half-open probe
            // slot).
            let r = self.map.replicas();
            let hedge = (1..r).map(|step| (rank + step) % r).find(|&k| {
                let n = self.map.node_for(s, k);
                n != node && self.health[n] != NodeHealth::Dead && self.breaker_closed(n)
            });
            if let Some(k) = hedge {
                let n = self.map.node_for(s, k);
                let request = Request::Read { file: copy_file_id(file, k), compute, l_s, r_s };
                if let Ok(slot) = self.mux.submit(n, request) {
                    self.hedged_reads += 1;
                    racing.push((k, n, slot));
                }
            }
        }
        // The first valid answer wins; with nowhere to hedge that is the
        // primary's, whenever it lands.
        let mut last: Option<(usize, Result<Reply, NetError>)> = None;
        while !racing.is_empty() {
            let slots: Vec<Slot> = racing.iter().map(|&(_, _, slot)| slot).collect();
            let first = self.mux.wait_any(&slots, None);
            let i = slots.iter().position(|&slot| Some(slot) == first).unwrap_or(0);
            let (k, n, slot) = racing.remove(i);
            let reply = self.mux.wait(slot);
            self.note_reply(n, &reply);
            if matches!(reply, Ok(Reply::Data { .. })) {
                self.read_latency.record(started.elapsed());
                let losers =
                    racing.into_iter().map(|(_, node, slot)| Straggler { node, slot, copy: None });
                self.stragglers.extend(losers);
                return (k, reply);
            }
            last = Some((k, reply));
        }
        last.unwrap_or_else(|| {
            (
                rank,
                Err(NetError::Io(std::io::Error::other(format!(
                    "no replica of subfile {s} answered the hedged read"
                )))),
            )
        })
    }

    /// Settles one subfile's `Read` or `Fetch`, walking up to `tries`
    /// replica ranks from `first_rank` (`first` is that rank's reply when
    /// already collected) until a copy answers with data. A copy its
    /// restarted daemon forgot is re-established from cached state (which
    /// also replays the daemon's journal) and asked once more; a copy that
    /// fails its checksum, is lost, or sits on sick storage is queued for
    /// repair; an unreachable node is marked dead; a shed moves on. Errors
    /// only when every rank tried failed.
    fn failover(
        &mut self,
        file: u64,
        s: usize,
        first_rank: usize,
        tries: usize,
        ask: Ask,
        mut first: Option<Result<Reply, NetError>>,
    ) -> Result<Vec<u8>, NetError> {
        let r = self.map.replicas();
        let mut last_err: Option<NetError> = None;
        for step in 0..tries {
            let rank = (first_rank + step) % r;
            let node = self.map.node_for(s, rank);
            let copy = copy_file_id(file, rank);
            let request = match ask {
                Ask::Read { compute, l_s, r_s } => Request::Read { file: copy, compute, l_s, r_s },
                Ask::Fetch => Request::Fetch { file: copy },
            };
            let reply = match first.take() {
                Some(reply) => reply,
                None => self.call(node, request.clone()),
            };
            let reply = match reply {
                Err(NetError::Protocol(e))
                    if matches!(e.code, ErrCode::UnknownFile | ErrCode::NoView)
                        && self.files.contains_key(&file) =>
                {
                    let recovered = match ask {
                        Ask::Read { compute, .. } => self.reestablish_copy(s, rank, compute, file),
                        Ask::Fetch => self.reopen_copy(s, rank, file),
                    };
                    recovered.and_then(|()| self.call(node, request))
                }
                other => other,
            };
            match reply {
                Ok(Reply::Data { payload }) => return Ok(payload),
                Ok(other) => {
                    return Err(NetError::BadReply(format!(
                        "node {node}: expected Data, got {other:?}"
                    )))
                }
                Err(NetError::Protocol(e))
                    if matches!(
                        e.code,
                        ErrCode::ChecksumMismatch | ErrCode::UnknownFile | ErrCode::Internal
                    ) =>
                {
                    self.dirty.insert(DirtyReplica { file, subfile: s, rank, node });
                    last_err = Some(NetError::Protocol(e));
                }
                Err(e @ (NetError::Io(_) | NetError::IdMismatch { .. })) => {
                    self.health[node] = NodeHealth::Dead;
                    last_err = Some(e);
                }
                Err(e @ NetError::Busy { .. }) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            NetError::Io(std::io::Error::other(format!("no replica of subfile {s} answered")))
        }))
    }

    /// Fetches every subfile and reassembles the full file through the
    /// physical mapping functions (verification/diagnostics path). Each
    /// subfile comes from its first live replica with the same failover
    /// semantics as [`read`](Self::read).
    pub fn file_contents(&mut self, file: u64) -> Result<Vec<u8>, NetError> {
        let st = self.file(file)?;
        let len = st.len as usize;
        let physical = st.physical.clone();
        let mut requests = Vec::with_capacity(self.subfiles());
        let mut meta = Vec::with_capacity(self.subfiles());
        for s in 0..self.subfiles() {
            let rank = self.first_live_rank(s);
            requests.push(Outgoing {
                node: self.map.node_for(s, rank),
                request: Request::Fetch { file: copy_file_id(file, rank) },
            });
            meta.push((s, rank));
        }
        let mut out = vec![0u8; len];
        for ((_, reply), (s, rank)) in self.fan_out(requests).into_iter().zip(meta) {
            let payload =
                self.failover(file, s, rank, self.map.replicas(), Ask::Fetch, Some(reply))?;
            let m = Mapper::new(&physical, s);
            for (i, byte) in payload.iter().enumerate() {
                let pos = m.unmap(i as u64) as usize;
                if pos < len {
                    out[pos] = *byte;
                }
            }
        }
        Ok(out)
    }

    /// Fetches one subfile of `file` verbatim, from its first live replica
    /// with read failover. Works on any file the daemons host, not just
    /// ones created by this session (the restart-recovery reopen path
    /// does require a session-created file).
    pub fn subfile(&mut self, file: u64, s: usize) -> Result<Vec<u8>, NetError> {
        if s >= self.subfiles() {
            return Err(NetError::Usage(format!(
                "subfile {s} out of range for {} I/O nodes",
                self.subfiles()
            )));
        }
        let rank = self.first_live_rank(s);
        self.failover(file, s, rank, self.map.replicas(), Ask::Fetch, None)
    }

    /// Fetches one specific replica copy of subfile `s` verbatim — no
    /// failover, so tests and the scrub CLI can compare copies
    /// byte for byte. A copy that fails is still accounted (dirty, dead
    /// node) like any other.
    pub fn subfile_copy(&mut self, file: u64, s: usize, rank: usize) -> Result<Vec<u8>, NetError> {
        if s >= self.subfiles() || rank >= self.map.replicas() {
            return Err(NetError::Usage(format!(
                "copy (subfile {s}, rank {rank}) out of range for {} nodes × {} replicas",
                self.subfiles(),
                self.map.replicas()
            )));
        }
        self.failover(file, s, rank, 1, Ask::Fetch, None)
    }

    /// Forces every replica copy of `file` to stable storage. Works on any
    /// file the daemons host, not just ones created by this session. A
    /// failed flush leaves the daemon's journal intact, so flushing is
    /// retry-safe: transient storage failures ([`ErrCode::Internal`]) are
    /// absorbed with a few immediate per-copy retries before surfacing.
    /// Quorum-write stragglers are drained (blocking) first, so a
    /// successful flush means every non-dirty replica is durable; a copy
    /// that still fails is queued dirty, and the flush errors only when
    /// some subfile flushed no copy at all.
    pub fn flush(&mut self, file: u64) -> Result<(), NetError> {
        self.drain_stragglers(true);
        let mut requests = Vec::with_capacity(self.subfiles() * self.map.replicas());
        let mut meta = Vec::with_capacity(requests.capacity());
        for s in 0..self.subfiles() {
            for rank in 0..self.map.replicas() {
                requests.push(Outgoing {
                    node: self.map.node_for(s, rank),
                    request: Request::Flush { file: copy_file_id(file, rank) },
                });
                meta.push((s, rank));
            }
        }
        let mut flushed = vec![0usize; self.subfiles()];
        let mut first_err: Option<NetError> = None;
        for (i, (node, first)) in self.fan_out(requests).into_iter().enumerate() {
            let (s, rank) = meta[i];
            match self.settle_flush(file, s, rank, first) {
                Ok(()) => flushed[s] += 1,
                Err(e @ (NetError::Usage(_) | NetError::BadReply(_))) => return Err(e),
                Err(e) => {
                    if matches!(e, NetError::Io(_) | NetError::IdMismatch { .. }) {
                        self.health[node] = NodeHealth::Dead;
                    }
                    self.dirty.insert(DirtyReplica { file, subfile: s, rank, node });
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if flushed.iter().all(|&n| n > 0) {
            Ok(())
        } else {
            Err(first_err.unwrap_or_else(|| {
                NetError::Io(std::io::Error::other("no replica flushed".to_string()))
            }))
        }
    }

    /// Retry loop for one copy's flush: absorbs transient `Internal`
    /// failures and restart-induced `UnknownFile` (re-open replays the
    /// journal, which the flush then checkpoints).
    fn settle_flush(
        &mut self,
        file: u64,
        s: usize,
        rank: usize,
        first: Result<Reply, NetError>,
    ) -> Result<(), NetError> {
        let node = self.map.node_for(s, rank);
        let request = Request::Flush { file: copy_file_id(file, rank) };
        let mut reply = first;
        let mut tries = 0;
        // The shared backoff schedule, seeded per (session, node, rank) so
        // concurrent sessions flushing the same daemons desynchronize.
        let mut backoff = Backoff::new(
            std::time::Duration::from_millis(5),
            std::time::Duration::from_millis(20),
            self.session_id ^ ((node as u64) << 8) ^ rank as u64,
        );
        loop {
            match reply {
                Ok(Reply::Ok) => return Ok(()),
                Ok(other) => {
                    return Err(NetError::BadReply(format!(
                        "node {node}: expected Ok, got {other:?}"
                    )))
                }
                Err(NetError::Protocol(ref e))
                    if tries < 3
                        && (e.code == ErrCode::Internal
                            || (e.code == ErrCode::UnknownFile
                                && self.files.contains_key(&file))) =>
                {
                    tries += 1;
                    if e.code == ErrCode::Internal {
                        self.mux.pause(Instant::now() + backoff.next_delay());
                    } else {
                        self.reopen_copy(s, rank, file)?;
                    }
                    reply = self.call(node, request.clone());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Per-subfile statistics for `file`, one entry per I/O node. Works on
    /// any file the daemons host, not just ones created by this session.
    pub fn stat(&mut self, file: u64) -> Result<Vec<StatInfo>, NetError> {
        let requests = (0..self.io_nodes())
            .map(|s| Outgoing { node: s, request: Request::Stat { file } })
            .collect();
        let mut out = vec![StatInfo::default(); self.io_nodes()];
        for (node, reply) in self.fan_out(requests) {
            let reply = match reply {
                Err(NetError::Protocol(e))
                    if matches!(e.code, ErrCode::UnknownFile) && self.files.contains_key(&file) =>
                {
                    self.reopen_copy(node, 0, file)?;
                    self.call(node, Request::Stat { file })?
                }
                other => other?,
            };
            match reply {
                Reply::Stat(s) => out[node] = s,
                other => {
                    return Err(NetError::BadReply(format!(
                        "node {node}: expected Stat, got {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Walks every replica set of `file`, majority-votes the winning
    /// contents by CRC32C, and re-clones lost, corrupt, or divergent
    /// copies from the winner — the scrub/repair loop. Returns what was
    /// found and fixed; repaired copies leave the dirty queue.
    pub fn scrub(&mut self, file: u64) -> Result<ScrubReport, NetError> {
        self.scrub_pass(file, true)
    }

    /// [`scrub`](Self::scrub) without the repair phase: probes and votes
    /// only, counting would-be repairs as `failed` so
    /// [`ScrubReport::fully_redundant`] doubles as a verification gate.
    pub fn scrub_verify(&mut self, file: u64) -> Result<ScrubReport, NetError> {
        self.scrub_pass(file, false)
    }

    fn scrub_pass(&mut self, file: u64, repair: bool) -> Result<ScrubReport, NetError> {
        // Outstanding quorum stragglers must land (or be recorded dirty)
        // before a scrub verdict means anything.
        self.drain_stragglers(true);
        let r = self.map.replicas();
        let mut report = ScrubReport::default();
        for s in 0..self.subfiles() {
            let mut health = Vec::with_capacity(r);
            let mut payloads: Vec<Option<Vec<u8>>> = Vec::with_capacity(r);
            for rank in 0..r {
                let (h, p) = self.probe_copy(file, s, rank)?;
                health.push(h);
                payloads.push(p);
            }
            // Unreachable copies could not be vouched for this pass, even
            // when the verdict is Healthy (the reachable copies agree).
            report.skipped +=
                health.iter().filter(|h| matches!(h, CopyHealth::Unreachable)).count();
            let verdict = plan_subfile(&health);
            match &verdict {
                ScrubVerdict::Healthy => {}
                ScrubVerdict::Lost => report.lost.push(s),
                ScrubVerdict::Repair { source_rank, repair_ranks, skipped_ranks: _ } => {
                    if repair {
                        let source = payloads[*source_rank].take().ok_or_else(|| {
                            NetError::BadReply("scrub lost its source copy's bytes".to_string())
                        })?;
                        for &rank in repair_ranks {
                            let node = self.map.node_for(s, rank);
                            let copy = DirtyReplica { file, subfile: s, rank, node };
                            match self.repair_copy(file, s, rank, &source) {
                                Ok(()) => {
                                    report.repaired += 1;
                                    self.dirty.remove(&copy);
                                }
                                Err(NetError::Io(_) | NetError::IdMismatch { .. }) => {
                                    report.failed += 1;
                                    self.health[node] = NodeHealth::Dead;
                                    self.dirty.insert(copy);
                                }
                                Err(e) => return Err(e),
                            }
                        }
                    } else {
                        report.failed += repair_ranks.len();
                    }
                }
            }
            report.verdicts.push((s, verdict));
        }
        Ok(report)
    }

    /// Probes one replica copy's health for the scrubber: fetch it whole
    /// (the daemon verifies its stored checksums on the way out) and hash
    /// the contents, classifying failures.
    fn probe_copy(
        &mut self,
        file: u64,
        s: usize,
        rank: usize,
    ) -> Result<(CopyHealth, Option<Vec<u8>>), NetError> {
        let node = self.map.node_for(s, rank);
        match self.call(node, Request::Fetch { file: copy_file_id(file, rank) }) {
            Ok(Reply::Data { payload }) => {
                let crc = crc32c(&payload);
                Ok((CopyHealth::Ok { crc, len: payload.len() as u64 }, Some(payload)))
            }
            Ok(other) => {
                Err(NetError::BadReply(format!("node {node}: expected Data, got {other:?}")))
            }
            Err(NetError::Protocol(e)) if matches!(e.code, ErrCode::UnknownFile) => {
                Ok((CopyHealth::Missing, None))
            }
            Err(NetError::Protocol(e)) if matches!(e.code, ErrCode::ChecksumMismatch) => {
                Ok((CopyHealth::Corrupt, None))
            }
            Err(NetError::Io(_) | NetError::IdMismatch { .. }) => {
                self.health[node] = NodeHealth::Dead;
                Ok((CopyHealth::Unreachable, None))
            }
            Err(e) => Err(e),
        }
    }

    /// Re-clones one replica copy from `bytes`: open the copy at the
    /// source's length, compile the identity view through the plan engine
    /// (a redistribution whose view and physical partitions coincide), and
    /// stream the bytes through the regular stamped write path — large
    /// copies ride the chunked pipeline — then flush.
    fn repair_copy(
        &mut self,
        file: u64,
        s: usize,
        rank: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        let node = self.map.node_for(s, rank);
        let copy = copy_file_id(file, rank);
        let len = bytes.len() as u64;
        self.call_ok(
            node,
            Request::Open { file: copy, subfile: s as u32, len, tenant: self.tenant },
        )?;
        if len == 0 {
            return Ok(());
        }
        let falls = Falls::new(0, len - 1, len, 1).map_err(parafile::Error::from)?;
        let identity = Partition::new(
            0,
            PartitionPattern::new(vec![NestedSet::singleton(NestedFalls::leaf(falls))])?,
        );
        let plan = PlanEngine::global().compile_view(&identity, 0, &identity)?;
        let access = plan.access(0);
        let proj_set: Vec<RawFalls> =
            access.proj_sub.set.families().iter().map(RawFalls::from_nested).collect();
        let session = self.session_id;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.call_ok(
            node,
            Request::SetView {
                file: copy,
                compute: SCRUB_COMPUTE,
                element: 0,
                view: RawPattern::from_partition(&identity),
                proj_set,
                proj_period: access.proj_sub.period,
            },
        )?;
        let write = Request::Write {
            file: copy,
            compute: SCRUB_COMPUTE,
            l_s: 0,
            r_s: len - 1,
            session,
            seq,
            payload: bytes.to_vec(),
        };
        match self.call(node, write)? {
            Reply::WriteOk { .. } => {}
            other => return Err(NetError::BadReply(format!("expected WriteOk, got {other:?}"))),
        }
        self.call_ok(node, Request::Flush { file: copy })
    }

    /// Asks every daemon to shut down. Errors on unreachable daemons are
    /// reported but do not stop the sweep.
    pub fn shutdown_all(&mut self) -> Result<(), NetError> {
        let mut first_err = None;
        for node in 0..self.io_nodes() {
            if let Err(e) = self.call(node, Request::Shutdown) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl Drop for Session {
    /// A session abandoned mid-quorum-write still owes the cluster the
    /// truth about its stragglers: block until every outstanding replica
    /// ack lands or fails, so a write the caller saw succeed is actually
    /// on all its copies — or recorded dirty — before the connections
    /// close. A later session's scrub then sees an honest cluster instead
    /// of silently divergent replicas. The drain runs the mux's reactor
    /// turns on the dropping thread and ends on the transport's own
    /// timeouts; the mux's connections close when its fields drop after
    /// this body.
    fn drop(&mut self) {
        self.drain_stragglers(true);
    }
}

/// Spawns `io_nodes` loopback daemons on OS-assigned TCP ports, all over
/// `backend`, returning their handles and client addresses (daemon order =
/// subfile order).
pub fn spawn_loopback(
    io_nodes: usize,
    backend: StorageBackend,
) -> std::io::Result<(Vec<DaemonHandle>, Vec<String>)> {
    let mut handles = Vec::with_capacity(io_nodes);
    let mut addrs = Vec::with_capacity(io_nodes);
    for _ in 0..io_nodes {
        let config = DaemonConfig { backend: backend.clone(), ..DaemonConfig::default() };
        let handle = serve("127.0.0.1:0", config)?;
        addrs.push(handle.addr().to_string());
        handles.push(handle);
    }
    Ok((handles, addrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{chaos_proxy, FaultPlan};
    use arraydist::matrix::MatrixLayout;

    /// 8×8 matrix, column-block physical over 2 nodes, row-block view —
    /// element 0's full view interval `[0, 31]` intersects both subfiles.
    fn two_node_session() -> (Vec<DaemonHandle>, Session) {
        let physical = MatrixLayout::ColumnBlocks.partition(8, 8, 1, 2);
        let logical = MatrixLayout::RowBlocks.partition(8, 8, 1, 2);
        let (handles, addrs) =
            spawn_loopback(2, StorageBackend::Memory).expect("spawn loopback daemons");
        let mut session = Session::connect(&addrs);
        session.create_file(1, physical, 64).expect("create file");
        session.set_view(0, 1, &logical, 0).expect("set view");
        (handles, session)
    }

    #[test]
    fn a_flush_backs_off_in_reactor_turns_and_succeeds() {
        // Node 0 fails its first flush with `Internal`; the flush backs off
        // and retries it. A write submitted to node 1 before the flush (view
        // 0's half of subfile 1, its bytes [0, 15]) has settled by then.
        let plan = FaultPlan { fail_flush: 1, ..FaultPlan::none() };
        let mut failing =
            serve("127.0.0.1:0", DaemonConfig { fault: Some(plan), ..Default::default() })
                .expect("serve the failing node");
        let mut healthy = serve("127.0.0.1:0", DaemonConfig::default()).expect("serve");
        let mut session = Session::connect(&[failing.addr().into(), healthy.addr().into()]);
        session.create_file(1, MatrixLayout::ColumnBlocks.partition(8, 8, 1, 2), 64).expect("file");
        session.set_view(0, 1, &MatrixLayout::RowBlocks.partition(8, 8, 1, 2), 0).expect("view");
        session.write(0, 1, 0, 31, &[0x11; 32]).expect("write");
        let payload = vec![0x22; 16];
        let write =
            Request::Write { file: 1, compute: 0, l_s: 0, r_s: 15, session: 0, seq: 0, payload };
        let slot = session.mux.submit(1, write).expect("submit to node 1");
        session.flush(1).expect("the flush retries past the injected failure");
        assert!(session.dirty_replicas().is_empty());
        // An `until` already past runs no turn: only a settled slot shows.
        assert_eq!(session.mux.wait_any(&[slot], Some(Instant::now())), Some(slot));
        assert!(matches!(session.mux.wait(slot), Ok(Reply::WriteOk { written: 16, .. })));
        let row = [[0x11; 4], [0x22; 4]].concat();
        assert_eq!(session.read(0, 1, 0, 31).expect("read back"), row.repeat(4));
        drop(session);
        failing.stop();
        healthy.stop();
    }

    #[test]
    fn killed_transport_degrades_to_unreachable_then_recovers() {
        let (mut handles, mut session) = two_node_session();
        // Arm node 0's transport to kill its next request: the write must
        // degrade that node to Unreachable instead of failing the call.
        session.mux.arm_kill(0);
        let report = session.write_report(0, 1, 0, 31, &[0x33; 32]).expect("degraded write");
        assert_eq!(report.unreachable(), vec![0]);
        assert!(
            report
                .outcomes
                .iter()
                .any(|&(n, o)| n == 1 && matches!(o, SegmentOutcome::Applied { .. })),
            "node 1 must still apply its segments: {report:?}"
        );
        // The connection was reset on the spot; a probe revives the node
        // and the next write goes through end to end.
        assert!(session.probe().iter().all(|h| matches!(h, NodeHealth::Alive { .. })));
        let report = session.write_report(0, 1, 0, 31, &[0x44; 32]).expect("write after respawn");
        assert!(report.fully_applied(), "{report:?}");
        assert_eq!(session.read(0, 1, 0, 31).expect("read back"), vec![0x44; 32]);
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn transport_handoff_survives_interleaved_kills_under_stress() {
        // Loom substitute (see CI's nightly interleaving jobs): shake the
        // submit → mux → collect → reset handoff by arming the transport
        // kill hook at shifting points across many iterations. Every
        // iteration must terminate (no deadlock, no hang on an abandoned
        // reply slot) and degrade — never panic — the session.
        let (mut handles, mut session) = two_node_session();
        for i in 0..48u64 {
            if i % 3 == 0 {
                session.mux.arm_kill((i as usize / 3) % 2);
            }
            let data = vec![i as u8; 32];
            match session.write_report(0, 1, 0, 31, &data) {
                Ok(report) => {
                    for (_, outcome) in &report.outcomes {
                        // Any outcome is legal under injected panics;
                        // reaching here means the handoff terminated.
                        let _ = outcome.written();
                    }
                }
                Err(e) => panic!("degraded write must not error: {e}"),
            }
            if i % 7 == 0 {
                // Revive fail-fast nodes so later iterations exercise the
                // full dispatch path again, not the dead-node shortcut.
                session.probe();
            }
        }
        // After the storm the session must still work end to end. The
        // first probe may absorb a still-armed kill (the hook fires on
        // the node's next request, whatever it is); the second one runs
        // on a clean transport and revives everything.
        session.probe();
        session.probe();
        let report = session.write_report(0, 1, 0, 31, &[0x77; 32]).expect("final write");
        assert!(report.fully_applied(), "{report:?}");
        assert_eq!(session.read(0, 1, 0, 31).expect("read back"), vec![0x77; 32]);
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    /// 9×9 matrix over 3 nodes with R = 2: column-block physical,
    /// row-block view.
    fn replicated_session() -> (Vec<DaemonHandle>, Session) {
        let physical = MatrixLayout::ColumnBlocks.partition(9, 9, 1, 3);
        let logical = MatrixLayout::RowBlocks.partition(9, 9, 1, 3);
        let (handles, addrs) =
            spawn_loopback(3, StorageBackend::Memory).expect("spawn loopback daemons");
        let mut session = Session::connect_replicated(&addrs, 2).expect("R=2 over 3 nodes");
        session.create_file(5, physical, 81).expect("create file");
        session.set_view(0, 5, &logical, 0).expect("set view");
        (handles, session)
    }

    #[test]
    fn replica_copies_agree_after_quorum_writes() {
        let (mut handles, mut session) = replicated_session();
        let data: Vec<u8> = (0..27u8).collect();
        let report = session.write_report(0, 5, 0, 26, &data).expect("replicated write");
        assert!(report.fully_applied(), "{report:?}");
        session.flush(5).expect("flush both replicas");
        assert!(session.dirty_replicas().is_empty(), "healthy cluster stays clean");
        assert_eq!(session.read(0, 5, 0, 26).expect("read back"), data);
        // Every subfile's two copies are byte-identical.
        for s in 0..3 {
            let rank0 = session.subfile_copy(5, s, 0).expect("rank 0 copy");
            let rank1 = session.subfile_copy(5, s, 1).expect("rank 1 copy");
            assert_eq!(rank0, rank1, "subfile {s} copies diverge");
        }
        let scrub = session.scrub_verify(5).expect("verify pass");
        assert!(scrub.fully_redundant(), "{scrub:?}");
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn replicated_session_survives_permanent_node_loss() {
        let (mut handles, mut session) = replicated_session();
        // One view element per compute node covers the whole file.
        let logical = MatrixLayout::RowBlocks.partition(9, 9, 1, 3);
        session.set_view(1, 5, &logical, 1).expect("set view 1");
        session.set_view(2, 5, &logical, 2).expect("set view 2");
        let before: Vec<u8> = (0..81u8).map(|i| i ^ 0x5A).collect();
        for c in 0..3u32 {
            let part = &before[c as usize * 27..(c as usize + 1) * 27];
            session.write(c, 5, 0, 26, part).expect("write while healthy");
        }
        // Permanently kill node 1 and let the probe mark it dead so the
        // session fails fast instead of paying the retry schedule.
        handles[1].stop();
        session.probe();
        assert_eq!(session.health()[1], NodeHealth::Dead);
        // Every subfile keeps one live replica (rank sets {s, s+1 mod 3}),
        // so degraded writes still fully apply...
        let after: Vec<u8> = (0..81u8).map(|i| i.wrapping_mul(3)).collect();
        for c in 0..3u32 {
            let part = &after[c as usize * 27..(c as usize + 1) * 27];
            let report = session.write_report(c, 5, 0, 26, part).expect("degraded write");
            assert!(report.fully_applied(), "{report:?}");
        }
        // ...the dead node's copies are queued for repair...
        let dirty = session.dirty_replicas();
        assert!(
            dirty.iter().any(|d| d.node == 1),
            "copies on the dead node must be dirty: {dirty:?}"
        );
        // ...and reads fail over to the surviving replicas, byte-identical.
        for c in 0..3u32 {
            let part = &after[c as usize * 27..(c as usize + 1) * 27];
            assert_eq!(session.read(c, 5, 0, 26).expect("read after loss"), part);
        }
        assert_eq!(session.file_contents(5).expect("reassemble after loss"), after);
        // A scrub pass can only skip the unreachable copies, not repair.
        let scrub = session.scrub(5).expect("scrub with a dead node");
        assert!(!scrub.fully_redundant(), "{scrub:?}");
        assert!(scrub.lost.is_empty(), "no subfile lost: {scrub:?}");
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn scrub_reclones_divergent_copy_from_majority() {
        let (mut handles, mut session) = replicated_session();
        let data: Vec<u8> = (0..81u8).collect();
        session.write(0, 5, 0, 80, &data).expect("write");
        session.flush(5).expect("flush");
        // Diverge subfile 2's rank-1 copy by writing garbage straight to
        // it (repair_copy doubles as a raw copy writer here).
        let garbage = vec![0xEE; 27];
        session.repair_copy(5, 2, 1, &garbage).expect("plant divergent copy");
        assert_eq!(session.subfile_copy(5, 2, 1).expect("divergent copy"), garbage);
        // The scrub votes: rank 0 wins the 1-vs-1 tie (lowest rank), and
        // rank 1 is re-cloned from it.
        let report = session.scrub(5).expect("scrub");
        assert_eq!(report.repaired, 1, "{report:?}");
        assert!(report.fully_redundant(), "{report:?}");
        let rank0 = session.subfile_copy(5, 2, 0).expect("source copy");
        assert_eq!(session.subfile_copy(5, 2, 1).expect("healed copy"), rank0);
        // A second pass finds nothing to do.
        let clean = session.scrub(5).expect("second scrub");
        assert_eq!(clean.repaired, 0);
        assert!(clean.verdicts.iter().all(|(_, v)| *v == ScrubVerdict::Healthy), "{clean:?}");
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn write_batch_pipelines_and_matches_sequential_writes() {
        // 4 nodes, row-block view over column-block physical: every 16-byte
        // row write scatters 4 bytes to each of the 4 nodes, and the batch
        // queues 4 such ops back to back per node connection.
        let physical = MatrixLayout::ColumnBlocks.partition(16, 16, 1, 4);
        let logical = MatrixLayout::RowBlocks.partition(16, 16, 1, 4);
        let (mut handles, addrs) =
            spawn_loopback(4, StorageBackend::Memory).expect("spawn loopback daemons");
        let mut session = Session::connect(&addrs);
        session.create_file(9, physical, 256).expect("create file");
        session.set_view(0, 9, &logical, 0).expect("set view");
        let rows: Vec<(u64, u64, Vec<u8>)> =
            (0..4u64).map(|i| (i * 16, i * 16 + 15, vec![0x50 + i as u8; 16])).collect();
        let ops: Vec<BatchWrite<'_>> =
            rows.iter().map(|(lo, hi, d)| BatchWrite { lo_v: *lo, hi_v: *hi, data: d }).collect();
        let reports = session.write_batch(0, 9, &ops).expect("batched write");
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(RedistReport::fully_applied), "{reports:?}");
        for (lo, hi, d) in &rows {
            assert_eq!(&session.read(0, 9, *lo, *hi).expect("read row back"), d);
        }
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn an_expired_deadline_fails_the_session_fast() {
        let (mut handles, mut session) = two_node_session();
        session.write(0, 1, 0, 31, &[0x11; 32]).expect("write without deadline");
        // An already-expired deadline rides every request and fails before
        // touching the wire — and without feeding the
        // breakers (expiry says nothing about node health).
        session.set_deadline(Deadline::within(Duration::ZERO));
        let started = Instant::now();
        let err = session.read(0, 1, 0, 31).expect_err("expired deadline must fail");
        assert!(
            matches!(&err, NetError::Protocol(e) if e.code == ErrCode::DeadlineExceeded),
            "expected DeadlineExceeded, got {err}"
        );
        assert!(started.elapsed() < Duration::from_millis(250), "must fail fast");
        assert!(
            (0..2).all(|n| session.breaker_state(n) == BreakerState::Closed),
            "deadline expiry must not feed the breakers"
        );
        // Lifting the deadline restores service.
        session.set_deadline(Deadline::none());
        assert_eq!(session.read(0, 1, 0, 31).expect("read after lifting"), vec![0x11; 32]);
        drop(session);
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn busy_shedding_trips_the_breaker_and_writes_fail_fast() {
        // A daemon whose journal watermark sheds every write after the
        // first until a flush checkpoints the backlog. The journal only
        // runs on file-backed stores, so this daemon gets a scratch dir.
        let dir = std::env::temp_dir().join(format!("pf_session_breaker_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let config = DaemonConfig {
            backend: StorageBackend::Directory(dir.clone()),
            journal_watermark: Some(1),
            ..DaemonConfig::default()
        };
        let handle = serve("127.0.0.1:0", config).expect("spawn shedding daemon");
        let addrs = vec![handle.addr().to_string()];
        let physical = MatrixLayout::ColumnBlocks.partition(8, 4, 1, 1);
        let logical = MatrixLayout::RowBlocks.partition(8, 4, 1, 1);
        let mut session = Session::connect(&addrs);
        session.create_file(3, physical, 32).expect("create file");
        session.set_view(0, 3, &logical, 0).expect("set view");
        session.write(0, 3, 0, 31, &[0xA0; 32]).expect("first write admitted");
        // Every further write is shed with `Busy`; the failures trip the
        // node's breaker.
        let mut tripped = false;
        for _ in 0..BREAKER_THRESHOLD + 2 {
            let report = session.write_report(0, 3, 0, 31, &[0xA1; 32]).expect("degraded write");
            assert!(!report.fully_applied(), "the daemon must shed this write: {report:?}");
            if session.breaker_state(0) == BreakerState::Open {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "consecutive Busy sheds must open the breaker");
        // An open breaker sheds client-side: the copy is queued dirty
        // without a wire round trip.
        let report = session.write_report(0, 3, 0, 31, &[0xA2; 32]).expect("pre-skipped write");
        assert!(!report.fully_applied(), "{report:?}");
        assert!(!session.dirty_replicas().is_empty(), "shed copies must be queued dirty");
        // Checkpointing the journal lifts the watermark, and the
        // successful flush re-closes the breaker.
        session.flush(3).expect("flush drains the backlog");
        assert_eq!(session.breaker_state(0), BreakerState::Closed);
        let report = session.write_report(0, 3, 0, 31, &[0xA3; 32]).expect("write after flush");
        assert!(report.fully_applied(), "{report:?}");
        assert_eq!(session.read(0, 3, 0, 31).expect("read back"), vec![0xA3; 32]);
        drop(session);
        let mut handle = handle;
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hedged_read_beats_a_tail_slow_replica() {
        // 3 daemons, R = 2, with node 0 behind a proxy that delays every
        // frame: subfile 0's primary read is tail-slow, so the session
        // hedges it to the rank-1 copy on a fast node and the read
        // completes far under the injected delay.
        let delay_ms = 250u64;
        let physical = MatrixLayout::ColumnBlocks.partition(9, 9, 1, 3);
        let logical = MatrixLayout::RowBlocks.partition(9, 9, 1, 3);
        let (mut handles, mut addrs) =
            spawn_loopback(3, StorageBackend::Memory).expect("spawn loopback daemons");
        let mut plan = FaultPlan::none();
        plan.delay = Some((1, delay_ms));
        let mut proxy = chaos_proxy("127.0.0.1:0", &addrs[0], plan).expect("spawn delaying proxy");
        addrs[0] = proxy.addr().to_string();
        let mut session = Session::connect_replicated(&addrs, 2).expect("R=2 over 3 nodes");
        session.create_file(5, physical, 81).expect("create file");
        session.set_view(0, 5, &logical, 0).expect("set view");
        let data: Vec<u8> = (0..27u8).collect();
        session.write(0, 5, 0, 26, &data).expect("replicated write");
        let started = Instant::now();
        assert_eq!(session.read(0, 5, 0, 26).expect("hedged read"), data);
        let elapsed = started.elapsed();
        assert!(session.hedged_reads() >= 1, "the slow primary must trigger a hedge");
        assert!(
            elapsed < Duration::from_millis(delay_ms - 50),
            "hedge must beat the {delay_ms} ms injected delay, took {elapsed:?}"
        );
        drop(session);
        proxy.stop();
        for h in &mut handles {
            h.stop();
        }
    }

    #[test]
    fn dropping_a_session_drains_quorum_stragglers() {
        // R = 3 over 3 nodes with node 0 behind a delaying proxy: every
        // quorum write returns at W = 2 acks with the node-0 ack still in
        // flight. Dropping the session mid-stream must drain those
        // stragglers — block until they land — so the abandoned write is
        // actually on all three copies before the connections close.
        let physical = MatrixLayout::ColumnBlocks.partition(9, 9, 1, 3);
        let logical = MatrixLayout::RowBlocks.partition(9, 9, 1, 3);
        let (mut handles, mut addrs) =
            spawn_loopback(3, StorageBackend::Memory).expect("spawn loopback daemons");
        let mut plan = FaultPlan::none();
        plan.delay = Some((1, 150));
        let mut proxy = chaos_proxy("127.0.0.1:0", &addrs[0], plan).expect("spawn delaying proxy");
        let slow_direct = handles[0].addr().to_string();
        addrs[0] = proxy.addr().to_string();
        let mut session = Session::connect_replicated(&addrs, 3).expect("R=3 over 3 nodes");
        session.create_file(7, physical.clone(), 81).expect("create file");
        session.set_view(0, 7, &logical, 0).expect("set view");
        let data: Vec<u8> = (0..27u8).map(|i| i ^ 0x3C).collect();
        let report = session.write_report(0, 7, 0, 26, &data).expect("quorum write");
        assert!(report.fully_applied(), "{report:?}");
        assert!(
            !session.stragglers.is_empty(),
            "the delayed node's acks must still be in flight at drop time"
        );
        drop(session);
        // The drop blocked until the slow acks landed. Subfile 1's rank-2
        // copy lives on the slow node (node (1+2) % 3 = 0); compare it —
        // fetched directly, no proxy, no failover — against the rank-0
        // copy on fast node 1. Without the drain the slow copy could still
        // be missing the write here.
        let fetch = |addr: &str, wire_id: u64| -> Vec<u8> {
            let mut mux =
                crate::mux::Mux::new(&[addr.to_string()], Arc::new(RetryBudget::for_session()));
            match mux.call(0, Request::Fetch { file: wire_id }).expect("fetch copy") {
                Reply::Data { payload } => payload,
                other => panic!("expected Data, got {other:?}"),
            }
        };
        let slow_copy = fetch(&slow_direct, copy_file_id(7, 2));
        let fast_copy = fetch(handles[1].addr(), copy_file_id(7, 0));
        assert_eq!(slow_copy, fast_copy, "subfile 1's copies must agree after the drop");
        proxy.stop();
        for h in &mut handles {
            h.stop();
        }
    }
}
