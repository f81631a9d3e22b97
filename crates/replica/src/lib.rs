//! Replica placement, quorum policy, and scrub planning for replicated
//! subfiles.
//!
//! The paper's mapping functions place each subfile on exactly one I/O node;
//! this crate layers an R-way replica map *under* that physical partitioning
//! so a subfile survives the permanent loss of a node. The crate is pure
//! bookkeeping — placement arithmetic, quorum thresholds, dirty-replica
//! tracking, and scrub verdicts — with no I/O, so the daemon, the client
//! session, and the model checker can all share one source of truth.
//!
//! # Placement
//!
//! With `n` I/O nodes and replication factor `r`, replica rank `k` of
//! subfile `s` lives on node `(s + k) % n`. The rotation keeps per-node load
//! balanced (every node hosts exactly one copy of each rank) and guarantees
//! the `r` copies of a subfile land on `r` distinct nodes whenever `r <= n`.
//!
//! # Wire file ids
//!
//! The daemon keys state by `(file id, one subfile)`, so the extra copies a
//! node hosts under replication are opened under a *derived* wire file id:
//! [`copy_file_id`] folds the replica rank into the top byte of the id.
//! Rank 0 keeps the caller's id untouched, which makes `r = 1` bit-for-bit
//! identical to the unreplicated protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The daemon, the session and the model checker share this bookkeeping:
// code outside tests returns typed errors, never panics.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// An ignored result is a silent bug: value-returning public functions are
// `#[must_use]`.
#![deny(clippy::must_use_candidate)]

use std::collections::BTreeSet;
use std::fmt;

/// Bit offset of the replica rank inside a derived wire file id.
///
/// Ranks are folded into the top byte, which callers must therefore leave
/// clear in their own file ids when replication is in use (rank 0 — the
/// primary — never modifies the id, so unreplicated files are unaffected).
pub const RANK_ID_SHIFT: u32 = 56;

/// Maximum supported replication factor (the rank must fit the top byte).
pub const MAX_REPLICAS: usize = 255;

/// Derive the wire file id under which replica `rank` of logical file
/// `file` is opened on its host daemon.
///
/// Rank 0 returns `file` unchanged; higher ranks XOR the rank into the top
/// byte so each copy gets a distinct per-daemon identity without changing
/// the wire protocol.
#[must_use]
pub fn copy_file_id(file: u64, rank: usize) -> u64 {
    debug_assert!(rank <= MAX_REPLICAS, "replica rank {rank} exceeds one byte");
    file ^ ((rank as u64) << RANK_ID_SHIFT)
}

/// Write quorum for replication factor `r`: `W = ceil((r + 1) / 2)`.
///
/// A write returns to the caller once `W` replicas acknowledged; the
/// stragglers complete asynchronously and are recorded dirty if they fail.
#[must_use]
pub fn write_quorum(r: usize) -> usize {
    (r + 2) / 2
}

/// Errors from constructing a [`ReplicaMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// The replication factor was zero.
    ZeroReplicas,
    /// More replicas requested than distinct nodes available.
    TooManyReplicas {
        /// Requested replication factor.
        replicas: usize,
        /// Available node count.
        nodes: usize,
    },
    /// The node count was zero.
    NoNodes,
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::ZeroReplicas => write!(f, "replication factor must be at least 1"),
            ReplicaError::TooManyReplicas { replicas, nodes } => {
                write!(f, "replication factor {replicas} exceeds the {nodes} available node(s)")
            }
            ReplicaError::NoNodes => write!(f, "replica map needs at least one node"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Maps each subfile index to its ordered replica set.
///
/// This extends the physical partitioning pattern: the pattern still decides
/// which *subfile* a byte belongs to, and the replica map decides which
/// *nodes* host copies of that subfile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaMap {
    nodes: usize,
    replicas: usize,
}

impl ReplicaMap {
    /// Build a map over `nodes` I/O nodes with `replicas` copies per subfile.
    pub fn new(nodes: usize, replicas: usize) -> Result<Self, ReplicaError> {
        if nodes == 0 {
            return Err(ReplicaError::NoNodes);
        }
        if replicas == 0 {
            return Err(ReplicaError::ZeroReplicas);
        }
        if replicas > nodes || replicas > MAX_REPLICAS {
            return Err(ReplicaError::TooManyReplicas { replicas, nodes });
        }
        Ok(ReplicaMap { nodes, replicas })
    }

    /// The degenerate R = 1 map over `nodes` I/O nodes (at least one):
    /// every subfile lives on exactly its own node, so replication adds
    /// nothing and cannot fail to construct.
    #[must_use]
    pub fn unreplicated(nodes: usize) -> Self {
        ReplicaMap { nodes: nodes.max(1), replicas: 1 }
    }

    /// Number of I/O nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Replication factor R.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Write quorum W for this map.
    #[must_use]
    pub fn write_quorum(&self) -> usize {
        write_quorum(self.replicas)
    }

    /// Node hosting replica `rank` of subfile `subfile`.
    #[must_use]
    pub fn node_for(&self, subfile: usize, rank: usize) -> usize {
        debug_assert!(rank < self.replicas);
        (subfile + rank) % self.nodes
    }

    /// The ordered replica set (node indices) of `subfile`, rank 0 first.
    #[must_use]
    pub fn replica_nodes(&self, subfile: usize) -> Vec<usize> {
        (0..self.replicas).map(|k| self.node_for(subfile, k)).collect()
    }

    /// The rank under which `node` hosts `subfile`, if any.
    #[must_use]
    pub fn rank_on(&self, subfile: usize, node: usize) -> Option<usize> {
        let rank = (node + self.nodes - subfile % self.nodes) % self.nodes;
        (rank < self.replicas).then_some(rank)
    }

    /// All `(rank, subfile)` copies hosted by `node`, for subfile indices in
    /// `0..subfiles`.
    #[must_use]
    pub fn hosted(&self, node: usize, subfiles: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for s in 0..subfiles {
            if let Some(rank) = self.rank_on(s, node) {
                out.push((rank, s));
            }
        }
        out
    }
}

/// A replica copy known (or suspected) to be stale, lost, or corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirtyReplica {
    /// Logical file id (rank 0 wire id).
    pub file: u64,
    /// Subfile index.
    pub subfile: usize,
    /// Replica rank of the dirty copy.
    pub rank: usize,
    /// Node hosting the dirty copy.
    pub node: usize,
}

/// Deduplicating, ordered set of dirty replicas awaiting repair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    entries: BTreeSet<DirtyReplica>,
}

impl DirtySet {
    /// Empty set.
    #[must_use]
    pub fn new() -> Self {
        DirtySet::default()
    }

    /// Record a dirty replica; returns `true` if it was not already
    /// queued. The bool is informational, as on `BTreeSet::insert` —
    /// call sites that only want the entry queued ignore it.
    pub fn insert(&mut self, entry: DirtyReplica) -> bool {
        self.entries.insert(entry)
    }

    /// Drop an entry once its replica has been repaired; `true` if it
    /// was present (informational, as on `BTreeSet::remove`).
    pub fn remove(&mut self, entry: &DirtyReplica) -> bool {
        self.entries.remove(entry)
    }

    /// Number of queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate queued entries in deterministic order (`impl Iterator` is
    /// already `#[must_use]`).
    pub fn iter(&self) -> impl Iterator<Item = &DirtyReplica> {
        self.entries.iter()
    }

    /// Drain every queued entry.
    #[must_use]
    pub fn drain(&mut self) -> Vec<DirtyReplica> {
        let out: Vec<_> = self.entries.iter().copied().collect();
        self.entries.clear();
        out
    }
}

/// Health of one replica copy as observed by a scrub pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CopyHealth {
    /// Copy fetched and self-consistent; carries its content checksum and
    /// length so the scrubber can compare copies.
    Ok {
        /// CRC32C of the copy's full contents.
        crc: u32,
        /// Copy length in bytes.
        len: u64,
    },
    /// The daemon is up but does not know the copy (lost, e.g. replaced
    /// node with an empty disk).
    Missing,
    /// The copy exists but failed its checksum.
    Corrupt,
    /// The daemon could not be reached; no verdict about the copy itself.
    Unreachable,
}

/// Scrub verdict for one subfile's replica set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubVerdict {
    /// Every reachable copy agrees; nothing to do.
    Healthy,
    /// At least one good copy exists; the listed ranks must be re-cloned
    /// from `source_rank`.
    Repair {
        /// Rank of the copy whose contents win (majority checksum, ties
        /// broken toward the lowest rank).
        source_rank: usize,
        /// Ranks that are missing, corrupt, or disagree with the source.
        repair_ranks: Vec<usize>,
        /// Ranks that were unreachable and therefore skipped this pass.
        skipped_ranks: Vec<usize>,
    },
    /// No reachable copy survived — data loss for this subfile.
    Lost,
}

/// Decide what a scrub pass must do for one subfile, given the observed
/// health of each replica copy (indexed by rank).
///
/// The winning content is the checksum held by the most `Ok` copies;
/// ties break toward the lowest rank holding that checksum. Copies that are
/// `Missing`, `Corrupt`, or hold a losing checksum are scheduled for repair.
/// `Unreachable` copies get no verdict — they are skipped and reported so
/// the caller can retry on a later pass.
#[must_use]
pub fn plan_subfile(copies: &[CopyHealth]) -> ScrubVerdict {
    let mut votes: Vec<(u32, u64, usize, usize)> = Vec::new(); // (crc, len, count, first rank)
    for (rank, copy) in copies.iter().enumerate() {
        if let CopyHealth::Ok { crc, len } = copy {
            match votes.iter_mut().find(|v| v.0 == *crc && v.1 == *len) {
                Some(v) => v.2 += 1,
                None => votes.push((*crc, *len, 1, rank)),
            }
        }
    }
    let Some(&(crc, len, _, source_rank)) =
        votes.iter().max_by(|a, b| a.2.cmp(&b.2).then(b.3.cmp(&a.3)))
    else {
        return ScrubVerdict::Lost;
    };
    let mut repair_ranks = Vec::new();
    let mut skipped_ranks = Vec::new();
    for (rank, copy) in copies.iter().enumerate() {
        match copy {
            CopyHealth::Ok { crc: c, len: l } if *c == crc && *l == len => {}
            CopyHealth::Unreachable => skipped_ranks.push(rank),
            _ => repair_ranks.push(rank),
        }
    }
    if repair_ranks.is_empty() {
        ScrubVerdict::Healthy
    } else {
        ScrubVerdict::Repair { source_rank, repair_ranks, skipped_ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_thresholds() {
        assert_eq!(write_quorum(1), 1);
        assert_eq!(write_quorum(2), 2);
        assert_eq!(write_quorum(3), 2);
        assert_eq!(write_quorum(4), 3);
        assert_eq!(write_quorum(5), 3);
    }

    #[test]
    fn copy_ids_are_distinct_and_rank0_is_identity() {
        assert_eq!(copy_file_id(7, 0), 7);
        let ids: BTreeSet<u64> = (0..4).map(|k| copy_file_id(7, k)).collect();
        assert_eq!(ids.len(), 4);
        // XOR makes the derivation involutive: re-deriving with the same
        // rank recovers the logical id.
        assert_eq!(copy_file_id(copy_file_id(7, 3), 3), 7);
    }

    #[test]
    fn placement_rotates_and_stays_distinct() {
        let map = ReplicaMap::new(3, 2).unwrap();
        assert_eq!(map.replica_nodes(0), vec![0, 1]);
        assert_eq!(map.replica_nodes(1), vec![1, 2]);
        assert_eq!(map.replica_nodes(2), vec![2, 0]);
        // Every node hosts exactly one copy per rank.
        for node in 0..3 {
            let hosted = map.hosted(node, 3);
            assert_eq!(hosted.len(), 2);
            let ranks: BTreeSet<usize> = hosted.iter().map(|&(r, _)| r).collect();
            assert_eq!(ranks, BTreeSet::from([0, 1]));
        }
    }

    #[test]
    fn rank_on_inverts_node_for() {
        let map = ReplicaMap::new(5, 3).unwrap();
        for s in 0..10 {
            for k in 0..3 {
                let node = map.node_for(s, k);
                assert_eq!(map.rank_on(s, node), Some(k));
            }
        }
        // A node outside the replica set has no rank.
        assert_eq!(map.rank_on(0, 4), None);
    }

    #[test]
    fn construction_is_validated() {
        assert_eq!(ReplicaMap::new(0, 1), Err(ReplicaError::NoNodes));
        assert_eq!(ReplicaMap::new(3, 0), Err(ReplicaError::ZeroReplicas));
        assert_eq!(
            ReplicaMap::new(2, 3),
            Err(ReplicaError::TooManyReplicas { replicas: 3, nodes: 2 })
        );
        assert!(ReplicaMap::new(3, 3).is_ok());
    }

    #[test]
    fn dirty_set_dedups_and_drains_in_order() {
        let mut set = DirtySet::new();
        let a = DirtyReplica { file: 1, subfile: 0, rank: 1, node: 1 };
        let b = DirtyReplica { file: 1, subfile: 2, rank: 0, node: 2 };
        assert!(set.insert(b));
        assert!(set.insert(a));
        assert!(!set.insert(a));
        assert_eq!(set.len(), 2);
        assert_eq!(set.drain(), vec![a, b]);
        assert!(set.is_empty());
    }

    #[test]
    fn scrub_healthy_when_all_copies_agree() {
        let copies =
            vec![CopyHealth::Ok { crc: 0xAB, len: 8 }, CopyHealth::Ok { crc: 0xAB, len: 8 }];
        assert_eq!(plan_subfile(&copies), ScrubVerdict::Healthy);
    }

    #[test]
    fn scrub_repairs_corrupt_missing_and_divergent_copies() {
        let copies = vec![
            CopyHealth::Ok { crc: 0xAB, len: 8 },
            CopyHealth::Corrupt,
            CopyHealth::Missing,
            CopyHealth::Ok { crc: 0xAB, len: 8 },
            CopyHealth::Ok { crc: 0xCD, len: 8 },
        ];
        match plan_subfile(&copies) {
            ScrubVerdict::Repair { source_rank, repair_ranks, skipped_ranks } => {
                assert_eq!(source_rank, 0);
                assert_eq!(repair_ranks, vec![1, 2, 4]);
                assert!(skipped_ranks.is_empty());
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn scrub_majority_wins_and_ties_break_low() {
        // Two copies say 0xCD, one says 0xAB: majority wins even though the
        // minority copy has the lowest rank.
        let copies = vec![
            CopyHealth::Ok { crc: 0xAB, len: 4 },
            CopyHealth::Ok { crc: 0xCD, len: 4 },
            CopyHealth::Ok { crc: 0xCD, len: 4 },
        ];
        match plan_subfile(&copies) {
            ScrubVerdict::Repair { source_rank, repair_ranks, .. } => {
                assert_eq!(source_rank, 1);
                assert_eq!(repair_ranks, vec![0]);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        // 1-vs-1 tie: lowest rank wins.
        let tie = vec![CopyHealth::Ok { crc: 0xAB, len: 4 }, CopyHealth::Ok { crc: 0xCD, len: 4 }];
        match plan_subfile(&tie) {
            ScrubVerdict::Repair { source_rank, repair_ranks, .. } => {
                assert_eq!(source_rank, 0);
                assert_eq!(repair_ranks, vec![1]);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn scrub_skips_unreachable_and_reports_loss() {
        let copies = vec![CopyHealth::Unreachable, CopyHealth::Ok { crc: 1, len: 2 }];
        assert_eq!(
            plan_subfile(&copies),
            ScrubVerdict::Healthy,
            "unreachable copies alone do not force a repair"
        );
        let mixed =
            vec![CopyHealth::Unreachable, CopyHealth::Missing, CopyHealth::Ok { crc: 1, len: 2 }];
        match plan_subfile(&mixed) {
            ScrubVerdict::Repair { source_rank, repair_ranks, skipped_ranks } => {
                assert_eq!(source_rank, 2);
                assert_eq!(repair_ranks, vec![1]);
                assert_eq!(skipped_ranks, vec![0]);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(
            plan_subfile(&[CopyHealth::Unreachable, CopyHealth::Corrupt]),
            ScrubVerdict::Lost
        );
    }

    #[test]
    fn different_lengths_are_different_contents() {
        let copies = vec![
            CopyHealth::Ok { crc: 0, len: 4 },
            CopyHealth::Ok { crc: 0, len: 8 },
            CopyHealth::Ok { crc: 0, len: 8 },
        ];
        match plan_subfile(&copies) {
            ScrubVerdict::Repair { source_rank, repair_ranks, .. } => {
                assert_eq!(source_rank, 1);
                assert_eq!(repair_ranks, vec![0]);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }
}
