//! The unified plan engine: compile once, cache, replay everywhere.
//!
//! Every consumer of view plans and redistribution plans — the simulated
//! Clusterfile, collective writes, on-the-fly relayout, and the networked
//! `Session` — compiles through this single layer. Every pattern carries the
//! fingerprint of its canonical form, computed once when it is built (see
//! [`PartitionPattern::fingerprint`](crate::PartitionPattern::fingerprint));
//! the fingerprints key a bounded, sharded LRU cache of [`CompiledView`] /
//! [`CompiledPlan`] values shared via `Arc`, so re-setting a view over a
//! `(view pattern, physical pattern)` pair that was seen before costs a
//! hash lookup and a pointer clone instead of a full intersection +
//! projection + run computation.
//!
//! Invalidation needs no explicit hooks: partitions are immutable values,
//! and a cache key covers everything a compile reads (both patterns'
//! canonical structure, both displacements, and the element index for
//! views). Any change to a file's physical layout produces a different key;
//! stale entries simply age out of the LRU.

mod cache;
mod compiled;

pub use cache::CacheStats;
pub use compiled::{CompiledPlan, CompiledView, PairMeta, SegmentReplay};

use crate::model::Partition;
use crate::plan::RedistributionPlan;
use crate::redist::ViewPlan;
use crate::Error;
use std::sync::{Arc, OnceLock};

/// Stable 64-bit structural fingerprint of a partition's pattern (see
/// [`PartitionPattern::fingerprint`](crate::PartitionPattern::fingerprint)),
/// read from the pattern rather than recomputed. The displacement is *not*
/// mixed in: cache keys carry both displacements beside the two
/// fingerprints.
#[must_use]
pub fn fingerprint_pattern(partition: &Partition) -> u64 {
    partition.pattern().fingerprint()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ViewKey {
    view_fp: u64,
    phys_fp: u64,
    element: usize,
    view_disp: u64,
    phys_disp: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RedistKey {
    src_fp: u64,
    dst_fp: u64,
    src_disp: u64,
    dst_disp: u64,
}

/// Counters of both engine caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// View-plan cache counters.
    pub views: CacheStats,
    /// Redistribution-plan cache counters.
    pub redists: CacheStats,
}

impl EngineStats {
    /// Total cache hits across both caches.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.views.hits + self.redists.hits
    }

    /// Total cache misses (fresh compiles) across both caches.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.views.misses + self.redists.misses
    }

    /// Total evictions across both caches.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.views.evictions + self.redists.evictions
    }

    /// Overall hit ratio (0 when no lookups ran).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

const SHARDS: usize = 8;
const CAPACITY_PER_SHARD: usize = 16;

/// The compile-once / cache / replay engine.
///
/// Most callers use the process-wide [`PlanEngine::global`] instance so the
/// cache is shared across files, sessions and transports; tests that need
/// isolated counters construct their own.
pub struct PlanEngine {
    views: cache::ShardedLru<ViewKey, CompiledView>,
    redists: cache::ShardedLru<RedistKey, CompiledPlan>,
}

impl PlanEngine {
    /// A fresh engine with empty caches (8 shards × 16 entries per cache).
    #[must_use]
    pub fn new() -> Self {
        Self {
            views: cache::ShardedLru::new(SHARDS, CAPACITY_PER_SHARD),
            redists: cache::ShardedLru::new(SHARDS, CAPACITY_PER_SHARD),
        }
    }

    /// The process-wide shared engine.
    pub fn global() -> &'static PlanEngine {
        static GLOBAL: OnceLock<PlanEngine> = OnceLock::new();
        GLOBAL.get_or_init(PlanEngine::new)
    }

    /// Compiles (or recalls) the access plan of `element` of `view` against
    /// `physical`. This is the engine's view-set entry point — the only
    /// place in the workspace that invokes [`ViewPlan::compile`].
    pub fn compile_view(
        &self,
        view: &Partition,
        element: usize,
        physical: &Partition,
    ) -> Result<Arc<CompiledView>, Error> {
        let key = ViewKey {
            view_fp: fingerprint_pattern(view),
            phys_fp: fingerprint_pattern(physical),
            element,
            view_disp: view.displacement(),
            phys_disp: physical.displacement(),
        };
        if let Some(hit) = self.views.get(&key) {
            return Ok(hit);
        }
        let plan = ViewPlan::compile(view, element, physical)?;
        let compiled = Arc::new(CompiledView::from_plan(plan));
        self.views.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Compiles (or recalls) the redistribution plan from `src` to `dst`.
    /// The only place in the workspace that invokes
    /// [`RedistributionPlan::build`] on behalf of consumers.
    pub fn compile_redist(
        &self,
        src: &Partition,
        dst: &Partition,
    ) -> Result<Arc<CompiledPlan>, Error> {
        let key = RedistKey {
            src_fp: fingerprint_pattern(src),
            dst_fp: fingerprint_pattern(dst),
            src_disp: src.displacement(),
            dst_disp: dst.displacement(),
        };
        if let Some(hit) = self.redists.get(&key) {
            return Ok(hit);
        }
        let plan = RedistributionPlan::build(src, dst)?;
        let compiled = Arc::new(CompiledPlan::from_plan(plan));
        self.redists.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Current hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats { views: self.views.stats(), redists: self.redists.stats() }
    }
}

impl Default for PlanEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PartitionPattern;
    use falls::{Falls, NestedFalls, NestedSet};

    fn stripes(count: u64, width: u64, disp: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(
                        Falls::new(k * width, (k + 1) * width - 1, count * width, 1).unwrap(),
                    ))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(disp, pattern)
    }

    fn cyclic(count: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(Falls::new(k, k, count, 1).unwrap()))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(0, pattern)
    }

    #[test]
    fn repeated_view_compile_hits_the_cache() {
        let engine = PlanEngine::new();
        let view = stripes(4, 8, 0);
        let phys = cyclic(4);
        let a = engine.compile_view(&view, 0, &phys).unwrap();
        let b = engine.compile_view(&view, 0, &phys).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second compile must be the cached Arc");
        let s = engine.stats();
        assert_eq!(s.views.hits, 1);
        assert_eq!(s.views.misses, 1);
    }

    #[test]
    fn different_elements_are_different_keys() {
        let engine = PlanEngine::new();
        let view = stripes(4, 8, 0);
        let phys = cyclic(4);
        let a = engine.compile_view(&view, 0, &phys).unwrap();
        let b = engine.compile_view(&view, 1, &phys).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.stats().views.misses, 2);
    }

    #[test]
    fn displacement_is_part_of_the_key() {
        let engine = PlanEngine::new();
        let phys = stripes(2, 4, 0);
        let a = engine.compile_redist(&stripes(2, 4, 0), &phys).unwrap();
        let b = engine.compile_redist(&stripes(2, 4, 3), &phys).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.stats().redists.misses, 2);
        assert_eq!(engine.stats().redists.hits, 0);
    }

    #[test]
    fn redist_cache_round_trips() {
        let engine = PlanEngine::new();
        let src = stripes(4, 8, 0);
        let dst = cyclic(4);
        let a = engine.compile_redist(&src, &dst).unwrap();
        let b = engine.compile_redist(&src, &dst).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Reversed direction is a different plan.
        let c = engine.compile_redist(&dst, &src).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn bad_element_index_is_an_error_and_not_cached() {
        let engine = PlanEngine::new();
        let p = stripes(2, 4, 0);
        assert!(engine.compile_view(&p, 7, &p).is_err());
        assert_eq!(engine.stats().views.entries, 0);
    }

    #[test]
    fn structurally_equal_patterns_share_a_plan() {
        // Two separately-constructed but identical partitions must hit.
        let engine = PlanEngine::new();
        let a = engine.compile_redist(&stripes(4, 8, 0), &cyclic(4)).unwrap();
        let b = engine.compile_redist(&stripes(4, 8, 0), &cyclic(4)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
