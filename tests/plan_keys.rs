//! The plan cache's key: every pattern carries its structural fingerprint
//! from construction, and that stored value must be exactly what a fresh
//! fold over its elements gives, for the distributions the benchmark and
//! the paper's tables build. Canonically equal patterns must still meet at
//! one cached plan.

use arraydist::matrix::MatrixLayout;
use arraydist::{ArrayDistribution, DimDist, ProcGrid};
use falls::{fingerprint_set, Falls, NestedFalls, NestedSet, StructuralHasher};
use parafile::engine::fingerprint_pattern;
use parafile::{Partition, PartitionPattern, PlanEngine};
use std::sync::Arc;

/// The fold the engine used to run on every lookup: element count, then
/// each element's canonical fingerprint, in element order.
fn fresh_fold(pattern: &PartitionPattern) -> u64 {
    let mut h = StructuralHasher::new();
    h.write_u64(pattern.elements().len() as u64);
    for set in pattern.elements() {
        h.write_u64(fingerprint_set(set));
    }
    h.finish()
}

fn matrix(rows: u64, cols: u64, elem: u64, dists: [DimDist; 2], grid: [u64; 2]) -> Partition {
    ArrayDistribution::new(vec![rows, cols], elem, dists.to_vec(), ProcGrid::new(grid.to_vec()))
        .partition(0)
}

/// Every `MatrixLayout` at the table sizes, plus each distribution family
/// the `pfbench` workloads declare.
fn families() -> Vec<(String, Partition)> {
    use DimDist::{BlockCyclic, Collapsed};
    let mut out = Vec::new();
    for layout in MatrixLayout::all() {
        for (n, p) in [(8, 4), (256, 4), (2048, 4), (256, 16)] {
            out.push((format!("{layout:?} {n}² p={p}"), layout.partition(n, n, 1, p)));
        }
    }
    // `small_ops` and `bulk_rowcol_disk`: row blocks over column blocks.
    out.push(("rows 2048²".into(), matrix(2048, 2048, 1, [DimDist::Block, Collapsed], [4, 1])));
    out.push(("cols 2048²".into(), matrix(2048, 2048, 1, [Collapsed, DimDist::Block], [1, 4])));
    // `viewset_churn`: CYCLIC(b) × CYCLIC(c) on 2 × 2, and rows-only CYCLIC(b).
    for (b, c) in [(25, 129), (300, 700), (1024, 1024)] {
        let name = format!("CYCLIC({b})×CYCLIC({c})");
        out.push((name, matrix(2048, 2048, 1, [BlockCyclic(b), BlockCyclic(c)], [2, 2])));
    }
    for b in [1, 7, 512] {
        out.push((
            format!("CYCLIC({b})×*"),
            matrix(2048, 2048, 1, [BlockCyclic(b), Collapsed], [4, 1]),
        ));
    }
    // `reshard_4to3`: 64 KiB stripes, BLOCK writers, CYCLIC(16) readers.
    let stripe = 64 << 10;
    let stripes = 768 * 1024 * 8 / stripe;
    out.push(("stripes".into(), matrix(stripes, stripe, 1, [BlockCyclic(1), Collapsed], [4, 1])));
    out.push(("writers".into(), matrix(768, 1024, 8, [DimDist::Block, Collapsed], [4, 1])));
    out.push(("readers".into(), matrix(768, 1024, 8, [BlockCyclic(16), Collapsed], [3, 1])));
    out
}

/// The same pattern with every element's families moved under one trivial
/// `(0, size−1, size, 1)` wrapper: the bytes and their tree order are
/// unchanged, so the canonical form, and with it the key, must be too.
fn wrapped(partition: &Partition) -> Partition {
    let pattern = partition.pattern();
    let size = pattern.size();
    let outer = Falls::new(0, size - 1, size, 1).unwrap();
    let elements = pattern
        .elements()
        .iter()
        .map(|set| {
            NestedSet::singleton(NestedFalls::with_inner(outer, set.families().to_vec()).unwrap())
        })
        .collect();
    Partition::new(partition.displacement(), PartitionPattern::new(elements).unwrap())
}

#[test]
fn stored_fingerprints_match_a_fresh_fold_and_wrapped_patterns_share_a_plan() {
    let all = families();
    for (name, partition) in &all {
        let stored = partition.pattern().fingerprint();
        assert_eq!(stored, fresh_fold(partition.pattern()), "{name}: stored fingerprint");
        assert_eq!(fingerprint_pattern(partition), stored, "{name}: engine key");
    }

    let engine = PlanEngine::new();
    let physical = MatrixLayout::ColumnBlocks.partition(256, 256, 1, 4);
    for layout in MatrixLayout::all() {
        let view = layout.partition(256, 256, 1, 4);
        let noisy = wrapped(&view);
        assert_ne!(noisy.pattern(), view.pattern(), "{layout:?}: the wrapper changes the trees");
        assert_eq!(noisy.pattern().fingerprint(), view.pattern().fingerprint(), "{layout:?}");
        for e in 0..view.element_count() {
            let plain = engine.compile_view(&view, e, &physical).unwrap();
            let hit = engine.compile_view(&noisy, e, &wrapped(&physical)).unwrap();
            assert!(Arc::ptr_eq(&plain, &hit), "{layout:?}[{e}]: wrapped view must hit");
        }
    }
    let stats = engine.stats().views;
    assert_eq!((stats.misses, stats.hits), (12, 12));
}
