//! PROJ as a tree map against the enumerating oracle, over the array
//! distributions the benchmark draws, and the size-independence ratchet:
//! intersection and projection node counts do not depend on the matrix
//! size.

use arraydist::matrix::MatrixLayout;
use arraydist::{ArrayDistribution, DimDist, ProcGrid};
use falls::testing::Gen;
use falls::LineSegment;
use parafile::plan::RedistributionPlan;
use parafile::redist::{intersect_and_project, oracle, Projection};
use parafile::Partition;
use parafile_audit::{RawFalls, RawPattern};
use parafile_net::wire::{self, Request};

fn grid2(n: u64, rows: DimDist, cols: DimDist, grid: [u64; 2]) -> Partition {
    ArrayDistribution::new(vec![n, n], 1, vec![rows, cols], ProcGrid::new(grid.to_vec()))
        .partition(0)
}

fn cyclic2(n: u64, b: u64, c: u64) -> Partition {
    grid2(n, DimDist::BlockCyclic(b), DimDist::BlockCyclic(c), [2, 2])
}

fn rows_cyclic(n: u64, b: u64) -> Partition {
    grid2(n, DimDist::BlockCyclic(b), DimDist::Collapsed, [4, 1])
}

fn layout(n: u64, l: MatrixLayout) -> Partition {
    l.partition(n, n, 1, 4)
}

/// `reshard_4to3`'s three partitions of its 768 × 1024 × 8-byte file: 64 KiB
/// stripes dealt over four nodes, four writers' row blocks, and three
/// readers' `CYCLIC(16)` rows.
fn reshard() -> [Partition; 3] {
    let (rows, cols, elem) = (768, 1024, 8);
    let stripes = rows * cols * elem / (64 << 10);
    let dist = |shape: Vec<u64>, e, d: Vec<DimDist>, g: Vec<u64>| {
        ArrayDistribution::new(shape, e, d, ProcGrid::new(g)).partition(0)
    };
    [
        dist(
            vec![stripes, 64 << 10],
            1,
            vec![DimDist::BlockCyclic(1), DimDist::Collapsed],
            vec![4, 1],
        ),
        dist(vec![rows, cols], elem, vec![DimDist::Block, DimDist::Collapsed], vec![4, 1]),
        dist(
            vec![rows, cols],
            elem,
            vec![DimDist::BlockCyclic(16), DimDist::Collapsed],
            vec![3, 1],
        ),
    ]
}

/// Every (view, layout) pair the benchmark's families produce at `n`.
fn families(n: u64) -> Vec<(String, Partition, Partition)> {
    let col = layout(n, MatrixLayout::ColumnBlocks);
    let mut out = vec![
        ("rows/col".into(), layout(n, MatrixLayout::RowBlocks), col.clone()),
        ("cols/rows".into(), col.clone(), layout(n, MatrixLayout::RowBlocks)),
        (
            "rows/square".into(),
            layout(n, MatrixLayout::RowBlocks),
            layout(n, MatrixLayout::SquareBlocks),
        ),
    ];
    let pairs: &[(u64, u64)] = match n {
        256 => &[(1, 1), (3, 5), (10, 64), (25, 129)],
        2048 => &[(7, 40), (25, 129), (200, 1000), (1024, 1024)],
        _ => &[(24, 128), (100, 300)],
    };
    for &(b, c) in pairs {
        out.push((format!("cyclic({b},{c})/col"), cyclic2(n, b, c), col.clone()));
    }
    for b in [1, 13, 512.min(n / 4)] {
        out.push((format!("rows-cyclic({b})/col"), rows_cyclic(n, b), col.clone()));
    }
    if n == 256 {
        // `reshard_4to3` is one size: its writers and readers over stripes.
        let [stripes, writers, readers] = reshard();
        out.push(("reshard writers/stripes".into(), writers, stripes.clone()));
        out.push(("reshard readers/stripes".into(), readers, stripes));
    }
    out
}

fn probes(g: &mut Gen, proj: &Projection) -> Vec<(u64, u64)> {
    let reach = proj.set.extent_end().unwrap_or(0) + 2 * proj.period + 2;
    let mut out = vec![(0, reach), (0, 0), (reach - 1, reach)];
    for _ in 0..10 {
        let lo = g.below(reach);
        let width = if g.chance(1, 2) { g.below(64) } else { g.below(reach) };
        out.push((lo, lo + width));
    }
    out
}

#[test]
fn arraydist_projections_match_the_enumerating_oracle() {
    let mut g = Gen::new(0x0A_C1E);
    for n in [256, 2048, 8192] {
        for (name, view, phys) in families(n) {
            for e in 0..view.element_count() {
                for s in 0..phys.element_count() {
                    let (inter, pv, ps) = intersect_and_project(&view, e, &phys, s).unwrap();
                    if inter.is_empty() {
                        continue;
                    }
                    for (proj, p, el, side) in [(&pv, &view, e, "view"), (&ps, &phys, s, "sub")] {
                        let want = oracle::project(&inter, p, el);
                        let ctx = format!("N={n} {name} [{e}]∩[{s}] PROJ_{side}");
                        assert_eq!(proj.period, want.period, "{ctx}");
                        assert_eq!(
                            proj.set.absolute_segments(),
                            want.set.absolute_segments(),
                            "{ctx}"
                        );
                        assert!(proj.set.node_count() <= inter.set.node_count(), "{ctx}");
                        for (lo, hi) in probes(&mut g, proj) {
                            assert_eq!(
                                proj.segments_between(lo, hi),
                                oracle::segments_between(&want, lo, hi),
                                "{ctx} [{lo}, {hi}]"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Coalesced segments of the copy runs' offsets on one side.
fn run_segments(offsets: impl Iterator<Item = (u64, u64)>) -> Vec<LineSegment> {
    let mut segs: Vec<LineSegment> =
        offsets.map(|(off, len)| LineSegment::new(off, off + len - 1).unwrap()).collect();
    segs.sort_unstable();
    let mut out: Vec<LineSegment> = Vec::new();
    for s in segs {
        match out.last_mut() {
            Some(last) if last.r() + 1 == s.l() => {
                *last = LineSegment::new(last.l(), s.r()).unwrap()
            }
            _ => out.push(s),
        }
    }
    out
}

/// The copy runs are cut from the intersection's segments alone, so they
/// cover exactly the structural projections on both sides.
#[test]
fn copy_runs_cover_the_structural_projections() {
    let [stripes, writers, readers] = reshard();
    let n = 256;
    let pairs = [
        (writers.clone(), stripes.clone()),
        (stripes, readers.clone()),
        (writers, readers),
        (layout(n, MatrixLayout::RowBlocks), layout(n, MatrixLayout::ColumnBlocks)),
        (cyclic2(n, 3, 5), layout(n, MatrixLayout::SquareBlocks)),
    ];
    for (src, dst) in pairs {
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        assert_eq!(plan.bytes_per_period(), plan.period);
        for pair in &plan.pairs {
            let src_runs = run_segments(pair.runs.iter().map(|r| (r.src_off, r.len)));
            let dst_runs = run_segments(pair.runs.iter().map(|r| (r.dst_off, r.len)));
            assert_eq!(src_runs, pair.src_projection.set.absolute_segments());
            assert_eq!(dst_runs, pair.dst_projection.set.absolute_segments());
        }
    }
}

/// Node counts of every intersection and both projections, in
/// (element, subfile) order.
fn node_counts(view: &Partition, phys: &Partition) -> Vec<[usize; 3]> {
    let mut out = Vec::new();
    for e in 0..view.element_count() {
        for s in 0..phys.element_count() {
            let (inter, pv, ps) = intersect_and_project(view, e, phys, s).unwrap();
            out.push([inter.set.node_count(), pv.set.node_count(), ps.set.node_count()]);
            let set_view = Request::SetView {
                file: 1,
                compute: e as u32,
                element: e as u32,
                view: RawPattern::from_partition(view),
                proj_set: ps.set.families().iter().map(RawFalls::from_nested).collect(),
                proj_period: ps.period,
            };
            let Request::SetView { proj_set, .. } =
                Request::decode(set_view.opcode(), &set_view.encode_payload()).unwrap()
            else {
                unreachable!("decoded the opcode it was encoded with")
            };
            let shipped = wire::raw_to_set(&proj_set).unwrap();
            assert_eq!(shipped, ps.set);
            assert!(shipped.height() <= wire::MAX_TREE_DEPTH);
            assert!(shipped.node_count() <= wire::MAX_TREE_NODES);
        }
    }
    out
}

/// The ratchet: the description, not the period, sizes a view-set. Table
/// 1's c/b/r pairs and three `CYCLIC(b)×CYCLIC(c)` views over column
/// blocks have the same node counts at every matrix size. (Every size
/// repeats each view's row and column cycles at least twice per element
/// and column block, so no size degenerates a family to one block.)
#[test]
fn node_counts_do_not_grow_with_the_matrix() {
    type Pair = fn(u64) -> (Partition, Partition);
    let views: [(&str, Pair); 6] = [
        ("rows/c", |n| (layout(n, MatrixLayout::RowBlocks), layout(n, MatrixLayout::ColumnBlocks))),
        ("rows/b", |n| (layout(n, MatrixLayout::RowBlocks), layout(n, MatrixLayout::SquareBlocks))),
        ("rows/r", |n| (layout(n, MatrixLayout::RowBlocks), layout(n, MatrixLayout::RowBlocks))),
        ("cyclic(8,16)/c", |n| (cyclic2(n, 8, 16), layout(n, MatrixLayout::ColumnBlocks))),
        ("cyclic(64,8)/c", |n| (cyclic2(n, 64, 8), layout(n, MatrixLayout::ColumnBlocks))),
        ("cyclic(16,4)/c", |n| (cyclic2(n, 16, 4), layout(n, MatrixLayout::ColumnBlocks))),
    ];
    for (name, make) in views {
        let (v, p) = make(256);
        let want = node_counts(&v, &p);
        for n in [512, 1024, 2048, 8192] {
            let (v, p) = make(n);
            assert_eq!(node_counts(&v, &p), want, "{name}: N = {n} against N = 256");
        }
    }
}
