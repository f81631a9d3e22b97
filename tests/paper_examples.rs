//! Every worked example in the paper, verified end to end across crates.

use falls::{Falls, NestedFalls, NestedSet};
use parafile::mapping::Mapper;
use parafile::model::{Partition, PartitionPattern};
use parafile::redist::{cut_falls, intersect_and_project, intersect_falls};

/// Figure 1: the FALLS (3,5,6,5) covers exactly {3..5, 9..11, …, 27..29}.
#[test]
fn figure1() {
    let f = Falls::new(3, 5, 6, 5).unwrap();
    let want: Vec<u64> = (0..5).flat_map(|i| (3 + 6 * i)..=(5 + 6 * i)).collect();
    assert_eq!(f.offsets().collect::<Vec<_>>(), want);
    assert_eq!(f.size(), 15);
}

/// Figure 2: nested FALLS (0,3,8,2,{(0,0,2,2)}) has size 4.
#[test]
fn figure2() {
    let nf = NestedFalls::with_inner(
        Falls::new(0, 3, 8, 2).unwrap(),
        vec![NestedFalls::leaf(Falls::new(0, 0, 2, 2).unwrap())],
    )
    .unwrap();
    assert_eq!(nf.size(), 4);
    assert_eq!(nf.absolute_offsets(), vec![0, 2, 8, 10]);
}

fn figure3_partition() -> Partition {
    let sets = [(0u64, 1u64), (2, 3), (4, 5)]
        .iter()
        .map(|&(l, r)| NestedSet::singleton(NestedFalls::leaf(Falls::new(l, r, 6, 1).unwrap())))
        .collect();
    Partition::new(2, PartitionPattern::new(sets).unwrap())
}

/// §6: MAP(10) = 2 and MAP⁻¹(2) = 10 for subfile 1 of Figure 3.
#[test]
fn section6_map_example() {
    let p = figure3_partition();
    let m = Mapper::new(&p, 1);
    assert_eq!(m.map(10), Some(2));
    assert_eq!(m.unmap(2), 10);
    // MAP⁻¹(MAP(x)) = x for every selected byte over several tiles.
    for x in 2..60 {
        if let Some(y) = m.map(x) {
            assert_eq!(m.unmap(y), x);
        }
    }
}

/// §6.1: byte 5 does not map on element 0; previous map 1, next map 2.
#[test]
fn section6_next_prev() {
    let p = figure3_partition();
    let m = Mapper::new(&p, 0);
    assert_eq!(m.map(5), None);
    assert_eq!(m.map_prev(5), Some(1));
    assert_eq!(m.map_next(5), 2);
}

/// §7: CUT-FALLS((3,5,6,5), 4, 28) = {(0,1,2,1), (5,7,6,3), (23,24,2,1)}.
#[test]
fn section7_cut() {
    let cut = cut_falls(&Falls::new(3, 5, 6, 5).unwrap(), 4, 28);
    assert_eq!(
        cut,
        vec![
            Falls::new(0, 1, 2, 1).unwrap(),
            Falls::new(5, 7, 6, 3).unwrap(),
            Falls::new(23, 24, 2, 1).unwrap(),
        ]
    );
}

/// Figure 4: INTERSECT-FALLS((0,7,16,2),(0,3,8,4)) = (0,3,16,2).
#[test]
fn figure4_flat_intersection() {
    let out = intersect_falls(&Falls::new(0, 7, 16, 2).unwrap(), &Falls::new(0, 3, 8, 4).unwrap());
    assert_eq!(out, vec![Falls::new(0, 3, 16, 2).unwrap()]);
}

fn with_complement(set: NestedSet, span: u64) -> Partition {
    let complement = set.complement(span);
    Partition::new(0, PartitionPattern::new(vec![set, complement]).unwrap())
}

/// Figure 4(b–d): nested intersection selects {0, 16}; both projections are
/// the index set {0, 4} (the paper's (0,0,4,2)).
#[test]
fn figure4_nested_intersection_and_projections() {
    let v = NestedSet::singleton(
        NestedFalls::with_inner(
            Falls::new(0, 7, 16, 2).unwrap(),
            vec![NestedFalls::leaf(Falls::new(0, 1, 4, 2).unwrap())],
        )
        .unwrap(),
    );
    let s = NestedSet::singleton(
        NestedFalls::with_inner(
            Falls::new(0, 3, 8, 4).unwrap(),
            vec![NestedFalls::leaf(Falls::new(0, 0, 2, 2).unwrap())],
        )
        .unwrap(),
    );
    let pv = with_complement(v, 32);
    let ps = with_complement(s, 32);
    let (inter, proj_v, proj_s) = intersect_and_project(&pv, 0, &ps, 0).unwrap();
    assert_eq!(inter.set.absolute_offsets(), vec![0, 16]);
    assert_eq!(inter.period, 32);
    assert_eq!(proj_v.set.absolute_offsets(), vec![0, 4]);
    assert_eq!(proj_s.set.absolute_offsets(), vec![0, 4]);
}

/// §6.2: mapping byte 4 of partition element V onto S — the direct mapping
/// MAP_S(MAP_V⁻¹(4)) = 4 of the paper's figure-4 pair.
#[test]
fn section62_cross_partition_mapping() {
    let v = NestedSet::singleton(
        NestedFalls::with_inner(
            Falls::new(0, 7, 16, 2).unwrap(),
            vec![NestedFalls::leaf(Falls::new(0, 1, 4, 2).unwrap())],
        )
        .unwrap(),
    );
    let s = NestedSet::singleton(
        NestedFalls::with_inner(
            Falls::new(0, 3, 8, 4).unwrap(),
            vec![NestedFalls::leaf(Falls::new(0, 0, 2, 2).unwrap())],
        )
        .unwrap(),
    );
    let pv = with_complement(v, 32);
    let ps = with_complement(s, 32);
    let mv = Mapper::new(&pv, 0);
    let ms = Mapper::new(&ps, 0);
    // V's offset 4 is file byte 16, which S holds at offset 4.
    assert_eq!(mv.unmap(4), 16);
    assert_eq!(parafile::mapping::map_between(&mv, &ms, 4), Some(4));
}

/// §5: the partitioning pattern repeats throughout the file from the
/// displacement, each byte mapping on exactly one (subfile, offset) pair.
#[test]
fn section5_pattern_tiles_exclusively() {
    let p = figure3_partition();
    for x in 2..200u64 {
        let owners: Vec<usize> = (0..3).filter(|&e| Mapper::new(&p, e).selects(x)).collect();
        assert_eq!(owners.len(), 1, "byte {x} must belong to exactly one subfile");
        assert_eq!(p.owner_of(x), Some(owners[0]));
    }
}
