//! Reproduces the paper's Figures 1–4 as checked ASCII diagrams: the FALLS
//! and nested-FALLS examples, the partitioned file of Figure 3, and the
//! intersection + projections of Figure 4.
//!
//! Run with: `cargo run -p pf-examples --example falls_gallery`

use falls::{render_falls, render_nested_set, Falls, NestedFalls, NestedSet};
use parafile::model::{Partition, PartitionPattern};
use parafile::redist::{cut_falls, intersect_and_project, intersect_falls, intersect_sets};

fn main() {
    // Figure 1: FALLS (3,5,6,5) on a 32-byte file.
    let fig1 = Falls::new(3, 5, 6, 5).unwrap();
    println!("Figure 1 — FALLS {fig1}:");
    println!("{}\n", render_falls(&fig1, 32));
    assert_eq!(fig1.size(), 15);

    // CUT-FALLS example: cut Figure 1's family between 4 and 28.
    let cut = cut_falls(&fig1, 4, 28);
    println!(
        "CUT-FALLS((3,5,6,5), 4, 28) = {}\n",
        cut.iter().map(Falls::to_string).collect::<Vec<_>>().join(", ")
    );
    assert_eq!(cut.len(), 3);

    // Figure 2: nested FALLS (0,3,8,2,{(0,0,2,2)}).
    let fig2 = NestedFalls::with_inner(
        Falls::new(0, 3, 8, 2).unwrap(),
        vec![NestedFalls::leaf(Falls::new(0, 0, 2, 2).unwrap())],
    )
    .unwrap();
    let fig2_set = NestedSet::singleton(fig2);
    println!("Figure 2 — nested FALLS {fig2_set} (size {}):", fig2_set.size());
    println!("{}\n", render_nested_set(std::slice::from_ref(&fig2_set), 16));
    assert_eq!(fig2_set.size(), 4);

    // Figure 3: a file partitioned into three subfiles, displacement 2.
    let sets: Vec<NestedSet> = [(0u64, 1u64), (2, 3), (4, 5)]
        .iter()
        .map(|&(l, r)| NestedSet::singleton(NestedFalls::leaf(Falls::new(l, r, 6, 1).unwrap())))
        .collect();
    println!("Figure 3 — partitioning pattern (size 6, displacement 2):");
    println!("{}\n", render_nested_set(&sets, 6));
    let pattern = PartitionPattern::new(sets).unwrap();
    let partition = Partition::new(2, pattern);
    let m1 = parafile::Mapper::new(&partition, 1);
    println!("MAP_S1(10) = {:?}, MAP_S1⁻¹(2) = {}\n", m1.map(10), m1.unmap(2));
    assert_eq!(m1.map(10), Some(2));

    // Figure 4: INTERSECT-FALLS and the nested intersection + projections.
    let f1 = Falls::new(0, 7, 16, 2).unwrap();
    let f2 = Falls::new(0, 3, 8, 4).unwrap();
    let inter = intersect_falls(&f1, &f2);
    println!(
        "Figure 4 — INTERSECT-FALLS({f1}, {f2}) = {}",
        inter.iter().map(Falls::to_string).collect::<Vec<_>>().join(", ")
    );
    assert_eq!(inter, vec![Falls::new(0, 3, 16, 2).unwrap()]);

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
    println!("V = {v}\nS = {s}");
    println!("{}", render_nested_set(&[v.clone(), s.clone()], 32));
    let i = intersect_sets(&v, 32, &s, 32);
    println!("V ∩ S = {i} → bytes {:?}", i.absolute_offsets());
    assert_eq!(i.absolute_offsets(), vec![0, 16]);

    // Projections via full partitions (complement elements fill the rest).
    let (pv, ps) = (fig4_partition(&v), fig4_partition(&s));
    let (_, proj_v, proj_s) = intersect_and_project(&pv, 0, &ps, 0).unwrap();
    println!(
        "PROJ_V(V∩S) positions {:?}, PROJ_S(V∩S) positions {:?}",
        proj_v.set.absolute_offsets(),
        proj_s.set.absolute_offsets()
    );
    assert_eq!(proj_v.set.absolute_offsets(), vec![0, 4]);
    assert_eq!(proj_s.set.absolute_offsets(), vec![0, 4]);
    println!("\nall figures verified.");
}

/// Wraps one element set into a full two-element partition of a 32-byte
/// pattern (the complement becomes element 1).
fn fig4_partition(set: &NestedSet) -> Partition {
    let complement = set.complement(32);
    Partition::new(0, PartitionPattern::new(vec![set.clone(), complement]).unwrap())
}
