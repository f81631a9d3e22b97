//! `fingerprint_set` applies the canonical rewrites while it hashes; it must
//! give exactly the hash of the copy `canonicalize_set` builds, on the
//! canonical-form unit shapes, on the element sets `tests/plan_keys.rs`
//! keys (bare and wrapped), and on generated sets carrying the noise the
//! rewrites remove.

use arraydist::matrix::MatrixLayout;
use arraydist::{ArrayDistribution, DimDist, ProcGrid};
use falls::testing::{random_nested_set, Gen};
use falls::{canonicalize_set, fingerprint_set, Falls, NestedFalls, NestedSet, StructuralHasher};

/// The reference: `canonicalize_set`'s copy, hashed node by node.
fn hash_of_canonical_copy(set: &NestedSet) -> u64 {
    fn node(h: &mut StructuralHasher, nf: &NestedFalls) {
        let f = nf.falls();
        for word in [f.l(), f.block_len(), f.stride(), f.count(), nf.inner().len() as u64] {
            h.write_u64(word);
        }
        nf.inner().iter().for_each(|c| node(h, c));
    }
    let canonical = canonicalize_set(set);
    let mut h = StructuralHasher::new();
    h.write_u64(canonical.families().len() as u64);
    canonical.families().iter().for_each(|nf| node(&mut h, nf));
    h.finish()
}

fn leaf(l: u64, r: u64, s: u64, n: u64) -> NestedFalls {
    NestedFalls::leaf(Falls::new(l, r, s, n).unwrap())
}

/// `inner` under one trivial `(0, span−1, span, 1)` wrapper.
fn wrap(inner: Vec<NestedFalls>, span: u64) -> NestedFalls {
    NestedFalls::with_inner(Falls::new(0, span - 1, span, 1).unwrap(), inner).unwrap()
}

/// Figure 2's tree bare, wrapped once and twice; a full-block leaf child;
/// and a wrapper whose splice would interleave with a later family.
fn unit_shapes() -> Vec<NestedSet> {
    let fig2 = NestedFalls::with_inner(Falls::new(0, 3, 8, 2).unwrap(), vec![leaf(0, 0, 2, 2)]);
    let fig2 = fig2.unwrap();
    let full_block =
        NestedFalls::with_inner(Falls::new(0, 7, 16, 2).unwrap(), vec![leaf(0, 7, 8, 1)]);
    let interleaving = wrap(vec![leaf(0, 0, 8, 2), leaf(4, 4, 8, 2)], 16);
    vec![
        NestedSet::singleton(fig2.clone()),
        NestedSet::singleton(wrap(vec![fig2.clone()], 16)),
        NestedSet::singleton(wrap(vec![wrap(vec![fig2], 16)], 16)),
        NestedSet::singleton(full_block.unwrap()),
        NestedSet::new(vec![interleaving, leaf(2, 2, 8, 2)]).unwrap(),
    ]
}

/// Every element set of the distributions `tests/plan_keys.rs` keys.
fn plan_key_sets() -> Vec<NestedSet> {
    use DimDist::{Block, BlockCyclic, Collapsed};
    let mut parts = Vec::new();
    for layout in MatrixLayout::all() {
        for (n, p) in [(8, 4), (256, 4), (2048, 4), (256, 16)] {
            parts.push(layout.partition(n, n, 1, p));
        }
    }
    let stripe = 64 << 10;
    let mut dists = vec![
        ([2048, 2048, 1], [Block, Collapsed], [4, 1]),
        ([2048, 2048, 1], [Collapsed, Block], [1, 4]),
        ([768 * 1024 * 8 / stripe, stripe, 1], [BlockCyclic(1), Collapsed], [4, 1]),
        ([768, 1024, 8], [Block, Collapsed], [4, 1]),
        ([768, 1024, 8], [BlockCyclic(16), Collapsed], [3, 1]),
    ];
    for (b, c) in [(25, 129), (300, 700), (1024, 1024)] {
        dists.push(([2048, 2048, 1], [BlockCyclic(b), BlockCyclic(c)], [2, 2]));
    }
    for b in [1, 7, 512] {
        dists.push(([2048, 2048, 1], [BlockCyclic(b), Collapsed], [4, 1]));
    }
    for ([rows, cols, elem], d, g) in dists {
        let dist =
            ArrayDistribution::new(vec![rows, cols], elem, d.to_vec(), ProcGrid::new(g.to_vec()));
        parts.push(dist.partition(0));
    }
    parts.iter().flat_map(|p| p.pattern().elements().iter().cloned()).collect()
}

/// `nf` with random noise: full-block leaves under leaves, wrapper chains
/// around only children, and a wrapper around the first of several
/// children (which no rewrite removes).
fn noisy(g: &mut Gen, nf: &NestedFalls) -> NestedFalls {
    let block = nf.falls().block_len();
    let mut children: Vec<NestedFalls> = nf.inner().iter().map(|c| noisy(g, c)).collect();
    if children.is_empty() && g.chance(1, 3) {
        children.push(leaf(0, block - 1, block, 1));
    }
    let wraps = match children.len() {
        0 => 0,
        1 => g.below(3),
        _ => u64::from(g.chance(1, 4)),
    };
    for _ in 0..wraps {
        let end = children[0].extent_end();
        let span = if children.len() == 1 { g.range(end + 1, block) } else { end + 1 };
        children[0] = wrap(vec![children[0].clone()], span);
    }
    if children.is_empty() {
        return nf.clone();
    }
    NestedFalls::with_inner(*nf.falls(), children).unwrap()
}

#[test]
fn fingerprint_walk_equals_hash_of_canonical_copy() {
    let check = |set: &NestedSet| {
        assert_eq!(fingerprint_set(set), hash_of_canonical_copy(set), "{set:?}");
    };
    unit_shapes().iter().for_each(check);
    for set in plan_key_sets() {
        check(&set);
        check(&NestedSet::singleton(wrap(set.families().to_vec(), set.extent_end().unwrap() + 1)));
    }
    let mut g = Gen::new(41);
    let (mut rewritten, mut kept_wrappers) = (0, 0);
    for _ in 0..3000 {
        let span = g.range(4, 4096);
        let set = random_nested_set(&mut g, span, 4);
        let families: Vec<NestedFalls> =
            set.families().iter().map(|nf| noisy(&mut g, nf)).collect();
        // Every other family under one wrapper: spliced back while that
        // keeps the families sorted (up to two), kept after.
        let (even, odd): (Vec<_>, Vec<_>) =
            families.iter().cloned().enumerate().partition(|(i, _)| i % 2 == 0);
        let strip = |v: Vec<(usize, NestedFalls)>| v.into_iter().map(|(_, nf)| nf);
        let families = if g.chance(1, 3) {
            families
        } else {
            std::iter::once(wrap(strip(even).collect(), span)).chain(strip(odd)).collect()
        };
        let noisy_set = NestedSet::new(families).unwrap();
        check(&set);
        check(&noisy_set);
        let canonical = canonicalize_set(&noisy_set);
        rewritten += usize::from(canonical != noisy_set);
        kept_wrappers += usize::from(
            canonical
                .families()
                .iter()
                .any(|nf| !nf.is_leaf() && nf.falls().l() == 0 && nf.falls().count() == 1),
        );
    }
    // The noise must reach both rewrites and the kept-wrapper fall-back.
    assert!(rewritten > 1000 && kept_wrappers > 50, "{rewritten} rewritten, {kept_wrappers} kept");
}
