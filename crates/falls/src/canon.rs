//! Canonical form and structural fingerprinting for nested-FALLS sets.
//!
//! Two syntactically different nested-FALLS trees can select the same bytes
//! in the same linear (tree) order — most commonly because intersection and
//! height-equalization wrap families in trivial `(0, span−1, span, 1)` outer
//! FALLS, or leave a full-block leaf child under a node that is already a
//! leaf in disguise. [`canonicalize_set`] removes that syntactic noise
//! without changing either the selected bytes or their tree order, and
//! [`fingerprint_set`] hashes the canonical structure into a stable 64-bit
//! value usable as a cheap cache key.
//!
//! The fingerprint is a pure function of the canonical structure: it never
//! reads addresses, never depends on allocation order, and is identical
//! across processes and runs.

#[cfg(test)]
use crate::Falls;
use crate::{NestedFalls, NestedSet};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a hasher over little-endian `u64` words.
///
/// Deliberately not `std::hash::Hasher`: `DefaultHasher` is allowed to vary
/// between releases, while plan fingerprints must be stable enough to
/// compare across processes.
#[derive(Debug, Clone, Copy)]
pub struct StructuralHasher {
    state: u64,
}

impl StructuralHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Mixes one 64-bit word (as 8 little-endian bytes) into the state.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The accumulated 64-bit fingerprint.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StructuralHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `nf` is a trivial wrapper: a single-repetition family starting at
/// relative offset 0 whose one block spans its whole extent — the shape
/// [`NestedFalls::wrap_outer`] adds for height equalization. Splicing its
/// children into its place preserves both the selected bytes and tree order.
fn is_trivial_wrapper(nf: &NestedFalls) -> bool {
    let f = nf.falls();
    !nf.is_leaf() && f.l() == 0 && f.count() == 1
}

/// Whether `nf` is a leaf-shaped child that covers its parent's whole block:
/// one repetition of a full-width block at relative offset 0 with no inner
/// structure. A parent whose only child has this shape is itself a leaf.
fn is_full_block_leaf(nf: &NestedFalls, block_len: u64) -> bool {
    let f = nf.falls();
    nf.is_leaf() && f.l() == 0 && f.count() == 1 && f.block_len() == block_len
}

/// Canonicalizes one nested-FALLS tree. Children are canonicalized first,
/// then two order-preserving rewrites are applied:
///
/// 1. a node whose only child is a full-block leaf becomes a leaf;
/// 2. a node whose only child is a trivial wrapper adopts that wrapper's
///    children (the wrapper's block starts at 0 and repeats once, so every
///    grandchild keeps its relative offsets).
#[must_use]
pub fn canonicalize_nested(nf: &NestedFalls) -> NestedFalls {
    let falls = *nf.falls();
    let mut inner: Vec<NestedFalls> = nf.inner().iter().map(canonicalize_nested).collect();
    // Rule 2 first: unwrapping can expose a full-block leaf for rule 1.
    while inner.len() == 1 && is_trivial_wrapper(&inner[0]) {
        let wrapper = inner.pop().expect("len checked");
        inner = wrapper.inner().to_vec();
    }
    if inner.len() == 1 && is_full_block_leaf(&inner[0], falls.block_len()) {
        inner.clear();
    }
    if inner.is_empty() {
        return NestedFalls::leaf(falls);
    }
    NestedFalls::with_inner(falls, inner)
        .expect("canonical rewrites preserve sibling order and bounds")
}

/// Canonicalizes a nested-FALLS set: every family is canonicalized, and
/// top-level trivial wrappers are spliced into the family list when the
/// result still validates as sibling families (interleavings that only the
/// wrapper kept sorted fall back to the wrapped form, so canonicalization is
/// total).
#[must_use]
pub fn canonicalize_set(set: &NestedSet) -> NestedSet {
    let mut families: Vec<NestedFalls> = Vec::with_capacity(set.families().len());
    for nf in set.families() {
        let c = canonicalize_nested(nf);
        if is_trivial_wrapper(&c) {
            families.extend(c.inner().iter().cloned());
        } else {
            families.push(c);
        }
    }
    if let Ok(s) = NestedSet::new(families) {
        return s;
    }
    // Splicing broke sibling order — keep the per-family canonical forms.
    NestedSet::new(set.families().iter().map(canonicalize_nested).collect())
        .expect("per-family canonicalization keeps the original sibling structure")
}

/// [`canonicalize_nested`]'s rewrites on borrowed nodes: the nodes whose
/// canonical forms are `nf`'s canonical children, as a slice of its own or
/// an unwrapped descendant's children (offsets kept: wrappers sit at 0).
fn canonical_children(nf: &NestedFalls) -> &[NestedFalls] {
    let mut inner = nf.inner();
    while let [only] = inner {
        let f = only.falls();
        // Both rewrites need an only child at offset 0 repeated once.
        if f.l() != 0 || f.count() != 1 {
            break;
        }
        match canonical_children(only) {
            // Rule 1: a full-block leaf child.
            [] if f.block_len() == nf.falls().block_len() => return &[],
            [] => break,
            // Rule 2: a trivial wrapper.
            grandchildren => inner = grandchildren,
        }
    }
    inner
}

/// `nf`'s canonical children when `nf` canonicalizes to a trivial wrapper,
/// which [`canonicalize_set`] splices into the family list in its place.
fn splice_children(nf: &NestedFalls) -> Option<&[NestedFalls]> {
    let f = nf.falls();
    if f.l() != 0 || f.count() != 1 {
        return None;
    }
    Some(canonical_children(nf)).filter(|children| !children.is_empty())
}

/// Hashes the canonical form of `nf` in preorder: `(l, block, stride,
/// count, child count)` per node.
fn hash_canonical(h: &mut StructuralHasher, nf: &NestedFalls) {
    let f = nf.falls();
    h.write_u64(f.l());
    h.write_u64(f.block_len());
    h.write_u64(f.stride());
    h.write_u64(f.count());
    let children = canonical_children(nf);
    h.write_u64(children.len() as u64);
    for child in children {
        hash_canonical(h, child);
    }
}

/// Stable 64-bit structural fingerprint of a nested-FALLS set, computed over
/// its canonical form. Equal sets (same bytes, same tree order, up to the
/// canonical rewrites) fingerprint equal; the converse holds modulo 64-bit
/// hash collisions, which a cache must tolerate by storing the key alongside.
///
/// Equal to hashing [`canonicalize_set`]'s result, but applies the rewrites
/// while it walks and allocates no canonical copy.
#[must_use]
pub fn fingerprint_set(set: &NestedSet) -> u64 {
    let families = set.families();
    let splice =
        families.iter().flat_map(|nf| splice_children(nf).unwrap_or(std::slice::from_ref(nf)));
    // A set's families, and a wrapper's children, are validated disjoint,
    // and canonical forms keep their bytes: the spliced list passes
    // `canonicalize_set`'s sibling check iff its left indices never drop.
    let mut h = StructuralHasher::new();
    if splice.clone().map(|nf| nf.falls().l()).is_sorted() {
        h.write_u64(splice.clone().count() as u64);
        splice.for_each(|nf| hash_canonical(&mut h, nf));
    } else {
        h.write_u64(families.len() as u64);
        families.iter().for_each(|nf| hash_canonical(&mut h, nf));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> NestedFalls {
        NestedFalls::with_inner(
            Falls::new(0, 3, 8, 2).unwrap(),
            vec![NestedFalls::leaf(Falls::new(0, 0, 2, 2).unwrap())],
        )
        .unwrap()
    }

    #[test]
    fn wrap_outer_canonicalizes_away() {
        let nf = fig2();
        let wrapped = nf.clone().wrap_outer(16).unwrap();
        let set = NestedSet::singleton(wrapped);
        let canon = canonicalize_set(&set);
        assert_eq!(canon, NestedSet::singleton(nf.clone()));
        assert_eq!(fingerprint_set(&set), fingerprint_set(&NestedSet::singleton(nf)));
    }

    #[test]
    fn double_wrap_canonicalizes_away() {
        let nf = fig2();
        let wrapped = nf.clone().wrap_outer(16).unwrap().wrap_outer(16).unwrap();
        assert_eq!(
            fingerprint_set(&NestedSet::singleton(wrapped)),
            fingerprint_set(&NestedSet::singleton(nf))
        );
    }

    #[test]
    fn full_block_leaf_child_collapses() {
        // (0,7,16,2,{(0,7,8,1)}) selects the same bytes in the same order as
        // the plain leaf (0,7,16,2).
        let outer = Falls::new(0, 7, 16, 2).unwrap();
        let noisy = NestedFalls::with_inner(
            outer,
            vec![NestedFalls::leaf(Falls::new(0, 7, 8, 1).unwrap())],
        )
        .unwrap();
        let canon = canonicalize_nested(&noisy);
        assert_eq!(canon, NestedFalls::leaf(outer));
    }

    #[test]
    fn canonicalization_preserves_tree_order_bytes() {
        let nf = fig2();
        let wrapped = nf.clone().wrap_outer(16).unwrap();
        assert_eq!(canonicalize_nested(&wrapped).tree_segments(), nf.tree_segments());
    }

    #[test]
    fn distinct_shapes_fingerprint_differently() {
        let a = NestedSet::singleton(NestedFalls::leaf(Falls::new(0, 3, 8, 2).unwrap()));
        let b = NestedSet::singleton(NestedFalls::leaf(Falls::new(0, 3, 8, 3).unwrap()));
        let c = NestedSet::singleton(NestedFalls::leaf(Falls::new(4, 7, 8, 2).unwrap()));
        assert_ne!(fingerprint_set(&a), fingerprint_set(&b));
        assert_ne!(fingerprint_set(&a), fingerprint_set(&c));
        assert_ne!(fingerprint_set(&b), fingerprint_set(&c));
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let s = NestedSet::singleton(fig2());
        assert_eq!(fingerprint_set(&s), fingerprint_set(&s));
    }

    #[test]
    fn interleaved_splice_falls_back_safely() {
        // A wrapper whose children interleave with a later top-level family:
        // splicing would break sibling ordering, so the set keeps the
        // wrapped family — and canonicalization must still terminate with an
        // equal-byte result.
        let child_a = NestedFalls::leaf(Falls::new(0, 0, 8, 2).unwrap());
        let child_b = NestedFalls::leaf(Falls::new(4, 4, 8, 2).unwrap());
        let wrapper =
            NestedFalls::with_inner(Falls::new(0, 15, 16, 1).unwrap(), vec![child_a, child_b])
                .unwrap();
        let tail = NestedFalls::leaf(Falls::new(2, 2, 8, 2).unwrap());
        let set = NestedSet::new(vec![wrapper, tail]).unwrap();
        let canon = canonicalize_set(&set);
        assert_eq!(canon.absolute_offsets(), set.absolute_offsets());
        assert_eq!(fingerprint_set(&canon), fingerprint_set(&set));
    }

    #[test]
    fn canonical_form_is_a_fixed_point() {
        let wrapped = NestedSet::singleton(fig2().wrap_outer(16).unwrap());
        let once = canonicalize_set(&wrapped);
        let twice = canonicalize_set(&once);
        assert_eq!(once, twice);
    }
}
