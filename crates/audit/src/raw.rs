//! Unvalidated pattern trees — the analyzer's input language.
//!
//! The `falls` and `parafile` constructors reject malformed structures
//! outright, which is the right behavior for production code but useless
//! for an auditor: there would be nothing left to diagnose. The raw types
//! here mirror `Falls`/`NestedSet`/`PartitionPattern` field-for-field with
//! no invariants, so any structure — including deliberately broken ones in
//! mutation tests — can be expressed and analyzed.

use falls::{NestedFalls, NestedSet};
use parafile::model::{Partition, PartitionPattern};

/// An unvalidated `(l, r, s, n)` family with optional inner families
/// (relative to the block start, like [`NestedFalls`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFalls {
    /// Left index of the first segment.
    pub l: u64,
    /// Right index of the first segment.
    pub r: u64,
    /// Stride between consecutive segments.
    pub s: u64,
    /// Segment count.
    pub n: u64,
    /// Inner families; empty means a leaf.
    pub inner: Vec<RawFalls>,
}

impl RawFalls {
    /// A leaf family.
    #[must_use]
    pub fn leaf(l: u64, r: u64, s: u64, n: u64) -> Self {
        Self { l, r, s, n, inner: Vec::new() }
    }

    /// A nested family.
    #[must_use]
    pub fn nested(l: u64, r: u64, s: u64, n: u64, inner: Vec<RawFalls>) -> Self {
        Self { l, r, s, n, inner }
    }

    /// Lossless conversion from a validated [`NestedFalls`].
    #[must_use]
    pub fn from_nested(nf: &NestedFalls) -> Self {
        let f = nf.falls();
        Self {
            l: f.l(),
            r: f.r(),
            s: f.stride(),
            n: f.count(),
            inner: nf.inner().iter().map(RawFalls::from_nested).collect(),
        }
    }

    /// Block length `r − l + 1`; `None` when the segment is inverted.
    #[must_use]
    pub fn block_len(&self) -> Option<u64> {
        if self.l > self.r {
            return None;
        }
        // l ≤ r < 2^64 so the +1 can only overflow for the full-range block.
        (self.r - self.l).checked_add(1)
    }
}

impl falls::tiling::Family for RawFalls {
    fn l(&self) -> u64 {
        self.l
    }
    fn r(&self) -> u64 {
        self.r
    }
    fn stride(&self) -> u64 {
        self.s
    }
    fn count(&self) -> u64 {
        self.n
    }
    fn inner(&self) -> &[Self] {
        &self.inner
    }
}

/// One unvalidated partition element: its sibling families.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawElement {
    /// Top-level families of the element, expected sorted and disjoint.
    pub families: Vec<RawFalls>,
}

impl RawElement {
    /// Wraps a list of families.
    #[must_use]
    pub fn new(families: Vec<RawFalls>) -> Self {
        Self { families }
    }

    /// Lossless conversion from a validated [`NestedSet`].
    #[must_use]
    pub fn from_set(set: &NestedSet) -> Self {
        Self { families: set.families().iter().map(RawFalls::from_nested).collect() }
    }
}

/// An unvalidated partitioning pattern with its displacement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawPattern {
    /// Absolute displacement of the tiling.
    pub displacement: u64,
    /// One entry per partition element.
    pub elements: Vec<RawElement>,
}

impl RawPattern {
    /// Wraps a list of elements at displacement 0.
    #[must_use]
    pub fn new(elements: Vec<RawElement>) -> Self {
        Self { displacement: 0, elements }
    }

    /// Lossless conversion from a validated [`PartitionPattern`].
    #[must_use]
    pub fn from_pattern(pattern: &PartitionPattern) -> Self {
        Self {
            displacement: 0,
            elements: pattern.elements().iter().map(RawElement::from_set).collect(),
        }
    }

    /// Lossless conversion from a validated [`Partition`].
    #[must_use]
    pub fn from_partition(partition: &Partition) -> Self {
        Self {
            displacement: partition.displacement(),
            elements: partition.pattern().elements().iter().map(RawElement::from_set).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falls::Falls;

    #[test]
    fn conversion_mirrors_the_tree() {
        let nf = NestedFalls::with_inner(
            Falls::new(0, 7, 16, 2).unwrap(),
            vec![NestedFalls::leaf(Falls::new(0, 1, 4, 2).unwrap())],
        )
        .unwrap();
        let raw = RawFalls::from_nested(&nf);
        assert_eq!(raw.l, 0);
        assert_eq!(raw.r, 7);
        assert_eq!(raw.s, 16);
        assert_eq!(raw.n, 2);
        assert_eq!(raw.inner.len(), 1);
        assert_eq!(raw.inner[0], RawFalls::leaf(0, 1, 4, 2));
        assert_eq!(raw.block_len(), Some(8));
    }

    #[test]
    fn inverted_block_has_no_length() {
        assert_eq!(RawFalls::leaf(5, 3, 6, 1).block_len(), None);
        assert_eq!(RawFalls::leaf(0, u64::MAX, 1, 1).block_len(), None);
        assert_eq!(RawFalls::leaf(1, u64::MAX, 1, 1).block_len(), Some(u64::MAX));
    }

    #[test]
    fn raw_pattern_from_partition_keeps_displacement() {
        let pattern = PartitionPattern::new(vec![
            NestedSet::singleton(NestedFalls::leaf(Falls::new(0, 1, 6, 1).unwrap())),
            NestedSet::singleton(NestedFalls::leaf(Falls::new(2, 5, 6, 1).unwrap())),
        ])
        .unwrap();
        let p = Partition::new(7, pattern);
        let raw = RawPattern::from_partition(&p);
        assert_eq!(raw.displacement, 7);
        assert_eq!(raw.elements.len(), 2);
        // Falls normalizes the stride of an n = 1 family to its block length.
        assert_eq!(raw.elements[1].families[0], RawFalls::leaf(2, 5, 4, 1));
    }
}
