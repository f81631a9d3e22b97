//! The parallel file model (§5 of the paper): displacement + partitioning
//! pattern.

use crate::Error;
use falls::{fingerprint_set, tiling, LineSegment, NestedSet, Offset, StructuralHasher};
use std::fmt;

/// A partitioning pattern: the union of `p` sets of nested FALLS, each of
/// which defines one partition element (a subfile or a view).
///
/// The pattern must describe a *contiguous* region `[0, size)` and the
/// elements must be mutually *non-overlapping*; both properties are checked
/// at construction. The pattern is applied repeatedly throughout the linear
/// space of the file, starting at the partition's displacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPattern {
    elements: Vec<NestedSet>,
    size: u64,
    /// Structural fingerprint of the elements; a pure function of them.
    fingerprint: u64,
}

impl PartitionPattern {
    /// Builds and validates a partitioning pattern.
    ///
    /// Checks that element sizes sum to the covered extent and that the union
    /// of all elements is exactly `[0, size)` — which together imply both
    /// contiguity and non-overlap.
    ///
    /// The check runs in two steps. First [`falls::tiling::prove_tiling`]
    /// tries to show exact cover from the trees alone, in time proportional
    /// to the description whatever the period is; every distribution
    /// `arraydist` builds is accepted here. Only when that proof does not
    /// succeed — a broken pattern, a valid tiling whose elements factor the
    /// same bytes differently, or more than [`falls::tiling::WORK_BUDGET`]
    /// outer segments — is every segment of one period listed, sorted and
    /// swept; that step decides, produces every error value, and is
    /// unbounded in the period.
    pub fn new(elements: Vec<NestedSet>) -> Result<Self, Error> {
        if elements.is_empty() || elements.iter().any(NestedSet::is_empty) {
            // An element that selects no bytes has no linear space: the
            // mapping functions (MAP⁻¹ divides by the element size) and the
            // tiling semantics are undefined for it.
            return Err(Error::EmptyPattern);
        }
        let total = elements
            .iter()
            .try_fold(0u64, |acc, e| acc.checked_add(e.size()))
            .ok_or(Error::Falls(falls::FallsError::Overflow))?;
        if total == 0 {
            return Err(Error::EmptyPattern);
        }
        let families = elements.iter().flat_map(NestedSet::families);
        if tiling::prove_tiling(families, total, tiling::WORK_BUDGET).is_none() {
            Self::enumerate_period(&elements, total)?;
        }
        let fingerprint = Self::fold_fingerprints(&elements);
        Ok(Self { elements, size: total, fingerprint })
    }

    /// Element count, then each element's canonical nested-FALLS
    /// fingerprint ([`falls::fingerprint_set`]) in element order.
    fn fold_fingerprints(elements: &[NestedSet]) -> u64 {
        let mut h = StructuralHasher::new();
        h.write_u64(elements.len() as u64);
        for set in elements {
            h.write_u64(fingerprint_set(set));
        }
        h.finish()
    }

    /// The not-proven path of [`new`](Self::new): the union of all segments
    /// of one period must be exactly `[0, total)`.
    fn enumerate_period(elements: &[NestedSet], total: u64) -> Result<(), Error> {
        let mut segs: Vec<LineSegment> = Vec::new();
        for e in elements {
            segs.extend(e.absolute_segments());
        }
        segs.sort_unstable();
        // Overlap check: since sizes sum to `total`, any overlap forces the
        // union to cover < total bytes; but catch it explicitly for a better
        // error.
        for w in segs.windows(2) {
            if w[1].l() <= w[0].r() {
                return Err(Error::OverlappingElements);
            }
        }
        let covered = coverage_end(&segs);
        if covered != Some(total) {
            return Err(Error::NonTilingPattern { total, covered: covered.unwrap_or(0) });
        }
        Ok(())
    }

    /// Number of partition elements.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The element sets, in index order.
    #[must_use]
    pub fn elements(&self) -> &[NestedSet] {
        &self.elements
    }

    /// The set describing element `i`.
    pub fn element(&self, i: usize) -> Result<&NestedSet, Error> {
        self.elements.get(i).ok_or(Error::NoSuchElement { index: i, count: self.elements.len() })
    }

    /// The pattern size: sum of the sizes of all of its nested FALLS.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Stable 64-bit structural fingerprint, computed once at construction
    /// over the canonical form of every element (patterns are immutable).
    /// Patterns that differ only by canonical rewrites, such as a
    /// [`wrap_outer`](falls::NestedFalls::wrap_outer) wrapper, fingerprint
    /// equal; the value is the same in every process and run.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Index of the element owning byte `rel` of the pattern
    /// (`rel ∈ [0, size)`).
    #[must_use]
    pub fn owner_of(&self, rel: Offset) -> Option<usize> {
        self.elements.iter().position(|e| e.contains(rel))
    }
}

impl fmt::Display for PartitionPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pattern(size={}, {} elements):", self.size, self.elements.len())?;
        for (i, e) in self.elements.iter().enumerate() {
            writeln!(f, "  S{i} = {e}")?;
        }
        Ok(())
    }
}

/// One past the last covered byte if `segs` (sorted, disjoint) cover a
/// contiguous region starting at 0; `None` otherwise.
fn coverage_end(segs: &[LineSegment]) -> Option<u64> {
    let mut expect = 0u64;
    for s in segs {
        if s.l() != expect {
            return None;
        }
        expect = s.r() + 1;
    }
    Some(expect)
}

/// A partition of a file: an absolute byte *displacement* plus a
/// [`PartitionPattern`] tiled repeatedly from the displacement onward.
///
/// The paper uses the same structure for physical partitions (into subfiles)
/// and logical partitions (into views).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    displacement: Offset,
    pattern: PartitionPattern,
}

impl Partition {
    /// A partition starting at `displacement` with the given pattern.
    #[must_use]
    pub fn new(displacement: Offset, pattern: PartitionPattern) -> Self {
        Self { displacement, pattern }
    }

    /// Absolute byte position where the tiling starts.
    #[must_use]
    pub fn displacement(&self) -> Offset {
        self.displacement
    }

    /// The partitioning pattern.
    #[must_use]
    pub fn pattern(&self) -> &PartitionPattern {
        &self.pattern
    }

    /// Number of partition elements.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.pattern.element_count()
    }

    /// Which element owns absolute file byte `x`, if `x` is at or past the
    /// displacement.
    #[must_use]
    pub fn owner_of(&self, x: Offset) -> Option<usize> {
        if x < self.displacement {
            return None;
        }
        let rel = (x - self.displacement) % self.pattern.size();
        self.pattern.owner_of(rel)
    }

    /// Number of bytes of element `i` contained in the file region
    /// `[0, file_len)` (the pattern tiles from the displacement, so bytes
    /// below it belong to no element).
    pub fn element_len(&self, i: usize, file_len: u64) -> Result<u64, Error> {
        let set = self.pattern.element(i)?;
        let psize = self.pattern.size();
        let effective = file_len.saturating_sub(self.displacement);
        let tiles = effective / psize;
        let tail = effective % psize;
        let mut len = tiles * set.size();
        if tail > 0 {
            len += set
                .absolute_segments()
                .iter()
                .filter_map(|s| s.clip(0, tail - 1))
                .map(|s| s.len())
                .sum::<u64>();
        }
        Ok(len)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition(displacement={}, {})", self.displacement, self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falls::{Falls, NestedFalls};

    fn leaf_set(l: u64, r: u64, s: u64, n: u64) -> NestedSet {
        NestedSet::singleton(NestedFalls::leaf(Falls::new(l, r, s, n).unwrap()))
    }

    /// Figure 3's partitioning pattern: three subfiles, pattern size 6.
    pub(crate) fn figure3_pattern() -> PartitionPattern {
        PartitionPattern::new(vec![
            leaf_set(0, 1, 6, 1),
            leaf_set(2, 3, 6, 1),
            leaf_set(4, 5, 6, 1),
        ])
        .unwrap()
    }

    #[test]
    fn falls_model_expresses_non_power_of_two() {
        // The superset claim over nCube-style bit-permutation mappings: a
        // 3-disk stripe (impossible with power-of-two address bits) is
        // trivially a FALLS pattern.
        let sets: Vec<NestedSet> = (0..3).map(|k| leaf_set(5 * k, 5 * k + 4, 15, 1)).collect();
        assert!(PartitionPattern::new(sets).is_ok());
    }

    #[test]
    fn figure3_validates() {
        let p = figure3_pattern();
        assert_eq!(p.size(), 6);
        assert_eq!(p.element_count(), 3);
    }

    #[test]
    fn figure3_ownership() {
        let part = Partition::new(2, figure3_pattern());
        // Bytes below the displacement belong to nobody.
        assert_eq!(part.owner_of(0), None);
        assert_eq!(part.owner_of(1), None);
        // Pattern tiles from byte 2: [2,3]→S0, [4,5]→S1, [6,7]→S2, ...
        assert_eq!(part.owner_of(2), Some(0));
        assert_eq!(part.owner_of(5), Some(1));
        assert_eq!(part.owner_of(7), Some(2));
        assert_eq!(part.owner_of(8), Some(0));
        assert_eq!(part.owner_of(10), Some(1));
    }

    #[test]
    fn gap_in_pattern_rejected() {
        let err = PartitionPattern::new(vec![leaf_set(0, 1, 6, 1), leaf_set(4, 5, 6, 1)]);
        assert!(matches!(err, Err(Error::NonTilingPattern { total: 4, .. })));
    }

    #[test]
    fn pattern_not_starting_at_zero_rejected() {
        let err = PartitionPattern::new(vec![leaf_set(1, 2, 6, 1)]);
        assert!(matches!(err, Err(Error::NonTilingPattern { .. })));
    }

    #[test]
    fn overlapping_elements_rejected() {
        let err = PartitionPattern::new(vec![leaf_set(0, 3, 6, 1), leaf_set(2, 5, 6, 1)]);
        assert!(matches!(err, Err(Error::OverlappingElements)));
    }

    #[test]
    fn empty_pattern_rejected() {
        assert!(matches!(PartitionPattern::new(vec![]), Err(Error::EmptyPattern)));
    }

    /// An element selecting no bytes must be rejected: its linear space is
    /// empty, so MAP⁻¹ (which divides by the element size) is undefined.
    #[test]
    fn empty_element_rejected() {
        let full = NestedSet::singleton(NestedFalls::leaf(Falls::new(0, 5, 6, 1).unwrap()));
        let err = PartitionPattern::new(vec![full, NestedSet::empty()]);
        assert!(matches!(err, Err(Error::EmptyPattern)));
    }

    #[test]
    fn interleaved_elements_tile() {
        // Elements with multi-segment FALLS: S0 = (0,1,8,2) ∪ via second
        // family, S1 = (4,5,8,2) etc. Together they tile [0,16).
        let s0 = NestedSet::new(vec![
            NestedFalls::leaf(Falls::new(0, 1, 8, 2).unwrap()),
            NestedFalls::leaf(Falls::new(6, 7, 8, 2).unwrap()),
        ])
        .unwrap();
        let s1 = NestedSet::new(vec![
            NestedFalls::leaf(Falls::new(2, 3, 8, 2).unwrap()),
            NestedFalls::leaf(Falls::new(4, 5, 8, 2).unwrap()),
        ])
        .unwrap();
        let p = PartitionPattern::new(vec![s0, s1]).unwrap();
        assert_eq!(p.size(), 16);
        assert_eq!(p.owner_of(0), Some(0));
        assert_eq!(p.owner_of(2), Some(1));
        assert_eq!(p.owner_of(6), Some(0));
        assert_eq!(p.owner_of(12), Some(1));
    }

    fn nest(l: u64, r: u64, s: u64, n: u64, inner: NestedFalls) -> NestedSet {
        let outer = Falls::new(l, r, s, n).unwrap();
        NestedSet::singleton(NestedFalls::with_inner(outer, vec![inner]).unwrap())
    }

    /// Two elements that halve every 2048-byte row, one describing the rows
    /// in pairs and the other one by one: a valid tiling that is not
    /// hierarchically aligned, so the structural proof gives up and the
    /// enumeration accepts it.
    #[test]
    fn unaligned_tiling_is_accepted_through_the_enumeration() {
        let half = |l| NestedFalls::leaf(Falls::new(l, l + 1023, 2048, 1).unwrap());
        let left_pairs =
            nest(0, 4095, 4096, 8, NestedFalls::leaf(Falls::new(0, 1023, 2048, 2).unwrap()));
        let left_rows = nest(0, 2047, 2048, 16, half(0));
        let right_rows = nest(0, 2047, 2048, 16, half(1024));
        let proof = |sets: &[NestedSet]| {
            let families = sets.iter().flat_map(NestedSet::families);
            tiling::prove_tiling(families, 32768, tiling::WORK_BUDGET)
        };
        let aligned = [left_rows, right_rows.clone()];
        let unaligned = [left_pairs, right_rows];
        assert!(proof(&aligned).is_some());
        assert!(proof(&unaligned).is_none());
        for sets in [aligned, unaligned] {
            assert_eq!(PartitionPattern::new(sets.to_vec()).unwrap().size(), 32768);
        }
    }

    /// `new` answers what the enumeration alone answers — same `Ok`, same
    /// error value — and the proof never accepts what it rejects.
    #[test]
    fn verdicts_are_those_of_the_enumeration() {
        use falls::testing::{random_nested_set, Gen};
        let mut g = Gen::new(0x0DE1_0001);
        let (mut proven, mut rejected) = (0u32, 0u32);
        for round in 0..2000 {
            let span = g.range(4, 160);
            let set = random_nested_set(&mut g, span, 3);
            let other = if round % 4 == 0 {
                random_nested_set(&mut g, span, 2)
            } else {
                set.complement(span)
            };
            let elements: Vec<NestedSet> =
                [set, other].into_iter().filter(|e| !e.is_empty()).collect();
            let total: u64 = elements.iter().map(NestedSet::size).sum();
            let oracle = PartitionPattern::enumerate_period(&elements, total);
            let families = elements.iter().flat_map(NestedSet::families);
            if tiling::prove_tiling(families, total, tiling::WORK_BUDGET).is_some() {
                assert_eq!(oracle, Ok(()), "unsound on {elements:?}");
                proven += 1;
            }
            rejected += u32::from(oracle.is_err());
            assert_eq!(PartitionPattern::new(elements).map(|p| p.size()), oracle.map(|()| total));
        }
        assert!(proven > 100 && rejected > 100, "{proven} proven, {rejected} rejected");
    }

    #[test]
    fn element_len_partial_tile() {
        let part = Partition::new(0, figure3_pattern());
        // 8 bytes = one full tile (6) + 2 bytes of the next: S0 gets 2+2.
        assert_eq!(part.element_len(0, 8).unwrap(), 4);
        assert_eq!(part.element_len(1, 8).unwrap(), 2);
        assert_eq!(part.element_len(2, 8).unwrap(), 2);
        assert!(part.element_len(3, 8).is_err());
    }

    #[test]
    fn element_accessor_bounds() {
        let p = figure3_pattern();
        assert!(p.element(2).is_ok());
        assert!(matches!(p.element(3), Err(Error::NoSuchElement { index: 3, count: 3 })));
    }
}
