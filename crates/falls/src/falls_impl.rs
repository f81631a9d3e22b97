use crate::{FallsError, LineSegment, Offset};
use std::fmt;

/// A FAmily of Line Segments: `n` equally sized, equally spaced line
/// segments. Segment `i` (for `i ∈ 0..n`) covers bytes
/// `[l + i·s, r + i·s]`.
///
/// `(l, r)` bound the first segment, `s` is the *stride* between the left
/// indices of consecutive segments and `n` the segment count. The bytes
/// between `l` and `r` form the FALLS's *block*.
///
/// Invariants enforced at construction:
/// * `l ≤ r`;
/// * `n ≥ 1`;
/// * if `n > 1` then `s ≥ r − l + 1` (segments don't overlap) — the paper's
///   figures always satisfy this, and the mapping functions rely on it;
/// * a single-segment family is normalized to stride `r − l + 1`, matching
///   the paper's convention that a line segment `(l, r)` is the FALLS
///   `(l, r, r − l + 1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Falls {
    l: Offset,
    r: Offset,
    s: u64,
    n: u64,
}

impl Falls {
    /// Creates a FALLS `(l, r, s, n)`, validating the invariants above.
    pub fn new(l: Offset, r: Offset, s: u64, n: u64) -> Result<Self, FallsError> {
        if l > r {
            return Err(FallsError::InvertedSegment { l, r });
        }
        if n == 0 {
            return Err(FallsError::ZeroCount);
        }
        let block_len = r - l + 1;
        if n == 1 {
            // Normalize: stride is meaningless for a single segment.
            return Ok(Self { l, r, s: block_len, n: 1 });
        }
        if s == 0 {
            return Err(FallsError::ZeroStride);
        }
        if s < block_len {
            return Err(FallsError::OverlappingBlocks { block_len, stride: s });
        }
        // The extent must be representable.
        l.checked_add((n - 1).checked_mul(s).ok_or(FallsError::Overflow)?)
            .and_then(|x| x.checked_add(block_len - 1))
            .ok_or(FallsError::Overflow)?;
        Ok(Self { l, r, s, n })
    }

    /// FALLS representation of a single line segment, `(l, r, r−l+1, 1)`.
    pub fn from_segment(seg: LineSegment) -> Self {
        Self { l: seg.l(), r: seg.r(), s: seg.len(), n: 1 }
    }

    /// Left index of the first segment.
    #[inline]
    #[must_use]
    pub fn l(&self) -> Offset {
        self.l
    }

    /// Right index of the first segment.
    #[inline]
    #[must_use]
    pub fn r(&self) -> Offset {
        self.r
    }

    /// Stride between consecutive segments.
    #[inline]
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.s
    }

    /// Number of segments in the family.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Bytes per segment (`r − l + 1`).
    #[inline]
    #[must_use]
    pub fn block_len(&self) -> u64 {
        self.r - self.l + 1
    }

    /// Total number of bytes covered: `n · block_len`.
    #[inline]
    #[must_use]
    pub fn size(&self) -> u64 {
        self.n * self.block_len()
    }

    /// Last byte index covered by the family: `r + (n−1)·s`.
    #[inline]
    #[must_use]
    pub fn extent_end(&self) -> Offset {
        self.r + (self.n - 1) * self.s
    }

    /// The `i`-th segment of the family, if `i < n`.
    #[must_use]
    pub fn segment(&self, i: u64) -> Option<LineSegment> {
        (i < self.n).then(|| {
            LineSegment::new(self.l + i * self.s, self.r + i * self.s)
                .expect("family segment is well-formed by construction")
        })
    }

    /// Iterator over all segments of the family, in increasing order.
    #[must_use]
    pub fn segments(&self) -> FallsSegments {
        FallsSegments { falls: *self, next: 0 }
    }

    /// Whether absolute byte `x` belongs to the family.
    #[must_use]
    pub fn contains(&self, x: Offset) -> bool {
        if x < self.l || x > self.extent_end() {
            return false;
        }
        let rel = x - self.l;
        rel % self.s <= self.r - self.l
    }

    /// Index of the segment whose *span* (segment plus the gap that follows
    /// it) contains relative offset `rel = x − l`; `None` past the extent.
    #[must_use]
    pub fn repetition_of(&self, x: Offset) -> Option<u64> {
        if x < self.l {
            return None;
        }
        let rep = (x - self.l) / self.s;
        (rep < self.n).then_some(rep)
    }

    /// Iterator over every byte offset covered by the family.
    pub fn offsets(&self) -> impl Iterator<Item = Offset> + '_ {
        self.segments().flat_map(|seg| seg.l()..=seg.r())
    }

    /// Returns a copy shifted up by `delta` bytes.
    #[must_use]
    pub fn shift_up(&self, delta: Offset) -> Option<Falls> {
        let l = self.l.checked_add(delta)?;
        let r = self.r.checked_add(delta)?;
        r.checked_add((self.n - 1) * self.s)?;
        Some(Falls { l, r, s: self.s, n: self.n })
    }

    /// Returns a copy shifted down by `delta` bytes (fails below zero).
    #[must_use]
    pub fn shift_down(&self, delta: Offset) -> Option<Falls> {
        if self.l < delta {
            return None;
        }
        Some(Falls { l: self.l - delta, r: self.r - delta, s: self.s, n: self.n })
    }
}

impl fmt::Display for Falls {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.l, self.r, self.s, self.n)
    }
}

/// Iterator over the segments of a [`Falls`]; created by [`Falls::segments`].
#[derive(Debug, Clone)]
pub struct FallsSegments {
    falls: Falls,
    next: u64,
}

impl Iterator for FallsSegments {
    type Item = LineSegment;

    fn next(&mut self) -> Option<LineSegment> {
        let seg = self.falls.segment(self.next)?;
        self.next += 1;
        Some(seg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.falls.n - self.next.min(self.falls.n)) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for FallsSegments {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1: FALLS (3,5,6,5) on a 32-byte file.
    #[test]
    fn figure1_falls() {
        let f = Falls::new(3, 5, 6, 5).unwrap();
        assert_eq!(f.block_len(), 3);
        assert_eq!(f.size(), 15);
        assert_eq!(f.extent_end(), 29);
        let segs: Vec<_> = f.segments().map(|s| s.bounds()).collect();
        assert_eq!(segs, vec![(3, 5), (9, 11), (15, 17), (21, 23), (27, 29)]);
    }

    #[test]
    fn invalid_families_rejected() {
        assert!(Falls::new(5, 3, 6, 1).is_err());
        assert!(Falls::new(0, 3, 6, 0).is_err());
        assert!(Falls::new(0, 3, 0, 2).is_err());
        // stride 3 < block length 4 → overlap
        assert!(Falls::new(0, 3, 3, 2).is_err());
        // touching blocks are fine
        assert!(Falls::new(0, 3, 4, 2).is_ok());
    }

    #[test]
    fn single_segment_normalizes_stride() {
        let f = Falls::new(10, 13, 999, 1).unwrap();
        assert_eq!(f.stride(), 4);
        let g = Falls::from_segment(LineSegment::new(10, 13).unwrap());
        assert_eq!(f, g);
    }

    #[test]
    fn contains_respects_gaps() {
        let f = Falls::new(3, 5, 6, 5).unwrap();
        for x in [3, 4, 5, 9, 11, 27, 29] {
            assert!(f.contains(x), "expected {x} in family");
        }
        for x in [0, 2, 6, 8, 12, 30, 31] {
            assert!(!f.contains(x), "expected {x} not in family");
        }
    }

    #[test]
    fn repetition_of_maps_spans() {
        let f = Falls::new(3, 5, 6, 5).unwrap();
        assert_eq!(f.repetition_of(2), None);
        assert_eq!(f.repetition_of(3), Some(0));
        assert_eq!(f.repetition_of(8), Some(0)); // in the gap after block 0
        assert_eq!(f.repetition_of(9), Some(1));
        assert_eq!(f.repetition_of(29), Some(4));
        assert_eq!(f.repetition_of(33), None);
    }

    #[test]
    fn offsets_match_segments() {
        let f = Falls::new(0, 1, 4, 3).unwrap();
        assert_eq!(f.offsets().collect::<Vec<_>>(), vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn shift_round_trips() {
        let f = Falls::new(3, 5, 6, 5).unwrap();
        let up = f.shift_up(7).unwrap();
        assert_eq!(up.l(), 10);
        assert_eq!(up.shift_down(7).unwrap(), f);
        assert_eq!(f.shift_down(4), None);
    }

    #[test]
    fn overflow_is_detected() {
        assert!(matches!(
            Falls::new(u64::MAX - 2, u64::MAX - 1, u64::MAX / 2, 3),
            Err(FallsError::Overflow)
        ));
    }

    #[test]
    fn exact_size_iterator() {
        let f = Falls::new(0, 0, 2, 4).unwrap();
        let it = f.segments();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }
}
