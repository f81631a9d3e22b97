//! Intersection projections (§7): an intersection re-expressed in the
//! linear space of one of the intersected partition elements, and the
//! range-clipped walk the I/O path reads it through.
//!
//! Projections are built inside `INTERSECT-AUX`
//! ([`intersect_and_project`](crate::redist::intersect_and_project)) as
//! FALLS trees; [`oracle`](crate::redist::oracle) keeps the enumerating
//! construction they are tested against. The daemon runs this file on every
//! request with bounds taken from the wire, so nothing here may panic.

// Walks wire bounds on every `Write`/`Read`: bad input is an error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use falls::{LineSegment, NestedFalls, NestedSet};

/// A projection of an intersection onto the linear space of one of the two
/// intersected partition elements (the paper's `PROJ`).
///
/// `set` holds the element-linear positions of the common data within the
/// first aligned window; the selection repeats every `period` element bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Element-linear positions of the common bytes in window 0.
    pub set: NestedSet,
    /// Element-linear bytes per aligned window.
    pub period: u64,
}

impl Projection {
    /// An empty projection (of an empty intersection).
    #[must_use]
    pub fn empty() -> Self {
        Self { set: NestedSet::empty(), period: 1 }
    }

    /// Whether the projection selects no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Common bytes per aligned window.
    #[must_use]
    pub fn bytes_per_period(&self) -> u64 {
        self.set.size()
    }

    /// Element-linear segments of the projection clipped to `[lo, hi]`
    /// (inclusive), across however many windows that range spans, in
    /// increasing element-offset order; abutting segments of one window are
    /// merged, segments of different windows are not.
    ///
    /// The walk descends only into the repetitions of each node that meet
    /// the range, so its cost is the tree's depth plus the output, not the
    /// window's segment count.
    #[must_use]
    pub fn segments_between(&self, lo: u64, hi: u64) -> Vec<LineSegment> {
        let mut out = Vec::new();
        let Some((k_lo, k_hi)) = self.windows(lo, hi) else { return out };
        for k in k_lo..=k_hi {
            // k·p ≤ hi − first: neither this nor `hi - shift` can wrap.
            let shift = k * self.period;
            let start = out.len();
            walk(self.set.families(), 0, lo.saturating_sub(shift), hi - shift, &mut |seg| {
                out.push(seg);
            });
            settle(&mut out, start, shift);
        }
        if k_hi > k_lo {
            // Window 0 can span more than one period when the element's tree
            // order differs from byte order under a displacement mismatch.
            out.sort_unstable();
        }
        out
    }

    /// Windows `k_lo..=k_hi` whose copy of the selection,
    /// `[first + k·p, last + k·p]`, meets `[lo, hi]`; `None` if none does. A
    /// zero period (only a hostile peer sends one) is one window.
    fn windows(&self, lo: u64, hi: u64) -> Option<(u64, u64)> {
        let first = self.set.families().first()?.falls().l();
        let last = self.set.extent_end()?;
        if lo > hi || first > hi {
            return None;
        }
        Some(match self.period {
            0 => (0, 0),
            p => (lo.saturating_sub(last).div_ceil(p), (hi - first) / p),
        })
    }

    /// Whether the walk meets the segments in increasing order, window
    /// after window: no siblings interleave and window 0 spans less than a
    /// period. [`Projection::stream_between`] relies on it.
    pub(crate) fn walks_in_order(&self) -> bool {
        fn separated(nodes: &[NestedFalls]) -> bool {
            nodes.windows(2).all(|w| w[0].extent_end() < w[1].falls().l())
                && nodes.iter().all(|n| separated(n.inner()))
        }
        let span = match (self.set.families().first(), self.set.extent_end()) {
            (Some(first), Some(last)) => last - first.falls().l(),
            _ => 0,
        };
        (self.period == 0 || span < self.period) && separated(self.set.families())
    }

    /// [`Projection::segments_between`] streamed to `emit` without
    /// allocating, for a projection that [walks in
    /// order](Projection::walks_in_order).
    pub(crate) fn stream_between(&self, lo: u64, hi: u64, mut emit: impl FnMut(LineSegment)) {
        let Some((k_lo, k_hi)) = self.windows(lo, hi) else { return };
        for k in k_lo..=k_hi {
            let shift = k * self.period;
            let mut pending: Option<LineSegment> = None;
            let mut flush = |seg: LineSegment| emit(seg.shift_up(shift).unwrap_or(seg));
            walk(self.set.families(), 0, lo.saturating_sub(shift), hi - shift, &mut |seg| {
                pending = match pending {
                    Some(p) if p.r().checked_add(1) == Some(seg.l()) => {
                        Some(LineSegment::new(p.l(), seg.r()).unwrap_or(p))
                    }
                    Some(p) => {
                        flush(p);
                        Some(seg)
                    }
                    None => Some(seg),
                };
            });
            if let Some(p) = pending {
                flush(p);
            }
        }
    }

    /// Whether two projections select the same bytes in every window,
    /// however their trees nest them: equal periods, and equal window-0
    /// segments, compared over doubling ranges so that a mismatch stops the
    /// walk early.
    #[must_use]
    pub fn same_bytes(&self, other: &Self) -> bool {
        if self.period != other.period || self.bytes_per_period() != other.bytes_per_period() {
            return false;
        }
        let (Some(a_end), Some(b_end)) = (self.set.extent_end(), other.set.extent_end()) else {
            return false;
        };
        let end = a_end.max(b_end);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut lo, mut width) = (0u64, 64u64);
        loop {
            let hi = lo.saturating_add(width - 1).min(end);
            for (proj, segs) in [(self, &mut a), (other, &mut b)] {
                segs.clear();
                walk(proj.set.families(), 0, lo, hi, &mut |seg| segs.push(seg));
                settle(segs, 0, 0);
            }
            if a != b {
                return false;
            }
            if hi == end {
                return true;
            }
            lo = hi + 1;
            width = width.saturating_mul(2);
        }
    }

    /// Number of projected bytes within `[lo, hi]`.
    #[must_use]
    pub fn bytes_between(&self, lo: u64, hi: u64) -> u64 {
        self.segments_between(lo, hi).iter().map(LineSegment::len).sum()
    }

    /// Whether the projection covers *every* byte of `[lo, hi]` — the
    /// paper's "PROJ is contiguous between ÷ and ø" fast-path test: when it
    /// holds, the buffer interval can be sent/written as one contiguous
    /// block with no gather/scatter.
    #[must_use]
    pub fn covers_interval(&self, lo: u64, hi: u64) -> bool {
        lo <= hi && self.bytes_between(lo, hi) == hi - lo + 1
    }

    /// The single contiguous run formed by the projected bytes within
    /// `[lo, hi]`, if they form exactly one run (`None` if empty or
    /// fragmented).
    #[must_use]
    pub fn contiguous_run_between(&self, lo: u64, hi: u64) -> Option<LineSegment> {
        let segs = self.segments_between(lo, hi);
        let mut iter = segs.into_iter();
        let mut run = iter.next()?;
        for seg in iter {
            if run.abuts(&seg) {
                run = LineSegment::new(run.l(), seg.r()).ok()?;
            } else {
                return None;
            }
        }
        Some(run)
    }

    /// Number of disjoint fragments within `[lo, hi]` (adjacent segments
    /// coalesce into one fragment).
    #[must_use]
    pub fn fragments_between(&self, lo: u64, hi: u64) -> usize {
        let segs = self.segments_between(lo, hi);
        let mut count = 0usize;
        let mut prev: Option<LineSegment> = None;
        for seg in segs {
            match prev {
                Some(p) if p.abuts(&seg) => {}
                _ => count += 1,
            }
            prev = Some(seg);
        }
        count
    }
}

/// Emits the segments `nodes` select (relative to `base`) that meet
/// `[lo, hi]`, clipped to it, in tree order, visiting only the repetitions
/// that meet it. Siblings are sorted by left index, so the first one past
/// `hi` ends the level.
fn walk(nodes: &[NestedFalls], base: u64, lo: u64, hi: u64, emit: &mut impl FnMut(LineSegment)) {
    for nf in nodes {
        let f = nf.falls();
        let Some(first) = base.checked_add(f.l()) else { return };
        if first > hi {
            return;
        }
        let (len, stride) = (f.block_len(), f.stride());
        let first_end = first.saturating_add(len - 1);
        // Repetitions k with [first + k·s, first_end + k·s] ∩ [lo, hi] ≠ ∅.
        let k_lo = if lo > first_end { (lo - first_end).div_ceil(stride) } else { 0 };
        let k_hi = ((hi - first) / stride).min(f.count() - 1);
        for k in k_lo..=k_hi {
            let start = first + k * stride; // ≤ hi
            if nf.is_leaf() {
                let end = start.saturating_add(len - 1);
                if let Ok(seg) = LineSegment::new(start.max(lo), end.min(hi)) {
                    emit(seg);
                }
            } else {
                walk(nf.inner(), start, lo, hi, emit);
            }
        }
    }
}

/// Sorts `out[start..]` (one window's walk), merges abutting segments and
/// shifts them up by `shift` — which cannot wrap, the walk having clipped
/// them to `hi − shift`.
fn settle(out: &mut Vec<LineSegment>, start: usize, shift: u64) {
    out[start..].sort_unstable();
    let mut kept = start;
    for i in start..out.len() {
        let seg = out[i];
        if kept > start && out[kept - 1].r().checked_add(1) == Some(seg.l()) {
            let prev = out[kept - 1];
            out[kept - 1] = LineSegment::new(prev.l(), seg.r()).unwrap_or(prev);
        } else {
            out[kept] = seg;
            kept += 1;
        }
    }
    out.truncate(kept);
    for seg in &mut out[start..] {
        *seg = seg.shift_up(shift).unwrap_or(*seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Partition, PartitionPattern};
    use crate::redist::{intersect_and_project, oracle};
    use falls::testing::{random_nested_set, Gen};
    use falls::{Falls, NestedFalls, NestedSet};

    fn leaf(l: u64, r: u64, s: u64, n: u64) -> NestedFalls {
        NestedFalls::leaf(Falls::new(l, r, s, n).unwrap())
    }

    fn nested(l: u64, r: u64, s: u64, n: u64, inner: Vec<NestedFalls>) -> NestedFalls {
        NestedFalls::with_inner(Falls::new(l, r, s, n).unwrap(), inner).unwrap()
    }

    /// Figure 4(c)/(d): both projections of V ∩ S equal (0,0,4,2) — element
    /// offsets {0, 4}.
    #[test]
    fn paper_figure4_projections() {
        // V = {(0,7,16,2, {(0,1,4,2)})} plus a complement element so the
        // pattern tiles; S likewise.
        let v_set = NestedSet::singleton(nested(0, 7, 16, 2, vec![leaf(0, 1, 4, 2)]));
        let v_rest = v_set.complement(32);
        let s_set = NestedSet::singleton(nested(0, 3, 8, 4, vec![leaf(0, 0, 2, 2)]));
        let s_rest = s_set.complement(32);
        let pv = Partition::new(0, PartitionPattern::new(vec![v_set, v_rest]).unwrap());
        let ps = Partition::new(0, PartitionPattern::new(vec![s_set, s_rest]).unwrap());
        let (inter, proj_v, proj_s) = intersect_and_project(&pv, 0, &ps, 0).unwrap();
        assert_eq!(inter.set.absolute_offsets(), vec![0, 16]);

        assert_eq!(proj_v.set.absolute_offsets(), vec![0, 4]);
        assert_eq!(proj_s.set.absolute_offsets(), vec![0, 4]);
        assert_eq!(proj_v.period, 8);
        assert_eq!(proj_s.period, 8);
    }

    #[test]
    fn projection_of_identical_elements_is_identity() {
        let pat = PartitionPattern::new(vec![
            NestedSet::singleton(leaf(0, 3, 8, 1)),
            NestedSet::singleton(leaf(4, 7, 8, 1)),
        ])
        .unwrap();
        let p = Partition::new(0, pat);
        let (_, proj, _) = intersect_and_project(&p, 0, &p, 0).unwrap();
        assert_eq!(proj.set.absolute_offsets(), vec![0, 1, 2, 3]);
        assert!(proj.covers_interval(0, 3));
        assert!(proj.covers_interval(0, 100));
        assert_eq!(proj.fragments_between(0, 15), 1);
    }

    #[test]
    fn projection_round_trips_through_mapping() {
        use crate::mapping::Mapper;
        // Random single-element-of-interest partitions: element 0 random,
        // element 1 the complement.
        let mut g = Gen::new(0x5EED);
        for _ in 0..40 {
            let span = g.range(8, 96);
            let a0 = random_nested_set(&mut g, span, 2);
            let b0 = random_nested_set(&mut g, span, 2);
            let (pa, pb) = match (complement_ok(&a0, span), complement_ok(&b0, span)) {
                (Some(pa), Some(pb)) => (pa, pb),
                _ => continue,
            };
            let (inter, proj_a, _) = intersect_and_project(&pa, 0, &pb, 0).unwrap();
            if inter.is_empty() {
                continue;
            }
            let ma = Mapper::new(&pa, 0);
            // Every intersection byte's MAP value appears in the projection.
            let want: Vec<u64> = inter
                .set
                .absolute_offsets()
                .iter()
                .map(|&x| ma.map(x).expect("intersection ⊆ element"))
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(proj_a.set.absolute_offsets(), want_sorted);
        }
    }

    fn complement_ok(set: &NestedSet, span: u64) -> Option<Partition> {
        let rest = set.complement(span);
        if rest.is_empty() {
            // The element covers everything; single-element pattern.
            return PartitionPattern::new(vec![set.clone()]).ok().map(|p| Partition::new(0, p));
        }
        PartitionPattern::new(vec![set.clone(), rest]).ok().map(|p| Partition::new(0, p))
    }

    #[test]
    fn segments_between_spans_windows() {
        let pat = PartitionPattern::new(vec![
            NestedSet::singleton(leaf(0, 1, 4, 1)),
            NestedSet::singleton(leaf(2, 3, 4, 1)),
        ])
        .unwrap();
        let p = Partition::new(0, pat);
        let (_, proj, _) = intersect_and_project(&p, 0, &p, 0).unwrap();
        assert_eq!(proj.period, 2);
        // The projection is the identity on element 0's space.
        let segs = proj.segments_between(3, 9);
        let offs: Vec<u64> = segs.iter().flat_map(LineSegment::offsets).collect();
        assert_eq!(offs, vec![3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn fragmented_projection_detected() {
        // Row element intersected with a column element fragments.
        let rows = Partition::new(
            0,
            PartitionPattern::new(
                (0..2).map(|k| NestedSet::singleton(leaf(8 * k, 8 * k + 7, 16, 1))).collect(),
            )
            .unwrap(),
        );
        let cols = Partition::new(
            0,
            PartitionPattern::new(
                (0..2).map(|k| NestedSet::singleton(leaf(2 * k, 2 * k + 1, 4, 4))).collect(),
            )
            .unwrap(),
        );
        let (_, proj_r, _) = intersect_and_project(&rows, 0, &cols, 0).unwrap();
        // Row 0's bytes [0,8) keep columns {0,1,4,5} → two fragments.
        assert_eq!(proj_r.set.absolute_offsets(), vec![0, 1, 4, 5]);
        assert_eq!(proj_r.fragments_between(0, 7), 2);
        assert!(!proj_r.covers_interval(0, 7));
        assert!(proj_r.covers_interval(0, 1));
        assert_eq!(proj_r.contiguous_run_between(0, 7), None);
        assert_eq!(proj_r.contiguous_run_between(3, 7), Some(LineSegment::new(4, 5).unwrap()));
    }

    #[test]
    fn empty_projection_behaviour() {
        let p = Projection::empty();
        assert!(p.is_empty());
        assert!(p.segments_between(0, 100).is_empty());
        assert!(!p.covers_interval(0, 0));
        assert_eq!(p.fragments_between(0, 10), 0);
    }

    /// A random element of `span` bytes (mixed depths) plus its complement,
    /// at displacement `disp`.
    fn random_partition(g: &mut Gen, span: u64, disp: u64) -> Option<Partition> {
        let set = random_nested_set(g, span, 3);
        complement_ok(&set, span).map(|p| Partition::new(disp, p.pattern().clone()))
    }

    /// Random probe ranges over the first few windows, plus the edges.
    fn probes(g: &mut Gen, proj: &Projection) -> Vec<(u64, u64)> {
        let reach = proj.set.extent_end().unwrap_or(0) + 3 * proj.period + 2;
        let mut out = vec![(0, reach), (reach, 0), (0, 0), (1, 1)];
        for _ in 0..12 {
            let lo = g.below(reach);
            out.push((lo, lo + g.below(reach)));
        }
        out
    }

    /// The structural projections against the enumerating oracle, over
    /// random element pairs with unequal pattern sizes and unequal non-zero
    /// displacements: identical segments in window 0 and identical clipped
    /// walks across windows.
    #[test]
    fn structural_projection_matches_the_enumerating_oracle() {
        let mut g = Gen::new(0x9407);
        let (mut checked, mut in_order) = (0, 0);
        for round in 0..400 {
            let (s1, s2) = (g.range(4, 72), g.range(4, 72));
            let d1 = g.range(1, 40);
            let d2 = (d1 - 1 + g.range(1, 39)) % 40 + 1; // in 1..=40, never d1
            let (Some(p1), Some(p2)) =
                (random_partition(&mut g, s1, d1), random_partition(&mut g, s2, d2))
            else {
                continue;
            };
            for (e1, e2) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                if e1 >= p1.element_count() || e2 >= p2.element_count() {
                    continue;
                }
                let (inter, a, b) = intersect_and_project(&p1, e1, &p2, e2).unwrap();
                if inter.is_empty() {
                    continue;
                }
                for (proj, p, e) in [(&a, &p1, e1), (&b, &p2, e2)] {
                    let want = oracle::project(&inter, p, e);
                    let ctx = format!("round {round}: {inter:?} on {e} → {}", proj.set);
                    assert_eq!(proj.period, want.period, "{ctx}");
                    assert_eq!(proj.set.absolute_segments(), want.set.absolute_segments(), "{ctx}");
                    assert!(proj.set.node_count() <= inter.set.node_count(), "{ctx}");
                    for (lo, hi) in probes(&mut g, proj) {
                        let segs = proj.segments_between(lo, hi);
                        assert_eq!(
                            segs,
                            oracle::segments_between(&want, lo, hi),
                            "{ctx} [{lo}, {hi}]"
                        );
                        if proj.walks_in_order() {
                            let mut streamed = Vec::new();
                            proj.stream_between(lo, hi, |seg| streamed.push(seg));
                            assert_eq!(streamed, segs, "{ctx} streamed [{lo}, {hi}]");
                            in_order += 1;
                        }
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 300, "only {checked} non-empty pairs");
        assert!(in_order > 1000, "only {in_order} streamed probes");
    }

    /// The clipped walk on hostile bounds: ranges at the top of `u64`, past
    /// the data, inverted, one byte wide, and a zero period. It must not
    /// panic or wrap, and it must agree with the oracle.
    #[test]
    fn clipped_walk_survives_wire_bounds() {
        let mut g = Gen::new(0xB0B);
        for _ in 0..300 {
            let span = g.range(4, 96);
            let set = random_nested_set(&mut g, span, 3);
            let period = match g.below(5) {
                0 => 0,
                1 => 1,
                2 => u64::MAX - g.below(span),
                _ => g.range(span, 4 * span),
            };
            let proj = Projection { set, period };
            let top = u64::MAX - g.below(3 * span);
            let x = g.below(8 * span);
            for (lo, hi) in [
                (top, u64::MAX),
                (u64::MAX, u64::MAX),
                (top - x, top),
                (x, u64::MAX),
                (8 * span + x, 16 * span),
                (x + 1, x),
                (x, x),
                (0, u64::MAX),
            ] {
                if period > 0 && hi.saturating_sub(lo) / period > 1 << 12 {
                    continue; // one pass per window, in both walks
                }
                assert_eq!(
                    proj.segments_between(lo, hi),
                    oracle::segments_between(&proj, lo, hi),
                    "{} / {period} over [{lo}, {hi}]",
                    proj.set
                );
            }
        }
    }

    #[test]
    fn same_bytes_ignores_nesting() {
        let flat = Projection { set: NestedSet::singleton(leaf(0, 15, 16, 1)), period: 32 };
        let nested_form = Projection {
            set: NestedSet::singleton(nested(0, 15, 16, 1, vec![leaf(0, 7, 8, 2)])),
            period: 32,
        };
        let split = Projection {
            set: NestedSet::new(vec![leaf(0, 3, 4, 1), leaf(4, 15, 12, 1)]).unwrap(),
            period: 32,
        };
        assert!(flat.same_bytes(&nested_form));
        assert!(nested_form.same_bytes(&split));
        let shifted = Projection { set: NestedSet::singleton(leaf(1, 16, 16, 1)), period: 32 };
        assert!(!flat.same_bytes(&shifted));
        assert!(!flat.same_bytes(&Projection { period: 16, ..flat.clone() }));
    }
}
