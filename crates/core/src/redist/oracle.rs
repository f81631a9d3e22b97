//! The enumerating `PROJ` and clipped walk that the structural ones in
//! [`project`](super::project) replaced, kept as their differential test
//! oracle. Both list the whole aligned window, so they cost the period;
//! nothing at runtime calls them.

use crate::model::Partition;
use crate::plan::element_window;
use crate::redist::{Intersection, Projection};
use falls::{segments_to_falls, LineSegment};

/// Projects `intersection` onto `element` of `partition`, which must be one
/// of the two elements the intersection was computed from: a merge join of
/// the intersection's segments against every segment of the element in the
/// window, re-compressed into flat families.
///
/// # Panics
/// Panics if the intersection is not a subset of the element.
#[must_use]
pub fn project(intersection: &Intersection, partition: &Partition, element: usize) -> Projection {
    let window = element_window(partition, element, intersection.displacement, intersection.period);
    let mut runs: Vec<LineSegment> = Vec::new();
    let mut wi = 0usize;
    for iseg in &intersection.set.absolute_segments() {
        let mut pos = iseg.l();
        while pos <= iseg.r() {
            while wi < window.entries.len() && window.entries[wi].0.r() < pos {
                wi += 1;
            }
            let (eseg, eoff) = window.entries[wi];
            assert!(eseg.l() <= pos, "intersection byte {pos} not covered by the element");
            let end = iseg.r().min(eseg.r());
            let start_off = eoff + (pos - eseg.l());
            runs.push(LineSegment::new(start_off, start_off + (end - pos)).expect("ordered run"));
            pos = end + 1;
        }
    }
    runs.sort_unstable();
    Projection { set: segments_to_falls(&runs), period: window.period_elem }
}

/// [`Projection::segments_between`] by listing window 0's coalesced
/// segments once per window the range meets.
#[must_use]
pub fn segments_between(proj: &Projection, lo: u64, hi: u64) -> Vec<LineSegment> {
    let base = proj.set.absolute_segments();
    let (Some(min_pos), Some(max_pos)) = (base.first().map(|s| s.l()), base.last().map(|s| s.r()))
    else {
        return Vec::new();
    };
    if lo > hi || min_pos > hi {
        return Vec::new();
    }
    let (k_lo, k_hi) = match proj.period {
        0 => (0, 0),
        p => (lo.saturating_sub(max_pos) / p, (hi - min_pos) / p),
    };
    let mut out = Vec::new();
    for k in k_lo..=k_hi {
        let shift = k * proj.period;
        for seg in &base {
            // Bytes past u64::MAX lie above `hi`: saturate the end, and skip
            // a segment that starts there.
            let Some(l) = seg.l().checked_add(shift) else { continue };
            let abs = LineSegment::new(l, seg.r().saturating_add(shift)).expect("ordered");
            if let Some(clipped) = abs.clip(lo, hi) {
                out.push(clipped);
            }
        }
    }
    out.sort_unstable();
    out
}
