//! Redistribution plans: the full transfer schedule between two partitions
//! of the same file.
//!
//! For every pair of partition elements the plan stores the nested-FALLS
//! intersection, both projections, and a list of maximal *copy runs* —
//! stretches that are contiguous in the file, in the source element's linear
//! space, and in the destination element's linear space at once. Runs are
//! computed once per aligned period and replayed for every period, which is
//! exactly how the paper amortizes the view-setting cost over accesses.

use crate::model::Partition;
use crate::redist::{intersect_and_project, Intersection, Projection};
use crate::Error;
use falls::LineSegment;

/// One maximal copy run within the first aligned window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// File offset of the run relative to the window start.
    pub file_rel: u64,
    /// Source element-linear offset (window 0).
    pub src_off: u64,
    /// Destination element-linear offset (window 0).
    pub dst_off: u64,
    /// Run length in bytes.
    pub len: u64,
}

/// The transfer schedule between one source element and one destination
/// element.
#[derive(Debug, Clone)]
pub struct PairPlan {
    /// Source element index.
    pub src_element: usize,
    /// Destination element index.
    pub dst_element: usize,
    /// The elements' nested-FALLS intersection.
    pub intersection: Intersection,
    /// Intersection projected on the source element's linear space.
    pub src_projection: Projection,
    /// Intersection projected on the destination element's linear space.
    pub dst_projection: Projection,
    /// Copy runs within window 0, ordered by file offset.
    pub runs: Vec<CopyRun>,
    /// Source element-linear bytes per window.
    pub src_period: u64,
    /// Destination element-linear bytes per window.
    pub dst_period: u64,
}

impl PairPlan {
    /// Bytes this pair moves per aligned window.
    #[must_use]
    pub fn bytes_per_period(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }
}

/// A complete redistribution plan between two partitions of the same file.
#[derive(Debug, Clone)]
pub struct RedistributionPlan {
    /// Aligned displacement (`max` of the two partitions' displacements).
    pub displacement: u64,
    /// Aligned period (`lcm` of the two pattern sizes).
    pub period: u64,
    /// Non-empty element pairs.
    pub pairs: Vec<PairPlan>,
    src_elements: usize,
    dst_elements: usize,
}

impl RedistributionPlan {
    /// Computes the full plan between `src` and `dst`.
    ///
    /// This is the redistribution analogue of the paper's *view-set* phase:
    /// all intersections, projections and copy runs are computed here, and
    /// [`RedistributionPlan::apply`] only replays precomputed indices.
    pub fn build(src: &Partition, dst: &Partition) -> Result<Self, Error> {
        let mut pairs = Vec::new();
        let mut displacement = src.displacement().max(dst.displacement());
        let mut period = 0;
        for i in 0..src.element_count() {
            for j in 0..dst.element_count() {
                let (intersection, src_projection, dst_projection) =
                    intersect_and_project(src, i, dst, j)?;
                displacement = intersection.displacement;
                period = intersection.period;
                if intersection.is_empty() {
                    continue;
                }
                let runs = build_runs(&intersection, src, i, dst, j);
                pairs.push(PairPlan {
                    src_element: i,
                    dst_element: j,
                    src_period: src_projection.period,
                    dst_period: dst_projection.period,
                    intersection,
                    src_projection,
                    dst_projection,
                    runs,
                });
            }
        }
        Ok(Self {
            displacement,
            period,
            pairs,
            src_elements: src.element_count(),
            dst_elements: dst.element_count(),
        })
    }

    /// Number of source partition elements the plan expects buffers for.
    #[must_use]
    pub fn src_elements(&self) -> usize {
        self.src_elements
    }

    /// Number of destination partition elements the plan expects buffers for.
    #[must_use]
    pub fn dst_elements(&self) -> usize {
        self.dst_elements
    }

    /// Total bytes moved per aligned period (equals the period when both
    /// partitions share the displacement).
    #[must_use]
    pub fn bytes_per_period(&self) -> u64 {
        self.pairs.iter().map(PairPlan::bytes_per_period).sum()
    }

    /// Total number of copy runs per aligned period — the fragmentation the
    /// matching degree of the two partitions induces.
    #[must_use]
    pub fn runs_per_period(&self) -> usize {
        self.pairs.iter().map(|p| p.runs.len()).sum()
    }

    /// Replays the plan over real buffers, moving every byte of
    /// `[displacement, file_len)`.
    ///
    /// `src_bufs[i]` holds source element `i`'s linear space; `dst_bufs[j]`
    /// receives destination element `j`'s. Each must be at least
    /// [`Partition::element_len`] bytes. Returns the number of bytes copied.
    ///
    /// # Panics
    /// Panics if a buffer is shorter than the offsets the plan touches.
    pub fn apply(&self, src_bufs: &[Vec<u8>], dst_bufs: &mut [Vec<u8>], file_len: u64) -> u64 {
        assert!(src_bufs.len() >= self.src_elements, "missing source buffers");
        assert!(dst_bufs.len() >= self.dst_elements, "missing destination buffers");
        let mut copied = 0u64;
        if file_len <= self.displacement {
            return 0;
        }
        let windows = (file_len - self.displacement).div_ceil(self.period);
        for k in 0..windows {
            // The last window can start near the top of the offset range;
            // checked arithmetic keeps a huge `file_len` from wrapping here.
            let Some(window_base) =
                k.checked_mul(self.period).and_then(|off| self.displacement.checked_add(off))
            else {
                break; // any further window would start past u64::MAX ≥ file_len
            };
            for pair in &self.pairs {
                let src = &src_bufs[pair.src_element];
                let dst = &mut dst_bufs[pair.dst_element];
                for run in &pair.runs {
                    let abs = window_base + run.file_rel;
                    if abs >= file_len {
                        continue;
                    }
                    let len = run.len.min(file_len - abs) as usize;
                    let s = (run.src_off + k * pair.src_period) as usize;
                    let d = (run.dst_off + k * pair.dst_period) as usize;
                    dst[d..d + len].copy_from_slice(&src[s..s + len]);
                    copied += len as u64;
                }
            }
        }
        copied
    }
}

/// The segments of one partition element within one aligned window
/// `[D + k·period, D + (k+1)·period)` of the file, annotated with their
/// element-linear offsets.
///
/// This is the bridge between file space and element space that copy-run
/// construction (and the enumerating projection oracle) walks: entry
/// `(seg, off)` says that
/// file bytes `D + seg.l() ..= D + seg.r()` occupy element offsets
/// `off .. off + seg.len()` (for window 0; window `k` adds `k · period_elem`
/// to the element offsets and `k · period` to the file offsets).
#[derive(Debug, Clone)]
pub(crate) struct ElementWindow {
    /// `(file segment relative to the window start, element-linear offset)`
    /// pairs, sorted by file offset.
    pub(crate) entries: Vec<(LineSegment, u64)>,
    /// Element-linear bytes per window: `(period / SIZE(P)) · SIZE(S)`.
    pub(crate) period_elem: u64,
}

/// Computes the [`ElementWindow`] of `element` of `partition` for windows of
/// `period` bytes starting at absolute file offset `displacement`.
///
/// `displacement` must be at or past the partition's own displacement and
/// `period` a multiple of the pattern size (both hold for the values carried
/// by an [`Intersection`]).
#[must_use]
pub(crate) fn element_window(
    partition: &Partition,
    element: usize,
    displacement: u64,
    period: u64,
) -> ElementWindow {
    let d = partition.displacement();
    assert!(
        displacement >= d,
        "window start {displacement} precedes the partition displacement {d}"
    );
    let psize = partition.pattern().size();
    assert_eq!(period % psize, 0, "window period must be a multiple of the pattern size");
    let set = partition.pattern().element(element).expect("element index in range");
    let esize = set.size();

    // Tree segments of one pattern tile with their linear offsets.
    let mut tile_entries: Vec<(LineSegment, u64)> = Vec::new();
    let mut linear = 0u64;
    for seg in set.tree_segments() {
        tile_entries.push((seg, linear));
        linear += seg.len();
    }

    let win_lo = displacement;
    let win_hi = displacement + period - 1;
    let t_start = (win_lo - d) / psize;
    let t_end = (win_hi - d) / psize;
    let mut entries = Vec::with_capacity(tile_entries.len() * (t_end - t_start + 1) as usize);
    for t in t_start..=t_end {
        let tile_base = d + t * psize;
        for (seg, off) in &tile_entries {
            let abs = seg.shift_up(tile_base).expect("fits in u64");
            let Some(clipped) = abs.clip(win_lo, win_hi) else { continue };
            let elem_off = t * esize + off + (clipped.l() - abs.l());
            let rel = clipped.shift_down(win_lo).expect("clipped to the window");
            entries.push((rel, elem_off));
        }
    }
    entries.sort_unstable_by_key(|(seg, _)| seg.l());
    ElementWindow { entries, period_elem: (period / psize) * esize }
}

/// Splits the intersection's file segments at every source- and
/// destination-element leaf boundary, producing runs that are affine in all
/// three spaces.
fn build_runs(
    intersection: &Intersection,
    src: &Partition,
    src_element: usize,
    dst: &Partition,
    dst_element: usize,
) -> Vec<CopyRun> {
    let sw = element_window(src, src_element, intersection.displacement, intersection.period);
    let dw = element_window(dst, dst_element, intersection.displacement, intersection.period);
    let mut runs = Vec::new();
    let (mut si, mut di) = (0usize, 0usize);
    for iseg in intersection.set.absolute_segments() {
        let mut pos = iseg.l();
        while pos <= iseg.r() {
            while si < sw.entries.len() && sw.entries[si].0.r() < pos {
                si += 1;
            }
            while di < dw.entries.len() && dw.entries[di].0.r() < pos {
                di += 1;
            }
            let (sseg, soff) = sw.entries.get(si).expect("intersection ⊆ source element");
            let (dseg, doff) = dw.entries.get(di).expect("intersection ⊆ destination element");
            debug_assert!(sseg.l() <= pos && dseg.l() <= pos);
            let end = iseg.r().min(sseg.r()).min(dseg.r());
            runs.push(CopyRun {
                file_rel: pos,
                src_off: soff + (pos - sseg.l()),
                dst_off: doff + (pos - dseg.l()),
                len: end - pos + 1,
            });
            pos = end + 1;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapper;
    use crate::model::PartitionPattern;
    use falls::{Falls, NestedFalls, NestedSet};

    fn stripes(count: u64, width: u64, disp: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(
                        Falls::new(k * width, (k + 1) * width - 1, count * width, 1).unwrap(),
                    ))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(disp, pattern)
    }

    fn cyclic(count: u64, disp: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(Falls::new(k, k, count, 1).unwrap()))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(disp, pattern)
    }

    /// Fills element buffers so that each element byte holds (a hash of) the
    /// file offset it represents.
    fn fill(p: &Partition, file_len: u64) -> Vec<Vec<u8>> {
        (0..p.element_count())
            .map(|e| {
                let m = Mapper::new(p, e);
                let len = p.element_len(e, file_len).unwrap();
                (0..len).map(|y| (m.unmap(y) * 31 % 251) as u8).collect()
            })
            .collect()
    }

    fn check(p: &Partition, bufs: &[Vec<u8>], file_len: u64, from: u64) {
        for (e, buf) in bufs.iter().enumerate() {
            let m = Mapper::new(p, e);
            for (y, &v) in buf.iter().enumerate() {
                let x = m.unmap(y as u64);
                if x < from || x >= file_len {
                    continue;
                }
                assert_eq!(v, (x * 31 % 251) as u8, "element {e} offset {y} (file {x})");
            }
        }
    }

    #[test]
    fn stripes_to_cyclic_roundtrip() {
        let src = stripes(4, 8, 0);
        let dst = cyclic(4, 0);
        let file_len = 160u64; // 5 aligned periods
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        assert_eq!(plan.bytes_per_period(), plan.period);
        let src_bufs = fill(&src, file_len);
        let mut dst_bufs: Vec<Vec<u8>> =
            (0..4).map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize]).collect();
        let copied = plan.apply(&src_bufs, &mut dst_bufs, file_len);
        assert_eq!(copied, file_len);
        check(&dst, &dst_bufs, file_len, 0);
    }

    #[test]
    fn partial_tail_window() {
        let src = stripes(2, 4, 0);
        let dst = cyclic(2, 0);
        // file_len not a multiple of the period (8): a clipped tail window.
        let file_len = 13u64;
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        let src_bufs = fill(&src, file_len);
        let mut dst_bufs: Vec<Vec<u8>> =
            (0..2).map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize]).collect();
        let copied = plan.apply(&src_bufs, &mut dst_bufs, file_len);
        assert_eq!(copied, file_len);
        check(&dst, &dst_bufs, file_len, 0);
    }

    #[test]
    fn identical_partitions_single_run_per_element() {
        let p = stripes(4, 16, 0);
        let plan = RedistributionPlan::build(&p, &p).unwrap();
        assert_eq!(plan.pairs.len(), 4); // only diagonal pairs
        for pair in &plan.pairs {
            assert_eq!(pair.src_element, pair.dst_element);
            assert_eq!(pair.runs.len(), 1);
        }
        assert_eq!(plan.runs_per_period(), 4);
    }

    #[test]
    fn mismatched_partitions_fragment() {
        let plan = RedistributionPlan::build(&stripes(4, 8, 0), &cyclic(4, 0)).unwrap();
        // Every destination byte is its own run: 32 runs per 32-byte period.
        assert_eq!(plan.runs_per_period(), 32);
    }

    #[test]
    fn displacement_skips_prefix() {
        let src = stripes(2, 4, 3);
        let dst = cyclic(2, 3);
        let file_len = 27u64;
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        assert_eq!(plan.displacement, 3);
        let src_bufs = fill(&src, file_len);
        let mut dst_bufs: Vec<Vec<u8>> =
            (0..2).map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize]).collect();
        let copied = plan.apply(&src_bufs, &mut dst_bufs, file_len);
        assert_eq!(copied, file_len - 3);
        check(&dst, &dst_bufs, file_len, 3);
    }

    #[test]
    fn different_element_counts_and_periods() {
        let src = stripes(3, 5, 0); // period 15
        let dst = cyclic(4, 0); // period 4 → lcm 60
        let file_len = 120u64;
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        assert_eq!(plan.period, 60);
        let src_bufs = fill(&src, file_len);
        let mut dst_bufs: Vec<Vec<u8>> =
            (0..4).map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize]).collect();
        let copied = plan.apply(&src_bufs, &mut dst_bufs, file_len);
        assert_eq!(copied, file_len);
        check(&dst, &dst_bufs, file_len, 0);
    }

    #[test]
    fn zero_length_file_copies_nothing() {
        let plan = RedistributionPlan::build(&stripes(2, 4, 0), &cyclic(2, 0)).unwrap();
        let src_bufs = vec![Vec::new(), Vec::new()];
        let mut dst_bufs = vec![Vec::new(), Vec::new()];
        assert_eq!(plan.apply(&src_bufs, &mut dst_bufs, 0), 0);
    }
}
