//! Compiled, replayable forms of view and redistribution plans.
//!
//! Symbolic plans ([`ViewPlan`], [`RedistributionPlan`]) describe *what*
//! bytes move; the compiled forms here lower them into flat run tables that
//! describe *how* to move them with zero per-access allocation. Compilation
//! happens once (and is cached by the [`engine`](crate::engine)); every
//! subsequent access replays precomputed offsets — the paper's amortization
//! of the view-setting cost `t_i` made concrete.

use crate::plan::{CopyRun, RedistributionPlan};
use crate::redist::{Projection, SubfileAccess, ViewPlan};
use falls::LineSegment;

/// Replay below this many bytes stays single-threaded: thread spawn and join
/// overhead would dominate the copy itself.
const PARALLEL_THRESHOLD_BYTES: u64 = 64 * 1024;

/// A projection prepared for repeated windowed replay.
///
/// Streams [`Projection::segments_between`] to a callback per access. When
/// the projection's tree walks its segments in byte order — no interleaved
/// siblings, window 0 within one period — the clipped walk feeds the
/// callback directly and allocates nothing; otherwise each access collects
/// and sorts, as `segments_between` does.
#[derive(Debug, Clone)]
pub struct SegmentReplay {
    proj: Projection,
    in_order: bool,
}

impl SegmentReplay {
    /// Prepares `proj` for replay: one pass over its nodes, not its segments.
    #[must_use]
    pub fn new(proj: &Projection) -> Self {
        Self { proj: proj.clone(), in_order: proj.walks_in_order() }
    }

    /// Whether the projection selects no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.proj.is_empty()
    }

    /// Selected bytes per aligned window.
    #[must_use]
    pub fn bytes_per_period(&self) -> u64 {
        self.proj.bytes_per_period()
    }

    /// Streams the projection's segments clipped to `[lo, hi]` (inclusive,
    /// element-linear), in increasing offset order, without allocating
    /// unless the tree's walk order is not byte order.
    pub fn for_each_between(&self, lo: u64, hi: u64, mut f: impl FnMut(LineSegment)) {
        if self.in_order {
            self.proj.stream_between(lo, hi, f);
        } else {
            self.proj.segments_between(lo, hi).into_iter().for_each(&mut f);
        }
    }

    /// Number of projected bytes within `[lo, hi]`.
    #[must_use]
    pub fn bytes_between(&self, lo: u64, hi: u64) -> u64 {
        let mut total = 0;
        self.for_each_between(lo, hi, |seg| total += seg.len());
        total
    }

    /// Number of disjoint fragments within `[lo, hi]` (adjacent segments
    /// coalesce), mirroring [`Projection::fragments_between`].
    #[must_use]
    pub fn fragments_between(&self, lo: u64, hi: u64) -> usize {
        let mut count = 0usize;
        let mut prev: Option<LineSegment> = None;
        self.for_each_between(lo, hi, |seg| {
            match prev {
                Some(p) if p.abuts(&seg) => {}
                _ => count += 1,
            }
            prev = Some(seg);
        });
        count
    }
}

/// A view plan compiled for repeated access: the symbolic per-subfile
/// projections plus a [`SegmentReplay`] per subfile over the view-side
/// projection (the compute-side hot path).
#[derive(Debug, Clone)]
pub struct CompiledView {
    plan: ViewPlan,
    replay: Vec<SegmentReplay>,
}

impl CompiledView {
    pub(crate) fn from_plan(plan: ViewPlan) -> Self {
        let replay = plan.per_subfile.iter().map(|a| SegmentReplay::new(&a.proj_view)).collect();
        Self { plan, replay }
    }

    /// The underlying symbolic plan.
    #[must_use]
    pub fn plan(&self) -> &ViewPlan {
        &self.plan
    }

    /// Per-subfile access information, indexed by subfile.
    #[must_use]
    pub fn per_subfile(&self) -> &[SubfileAccess] {
        &self.plan.per_subfile
    }

    /// The access information of one subfile.
    #[must_use]
    pub fn access(&self, subfile: usize) -> &SubfileAccess {
        &self.plan.per_subfile[subfile]
    }

    /// The view-side replay table of one subfile.
    #[must_use]
    pub fn replay(&self, subfile: usize) -> &SegmentReplay {
        &self.replay[subfile]
    }

    /// Number of subfiles the view was compiled against.
    #[must_use]
    pub fn subfile_count(&self) -> usize {
        self.plan.per_subfile.len()
    }

    /// Number of subfiles the view shares data with.
    #[must_use]
    pub fn intersecting_subfiles(&self) -> usize {
        self.plan.intersecting_subfiles()
    }

    /// Total FALLS-tree nodes over all projections (simulator cost proxy).
    #[must_use]
    pub fn work_nodes(&self) -> usize {
        self.plan.work_nodes()
    }
}

/// Per-pair metadata of a [`CompiledPlan`]: which elements the pair
/// connects, its per-window element periods, and where its runs live in the
/// plan's flat run table.
#[derive(Debug, Clone)]
pub struct PairMeta {
    /// Source element index.
    pub src_element: usize,
    /// Destination element index.
    pub dst_element: usize,
    /// Source element-linear bytes per window.
    pub src_period: u64,
    /// Destination element-linear bytes per window.
    pub dst_period: u64,
    run_start: usize,
    run_end: usize,
}

/// A redistribution plan lowered into a flat struct-of-arrays run table.
///
/// All pairs' copy runs live in four parallel arrays (`file_rel`, `src_off`,
/// `dst_off`, `len`); [`CompiledPlan::apply`] replays them per aligned
/// window with zero allocation, and [`CompiledPlan::apply_parallel`] fans
/// independent destination elements out across scoped threads.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    plan: RedistributionPlan,
    pairs: Vec<PairMeta>,
    file_rel: Vec<u64>,
    src_off: Vec<u64>,
    dst_off: Vec<u64>,
    len: Vec<u64>,
}

impl CompiledPlan {
    pub(crate) fn from_plan(plan: RedistributionPlan) -> Self {
        let total_runs = plan.runs_per_period();
        let mut pairs = Vec::with_capacity(plan.pairs.len());
        let mut file_rel = Vec::with_capacity(total_runs);
        let mut src_off = Vec::with_capacity(total_runs);
        let mut dst_off = Vec::with_capacity(total_runs);
        let mut len = Vec::with_capacity(total_runs);
        for pair in &plan.pairs {
            let run_start = file_rel.len();
            for run in &pair.runs {
                file_rel.push(run.file_rel);
                src_off.push(run.src_off);
                dst_off.push(run.dst_off);
                len.push(run.len);
            }
            pairs.push(PairMeta {
                src_element: pair.src_element,
                dst_element: pair.dst_element,
                src_period: pair.src_period,
                dst_period: pair.dst_period,
                run_start,
                run_end: file_rel.len(),
            });
        }
        Self { plan, pairs, file_rel, src_off, dst_off, len }
    }

    /// The underlying symbolic plan (projections, intersections — used by
    /// matching-degree metrics and diagnostics).
    #[must_use]
    pub fn plan(&self) -> &RedistributionPlan {
        &self.plan
    }

    /// Aligned displacement.
    #[must_use]
    pub fn displacement(&self) -> u64 {
        self.plan.displacement
    }

    /// Aligned period.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.plan.period
    }

    /// Per-pair metadata, in pair order.
    #[must_use]
    pub fn pairs(&self) -> &[PairMeta] {
        &self.pairs
    }

    /// The window-0 copy runs of one pair, from the flat table.
    pub fn runs_of<'a>(&'a self, pair: &'a PairMeta) -> impl Iterator<Item = CopyRun> + 'a {
        (pair.run_start..pair.run_end).map(move |i| CopyRun {
            file_rel: self.file_rel[i],
            src_off: self.src_off[i],
            dst_off: self.dst_off[i],
            len: self.len[i],
        })
    }

    /// Total bytes moved per aligned period.
    #[must_use]
    pub fn bytes_per_period(&self) -> u64 {
        self.len.iter().sum()
    }

    /// Total copy runs per aligned period.
    #[must_use]
    pub fn runs_per_period(&self) -> usize {
        self.len.len()
    }

    /// Replays one destination element's pairs over all windows.
    fn replay_group(
        &self,
        group: &[usize],
        src_bufs: &[Vec<u8>],
        dst: &mut [u8],
        file_len: u64,
        windows: u64,
    ) -> u64 {
        let mut copied = 0u64;
        for k in 0..windows {
            let Some(window_base) = k
                .checked_mul(self.plan.period)
                .and_then(|off| self.plan.displacement.checked_add(off))
            else {
                break;
            };
            for &pi in group {
                let pair = &self.pairs[pi];
                let src = &src_bufs[pair.src_element];
                for i in pair.run_start..pair.run_end {
                    let abs = window_base + self.file_rel[i];
                    if abs >= file_len {
                        continue;
                    }
                    let len = self.len[i].min(file_len - abs) as usize;
                    let s = (self.src_off[i] + k * pair.src_period) as usize;
                    let d = (self.dst_off[i] + k * pair.dst_period) as usize;
                    dst[d..d + len].copy_from_slice(&src[s..s + len]);
                    copied += len as u64;
                }
            }
        }
        copied
    }

    /// Replays the plan over real buffers, moving every byte of
    /// `[displacement, file_len)` — byte-identical to
    /// [`RedistributionPlan::apply`], but driven by the flat run table.
    ///
    /// # Panics
    /// Panics if a buffer is shorter than the offsets the plan touches.
    pub fn apply(&self, src_bufs: &[Vec<u8>], dst_bufs: &mut [Vec<u8>], file_len: u64) -> u64 {
        assert!(src_bufs.len() >= self.plan.src_elements(), "missing source buffers");
        assert!(dst_bufs.len() >= self.plan.dst_elements(), "missing destination buffers");
        if file_len <= self.plan.displacement {
            return 0;
        }
        let windows = (file_len - self.plan.displacement).div_ceil(self.plan.period);
        let mut copied = 0u64;
        for k in 0..windows {
            let Some(window_base) = k
                .checked_mul(self.plan.period)
                .and_then(|off| self.plan.displacement.checked_add(off))
            else {
                break;
            };
            for pair in &self.pairs {
                let src = &src_bufs[pair.src_element];
                let dst = &mut dst_bufs[pair.dst_element];
                for i in pair.run_start..pair.run_end {
                    let abs = window_base + self.file_rel[i];
                    if abs >= file_len {
                        continue;
                    }
                    let len = self.len[i].min(file_len - abs) as usize;
                    let s = (self.src_off[i] + k * pair.src_period) as usize;
                    let d = (self.dst_off[i] + k * pair.dst_period) as usize;
                    dst[d..d + len].copy_from_slice(&src[s..s + len]);
                    copied += len as u64;
                }
            }
        }
        copied
    }

    /// Like [`CompiledPlan::apply`], but replays independent destination
    /// elements on a scoped thread pool. Pairs writing different destination
    /// elements touch disjoint buffers, so each destination's group runs on
    /// its own thread; small transfers fall back to the sequential path.
    ///
    /// # Panics
    /// Panics if a buffer is shorter than the offsets the plan touches.
    pub fn apply_parallel(
        &self,
        src_bufs: &[Vec<u8>],
        dst_bufs: &mut [Vec<u8>],
        file_len: u64,
    ) -> u64 {
        assert!(src_bufs.len() >= self.plan.src_elements(), "missing source buffers");
        assert!(dst_bufs.len() >= self.plan.dst_elements(), "missing destination buffers");
        if file_len <= self.plan.displacement {
            return 0;
        }
        let windows = (file_len - self.plan.displacement).div_ceil(self.plan.period);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.plan.dst_elements()];
        for (i, pair) in self.pairs.iter().enumerate() {
            groups[pair.dst_element].push(i);
        }
        let active = groups.iter().filter(|g| !g.is_empty()).count();
        let approx_bytes = self.bytes_per_period().saturating_mul(windows);
        if active <= 1 || approx_bytes < PARALLEL_THRESHOLD_BYTES {
            return self.apply(src_bufs, dst_bufs, file_len);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(active);
            for (j, dst) in dst_bufs.iter_mut().enumerate().take(groups.len()) {
                let group = &groups[j];
                if group.is_empty() {
                    continue;
                }
                handles.push(
                    scope.spawn(move || self.replay_group(group, src_bufs, dst, file_len, windows)),
                );
            }
            handles.into_iter().map(|h| h.join().expect("replay thread panicked")).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Partition, PartitionPattern};
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

    fn bufs_for(p: &Partition, file_len: u64, fill: bool) -> Vec<Vec<u8>> {
        use crate::mapping::Mapper;
        (0..p.element_count())
            .map(|e| {
                let len = p.element_len(e, file_len).unwrap() as usize;
                if fill {
                    let m = Mapper::new(p, e);
                    (0..len as u64).map(|y| (m.unmap(y) * 31 % 251) as u8).collect()
                } else {
                    vec![0u8; len]
                }
            })
            .collect()
    }

    fn compiled(src: &Partition, dst: &Partition) -> CompiledPlan {
        CompiledPlan::from_plan(RedistributionPlan::build(src, dst).unwrap())
    }

    #[test]
    fn compiled_apply_matches_symbolic_apply() {
        for (src, dst, file_len) in [
            (stripes(4, 8, 0), cyclic(4, 0), 160u64),
            (stripes(2, 4, 0), cyclic(2, 0), 13),
            (stripes(2, 4, 3), cyclic(2, 3), 27),
            (stripes(3, 5, 0), cyclic(4, 0), 120),
        ] {
            let plan = RedistributionPlan::build(&src, &dst).unwrap();
            let cp = CompiledPlan::from_plan(plan.clone());
            let src_bufs = bufs_for(&src, file_len, true);
            let mut want = bufs_for(&dst, file_len, false);
            let mut got = bufs_for(&dst, file_len, false);
            let n_want = plan.apply(&src_bufs, &mut want, file_len);
            let n_got = cp.apply(&src_bufs, &mut got, file_len);
            assert_eq!(n_want, n_got);
            assert_eq!(want, got);
        }
    }

    #[test]
    fn parallel_apply_matches_sequential() {
        let src = stripes(4, 64, 0);
        let dst = cyclic(4, 0);
        let file_len = 4 * 64 * 300; // comfortably past the parallel threshold
        let cp = compiled(&src, &dst);
        let src_bufs = bufs_for(&src, file_len, true);
        let mut seq = bufs_for(&dst, file_len, false);
        let mut par = bufs_for(&dst, file_len, false);
        let n_seq = cp.apply(&src_bufs, &mut seq, file_len);
        let n_par = cp.apply_parallel(&src_bufs, &mut par, file_len);
        assert_eq!(n_seq, n_par);
        assert_eq!(seq, par);
    }

    #[test]
    fn small_parallel_apply_takes_sequential_path() {
        let src = stripes(2, 4, 0);
        let dst = cyclic(2, 0);
        let cp = compiled(&src, &dst);
        let src_bufs = bufs_for(&src, 16, true);
        let mut out = bufs_for(&dst, 16, false);
        assert_eq!(cp.apply_parallel(&src_bufs, &mut out, 16), 16);
    }

    #[test]
    fn run_table_round_trips_pairs() {
        let src = stripes(4, 8, 0);
        let dst = cyclic(4, 0);
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        let cp = CompiledPlan::from_plan(plan.clone());
        assert_eq!(cp.pairs().len(), plan.pairs.len());
        assert_eq!(cp.runs_per_period(), plan.runs_per_period());
        assert_eq!(cp.bytes_per_period(), plan.bytes_per_period());
        for (meta, pair) in cp.pairs().iter().zip(&plan.pairs) {
            assert_eq!(meta.src_element, pair.src_element);
            assert_eq!(meta.dst_element, pair.dst_element);
            let runs: Vec<CopyRun> = cp.runs_of(meta).collect();
            assert_eq!(runs, pair.runs);
        }
    }

    #[test]
    fn segment_replay_matches_segments_between() {
        use crate::redist::intersect_and_project;
        let a = stripes(2, 8, 0);
        let b = cyclic(2, 0);
        let (_, proj, _) = intersect_and_project(&a, 0, &b, 0).unwrap();
        let replay = SegmentReplay::new(&proj);
        for (lo, hi) in [(0u64, 31u64), (3, 9), (5, 5), (7, 3), (100, 200)] {
            let mut got = Vec::new();
            replay.for_each_between(lo, hi, |s| got.push(s));
            assert_eq!(got, proj.segments_between(lo, hi), "[{lo}, {hi}]");
            assert_eq!(replay.bytes_between(lo, hi), proj.bytes_between(lo, hi));
            assert_eq!(replay.fragments_between(lo, hi), proj.fragments_between(lo, hi));
        }
    }

    #[test]
    fn empty_replay_is_empty() {
        let replay = SegmentReplay::new(&Projection::empty());
        assert!(replay.is_empty());
        let mut n = 0;
        replay.for_each_between(0, 100, |_| n += 1);
        assert_eq!(n, 0);
    }
}
