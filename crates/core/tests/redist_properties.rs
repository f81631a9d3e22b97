//! Property tests for the redistribution machinery (§7): CUT-FALLS,
//! INTERSECT-FALLS, nested intersection, projections and plans.

use falls::testing::{random_falls, random_nested_set, Gen};
use falls::{Falls, NestedSet};
use parafile::model::{Partition, PartitionPattern};
use parafile::plan::RedistributionPlan;
use parafile::redist::{
    cut_falls, intersect_and_project, intersect_elements, intersect_falls, intersect_falls_merge,
    intersect_sets,
};
use parafile::{Mapper, PlanEngine};
use proptest::prelude::*;

/// Cap on brute-force byte enumeration. The strategies bound every span,
/// so a family bigger than this means a generator regression; failing fast
/// beats an O(bytes) hang in CI.
const BRUTE_CAP: u64 = 1 << 20;

/// `offsets().collect()` with the [`BRUTE_CAP`] guard.
fn enumerate(f: &Falls) -> Vec<u64> {
    assert!(f.size() <= BRUTE_CAP, "FALLS of {} bytes exceeds the brute-force cap", f.size());
    f.offsets().collect()
}

fn falls_bytes(fs: &[Falls]) -> Vec<u64> {
    let mut v: Vec<u64> = fs.iter().flat_map(enumerate).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn arb_falls() -> impl Strategy<Value = Falls> {
    any::<u64>().prop_map(|seed| random_falls(&mut Gen::new(seed), 256))
}

fn arb_set(span: u64) -> impl Strategy<Value = NestedSet> {
    any::<u64>().prop_map(move |seed| random_nested_set(&mut Gen::new(seed), span, 3))
}

fn arb_partition_at(span: u64, disp: std::ops::Range<u64>) -> impl Strategy<Value = Partition> {
    (any::<u64>(), disp).prop_filter_map("degenerate", move |(seed, disp)| {
        let set = random_nested_set(&mut Gen::new(seed), span, 3);
        let comp = set.complement(span);
        let sets: Vec<NestedSet> = [set, comp].into_iter().filter(|s| !s.is_empty()).collect();
        PartitionPattern::new(sets).ok().map(|p| Partition::new(disp, p))
    })
}

fn arb_partition(span: u64) -> impl Strategy<Value = Partition> {
    arb_partition_at(span, 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// CUT-FALLS = clip to [a,b] then rebase to a, for arbitrary families
    /// and limits.
    #[test]
    fn cut_is_clip_and_shift(f in arb_falls(), a in 0u64..300, len in 0u64..300) {
        let b = a + len;
        let want: Vec<u64> =
            enumerate(&f).into_iter().filter(|&x| a <= x && x <= b).map(|x| x - a).collect();
        prop_assert_eq!(falls_bytes(&cut_falls(&f, a, b)), want);
    }

    /// Cutting to the full extent is a pure rebase.
    #[test]
    fn cut_full_extent_rebases(f in arb_falls()) {
        let cut = cut_falls(&f, f.l(), f.extent_end());
        let want: Vec<u64> = enumerate(&f).into_iter().map(|x| x - f.l()).collect();
        prop_assert_eq!(falls_bytes(&cut), want);
    }

    /// INTERSECT-FALLS (periodic) equals the merge reference equals brute
    /// force set intersection.
    #[test]
    fn flat_intersection_correct(f1 in arb_falls(), f2 in arb_falls()) {
        let fast = falls_bytes(&intersect_falls(&f1, &f2));
        let slow = falls_bytes(&intersect_falls_merge(&f1, &f2));
        prop_assert_eq!(&fast, &slow);
        let s2: std::collections::HashSet<u64> = enumerate(&f2).into_iter().collect();
        let brute: Vec<u64> = enumerate(&f1).into_iter().filter(|x| s2.contains(x)).collect();
        prop_assert_eq!(fast, brute);
    }

    /// Flat intersection is commutative (as a byte set) and idempotent.
    #[test]
    fn flat_intersection_algebra(f1 in arb_falls(), f2 in arb_falls()) {
        prop_assert_eq!(
            falls_bytes(&intersect_falls(&f1, &f2)),
            falls_bytes(&intersect_falls(&f2, &f1))
        );
        prop_assert_eq!(
            falls_bytes(&intersect_falls(&f1, &f1)),
            enumerate(&f1)
        );
    }

    /// Nested intersection equals set intersection of the flattened offsets,
    /// commutes, and its size never exceeds either operand.
    #[test]
    fn nested_intersection_correct(a in arb_set(128), b in arb_set(128)) {
        let i = intersect_sets(&a, 128, &b, 128);
        let sb: std::collections::HashSet<u64> = b.absolute_offsets().into_iter().collect();
        let want: Vec<u64> =
            a.absolute_offsets().into_iter().filter(|x| sb.contains(x)).collect();
        prop_assert_eq!(i.absolute_offsets(), want);
        let j = intersect_sets(&b, 128, &a, 128);
        prop_assert_eq!(i.absolute_offsets(), j.absolute_offsets());
        prop_assert!(i.size() <= a.size().min(b.size()));
        // Intersecting with itself is the identity on bytes.
        let selfi = intersect_sets(&a, 128, &a, 128);
        prop_assert_eq!(selfi.absolute_offsets(), a.absolute_offsets());
    }

    /// Projections are bijective images: size matches the intersection, and
    /// every projected offset unmaps (through the element) to an
    /// intersection byte.
    #[test]
    fn projections_are_faithful(a in arb_partition(64), b in arb_partition(48)) {
        let (inter, proj_a, _) = intersect_and_project(&a, 0, &b, 0).unwrap();
        prop_assert_eq!(proj_a.bytes_per_period(), inter.bytes_per_period());
        if inter.is_empty() {
            return Ok(());
        }
        let ma = Mapper::new(&a, 0);
        let inter_bytes: std::collections::HashSet<u64> = inter
            .set
            .absolute_offsets()
            .iter()
            .map(|x| x + inter.displacement)
            .collect();
        for pos in proj_a.set.absolute_offsets() {
            let file_byte = ma.unmap(pos);
            prop_assert!(
                inter_bytes.contains(&file_byte),
                "projected offset {} → file byte {} not in the intersection",
                pos,
                file_byte
            );
        }
    }

    /// The all-pairs intersection of two partitions tiles the aligned
    /// period exactly: sizes sum to the period, pieces are disjoint.
    #[test]
    fn pairwise_intersections_tile(a in arb_partition(36), b in arb_partition(24)) {
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        let mut period = 0;
        for i in 0..a.element_count() {
            for j in 0..b.element_count() {
                let inter = intersect_elements(&a, i, &b, j).unwrap();
                period = inter.period;
                total += inter.bytes_per_period();
                for x in inter.set.absolute_offsets() {
                    prop_assert!(seen.insert(x), "byte {} in two pairs", x);
                }
            }
        }
        prop_assert_eq!(total, period);
    }

    /// Plans move every byte exactly once: runs are disjoint in file, source
    /// and destination spaces, and cover the whole period.
    #[test]
    fn plan_runs_partition_all_three_spaces(
        a in arb_partition_at(40, 0..1),
        b in arb_partition_at(30, 0..1),
    ) {
        let plan = RedistributionPlan::build(&a, &b).unwrap();
        prop_assert_eq!(plan.bytes_per_period(), plan.period);
        let mut file_seen = std::collections::HashSet::new();
        for pair in &plan.pairs {
            let mut src_seen = std::collections::HashSet::new();
            let mut dst_seen = std::collections::HashSet::new();
            for run in &pair.runs {
                for k in 0..run.len {
                    prop_assert!(file_seen.insert(run.file_rel + k), "file byte dup");
                    prop_assert!(src_seen.insert(run.src_off + k), "src offset dup");
                    prop_assert!(dst_seen.insert(run.dst_off + k), "dst offset dup");
                }
            }
        }
        prop_assert_eq!(file_seen.len() as u64, plan.period);
    }

    /// A cache-hit replay is byte-identical to a freshly built plan: the
    /// engine's cached `CompiledPlan` must move exactly the bytes that both
    /// a cold engine compile and the symbolic plan move.
    #[test]
    fn cache_hit_replay_matches_fresh_plan(
        a in arb_partition_at(40, 0..1),
        b in arb_partition_at(30, 0..1),
    ) {
        let engine = PlanEngine::new();
        let cold = engine.compile_redist(&a, &b).unwrap();
        let warm = engine.compile_redist(&a, &b).unwrap();
        prop_assert!(
            std::sync::Arc::ptr_eq(&cold, &warm),
            "second compile of the same pair must hit the cache"
        );
        prop_assert!(engine.stats().redists.hits >= 1);

        let fresh = RedistributionPlan::build(&a, &b).unwrap();
        let file_len = 3 * warm.period() + 7;
        let bufs = |p: &Partition, fill: bool| -> Vec<Vec<u8>> {
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
        };
        let src_bufs = bufs(&a, true);
        let mut want = bufs(&b, false);
        let mut cached = bufs(&b, false);
        let n_want = fresh.apply(&src_bufs, &mut want, file_len);
        let n_cached = warm.apply(&src_bufs, &mut cached, file_len);
        prop_assert_eq!(n_want, n_cached);
        prop_assert_eq!(&want, &cached);

        // And through the parallel path, from a second engine's cold entry.
        let cold2 = PlanEngine::new().compile_redist(&a, &b).unwrap();
        let mut par = bufs(&b, false);
        let n_par = cold2.apply_parallel(&src_bufs, &mut par, file_len);
        prop_assert_eq!(n_want, n_par);
        prop_assert_eq!(&want, &par);
    }
}

/// Regression: with interleaved sibling families and mismatched
/// displacements, a projection's window-0 offsets can span more than one
/// period; `segments_between` must still return globally sorted, disjoint
/// segments (found by an adversarial review probe).
#[test]
fn projection_segments_between_sorted_across_windows() {
    use falls::{Falls, NestedFalls, NestedSet};

    fn interleaved(span: u64, g: &mut Gen) -> Option<NestedSet> {
        // Two families whose blocks interleave across the span.
        let w = g.range(1, 3);
        let stride = 2 * w + g.range(0, 2);
        if stride > span {
            return None;
        }
        let n = (span - w) / stride + 1;
        let f1 = Falls::new(0, w - 1, stride, n).ok()?;
        let off = w + g.range(0, 1);
        if off + w > stride || off + (n - 1) * stride + w > span {
            return None;
        }
        let f2 = Falls::new(off, off + w - 1, stride, n).ok()?;
        NestedSet::new(vec![NestedFalls::leaf(f1), NestedFalls::leaf(f2)]).ok()
    }

    let mut g = Gen::new(0xD15C);
    let mut exercised = 0;
    for _ in 0..800 {
        let span1 = g.range(6, 28);
        let span2 = g.range(6, 28);
        let (d1, d2) = (g.below(11), g.below(11));
        let (Some(s1), Some(s2)) = (interleaved(span1, &mut g), interleaved(span2, &mut g)) else {
            continue;
        };
        let mk = |set: &NestedSet, span: u64, d: u64| -> Option<Partition> {
            let comp = set.complement(span);
            let sets: Vec<NestedSet> =
                [set.clone(), comp].into_iter().filter(|s| !s.is_empty()).collect();
            PartitionPattern::new(sets).ok().map(|p| Partition::new(d, p))
        };
        let (Some(pa), Some(pb)) = (mk(&s1, span1, d1), mk(&s2, span2, d2)) else {
            continue;
        };
        let (inter, proj_a, proj_b) = intersect_and_project(&pa, 0, &pb, 0).unwrap();
        if inter.is_empty() {
            continue;
        }
        exercised += 1;
        for proj in [&proj_a, &proj_b] {
            let lo = g.below(3 * proj.period.max(1));
            let hi = lo + g.below(3 * proj.period.max(1) + 1);
            let segs = proj.segments_between(lo, hi);
            for w in segs.windows(2) {
                assert!(
                    w[0].r() < w[1].l(),
                    "unsorted/overlapping projection segments: {segs:?} (set {}, period {})",
                    proj.set,
                    proj.period
                );
            }
        }
    }
    assert!(exercised > 50, "generator must exercise the scenario ({exercised})");
}
