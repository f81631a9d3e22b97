//! View access plans: the compiled `MAP_V ∘ MAP_S⁻¹` machinery for one view
//! over one physical partition.
//!
//! Setting a view is the paper's expensive, amortized phase: the view
//! element is intersected with every subfile, and the intersection is
//! projected onto both linear spaces (`PROJ_V` kept at the compute side,
//! `PROJ_S` shipped to the subfile's I/O node). Both the simulated
//! Clusterfile and the real `parafile-net` client need exactly this
//! computation, so it lives here instead of being duplicated per transport.

use crate::model::Partition;
use crate::redist::{intersect_and_project, Projection};
use crate::Error;

/// The compiled access information for one (view element, subfile) pair.
#[derive(Debug, Clone)]
pub struct SubfileAccess {
    /// `PROJ_V(V ∩ S)` — the intersection in the view's linear space
    /// (kept at the compute side; drives gathers and request intervals).
    pub proj_view: Projection,
    /// `PROJ_S(V ∩ S)` — the intersection in the subfile's linear space
    /// (shipped to the I/O node; drives scatters).
    pub proj_sub: Projection,
    /// Whether both projections select the same bytes, so view offsets
    /// equal subfile offsets and mapping extremities is free (§6.2: identical
    /// parameters make each view map exactly on a subfile). Decided on the
    /// byte set, not on how the two trees nest it.
    pub perfect_match: bool,
}

impl SubfileAccess {
    /// Whether the pair shares no data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.proj_view.is_empty()
    }

    fn empty() -> Self {
        Self { proj_view: Projection::empty(), proj_sub: Projection::empty(), perfect_match: false }
    }
}

/// The full access plan of one view element against a physical partition:
/// one [`SubfileAccess`] per subfile, in subfile order.
#[derive(Debug, Clone)]
pub struct ViewPlan {
    /// Per-subfile access information, indexed by subfile.
    pub per_subfile: Vec<SubfileAccess>,
}

impl ViewPlan {
    /// Compiles the plan: intersects `element` of `view` with every element
    /// of `physical` and projects each non-empty intersection on both sides.
    ///
    /// This is the compute bulk of the paper's view-set protocol (`t_i`);
    /// its cost is paid once per view and amortized over all accesses.
    pub fn compile(view: &Partition, element: usize, physical: &Partition) -> Result<Self, Error> {
        let mut per_subfile = Vec::with_capacity(physical.element_count());
        for s in 0..physical.element_count() {
            let (inter, proj_view, proj_sub) = intersect_and_project(view, element, physical, s)?;
            if inter.is_empty() {
                per_subfile.push(SubfileAccess::empty());
                continue;
            }
            let perfect_match = proj_view.same_bytes(&proj_sub);
            per_subfile.push(SubfileAccess { proj_view, proj_sub, perfect_match });
        }
        Ok(Self { per_subfile })
    }

    /// Number of subfiles the view shares data with.
    #[must_use]
    pub fn intersecting_subfiles(&self) -> usize {
        self.per_subfile.iter().filter(|a| !a.is_empty()).count()
    }

    /// Total FALLS-tree nodes over all projections — the size of the
    /// symbolic representation, used as a cost proxy by the simulator.
    #[must_use]
    pub fn work_nodes(&self) -> usize {
        self.per_subfile
            .iter()
            .map(|a| a.proj_view.set.node_count() + a.proj_sub.set.node_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PartitionPattern;
    use falls::{Falls, NestedFalls, NestedSet};

    fn stripes(count: u64, width: u64) -> Partition {
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
        Partition::new(0, pattern)
    }

    fn cyclic(count: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(Falls::new(k, k, count, 1).unwrap()))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(0, pattern)
    }

    #[test]
    fn identical_partitions_are_perfect_matches() {
        let p = stripes(4, 8);
        let plan = ViewPlan::compile(&p, 1, &p).unwrap();
        assert_eq!(plan.per_subfile.len(), 4);
        assert_eq!(plan.intersecting_subfiles(), 1);
        assert!(plan.per_subfile[1].perfect_match);
        assert!(plan.per_subfile[0].is_empty());
        assert!(plan.work_nodes() > 0);
    }

    #[test]
    fn mismatched_partitions_intersect_everywhere() {
        let plan = ViewPlan::compile(&stripes(4, 8), 0, &cyclic(4)).unwrap();
        assert_eq!(plan.intersecting_subfiles(), 4);
        for a in &plan.per_subfile {
            assert!(!a.perfect_match);
            // A stripe of 8 meets each cyclic element in 2 bytes per period.
            assert_eq!(a.proj_view.bytes_per_period(), 2);
            assert_eq!(a.proj_sub.bytes_per_period(), 2);
        }
    }

    #[test]
    fn a_view_equal_to_the_layout_stays_a_perfect_match() {
        for p in [stripes(4, 8), cyclic(4)] {
            let plan = ViewPlan::compile(&p, 2, &p).unwrap();
            assert!(plan.per_subfile[2].perfect_match);
            assert_eq!(plan.intersecting_subfiles(), 1);
        }
        // The same bytes nested differently: the view's element 0 is one
        // 4-byte block wrapped in an outer family, the layout's two leaves.
        let view = Partition::new(
            0,
            PartitionPattern::new(vec![
                NestedSet::singleton(
                    NestedFalls::with_inner(
                        Falls::new(0, 7, 8, 1).unwrap(),
                        vec![NestedFalls::leaf(Falls::new(0, 3, 4, 1).unwrap())],
                    )
                    .unwrap(),
                ),
                NestedSet::singleton(NestedFalls::leaf(Falls::new(4, 7, 8, 1).unwrap())),
            ])
            .unwrap(),
        );
        let layout = Partition::new(
            0,
            PartitionPattern::new(vec![
                NestedSet::new(vec![
                    NestedFalls::leaf(Falls::new(0, 1, 2, 1).unwrap()),
                    NestedFalls::leaf(Falls::new(2, 3, 2, 1).unwrap()),
                ])
                .unwrap(),
                NestedSet::singleton(NestedFalls::leaf(Falls::new(4, 7, 8, 1).unwrap())),
            ])
            .unwrap(),
        );
        let plan = ViewPlan::compile(&view, 0, &layout).unwrap();
        assert!(plan.per_subfile[0].perfect_match);
        assert!(
            !ViewPlan::compile(&stripes(4, 8), 0, &cyclic(4)).unwrap().per_subfile[0].perfect_match
        );
    }

    #[test]
    fn bad_element_index_is_an_error() {
        let p = stripes(2, 4);
        assert!(ViewPlan::compile(&p, 7, &p).is_err());
    }
}
