//! Structural tiling proof: show that a set of nested FALLS covers an
//! extent exactly once *from the trees*, without listing the bytes or the
//! leaf segments they select.
//!
//! The proof recurses on shape, not on repetitions. All families that live
//! in one extent are grouped by their outer quadruple `(l, r, s, n)`:
//!
//! * a group that holds a leaf must be that leaf alone (two members with
//!   one shape claim the same blocks twice);
//! * otherwise the children of *all* members, taken together, must tile
//!   the block `[0, r − l + 1)` — one recursive call per group, whatever
//!   `n` is, because every repetition of the group looks the same;
//! * a group proven this way covers each of its `n` blocks exactly once,
//!   so it counts as one solid FALLS. The groups' outer segments are
//!   listed, sorted and swept for exact cover of the extent.
//!
//! The sweep lists outer segments and charges each one to a work budget.
//! Solid FALLS that share a stride and a count and whose first blocks tile
//! one whole stride — the PITFALLS of a regular distribution, or a single
//! family whose blocks are adjacent — cover their `n` strides solidly and
//! are listed as one range, one unit of work per member; anything else is
//! listed repetition by repetition. The cost is therefore bounded by the
//! description — the number of distinct shapes for a regular distribution,
//! `Σ n` over them at worst — never by the period: a `CYCLIC(b)×CYCLIC(c)`
//! view of an `N×N` matrix on a 2×2 grid is ten shapes whatever `N` is.
//!
//! The answer is *proven* or *not proven*, never "does not tile". A group
//! is collapsed only after its block was shown to be covered exactly once,
//! so a proof is sound by construction. It is complete on hierarchically
//! aligned tilings — elements that share a block also share the family
//! that cuts it out, which holds for every HPF distribution — and gives up
//! on everything else: a broken pattern, a valid tiling whose elements
//! factor the same bytes differently, or an exhausted budget. Callers then
//! fall back to enumerating the period, which also produces the
//! diagnostics.

// Proves untrusted patterns from every `SetView`: bad input is a verdict, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// A borrowed view of one FALLS tree node, so validated
/// ([`NestedFalls`](crate::NestedFalls)) and unvalidated (an auditor's raw
/// input) trees are proven by the same code with no conversion.
///
/// Nothing is assumed about the values: all arithmetic on them is checked
/// and anything that does not fit makes the proof give up.
pub trait Family: Sized {
    /// Left index of the first block.
    fn l(&self) -> u64;
    /// Right index of the first block.
    fn r(&self) -> u64;
    /// Stride between consecutive blocks (ignored when `count() ≤ 1`).
    fn stride(&self) -> u64;
    /// Number of blocks.
    fn count(&self) -> u64;
    /// Inner families, relative to the block start; empty for a leaf.
    fn inner(&self) -> &[Self];
}

/// Work budget for callers with no budget of their own: listed outer
/// segments per proof. A proof is tried before every enumeration, so a
/// failed attempt is pure overhead; this keeps it far below the cost of
/// the enumeration it precedes for any period worth proving.
pub const WORK_BUDGET: u64 = 1 << 14;

/// What a successful proof learned on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingProof {
    /// Leaf segments in the extent — what an enumeration would have
    /// listed (saturating).
    pub segments: u64,
    /// Whether every one of those segments is a single byte.
    pub single_bytes: bool,
    /// Distinct shape groups proven: the part of the cost that depends on
    /// the description alone.
    pub groups: u64,
    /// Work charged to the budget: one unit per listed outer segment, or
    /// per group where groups tiling a whole stride were listed as one
    /// range.
    pub work: u64,
}

/// Tries to prove that `families` — the top-level families of every
/// partition element, in any order — cover `[0, extent)` exactly once,
/// listing at most `budget` outer segments.
///
/// `Some` is a proof. `None` means *not proven*: the pattern may still
/// tile, and the caller must decide by enumeration.
#[must_use]
pub fn prove_tiling<'a, F: Family + 'a>(
    families: impl IntoIterator<Item = &'a F>,
    extent: u64,
    budget: u64,
) -> Option<TilingProof> {
    let mut prover = Prover { budget, work: 0, groups: 0 };
    let (segments, single_bytes) = prover.tiles(families.into_iter().collect(), extent)?;
    Some(TilingProof { segments, single_bytes, groups: prover.groups, work: prover.work })
}

struct Prover {
    budget: u64,
    work: u64,
    groups: u64,
}

/// Grouping key. The stride of a family with one block selects nothing, so
/// it must not split a group.
fn shape<F: Family>(f: &F) -> (u64, u64, u64, u64) {
    (f.l(), f.r(), if f.count() > 1 { f.stride() } else { 0 }, f.count())
}

impl Prover {
    fn charge(&mut self, units: u64) -> Option<()> {
        self.work = self.work.checked_add(units)?;
        (self.work <= self.budget).then_some(())
    }

    /// `(leaf segments, all single bytes)` of one extent when `families`
    /// cover `[0, extent)` exactly once.
    fn tiles<F: Family>(&mut self, mut families: Vec<&F>, extent: u64) -> Option<(u64, bool)> {
        families.sort_unstable_by_key(|f| shape(*f));
        // Proven groups as solid FALLS, keyed for the sweep: (s, n, l, r − l).
        let mut solids: Vec<(u64, u64, u64, u64)> = Vec::new();
        let mut segments = 0u64;
        let mut single_bytes = true;
        for group in families.chunk_by(|a, b| shape(*a) == shape(*b)) {
            let (l, r, s, n) = shape(group[0]);
            let block_last = r.checked_sub(l)?;
            let (per_block, single) = if group.iter().any(|f| f.inner().is_empty()) {
                if group.len() > 1 {
                    return None;
                }
                (1, block_last == 0)
            } else {
                let children = group.iter().flat_map(|f| f.inner()).collect();
                self.tiles(children, block_last.checked_add(1)?)?
            };
            self.groups += 1;
            solids.push((s, n, l, block_last));
            segments = segments.saturating_add(n.saturating_mul(per_block));
            single_bytes &= single;
        }

        solids.sort_unstable();
        let mut outer: Vec<(u64, u64)> = Vec::new();
        for class in solids.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (s, n, first, _) = class[0];
            // First blocks that tile [first, first + s) repeat to cover
            // [first, first + n·s) exactly once.
            let stride_end = class.iter().try_fold(first, |expect, &(_, _, l, last)| {
                (l == expect).then(|| l.checked_add(last)?.checked_add(1))?
            });
            if n > 1 && stride_end.is_some_and(|end| Some(end) == first.checked_add(s)) {
                self.charge(class.len() as u64)?;
                outer.push((first, first.checked_add(n.checked_mul(s)?.checked_sub(1)?)?));
                continue;
            }
            for &(_, _, l, last) in class {
                self.charge(n)?;
                for k in 0..n {
                    let lo = l.checked_add(k.checked_mul(s)?)?;
                    outer.push((lo, lo.checked_add(last)?));
                }
            }
        }

        outer.sort_unstable();
        let mut expect = 0u64;
        for (lo, hi) in outer {
            if lo != expect {
                return None;
            }
            expect = hi.checked_add(1)?;
        }
        (expect == extent).then_some((segments, single_bytes))
    }
}

impl Family for crate::NestedFalls {
    fn l(&self) -> u64 {
        self.falls().l()
    }
    fn r(&self) -> u64 {
        self.falls().r()
    }
    fn stride(&self) -> u64 {
        self.falls().stride()
    }
    fn count(&self) -> u64 {
        self.falls().count()
    }
    fn inner(&self) -> &[Self] {
        crate::NestedFalls::inner(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Falls, NestedFalls};

    fn leaf(l: u64, r: u64, s: u64, n: u64) -> NestedFalls {
        NestedFalls::leaf(Falls::new(l, r, s, n).unwrap())
    }

    fn nested(l: u64, r: u64, s: u64, n: u64, inner: Vec<NestedFalls>) -> NestedFalls {
        NestedFalls::with_inner(Falls::new(l, r, s, n).unwrap(), inner).unwrap()
    }

    #[test]
    fn flat_leaves_are_swept() {
        // Figure 3: three 2-byte blocks over a 6-byte period.
        let fams = [leaf(0, 1, 6, 1), leaf(2, 3, 6, 1), leaf(4, 5, 6, 1)];
        let proof = prove_tiling(&fams, 6, WORK_BUDGET).unwrap();
        assert_eq!(proof, TilingProof { segments: 3, single_bytes: false, groups: 3, work: 3 });
        // A hole, an overlap and a wrong extent are all just "not proven".
        assert!(prove_tiling(&fams[..2], 6, WORK_BUDGET).is_none());
        assert!(prove_tiling(&[leaf(0, 3, 6, 1), leaf(2, 5, 6, 1)], 6, WORK_BUDGET).is_none());
        assert!(prove_tiling(&fams, 7, WORK_BUDGET).is_none());
    }

    #[test]
    fn shared_outer_family_recurses_once_per_shape() {
        // Two elements share the row family (0,7,16,4) and split its block
        // between them; two more share (8,15,16,4). 64 bytes, 16 leaf
        // segments, but only 2 + 4 groups; the two row families tile their
        // stride, so they are listed as one range: 2 + 4·1 units of work.
        let fams = [
            nested(0, 7, 16, 4, vec![leaf(0, 3, 8, 1)]),
            nested(0, 7, 16, 4, vec![leaf(4, 7, 8, 1)]),
            nested(8, 15, 16, 4, vec![leaf(0, 3, 8, 1)]),
            nested(8, 15, 16, 4, vec![leaf(4, 7, 8, 1)]),
        ];
        let proof = prove_tiling(&fams, 64, WORK_BUDGET).unwrap();
        assert_eq!(proof, TilingProof { segments: 16, single_bytes: false, groups: 6, work: 6 });
    }

    #[test]
    fn duplicate_leaf_under_one_shape_is_not_proven() {
        // The same leaf in two elements: each byte is claimed twice.
        let fams = [
            nested(0, 7, 8, 2, vec![leaf(0, 7, 8, 1)]),
            nested(0, 7, 8, 2, vec![leaf(0, 7, 8, 1)]),
        ];
        assert!(prove_tiling(&fams, 16, WORK_BUDGET).is_none());
        assert!(prove_tiling(&[leaf(0, 7, 8, 2), leaf(0, 7, 8, 2)], 16, WORK_BUDGET).is_none());
    }

    #[test]
    fn partially_selecting_nest_is_not_proven() {
        // Figure 2's (0,3,8,2,{(0,0,2,2)}) with its complement as flat
        // leaves tiles [0,16), but the nest's children alone do not fill
        // its block: the factorings differ, so the proof gives up.
        let fams = [nested(0, 3, 8, 2, vec![leaf(0, 0, 2, 2)]), leaf(1, 1, 8, 2), leaf(3, 7, 8, 2)];
        assert!(prove_tiling(&fams, 16, WORK_BUDGET).is_none());
    }

    #[test]
    fn single_bytes_and_segment_count_come_from_the_description() {
        let combs = [leaf(0, 0, 2, 8), leaf(1, 1, 2, 8)];
        let proof = prove_tiling(&combs, 16, WORK_BUDGET).unwrap();
        assert_eq!((proof.segments, proof.single_bytes), (16, true));
    }

    #[test]
    fn families_tiling_a_stride_are_listed_once() {
        // Two interleaved combs tile their common stride: one range, two
        // units of work, whatever n is.
        let combs = [leaf(0, 0, 2, 8), leaf(1, 1, 2, 8)];
        assert_eq!(prove_tiling(&combs, 16, WORK_BUDGET).unwrap().work, 2);
        assert!(prove_tiling(&combs, 16, 1).is_none());
        // The same bytes with the odd comb split in two: no class tiles its
        // stride, so every block is listed and charged.
        let split = [leaf(0, 0, 2, 8), leaf(1, 1, 4, 4), leaf(3, 3, 4, 4)];
        assert_eq!(prove_tiling(&split, 16, WORK_BUDGET).unwrap().work, 16);
        assert!(prove_tiling(&split, 16, 15).is_none());
        // Sharing a stride is not enough: the first blocks must tile it.
        assert!(prove_tiling(&[leaf(0, 0, 2, 8), leaf(0, 0, 2, 8)], 16, WORK_BUDGET).is_none());
        assert!(prove_tiling(&[leaf(0, 0, 3, 5), leaf(1, 1, 3, 5)], 15, WORK_BUDGET).is_none());
    }
}
