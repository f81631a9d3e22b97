//! Intersection of sets of nested FALLS (§7): `INTERSECT` with its
//! PREPROCESS phase, and the recursive `INTERSECT-AUX`, which also emits
//! `PROJ` of every node it builds.

use crate::model::Partition;
use crate::redist::{cut_falls, intersect_falls, Projection};
use crate::Error;
use falls::{checked_lcm, Falls, LineSegment, NestedFalls, NestedSet};

/// The intersection of two partition elements belonging to two partitions of
/// the same file.
///
/// `set` describes the common bytes within one *aligned period* of length
/// `period = lcm(SIZE(P₁), SIZE(P₂))`, relative to the common displacement
/// `displacement = max(d₁, d₂)`; the selection repeats with `period` from
/// there on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intersection {
    /// Common bytes within one aligned period (offsets relative to
    /// [`Intersection::displacement`]).
    pub set: NestedSet,
    /// Absolute file offset where the aligned tiling starts.
    pub displacement: u64,
    /// Aligned period: `lcm` of the two pattern sizes.
    pub period: u64,
}

impl Intersection {
    /// Whether the two elements share no data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Number of common bytes per aligned period.
    #[must_use]
    pub fn bytes_per_period(&self) -> u64 {
        self.set.size()
    }

    /// Absolute file segments of the intersection within `[lo, hi]`
    /// (absolute file offsets, both inclusive).
    #[must_use]
    pub fn file_segments_between(&self, lo: u64, hi: u64) -> Vec<LineSegment> {
        if self.is_empty() || hi < self.displacement || lo > hi {
            return Vec::new();
        }
        let lo = lo.max(self.displacement);
        let base_segs = self.set.absolute_segments();
        let first_tile = (lo - self.displacement) / self.period;
        let last_tile = (hi - self.displacement) / self.period;
        let mut out = Vec::new();
        for tile in first_tile..=last_tile {
            let shift = self.displacement + tile * self.period;
            for seg in &base_segs {
                let abs = seg.shift_up(shift).expect("offsets fit in u64");
                if let Some(clipped) = abs.clip(lo, hi) {
                    out.push(clipped);
                }
            }
        }
        out
    }

    /// Number of common bytes within the absolute file range `[lo, hi]`.
    #[must_use]
    pub fn bytes_between(&self, lo: u64, hi: u64) -> u64 {
        self.file_segments_between(lo, hi).iter().map(LineSegment::len).sum()
    }
}

/// Intersects element `e1` of partition `p1` with element `e2` of partition
/// `p2` — the paper's `INTERSECT`, PREPROCESS included.
///
/// PREPROCESS aligns both elements on the window
/// `[max(d₁, d₂), max(d₁, d₂) + lcm(SIZE(P₁), SIZE(P₂)))`: each side lists
/// its families over the pattern tiles that meet the window, and the
/// top-level cut of `INTERSECT-AUX` trims them to it — "cutting and
/// extending the partitioning pattern starting at the lowest displacement",
/// structure-preserving.
pub fn intersect_elements(
    p1: &Partition,
    e1: usize,
    p2: &Partition,
    e2: usize,
) -> Result<Intersection, Error> {
    intersect_and_project(p1, e1, p2, e2).map(|(inter, _, _)| inter)
}

/// [`intersect_elements`] plus `PROJ` of the intersection onto both
/// elements' linear spaces, computed in the same `INTERSECT-AUX` walk: each
/// intersection node is emitted with its image under `MAP` of either
/// element, so a projection has at most as many nodes as the intersection
/// and never lists the period.
pub fn intersect_and_project(
    p1: &Partition,
    e1: usize,
    p2: &Partition,
    e2: usize,
) -> Result<(Intersection, Projection, Projection), Error> {
    let s1 = p1.pattern().element(e1)?;
    let s2 = p2.pattern().element(e2)?;
    let (sz1, sz2) = (p1.pattern().size(), p2.pattern().size());
    let overflow = || Error::PeriodOverflow { size1: sz1, size2: sz2 };
    let period = checked_lcm(sz1, sz2).ok_or_else(overflow)?;
    let displacement = p1.displacement().max(p2.displacement());
    let (l1, lo1, hi1, pe1) = window(p1, s1, displacement, period).ok_or_else(overflow)?;
    let (l2, lo2, hi2, pe2) = window(p2, s2, displacement, period).ok_or_else(overflow)?;
    let [set, proj1, proj2] = assemble(intersect_siblings(&l1, lo1, hi1, &l2, lo2, hi2));
    Ok((
        Intersection { set, displacement, period },
        Projection { set: proj1, period: pe1 },
        Projection { set: proj2, period: pe2 },
    ))
}

/// Intersects two sets of nested FALLS living in the same linear space —
/// `INTERSECT-AUX` applied at the top level with limits `[0, span−1]`.
///
/// `span1`/`span2` bound the spaces the sets were defined over; both sets
/// must already be extended to a common period for a meaningful result (as
/// [`intersect_elements`] does).
#[must_use]
pub fn intersect_sets(s1: &NestedSet, span1: u64, s2: &NestedSet, span2: u64) -> NestedSet {
    let hi = span1.max(span2) - 1;
    let (mut l1, mut l2) = (Vec::new(), Vec::new());
    push_sources(&mut l1, s1.families(), 0, 0);
    push_sources(&mut l2, s2.families(), 0, 0);
    let [set, ..] = assemble(intersect_siblings(&l1, 0, hi, &l2, 0, hi));
    set
}

/// Cuts a whole set of nested FALLS between `lo` and `hi` (inclusive),
/// re-expressed relative to `lo` — the nested generalization of
/// [`cut_falls`], preserving tree structure wherever blocks survive intact.
///
/// This is what "restrict a view to a region" means in the paper's model.
#[must_use]
pub fn cut_set(set: &NestedSet, lo: u64, hi: u64) -> NestedSet {
    let mut families = cut_siblings(set.families(), lo, hi);
    families.sort_by_key(|f| (f.falls().l(), f.falls().r()));
    NestedSet::new(families).expect("cut pieces stay disjoint")
}

/// Cuts every family of a sibling list to `[lo, hi]`, rebasing to `lo`.
fn cut_siblings(sibs: &[NestedFalls], lo: u64, hi: u64) -> Vec<NestedFalls> {
    let mut out = Vec::new();
    for nf in sibs {
        for piece in cut_falls(nf.falls(), lo, hi) {
            if nf.is_leaf() {
                out.push(NestedFalls::leaf(piece));
                continue;
            }
            // Offset of the piece's first block within the original block
            // (every repetition sits at the same offset because the piece's
            // stride equals the original stride for multi-block pieces).
            let off = (lo + piece.l() - nf.falls().l()) % nf.falls().stride();
            let span = piece.block_len();
            let children = cut_siblings(nf.inner(), off, off + span - 1);
            if children.is_empty() {
                continue; // the surviving block range selects nothing
            }
            out.push(
                NestedFalls::with_inner(piece, children)
                    .expect("cut children fit in the cut block"),
            );
        }
    }
    out
}

/// One family of a sibling list as `INTERSECT-AUX` sees it: its FALLS in
/// the list's coordinates, its children, and where `MAP` puts it in the
/// list's linear space.
#[derive(Debug, Clone, Copy)]
struct Src<'a> {
    falls: Falls,
    /// Children relative to a block's start; empty for a leaf.
    inner: &'a [NestedFalls],
    /// Linear offset of the first block's first selected byte.
    lin: u64,
    /// Bytes one block selects: the linear distance between repetitions.
    per_block: u64,
}

impl<'a> Src<'a> {
    /// The sibling list one block holds, relative to the block: the
    /// children, or for a leaf the whole block, on which `MAP` is the
    /// identity.
    fn children(&self) -> Vec<Src<'a>> {
        if self.is_leaf() {
            let len = self.falls.block_len();
            let falls = Falls::new(0, len - 1, len, 1).expect("block length ≥ 1");
            return vec![Src { falls, inner: &[], lin: 0, per_block: len }];
        }
        let mut list = Vec::new();
        push_sources(&mut list, self.inner, 0, 0);
        list
    }

    fn is_leaf(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Lists `nodes` (shifted up by `at`) as sources, in tree order from linear
/// offset `lin`.
fn push_sources<'a>(out: &mut Vec<Src<'a>>, nodes: &'a [NestedFalls], at: u64, mut lin: u64) {
    for nf in nodes {
        let falls = nf.falls().shift_up(at).expect("window offsets fit in u64");
        let per_block = nf.block_size();
        out.push(Src { falls, inner: nf.inner(), lin, per_block });
        lin += falls.count() * per_block;
    }
}

/// One element's side of PREPROCESS: its families over the pattern tiles
/// that meet the aligned window, in the coordinates of the first such tile;
/// the window's limits in those coordinates; and the element-linear bytes
/// per window, `(period / SIZE(P)) · SIZE(S)`. `None` when an offset leaves
/// `u64`.
fn window<'a>(
    p: &Partition,
    set: &'a NestedSet,
    displacement: u64,
    period: u64,
) -> Option<(Vec<Src<'a>>, u64, u64, u64)> {
    let (psize, esize) = (p.pattern().size(), set.size());
    let rel = displacement - p.displacement();
    let (first_tile, lo) = (rel / psize, rel % psize);
    let hi = lo.checked_add(period - 1)?;
    let mut sources = Vec::new();
    for t in 0..=hi / psize {
        let lin = first_tile.checked_add(t)?.checked_mul(esize)?;
        push_sources(&mut sources, set.families(), t * psize, lin);
    }
    Some((sources, lo, hi, (period / psize).checked_mul(esize)?))
}

/// One node of `INTERSECT-AUX`'s output: the intersection node and its
/// images in the two sibling lists' linear spaces.
type Triple = (NestedFalls, [NestedFalls; 2]);

/// A level of triples as the intersection's sibling list and the two
/// projections' sibling lists, each sorted by left index.
fn split(nodes: Vec<Triple>) -> [Vec<NestedFalls>; 3] {
    let mut lists = [(); 3].map(|()| Vec::with_capacity(nodes.len()));
    for (inter, [p1, p2]) in nodes {
        lists[0].push(inter);
        lists[1].push(p1);
        lists[2].push(p2);
    }
    for list in &mut lists {
        list.sort_unstable_by_key(|f| (f.falls().l(), f.falls().r()));
    }
    lists
}

/// The top level of `INTERSECT-AUX`'s output as the intersection set and
/// the two projection sets.
fn assemble(nodes: Vec<Triple>) -> [NestedSet; 3] {
    split(nodes).map(|list| NestedSet::new(list).expect("INTERSECT-AUX emits disjoint nodes"))
}

/// `INTERSECT-AUX`: intersects two sibling lists after cutting them to
/// `[lo, hi]` limits expressed in each list's own coordinates; intersection
/// nodes are relative to the cut inferior limits (which denote the same
/// absolute position in both spaces), projected nodes are in each list's
/// linear space.
fn intersect_siblings(
    s1: &[Src<'_>],
    lo1: u64,
    hi1: u64,
    s2: &[Src<'_>],
    lo2: u64,
    hi2: u64,
) -> Vec<Triple> {
    let cuts2: Vec<Vec<Falls>> = s2.iter().map(|b| cut_falls(&b.falls, lo2, hi2)).collect();
    let mut out = Vec::new();
    for a in s1 {
        let cut1 = cut_falls(&a.falls, lo1, hi1);
        if cut1.is_empty() {
            continue;
        }
        for (b, cut2) in s2.iter().zip(&cuts2) {
            for g1 in &cut1 {
                for g2 in cut2 {
                    for f in intersect_pieces(a, lo1, g1, b, lo2, g2) {
                        out.extend(build_node(f, a, lo1, b, lo2));
                    }
                }
            }
        }
    }
    out
}

/// `INTERSECT-FALLS` of two cut pieces. Against a single block that
/// selects alike wherever the other piece's repetitions fall in it (see
/// [`cut_to_block`]), the other piece is just cut to the block — at most
/// three families — where the periodic scan over `lcm` of the strides would
/// emit one single-block family per repetition.
fn intersect_pieces(
    a: &Src<'_>,
    lo1: u64,
    g1: &Falls,
    b: &Src<'_>,
    lo2: u64,
    g2: &Falls,
) -> Vec<Falls> {
    (g1.count() == 1)
        .then(|| cut_to_block(a, lo1, g1, g2))
        .flatten()
        .or_else(|| (g2.count() == 1).then(|| cut_to_block(b, lo2, g2, g1)).flatten())
        .unwrap_or_else(|| intersect_falls(g1, g2))
}

/// `other` cut to `block`, one block of `src`, if every repetition of each
/// piece meets the same selection there: `src` is a leaf, or its one child
/// family repeats with a stride dividing the piece's and has repetitions
/// on both sides of every piece block (so no block sees its ends).
/// `INTERSECT-AUX` below a piece then descends once for all its
/// repetitions, as it does for a common multiple of the strides.
fn cut_to_block(src: &Src<'_>, lo: u64, block: &Falls, other: &Falls) -> Option<Vec<Falls>> {
    let pieces: Vec<Falls> = cut_falls(other, block.l(), block.r())
        .into_iter()
        .map(|p| p.shift_up(block.l()).expect("the cut lies inside the block"))
        .collect();
    if src.is_leaf() {
        return Some(pieces);
    }
    let [child] = src.inner else { return None };
    let c = child.falls();
    let alike = |f: &Falls| {
        let first = (lo + f.l() - src.falls.l()) % src.falls.stride();
        let last = first + (f.count() - 1) * f.stride() + f.block_len() - 1;
        let end = c.count().checked_mul(c.stride()).and_then(|x| x.checked_add(c.l()));
        f.stride() % c.stride() == 0
            && first + c.stride() > c.r()
            && end.is_none_or(|end| last < end)
    };
    pieces.iter().all(|f| f.count() == 1 || alike(f)).then_some(pieces)
}

/// Where intersection node `f` sits in one source.
struct Anchor {
    /// Linear offset of the source block holding `f`'s first block.
    block_lin: u64,
    /// Offset of `f`'s first block inside that source block.
    off: u64,
    /// Linear distance between `f`'s repetitions.
    lin_stride: u64,
}

impl Anchor {
    fn new(src: &Src<'_>, lo: u64, f: &Falls) -> Self {
        let s = src.falls.stride();
        let rel = lo + f.l() - src.falls.l();
        let (block, off) = (rel / s, rel % s);
        let last = rel + (f.count() - 1) * f.stride();
        let lin_stride = match src.inner {
            _ if f.count() == 1 => f.stride(),
            // Every repetition in one block of a leaf, where MAP is the
            // identity.
            [] if last / s == block => f.stride(),
            // Every repetition in one block, whose one child family puts
            // `f.s / c.s` of its blocks between them (see `cut_to_block`).
            [c] if last / s == block => f.stride() / c.falls().stride() * c.block_size(),
            // `f.s` is a common multiple of the sources' strides, so every
            // repetition sits at the same offset `f.s / s` blocks later.
            _ => {
                debug_assert_eq!(f.stride() % s, 0);
                f.stride() / s * src.per_block
            }
        };
        Self { block_lin: src.lin + block * src.per_block, off, lin_stride }
    }

    /// The image of `f` given its children's images, which are in the
    /// source block's linear space: the block runs from the first child to
    /// the end of the last, rebased children inside.
    fn image(&self, f: &Falls, children: Vec<NestedFalls>) -> NestedFalls {
        let lo = children.iter().map(|c| c.falls().l()).min().expect("non-empty children");
        let hi = children.iter().map(NestedFalls::extent_end).max().expect("non-empty children");
        let l = self.block_lin + lo;
        if let [c] = &children[..] {
            if c.is_leaf() && c.falls().count() == 1 {
                return self.leaf(l, hi - lo + 1, f.count());
            }
        }
        let inner = children.iter().map(|c| c.shift_down(lo).expect("inside the block")).collect();
        let falls = Falls::new(l, l + hi - lo, self.lin_stride, f.count())
            .expect("a projected block fits in its stride");
        NestedFalls::with_inner(falls, inner).expect("images of disjoint nodes are disjoint")
    }

    /// A leaf image of `n` blocks of `len` bytes from linear offset `l`;
    /// abutting blocks merge into one.
    fn leaf(&self, l: u64, len: u64, n: u64) -> NestedFalls {
        let falls = if self.lin_stride == len {
            Falls::new(l, l + n * len - 1, n * len, 1)
        } else {
            Falls::new(l, l + len - 1, self.lin_stride, n)
        };
        NestedFalls::leaf(falls.expect("a projected block fits in its stride"))
    }
}

/// Builds the intersection node for outer FALLS `f` and its two images,
/// recursing into the inner families of its sources (line 10 of
/// INTERSECT-AUX).
fn build_node(f: Falls, a: &Src<'_>, lo1: u64, b: &Src<'_>, lo2: u64) -> Option<Triple> {
    let span = f.block_len();
    let anchors = [Anchor::new(a, lo1, &f), Anchor::new(b, lo2, &f)];
    if a.is_leaf() && b.is_leaf() {
        let proj = anchors.map(|at| at.leaf(at.block_lin + at.off, span, f.count()));
        return Some((NestedFalls::leaf(f), proj));
    }
    let [o1, o2] = [anchors[0].off, anchors[1].off];
    let nodes =
        intersect_siblings(&a.children(), o1, o1 + span - 1, &b.children(), o2, o2 + span - 1);
    if nodes.is_empty() {
        return None;
    }
    let [inter, p1, p2] = split(nodes);
    let [i1, i2] = &anchors;
    Some((
        NestedFalls::with_inner(f, inter).expect("children are disjoint and in-block"),
        [i1.image(&f, p1), i2.image(&f, p2)],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PartitionPattern;
    use falls::NestedFalls;

    fn leaf(l: u64, r: u64, s: u64, n: u64) -> NestedFalls {
        NestedFalls::leaf(Falls::new(l, r, s, n).unwrap())
    }

    fn nested(l: u64, r: u64, s: u64, n: u64, inner: Vec<NestedFalls>) -> NestedFalls {
        NestedFalls::with_inner(Falls::new(l, r, s, n).unwrap(), inner).unwrap()
    }

    /// Figure 4's nested intersection:
    /// V = {(0,7,16,2, {(0,1,4,2)})}, S = {(0,3,8,4, {(0,0,2,2)})},
    /// patterns of size 32 ⇒ V ∩ S selects bytes {0, 16}.
    #[test]
    fn paper_figure4_intersection() {
        let v = NestedSet::singleton(nested(0, 7, 16, 2, vec![leaf(0, 1, 4, 2)]));
        let s = NestedSet::singleton(nested(0, 3, 8, 4, vec![leaf(0, 0, 2, 2)]));
        assert_eq!(v.absolute_offsets(), vec![0, 1, 4, 5, 16, 17, 20, 21]);
        assert_eq!(s.absolute_offsets(), vec![0, 2, 8, 10, 16, 18, 24, 26]);
        let i = intersect_sets(&v, 32, &s, 32);
        assert_eq!(i.absolute_offsets(), vec![0, 16]);
        // The paper reports the result as {(0,3,16,2, {(0,0,4,1)})} — outer
        // family with stride 16, count 2, one byte per block.
        assert_eq!(i.size(), 2);
        let outer = &i.families()[0];
        assert_eq!(outer.falls().stride(), 16);
        assert_eq!(outer.falls().count(), 2);
    }

    #[test]
    fn intersection_equals_set_intersection_of_offsets() {
        use falls::testing::{random_nested_set, Gen};
        let mut g = Gen::new(0xBEEF);
        for round in 0..150 {
            let span = g.range(8, 160);
            let a = random_nested_set(&mut g, span, 3);
            let b = random_nested_set(&mut g, span, 3);
            let i = intersect_sets(&a, span, &b, span);
            let oa = a.absolute_offsets();
            let ob = b.absolute_offsets();
            let want: Vec<u64> = oa.iter().copied().filter(|x| ob.contains(x)).collect();
            assert_eq!(i.absolute_offsets(), want, "round {round}: {a} ∩ {b}");
        }
    }

    #[test]
    fn mixed_depth_trees() {
        // A flat family intersected with a nested one.
        let a = NestedSet::singleton(leaf(0, 7, 16, 2));
        let b = NestedSet::singleton(nested(0, 3, 8, 4, vec![leaf(0, 0, 2, 2)]));
        let i = intersect_sets(&a, 32, &b, 32);
        // a selects [0,7] ∪ [16,23]; b selects {0,2,8,10,16,18,24,26}.
        assert_eq!(i.absolute_offsets(), vec![0, 2, 16, 18]);
    }

    fn row_pattern() -> PartitionPattern {
        // 4 "rows" of 8 bytes each, one element per row: pattern size 32.
        PartitionPattern::new(
            (0..4).map(|k| NestedSet::singleton(leaf(8 * k, 8 * k + 7, 32, 1))).collect(),
        )
        .unwrap()
    }

    fn column_pattern() -> PartitionPattern {
        // 4 "column blocks": element k takes bytes [2k, 2k+1] of every 8.
        PartitionPattern::new(
            (0..4).map(|k| NestedSet::singleton(leaf(2 * k, 2 * k + 1, 8, 4))).collect(),
        )
        .unwrap()
    }

    #[test]
    fn full_partition_pair_covers_everything() {
        let rows = Partition::new(0, row_pattern());
        let cols = Partition::new(0, column_pattern());
        let mut total = 0;
        for i in 0..4 {
            for j in 0..4 {
                let inter = intersect_elements(&rows, i, &cols, j).unwrap();
                assert_eq!(inter.period, 32);
                total += inter.bytes_per_period();
            }
        }
        // Every byte of the 32-byte period lies in exactly one (row, col) pair.
        assert_eq!(total, 32);
    }

    #[test]
    fn identical_elements_intersect_fully() {
        let rows = Partition::new(0, row_pattern());
        for i in 0..4 {
            let inter = intersect_elements(&rows, i, &rows, i).unwrap();
            assert_eq!(inter.bytes_per_period(), 8);
            let other = intersect_elements(&rows, i, &rows, (i + 1) % 4).unwrap();
            assert!(other.is_empty());
        }
    }

    #[test]
    fn different_pattern_sizes_extend_to_lcm() {
        // P1: size 6 (figure 3's S0); P2: size 4, two halves.
        let p1 = Partition::new(
            0,
            PartitionPattern::new(vec![
                NestedSet::singleton(leaf(0, 1, 6, 1)),
                NestedSet::singleton(leaf(2, 5, 6, 1)),
            ])
            .unwrap(),
        );
        let p2 = Partition::new(
            0,
            PartitionPattern::new(vec![
                NestedSet::singleton(leaf(0, 1, 4, 1)),
                NestedSet::singleton(leaf(2, 3, 4, 1)),
            ])
            .unwrap(),
        );
        let inter = intersect_elements(&p1, 0, &p2, 0).unwrap();
        assert_eq!(inter.period, 12);
        // S1,0 selects {0,1,6,7}; S2,0 selects {0,1,4,5,8,9} per 12 bytes.
        assert_eq!(inter.set.absolute_offsets(), vec![0, 1]);
    }

    #[test]
    fn displacement_alignment() {
        // Same pattern, displacements 0 and 2: alignment at 2.
        let pat = || {
            PartitionPattern::new(vec![
                NestedSet::singleton(leaf(0, 1, 4, 1)),
                NestedSet::singleton(leaf(2, 3, 4, 1)),
            ])
            .unwrap()
        };
        let p1 = Partition::new(0, pat());
        let p2 = Partition::new(2, pat());
        let inter = intersect_elements(&p1, 0, &p2, 0).unwrap();
        assert_eq!(inter.displacement, 2);
        // Relative to 2: p1's element 0 selects {2,3} mod 4 (absolute {4,5,8,9...}
        // → relative {2,3}); p2's element 0 selects {0,1}. Disjoint.
        assert!(inter.is_empty());
        // Element 0 of p1 vs element 1 of p2 fully overlap.
        let inter = intersect_elements(&p1, 0, &p2, 1).unwrap();
        assert_eq!(inter.set.absolute_offsets(), vec![2, 3]);
    }

    #[test]
    fn file_segments_between_tiles_and_clips() {
        let rows = Partition::new(0, row_pattern());
        let cols = Partition::new(0, column_pattern());
        let inter = intersect_elements(&rows, 0, &cols, 0).unwrap();
        // row 0 = [0,8); col 0 = {0,1, 8,9, 16,17, 24,25}; common = {0,1}.
        let segs = inter.file_segments_between(0, 63);
        let offs: Vec<u64> = segs.iter().flat_map(LineSegment::offsets).collect();
        assert_eq!(offs, vec![0, 1, 32, 33]);
        assert_eq!(inter.bytes_between(1, 32), 2);
        assert_eq!(inter.bytes_between(40, 50), 0);
    }

    #[test]
    fn cut_set_is_clip_and_shift() {
        use falls::testing::{random_nested_set, Gen};
        let mut g = Gen::new(0xC07);
        for _ in 0..200 {
            let span = g.range(4, 120);
            let set = random_nested_set(&mut g, span, 3);
            let lo = g.below(span + 4);
            let hi = lo + g.below(span + 4);
            let cut = cut_set(&set, lo, hi);
            let want: Vec<u64> = set
                .absolute_offsets()
                .into_iter()
                .filter(|&x| lo <= x && x <= hi)
                .map(|x| x - lo)
                .collect();
            assert_eq!(cut.absolute_offsets(), want, "cut {set} between {lo} and {hi}");
        }
    }

    #[test]
    fn cut_set_preserves_nesting_on_aligned_cuts() {
        // Figure 4's V: cutting at block boundaries keeps the tree shape.
        let v = NestedSet::singleton(nested(0, 7, 16, 2, vec![leaf(0, 1, 4, 2)]));
        let cut = cut_set(&v, 16, 31);
        assert_eq!(cut.height(), 2, "nesting preserved");
        assert_eq!(cut.absolute_offsets(), vec![0, 1, 4, 5]);
        // A mid-block cut trims the inner families.
        let cut = cut_set(&v, 1, 20);
        assert_eq!(cut.absolute_offsets(), vec![0, 3, 4, 15, 16, 19],);
    }

    #[test]
    fn alignment_preserves_nesting() {
        // Aligning on a later displacement must keep inner structure for
        // the unsplit families (no flattening to byte-granular leaves).
        let v = NestedSet::singleton(nested(0, 7, 16, 2, vec![leaf(0, 1, 4, 2)]));
        let pat = PartitionPattern::new(vec![v.clone(), v.complement(32)]).unwrap();
        let (early, late) = (Partition::new(0, pat.clone()), Partition::new(16, pat));
        let inter = intersect_elements(&late, 0, &early, 1).unwrap();
        assert!(inter.is_empty(), "a 16-byte shift of a 16-periodic element is itself");
        let inter = intersect_elements(&late, 0, &early, 0).unwrap();
        assert_eq!(inter.displacement, 16);
        assert_eq!(inter.set.absolute_offsets(), vec![0, 1, 4, 5, 16, 17, 20, 21]);
        assert_eq!(inter.set.height(), 2, "alignment keeps the FALLS trees");
    }

    #[test]
    fn empty_range_queries() {
        let rows = Partition::new(4, row_pattern());
        let cols = Partition::new(4, column_pattern());
        let inter = intersect_elements(&rows, 0, &cols, 0).unwrap();
        assert!(inter.file_segments_between(0, 3).is_empty());
        assert!(inter.file_segments_between(10, 5).is_empty());
    }
}
