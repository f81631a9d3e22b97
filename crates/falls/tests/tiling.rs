//! Soundness of the structural tiling proof against a byte-counting
//! oracle that shares no code with it: whatever trees the proof is handed —
//! valid, mutated or garbage — it must never say "tiles" unless the literal
//! expansion covers every byte of the extent exactly once and nothing
//! outside it.

use falls::testing::{random_nested_set, Gen};
use falls::tiling::{prove_tiling, Family, WORK_BUDGET};
use falls::NestedFalls;

/// An unvalidated quadruple tree, as an auditor holds it.
#[derive(Debug, Clone)]
struct Raw {
    l: u64,
    r: u64,
    s: u64,
    n: u64,
    inner: Vec<Raw>,
}

impl Family for Raw {
    fn l(&self) -> u64 {
        self.l
    }
    fn r(&self) -> u64 {
        self.r
    }
    fn stride(&self) -> u64 {
        self.s
    }
    fn count(&self) -> u64 {
        self.n
    }
    fn inner(&self) -> &[Self] {
        &self.inner
    }
}

impl Raw {
    fn leaf(l: u64, r: u64, s: u64, n: u64) -> Self {
        Self { l, r, s, n, inner: Vec::new() }
    }

    fn from_nested(nf: &NestedFalls) -> Self {
        let f = nf.falls();
        Self {
            l: f.l(),
            r: f.r(),
            s: f.stride(),
            n: f.count(),
            inner: nf.inner().iter().map(Raw::from_nested).collect(),
        }
    }
}

/// Adds one to `hits[x]` for every byte `x` the tree selects, read
/// literally (no containment assumed). `false` when a byte falls outside
/// `hits` or the arithmetic leaves the test's small range.
fn count_bytes(f: &Raw, base: u64, hits: &mut [u8]) -> bool {
    if f.l > f.r || f.n > hits.len() as u64 {
        return false;
    }
    for k in 0..f.n {
        let start = k.checked_mul(f.s).and_then(|o| o.checked_add(base)?.checked_add(f.l));
        let Some(start) = start else { return false };
        if f.inner.is_empty() {
            let Some(bytes) = start
                .checked_add(f.r - f.l)
                .and_then(|end| hits.get_mut(start as usize..=end as usize))
            else {
                return false;
            };
            for h in bytes {
                *h = h.saturating_add(1);
            }
        } else if !f.inner.iter().all(|c| count_bytes(c, start, hits)) {
            return false;
        }
    }
    true
}

/// The oracle: every byte of `[0, extent)` selected exactly once, none
/// outside.
fn tiles_bytewise(elements: &[Vec<Raw>], extent: u64) -> bool {
    let mut hits = vec![0u8; extent as usize];
    elements.iter().flatten().all(|f| count_bytes(f, 0, &mut hits)) && hits.iter().all(|&h| h == 1)
}

fn proven(elements: &[Vec<Raw>], extent: u64) -> bool {
    prove_tiling(elements.iter().flatten(), extent, WORK_BUDGET).is_some()
}

/// A random hierarchically aligned tiling of `[0, extent)` among `p`
/// elements: the extent is cut into `n` equal strides, each stride into a
/// few pieces, and every piece is either one element's leaf or a nest
/// whose block is tiled the same way one level down.
fn aligned_tiling(g: &mut Gen, extent: u64, depth: usize, p: usize) -> Vec<Vec<Raw>> {
    let mut out = vec![Vec::new(); p];
    let n = [1, 2, 3, 4][g.below(4) as usize];
    let (s, n) = if extent % n == 0 { (extent / n, n) } else { (extent, 1) };
    let mut lo = 0u64;
    while lo < s {
        let hi = if g.chance(1, 3) { s - 1 } else { g.range(lo, s - 1) };
        if depth > 0 && hi > lo && g.chance(1, 2) {
            let children = aligned_tiling(g, hi - lo + 1, depth - 1, p);
            for (e, inner) in children.into_iter().enumerate() {
                if !inner.is_empty() {
                    out[e].push(Raw { l: lo, r: hi, s, n, inner });
                }
            }
        } else {
            out[g.below(p as u64) as usize].push(Raw::leaf(lo, hi, s, n));
        }
        lo = hi + 1;
    }
    out
}

/// The node at pre-order position `at` of a forest.
fn node_mut<'a>(fams: &'a mut [Raw], at: &mut u64) -> Option<&'a mut Raw> {
    for f in fams {
        if *at == 0 {
            return Some(f);
        }
        *at -= 1;
        if let Some(hit) = node_mut(&mut f.inner, at) {
            return Some(hit);
        }
    }
    None
}

fn node_count(fams: &[Raw]) -> u64 {
    fams.iter().map(|f| 1 + node_count(&f.inner)).sum()
}

/// One edit of each mutation class the audit's suite knows: displaced or
/// resized blocks, off-by-one stride and count, a duplicated or dropped
/// family, a family (leaf or nest) copied under its identical shape into
/// another element.
fn mutate(g: &mut Gen, elements: &mut [Vec<Raw>]) {
    let e = g.below(elements.len() as u64) as usize;
    if elements[e].is_empty() {
        return;
    }
    let kind = g.below(12);
    if kind == 11 {
        let f = elements[e][g.below(elements[e].len() as u64) as usize].clone();
        let other = (e + 1) % elements.len();
        elements[other].push(f);
        return;
    }
    let mut at = g.below(node_count(&elements[e]));
    let Some(f) = node_mut(&mut elements[e], &mut at) else { return };
    match kind {
        0 => f.l = f.l.wrapping_add(1),
        1 => f.l = f.l.wrapping_sub(1),
        2 => f.r = f.r.wrapping_add(1),
        3 => f.r = f.r.wrapping_sub(1),
        4 => f.s = f.s.wrapping_add(1),
        5 => f.s = f.s.wrapping_sub(1),
        6 => f.n += 1,
        7 => f.n = f.n.saturating_sub(1),
        8 => (f.l, f.r) = (f.l.wrapping_add(1), f.r.wrapping_add(1)),
        9 => {
            if let Some(c) = f.inner.first().cloned() {
                f.inner.push(c);
            }
        }
        _ => {
            f.inner.pop();
        }
    }
}

#[test]
fn aligned_tilings_are_proven_and_their_mutants_never_wrongly() {
    let mut g = Gen::new(0x7111_1246);
    let (mut mutants, mut rejected) = (0u32, 0u32);
    for _ in 0..400 {
        let extent = g.range(1, 96);
        let p = g.range(1, 4) as usize;
        let base = aligned_tiling(&mut g, extent, 3, p);
        assert!(tiles_bytewise(&base, extent), "generator broke: {base:?}");
        assert!(proven(&base, extent), "aligned tiling of {extent} not proven: {base:?}");
        for _ in 0..24 {
            let mut m = base.clone();
            for _ in 0..g.range(1, 2) {
                mutate(&mut g, &mut m);
            }
            mutants += 1;
            if proven(&m, extent) {
                assert!(tiles_bytewise(&m, extent), "unsound on {m:?} over {extent}");
            } else {
                rejected += 1;
            }
        }
    }
    // The mutations must bite, or the loop above proves nothing.
    assert!(rejected * 2 > mutants, "only {rejected} of {mutants} mutants were rejected");
}

#[test]
fn random_element_lists_are_never_wrongly_proven() {
    let mut g = Gen::new(0x5EED_0F11);
    let (mut accepted, mut tilings) = (0u32, 0u32);
    for round in 0..3000 {
        let extent = g.range(4, 160);
        let set = random_nested_set(&mut g, extent, 3);
        let mut elements: Vec<Vec<Raw>> =
            vec![set.families().iter().map(Raw::from_nested).collect()];
        if round % 3 == 0 {
            // A second unrelated selection: almost never a tiling.
            let other = random_nested_set(&mut g, extent, 3);
            elements.push(other.families().iter().map(Raw::from_nested).collect());
        } else {
            // Selection plus complement: always a tiling, aligned or not.
            let comp = set.complement(extent);
            elements.push(comp.families().iter().map(Raw::from_nested).collect());
        }
        let oracle = tiles_bytewise(&elements, extent);
        tilings += u32::from(oracle);
        if proven(&elements, extent) {
            assert!(oracle, "unsound on {elements:?} over {extent}");
            accepted += 1;
        }
    }
    // Both outcomes occur among true tilings: some are proven, some (a nest
    // beside a flat complement) are left to the enumeration.
    assert!(accepted > 0 && accepted < tilings, "{accepted} proven of {tilings} tilings");
}

#[test]
fn malformed_quadruples_give_up_instead_of_wrapping() {
    let big = u64::MAX;
    for f in [
        Raw::leaf(5, 3, 6, 1),         // inverted
        Raw::leaf(0, big, 1, 1),       // block length 2^64
        Raw::leaf(0, 1, big, 3),       // k·s overflows
        Raw::leaf(big - 1, big, 4, 2), // l + k·s overflows
        Raw::leaf(0, 1, 2, 0),         // selects nothing
        Raw::leaf(0, 1, 2, big),       // n alone exceeds any budget
    ] {
        assert!(!proven(&[vec![f]], 2));
    }
    // A one-block family's stride is ignored, whatever it says.
    assert!(proven(&[vec![Raw::leaf(0, 1, 999, 1), Raw::leaf(2, 3, 0, 1)]], 4));
}
