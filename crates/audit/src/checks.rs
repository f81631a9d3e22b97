//! The analyzer: structural, tiling and pathology checks over one pattern
//! period.
//!
//! The audit runs in three phases:
//!
//! 1. **Structural** — every family in every element is checked for the
//!    single-FALLS invariants (PA001–PA005), nesting containment (PA010),
//!    sibling order (PA011) and element non-emptiness (PA013). All
//!    arithmetic is checked; anything that would exceed the 64-bit offset
//!    range is reported as PA005 instead of wrapping.
//! 2. **Tiling** — only when phase 1 found no errors. The elements must
//!    cover `[0, SIZE)` exactly once. This is first *proven from the
//!    description* ([`falls::tiling`]): families are grouped by outer shape
//!    `(l, r, s, n)`, the children of a group must tile its block (one
//!    recursive step per group, not per repetition), and the groups' outer
//!    segments are swept for exact cover. A proof costs one unit of work
//!    per distinct shape for a regular distribution and `Σ n` over the
//!    shapes at worst, whatever the period is, and a proven pattern is done.
//!    *Not proven* is not a verdict — a broken pattern, a valid tiling whose
//!    elements factor the same bytes differently, and an exhausted budget
//!    all end there — so the period's segments are then *enumerated* (never
//!    byte-by-byte), sorted and swept: that pass decides, and it alone
//!    words the diagnostics: holes are PA020, double-claimed bytes are
//!    PA012 (within one element) or PA021 (across elements).
//! 3. **Pathology** — warnings for patterns that are technically valid but
//!    operationally hostile: a period beyond the budget that the proof did
//!    not cover, so nothing verified its tiling (PA030), and full
//!    single-byte fragmentation (PA031, read off the description when the
//!    proof succeeds).
//!
//! Both tiling passes are bounded by [`AuditConfig::period_budget`], which
//! counts *work*, not bytes that happen to be in the period: every segment
//! holds at least one byte, so enumerating a period of at most
//! `period_budget` bytes lists at most that many segments, and the proof —
//! tried first on every pattern, so a failed attempt is pure overhead — may
//! list `period_budget / PROOF_SHARE` outer segments before it gives up.

use crate::diag::{AuditReport, Code, Diagnostic, Span};
use crate::raw::{RawElement, RawFalls, RawPattern};
use falls::tiling::prove_tiling;
use falls::{checked_lcm, checked_size};

/// Default period budget: patterns whose period exceeds this many bytes get
/// a PA030 warning instead of tiling verification, unless the structural
/// proof covers them.
pub const DEFAULT_PERIOD_BUDGET: u64 = 1 << 22;

/// The structural proof may list one outer segment per this many units of
/// the period budget. It is tried before every enumeration, so a failed
/// attempt is pure overhead: this share keeps it near 0.1 % of the
/// enumeration the same budget allows, and a budget too small to afford one
/// segment of proof leaves every over-budget period unverified (PA030).
const PROOF_SHARE: u64 = 1024;

/// Tunable limits for an audit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Work the tiling phase may spend on one pattern, in listed segments:
    /// the largest period (in bytes, hence in segments) that is enumerated,
    /// and `PROOF_SHARE` times the outer segments the structural proof may
    /// list. Also bounds the aligned period of a pair.
    pub period_budget: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { period_budget: DEFAULT_PERIOD_BUDGET }
    }
}

impl AuditConfig {
    /// A config with an explicit period budget.
    #[must_use]
    pub fn with_budget(period_budget: u64) -> Self {
        Self { period_budget }
    }
}

/// What the structural pass learns about one family (sizes and extents are
/// exact, computed with checked arithmetic).
struct Shape {
    /// Bytes selected by the family (SIZE).
    size: u64,
    /// Last offset reachable by the family, relative to its parent's block
    /// start.
    extent_end: u64,
}

/// Audits a single pattern: structure, tiling and pathologies.
#[must_use]
pub fn audit_pattern(pattern: &RawPattern, cfg: &AuditConfig) -> AuditReport {
    let mut report = AuditReport::default();
    let Some(total) = check_structure(pattern, &mut report) else { return report };

    let families = pattern.elements.iter().flat_map(|e| &e.families);
    if let Some(proof) = prove_tiling(families, total, cfg.period_budget / PROOF_SHARE) {
        check_fragmentation(proof.segments, proof.single_bytes, &mut report);
        return report;
    }

    if total > cfg.period_budget {
        report.push(Diagnostic::new(
            Code::PeriodBudget,
            Span::pattern(),
            format!(
                "pattern period is {total} bytes, over the {} byte budget; \
                 tiling not verified",
                cfg.period_budget
            ),
        ));
        return report;
    }

    check_tiling(pattern, total, &mut report);
    report
}

/// Phase 1 over the whole pattern. Returns the period — the sum of the
/// element sizes — when no error was found, `None` otherwise (a diagnostic
/// has been pushed).
fn check_structure(pattern: &RawPattern, report: &mut AuditReport) -> Option<u64> {
    if pattern.elements.is_empty() {
        report.push(Diagnostic::new(
            Code::EmptyElement,
            Span::pattern(),
            "pattern has no elements",
        ));
        return None;
    }

    let mut sizes = Vec::with_capacity(pattern.elements.len());
    for (e, elem) in pattern.elements.iter().enumerate() {
        sizes.push(check_element(elem, e, report));
    }
    if report.has_errors() {
        // Sizes or bounds are unreliable; tiling verification would either
        // repeat the structural findings or overflow.
        return None;
    }

    let mut total = 0u64;
    // A missing size came with an error diagnostic and returned above.
    for size in sizes.into_iter().flatten() {
        total = match total.checked_add(size) {
            Some(t) => t,
            None => {
                report.push(Diagnostic::new(
                    Code::Overflow,
                    Span::pattern(),
                    "sum of element sizes exceeds the 64-bit offset range",
                ));
                return None;
            }
        };
    }
    Some(total)
}

/// Audits the *pair-level* properties of two patterns: whether their aligned
/// period `lcm(SIZE(P1), SIZE(P2))` is representable (PA032) and within the
/// budget (PA030). Each pattern should additionally be audited on its own
/// with [`audit_pattern`].
#[must_use]
pub fn audit_pair(p1: &RawPattern, p2: &RawPattern, cfg: &AuditConfig) -> AuditReport {
    let mut report = AuditReport::default();
    let (Some(size1), Some(size2)) = (quiet_size(p1), quiet_size(p2)) else {
        report.push(Diagnostic::new(
            Code::Overflow,
            Span::pattern(),
            "a pattern size is not computable; audit each pattern individually",
        ));
        return report;
    };
    match checked_lcm(size1, size2) {
        None => report.push(Diagnostic::new(
            Code::PeriodOverflow,
            Span::pattern(),
            format!(
                "aligned period lcm({size1}, {size2}) exceeds the 64-bit \
                 offset range"
            ),
        )),
        Some(period) if period > cfg.period_budget => report.push(Diagnostic::new(
            Code::PeriodBudget,
            Span::pattern(),
            format!(
                "aligned period lcm({size1}, {size2}) = {period} bytes, over \
                 the {} byte budget",
                cfg.period_budget
            ),
        )),
        Some(_) => {}
    }
    report
}

/// Pattern size without emitting diagnostics; `None` when the structure is
/// broken or the size overflows.
fn quiet_size(pattern: &RawPattern) -> Option<u64> {
    let mut scratch = AuditReport::default();
    let mut total = 0u64;
    for (e, elem) in pattern.elements.iter().enumerate() {
        total = total.checked_add(check_element(elem, e, &mut scratch)?)?;
    }
    if scratch.has_errors() {
        return None;
    }
    Some(total)
}

/// Structural pass over one element. Returns the element size when every
/// family checks out, `None` otherwise (a diagnostic has been pushed).
fn check_element(elem: &RawElement, e: usize, report: &mut AuditReport) -> Option<u64> {
    let span = Span::element(e);
    if elem.families.is_empty() {
        report.push(Diagnostic::new(
            Code::EmptyElement,
            span,
            "element has no families (selects no bytes)",
        ));
        return None;
    }
    check_sibling_order(&elem.families, &span, report);
    let mut total = 0u64;
    let mut ok = true;
    for (i, fam) in elem.families.iter().enumerate() {
        match check_family(fam, &span.child(i), report) {
            Some(shape) => match total.checked_add(shape.size) {
                Some(t) => total = t,
                None => {
                    report.push(Diagnostic::new(
                        Code::Overflow,
                        Span::element(e),
                        "sum of family sizes exceeds the 64-bit offset range",
                    ));
                    ok = false;
                }
            },
            None => ok = false,
        }
    }
    ok.then_some(total)
}

/// PA011: siblings at any level must be sorted by left index.
fn check_sibling_order(siblings: &[RawFalls], parent: &Span, report: &mut AuditReport) {
    for (i, pair) in siblings.windows(2).enumerate() {
        if pair[1].l < pair[0].l {
            report.push(Diagnostic::new(
                Code::UnorderedSiblings,
                parent.child(i + 1),
                format!(
                    "sibling starts at {} but the previous sibling starts at \
                     {}",
                    pair[1].l, pair[0].l
                ),
            ));
        }
    }
}

/// Structural pass over one family (recursing into inner families).
///
/// Returns the family's shape when it is well-formed; `None` when any check
/// failed (every `None` path pushes at least one error diagnostic).
fn check_family(f: &RawFalls, span: &Span, report: &mut AuditReport) -> Option<Shape> {
    let mut ok = true;

    let block = match f.block_len() {
        Some(b) => Some(b),
        None => {
            if f.l > f.r {
                report.push(Diagnostic::new(
                    Code::InvertedSegment,
                    span.clone(),
                    format!("segment has l = {} > r = {}", f.l, f.r),
                ));
            } else {
                report.push(Diagnostic::new(
                    Code::Overflow,
                    span.clone(),
                    "block length r − l + 1 exceeds the 64-bit offset range",
                ));
            }
            ok = false;
            None
        }
    };

    if f.n == 0 {
        report.push(Diagnostic::new(
            Code::ZeroCount,
            span.clone(),
            "family has n = 0 segments (selects nothing)",
        ));
        ok = false;
    }

    if f.n > 1 {
        if f.s == 0 {
            report.push(Diagnostic::new(
                Code::ZeroStride,
                span.clone(),
                format!("family repeats {} segments with stride 0", f.n),
            ));
            ok = false;
        } else if let Some(b) = block {
            if f.s < b {
                report.push(Diagnostic::new(
                    Code::OverlappingBlocks,
                    span.clone(),
                    format!(
                        "stride {} is smaller than the block length {}, so \
                         consecutive segments overlap",
                        f.s, b
                    ),
                ));
                ok = false;
            }
        }
    }

    // Children first: their shapes feed the containment check and the size.
    check_sibling_order(&f.inner, span, report);
    let mut shapes = Vec::with_capacity(f.inner.len());
    for (i, child) in f.inner.iter().enumerate() {
        shapes.push(check_family(child, &span.child(i), report));
    }

    if let Some(b) = block {
        for (i, shape) in shapes.iter().enumerate() {
            if let Some(shape) = shape {
                if shape.extent_end >= b {
                    report.push(Diagnostic::new(
                        Code::InnerEscape,
                        span.child(i),
                        format!(
                            "inner family reaches offset {} but the parent \
                             block ends at {}",
                            shape.extent_end,
                            b - 1
                        ),
                    ));
                    ok = false;
                }
            } else {
                ok = false;
            }
        }
    } else {
        ok = false;
    }

    let (true, Some(block)) = (ok, block) else { return None };

    // Bytes per block: the block itself for a leaf, the inner selection for
    // a nested family.
    let per_block = if f.inner.is_empty() {
        block
    } else {
        let mut sum = 0u64;
        for shape in shapes.iter().flatten() {
            sum = match sum.checked_add(shape.size) {
                Some(s) => s,
                None => {
                    report.push(Diagnostic::new(
                        Code::Overflow,
                        span.clone(),
                        "sum of inner sizes exceeds the 64-bit offset range",
                    ));
                    return None;
                }
            };
        }
        sum
    };

    let Some(size) = checked_size(f.n, per_block) else {
        report.push(Diagnostic::new(
            Code::Overflow,
            span.clone(),
            format!("family size {} × {per_block} exceeds the 64-bit offset range", f.n),
        ));
        return None;
    };

    // Last reachable offset: l + (n − 1)·s + block − 1. n ≥ 1 here.
    let extent_end = (f.n - 1)
        .checked_mul(f.s)
        .and_then(|span_off| f.l.checked_add(span_off))
        .and_then(|last_l| last_l.checked_add(block - 1));
    let Some(extent_end) = extent_end else {
        report.push(Diagnostic::new(
            Code::Overflow,
            span.clone(),
            format!(
                "family extent {} + {}·{} + {} − 1 exceeds the 64-bit offset \
                 range",
                f.l,
                f.n - 1,
                f.s,
                block
            ),
        ));
        return None;
    };

    Some(Shape { size, extent_end })
}

/// One enumerated segment, tagged with the element that claims it.
struct TaggedSegment {
    l: u64,
    r: u64,
    element: usize,
}

/// Phase 2 + 3 when the structural proof did not succeed: enumerate every
/// segment of one period and verify exact coverage of `[0, total)`; then
/// scan for single-byte fragmentation.
///
/// Only called after the structural pass found no errors, so all offsets are
/// known to fit in `u64` and plain arithmetic is safe.
fn check_tiling(pattern: &RawPattern, total: u64, report: &mut AuditReport) {
    let mut segs: Vec<TaggedSegment> = Vec::new();
    for (e, elem) in pattern.elements.iter().enumerate() {
        for fam in &elem.families {
            collect_segments(fam, 0, e, &mut segs);
        }
    }
    segs.sort_unstable_by_key(|s| (s.l, s.r));

    let mut expect = 0u64;
    let mut prev_element = usize::MAX;
    for seg in &segs {
        if seg.l > expect {
            report.push(Diagnostic::new(
                Code::Gap,
                Span::pattern(),
                format!("no element covers bytes [{}, {}]", expect, seg.l - 1),
            ));
            break;
        }
        if seg.l < expect {
            // `seg` re-claims bytes already covered by the previous segment.
            let (code, span) = if seg.element == prev_element {
                (Code::SiblingOverlap, Span::element(seg.element))
            } else {
                (Code::ElementOverlap, Span::pattern())
            };
            report.push(Diagnostic::new(
                code,
                span,
                format!(
                    "byte {} is claimed twice (elements {} and {})",
                    seg.l, prev_element, seg.element
                ),
            ));
            break;
        }
        expect = seg.r + 1;
        prev_element = seg.element;
    }
    if !report.has_errors() && expect != total {
        report.push(Diagnostic::new(
            Code::Gap,
            Span::pattern(),
            if expect < total {
                format!("no element covers bytes [{expect}, {}]", total - 1)
            } else {
                format!(
                    "coverage reaches byte {} but the pattern period is only \
                     {total} bytes",
                    expect - 1
                )
            },
        ));
    }

    check_fragmentation(segs.len() as u64, segs.iter().all(|s| s.l == s.r), report);
}

/// PA031: maximal fragmentation. Only meaningful for patterns with enough
/// segments that per-segment overhead dominates.
fn check_fragmentation(segments: u64, single_bytes: bool, report: &mut AuditReport) {
    const FRAGMENTATION_FLOOR: u64 = 16;
    if segments >= FRAGMENTATION_FLOOR && single_bytes {
        report.push(Diagnostic::new(
            Code::OneByteSegments,
            Span::pattern(),
            format!(
                "all {segments} segments of the period are single bytes — worst-case \
                 fragmentation for gather/scatter"
            ),
        ));
    }
}

/// Enumerates the absolute segments of `f` (repetition by repetition,
/// recursing into inner families) into `out`.
fn collect_segments(f: &RawFalls, base: u64, element: usize, out: &mut Vec<TaggedSegment>) {
    let block = f.r - f.l + 1;
    for k in 0..f.n {
        let start = base + f.l + k * f.s;
        if f.inner.is_empty() {
            out.push(TaggedSegment { l: start, r: start + block - 1, element });
        } else {
            for child in &f.inner {
                collect_segments(child, start, element, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(elements: Vec<RawElement>) -> RawPattern {
        RawPattern::new(elements)
    }

    fn elem(families: Vec<RawFalls>) -> RawElement {
        RawElement::new(families)
    }

    /// Figure 3 of the paper: three 2-byte blocks tiling a 6-byte period.
    fn figure3() -> RawPattern {
        pattern(vec![
            elem(vec![RawFalls::leaf(0, 1, 6, 1)]),
            elem(vec![RawFalls::leaf(2, 3, 6, 1)]),
            elem(vec![RawFalls::leaf(4, 5, 6, 1)]),
        ])
    }

    fn cfg() -> AuditConfig {
        AuditConfig::default()
    }

    #[test]
    fn figure3_audits_clean() {
        let report = audit_pattern(&figure3(), &cfg());
        assert!(report.is_clean(), "unexpected diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn nested_interleaved_pattern_audits_clean() {
        // Two elements with interleaved multi-segment families over [0, 16).
        let p = pattern(vec![
            elem(vec![RawFalls::leaf(0, 1, 8, 2), RawFalls::leaf(6, 7, 8, 2)]),
            elem(vec![RawFalls::leaf(2, 3, 8, 2), RawFalls::leaf(4, 5, 8, 2)]),
        ]);
        assert!(audit_pattern(&p, &cfg()).is_clean());
    }

    #[test]
    fn nested_family_audits_clean() {
        // Figure 2's nested family (0,3,8,2,{(0,0,2,2)}) plus its complement
        // segments, tiling [0, 16).
        let p = pattern(vec![
            elem(vec![RawFalls::nested(0, 3, 8, 2, vec![RawFalls::leaf(0, 0, 2, 2)])]),
            elem(vec![RawFalls::leaf(1, 1, 8, 2), RawFalls::leaf(3, 7, 8, 2)]),
        ]);
        let report = audit_pattern(&p, &cfg());
        assert!(report.is_clean(), "unexpected diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn inverted_segment_is_pa001() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(5, 3, 6, 1)])]);
        let report = audit_pattern(&p, &cfg());
        assert!(report.has_code(Code::InvertedSegment));
        assert!(report.has_errors());
    }

    #[test]
    fn zero_count_is_pa002() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 1, 6, 0)])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::ZeroCount));
    }

    #[test]
    fn zero_stride_is_pa003() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 1, 0, 3)])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::ZeroStride));
    }

    #[test]
    fn short_stride_is_pa004() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 3, 2, 2)])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::OverlappingBlocks));
    }

    #[test]
    fn extent_overflow_is_pa005() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(u64::MAX - 1, u64::MAX, 4, 2)])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::Overflow));
    }

    #[test]
    fn inner_escape_is_pa010() {
        // Parent block is 4 bytes; the inner family reaches offset 5.
        let p = pattern(vec![elem(vec![RawFalls::nested(
            0,
            3,
            8,
            2,
            vec![RawFalls::leaf(2, 5, 6, 1)],
        )])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::InnerEscape));
    }

    #[test]
    fn unordered_siblings_is_pa011() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(4, 5, 8, 1), RawFalls::leaf(0, 1, 8, 1)])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::UnorderedSiblings));
    }

    #[test]
    fn sibling_overlap_is_pa012() {
        // Interleaved families whose segments collide at byte 3 with no gap
        // before the collision, so the overlap is the first anomaly seen.
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 3, 8, 2), RawFalls::leaf(3, 6, 8, 2)])]);
        let report = audit_pattern(&p, &cfg());
        assert!(report.has_code(Code::SiblingOverlap), "{:?}", report.diagnostics);
    }

    #[test]
    fn empty_element_is_pa013() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 1, 2, 1)]), elem(vec![])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::EmptyElement));
        assert!(audit_pattern(&pattern(vec![]), &cfg()).has_code(Code::EmptyElement));
    }

    #[test]
    fn gap_is_pa020() {
        let p = pattern(vec![
            elem(vec![RawFalls::leaf(0, 1, 6, 1)]),
            elem(vec![RawFalls::leaf(4, 5, 6, 1)]),
        ]);
        let report = audit_pattern(&p, &cfg());
        assert!(report.has_code(Code::Gap), "{:?}", report.diagnostics);
    }

    #[test]
    fn pattern_not_starting_at_zero_is_pa020() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(1, 2, 2, 1)])]);
        assert!(audit_pattern(&p, &cfg()).has_code(Code::Gap));
    }

    #[test]
    fn element_overlap_is_pa021() {
        let p = pattern(vec![
            elem(vec![RawFalls::leaf(0, 3, 6, 1)]),
            elem(vec![RawFalls::leaf(2, 5, 6, 1)]),
        ]);
        let report = audit_pattern(&p, &cfg());
        assert!(report.has_code(Code::ElementOverlap), "{:?}", report.diagnostics);
    }

    #[test]
    fn period_over_budget_is_pa030_warning() {
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 1023, 1024, 1)])]);
        let report = audit_pattern(&p, &AuditConfig::with_budget(512));
        assert!(report.has_code(Code::PeriodBudget));
        assert!(!report.has_errors());
        // The same pattern under the default budget is clean.
        assert!(audit_pattern(&p, &cfg()).is_clean());
    }

    #[test]
    fn one_byte_segments_is_pa031_warning() {
        // Two perfectly interleaved single-byte combs: valid tiling of
        // [0, 16) out of 16 one-byte segments.
        let p = pattern(vec![
            elem(vec![RawFalls::leaf(0, 0, 2, 8)]),
            elem(vec![RawFalls::leaf(1, 1, 2, 8)]),
        ]);
        let report = audit_pattern(&p, &cfg());
        assert!(report.has_code(Code::OneByteSegments), "{:?}", report.diagnostics);
        assert!(!report.has_errors());
    }

    #[test]
    fn small_one_byte_patterns_not_flagged() {
        // Figure 3 scaled down: few segments, no fragmentation warning.
        let p = pattern(vec![
            elem(vec![RawFalls::leaf(0, 0, 2, 1)]),
            elem(vec![RawFalls::leaf(1, 1, 2, 1)]),
        ]);
        assert!(audit_pattern(&p, &cfg()).is_clean());
    }

    #[test]
    fn pair_period_overflow_is_pa032() {
        let big1 = 1u64 << 63;
        let big2 = (1u64 << 63) - 1;
        let p1 = pattern(vec![elem(vec![RawFalls::leaf(0, big1 - 1, big1, 1)])]);
        let p2 = pattern(vec![elem(vec![RawFalls::leaf(0, big2 - 1, big2, 1)])]);
        let report = audit_pair(&p1, &p2, &cfg());
        assert!(report.has_code(Code::PeriodOverflow), "{:?}", report.diagnostics);
    }

    #[test]
    fn pair_period_over_budget_warns() {
        let p1 = pattern(vec![elem(vec![RawFalls::leaf(0, 1023, 1024, 1)])]);
        let p2 = pattern(vec![elem(vec![RawFalls::leaf(0, 1024, 1025, 1)])]);
        let report = audit_pair(&p1, &p2, &AuditConfig::with_budget(1 << 16));
        assert!(report.has_code(Code::PeriodBudget));
        assert!(!report.has_errors());
    }

    #[test]
    fn pair_of_matching_patterns_is_clean() {
        assert!(audit_pair(&figure3(), &figure3(), &cfg()).is_clean());
    }

    /// The report of the enumeration alone, as every audit ran before the
    /// structural proof existed.
    fn audit_by_enumeration(p: &RawPattern) -> AuditReport {
        let mut report = AuditReport::default();
        if let Some(total) = check_structure(p, &mut report) {
            check_tiling(p, total, &mut report);
        }
        report
    }

    /// Applies one seed-derived edit to one node of the pattern.
    fn mutate(p: &mut RawPattern, g: &mut falls::testing::Gen) {
        let e = g.below(p.elements.len() as u64) as usize;
        if g.chance(1, 8) {
            let copy = p.elements[e].clone();
            p.elements.push(copy);
            return;
        }
        let mut fams = &mut p.elements[e].families;
        loop {
            let i = g.below(fams.len() as u64) as usize;
            if fams[i].inner.is_empty() || g.chance(1, 2) {
                let f = &mut fams[i];
                match g.below(8) {
                    0 => f.l += 1,
                    1 => f.l = f.l.saturating_sub(1),
                    2 => f.r += 1,
                    3 => f.s += 1,
                    4 => f.s = f.s.saturating_sub(1),
                    5 => f.n += 1,
                    6 => f.n = f.n.saturating_sub(1),
                    _ => {
                        let copy = f.clone();
                        fams.insert(i + 1, copy);
                    }
                }
                return;
            }
            fams = &mut fams[i].inner;
        }
    }

    /// Under the period budget the proof changes nothing anyone can see:
    /// on valid and on broken patterns alike, the report (codes, spans,
    /// messages) is the one the enumeration words.
    #[test]
    fn reports_are_those_of_the_enumeration() {
        use arraydist::dist::{ArrayDistribution, DimDist};
        use arraydist::grid::ProcGrid;
        use falls::testing::{random_nested_set, Gen};

        let mut g = Gen::new(0xA0D1_7000);
        let mut bases = Vec::new();
        for _ in 0..150 {
            let span = g.range(8, 200);
            let set = random_nested_set(&mut g, span, 3);
            let comp = set.complement(span);
            let mut elements = vec![RawElement::from_set(&set)];
            if !comp.is_empty() {
                elements.push(RawElement::from_set(&comp));
            }
            bases.push(pattern(elements));
        }
        for (rows, cols) in
            [(DimDist::Cyclic, DimDist::Cyclic), (DimDist::BlockCyclic(3), DimDist::Block)]
        {
            let d = ArrayDistribution::new(
                vec![10, 14],
                1,
                vec![rows, cols],
                ProcGrid::new(vec![2, 2]),
            );
            bases.push(RawPattern::from_partition(&d.partition(0)));
        }
        let (mut proven, mut errors) = (0u32, 0u32);
        for base in &bases {
            for round in 0..12 {
                let mut p = base.clone();
                for _ in 0..round.min(2) {
                    mutate(&mut p, &mut g);
                }
                let report = audit_pattern(&p, &cfg());
                assert_eq!(report, audit_by_enumeration(&p), "on {p:?}");
                errors += u32::from(report.has_errors());
                if let Some(total) = check_structure(&p, &mut AuditReport::default()) {
                    let families = p.elements.iter().flat_map(|e| &e.families);
                    let budget = cfg().period_budget / PROOF_SHARE;
                    proven += u32::from(prove_tiling(families, total, budget).is_some());
                }
            }
        }
        // Both paths were taken, on both kinds of pattern.
        assert!(proven > 100 && errors > 100, "{proven} proven, {errors} with errors");
    }

    #[test]
    fn structural_errors_suppress_tiling_noise() {
        // A broken family: only the structural diagnostic fires, not a
        // cascade of gap/overlap findings derived from garbage sizes.
        let p = pattern(vec![elem(vec![RawFalls::leaf(0, 1, 0, 3)])]);
        let report = audit_pattern(&p, &cfg());
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.has_code(Code::ZeroStride));
    }
}
