//! Structured findings: codes, severities, spans into the FALLS tree, and
//! the report aggregating them.

use jsonlite::{obj, Json, ToJson};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The pattern is structurally usable but pathological.
    Warning,
    /// The pattern violates a model invariant and must not be used.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes, one per detectable defect class.
///
/// The `PA00x` range covers single-family invariants, `PA01x` nesting and
/// element structure, `PA02x` tiling of the whole pattern, and `PA03x`
/// pathologies (period blow-up, degenerate fragmentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// PA001 — a segment with `l > r`.
    InvertedSegment,
    /// PA002 — a family with `n = 0`, which selects nothing.
    ZeroCount,
    /// PA003 — a multi-segment family with stride 0 (no progress).
    ZeroStride,
    /// PA004 — a multi-segment family whose stride is smaller than its
    /// block, so consecutive segments overlap.
    OverlappingBlocks,
    /// PA005 — an extent or size computation exceeds the 64-bit offset
    /// range.
    Overflow,
    /// PA010 — an inner family reaches past its parent's block.
    InnerEscape,
    /// PA011 — sibling families not sorted by left index.
    UnorderedSiblings,
    /// PA012 — sibling families overlap.
    SiblingOverlap,
    /// PA013 — an element (or the whole pattern) that selects no bytes.
    EmptyElement,
    /// PA020 — the elements leave a hole inside `[0, size)`.
    Gap,
    /// PA021 — two elements claim the same byte.
    ElementOverlap,
    /// PA030 — the pattern period exceeds the configured budget and the
    /// structural proof did not cover it, so its tiling is unverified; or
    /// the aligned period of a pair exceeds the budget.
    PeriodBudget,
    /// PA031 — every segment of a non-trivial pattern is a single byte:
    /// worst-case fragmentation for gather/scatter.
    OneByteSegments,
    /// PA032 — the aligned period `lcm(SIZE(P₁), SIZE(P₂))` of a pattern
    /// pair overflows, so the pair cannot be redistributed symbolically.
    PeriodOverflow,
}

impl Code {
    /// The stable `PAxxx` identifier.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::InvertedSegment => "PA001",
            Code::ZeroCount => "PA002",
            Code::ZeroStride => "PA003",
            Code::OverlappingBlocks => "PA004",
            Code::Overflow => "PA005",
            Code::InnerEscape => "PA010",
            Code::UnorderedSiblings => "PA011",
            Code::SiblingOverlap => "PA012",
            Code::EmptyElement => "PA013",
            Code::Gap => "PA020",
            Code::ElementOverlap => "PA021",
            Code::PeriodBudget => "PA030",
            Code::OneByteSegments => "PA031",
            Code::PeriodOverflow => "PA032",
        }
    }

    /// The severity this code always carries.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::PeriodBudget | Code::OneByteSegments => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A position inside a partitioning pattern: which element, and the path of
/// sibling indices from the element's top-level families down the nesting
/// tree.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Element index, when the finding concerns one element.
    pub element: Option<usize>,
    /// Sibling index at each nesting depth, outermost first.
    pub path: Vec<usize>,
}

impl Span {
    /// The whole pattern.
    #[must_use]
    pub fn pattern() -> Self {
        Self::default()
    }

    /// A whole element.
    #[must_use]
    pub fn element(e: usize) -> Self {
        Self { element: Some(e), path: Vec::new() }
    }

    /// A family inside an element, addressed by its nesting path.
    #[must_use]
    pub fn family(e: usize, path: Vec<usize>) -> Self {
        Self { element: Some(e), path }
    }

    /// Extends the path one level deeper.
    #[must_use]
    pub fn child(&self, idx: usize) -> Self {
        let mut path = self.path.clone();
        path.push(idx);
        Self { element: self.element, path }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.element {
            None => f.write_str("pattern"),
            Some(e) => {
                write!(f, "element {e}")?;
                for (depth, idx) in self.path.iter().enumerate() {
                    if depth == 0 {
                        write!(f, ", family {idx}")?;
                    } else {
                        write!(f, " › inner {idx}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// One finding: a code, its severity, where in the tree it sits, and a
/// human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable defect class.
    pub code: Code,
    /// Error or warning (always `code.severity()`).
    pub severity: Severity,
    /// Where in the pattern the defect sits.
    pub span: Span,
    /// Human-readable message with the offending numbers.
    pub message: String,
}

impl Diagnostic {
    /// Builds a finding; severity is derived from the code.
    #[must_use]
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Self { code, severity: code.severity(), span, message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] at {}: {}", self.severity, self.code, self.span, self.message)
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        obj![
            ("code", self.code.as_str()),
            ("severity", self.severity.to_string().as_str()),
            ("span", self.span.to_string().as_str()),
            ("message", self.message.as_str())
        ]
    }
}

/// Every finding of one audit run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All findings, in discovery order (structural before tiling before
    /// pathology).
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// No findings at all — errors or warnings.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of errors.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warnings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Whether a given code fired.
    #[must_use]
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }
}

impl ToJson for AuditReport {
    fn to_json(&self) -> Json {
        obj![
            ("errors", self.error_count()),
            ("warnings", self.warning_count()),
            ("diagnostics", self.diagnostics.clone())
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::InvertedSegment,
            Code::ZeroCount,
            Code::ZeroStride,
            Code::OverlappingBlocks,
            Code::Overflow,
            Code::InnerEscape,
            Code::UnorderedSiblings,
            Code::SiblingOverlap,
            Code::EmptyElement,
            Code::Gap,
            Code::ElementOverlap,
            Code::PeriodBudget,
            Code::OneByteSegments,
            Code::PeriodOverflow,
        ];
        let mut strs: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), all.len());
        for c in all {
            assert!(c.as_str().starts_with("PA"));
        }
    }

    #[test]
    fn spans_render_paths() {
        assert_eq!(Span::pattern().to_string(), "pattern");
        assert_eq!(Span::element(2).to_string(), "element 2");
        assert_eq!(Span::family(1, vec![0, 3]).to_string(), "element 1, family 0 › inner 3");
        assert_eq!(Span::element(0).child(4).to_string(), "element 0, family 4");
    }

    #[test]
    fn report_counts_and_json() {
        let mut r = AuditReport::default();
        assert!(r.is_clean());
        r.push(Diagnostic::new(Code::Gap, Span::pattern(), "hole at 3"));
        r.push(Diagnostic::new(Code::PeriodBudget, Span::pattern(), "big"));
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_code(Code::Gap));
        assert!(!r.has_code(Code::Overflow));
        let json = r.to_json();
        assert_eq!(json.get("errors").and_then(|v| v.as_u64()), Some(1));
        let diags = json.get("diagnostics").and_then(|v| v.as_array()).unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("code").and_then(|v| v.as_str()), Some("PA020"));
    }
}
