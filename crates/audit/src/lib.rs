//! `parafile-audit` — a static verifier for partitioning patterns.
//!
//! The paper's machinery (mapping functions, INTERSECT, redistribution
//! plans) is only correct for patterns that satisfy the model invariants:
//! every FALLS well-formed, inner families contained in their parent's
//! block, siblings ordered and disjoint, and the elements tiling exactly
//! one period `[0, SIZE)`. The library constructors enforce those
//! invariants by rejecting bad input outright — useful in production,
//! but opaque: callers learn *that* a pattern is broken, not *what* is
//! broken or *where*.
//!
//! This crate re-checks the invariants symbolically over a single pattern
//! period and reports every violation as a structured [`Diagnostic`] with a
//! stable code (`PA001`–`PA032`), a severity, a [`Span`] addressing the
//! offending element/family, and a message carrying the offending numbers.
//! Exact tiling is first *proven from the description* — `falls::tiling`
//! groups families by outer shape and recurses once per shape, so a regular
//! view costs microseconds whatever its period — and only a pattern the
//! proof does not cover (broken, or tiled without hierarchical alignment)
//! has its period's segments enumerated, which is also where every tiling
//! diagnostic is worded. It also flags patterns that are valid but
//! pathological: periods beyond a configurable budget that the proof did
//! not cover (nothing verified their tiling, and they would blow up
//! aligned-period computations) and maximal single-byte fragmentation.
//!
//! The analyzer consumes [`RawFalls`]/[`RawElement`]/[`RawPattern`] trees
//! that mirror the validated types field-for-field but carry no invariants,
//! so deliberately broken structures (e.g. in mutation tests) can be
//! expressed. Validated [`Partition`]s convert losslessly via
//! [`RawPattern::from_partition`] or the [`audit_partition`] convenience.
//!
//! ```
//! use parafile_audit::{audit_pattern, AuditConfig, Code, RawElement, RawFalls, RawPattern};
//!
//! // Two elements that leave bytes [2, 3] uncovered.
//! let broken = RawPattern::new(vec![
//!     RawElement::new(vec![RawFalls::leaf(0, 1, 6, 1)]),
//!     RawElement::new(vec![RawFalls::leaf(4, 5, 6, 1)]),
//! ]);
//! let report = audit_pattern(&broken, &AuditConfig::default());
//! assert!(report.has_code(Code::Gap));
//! ```

#![forbid(unsafe_code)]

// The audit runs on untrusted patterns from every `SetView`: bad input is a
// diagnostic, never a panic.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod checks;
mod diag;
mod raw;

pub use checks::{audit_pair, audit_pattern, AuditConfig, DEFAULT_PERIOD_BUDGET};
pub use diag::{AuditReport, Code, Diagnostic, Severity, Span};
pub use raw::{RawElement, RawFalls, RawPattern};

use parafile::model::Partition;

/// Audits a validated [`Partition`] (convenience wrapper around
/// [`RawPattern::from_partition`] + [`audit_pattern`]).
///
/// A validated partition should always pass the structural and tiling
/// checks; this entry point exists to surface *pathology* warnings (PA030,
/// PA031) and as a defense-in-depth cross-check of the constructors.
#[must_use]
pub fn audit_partition(partition: &Partition, cfg: &AuditConfig) -> AuditReport {
    audit_pattern(&RawPattern::from_partition(partition), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use falls::{Falls, NestedFalls, NestedSet};
    use parafile::model::PartitionPattern;

    #[test]
    fn validated_partition_audits_clean() {
        let pattern = PartitionPattern::new(vec![
            NestedSet::singleton(NestedFalls::leaf(Falls::new(0, 1, 6, 1).unwrap())),
            NestedSet::singleton(NestedFalls::leaf(Falls::new(2, 5, 6, 1).unwrap())),
        ])
        .unwrap();
        let partition = Partition::new(4, pattern);
        let report = audit_partition(&partition, &AuditConfig::default());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }
}
