//! Patterns whose period is over the enumeration budget: the structural
//! proof verifies the regular ones, and whatever it cannot prove is still
//! reported as unverified (PA030) — never as clean.

use arraydist::dist::{ArrayDistribution, DimDist};
use arraydist::grid::ProcGrid;
use parafile_audit::{audit_pattern, AuditConfig, Code, RawPattern, DEFAULT_PERIOD_BUDGET};

/// A 4096×4096-byte matrix, `CYCLIC(64)×CYCLIC(64)` on a 2×2 grid: 16 MiB,
/// four times the default period budget.
fn cyclic_16mib() -> RawPattern {
    let cyclic = DimDist::BlockCyclic(64);
    let d = ArrayDistribution::new(vec![4096, 4096], 1, vec![cyclic; 2], ProcGrid::new(vec![2, 2]));
    assert!(d.total_bytes() > DEFAULT_PERIOD_BUDGET);
    RawPattern::from_partition(&d.partition(0))
}

#[test]
fn regular_view_over_the_period_budget_is_verified() {
    let report = audit_pattern(&cyclic_16mib(), &AuditConfig::default());
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

#[test]
fn broken_view_over_the_period_budget_is_still_unverified() {
    let mut p = cyclic_16mib();
    // One column family of one element starts a byte late: every one of
    // its blocks leaves a one-byte hole.
    let columns = &mut p.elements[1].families[0].inner[0].inner[0];
    assert!(columns.inner.is_empty());
    columns.l += 1;
    let report = audit_pattern(&p, &AuditConfig::default());
    assert!(report.has_code(Code::PeriodBudget), "{:?}", report.diagnostics);
    assert!(!report.is_clean());
}
