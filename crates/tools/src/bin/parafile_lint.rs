//! `parafile-lint` — audit partition descriptions for model violations and
//! pathologies.
//!
//! ```text
//! parafile-lint <part.json>...            # audit partition files ('-' = stdin)
//! parafile-lint --pair <a.json> <b.json>  # also check the pair's aligned period
//! parafile-lint --scenarios               # audit the paper's built-in layouts
//! ```
//!
//! Options: `--json` for machine-readable reports, `--budget <bytes>` to
//! change the period budget (default 4 MiB).
//!
//! Unlike `pf`, the linter audits the *raw* spec tree: a file describing a
//! broken pattern produces diagnostics (with `PAxxx` codes), not a parse
//! refusal. Exit code is 1 when any error-severity diagnostic fires, 0 when
//! the targets are clean or carry only warnings, and 2 on usage or I/O
//! problems.

use arraydist::matrix::MatrixLayout;
use jsonlite::{obj, Json, ToJson};
use parafile_audit::{
    audit_pair, audit_partition, audit_pattern, AuditConfig, AuditReport, RawElement, RawFalls,
    RawPattern,
};
use pf_tools::{read_input, FallsSpec, PartitionSpec, ToolError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("parafile-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> ToolError {
    ToolError::Spec(
        "usage: parafile-lint [--json] [--budget <bytes>] \
         (<part.json>... | --pair <a.json> <b.json> | --scenarios)"
            .into(),
    )
}

/// One audited target: where the pattern came from and what the audit found.
struct Outcome {
    target: String,
    report: AuditReport,
}

fn run(args: &[String]) -> Result<bool, ToolError> {
    let mut json_output = false;
    let mut budget: Option<u64> = None;
    let mut scenarios = false;
    let mut pair = false;
    let mut files: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_output = true,
            "--scenarios" => scenarios = true,
            "--pair" => pair = true,
            "--budget" => {
                let v = it
                    .next()
                    .ok_or_else(|| ToolError::Spec("--budget needs a byte count".into()))?;
                budget = Some(v.parse().map_err(|_| {
                    ToolError::Spec(format!("--budget must be a number, got {v:?}"))
                })?);
            }
            "-h" | "--help" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(ToolError::Spec(format!("unknown option {other:?}")))
            }
            other => files.push(other.to_owned()),
        }
    }

    let cfg = budget.map_or_else(AuditConfig::default, AuditConfig::with_budget);

    let outcomes = if scenarios {
        if !files.is_empty() || pair {
            return Err(usage());
        }
        audit_scenarios(&cfg)
    } else if pair {
        if files.len() != 2 {
            return Err(ToolError::Spec("--pair needs exactly two files".into()));
        }
        let a = load_raw(&files[0])?;
        let b = load_raw(&files[1])?;
        vec![
            Outcome { target: files[0].clone(), report: audit_pattern(&a, &cfg) },
            Outcome { target: files[1].clone(), report: audit_pattern(&b, &cfg) },
            Outcome {
                target: format!("pair({}, {})", files[0], files[1]),
                report: audit_pair(&a, &b, &cfg),
            },
        ]
    } else {
        if files.is_empty() {
            return Err(usage());
        }
        let mut out = Vec::with_capacity(files.len());
        for f in &files {
            let raw = load_raw(f)?;
            out.push(Outcome { target: f.clone(), report: audit_pattern(&raw, &cfg) });
        }
        out
    };

    let clean = !outcomes.iter().any(|o| o.report.has_errors());
    if json_output {
        let targets: Vec<Json> = outcomes
            .iter()
            .map(|o| obj![("target", o.target.as_str()), ("report", o.report.to_json())])
            .collect();
        println!("{}", Json::Array(targets).render_pretty());
    } else {
        for o in &outcomes {
            if o.report.is_clean() {
                println!("OK    {}", o.target);
            } else {
                let kind = if o.report.has_errors() { "FAIL" } else { "WARN" };
                println!("{kind}  {}", o.target);
                for d in &o.report.diagnostics {
                    println!("      {d}");
                }
            }
        }
        let errors: usize = outcomes.iter().map(|o| o.report.error_count()).sum();
        let warnings: usize = outcomes.iter().map(|o| o.report.warning_count()).sum();
        println!("{} target(s) audited: {errors} error(s), {warnings} warning(s)", outcomes.len());
    }
    Ok(clean)
}

/// Loads a partition file as a raw (unvalidated) pattern tree.
///
/// Explicit `elements` specs go straight to the raw tree so that invalid
/// structures survive to the analyzer; the `matrix` shorthand is lowered
/// through the (always valid) generator.
fn load_raw(path: &str) -> Result<RawPattern, ToolError> {
    let spec = PartitionSpec::parse(&read_input(path)?)?;
    if spec.matrix.is_some() {
        return Ok(RawPattern::from_partition(&spec.to_partition()?));
    }
    Ok(RawPattern {
        displacement: spec.displacement,
        elements: spec
            .elements
            .iter()
            .map(|fams| RawElement::new(fams.iter().map(raw_falls).collect()))
            .collect(),
    })
}

fn raw_falls(spec: &FallsSpec) -> RawFalls {
    RawFalls {
        l: spec.l,
        r: spec.r,
        s: spec.s,
        n: spec.n,
        inner: spec.inner.iter().map(raw_falls).collect(),
    }
}

/// Audits the paper's built-in matrix layouts: every physical layout at a
/// sweep of sizes, plus each (logical row-block, physical) pair used by the
/// redistribution experiment.
fn audit_scenarios(cfg: &AuditConfig) -> Vec<Outcome> {
    let mut out = Vec::new();
    for dim in [64u64, 256, 1024] {
        for procs in [4u64, 16] {
            for layout in MatrixLayout::all() {
                let part = layout.partition(dim, dim, 1, procs);
                out.push(Outcome {
                    target: format!("matrix {dim}×{dim} p={procs} layout={}", layout.label()),
                    report: audit_partition(&part, cfg),
                });
            }
            // The experiment redistributes a row-block logical view onto
            // each physical layout; check the pairs' aligned periods too.
            let logical =
                RawPattern::from_partition(&MatrixLayout::RowBlocks.partition(dim, dim, 1, procs));
            for layout in MatrixLayout::all() {
                let physical = RawPattern::from_partition(&layout.partition(dim, dim, 1, procs));
                out.push(Outcome {
                    target: format!(
                        "pair {dim}×{dim} p={procs} logical=r physical={}",
                        layout.label()
                    ),
                    report: audit_pair(&logical, &physical, cfg),
                });
            }
        }
    }
    out
}
