//! End-to-end checks of the `parafile-lint` binary: exit codes and the
//! `--json` report schema.
//!
//! The JSON schema asserted here is the machine-readable contract CI and
//! downstream tooling consume: a top-level array of
//! `{target, report: {errors, warnings, diagnostics: [{code, severity,
//! span, message}]}}`.

use jsonlite::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parafile-lint"))
        .args(args)
        .output()
        .expect("run parafile-lint")
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pf-lint-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn write(&self, rel: &str, content: &str) -> String {
        let path = self.0.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create parent dirs");
        }
        std::fs::write(&path, content).expect("write temp file");
        path.to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts one `{target, report}` object against the schema and returns
/// the diagnostic codes it carries.
fn check_target_schema(target: &Json) -> Vec<String> {
    let report = target.get("report").expect("report field");
    assert!(target.get("target").and_then(Json::as_str).is_some(), "target is a string");
    let errors = report.get("errors").and_then(Json::as_u64).expect("errors count");
    let warnings = report.get("warnings").and_then(Json::as_u64).expect("warnings count");
    let diags = report.get("diagnostics").and_then(Json::as_array).expect("diagnostics array");
    let mut seen_errors = 0;
    let mut seen_warnings = 0;
    let mut codes = Vec::new();
    for d in diags {
        let code = d.get("code").and_then(Json::as_str).expect("code string");
        assert!(
            code.starts_with("PA") && code.len() == 5,
            "codes are stable PAxxx identifiers, got {code:?}"
        );
        match d.get("severity").and_then(Json::as_str).expect("severity string") {
            "error" => seen_errors += 1,
            "warning" => seen_warnings += 1,
            other => panic!("unknown severity {other:?}"),
        }
        assert!(d.get("span").and_then(Json::as_str).is_some(), "span is a string");
        assert!(d.get("message").and_then(Json::as_str).is_some(), "message is a string");
        codes.push(code.to_owned());
    }
    assert_eq!(errors, seen_errors, "errors field counts error diagnostics");
    assert_eq!(warnings, seen_warnings, "warnings field counts warning diagnostics");
    codes
}

const BROKEN_PATTERN: &str = r#"{
  "elements": [
    [ { "l": 0, "r": 1, "s": 6, "n": 1 } ],
    [ { "l": 4, "r": 5, "s": 6, "n": 1 } ]
  ]
}"#;

#[test]
fn json_report_schema_is_stable_for_pattern_audits() {
    let dir = TempDir::new("pattern");
    let part = dir.write("broken.json", BROKEN_PATTERN);
    let out = lint(&["--json", &part]);
    assert_eq!(out.status.code(), Some(1), "errors exit 1");
    let json = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON output");
    let targets = json.as_array().expect("top-level array");
    assert_eq!(targets.len(), 1);
    let codes = check_target_schema(&targets[0]);
    assert!(codes.iter().any(|c| c == "PA020"), "the gap fires PA020: {codes:?}");
}

#[test]
fn usage_errors_exit_2() {
    // The linter audits patterns only (the code's own rules are clippy
    // lints): `--source` is an unknown option like any other.
    let out = lint(&["--source", "crates/net/src/mux.rs"]);
    assert_eq!(out.status.code(), Some(2), "--source is an unknown option");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option \"--source\""));
    let out = lint(&["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
}
