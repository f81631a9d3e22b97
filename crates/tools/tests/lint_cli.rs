//! End-to-end checks of the `parafile-lint` binary: exit codes, the
//! `--json` report schema, and the `--source` pass over real files.
//!
//! The JSON schema asserted here is the machine-readable contract CI and
//! downstream tooling consume: a top-level array of
//! `{target, report: {errors, warnings, diagnostics: [{code, severity,
//! span, message}]}}` — the same shape for pattern audits and source
//! lints.

use jsonlite::Json;
use parafile_audit::SourceConfig;
use std::path::{Path, PathBuf};
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
fn source_mode_reports_hot_path_findings_in_the_same_schema() {
    let dir = TempDir::new("source");
    // The path suffix makes the file a configured hot path.
    let hot = dir
        .write("net/src/server.rs", "pub fn serve(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
    let out = lint(&["--json", "--source", &hot]);
    assert_eq!(out.status.code(), Some(1), "hot-path unwrap exits 1");
    let json = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON output");
    let targets = json.as_array().expect("top-level array");
    assert_eq!(targets.len(), 1);
    let codes = check_target_schema(&targets[0]);
    assert!(codes.iter().any(|c| c == "PA040"), "unwrap fires PA040: {codes:?}");
}

#[test]
fn source_mode_passes_clean_files_and_non_hot_paths() {
    let dir = TempDir::new("clean");
    // Same content, but not a configured hot path: unwrap is allowed.
    let cold = dir.write(
        "helpers/src/misc.rs",
        "pub fn helper(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let out = lint(&["--source", &cold]);
    assert_eq!(out.status.code(), Some(0), "non-hot paths are exempt");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK"), "clean targets print OK: {stdout}");
}

#[test]
fn source_mode_wants_a_safety_comment_on_every_unsafe_block() {
    let dir = TempDir::new("unsafe-block");
    // A file allowed `unsafe`, but the block has no argument above it.
    let sys = dir.write(
        "net/src/reactor/sys.rs",
        "#![allow(unsafe_code)]\nfn close_fd(fd: i32) {\n    unsafe { close(fd) };\n}\n",
    );
    let out = lint(&["--json", "--source", &sys]);
    assert_eq!(out.status.code(), Some(1), "an undocumented unsafe block exits 1");
    let json = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON output");
    let codes = check_target_schema(&json.as_array().expect("top-level array")[0]);
    assert_eq!(codes, ["PA047"], "only the block fires");
    let documented = dir.write(
        "net/src/reactor/sys.rs",
        "#![allow(unsafe_code)]\nfn close_fd(fd: i32) {\n    // SAFETY: `fd` is ours.\n    \
         unsafe { close(fd) };\n}\n",
    );
    assert_eq!(lint(&["--source", &documented]).status.code(), Some(0));
}

#[test]
fn source_mode_confines_allow_unsafe_code_to_its_two_files() {
    let dir = TempDir::new("unsafe-allow");
    let elsewhere = dir.write("net/src/wire.rs", "#[allow(unsafe_code)]\nmod fast {}\n");
    let out = lint(&["--json", "--source", &elsewhere]);
    assert_eq!(out.status.code(), Some(1), "allow(unsafe_code) outside the list exits 1");
    let json = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON output");
    let codes = check_target_schema(&json.as_array().expect("top-level array")[0]);
    assert_eq!(codes, ["PA047"]);
    let listed = dir.write("core/src/crc.rs", "#[allow(unsafe_code)]\nmod hw {}\n");
    assert_eq!(lint(&["--source", &listed]).status.code(), Some(0));
}

#[test]
fn source_mode_runs_clean_over_the_repo_hot_paths() {
    // The tree itself must satisfy the source lints over every file the
    // canonical configuration names; CI's source-lint step is this test.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir").to_path_buf();
    let files = SourceConfig::parafile_defaults().files();
    let args: Vec<String> = std::iter::once("--source".to_owned())
        .chain(files.iter().map(|p| root.join(p).to_string_lossy().into_owned()))
        .collect();
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = lint(&arg_refs);
    assert_eq!(
        out.status.code(),
        Some(0),
        "repo hot paths lint clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = lint(&["--source"]);
    assert_eq!(out.status.code(), Some(2), "--source with no files is a usage error");
    let out = lint(&["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
}
