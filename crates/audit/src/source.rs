//! Source-level lints (`PA040`–`PA059` range) over the workspace's own
//! hot-path code.
//!
//! The FALLS checks audit *data* (partitioning patterns); this pass
//! audits the *code* that serves them, enforcing the daemon's coding
//! discipline:
//!
//! * **PA040/PA041** — no `.unwrap()`/`.expect(`/`panic!`-family macros
//!   on daemon, session, or journal hot paths: a panic there severs
//!   every connection on the thread or wedges a worker, so hot paths
//!   must return typed errors.
//! * **PA042** — worker queues use bounded `sync_channel`s only, so a
//!   stalled daemon back-pressures the submitter instead of buffering
//!   without limit.
//! * **PA044** — `#[must_use]` coverage in designated API files for
//!   public functions whose ignored return value would be a silent bug
//!   (`Result`/`Option` returns pass inherently — the compiler already
//!   tracks those).
//! * **PA045** — a `// pa:allow(PAxxx)` waiver that suppresses nothing
//!   is stale and warns, so waivers cannot silently outlive the code
//!   they excused.
//! * **PA046** — no blocking calls (`thread::sleep`, blocking `std::net`
//!   connects, read/write-timeout dials) inside the reactor or
//!   reactor-driven state machines: the event loop multiplexes every
//!   connection over a few threads, so one blocked thread stalls them
//!   all. Deliberate off-loop blocking (e.g. a connect helper thread)
//!   carries a `pa:allow(PA046)` waiver.
//! * **PA047** — every `unsafe` block, `fn` or `impl` is directly
//!   preceded by its safety argument (a `// SAFETY:` comment, or a
//!   `# Safety` doc section), and `allow(unsafe_code)` appears only in the
//!   files allowed `unsafe` at all, so the crates' `deny(unsafe_code)`
//!   cannot be opened quietly somewhere else.
//!
//! The pass is deliberately token-level (comments and string literals
//! are stripped, `#[cfg(test)]` modules are skipped), not a full parse:
//! it is a discipline lint with a waiver escape hatch, not a type
//! system. Findings carry `file:line` in their message and anchor their
//! [`Span`] at the whole pattern.

use crate::diag::{AuditReport, Code, Diagnostic, Span};

/// Which files each source lint applies to.
///
/// Paths are matched by suffix (`path.ends_with`), so callers can pass
/// absolute or repo-relative paths interchangeably.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Files on the daemon/session/journal hot path: PA040/PA041 apply.
    pub hot_paths: Vec<String>,
    /// Files whose worker queues must be bounded: PA042 applies.
    pub bounded_only: Vec<String>,
    /// Files requiring `#[must_use]` coverage: PA044 applies.
    pub must_use_files: Vec<String>,
    /// Reactor and reactor-driven state-machine files: PA046 bans
    /// blocking calls (`thread::sleep`, blocking `std::net` connects,
    /// read/write-timeout dials) that would stall the event loop.
    pub reactor_files: Vec<String>,
    /// The only files allowed `allow(unsafe_code)`: PA047 flags it
    /// anywhere else.
    pub unsafe_files: Vec<String>,
}

impl SourceConfig {
    /// The workspace's canonical configuration: the daemon/session
    /// request paths with their deadline, retry-budget and breaker state,
    /// the receive buffer that splits untrusted socket bytes into frames
    /// and the codec that decodes them, the write-ahead journal, the
    /// replication layer
    /// (replica placement math, per-segment checksum map), the pattern
    /// audit with its tiling verifier (run on untrusted bytes in every
    /// `SetView`), and the projection walk (run on wire bounds in every
    /// `Write`/`Read`) are hot, and so are the mux transport and the
    /// reactor daemon, whose panics would take down the event loop;
    /// session worker queues are bounded-only, the reactor, mux
    /// transport, and reactor daemon are blocking-free, and
    /// `unsafe` is allowed only in the reactor's syscall shim and the CRC
    /// kernel's instruction path.
    #[must_use]
    pub fn parafile_defaults() -> Self {
        let own = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect();
        Self {
            hot_paths: own(&[
                "net/src/server.rs",
                "net/src/session.rs",
                "net/src/proto.rs",
                "net/src/wire.rs",
                "net/src/wire/framebuf.rs",
                "net/src/resilience.rs",
                "clusterfile/src/journal.rs",
                "clusterfile/src/checksum.rs",
                "clusterfile/src/storage.rs",
                "core/src/crc.rs",
                "replica/src/lib.rs",
                "audit/src/checks.rs",
                "falls/src/tiling.rs",
                "core/src/redist/project.rs",
                "net/src/mux.rs",
                "net/src/server/reactor_daemon.rs",
            ]),
            bounded_only: own(&["net/src/session.rs"]),
            must_use_files: own(&["net/src/proto.rs", "replica/src/lib.rs"]),
            reactor_files: own(&[
                "net/src/reactor/mod.rs",
                "net/src/reactor/sys.rs",
                "net/src/reactor/wheel.rs",
                "net/src/mux.rs",
                "net/src/server/reactor_daemon.rs",
            ]),
            unsafe_files: own(&["net/src/reactor/sys.rs", "core/src/crc.rs"]),
        }
    }

    /// Every file some list names, sorted and deduplicated: the set a
    /// `--source` run over the workspace lints.
    #[must_use]
    pub fn files(&self) -> Vec<String> {
        let mut all: Vec<String> = [
            &self.hot_paths,
            &self.bounded_only,
            &self.must_use_files,
            &self.reactor_files,
            &self.unsafe_files,
        ]
        .into_iter()
        .flatten()
        .cloned()
        .collect();
        all.sort();
        all.dedup();
        all
    }

    fn applies(list: &[String], path: &str) -> bool {
        list.iter().any(|s| path.ends_with(s.as_str()))
    }
}

/// One raw finding before waiver filtering.
struct Finding {
    line: usize,
    code: Code,
    message: String,
}

/// A `// pa:allow(PAxxx)` waiver comment.
struct Waiver {
    line: usize,
    code_str: String,
    used: bool,
}

/// Strips line comments and the contents of string/char literals so
/// token matching cannot fire inside prose. Literal delimiters are kept,
/// their contents replaced by spaces.
fn strip_line(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            if c == '\\' {
                out.push(' ');
                if chars.next().is_some() {
                    out.push(' ');
                }
            } else if c == '"' {
                in_string = false;
                out.push('"');
            } else {
                out.push(' ');
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            '\'' => {
                // A char literal ('x', '\n', '\''); lifetimes ('a) have no
                // closing quote nearby and pass through untouched.
                let rest: String = chars.clone().take(3).collect();
                if let Some(close) = rest.find('\'') {
                    out.push('\'');
                    for _ in 0..close {
                        chars.next();
                        out.push(' ');
                    }
                    chars.next();
                    out.push('\'');
                } else {
                    out.push('\'');
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// Marks every line inside a `#[cfg(test)]` module (brace-balanced from
/// the module's opening line).
fn test_region(lines: &[String]) -> Vec<bool> {
    let mut excluded = vec![false; lines.len()];
    let mut pending_cfg = false;
    let mut depth_in_tests: Option<i64> = None;
    for (i, line) in lines.iter().enumerate() {
        if let Some(depth) = depth_in_tests.as_mut() {
            excluded[i] = true;
            *depth += brace_delta(line);
            if *depth <= 0 {
                depth_in_tests = None;
            }
            continue;
        }
        if line.contains("#[cfg(test)]") {
            pending_cfg = true;
            continue;
        }
        if pending_cfg {
            if line.trim().is_empty() || line.trim_start().starts_with("#[") {
                continue;
            }
            if line.contains("mod ") {
                excluded[i] = true;
                let d = brace_delta(line);
                if d > 0 {
                    depth_in_tests = Some(d);
                }
            }
            pending_cfg = false;
        }
    }
    excluded
}

fn brace_delta(line: &str) -> i64 {
    let mut d = 0i64;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Whether `needle` occurs in `hay` bounded by non-identifier characters.
fn word_match(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = after;
    }
    None
}

/// Lints one source file, returning every finding as a structured report.
///
/// `path` is used for file matching (which lints apply) and in messages;
/// `text` is the file contents.
#[must_use]
pub fn audit_source(path: &str, text: &str, cfg: &SourceConfig) -> AuditReport {
    let raw_lines: Vec<&str> = text.lines().collect();
    let lines: Vec<String> = raw_lines.iter().map(|l| strip_line(l)).collect();
    let excluded = test_region(&lines);

    let mut findings: Vec<Finding> = Vec::new();
    let mut waivers: Vec<Waiver> = Vec::new();

    // Collect waivers from the raw text (they live in comments).
    for (i, raw) in raw_lines.iter().enumerate() {
        let mut rest = *raw;
        while let Some(at) = rest.find("pa:allow(") {
            let tail = &rest[at + "pa:allow(".len()..];
            if let Some(close) = tail.find(')') {
                waivers.push(Waiver {
                    line: i + 1,
                    code_str: tail[..close].trim().to_string(),
                    used: false,
                });
                rest = &tail[close..];
            } else {
                break;
            }
        }
    }

    let hot = SourceConfig::applies(&cfg.hot_paths, path);
    let bounded = SourceConfig::applies(&cfg.bounded_only, path);
    let must_use = SourceConfig::applies(&cfg.must_use_files, path);
    let reactor = SourceConfig::applies(&cfg.reactor_files, path);
    let may_allow_unsafe = SourceConfig::applies(&cfg.unsafe_files, path);

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        if excluded[i] {
            continue;
        }
        if hot {
            for needle in [".unwrap()", ".expect("] {
                if line.contains(needle) {
                    findings.push(Finding {
                        line: lineno,
                        code: Code::UnwrapOnHotPath,
                        message: format!(
                            "{path}:{lineno}: `{needle}` on a hot path; return a typed error instead"
                        ),
                    });
                }
            }
            for needle in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
                if line.contains(needle) {
                    findings.push(Finding {
                        line: lineno,
                        code: Code::PanicOnHotPath,
                        message: format!(
                            "{path}:{lineno}: `{needle}..)` on a hot path; answer a typed error instead of aborting"
                        ),
                    });
                }
            }
        }
        if reactor {
            for needle in [
                "thread::sleep",
                "TcpStream::connect",
                "UnixStream::connect",
                "NetStream::connect",
                ".set_read_timeout(",
                ".set_write_timeout(",
            ] {
                if line.contains(needle) {
                    findings.push(Finding {
                        line: lineno,
                        code: Code::BlockingInReactor,
                        message: format!(
                            "{path}:{lineno}: blocking `{needle}` inside reactor-driven code; \
                             one blocked thread stalls every connection multiplexed behind it"
                        ),
                    });
                }
            }
        }
        if let Some(what) = unsafe_item(line) {
            if !has_safety_comment(&raw_lines, &lines, i) {
                findings.push(Finding {
                    line: lineno,
                    code: Code::UnjustifiedUnsafe,
                    message: format!(
                        "{path}:{lineno}: `unsafe` {what} without a `// SAFETY:` comment or \
                         `# Safety` section directly above it"
                    ),
                });
            }
        }
        if line.contains("allow(unsafe_code)") && !may_allow_unsafe {
            findings.push(Finding {
                line: lineno,
                code: Code::UnjustifiedUnsafe,
                message: format!(
                    "{path}:{lineno}: `allow(unsafe_code)` outside the files allowed `unsafe` ({})",
                    cfg.unsafe_files.join(", ")
                ),
            });
        }
        if bounded && line.contains("mpsc::channel") {
            findings.push(Finding {
                line: lineno,
                code: Code::UnboundedChannel,
                message: format!(
                    "{path}:{lineno}: unbounded `mpsc::channel`; worker queues must use a bounded `sync_channel`"
                ),
            });
        }

        // #[must_use] coverage for value-returning public APIs.
        if must_use {
            let trimmed = line.trim_start();
            if trimmed.starts_with("pub fn ") {
                if let Some(arrow) = trimmed.find("-> ") {
                    let ret = trimmed[arrow + 3..].trim().trim_end_matches('{').trim();
                    let exempt = ret.is_empty()
                        || ret.starts_with("()")
                        || ret.contains("Result")
                        || ret.contains("Option");
                    if !exempt && !has_must_use_above(&lines, i) {
                        findings.push(Finding {
                            line: lineno,
                            code: Code::MissingMustUse,
                            message: format!(
                                "{path}:{lineno}: public fn returning `{ret}` without `#[must_use]`"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Apply waivers: a waiver suppresses matching findings on its own
    // line or the line below it.
    let mut report = AuditReport::default();
    for f in findings {
        let mut suppressed = false;
        for w in &mut waivers {
            if w.code_str == f.code.as_str() && (w.line == f.line || w.line + 1 == f.line) {
                w.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            report.push(Diagnostic::new(f.code, Span::pattern(), f.message));
        }
    }
    for w in &waivers {
        if !w.used {
            report.push(Diagnostic::new(
                Code::StaleWaiver,
                Span::pattern(),
                format!(
                    "{path}:{}: waiver `pa:allow({})` suppressed nothing; remove it",
                    w.line, w.code_str
                ),
            ));
        }
    }
    report
}

/// If the (stripped) `line` opens an `unsafe` block, `fn` or `impl`,
/// which of the three.
fn unsafe_item(line: &str) -> Option<&'static str> {
    let at = word_match(line, "unsafe")?;
    let rest = line[at + "unsafe".len()..].trim_start();
    if rest.starts_with('{') {
        Some("block")
    } else if word_match(rest, "fn") == Some(0) {
        Some("fn")
    } else if word_match(rest, "impl") == Some(0) {
        Some("impl")
    } else {
        None
    }
}

/// Whether the comment block directly above the statement that line `i`
/// belongs to carries a `SAFETY:` comment or a `# Safety` section.
/// Attributes may interleave; a statement continued from the lines above
/// (`let rc =` then `unsafe { … }`) is climbed to its first line.
fn has_safety_comment(raw: &[&str], stripped: &[String], i: usize) -> bool {
    let continues = |code: &str| {
        let code = code.trim_end();
        !code.trim().is_empty() && !code.ends_with([';', '{', '}', ','])
    };
    let mut j = i;
    while j > 0 && continues(&stripped[j - 1]) && !raw[j - 1].trim_start().starts_with("#[") {
        j -= 1;
    }
    while j > 0 {
        j -= 1;
        let t = raw[j].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") || t.contains("# Safety") {
                return true;
            }
        } else if !t.starts_with("#[") {
            return false;
        }
    }
    false
}

/// Whether an attribute block immediately above line `i` carries
/// `#[must_use]` (doc comments and other attributes may interleave).
fn has_must_use_above(lines: &[String], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("#[") || t.starts_with("///") || t.is_empty() {
            if t.contains("#[must_use]") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SourceConfig {
        SourceConfig::parafile_defaults()
    }

    fn run(path: &str, text: &str) -> AuditReport {
        audit_source(path, text, &cfg())
    }

    #[test]
    fn pa040_fires_on_hot_path_unwrap_and_passes_when_typed() {
        let fire = run("crates/net/src/server.rs", "fn f() { x.unwrap(); y.expect(\"boom\"); }\n");
        assert_eq!(
            fire.diagnostics.iter().filter(|d| d.code == Code::UnwrapOnHotPath).count(),
            2,
            "{:?}",
            fire.diagnostics
        );
        let pass = run(
            "crates/net/src/server.rs",
            "fn f() -> Result<(), E> { let v = x.ok_or(E::Bad)?; Ok(v) }\n",
        );
        assert!(!pass.has_code(Code::UnwrapOnHotPath), "{:?}", pass.diagnostics);
        // Not a hot-path file: the same text passes.
        let elsewhere = run("crates/tools/src/bin/pf.rs", "fn f() { x.unwrap(); }\n");
        assert!(!elsewhere.has_code(Code::UnwrapOnHotPath));
    }

    #[test]
    fn pa040_ignores_tests_strings_and_comments() {
        let text = "\
fn f() {
    let s = \"call .unwrap() later\"; // never .unwrap() here
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
";
        let r = run("crates/net/src/server.rs", text);
        assert!(!r.has_code(Code::UnwrapOnHotPath), "{:?}", r.diagnostics);
    }

    #[test]
    fn replica_hot_paths_inherit_unwrap_checks() {
        // The replication layer is hot-path code: PA040 applies to the
        // replica crate and the checksum map — and to the frame splitter,
        // which parses bytes straight off the network.
        for path in [
            "crates/replica/src/lib.rs",
            "crates/clusterfile/src/checksum.rs",
            "crates/net/src/wire/framebuf.rs",
        ] {
            let r = run(path, "fn f() { x.unwrap(); }\n");
            assert!(r.has_code(Code::UnwrapOnHotPath), "{path}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn pa041_fires_on_panic_family_and_passes_on_typed_errors() {
        let fire =
            run("crates/net/src/session.rs", "fn f() { unreachable!(\"dispatched on opcode\") }\n");
        assert!(fire.has_code(Code::PanicOnHotPath), "{:?}", fire.diagnostics);
        let pass = run("crates/net/src/session.rs", "fn f() -> E { E::Internal }\n");
        assert!(!pass.has_code(Code::PanicOnHotPath));
    }

    #[test]
    fn pa042_fires_on_unbounded_channel_and_passes_on_sync_channel() {
        let fire = run("crates/net/src/session.rs", "let (tx, rx) = mpsc::channel::<Job>();\n");
        assert!(fire.has_code(Code::UnboundedChannel), "{:?}", fire.diagnostics);
        let pass = run(
            "crates/net/src/session.rs",
            "let (tx, rx) = mpsc::sync_channel::<Job>(WORKER_QUEUE_DEPTH);\n",
        );
        assert!(!pass.has_code(Code::UnboundedChannel), "{:?}", pass.diagnostics);
    }

    #[test]
    fn pa044_fires_without_must_use_and_passes_with_it() {
        let fire = "pub fn version(&self) -> u8 {\n    self.version\n}\n";
        let r = run("crates/net/src/proto.rs", fire);
        assert!(r.has_code(Code::MissingMustUse), "{:?}", r.diagnostics);
        let pass = "#[must_use]\npub fn version(&self) -> u8 {\n    self.version\n}\n";
        let r = run("crates/net/src/proto.rs", pass);
        assert!(!r.has_code(Code::MissingMustUse), "{:?}", r.diagnostics);
        // Result/Option returns pass inherently (the compiler tracks them,
        // and clippy rejects the doubled attribute).
        let result = "pub fn accept(&mut self) -> Result<Progress, Violation> {\n";
        let r = run("crates/net/src/proto.rs", result);
        assert!(!r.has_code(Code::MissingMustUse), "{:?}", r.diagnostics);
    }

    #[test]
    fn pa046_fires_on_blocking_calls_in_reactor_files_only() {
        for needle in
            ["std::thread::sleep(d);", "let s = TcpStream::connect(a);", "s.set_read_timeout(t);"]
        {
            let fire = run("crates/net/src/mux.rs", &format!("fn f() {{ {needle} }}\n"));
            assert!(fire.has_code(Code::BlockingInReactor), "{needle}: {:?}", fire.diagnostics);
        }
        // The same tokens outside the reactor file set are fine: a
        // session's caller thread may block (flush backoff, hedge polls).
        let elsewhere = run("crates/net/src/session.rs", "fn f() { thread::sleep(d); }\n");
        assert!(!elsewhere.has_code(Code::BlockingInReactor), "{:?}", elsewhere.diagnostics);
        // Test modules inside reactor files are exempt.
        let tests = run(
            "crates/net/src/reactor/mod.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(d); }\n}\n",
        );
        assert!(!tests.has_code(Code::BlockingInReactor), "{:?}", tests.diagnostics);
        // A deliberate off-loop blocking call is waivable.
        let waived = run(
            "crates/net/src/mux.rs",
            "fn f() {\n    // pa:allow(PA046)\n    let s = NetStream::connect(&addr);\n}\n",
        );
        assert!(!waived.has_code(Code::BlockingInReactor), "{:?}", waived.diagnostics);
        assert!(!waived.has_code(Code::StaleWaiver), "{:?}", waived.diagnostics);
    }

    #[test]
    fn pa045_warns_on_stale_waiver_and_working_waivers_suppress() {
        // A waiver above a real finding suppresses it and is not stale.
        let good = "\
fn f() {
    // pa:allow(PA040)
    x.unwrap();
}
";
        let r = run("crates/net/src/server.rs", good);
        assert!(!r.has_code(Code::UnwrapOnHotPath), "{:?}", r.diagnostics);
        assert!(!r.has_code(Code::StaleWaiver), "{:?}", r.diagnostics);
        // A waiver with nothing to excuse warns.
        let stale = "fn f() {\n    // pa:allow(PA040)\n    let x = 1;\n}\n";
        let r = run("crates/net/src/server.rs", stale);
        assert!(r.has_code(Code::StaleWaiver), "{:?}", r.diagnostics);
        assert_eq!(r.error_count(), 0, "stale waivers warn, not error");
    }

    #[test]
    fn pa047_wants_a_safety_argument_directly_above_every_unsafe() {
        let sys = "crates/net/src/reactor/sys.rs";
        let bare = "fn f() {\n    let n = unsafe { poll(p, 1, 0) };\n}\n";
        assert!(run(sys, bare).has_code(Code::UnjustifiedUnsafe));
        for documented in [
            // A comment on the line above, also across a continued statement.
            "fn f() {\n    // SAFETY: `p` is live.\n    let n = unsafe { poll(p, 1, 0) };\n}\n",
            "fn f() {\n    // SAFETY: `p` is live;\n    // n is 1.\n    let n =\n        unsafe { poll(p, 1, 0) };\n}\n",
            // A `# Safety` section on an `unsafe fn`, attributes between.
            "/// Steps.\n///\n/// # Safety\n///\n/// SSE4.2.\n#[target_feature(enable = \"sse4.2\")]\nunsafe fn step() {}\n",
        ] {
            let r = run(sys, documented);
            assert!(!r.has_code(Code::UnjustifiedUnsafe), "{documented}: {:?}", r.diagnostics);
        }
        for undocumented in [
            "/// Steps.\n#[inline]\nunsafe fn step() {}\n",
            "unsafe impl Send for Cell {}\n",
            // A safety comment that belongs to an earlier statement.
            "fn f() {\n    // SAFETY: closing our fd.\n    let a = 1;\n    unsafe { close(a) };\n}\n",
        ] {
            let r = run(sys, undocumented);
            assert!(r.has_code(Code::UnjustifiedUnsafe), "{undocumented}: {:?}", r.diagnostics);
        }
        // Identifiers that merely contain the word pass.
        let r = run(sys, "#![deny(unsafe_code)]\nfn unsafe_len() -> usize { 0 }\n");
        assert!(!r.has_code(Code::UnjustifiedUnsafe), "{:?}", r.diagnostics);
    }

    #[test]
    fn pa047_confines_allow_unsafe_code_to_the_listed_files() {
        let text = "#![allow(unsafe_code)]\n";
        for allowed in ["crates/net/src/reactor/sys.rs", "crates/core/src/crc.rs"] {
            assert!(!run(allowed, text).has_code(Code::UnjustifiedUnsafe), "{allowed}");
        }
        let r = run("crates/net/src/server.rs", "#[allow(unsafe_code)]\nmod fast {}\n");
        assert!(r.has_code(Code::UnjustifiedUnsafe), "{:?}", r.diagnostics);
    }

    #[test]
    fn string_and_char_stripping_keeps_columns_honest() {
        assert_eq!(strip_line("let s = \"panic!(\"; x"), "let s = \"       \"; x");
        assert_eq!(strip_line("a // b"), "a ");
        assert_eq!(strip_line("let c = '\"'; x.unwrap()"), "let c = ' '; x.unwrap()");
    }
}
