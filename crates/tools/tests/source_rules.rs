//! The two source rules no rustc or clippy lint states. Every other rule
//! is a lint declared in the code it governs (clippy.toml lists the
//! workspace-wide settings).

use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Every `.rs` file under the repo-relative directory `rel`.
fn rust_files(rel: &str, out: &mut Vec<String>) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("list {rel}: {e}")) {
        let entry = entry.expect("directory entry");
        let path = format!("{rel}/{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("file type").is_dir() {
            rust_files(&path, out);
        } else if path.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_two_syscall_files_open_unsafe_code() {
    // Every crate denies or forbids `unsafe_code`; any other attribute
    // naming it would open `unsafe` quietly.
    let open = ["crates/net/src/reactor/sys.rs", "crates/core/src/crc.rs", file!()];
    let mut files = Vec::new();
    ["crates", "tests", "examples"].iter().for_each(|dir| rust_files(dir, &mut files));
    let mut offenders = Vec::new();
    for file in files.iter().filter(|f| !open.contains(&f.as_str())) {
        for (i, line) in read(file).lines().map(str::trim).enumerate() {
            let closed = ["#![forbid(unsafe_code)]", "#![deny(unsafe_code)]"].contains(&line);
            if line.contains("unsafe_code") && !line.starts_with("//") && !closed {
                offenders.push(format!("{file}:{}: {line}", i + 1));
            }
        }
    }
    assert!(offenders.is_empty(), "`unsafe_code` opened outside {open:?}: {offenders:#?}");
}

#[test]
fn value_returning_pub_fns_in_the_api_files_are_must_use() {
    // `clippy::must_use_candidate` skips functions with a `&mut` parameter
    // and items not reachable from outside the crate. `Result`, `Option`
    // and iterators are `#[must_use]` already. The waived pair returns an
    // informational bool, as `BTreeSet::insert`/`remove` do.
    let mut waived =
        vec!["pub fn insert(&mut self, entry: DirtyReplica)", "pub fn remove(&mut self"];
    let mut missing = Vec::new();
    for file in ["crates/net/src/proto.rs", "crates/replica/src/lib.rs"] {
        let text = read(file);
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for i in (0..lines.len()).filter(|&i| lines[i].starts_with("pub fn ")) {
            let end = (i..lines.len()).find(|&j| lines[j].contains('{')).unwrap_or(i);
            let sig = lines[i..=end].join(" ");
            let ret = sig.split_once(" -> ").map_or("", |(_, r)| r.trim_end_matches('{').trim());
            if ["", "()"].contains(&ret)
                || ["Result", "Option", "impl Iterator"].iter().any(|t| ret.contains(t))
            {
                continue;
            }
            let mut attrs = lines[..i].iter().rev().take_while(|l| l.starts_with(['#', '/']));
            if let Some(w) = waived.iter().position(|w| sig.starts_with(w)) {
                waived.remove(w);
            } else if !attrs.any(|l| *l == "#[must_use]") {
                missing.push(format!("{file}:{}: {sig}", i + 1));
            }
        }
    }
    assert!(missing.is_empty(), "value-returning pub fns without #[must_use]: {missing:#?}");
    assert!(waived.is_empty(), "waived functions no longer exist: {waived:?}");
}
