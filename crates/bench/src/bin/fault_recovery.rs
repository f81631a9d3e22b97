//! **Ablation G** (extension): what fault tolerance costs, and what
//! recovery buys back.
//!
//! Three numbers per matrix size, all over real loopback sockets against
//! one I/O-node daemon:
//!
//! * **journaled vs in-memory write throughput** — the write-ahead intent
//!   journal (Directory backend: append + sync before scatter) against
//!   the journal-free Memory backend, same stamped write stream;
//! * **dedup replay rate** — retried stamped writes answered from the
//!   daemon's dedup window without touching the store;
//! * **crash-recovery latency** — client-observed wall time from issuing
//!   a write that tears the daemon mid-scatter to the retried stamp being
//!   acknowledged `replayed` by the restarted, journal-recovered daemon.
//!
//! ```text
//! cargo run -p pf-bench --release --bin fault_recovery [--reps 5] [--sizes 256,512]
//! ```

use clusterfile::StorageBackend;
use jsonlite::{obj, Json, ToJson};
use parafile_audit::{RawElement, RawFalls, RawPattern};
use parafile_net::server::{serve, DaemonConfig};
use parafile_net::wire::{Reply, Request};
use parafile_net::{FaultPlan, Mux, RetryBudget};
use pf_bench::{dump_json, TableArgs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stamped writes per throughput repetition.
const WRITES: u64 = 16;
/// Replayed writes per replay-rate repetition.
const REPLAYS: u64 = 100;

struct Row {
    size: u64,
    reps: usize,
    journaled_write_mib_s: f64,
    memory_write_mib_s: f64,
    journal_overhead_pct: f64,
    replays_per_s: f64,
    recovery_ms: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj![
            ("size", self.size),
            ("reps", self.reps),
            ("journaled_write_mib_s", self.journaled_write_mib_s),
            ("memory_write_mib_s", self.memory_write_mib_s),
            ("journal_overhead_pct", self.journal_overhead_pct),
            ("replays_per_s", self.replays_per_s),
            ("recovery_ms", self.recovery_ms)
        ]
    }
}

/// A two-element view whose element 0 owns the first half of each period:
/// one full-view write lands as a single `len/2`-byte segment.
fn half_view(file: u64, len: u64) -> Request {
    Request::SetView {
        file,
        compute: 0,
        element: 0,
        view: RawPattern {
            displacement: 0,
            elements: vec![
                RawElement::new(vec![RawFalls::leaf(0, len / 2 - 1, len, 1)]),
                RawElement::new(vec![RawFalls::leaf(len / 2, len - 1, len, 1)]),
            ],
        },
        proj_set: vec![RawFalls::leaf(0, len / 2 - 1, len, 1)],
        proj_period: len,
    }
}

fn stamped(file: u64, seq: u64, payload: Vec<u8>, r_s: u64) -> Request {
    Request::Write { file, compute: 0, l_s: 0, r_s, session: 0xBE7C, seq, payload }
}

/// A one-node transport to `addr`, with `file` opened at `len` bytes and
/// the half view installed.
fn connect_with_view(addr: &str, file: u64, len: u64) -> Mux {
    let mut mux = Mux::new(&[addr.to_string()], Arc::new(RetryBudget::for_session()));
    install_view(&mut mux, file, len);
    mux
}

fn install_view(mux: &mut Mux, file: u64, len: u64) {
    for request in [Request::Open { file, subfile: 0, len, tenant: 0 }, half_view(file, len)] {
        match mux.call(0, request).expect("open + view") {
            Reply::Ok => {}
            other => panic!("expected Ok, got {other:?}"),
        }
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pf_bench_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `WRITES` stamped half-view writes against a fresh daemon on `backend`;
/// returns total nanoseconds.
fn timed_writes(backend: StorageBackend, len: u64, file: u64) -> u128 {
    let config = DaemonConfig { backend, ..Default::default() };
    let daemon = serve("127.0.0.1:0", config).expect("serve");
    let mut mux = connect_with_view(daemon.addr(), file, len);
    let payload: Vec<u8> = (0..len / 2).map(|i| i as u8).collect();
    let start = Instant::now();
    for seq in 1..=WRITES {
        match mux.call(0, stamped(file, seq, payload.clone(), len - 1)).expect("write") {
            Reply::WriteOk { written, replayed: false } => assert_eq!(written, len / 2),
            other => panic!("expected fresh WriteOk, got {other:?}"),
        }
    }
    start.elapsed().as_nanos()
}

/// One torn-write crash/recovery cycle: returns the client-observed gap
/// from issuing the doomed write to the retried stamp acknowledged
/// `replayed` by the restarted daemon.
fn recovery_cycle(len: u64, file: u64, dir: &std::path::Path) -> Duration {
    let seed = (0u64..10_000)
        .find(|&s| FaultPlan::torn_write(s).torn_write == Some(1))
        .expect("some seed tears the first write");
    let plan = FaultPlan::torn_write(seed);
    let config = DaemonConfig {
        backend: StorageBackend::Directory(dir.to_path_buf()),
        fault: Some(plan.clone()),
        ..Default::default()
    };
    let mut handle = serve("127.0.0.1:0", config).expect("serve");
    let addr = handle.addr().to_string();
    let mut mux = connect_with_view(&addr, file, len);
    let payload = vec![0x5Au8; (len / 2) as usize];
    let write = stamped(file, 1, payload, len - 1);

    let start = Instant::now();
    // The write tears the daemon mid-scatter: no reply, every connection
    // severed. Restart it on the same backend (the supervisor's job),
    // then run the client's recovery path: re-open (journal replay +
    // dedup repopulation), re-ship the view, re-send the same stamp.
    let _ = mux.call(0, write.clone()).expect_err("daemon crashes mid-write");
    handle.wait();
    assert!(handle.fault_killed(), "the injected crash fired");
    let config = DaemonConfig {
        backend: StorageBackend::Directory(dir.to_path_buf()),
        fault: Some(plan.disarmed_crashes()),
        ..Default::default()
    };
    let _restarted = serve(&addr, config).expect("rebind");
    install_view(&mut mux, file, len);
    match mux.call(0, write).expect("retried write") {
        Reply::WriteOk { replayed: true, .. } => {}
        other => panic!("expected a replayed WriteOk, got {other:?}"),
    }
    start.elapsed()
}

fn main() {
    let args = TableArgs::parse();
    let reps = args.reps.max(1);
    println!("fault-tolerance cost and recovery, 1 loopback daemon\n");
    println!(
        "{:>5} {:>14} {:>12} {:>10} {:>12} {:>12}",
        "size", "journaled", "memory", "overhead", "replays/s", "recovery"
    );
    let mut rows = Vec::new();
    let mut file = 1u64;
    for &n in &args.sizes {
        let len = n * n;
        let mut journal_ns = 0u128;
        let mut memory_ns = 0u128;
        let mut replay_ns = 0u128;
        let mut recovery = Duration::ZERO;
        for _ in 0..reps {
            let dir = scratch_dir(&format!("journal_{n}"));
            journal_ns += timed_writes(StorageBackend::Directory(dir.clone()), len, file);
            let _ = std::fs::remove_dir_all(&dir);
            memory_ns += timed_writes(StorageBackend::Memory, len, file + 1);

            // Replay rate: re-send one already-applied stamp.
            let daemon = serve("127.0.0.1:0", DaemonConfig::default()).expect("serve");
            let mut mux = connect_with_view(daemon.addr(), file + 2, len);
            let payload = vec![7u8; (len / 2) as usize];
            let w = stamped(file + 2, 1, payload, len - 1);
            mux.call(0, w.clone()).expect("first application");
            let start = Instant::now();
            for _ in 0..REPLAYS {
                match mux.call(0, w.clone()).expect("replay") {
                    Reply::WriteOk { replayed: true, .. } => {}
                    other => panic!("expected replay, got {other:?}"),
                }
            }
            replay_ns += start.elapsed().as_nanos();

            let dir = scratch_dir(&format!("recovery_{n}"));
            recovery += recovery_cycle(len, file + 3, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            file += 4;
        }
        let mib = 1024.0 * 1024.0;
        let total_bytes = (len / 2 * WRITES * reps as u64) as f64;
        let journaled_write_mib_s = total_bytes / mib / (journal_ns as f64 / 1e9);
        let memory_write_mib_s = total_bytes / mib / (memory_ns as f64 / 1e9);
        let journal_overhead_pct = (memory_write_mib_s / journaled_write_mib_s - 1.0) * 100.0;
        let replays_per_s = (REPLAYS * reps as u64) as f64 / (replay_ns as f64 / 1e9);
        let recovery_ms = recovery.as_secs_f64() * 1e3 / reps as f64;
        println!(
            "{n:>5} {journaled_write_mib_s:>12.1}/s {memory_write_mib_s:>10.1}/s \
             {journal_overhead_pct:>9.1}% {replays_per_s:>12.0} {recovery_ms:>10.1}ms"
        );
        rows.push(Row {
            size: n,
            reps,
            journaled_write_mib_s,
            memory_write_mib_s,
            journal_overhead_pct,
            replays_per_s,
            recovery_ms,
        });
    }
    let path = dump_json("fault_recovery", &rows).expect("persist results");
    println!("\nresults → {}", path.display());
}
