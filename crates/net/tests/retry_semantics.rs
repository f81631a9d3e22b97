//! Retry-safety semantics at the wire level: stamped writes must be
//! applied exactly once across torn uploads, daemon restarts, and dedup
//! window churn.
//!
//! Three scenarios the fault-tolerance design document calls out by name:
//!
//! * a client connection dying **mid-frame during a `Write` payload
//!   upload** (the daemon sees a torn request and must not apply it; the
//!   client's stamped retry must apply it exactly once);
//! * a daemon **restarting between `set_view` and `read`** (the session
//!   must re-establish the file and view from cached state and the read
//!   must return the pre-restart bytes from the `Directory` backend);
//! * **dedup-window eviction under sequence wraparound** (an evicted
//!   stamp is forgotten and re-applies; a stamp still in the window
//!   replays without touching the store).
//!
//! And one that must cost no retry at all: a connection the daemon reaped
//! while the session sat idle is replaced before a request goes onto it.

use parafile_net::fault::Direction;
use parafile_net::server::{serve, DaemonConfig};
use parafile_net::session::Session;
use parafile_net::wire::{Reply, Request};
use parafile_net::{chaos_proxy, FaultPlan, Mux, NodeHealth, RetryBudget, TruncateFault};

use arraydist::matrix::MatrixLayout;
use clusterfile::StorageBackend;
use parafile_audit::{RawElement, RawFalls, RawPattern};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A one-node transport to `addr`.
fn connect(addr: &str) -> Mux {
    Mux::new(&[addr.to_string()], Arc::new(RetryBudget::for_session()))
}

fn open_with_view(mux: &mut Mux, file: u64) {
    let open = Request::Open { file, subfile: 0, len: SUB_LEN, tenant: 0 };
    assert_eq!(mux.call(0, open).expect("open"), Reply::Ok);
    assert_eq!(mux.call(0, striped_view(file)).expect("set view"), Reply::Ok);
}

/// Subfile length used throughout: two 8-byte tiling periods.
const SUB_LEN: u64 = 16;

/// A strided view: element 0 owns bytes `[0,3]` and `[4,7]` of each
/// 8-byte period — so one full-view write scatters into **two** subfile
/// segments (`[0,3]` and `[8,11]`), which is what makes torn frames and
/// torn writes observable.
fn striped_view(file: u64) -> Request {
    Request::SetView {
        file,
        compute: 0,
        element: 0,
        view: RawPattern {
            displacement: 0,
            elements: vec![
                RawElement::new(vec![RawFalls::leaf(0, 3, 8, 1)]),
                RawElement::new(vec![RawFalls::leaf(4, 7, 8, 1)]),
            ],
        },
        proj_set: vec![RawFalls::leaf(0, 3, 8, 1)],
        proj_period: 8,
    }
}

/// A stamped full-view write: 8 payload bytes of `fill` landing on the
/// two projected segments.
fn stamped_write(file: u64, session: u64, seq: u64, fill: u8) -> Request {
    Request::Write {
        file,
        compute: 0,
        l_s: 0,
        r_s: SUB_LEN - 1,
        session,
        seq,
        payload: vec![fill; 8],
    }
}

/// What the subfile must hold after one full-view write of `fill`.
fn expected_subfile(fill: u8) -> Vec<u8> {
    let mut v = vec![0u8; SUB_LEN as usize];
    for i in [0, 1, 2, 3, 8, 9, 10, 11] {
        v[i] = fill;
    }
    v
}

fn fetch(mux: &mut Mux, file: u64) -> Vec<u8> {
    match mux.call(0, Request::Fetch { file }).expect("fetch") {
        Reply::Data { payload } => payload,
        other => panic!("expected Data, got {other:?}"),
    }
}

fn bytes_written(mux: &mut Mux, file: u64) -> u64 {
    match mux.call(0, Request::Stat { file }).expect("stat") {
        Reply::Stat(s) => s.bytes_written,
        other => panic!("expected Stat, got {other:?}"),
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pf_retry_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The proxy tears the `Write` request frame apart mid-payload — the
/// daemon reads a short frame and must drop it unapplied; the client's
/// transparent retry (same `(session, seq)` stamp, fresh connection)
/// must land the bytes exactly once.
#[test]
fn mid_frame_disconnect_during_write_upload_applies_exactly_once() {
    let file = 1u64;
    let daemon = serve("127.0.0.1:0", DaemonConfig::default()).expect("serve");
    // Frame 4 of the first proxied connection is the Write (after Open,
    // SetView and the one-time Ping capability probe); forward 20 bytes of
    // it — header plus a sliver of payload — then sever.
    let plan = FaultPlan {
        truncate: Some(TruncateFault { frame: 4, keep: 20, dir: Direction::ClientToServer }),
        ..FaultPlan::none()
    };
    let mut proxy = chaos_proxy("127.0.0.1:0", daemon.addr(), plan).expect("proxy");
    let mut mux = connect(proxy.addr());

    open_with_view(&mut mux, file);
    let reply = mux.call(0, stamped_write(file, 77, 1, 0xAB)).expect("write survives torn frame");
    assert_eq!(
        reply,
        Reply::WriteOk { written: 8, replayed: false },
        "the torn upload was never applied; the retry applied it fresh"
    );

    // Re-sending the same stamp is answered from the dedup window.
    let reply = mux.call(0, stamped_write(file, 77, 1, 0xCD)).expect("replay");
    assert_eq!(
        reply,
        Reply::WriteOk { written: 8, replayed: true },
        "the stamp is deduplicated, not re-applied"
    );

    // Exactly once, physically: the bytes are the first write's, and the
    // daemon counted them exactly once.
    assert_eq!(fetch(&mut mux, file), expected_subfile(0xAB));
    assert_eq!(bytes_written(&mut mux, file), 8, "stored bytes counted once");
    proxy.stop();
}

/// The daemon restarts (same address, same `Directory` backend) after the
/// session shipped its view but before it read: the session re-opens the
/// subfile, re-ships the view from cached state, and the read returns the
/// pre-restart bytes. `probe` sees the restart as a changed boot epoch.
#[test]
fn daemon_restart_between_set_view_and_read_recovers() {
    let dir = scratch_dir("restart_read");
    let config =
        || DaemonConfig { backend: StorageBackend::Directory(dir.clone()), ..Default::default() };
    let mut daemon = serve("127.0.0.1:0", config()).expect("serve");
    let addr = daemon.addr().to_string();

    let n = 8u64;
    let file_len = n * n;
    let file = 5u64;
    let physical = MatrixLayout::RowBlocks.partition(n, n, 1, 1);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 2);
    let mut session = Session::connect(std::slice::from_ref(&addr));
    session.create_file(file, physical, file_len).expect("create");
    session.set_view(0, file, &logical, 0).expect("set view");
    let data: Vec<u8> = (0..32).map(|i| 40 + i as u8).collect();
    session.write(0, file, 0, 31, &data).expect("write");
    session.flush(file).expect("flush");

    let health = session.probe();
    let NodeHealth::Alive { epoch: epoch_before } = health[0] else {
        panic!("daemon must answer the first probe, got {health:?}");
    };

    daemon.stop();
    let daemon2 = serve(&addr, config()).expect("rebind on the same address");

    // No manual re-setup: the read hits UnknownFile on the restarted
    // daemon and the session transparently re-establishes and retries.
    let back = session.read(0, file, 0, 31).expect("read after restart");
    assert_eq!(back, data, "pre-restart bytes survive the restart");

    let health = session.probe();
    let NodeHealth::Alive { epoch: epoch_after } = health[0] else {
        panic!("restarted daemon must answer the probe, got {health:?}");
    };
    assert_ne!(epoch_before, epoch_after, "a restart shows as a new boot epoch");

    drop(daemon2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dedup-window churn: stamps inside the window replay without touching
/// the store, evicted stamps are forgotten and re-apply, and unstamped
/// (session 0) writes never deduplicate.
#[test]
fn dedup_window_eviction_under_sequence_wraparound() {
    let file = 9u64;
    let session = 3u64;
    let config = DaemonConfig { dedup_window: 2, ..Default::default() };
    let daemon = serve("127.0.0.1:0", config).expect("serve");
    let mut mux = connect(daemon.addr());
    open_with_view(&mut mux, file);

    let call = |mux: &mut Mux, seq: u64, fill: u8| {
        mux.call(0, stamped_write(file, session, seq, fill)).expect("write")
    };

    // A client at the top of the sequence space…
    assert_eq!(call(&mut mux, u64::MAX - 1, 1), Reply::WriteOk { written: 8, replayed: false });
    // …replays while the stamp is still in the window…
    assert_eq!(call(&mut mux, u64::MAX - 1, 2), Reply::WriteOk { written: 8, replayed: true });
    assert_eq!(call(&mut mux, u64::MAX, 3), Reply::WriteOk { written: 8, replayed: false });
    // …then wraps around. The new stamp evicts the oldest (MAX-1).
    assert_eq!(call(&mut mux, 1, 4), Reply::WriteOk { written: 8, replayed: false });
    // The evicted stamp is forgotten: re-sending it applies fresh instead
    // of answering a stale replay.
    assert_eq!(call(&mut mux, u64::MAX - 1, 5), Reply::WriteOk { written: 8, replayed: false });
    assert_eq!(fetch(&mut mux, file), expected_subfile(5));
    // A replay never rewrites: the store keeps the latest application.
    assert_eq!(call(&mut mux, 1, 6), Reply::WriteOk { written: 8, replayed: true });
    assert_eq!(fetch(&mut mux, file), expected_subfile(5));

    // Unstamped writes (session 0) never enter
    // the window: identical repeats always re-apply.
    let unstamped = |fill: u8| Request::Write {
        file,
        compute: 0,
        l_s: 0,
        r_s: SUB_LEN - 1,
        session: 0,
        seq: 0,
        payload: vec![fill; 8],
    };
    assert_eq!(
        mux.call(0, unstamped(7)).expect("unstamped"),
        Reply::WriteOk { written: 8, replayed: false }
    );
    assert_eq!(
        mux.call(0, unstamped(8)).expect("unstamped repeat"),
        Reply::WriteOk { written: 8, replayed: false },
        "unstamped writes are never deduplicated"
    );
    assert_eq!(fetch(&mut mux, file), expected_subfile(8));
}

/// Chunked streaming must not change the fault-tolerance story: under
/// every chaos fault family, a chunked write ends in exactly the same
/// subfile bytes as the monolithic write — and both match the fault-free
/// mapping-function oracle.
///
/// One sizing constraint is inherent to streaming and deliberate here:
/// the `drop` and `truncate` families re-fire on **every** connection's
/// Nth frame, so a stream that needs ≥ N frames on one connection can
/// never complete (progress restarts at offset 0 after a reconnect).
/// Seeds for those two families are therefore steered to a frame budget
/// of at least 3 and the chunk size keeps each write to 2 frames; the
/// one-shot crash families (`kill`, `torn`, `flush`) stream 7 chunks per
/// write. Resumable chunk offsets would lift the constraint — that is a
/// ROADMAP follow-up, not something this test hides.
mod chunked_chaos {
    use super::*;
    use parafile::Mapper;
    use parafile_net::server::serve;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    const N: u64 = 8;
    const FILE_LEN: u64 = N * N;
    const FILE: u64 = 4100;

    fn dir_config(dir: &std::path::Path, fault: Option<FaultPlan>, max_chunk: u32) -> DaemonConfig {
        DaemonConfig {
            backend: StorageBackend::Directory(dir.to_path_buf()),
            fault,
            max_chunk,
            ..Default::default()
        }
    }

    /// One I/O node with a restart supervisor: an injected kill/torn
    /// crash is answered by rebinding the same address over the same
    /// directory backend with crash faults disarmed.
    struct ChaosNode {
        addr: String,
        stop: Arc<AtomicBool>,
        supervisor: Option<JoinHandle<()>>,
    }

    impl ChaosNode {
        fn spawn(dir: std::path::PathBuf, plan: FaultPlan, max_chunk: u32) -> Self {
            let handle = serve("127.0.0.1:0", dir_config(&dir, Some(plan.clone()), max_chunk))
                .expect("serve chaos node");
            let addr = handle.addr().to_string();
            let stop = Arc::new(AtomicBool::new(false));
            let supervisor = std::thread::spawn({
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                move || {
                    let mut handle = handle;
                    loop {
                        handle.wait();
                        if stop.load(Ordering::SeqCst) || !handle.fault_killed() {
                            break;
                        }
                        let disarmed = plan.disarmed_crashes();
                        handle = loop {
                            match serve(&addr, dir_config(&dir, Some(disarmed.clone()), max_chunk))
                            {
                                Ok(h) => break h,
                                Err(_) => std::thread::sleep(Duration::from_millis(5)),
                            }
                        };
                    }
                }
            });
            Self { addr, stop, supervisor: Some(supervisor) }
        }
    }

    impl Drop for ChaosNode {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = connect(&self.addr).call(0, Request::Shutdown);
            if let Some(t) = self.supervisor.take() {
                let _ = t.join();
            }
        }
    }

    fn physical() -> parafile::Partition {
        MatrixLayout::RowBlocks.partition(N, N, 1, 1)
    }

    fn logical() -> parafile::Partition {
        MatrixLayout::ColumnBlocks.partition(N, N, 1, 2)
    }

    /// The fault-free oracle, straight from the paper's mapping
    /// functions: view byte `y` lands at `MAP_S(MAP_V⁻¹(y))`.
    fn expected_bytes(data: &[u8]) -> Vec<u8> {
        let physical = physical();
        let logical = logical();
        let vm = Mapper::new(&logical, 0);
        let pm = Mapper::new(&physical, 0);
        let mut out = vec![0u8; FILE_LEN as usize];
        for (y, &b) in data.iter().enumerate() {
            let x = vm.unmap(y as u64);
            let s = pm.map(x).expect("the single subfile holds every file byte");
            out[s as usize] = b;
        }
        out
    }

    /// Expands `(family, seed)` to a plan plus the daemon chunk budget
    /// that keeps the scenario live (see the module comment).
    fn plan_for(family: &str, seed: u64) -> (FaultPlan, u32) {
        match family {
            "drop" => {
                let seed = (seed..)
                    .find(|&s| {
                        matches!(FaultPlan::drop_connection(s).drop_after_frames, Some(n) if n >= 3)
                    })
                    .expect("some seed drops at frame 3 or later");
                (FaultPlan::drop_connection(seed), 17)
            }
            "truncate" => {
                let seed = (seed..)
                    .find(|&s| {
                        matches!(&FaultPlan::truncate_frame(s).truncate, Some(t) if t.frame >= 3)
                    })
                    .expect("some seed truncates frame 3 or later");
                (FaultPlan::truncate_frame(seed), 17)
            }
            "flush" => (FaultPlan::fail_flush(seed), 5),
            "kill" => (FaultPlan::kill_one_node(seed), 5),
            _ => (FaultPlan::torn_write(seed), 5),
        }
    }

    /// Runs the strided write through one chaos node and returns the
    /// final subfile bytes. `max_chunk = 0` forces the monolithic path
    /// (the daemon advertises no chunk capability).
    fn final_subfile(tag: &str, plan: &FaultPlan, max_chunk: u32, data: &[u8]) -> Vec<u8> {
        let dir = scratch_dir(tag);
        let node = ChaosNode::spawn(dir.clone(), plan.clone(), max_chunk);
        let mut session = Session::connect(std::slice::from_ref(&node.addr));
        session.create_file(FILE, physical(), FILE_LEN).expect("create under chaos");
        session.set_view(0, FILE, &logical(), 0).expect("set view under chaos");
        let hi = data.len() as u64 - 1;
        let mut tries = 0;
        loop {
            let report = session.write_report(0, FILE, 0, hi, data).expect("write under chaos");
            if report.fully_applied() {
                break;
            }
            tries += 1;
            assert!(tries < 6, "{tag}: write never fully applied: {:?}", report.outcomes);
            std::thread::sleep(Duration::from_millis(40));
            session.probe();
        }
        session.flush(FILE).expect("flush under chaos");
        let bytes = session.subfile(FILE, 0).expect("fetch subfile");
        drop(node);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3 })]
        #[test]
        fn chunked_and_monolithic_writes_agree_under_every_fault_family(
            seed in 1u64..5000,
            fill in any::<u8>(),
        ) {
            let data: Vec<u8> = (0..32u8).map(|i| fill.wrapping_add(i)).collect();
            let want = expected_bytes(&data);
            for family in ["drop", "truncate", "flush", "kill", "torn"] {
                let (plan, chunk) = plan_for(family, seed);
                let chunked =
                    final_subfile(&format!("{family}_{seed}_chunked"), &plan, chunk, &data);
                let mono = final_subfile(&format!("{family}_{seed}_mono"), &plan, 0, &data);
                prop_assert_eq!(
                    &chunked, &mono,
                    "family {} seed {}: chunked and monolithic bytes diverge", family, seed
                );
                prop_assert_eq!(
                    &chunked, &want,
                    "family {} seed {}: bytes diverge from the mapping oracle", family, seed
                );
            }
        }
    }
}

/// A daemon with a 100 ms idle timeout reaps the connection of a session
/// that sat idle longer. The session's next write and read must notice the
/// closed connection and dial a fresh one, without spending a retry token.
#[test]
fn a_connection_reaped_while_idle_costs_no_retry() {
    let config = DaemonConfig {
        backend: StorageBackend::Memory,
        read_timeout: Some(Duration::from_millis(100)),
        ..DaemonConfig::default()
    };
    let mut daemon = serve("127.0.0.1:0", config).expect("serve");
    let physical = MatrixLayout::ColumnBlocks.partition(8, 8, 1, 1);
    let logical = MatrixLayout::RowBlocks.partition(8, 8, 1, 1);
    let mut session = Session::connect(&[daemon.addr().to_string()]);
    session.create_file(1, physical, 64).expect("create file");
    session.set_view(0, 1, &logical, 0).expect("set view");
    session.write(0, 1, 0, 63, &[0x11; 64]).expect("write before the reap");
    let tokens = session.retry_budget().tokens();

    // Idle well past the daemon's timeout: it closes the connection.
    std::thread::sleep(Duration::from_millis(400));

    session.write(0, 1, 0, 63, &[0x22; 64]).expect("write after the reap");
    assert_eq!(session.read(0, 1, 0, 63).expect("read after the reap"), vec![0x22; 64]);
    assert_eq!(session.retry_budget().tokens(), tokens, "the reaped connection cost a retry");
    drop(session);
    daemon.stop();
}
