//! Chaos acceptance matrix: the paper's matrix-redistribution scenario
//! must survive every seeded fault family and still produce **byte-
//! identical subfile contents** to a fault-free simulator run.
//!
//! Each scenario expands a single `u64` seed into a deterministic
//! [`FaultPlan`] (see `parafile_net::fault`) wired into one I/O-node
//! daemon, with a supervisor thread standing in for init: when an
//! injected kill/torn-write crash fires, it rebinds the same address over
//! the same `Directory` backend with crash faults disarmed — one seed,
//! one crash, one recovery. The correctness oracle is always final-state
//! equivalence, never event order: concurrency makes the interleaving
//! vary, the seed makes the injected faults reproducible.

use arraydist::matrix::MatrixLayout;
use clusterfile::{Clusterfile, ClusterfileConfig, StorageBackend, WritePolicy};
use parafile::Mapper;
use parafile_audit::{RawElement, RawFalls, RawPattern};
use parafile_net::server::{serve, DaemonConfig, DaemonHandle};
use parafile_net::session::Session;
use parafile_net::wire::{Reply, Request};
use parafile_net::{ErrCode, FaultPlan, Mux, NetError, NodeHealth, RetryBudget, SegmentOutcome};
use pf_tests::file_byte;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const COMPUTE_NODES: usize = 4;
const IO_NODES: usize = 4;

/// A one-node transport to `addr`.
fn connect(addr: &str) -> Mux {
    Mux::new(&[addr.to_string()], Arc::new(RetryBudget::for_session()))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pf_chaos_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn dir_config(dir: &Path, fault: Option<FaultPlan>) -> DaemonConfig {
    DaemonConfig {
        backend: StorageBackend::Directory(dir.to_path_buf()),
        fault,
        ..Default::default()
    }
}

/// An I/O node under chaos, with its restart supervisor: after an
/// injected crash the supervisor rebinds the same address over the same
/// directory backend, crash faults disarmed, so journal recovery runs
/// exactly as it would under a real init/systemd respawn.
struct ChaosNode {
    addr: String,
    stop: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
}

impl ChaosNode {
    fn spawn(dir: PathBuf, plan: FaultPlan) -> Self {
        let handle =
            serve("127.0.0.1:0", dir_config(&dir, Some(plan.clone()))).expect("serve chaos node");
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
                        match serve(&addr, dir_config(&dir, Some(disarmed.clone()))) {
                            Ok(h) => break h,
                            // The dying daemon may not have released the
                            // port yet.
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    };
                }
            }
        });
        Self { addr, stop, supervisor: Some(supervisor) }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = connect(&self.addr).call(0, Request::Shutdown);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs the paper's redistribution scenario — row-block views written
/// onto a column-block physical layout — with node 0 under `plan`, and
/// demands byte-identical subfiles to the fault-free simulator run.
fn matrix_under_chaos(tag: &str, plan: FaultPlan, file: u64) {
    let n = 16u64;
    let file_len = n * n;
    let physical = MatrixLayout::ColumnBlocks.partition(n, n, 1, IO_NODES as u64);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, COMPUTE_NODES as u64);

    // Fault-free oracle: the discrete-event simulator.
    let mut fs = Clusterfile::new(ClusterfileConfig::paper_deployment(WritePolicy::WriteThrough));
    let sim_file = fs.create_file(physical.clone(), file_len);
    for c in 0..COMPUTE_NODES {
        fs.set_view(c, sim_file, &logical, c);
    }
    let ops: Vec<(usize, u64, u64, Vec<u8>)> = (0..COMPUTE_NODES)
        .map(|c| {
            let m = Mapper::new(&logical, c);
            let len = logical.element_len(c, file_len).unwrap();
            let data: Vec<u8> = (0..len).map(|y| file_byte(m.unmap(y))).collect();
            (c, 0, len - 1, data)
        })
        .collect();
    fs.write_group(sim_file, &ops);

    // Real daemons on persistent backends; node 0 runs the fault plan
    // behind its restart supervisor.
    let dirs: Vec<PathBuf> = (0..IO_NODES).map(|s| scratch_dir(&format!("{tag}_{s}"))).collect();
    let mut chaos = ChaosNode::spawn(dirs[0].clone(), plan);
    let others: Vec<DaemonHandle> = dirs[1..]
        .iter()
        .map(|d| serve("127.0.0.1:0", dir_config(d, None)).expect("serve"))
        .collect();
    let addrs: Vec<String> = std::iter::once(chaos.addr.clone())
        .chain(others.iter().map(|h| h.addr().to_string()))
        .collect();

    let mut session = Session::connect(&addrs);
    session.create_file(file, physical, file_len).expect("create under chaos");
    for c in 0..COMPUTE_NODES {
        session.set_view(c as u32, file, &logical, c).expect("set view under chaos");
    }
    for c in 0..COMPUTE_NODES {
        let m = Mapper::new(&logical, c);
        let len = logical.element_len(c, file_len).unwrap();
        let data: Vec<u8> = (0..len).map(|y| file_byte(m.unmap(y))).collect();
        let report =
            session.write_report(c as u32, file, 0, len - 1, &data).expect("write under chaos");
        assert!(
            report.fully_applied(),
            "{tag}: compute {c} left segments unapplied: {:?}",
            report.outcomes
        );
        assert_eq!(report.written, len, "{tag}: compute {c} byte count");
    }
    // Injected flush failures are absorbed by the session's flush retry.
    session.flush(file).expect("flush under chaos");

    for s in 0..IO_NODES {
        assert_eq!(
            fs.subfile(sim_file, s),
            session.subfile(file, s).expect("fetch subfile"),
            "{tag}: subfile {s} diverges from the fault-free simulator run"
        );
    }
    assert_eq!(
        fs.file_contents(sim_file),
        session.file_contents(file).expect("fetch file"),
        "{tag}: assembled file diverges"
    );

    chaos.shutdown();
    drop(others);
    for d in dirs {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Lowest seed whose expanded kill fires during the write phase of this
/// scenario's frame schedule (frames 6–9 on node 0: one `Open`, four
/// `SetView`s, then the four `Write`s).
fn kill_seed_in_write_phase() -> u64 {
    (0u64..10_000)
        .find(|&s| {
            matches!(FaultPlan::kill_one_node(s).kill_after_frames, Some(k) if (6..=9).contains(&k))
        })
        .expect("some seed kills inside the write phase")
}

#[test]
fn chaos_kill_one_node_recovers_byte_identical() {
    let seed = kill_seed_in_write_phase();
    matrix_under_chaos("kill", FaultPlan::kill_one_node(seed), 7000);
}

#[test]
fn chaos_torn_write_recovers_byte_identical() {
    matrix_under_chaos("torn", FaultPlan::torn_write(1), 7001);
}

#[test]
fn chaos_truncated_reply_recovers_byte_identical() {
    matrix_under_chaos("truncate", FaultPlan::truncate_frame(1), 7002);
}

#[test]
fn chaos_dropped_connections_recover_byte_identical() {
    matrix_under_chaos("drop", FaultPlan::drop_connection(1), 7003);
}

#[test]
fn chaos_failed_flushes_recover_byte_identical() {
    matrix_under_chaos("flush", FaultPlan::fail_flush(1), 7004);
}

/// The acceptance bullet, verbatim: a `Write` retried across a daemon
/// restart is applied **exactly once**. The first attempt journals the
/// intent, applies one of the two projected segments, and "crashes"
/// without replying. On restart, `Open` replays the journal (healing the
/// torn segment) and repopulates the dedup window from it — so the
/// retried stamp is answered `replayed` without touching the store again.
#[test]
fn write_retried_across_daemon_restart_applies_exactly_once() {
    let seed = (0u64..10_000)
        .find(|&s| FaultPlan::torn_write(s).torn_write == Some(1))
        .expect("some seed tears the first write");
    let dir = scratch_dir("torn_once");
    let mut node = ChaosNode::spawn(dir.clone(), FaultPlan::torn_write(seed));
    let mut mux = connect(&node.addr);
    let ok = |mux: &mut Mux, request: &Request, what: &str| {
        assert_eq!(mux.call(0, request.clone()).expect(what), Reply::Ok, "{what}");
    };

    let file = 7100u64;
    let sub_len = 16u64;
    // A strided view whose full-view write scatters into two subfile
    // segments, [0,3] and [8,11] — the crash lands between them.
    let open = Request::Open { file, subfile: 0, len: sub_len, tenant: 0 };
    let view = Request::SetView {
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
    };
    let stamped = Request::Write {
        file,
        compute: 0,
        l_s: 0,
        r_s: sub_len - 1,
        session: 0xBEEF,
        seq: 1,
        payload: vec![0x5A; 8],
    };

    ok(&mut mux, &open, "open");
    ok(&mut mux, &view, "set view");
    // First attempt: journal + one segment + crash, no reply. The client's
    // transparent retry reaches the restarted daemon, which has forgotten
    // the file entirely.
    let err = mux.call(0, stamped.clone()).expect_err("the restarted daemon forgot the file");
    match err {
        NetError::Protocol(e) => assert_eq!(e.code, ErrCode::UnknownFile, "{e:?}"),
        other => panic!("expected UnknownFile from the restarted daemon, got {other}"),
    }

    // Recovery: re-open (journal replay + dedup repopulation), re-ship the
    // view, re-send the *same* stamp.
    ok(&mut mux, &open, "re-open recovers the journal");
    ok(&mut mux, &view, "re-ship view");
    let reply = mux.call(0, stamped).expect("retried write");
    assert_eq!(
        reply,
        Reply::WriteOk { written: 8, replayed: true },
        "the retry is answered from the journal-recovered dedup window"
    );

    // Exactly once, physically: both segments hold the payload (the torn
    // second segment was healed by journal replay, not by a re-apply)…
    let bytes = match mux.call(0, Request::Fetch { file }).expect("fetch") {
        Reply::Data { payload } => payload,
        other => panic!("expected Data, got {other:?}"),
    };
    let mut expect = vec![0u8; sub_len as usize];
    for i in [0usize, 1, 2, 3, 8, 9, 10, 11] {
        expect[i] = 0x5A;
    }
    assert_eq!(bytes, expect, "journal replay healed the torn write");
    // …and the restarted daemon never counted a fresh application.
    match mux.call(0, Request::Stat { file }).expect("stat") {
        Reply::Stat(s) => {
            assert_eq!(s.bytes_written, 0, "the restarted daemon applied nothing anew")
        }
        other => panic!("expected Stat, got {other:?}"),
    }

    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degraded operation at the session level: a dead node is reported
/// per-segment (and then failed fast), the healthy node's data still
/// lands, and a later probe + restart brings the node back through the
/// re-establishment path.
#[test]
fn degraded_session_fails_fast_and_revives_after_probe() {
    let n = 8u64;
    let file_len = n * n;
    let file = 7200u64;
    let dirs = [scratch_dir("degraded_0"), scratch_dir("degraded_1")];
    let mut handles: Vec<DaemonHandle> =
        dirs.iter().map(|d| serve("127.0.0.1:0", dir_config(d, None)).expect("serve")).collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    // Column-block view over a row-block physical layout: the view
    // intersects both subfiles, so one write always fans out to both.
    let physical = MatrixLayout::RowBlocks.partition(n, n, 1, 2);
    let logical = MatrixLayout::ColumnBlocks.partition(n, n, 1, 2);
    let mut session = Session::connect(&addrs);
    session.create_file(file, physical, file_len).expect("create");
    session.set_view(0, file, &logical, 0).expect("set view");
    let len = logical.element_len(0, file_len).unwrap();

    let fill = |b: u8| vec![b; len as usize];
    let report = session.write_report(0, file, 0, len - 1, &fill(1)).expect("healthy write");
    assert!(report.fully_applied());
    assert!(report.outcomes.iter().all(|(_, o)| matches!(o, SegmentOutcome::Applied { .. })));

    // Node 1 dies for good (no supervisor).
    handles[1].stop();
    let report = session.write_report(0, file, 0, len - 1, &fill(2)).expect("degraded write");
    assert_eq!(report.unreachable(), vec![1], "node 1's segments were not applied");
    assert!(!report.fully_applied());
    assert_eq!(session.health()[1], NodeHealth::Dead);
    // From now on the dead node is failed fast — no retry schedule — and
    // the all-or-error wrapper surfaces the degradation.
    let report = session.write_report(0, file, 0, len - 1, &fill(3)).expect("fail-fast write");
    assert_eq!(report.unreachable(), vec![1]);
    session.write(0, file, 0, len - 1, &fill(3)).expect_err("write() refuses partial application");

    // Restart node 1 on the same address and backend; a probe revives it.
    handles[1] = serve(&addrs[1], dir_config(&dirs[1], None)).expect("rebind");
    let health = session.probe();
    assert!(matches!(health[1], NodeHealth::Alive { .. }), "probe revives the node: {health:?}");

    // The next write re-establishes the forgotten file/view on node 1.
    let report = session.write_report(0, file, 0, len - 1, &fill(4)).expect("revived write");
    assert!(report.fully_applied(), "{:?}", report.outcomes);
    assert!(
        report
            .outcomes
            .iter()
            .any(|&(s, o)| s == 1 && matches!(o, SegmentOutcome::Recovered { .. })),
        "node 1 went through re-establishment: {:?}",
        report.outcomes
    );
    let back = session.read(0, file, 0, len - 1).expect("read");
    assert_eq!(back, fill(4), "the revived cluster holds the last write everywhere");

    drop(handles);
    for d in dirs {
        let _ = std::fs::remove_dir_all(&d);
    }
}
