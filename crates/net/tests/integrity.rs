//! The daemon's per-message integrity path, end to end over loopback: the
//! page checksum map a fragmented write leaves behind must be the one a
//! rebuild from the stored bytes gives, on-disk rot must still turn the
//! next read into `ChecksumMismatch`, the background scrub must count
//! exactly the bad pages while walking a subfile in windows, and a reply
//! gathered in place that is refused or cut leaves nothing of itself in
//! the connection.

use arraydist::matrix::MatrixLayout;
use clusterfile::checksum::WALK_WINDOW_PAGES;
use clusterfile::{ChecksumMap, StorageBackend, SubfileStore, CHECKSUM_PAGE};
use parafile_audit::{RawElement, RawFalls, RawPattern};
use parafile_net::fault::Direction;
use parafile_net::server::{serve, DaemonConfig, DaemonHandle};
use parafile_net::wire::{Reply, Request, StatInfo};
use parafile_net::{ErrCode, FaultPlan, Mux, NetError, RetryBudget, Session, TruncateFault};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pf_integrity_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn disk_node(dir: &Path, scrub_interval: Option<Duration>) -> (DaemonHandle, Mux) {
    let config = DaemonConfig {
        backend: StorageBackend::Directory(dir.to_path_buf()),
        scrub_interval,
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config).expect("serve");
    let mux = Mux::new(&[daemon.addr().to_string()], Arc::new(RetryBudget::for_session()));
    (daemon, mux)
}

fn stat(mux: &mut Mux, file: u64) -> StatInfo {
    match mux.call(0, Request::Stat { file }).expect("stat") {
        Reply::Stat(s) => s,
        other => panic!("expected Stat, got {other:?}"),
    }
}

/// Flips one byte of the stored subfile behind the daemon's back.
fn rot(path: &Path, at: u64) {
    let mut bytes = std::fs::read(path).expect("read stored subfile");
    bytes[at as usize] ^= 0x01;
    std::fs::write(path, &bytes).expect("write rotten subfile");
}

/// A 64 KiB write through a `CYCLIC(129)` view lands as 509 fragments over
/// 32 pages — each page touched by some 16 of them. After `Flush`, the
/// sidecar the daemon wrote must be byte-identical to one rebuilt from the
/// subfile bytes, and rot introduced afterwards must still be caught.
#[test]
fn fragmented_write_leaves_the_sidecar_a_rebuild_would() {
    const FILE: u64 = 3;
    const LEN: u64 = 140_000;
    let dir = scratch_dir("cyclic129");
    let (mut daemon, mut mux) = disk_node(&dir, None);
    assert_eq!(
        mux.call(0, Request::Open { file: FILE, subfile: 0, len: LEN, tenant: 0 }).expect("open"),
        Reply::Ok
    );
    let view = Request::SetView {
        file: FILE,
        compute: 0,
        element: 0,
        view: RawPattern {
            displacement: 0,
            elements: vec![
                RawElement::new(vec![RawFalls::leaf(0, 128, 258, 1)]),
                RawElement::new(vec![RawFalls::leaf(129, 257, 258, 1)]),
            ],
        },
        proj_set: vec![RawFalls::leaf(0, 128, 258, 1)],
        proj_period: 258,
    };
    assert_eq!(mux.call(0, view).expect("set view"), Reply::Ok);

    // 508 whole fragments and 4 bytes of the 509th: exactly 64 KiB.
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8 ^ 0x5A).collect();
    let r_s = 508 * 258 + 3;
    let write = Request::Write {
        file: FILE,
        compute: 0,
        l_s: 0,
        r_s,
        session: 0,
        seq: 0,
        payload: payload.clone(),
    };
    assert_eq!(
        mux.call(0, write).expect("write"),
        Reply::WriteOk { written: 64 * 1024, replayed: false }
    );
    assert_eq!(stat(&mut mux, FILE).fragments, 509);
    assert_eq!(mux.call(0, Request::Flush { file: FILE }).expect("flush"), Reply::Ok);

    // Rebuild a sidecar from the stored bytes in a directory of its own.
    let stored = dir.join(format!("file{FILE}_subfile0.bin"));
    let rebuilt_dir = scratch_dir("cyclic129_rebuilt");
    let backend = StorageBackend::Directory(rebuilt_dir.clone());
    let mut copy = SubfileStore::create(&backend, FILE as usize, 0, LEN).expect("copy store");
    copy.write_at(0, &std::fs::read(&stored).expect("stored bytes")).expect("copy bytes");
    let rebuilt = ChecksumMap::for_store(&backend, FILE as usize, 0, &mut copy, false)
        .expect("rebuild the map");
    rebuilt.flush().expect("write the rebuilt sidecar");
    let sidecar = format!("file{FILE}_subfile0.crc");
    assert_eq!(
        std::fs::read(dir.join(&sidecar)).expect("daemon sidecar"),
        std::fs::read(rebuilt_dir.join(&sidecar)).expect("rebuilt sidecar"),
    );

    let read =
        |mux: &mut Mux, l_s, r_s| mux.call(0, Request::Read { file: FILE, compute: 0, l_s, r_s });
    assert_eq!(read(&mut mux, 0, r_s).expect("clean read"), Reply::Data { payload });
    // Rot a byte of page 5 that belongs to the *other* view element: the
    // page is verified whole, so a read through it must refuse ...
    rot(&stored, 5 * CHECKSUM_PAGE + 300);
    match read(&mut mux, 0, r_s) {
        Err(NetError::Protocol(e)) => assert_eq!(e.code, ErrCode::ChecksumMismatch, "{e:?}"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_eq!(stat(&mut mux, FILE).checksum_errors, 1, "one bad page, counted once");
    // ... while a read that stays inside page 0 is still served.
    assert!(matches!(read(&mut mux, 0, 1000), Ok(Reply::Data { .. })));

    drop(mux);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&rebuilt_dir);
}

/// The scrub walks a subfile 256 pages per lock acquisition. One tick over
/// a subfile of two windows and a tail, with rot on both sides of each
/// window seam, must add exactly the number of bad pages to
/// `Stat.checksum_errors`.
#[test]
fn windowed_scrub_counts_each_bad_page_once() {
    const FILE: u64 = 4;
    const PAGES: u64 = 2 * 256 + 3;
    let dir = scratch_dir("scrub");
    // Long enough that the second tick is far away when the first is read.
    let interval = Duration::from_millis(1500);
    let (mut daemon, mut mux) = disk_node(&dir, Some(interval));
    let len = PAGES * CHECKSUM_PAGE - 1000;
    assert_eq!(
        mux.call(0, Request::Open { file: FILE, subfile: 0, len, tenant: 0 }).expect("open"),
        Reply::Ok
    );
    let stored = dir.join(format!("file{FILE}_subfile0.bin"));
    let bad_pages = [0, 255, 256, 511, 512, PAGES - 1];
    for page in bad_pages {
        rot(&stored, page * CHECKSUM_PAGE + 17);
    }
    let started = Instant::now();
    while stat(&mut mux, FILE).checksum_errors == 0 {
        assert!(started.elapsed() < Duration::from_secs(20), "the scrub never ticked");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Let the tick that was caught mid-walk finish.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(stat(&mut mux, FILE).checksum_errors, bad_pages.len() as u64);

    drop(mux);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scrub reads through the page window the daemon's verified reads
/// use. A clean read between rotten pages grows that window and leaves
/// its own bytes in it; the scrub pass that follows must still count
/// every bad page, once.
#[test]
fn a_scrub_after_a_read_counts_the_bad_pages() {
    const FILE: u64 = 7;
    let dir = scratch_dir("scrub_after_read");
    // The first pass starts one interval after `serve`: long enough that
    // the rot is all in place before it.
    let (mut daemon, mut mux) = disk_node(&dir, Some(Duration::from_secs(3)));
    // 1452² bytes: 515 pages, the last one partial.
    let (session, data) = identity_file(&daemon, FILE, 1452);
    let pages = data.len().div_ceil(CHECKSUM_PAGE as usize) as u64;
    let bad_pages = [0, 255, 256, 511, 512, pages - 1];
    for page in bad_pages {
        rot(&dir.join(format!("file{FILE}_subfile0.bin")), page * CHECKSUM_PAGE + 17);
    }
    let (l_s, r_s) = (CHECKSUM_PAGE, 255 * CHECKSUM_PAGE - 1);
    let clean = mux.call(0, Request::Read { file: FILE, compute: 0, l_s, r_s });
    let want = data[l_s as usize..=r_s as usize].to_vec();
    assert_eq!(clean.expect("a read between the bad pages"), Reply::Data { payload: want });
    let started = Instant::now();
    while stat(&mut mux, FILE).checksum_errors == 0 {
        assert!(started.elapsed() < Duration::from_secs(20), "the scrub never ticked");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(stat(&mut mux, FILE).checksum_errors, bad_pages.len() as u64);

    drop((session, mux));
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One daemon over `backend` hosting file `file`: an `n`×`n` byte matrix,
/// one subfile, written whole through a session whose compute node 0
/// sees it in storage order (so `Read { l_s, r_s }` addresses subfile
/// bytes directly). Returns the written bytes.
fn identity_file(daemon: &DaemonHandle, file: u64, n: u64) -> (Session, Vec<u8>) {
    let layout = MatrixLayout::ColumnBlocks.partition(n, n, 1, 1);
    let mut session = Session::connect(&[daemon.addr().to_string()]);
    let len = n * n;
    session.create_file(file, layout.clone(), len).expect("create file");
    session.set_view(0, file, &layout, 0).expect("set view");
    let data: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
    session.write(0, file, 0, len - 1, &data).expect("write the file");
    (session, data)
}

/// A verified read gathered straight into its reply frame: 2.5 MB over
/// three walk windows, rot only in the last. Two verified windows are in
/// the connection's write buffer when the third fails, so the frame must
/// be cut back to its start — a clean read pipelined right behind it on
/// the same connection comes back intact, and the refused read counts no
/// bytes.
#[test]
fn a_refused_read_leaves_no_partial_frame_behind() {
    const FILE: u64 = 5;
    let dir = scratch_dir("three_windows");
    let (mut daemon, mut mux) = disk_node(&dir, None);
    let (session, data) = identity_file(&daemon, FILE, 1600);
    let len = data.len() as u64;
    let window = WALK_WINDOW_PAGES as u64 * CHECKSUM_PAGE;
    assert!(len > 2 * window, "the read spans three windows");
    rot(&dir.join(format!("file{FILE}_subfile0.bin")), 2 * window + 300_000);
    let before = stat(&mut mux, FILE);

    let read = |l_s, r_s| Request::Read { file: FILE, compute: 0, l_s, r_s };
    let refused = mux.submit(0, read(0, len - 1)).expect("submit the rotten read");
    let clean = mux.submit(0, read(0, window + window / 2)).expect("submit the clean read");
    match mux.wait(refused) {
        Err(NetError::Protocol(e)) => assert_eq!(e.code, ErrCode::ChecksumMismatch, "{e:?}"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    let want = data[..=(window + window / 2) as usize].to_vec();
    assert_eq!(mux.wait(clean).expect("clean read"), Reply::Data { payload: want.clone() });
    let after = stat(&mut mux, FILE);
    assert_eq!(after.bytes_read - before.bytes_read, want.len() as u64, "only the clean read");
    assert_eq!(after.checksum_errors - before.checksum_errors, 1);

    drop((session, mux));
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected truncation cuts a bulk `Read` reply mid-payload and severs
/// the connection: the session retries on a fresh connection and returns
/// the right bytes, and the next read, received into the buffer the first
/// one handed back, is right too.
#[test]
fn a_truncated_read_reply_is_retried_to_the_right_bytes() {
    const FILE: u64 = 6;
    let mut plan = FaultPlan::none();
    // The session's connection carries Open, SetView, the chunk-capability
    // Ping and the Write before its first Read, the fifth frame.
    plan.truncate = Some(TruncateFault { frame: 5, keep: 100_000, dir: Direction::ServerToClient });
    let config = DaemonConfig { fault: Some(plan), ..DaemonConfig::default() };
    let mut daemon = serve("127.0.0.1:0", config).expect("serve");
    let (mut session, data) = identity_file(&daemon, FILE, 512);
    let len = data.len() as u64;
    assert_eq!(session.read(0, FILE, 0, len - 1).expect("read after the cut"), data);
    let served = session.stat(FILE).expect("stat")[0].bytes_read;
    assert_eq!(served, 2 * len, "the cut reply was served, then its retry");
    assert_eq!(session.read(0, FILE, 0, len - 1).expect("second read"), data);
    drop(session);
    daemon.stop();
}

/// A write torn by an injected crash has its reply appended like any other
/// before the crash is noticed: it must be cut back out of the write
/// buffer, so the "crashed" daemon acknowledges nothing.
#[test]
fn a_torn_write_is_never_acknowledged() {
    let plan = FaultPlan { torn_write: Some(1), ..FaultPlan::none() };
    let config = DaemonConfig { fault: Some(plan), ..DaemonConfig::default() };
    let mut daemon = serve("127.0.0.1:0", config).expect("serve");
    let layout = MatrixLayout::ColumnBlocks.partition(8, 8, 1, 1);
    let mut session = Session::connect(&[daemon.addr().to_string()]);
    session.create_file(7, layout.clone(), 64).expect("create file");
    session.set_view(0, 7, &layout, 0).expect("set view");
    assert!(session.write(0, 7, 0, 63, &[0x5A; 64]).is_err(), "the torn write was acknowledged");
    assert!(daemon.fault_killed());
    drop(session);
    daemon.stop();
}
