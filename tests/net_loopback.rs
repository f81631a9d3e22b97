//! The paper's matrix-redistribution scenario end-to-end over real
//! sockets: the same `ClusterfileConfig`-shaped deployment (4 compute
//! nodes, 4 I/O nodes) must produce **byte-identical subfile contents**
//! whether it runs in the discrete-event simulator or against live
//! `parafile-net` daemons on loopback.
//!
//! By default each test spawns its own in-process loopback daemons. Set
//! `PF_NET_NODES=addr1,addr2,addr3,addr4` to run against externally
//! started daemons instead (the CI socket job does this); file ids are
//! disjoint per test so the tests can share one daemon set.

use arraydist::matrix::MatrixLayout;
use clusterfile::{Clusterfile, ClusterfileConfig, StorageBackend, WritePolicy};
use parafile::{Mapper, Partition};
use parafile_net::session::{spawn_loopback, Session};
use parafile_net::wire::{Reply, Request};
use parafile_net::{ErrCode, Mux, NetError, RetryBudget};
use pf_tests::file_byte;

const COMPUTE_NODES: usize = 4;
const IO_NODES: usize = 4;

/// External daemon addresses from `PF_NET_NODES`, or fresh loopback
/// daemons. Keep the handles alive for the test's duration.
fn nodes() -> (Vec<parafile_net::server::DaemonHandle>, Vec<String>) {
    if let Ok(spec) = std::env::var("PF_NET_NODES") {
        let addrs: Vec<String> = spec.split(',').map(|s| s.trim().to_string()).collect();
        assert_eq!(addrs.len(), IO_NODES, "PF_NET_NODES must name {IO_NODES} daemons");
        (Vec::new(), addrs)
    } else {
        spawn_loopback(IO_NODES, StorageBackend::Memory).expect("spawn loopback daemons")
    }
}

fn simulated() -> Clusterfile {
    Clusterfile::new(ClusterfileConfig::paper_deployment(WritePolicy::WriteThrough))
}

/// Every compute node writes its full view, exactly as in the paper's
/// experiment — once through the simulator, once over the sockets.
fn write_full_views_sim(fs: &mut Clusterfile, file: usize, logical: &Partition, file_len: u64) {
    for c in 0..COMPUTE_NODES {
        fs.set_view(c, file, logical, c);
    }
    let ops: Vec<(usize, u64, u64, Vec<u8>)> = (0..COMPUTE_NODES)
        .map(|c| {
            let m = Mapper::new(logical, c);
            let len = logical.element_len(c, file_len).unwrap();
            let data: Vec<u8> = (0..len).map(|y| file_byte(m.unmap(y))).collect();
            (c, 0, len - 1, data)
        })
        .collect();
    fs.write_group(file, &ops);
}

fn write_full_views_net(s: &mut Session, file: u64, logical: &Partition, file_len: u64) {
    for c in 0..COMPUTE_NODES {
        s.set_view(c as u32, file, logical, c).expect("set view over socket");
    }
    for c in 0..COMPUTE_NODES {
        let m = Mapper::new(logical, c);
        let len = logical.element_len(c, file_len).unwrap();
        let data: Vec<u8> = (0..len).map(|y| file_byte(m.unmap(y))).collect();
        let written = s.write(c as u32, file, 0, len - 1, &data).expect("write over socket");
        assert_eq!(written, len, "full-view write stores every byte");
    }
}

/// The acceptance scenario: row-block views redistributed onto each
/// physical layout, simulated vs real, subfile for subfile.
#[test]
fn matrix_redistribution_sim_vs_real_byte_identical() {
    let n = 16u64;
    let file_len = n * n;
    let (_daemons, addrs) = nodes();
    for (i, phys) in MatrixLayout::all().iter().enumerate() {
        let physical = phys.partition(n, n, 1, IO_NODES as u64);
        let logical = MatrixLayout::RowBlocks.partition(n, n, 1, COMPUTE_NODES as u64);

        // Simulated run.
        let mut fs = simulated();
        let sim_file = fs.create_file(physical.clone(), file_len);
        write_full_views_sim(&mut fs, sim_file, &logical, file_len);

        // Real run over sockets.
        let mut session = Session::connect(&addrs);
        let net_file = 1000 + i as u64;
        session.create_file(net_file, physical, file_len).expect("create over sockets");
        write_full_views_net(&mut session, net_file, &logical, file_len);

        // Byte-identical subfile contents, subfile by subfile.
        for s in 0..IO_NODES {
            let sim_bytes = fs.subfile(sim_file, s);
            let net_bytes = session.subfile(net_file, s).expect("fetch subfile");
            assert_eq!(sim_bytes, net_bytes, "{phys:?}: subfile {s} diverges");
        }

        // And the assembled files agree too.
        assert_eq!(fs.file_contents(sim_file), session.file_contents(net_file).unwrap());

        // Reads through the views return what was written.
        for c in 0..COMPUTE_NODES {
            let m = Mapper::new(&logical, c);
            let len = logical.element_len(c, file_len).unwrap();
            let back = session.read(c as u32, net_file, 0, len - 1).expect("read over socket");
            for (y, &b) in back.iter().enumerate() {
                assert_eq!(b, file_byte(m.unmap(y as u64)), "{phys:?} view {c} offset {y}");
            }
        }
        session.flush(net_file).expect("flush");
    }
}

/// Writing past the view's share of the file crosses the subfile
/// boundaries: the daemons clip, report a short write, and reads of the
/// same interval come back partial (zeros past the end).
#[test]
fn partial_reads_and_short_writes_at_subfile_boundaries() {
    let n = 16u64;
    let file_len = n * n; // 256 bytes; each subfile holds 64
    let (_daemons, addrs) = nodes();
    let mut session = Session::connect(&addrs);
    let physical = MatrixLayout::ColumnBlocks.partition(n, n, 1, IO_NODES as u64);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, COMPUTE_NODES as u64);
    let file = 2000u64;
    session.create_file(file, physical, file_len).expect("create");
    session.set_view(0, file, &logical, 0).expect("set view");

    // View element 0 holds 64 in-file bytes; the interval [0, 95] runs 32
    // bytes past them, into the next tiling period beyond the file's end.
    let over = 96u64;
    let data: Vec<u8> = (0..over).map(|y| 100 + y as u8).collect();
    let written = session.write(0, file, 0, over - 1, &data).expect("short write succeeds");
    assert_eq!(written, 64, "only the in-file bytes are stored");

    // Partial read: the stored prefix comes back, the overhang reads zero.
    let back = session.read(0, file, 0, over - 1).expect("partial read succeeds");
    assert_eq!(&back[..64], &data[..64], "stored prefix round-trips");
    assert!(back[64..].iter().all(|&b| b == 0), "overhang reads as zeros");

    // The file itself holds the view's 64 bytes at their mapped offsets
    // and nothing else.
    let contents = session.file_contents(file).expect("fetch file");
    let m = Mapper::new(&logical, 0);
    for (x, &b) in contents.iter().enumerate() {
        match m.map(x as u64) {
            Some(y) if y < 64 => assert_eq!(b, data[y as usize], "file byte {x}"),
            _ => assert_eq!(b, 0, "file byte {x} outside the view must stay zero"),
        }
    }
}

/// A view pattern with error-severity audit findings is refused at the
/// protocol boundary with a structured `PatternRejected` reply carrying
/// the PA codes — the daemon never installs the view.
#[test]
fn audit_rejects_bad_view_patterns_over_the_socket() {
    use parafile_audit::{RawElement, RawFalls, RawPattern};
    let (_daemons, addrs) = nodes();
    let mut mux = Mux::new(&addrs[..1], std::sync::Arc::new(RetryBudget::for_session()));
    let file = 3000u64;
    let open = Request::Open { file, subfile: 0, len: 64, tenant: 0 };
    assert!(matches!(mux.call(0, open), Ok(Reply::Ok)), "open");

    // Two elements claiming the same bytes: PA overlap, error severity.
    let overlapping = RawPattern {
        displacement: 0,
        elements: vec![
            RawElement::new(vec![RawFalls::leaf(0, 7, 8, 1)]),
            RawElement::new(vec![RawFalls::leaf(0, 7, 8, 1)]),
        ],
    };
    let req = Request::SetView {
        file,
        compute: 0,
        element: 0,
        view: overlapping,
        proj_set: vec![RawFalls::leaf(0, 7, 8, 1)],
        proj_period: 8,
    };
    let err = mux.call(0, req).expect_err("rejected");
    match err {
        NetError::Protocol(e) => {
            assert_eq!(e.code, ErrCode::PatternRejected);
            assert!(!e.pa_codes.is_empty(), "reply names the PA codes");
            assert!(e.pa_codes.iter().all(|c| c.starts_with("PA")), "{:?}", e.pa_codes);
        }
        other => panic!("expected a protocol error, got {other}"),
    }

    // The rejected view was not installed: accessing it still says NoView.
    let err = mux.call(0, Request::Read { file, compute: 0, l_s: 0, r_s: 7 }).expect_err("no view");
    match err {
        NetError::Protocol(e) => assert_eq!(e.code, ErrCode::NoView),
        other => panic!("expected NoView, got {other}"),
    }

    // A clean pattern on the same connection is accepted afterwards.
    let fine = RawPattern {
        displacement: 0,
        elements: vec![
            RawElement::new(vec![RawFalls::leaf(0, 3, 8, 1)]),
            RawElement::new(vec![RawFalls::leaf(4, 7, 8, 1)]),
        ],
    };
    let req = Request::SetView {
        file,
        compute: 0,
        element: 0,
        view: fine,
        proj_set: vec![RawFalls::leaf(0, 3, 8, 1)],
        proj_period: 8,
    };
    assert!(matches!(mux.call(0, req), Ok(Reply::Ok)));
}

/// Concurrent sessions (one per compute node, like the paper's concurrent
/// writers) land their disjoint view data without interference.
#[test]
fn concurrent_sessions_write_disjoint_views() {
    let n = 16u64;
    let file_len = n * n;
    let (_daemons, addrs) = nodes();
    let physical = MatrixLayout::SquareBlocks.partition(n, n, 1, IO_NODES as u64);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, COMPUTE_NODES as u64);
    let file = 4000u64;

    // One session creates the file; each writer then runs its own session,
    // as separate compute processes would.
    let mut owner = Session::connect(&addrs);
    owner.create_file(file, physical.clone(), file_len).expect("create");
    std::thread::scope(|scope| {
        for c in 0..COMPUTE_NODES {
            let addrs = &addrs;
            let physical = physical.clone();
            let logical = logical.clone();
            scope.spawn(move || {
                let mut s = Session::connect(addrs);
                // Re-opening with identical geometry is idempotent.
                s.create_file(file, physical, file_len).expect("reopen");
                s.set_view(c as u32, file, &logical, c).expect("view");
                let m = Mapper::new(&logical, c);
                let len = logical.element_len(c, file_len).unwrap();
                let data: Vec<u8> = (0..len).map(|y| file_byte(m.unmap(y))).collect();
                let written = s.write(c as u32, file, 0, len - 1, &data).expect("write");
                assert_eq!(written, len);
            });
        }
    });
    let contents = owner.file_contents(file).expect("fetch");
    for (x, &b) in contents.iter().enumerate() {
        assert_eq!(b, file_byte(x as u64), "file byte {x}");
    }
}

/// A tenanted session's writes and reads round-trip. The layout is one
/// node, so the `set_view` and the read are single-target requests: they
/// travel on the connection whose `Open` announced tenant 42 — the session
/// has no other — and the daemon dispatches them under that tenant like
/// the writes.
#[test]
fn a_tenanted_session_round_trips_writes_and_reads() {
    let n = 16u64;
    let file_len = n * n;
    let config = parafile_net::DaemonConfig {
        backend: StorageBackend::Memory,
        ..parafile_net::DaemonConfig::default()
    };
    let mut daemon = parafile_net::serve("127.0.0.1:0", config).expect("spawn daemon");
    let addrs = vec![daemon.addr().to_string()];
    let physical = MatrixLayout::ColumnBlocks.partition(n, n, 1, 1);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 1);
    let file = 5000u64;
    let mut s = Session::connect(&addrs).with_tenant(42);
    assert_eq!(s.tenant(), 42);
    s.create_file(file, physical, file_len).expect("create");
    s.set_view(0, file, &logical, 0).expect("view");
    let data: Vec<u8> = (0..file_len).map(file_byte).collect();
    let written = s.write(0, file, 0, file_len - 1, &data).expect("tenanted write");
    assert_eq!(written, file_len);
    assert_eq!(s.read(0, file, 0, file_len - 1).expect("read back"), data);
    drop(s);
    daemon.stop();
}

/// One `Session` is one connection per node — pinned by the daemon's own
/// admission limit, not a counter: with `max_connections: 1` a second
/// connection from the same session would be shed `Overloaded` and the
/// request riding it would burn ~750 ms of retry ladder before failing
/// `Busy`. Single-target requests (the matching-view `set_view`, `write`
/// and `read` of a one-node layout) are exactly the ones that used to take
/// a side channel. Dropping the session releases that connection: the
/// next session gets the daemon's one slot.
#[test]
fn a_session_is_one_connection_per_node() {
    let n = 16u64;
    let file_len = n * n;
    let config =
        parafile_net::DaemonConfig { max_connections: 1, ..parafile_net::DaemonConfig::default() };
    let mut daemon = parafile_net::serve("127.0.0.1:0", config).expect("spawn daemon");
    let addrs = vec![daemon.addr().to_string()];
    let layout = MatrixLayout::ColumnBlocks.partition(n, n, 1, 1);
    let file = 5200u64;
    let started = std::time::Instant::now();
    let mut s = Session::connect(&addrs);
    s.create_file(file, layout.clone(), file_len).expect("create");
    s.set_view(0, file, &layout, 0).expect("perfectly matching view");
    let data: Vec<u8> = (0..file_len).map(file_byte).collect();
    assert_eq!(s.write(0, file, 0, file_len - 1, &data).expect("write"), file_len);
    assert_eq!(s.read(0, file, 0, file_len - 1).expect("read back"), data);
    assert_eq!(s.stat(file).expect("stat")[0].bytes_written, file_len);
    s.flush(file).expect("flush");
    assert!(
        started.elapsed() < std::time::Duration::from_millis(500),
        "nothing was shed and retried: {:?}",
        started.elapsed()
    );
    // Dropping the session closes its connection, so the daemon's one
    // slot frees for the next session. The close may reach the daemon
    // after the new connect; the shed-retry ladder covers that race.
    drop(s);
    let mut next = Session::connect(&addrs);
    next.create_file(file + 1, layout.clone(), file_len).expect("create after drop");
    next.set_view(0, file + 1, &layout, 0).expect("view after drop");
    assert_eq!(
        next.write(0, file + 1, 0, file_len - 1, &data).expect("write after drop"),
        file_len
    );
    assert_eq!(next.read(0, file + 1, 0, file_len - 1).expect("read after drop"), data);
    drop(next);
    daemon.stop();
}
