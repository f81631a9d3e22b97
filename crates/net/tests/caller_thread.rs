//! A session drives its own sockets on the caller's thread: connecting,
//! creating a file, setting a view, writing, reading and a replicated
//! hedged read start no thread. This file holds one test, so the test
//! harness runs no other test's threads beside it while it counts.

use arraydist::matrix::MatrixLayout;
use clusterfile::StorageBackend;
use parafile_net::server::{serve, DaemonConfig};
use parafile_net::{FaultPlan, Session};

/// The threads this process runs right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

#[test]
fn a_session_starts_no_thread() {
    // Every daemon first: each is a loop thread of its own. Node 0 of the
    // replicated trio holds every frame 100 ms in its loop, so a read whose
    // primary copy lives there is hedged.
    let memory = || DaemonConfig { backend: StorageBackend::Memory, ..DaemonConfig::default() };
    let mut single = serve("127.0.0.1:0", memory()).expect("spawn daemon");
    let slow = DaemonConfig {
        fault: Some(FaultPlan { delay: Some((1, 100)), ..FaultPlan::none() }),
        ..memory()
    };
    let mut trio = vec![serve("127.0.0.1:0", slow).expect("spawn slow daemon")];
    for _ in 0..2 {
        trio.push(serve("127.0.0.1:0", memory()).expect("spawn daemon"));
    }
    let before = threads();

    let physical = MatrixLayout::ColumnBlocks.partition(8, 8, 1, 1);
    let logical = MatrixLayout::RowBlocks.partition(8, 8, 1, 1);
    let mut session = Session::connect(&[single.addr().to_string()]);
    session.create_file(1, physical, 64).expect("create file");
    session.set_view(0, 1, &logical, 0).expect("set view");
    let data: Vec<u8> = (0..64u8).collect();
    assert_eq!(session.write(0, 1, 0, 63, &data).expect("write"), 64);
    assert_eq!(session.read(0, 1, 0, 63).expect("read"), data);

    let addrs: Vec<String> = trio.iter().map(|d| d.addr().to_string()).collect();
    let physical = MatrixLayout::ColumnBlocks.partition(9, 9, 1, 3);
    let logical = MatrixLayout::RowBlocks.partition(9, 9, 1, 3);
    let mut replicated = Session::connect_replicated(&addrs, 2).expect("R=2 over 3 nodes");
    replicated.create_file(5, physical, 81).expect("create replicated file");
    replicated.set_view(0, 5, &logical, 0).expect("set view");
    let data: Vec<u8> = (0..27u8).collect();
    replicated.write(0, 5, 0, 26, &data).expect("replicated write");
    assert_eq!(replicated.read(0, 5, 0, 26).expect("hedged read"), data);
    assert!(replicated.hedged_reads() >= 1, "the slow primary must trigger a hedge");

    let after = threads();
    assert!(after <= before, "sessions started threads: {before} before, {after} after");
    drop((session, replicated));
    single.stop();
    for d in &mut trio {
        d.stop();
    }
}
