//! When the client transport sends: a submitted frame waits in its node's
//! write buffer until the caller runs a turn (`wait`, `wait_any`, `pause`,
//! `poll`), unless the buffer already holds `READ_CHUNK` bytes — so a
//! pipelined batch of small requests leaves in one `send` and a bulk
//! frame leaves at once. A plain `TcpListener` poses as the daemon, so
//! every byte the transport writes is seen as it arrives.

use arraydist::matrix::MatrixLayout;
use clusterfile::StorageBackend;
use parafile_net::wire::{self, Filled, FrameBuf, Request, READ_CHUNK};
use parafile_net::{
    serve, spawn_loopback, BatchWrite, DaemonConfig, Mux, Reply, RetryBudget, Session,
    DEFAULT_MAX_FRAME,
};
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport for one node, and the fake daemon it dials.
fn fake_daemon() -> (TcpListener, Mux) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    (listener, Mux::new(&[addr], Arc::new(RetryBudget::for_session())))
}

/// Accepts the transport's connection as a non-blocking peer.
fn accept(listener: &TcpListener) -> TcpStream {
    let (peer, _) = listener.accept().expect("accept");
    peer.set_nonblocking(true).expect("non-blocking peer");
    peer
}

/// Every byte the peer can read right now; empty when the read would block.
fn readable(peer: &mut TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match peer.read(&mut buf) {
            Ok(0) => return got,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return got,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("peer read failed: {e}"),
        }
    }
}

/// The whole frames in `bytes` (a frame cut off at its end is left out).
fn frames(bytes: &[u8]) -> Vec<(u8, u64, Vec<u8>)> {
    let mut rx = FrameBuf::new(DEFAULT_MAX_FRAME);
    let mut r = bytes;
    let mut out = Vec::new();
    while rx.read_from(&mut r).expect("read") != Filled::Eof {
        while let Some(f) = rx.next_frame().expect("well-formed") {
            out.push((f.opcode, f.request_id, f.payload.into_owned()));
        }
    }
    out
}

/// Answers `request_id` with `reply`, as the daemon would.
fn answer(peer: &mut TcpStream, request_id: u64, reply: &Reply) {
    peer.set_nonblocking(false).expect("blocking peer");
    wire::write_frame(peer, reply.opcode(), request_id, &reply.encode_payload()).expect("reply");
    peer.set_nonblocking(true).expect("non-blocking peer");
}

#[test]
fn small_frames_wait_for_the_callers_turn_and_then_leave_together() {
    const N: u64 = 24;
    let (listener, mut mux) = fake_daemon();
    // One exchange first, so the connection is up when the batch comes.
    let ping = mux.submit(0, Request::Ping).expect("submit");
    let mut peer = accept(&listener);
    assert!(mux.poll(ping).is_none());
    let sent = frames(&readable(&mut peer));
    assert_eq!(sent.len(), 1);
    answer(&mut peer, sent[0].1, &Reply::Pong { epoch: 1, max_chunk: 0 });
    assert!(matches!(mux.wait(ping), Ok(Reply::Pong { .. })));

    let slots: Vec<_> =
        (0..N).map(|file| mux.submit(0, Request::Stat { file }).expect("submit")).collect();
    assert!(readable(&mut peer).is_empty(), "a submit alone sends nothing");
    assert!(mux.poll(slots[0]).is_none(), "nobody has answered yet");
    let sent = frames(&readable(&mut peer));
    assert_eq!(sent.len() as u64, N, "one turn sends every submitted frame, and only those");
    for (i, (opcode, id, payload)) in sent.iter().enumerate() {
        assert_eq!(*id, i as u64 + 2);
        let request = Request::decode(*opcode, payload).expect("a request");
        assert_eq!(request, Request::Stat { file: i as u64 });
    }
}

#[test]
fn a_bulk_frame_leaves_at_submit() {
    let (listener, mut mux) = fake_daemon();
    let write = |len: usize| Request::Write {
        file: 1,
        compute: 0,
        l_s: 0,
        r_s: len as u64 - 1,
        session: 0,
        seq: 0,
        payload: (0..len).map(|i| (i % 251) as u8).collect(),
    };
    // The first write waits behind the transport's one chunk-capability
    // probe; the fake daemon says it does not chunk.
    let first = mux.submit(0, write(16)).expect("submit");
    let mut peer = accept(&listener);
    assert!(mux.poll(first).is_none());
    let probe = frames(&readable(&mut peer));
    assert_eq!(probe.len(), 1);
    assert_eq!(Request::decode(probe[0].0, &probe[0].2).expect("probe"), Request::Ping);
    answer(&mut peer, probe[0].1, &Reply::Pong { epoch: 1, max_chunk: 0 });
    // The turn that reads the answer encodes the write and sends it
    // before it returns.
    assert!(mux.poll(first).is_none());
    let small = frames(&readable(&mut peer));
    assert_eq!(small.len(), 1);
    answer(&mut peer, small[0].1, &Reply::WriteOk { written: 16, replayed: false });
    assert_eq!(
        mux.wait(first).expect("first write"),
        Reply::WriteOk { written: 16, replayed: false }
    );

    // One frame over READ_CHUNK: its first bytes are on the wire before
    // the caller waits, the rest follow on its turns.
    let big = write(READ_CHUNK + 4096);
    let slot = mux.submit(0, big.clone()).expect("submit the bulk write");
    let mut got = readable(&mut peer);
    assert!(!got.is_empty(), "a bulk frame is written at submit");
    while frames(&got).is_empty() {
        assert!(mux.poll(slot).is_none());
        got.extend(readable(&mut peer));
    }
    let sent = frames(&got);
    assert_eq!(sent.len(), 1);
    assert_eq!(Request::decode(sent[0].0, &sent[0].2).expect("the bulk write"), big);
}

#[test]
fn a_bounded_wait_sends_before_it_sleeps() {
    // The turn writes the frame before it polls: the reply can arrive
    // within the bound, not only once a poll that sent nothing times out.
    let mut daemon = serve("127.0.0.1:0", DaemonConfig::default()).expect("serve");
    let mut mux = Mux::new(&[daemon.addr().to_string()], Arc::new(RetryBudget::for_session()));
    assert!(matches!(mux.call(0, Request::Ping), Ok(Reply::Pong { .. })));
    let slot = mux.submit(0, Request::Ping).expect("submit");
    let until = Instant::now() + Duration::from_secs(10);
    assert_eq!(mux.wait_any(&[slot], Some(until)), Some(slot), "answered within the bound");
    drop(mux);
    daemon.stop();
}

#[test]
fn a_batch_of_small_writes_lands_byte_for_byte() {
    // One node, 256×256 bytes seen in storage order: 64 writes of 1 KiB
    // each, pipelined as one batch, then the subfile fetched whole.
    let (mut handles, addrs) = spawn_loopback(1, StorageBackend::Memory).expect("spawn daemon");
    let layout = MatrixLayout::ColumnBlocks.partition(256, 256, 1, 1);
    let mut session = Session::connect(&addrs);
    session.create_file(1, layout.clone(), 256 * 256).expect("create file");
    session.set_view(0, 1, &layout, 0).expect("set view");
    let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 131 % 251) as u8).collect();
    let ops: Vec<BatchWrite<'_>> = (0..64u64)
        .map(|k| BatchWrite {
            lo_v: k * 1024,
            hi_v: k * 1024 + 1023,
            data: &data[k as usize * 1024..(k as usize + 1) * 1024],
        })
        .collect();
    let reports = session.write_batch(0, 1, &ops).expect("batch");
    assert!(reports.iter().all(|r| r.written == 1024), "every op wrote its KiB");

    let mut mux = Mux::new(&addrs, Arc::new(RetryBudget::for_session()));
    match mux.call(0, Request::Fetch { file: 1 }).expect("fetch") {
        Reply::Data { payload } => assert!(payload == data, "the subfile holds the batch"),
        other => panic!("expected Data, got {other:?}"),
    }
    drop((session, mux));
    for h in &mut handles {
        h.stop();
    }
}
