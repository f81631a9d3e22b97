//! The daemon is one event loop, so nothing one connection does may stall
//! it: a frame held back by an injected delay parks only its own
//! connection, and a client that pipelines requests without ever reading
//! the replies is skipped until its socket drains. A loop that slept or
//! blocked in place would fail both tests. On the client side, a
//! [`Mux::pause`] keeps turning the session's connections while it waits.

use arraydist::matrix::MatrixLayout;
use parafile_net::server::{serve, DaemonConfig};
use parafile_net::session::Session;
use parafile_net::wire::{read_frame, write_frame, Reply, Request, DEFAULT_MAX_FRAME};
use parafile_net::{FaultPlan, Mux, RetryBudget};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sends one request frame in a single segment.
fn send(stream: &mut TcpStream, request_id: u64, request: &Request) {
    let mut frame = Vec::new();
    write_frame(&mut frame, request.opcode(), request_id, &request.encode_payload())
        .expect("encode");
    stream.write_all(&frame).expect("send");
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn recv(stream: &mut TcpStream) -> (u64, Reply) {
    let frame = read_frame(stream, DEFAULT_MAX_FRAME).expect("reply frame");
    let reply = Reply::decode(frame.opcode, &frame.payload).expect("decode reply");
    (frame.request_id, reply)
}

#[test]
fn a_delayed_frame_stalls_its_connection_not_the_loop() {
    // Every second frame of each connection is held for 300 ms.
    let plan = FaultPlan { delay: Some((2, 300)), ..FaultPlan::none() };
    let daemon = serve("127.0.0.1:0", DaemonConfig { fault: Some(plan), ..Default::default() })
        .expect("serve");
    let mut a = connect(daemon.addr());
    let mut b = connect(daemon.addr());

    send(&mut a, 1, &Request::Ping);
    assert!(matches!(recv(&mut a), (1, Reply::Pong { .. })));
    let held_since = Instant::now();
    send(&mut a, 2, &Request::Ping);
    // Give the loop time to reach A's second frame, so B's frame arrives
    // while it is held: a loop that slept in place would then answer B
    // only after the delay. A correct loop passes in either order.
    std::thread::sleep(Duration::from_millis(30));

    let asked = Instant::now();
    send(&mut b, 1, &Request::Ping);
    assert!(matches!(recv(&mut b), (1, Reply::Pong { .. })));
    let answered_in = asked.elapsed();
    assert!(
        answered_in < Duration::from_millis(150),
        "B's first frame waited {answered_in:?} behind A's delayed one"
    );

    assert!(matches!(recv(&mut a), (2, Reply::Pong { .. })));
    let held_for = held_since.elapsed();
    assert!(held_for >= Duration::from_millis(250), "the delay fault fired: {held_for:?}");
}

#[test]
fn a_reader_that_never_reads_does_not_stall_other_sessions() {
    let n = 1024u64; // one 1 MiB subfile
    let file_len = n * n;
    let daemon = serve("127.0.0.1:0", DaemonConfig::default()).expect("serve");
    let addrs = vec![daemon.addr().to_string()];
    let layout = MatrixLayout::ColumnBlocks.partition(n, n, 1, 1);
    let mut setup = Session::connect(&addrs);
    setup.create_file(1, layout.clone(), file_len).expect("create");
    setup.set_view(0, 1, &layout, 0).expect("view");

    // 64 whole-subfile reads, pipelined, their 64 MiB of replies never
    // read: far more than the socket buffers and the daemon's write-buffer
    // cap hold.
    let mut slow = connect(daemon.addr());
    let read = Request::Read { file: 1, compute: 0, l_s: 0, r_s: file_len - 1 };
    for id in 1..=64 {
        send(&mut slow, id, &read);
    }
    // Give the daemon time to fill the socket and its write buffer, so the
    // second session meets a reader the loop already has to skip.
    std::thread::sleep(Duration::from_millis(200));

    let (done_tx, done) = mpsc::channel();
    let other_addrs = addrs.clone();
    let other = std::thread::spawn(move || {
        let n = 16u64;
        let layout = MatrixLayout::ColumnBlocks.partition(n, n, 1, 1);
        let mut s = Session::connect(&other_addrs);
        s.create_file(2, layout.clone(), n * n).expect("create beside the slow reader");
        s.set_view(0, 2, &layout, 0).expect("view beside the slow reader");
        let data: Vec<u8> = (0..n * n).map(|i| i as u8).collect();
        assert_eq!(s.write(0, 2, 0, n * n - 1, &data).expect("write"), n * n);
        assert_eq!(s.read(0, 2, 0, n * n - 1).expect("read"), data);
        let _ = done_tx.send(());
    });
    done.recv_timeout(Duration::from_secs(10))
        .expect("a second session completes its writes and reads beside a stalled reader");
    other.join().expect("second session");
    drop(slow);
}

#[test]
fn a_pause_keeps_turning_the_connections() {
    // A request submitted before the pause is answered during it: the
    // pause runs reactor turns, it does not park the thread.
    let mut daemon = serve("127.0.0.1:0", DaemonConfig::default()).expect("serve");
    let mut mux = Mux::new(&[daemon.addr().to_string()], Arc::new(RetryBudget::for_session()));
    let slot = mux.submit(0, Request::Ping).expect("submit");
    let started = Instant::now();
    mux.pause(started + Duration::from_millis(50));
    assert!(started.elapsed() >= Duration::from_millis(50), "the pause lasts its span");
    // An `until` already past runs no turn: only a settled slot shows.
    assert_eq!(mux.wait_any(&[slot], Some(Instant::now())), Some(slot));
    assert!(matches!(mux.wait(slot), Ok(Reply::Pong { .. })));
    drop(mux);
    daemon.stop();
}
