//! Chunk-boundary semantics of the streamed data path: a chunked
//! transfer must be byte-for-byte the same logical operation as its
//! monolithic counterpart, at every awkward boundary the framing can
//! produce — chunk edges that straddle projected segment runs, final
//! chunks cut short at EOF, empty projections, and stamped replays that
//! arrive as a stream instead of one frame.

use parafile::Mapper;

use arraydist::matrix::MatrixLayout;
use parafile_audit::{RawElement, RawFalls, RawPattern};
use parafile_net::server::{serve, DaemonConfig, DaemonHandle};
use parafile_net::session::{BatchWrite, Session};
use parafile_net::wire::{Reply, Request, StatInfo};
use parafile_net::{Mux, RetryBudget};
use std::sync::Arc;

/// A daemon advertising `max_chunk` as its chunk budget (`0` = no
/// chunking: every write travels as one monolithic frame), and a
/// one-node transport connected to it. The chunk size is the daemon's to
/// choose; the client honours whatever `Pong` advertises.
fn node(config: DaemonConfig) -> (DaemonHandle, Mux) {
    let daemon = serve("127.0.0.1:0", config).expect("serve");
    let mux = Mux::new(&[daemon.addr().to_string()], Arc::new(RetryBudget::for_session()));
    (daemon, mux)
}

fn chunking(max_chunk: u32) -> DaemonConfig {
    DaemonConfig { max_chunk, ..DaemonConfig::default() }
}

/// The striped view used throughout: element 0 owns bytes `[0,3]` of
/// every 8-byte period, so transfers scatter/gather across disjoint
/// subfile runs and chunk boundaries land mid-run.
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

fn open_with_view(mux: &mut Mux, file: u64, len: u64) {
    let open = Request::Open { file, subfile: 0, len, tenant: 0 };
    assert_eq!(mux.call(0, open).expect("open"), Reply::Ok);
    assert_eq!(mux.call(0, striped_view(file)).expect("set view"), Reply::Ok);
}

fn write(mux: &mut Mux, file: u64, r_s: u64, stamp: (u64, u64), payload: &[u8]) -> Reply {
    let request = Request::Write {
        file,
        compute: 0,
        l_s: 0,
        r_s,
        session: stamp.0,
        seq: stamp.1,
        payload: payload.to_vec(),
    };
    mux.call(0, request).expect("write")
}

fn read(mux: &mut Mux, file: u64, l_s: u64, r_s: u64) -> Vec<u8> {
    match mux.call(0, Request::Read { file, compute: 0, l_s, r_s }).expect("read") {
        Reply::Data { payload } => payload,
        other => panic!("expected Data, got {other:?}"),
    }
}

fn fetch(mux: &mut Mux, file: u64) -> Vec<u8> {
    match mux.call(0, Request::Fetch { file }).expect("fetch") {
        Reply::Data { payload } => payload,
        other => panic!("expected Data, got {other:?}"),
    }
}

fn stat(mux: &mut Mux, file: u64) -> StatInfo {
    match mux.call(0, Request::Stat { file }).expect("stat") {
        Reply::Stat(s) => s,
        other => panic!("expected Stat, got {other:?}"),
    }
}

/// A chunked write (chunk far smaller than the payload, boundaries
/// misaligned with the 4-byte segment runs) lands the same bytes as the
/// monolithic request — and the daemon's own request counter shows the
/// stream really was three `WriteChunk` frames, not one `Write`.
#[test]
fn chunked_write_matches_monolithic_byte_for_byte() {
    let (_chunked_daemon, mut chunked) = node(chunking(3));
    let (_mono_daemon, mut mono) = node(chunking(0));

    open_with_view(&mut chunked, 1, 16);
    open_with_view(&mut mono, 1, 16);
    let payload = [0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7];
    assert_eq!(
        write(&mut chunked, 1, 15, (0, 0), &payload),
        Reply::WriteOk { written: 8, replayed: false }
    );
    assert_eq!(
        write(&mut mono, 1, 15, (0, 0), &payload),
        Reply::WriteOk { written: 8, replayed: false }
    );

    assert_eq!(fetch(&mut chunked, 1), fetch(&mut mono, 1), "chunked and monolithic bytes agree");
    // Open + SetView + the write + the Fetch above (a Stat counts itself):
    // the monolithic daemon served the write as one request, the chunked
    // one as ⌈8/3⌉ = 3.
    assert_eq!(stat(&mut mono, 1).requests, 5);
    assert_eq!(stat(&mut chunked, 1).requests, 7);
    assert_eq!(stat(&mut chunked, 1).bytes_written, 8, "the stream is counted as one write");
}

/// A stamped chunked write that repeats is answered from the dedup
/// window exactly like a monolithic replay: only the final chunk carries
/// the stamp, so the stream replays without touching the store.
#[test]
fn chunked_write_replays_from_dedup_window() {
    let (_daemon, mut mux) = node(chunking(3));
    open_with_view(&mut mux, 5, 16);

    assert_eq!(
        write(&mut mux, 5, 15, (0xC0FE, 9), &[0xAA; 8]),
        Reply::WriteOk { written: 8, replayed: false }
    );
    // Same stamp, different bytes: the stream is acknowledged chunk by
    // chunk but the store keeps the first application.
    assert_eq!(
        write(&mut mux, 5, 15, (0xC0FE, 9), &[0xBB; 8]),
        Reply::WriteOk { written: 8, replayed: true }
    );
    let bytes = fetch(&mut mux, 5);
    for i in [0usize, 1, 2, 3, 8, 9, 10, 11] {
        assert_eq!(bytes[i], 0xAA, "replay did not overwrite byte {i}");
    }
}

/// A chunked write whose projection is clipped at EOF, with a chunk size
/// that puts the boundary mid-way through the EOF-partial run: the bytes
/// land on the projected runs and read back whole.
#[test]
fn partial_read_at_eof_straddles_chunk_boundary() {
    // Subfile of 10 bytes under a period-8 stripe: the projection selects
    // {0,1,2,3} and the EOF-clipped {8,9} — six bytes across two runs.
    // Chunk 5 splits the six bytes 5+1: the first chunk swallows run
    // [0,3] plus the first byte of the EOF-partial run, the final chunk
    // is a single byte.
    let (_daemon, mut mux) = node(chunking(5));
    open_with_view(&mut mux, 7, 10);

    let payload = [1, 2, 3, 4, 5, 6];
    assert_eq!(
        write(&mut mux, 7, 9, (0, 0), &payload),
        Reply::WriteOk { written: 6, replayed: false }
    );
    assert_eq!(read(&mut mux, 7, 0, 9), payload, "the read gathers the written bytes");
    assert_eq!(
        fetch(&mut mux, 7),
        vec![1, 2, 3, 4, 0, 0, 0, 0, 5, 6],
        "bytes landed on the projected runs"
    );
}

/// Intervals whose projection selects nothing: the read answers an empty
/// `Data` and an empty write acknowledges zero bytes, chunking daemon or
/// not.
#[test]
fn empty_projections_stream_as_a_single_terminal_chunk() {
    let (_chunked_daemon, mut chunked) = node(chunking(2));
    let (_mono_daemon, mut mono) = node(chunking(0));
    open_with_view(&mut chunked, 9, 16);
    open_with_view(&mut mono, 9, 16);

    // [4,7] falls entirely in the other element's half of the period:
    // zero projected bytes.
    assert_eq!(read(&mut chunked, 9, 4, 7), Vec::<u8>::new());
    assert_eq!(read(&mut mono, 9, 4, 7), Vec::<u8>::new());
    let empty_write = Request::Write {
        file: 9,
        compute: 0,
        l_s: 4,
        r_s: 7,
        session: 0,
        seq: 0,
        payload: Vec::new(),
    };
    assert_eq!(
        chunked.call(0, empty_write).expect("empty write"),
        Reply::WriteOk { written: 0, replayed: false }
    );
    // Reads beyond EOF clip to nothing rather than erroring.
    let past_eof = Request::Read { file: 9, compute: 0, l_s: 20, r_s: 40 };
    assert_eq!(
        chunked.call(0, past_eof.clone()).expect("read past EOF"),
        mono.call(0, past_eof).expect("read past EOF"),
    );
}

/// The full session data path against daemons whose advertised chunk
/// budget is far below every payload: the matrix-redistribution write
/// (pipelined via `write_batch`) streams every message and the read-back
/// is byte-identical to what was written.
#[test]
fn session_write_batch_streams_against_small_daemon_chunk_cap() {
    let n = 16u64;
    let file_len = n * n;
    let file = 42u64;
    let io_nodes = 4usize;
    let daemons: Vec<DaemonHandle> = (0..io_nodes)
        .map(|_| {
            serve("127.0.0.1:0", DaemonConfig { max_chunk: 5, ..Default::default() })
                .expect("serve")
        })
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();

    let physical = MatrixLayout::ColumnBlocks.partition(n, n, 1, io_nodes as u64);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 4);
    let mut session = Session::connect(&addrs);
    session.create_file(file, physical.clone(), file_len).expect("create");
    for c in 0..4u32 {
        session.set_view(c, file, &logical, c as usize).expect("set view");
    }

    // Every compute's 64-byte message streams as 13 five-byte chunks.
    let len = logical.element_len(0, file_len).unwrap();
    let fills: Vec<Vec<u8>> = (0..4u8).map(|c| vec![0x60 + c; len as usize]).collect();
    for (c, data) in fills.iter().enumerate() {
        let reports = session
            .write_batch(
                c as u32,
                file,
                &[BatchWrite { lo_v: 0, hi_v: len - 1, data: data.as_slice() }],
            )
            .expect("batch write");
        assert!(reports[0].fully_applied(), "compute {c}: {:?}", reports[0].outcomes);
    }
    for (c, data) in fills.iter().enumerate() {
        let back = session.read(c as u32, file, 0, len - 1).expect("read");
        assert_eq!(&back, data, "compute {c} reads back its streamed write");
    }

    // Cross-check one subfile against the mapping functions directly.
    let sub0 = session.subfile(file, 0).expect("fetch subfile 0");
    let pm = Mapper::new(&physical, 0);
    for (s, &b) in sub0.iter().enumerate() {
        let x = pm.unmap(s as u64);
        let owner = (0..4).find(|&c| Mapper::new(&logical, c).map(x).is_some()).unwrap();
        assert_eq!(b, 0x60 + owner as u8, "subfile 0 byte {s} (file offset {x})");
    }
}

/// `ResumeQuery` for a stamp whose final chunk already journaled answers
/// offset 0: the completed write must be retried as a whole (and
/// deduplicated as a replay), never resumed mid-stream past the end.
/// Unstamped queries likewise answer 0.
#[test]
fn resume_query_after_completed_stream_answers_zero() {
    let (_daemon, mut mux) = node(chunking(2));
    open_with_view(&mut mux, 3, 16);
    assert_eq!(
        write(&mut mux, 3, 15, (7, 4), &[0xD0; 8]),
        Reply::WriteOk { written: 8, replayed: false }
    );
    // The stamp completed: its progress entry is gone and the dedup
    // window holds the full write, so a resume would skip real work.
    assert_eq!(
        mux.call(0, Request::ResumeQuery { file: 3, session: 7, seq: 4 }).expect("query"),
        Reply::ResumeAt { offset: 0 }
    );
    assert_eq!(
        mux.call(0, Request::ResumeQuery { file: 3, session: 0, seq: 0 }).expect("query"),
        Reply::ResumeAt { offset: 0 }
    );
}

/// A mid-stream `WriteChunk` is accepted as a resume only when the
/// daemon recorded exactly that much progress for exactly that
/// `(session, seq)`: a stamp with no recorded progress, and a chunk
/// continuing *another* stamp's stream, are both rejected as malformed
/// instead of silently fast-forwarding someone else's bytes.
#[test]
fn mid_stream_chunk_with_mismatched_stamp_is_rejected() {
    use parafile_net::{ErrCode, NetError};
    // Raw `WriteChunk` requests pass through `call` as plain frames.
    let (_daemon, mut mux) = node(DaemonConfig::default());
    open_with_view(&mut mux, 4, 16);
    let chunk = |session: u64, offset: u64, last: bool| Request::WriteChunk {
        file: 4,
        compute: 0,
        l_s: 0,
        r_s: 15,
        session,
        seq: 1,
        offset,
        total: 8,
        last,
        data: vec![0xEE; 4],
    };
    let expect_malformed = |r: Result<Reply, NetError>, what: &str| match r {
        Err(NetError::Protocol(e)) => assert_eq!(e.code, ErrCode::Malformed, "{what}: {e:?}"),
        other => panic!("{what}: expected Malformed, got {other:?}"),
    };
    // No stream, no recorded progress: a mid-stream first frame for
    // stamp 99 cannot resume anything.
    expect_malformed(mux.call(0, chunk(99, 4, false)), "unknown stamp");
    // Start a genuine stream for stamp 9, then try to continue it with
    // stamp 88: the daemon has progress for (9,1) only, so (88,1) at the
    // matching offset is still refused.
    assert_eq!(mux.call(0, chunk(9, 0, false)).expect("first chunk"), Reply::ChunkOk { offset: 0 });
    expect_malformed(mux.call(0, chunk(88, 4, false)), "mismatched stamp");
    // The genuine owner finishes its stream unharmed after a reconnect
    // resume from its own recorded progress.
    assert_eq!(
        mux.call(0, chunk(9, 4, true)).expect("final chunk"),
        Reply::WriteOk { written: 8, replayed: false }
    );
}

/// A live client deadline rides every frame of a chunked write and a
/// read without tripping the daemon, and an expired one fails fast on the
/// client: the request never reaches the wire.
#[test]
fn client_deadline_rides_the_stream_and_expires_locally() {
    use parafile_net::{Deadline, ErrCode, NetError};
    use std::time::Duration;
    let (_daemon, mut mux) = node(chunking(3));
    open_with_view(&mut mux, 6, 16);
    let payload = [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88];
    mux.set_deadline(Deadline::within(Duration::from_secs(30)));
    assert_eq!(
        write(&mut mux, 6, 15, (5, 2), &payload),
        Reply::WriteOk { written: 8, replayed: false }
    );
    assert_eq!(read(&mut mux, 6, 0, 15), payload);
    let served = stat(&mut mux, 6).requests;
    mux.set_deadline(Deadline::within(Duration::ZERO));
    match mux.call(0, Request::Read { file: 6, compute: 0, l_s: 0, r_s: 15 }) {
        Err(NetError::Protocol(e)) => assert_eq!(e.code, ErrCode::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    mux.set_deadline(Deadline::none());
    assert_eq!(stat(&mut mux, 6).requests, served + 1, "only this Stat reached the daemon");
}

/// A stamped chunked write severed mid-stream by a one-shot connection
/// drop resumes on retry from the last acknowledged chunk:
/// the client queries the daemon's recorded partial progress with
/// `ResumeQuery` and fast-forwards past the chunks an earlier attempt
/// already applied and journaled — instead of restarting at offset 0.
#[test]
fn interrupted_chunked_write_resumes_from_last_acked_chunk() {
    use parafile_net::fault::FaultPlan;
    // Frames on the faulted connection: 1 Open, 2 SetView, 3 the Ping
    // capability probe, 4.. the chunk stream. Dropping frame 6 lands
    // mid-stream with two 2-byte chunks already applied and acked.
    let fault = FaultPlan { drop_once_after_frames: Some(6), ..FaultPlan::none() };
    let (_daemon, mut mux) = node(DaemonConfig { fault: Some(fault), ..chunking(2) });

    open_with_view(&mut mux, 1, 32);
    let payload: Vec<u8> = (0..16u8).map(|i| 0xB0 + i).collect();
    assert_eq!(
        write(&mut mux, 1, 31, (9, 1), &payload),
        Reply::WriteOk { written: 16, replayed: false }
    );
    assert_eq!(read(&mut mux, 1, 0, 31), payload, "resumed stream lands every byte");
    // The daemon's request counter tells the two retry shapes apart. It
    // served Open, SetView and chunks 0–1 before the drop (4), then the
    // retry's ResumeQuery and the six remaining chunks (7), then the Read
    // and this Stat (2). A retry from offset 0 would have sent all eight
    // chunks again and no query: 14, not 13.
    assert_eq!(stat(&mut mux, 1).requests, 13, "the retry resumed instead of restarting");
}
