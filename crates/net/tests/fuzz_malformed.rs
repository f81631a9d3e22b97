//! Malformed-input hardening: fuzz-style frames — truncated, oversized,
//! garbage — must produce a typed protocol error (or a clean close), never
//! a panic or a hang, and must never poison the daemon for later clients.
//!
//! Two layers are attacked: the pure decoders (no sockets, high case
//! count) and a live daemon over real loopback TCP (lower case count, with
//! client-side read timeouts standing guard against hangs).

use parafile_net::server::{serve, DaemonConfig, DaemonHandle};
use parafile_net::wire::{self, Reply, Request, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use parafile_net::ErrCode;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Layer 1: pure decoders on arbitrary bytes

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes through every opcode's request decoder: `Ok` or a
    /// typed `WireError`, never a panic.
    #[test]
    fn request_decoder_totals(opcode in 0u8..=255, bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(opcode, &bytes);
    }

    /// Arbitrary bytes through the reply decoder likewise.
    #[test]
    fn reply_decoder_totals(opcode in 0u8..=255, bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Reply::decode(opcode, &bytes);
    }

    /// Every truncation of a valid `SetView` (the structurally richest
    /// payload: nested FALLS trees inside) decodes to a typed error.
    #[test]
    fn truncated_setview_is_typed(cut_seed in any::<u64>()) {
        let req = sample_setview();
        let payload = req.encode_payload();
        let cut = (cut_seed % payload.len() as u64) as usize;
        prop_assert!(Request::decode(req.opcode(), &payload[..cut]).is_err());
    }

    /// Arbitrary byte streams through the frame reader: a frame, a typed
    /// framing error, or clean close — never a panic, never an
    /// out-of-bounds read.
    #[test]
    fn frame_reader_totals(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut cursor = bytes.as_slice();
        let _ = wire::read_frame(&mut cursor, 1 << 16);
    }
}

fn sample_setview() -> Request {
    use parafile_audit::{RawElement, RawFalls, RawPattern};
    Request::SetView {
        file: 3,
        compute: 1,
        element: 0,
        view: RawPattern {
            displacement: 0,
            elements: vec![
                RawElement::new(vec![RawFalls::leaf(0, 3, 8, 2)]),
                RawElement::new(vec![RawFalls::leaf(4, 7, 8, 2)]),
            ],
        },
        proj_set: vec![RawFalls::nested(0, 7, 16, 1, vec![RawFalls::leaf(0, 1, 4, 2)])],
        proj_period: 16,
    }
}

// ---------------------------------------------------------------------------
// Layer 2: a live daemon under hostile framing

struct Attack {
    handle: DaemonHandle,
}

impl Attack {
    fn new() -> Self {
        let handle = serve("127.0.0.1:0", DaemonConfig::default()).expect("bind loopback");
        Attack { handle }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.handle.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        s
    }

    /// The daemon must still serve a well-formed request on a fresh
    /// connection (i.e. hostile input did not kill or wedge it).
    fn assert_alive(&self) {
        let mut s = self.connect();
        let req = Request::Open { file: 99, subfile: 0, len: 8, tenant: 0 };
        wire::write_frame(&mut s, req.opcode(), 7, &req.encode_payload()).expect("send");
        let frame = wire::read_frame(&mut s, DEFAULT_MAX_FRAME).expect("daemon replies");
        assert_eq!(frame.request_id, 7);
        assert!(matches!(Reply::decode(frame.opcode, &frame.payload), Ok(Reply::Ok)));
    }
}

/// Reads one reply and asserts it is a typed protocol error of `code`.
fn expect_error(s: &mut TcpStream, code: ErrCode) {
    let frame = wire::read_frame(s, DEFAULT_MAX_FRAME).expect("error reply arrives");
    match Reply::decode(frame.opcode, &frame.payload) {
        Ok(Reply::Error(e)) => assert_eq!(e.code, code, "{e}"),
        other => panic!("expected an Error reply, got {other:?}"),
    }
}

#[test]
fn garbage_frames_get_typed_errors_and_daemon_survives() {
    let attack = Attack::new();
    let mut rng = proptest::TestRng::new(0x5EED);
    for _ in 0..64 {
        let mut s = attack.connect();
        // A well-framed request whose body is garbage: random opcode and
        // random payload bytes.
        let opcode = rng.next_u64() as u8;
        let n = (rng.next_u64() % 64) as usize;
        let payload: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        wire::write_frame(&mut s, opcode, 42, &payload).expect("send garbage");
        let frame = wire::read_frame(&mut s, DEFAULT_MAX_FRAME).expect("typed reply, not a hang");
        assert_eq!(frame.request_id, 42, "reply matches the offending request");
        // Any reply is acceptable for a by-chance-valid request; garbage
        // must come back as one of the malformed-class errors.
        if let Reply::Error(e) =
            Reply::decode(frame.opcode, &frame.payload).expect("decodable reply")
        {
            assert!(
                matches!(
                    e.code,
                    ErrCode::UnknownOp
                        | ErrCode::Malformed
                        | ErrCode::UnknownFile
                        | ErrCode::BadRange
                        | ErrCode::NoView
                        | ErrCode::PatternRejected
                ),
                "unexpected error class: {e}"
            );
        }
    }
    attack.assert_alive();
}

#[test]
fn oversized_frame_is_rejected_then_connection_closed() {
    let attack = Attack::new();
    let mut s = attack.connect();
    // Claim a body far over the budget; send nothing else.
    s.write_all(&(DEFAULT_MAX_FRAME + 1).to_le_bytes()).expect("send length");
    expect_error(&mut s, ErrCode::FrameTooLarge);
    // The daemon closes after replying — the stream must reach EOF, not hang.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).expect("clean close"), 0);
    attack.assert_alive();
}

#[test]
fn undersized_frame_is_rejected() {
    let attack = Attack::new();
    let mut s = attack.connect();
    // A length prefix smaller than the fixed header.
    s.write_all(&3u32.to_le_bytes()).expect("send length");
    s.write_all(&[1, 2, 3]).expect("send stub body");
    expect_error(&mut s, ErrCode::Malformed);
    attack.assert_alive();
}

#[test]
fn truncated_frame_then_close_does_not_wedge_the_daemon() {
    let attack = Attack::new();
    for cut in [0usize, 1, 3, 4, 9, 13] {
        let mut s = attack.connect();
        let req = Request::Stat { file: 1 };
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, req.opcode(), 1, &req.encode_payload()).expect("encode");
        s.write_all(&bytes[..cut]).expect("send truncated prefix");
        drop(s); // hang up mid-frame
    }
    attack.assert_alive();
}

/// Every version byte but [`PROTOCOL_VERSION`] is refused with
/// `UnsupportedVersion` before the frame is admitted or decoded: a `Stat`
/// and a `Write` framed at each of them get the typed error on a
/// connection that stays usable, and the `Write`'s bytes never reach the
/// subfile.
#[test]
fn wrong_version_gets_typed_error() {
    use parafile_audit::{RawElement, RawFalls, RawPattern};
    let attack = Attack::new();
    let mut s = attack.connect();
    let mut id = 0u64;
    let mut call = |s: &mut TcpStream, version: u8, req: &Request| {
        id += 1;
        wire::write_frame_at(s, version, req.opcode(), id, &req.encode_payload()).expect("send");
        let frame = wire::read_frame(s, DEFAULT_MAX_FRAME).expect("reply arrives");
        assert_eq!(frame.request_id, id, "reply matches the request");
        Reply::decode(frame.opcode, &frame.payload).expect("decodable reply")
    };
    // A 16-byte subfile behind a view that owns all of it, so `Write` and
    // `Read` address subfile bytes directly.
    let open = Request::Open { file: 8, subfile: 0, len: 16, tenant: 0 };
    assert_eq!(call(&mut s, PROTOCOL_VERSION, &open), Reply::Ok);
    let whole = RawFalls::leaf(0, 15, 16, 1);
    let view = Request::SetView {
        file: 8,
        compute: 0,
        element: 0,
        view: RawPattern { displacement: 0, elements: vec![RawElement::new(vec![whole.clone()])] },
        proj_set: vec![whole],
        proj_period: 16,
    };
    assert_eq!(call(&mut s, PROTOCOL_VERSION, &view), Reply::Ok);
    let write = |seq| Request::Write {
        file: 8,
        compute: 0,
        l_s: 0,
        r_s: 15,
        session: 1,
        seq,
        payload: vec![0xAB; 16],
    };
    let read = Request::Read { file: 8, compute: 0, l_s: 0, r_s: 15 };
    for version in (0..=5).chain([7, 255]) {
        assert_ne!(version, PROTOCOL_VERSION);
        for req in [Request::Stat { file: 8 }, write(u64::from(version) + 1)] {
            match call(&mut s, version, &req) {
                Reply::Error(e) => assert_eq!(e.code, ErrCode::UnsupportedVersion, "{e}"),
                other => panic!("v{version} {req:?}: expected a refusal, got {other:?}"),
            }
        }
        // Same connection: served, and the refused write left no byte.
        let unchanged = call(&mut s, PROTOCOL_VERSION, &read);
        assert_eq!(unchanged, Reply::Data { payload: vec![0; 16] }, "after v{version}");
    }
    // The same write at the protocol version lands, so the read above
    // would have seen it.
    let landed = call(&mut s, PROTOCOL_VERSION, &write(1000));
    assert_eq!(landed, Reply::WriteOk { written: 16, replayed: false });
    assert_eq!(call(&mut s, PROTOCOL_VERSION, &read), Reply::Data { payload: vec![0xAB; 16] });
    attack.assert_alive();
}

/// Opcode `0x0B` once opened a read-side chunk stream. It is retired:
/// a well-formed old-style payload gets the standard `UnknownOp` error —
/// not a stream, not a decode failure — and the connection stays usable.
#[test]
fn retired_read_stream_opcode_is_an_unknown_op() {
    let attack = Attack::new();
    let mut s = attack.connect();
    // deadline prefix + (file, compute, l_s, r_s, max_chunk), as clients
    // used to frame it.
    let mut payload = 0u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&31u64.to_le_bytes());
    payload.extend_from_slice(&4096u32.to_le_bytes());
    wire::write_frame(&mut s, 0x0B, 11, &payload).expect("send retired opcode");
    expect_error(&mut s, ErrCode::UnknownOp);
    // Same connection, next frame: served normally.
    let open = Request::Open { file: 6, subfile: 0, len: 8, tenant: 0 };
    wire::write_frame(&mut s, open.opcode(), 12, &open.encode_payload()).expect("send open");
    let frame = wire::read_frame(&mut s, DEFAULT_MAX_FRAME).expect("open reply");
    assert_eq!(frame.request_id, 12);
    assert!(matches!(Reply::decode(frame.opcode, &frame.payload), Ok(Reply::Ok)));
    attack.assert_alive();
}

#[test]
fn malicious_setview_trees_are_rejected_not_recursed() {
    use parafile_audit::RawFalls;
    let attack = Attack::new();
    let mut s = attack.connect();
    // Open a file so SetView reaches the decoder, then send a view whose
    // FALLS tree nests beyond the decoder's depth budget.
    let open = Request::Open { file: 5, subfile: 0, len: 64, tenant: 0 };
    wire::write_frame(&mut s, open.opcode(), 1, &open.encode_payload()).expect("open");
    wire::read_frame(&mut s, DEFAULT_MAX_FRAME).expect("open reply");
    let mut tree = RawFalls::leaf(0, 0, 1, 1);
    for _ in 0..wire::MAX_TREE_DEPTH + 4 {
        tree = RawFalls::nested(0, 0, 1, 1, vec![tree]);
    }
    let mut req = sample_setview();
    if let Request::SetView { file, proj_set, .. } = &mut req {
        *file = 5;
        *proj_set = vec![tree];
    }
    wire::write_frame(&mut s, req.opcode(), 2, &req.encode_payload()).expect("send");
    expect_error(&mut s, ErrCode::Malformed);
    attack.assert_alive();
}
