//! Encode→decode identity for every frame type, property-tested.
//!
//! Three layers of guarantees, each over randomly generated frames:
//!
//! * **round-trip identity** — every v4 request and reply payload decodes
//!   back to exactly the value that was encoded, including chunked frames
//!   at boundary data sizes (empty, one byte, around the chunk limit);
//! * **version gating** — additive v2/v3/v4 fields are dropped when
//!   encoding for an older peer and refilled with their documented
//!   defaults when decoding, and v3-only/v4-only opcodes are rejected
//!   outright on older connections;
//! * **truncation rejection** — cutting any encoded payload short never
//!   panics and never decodes back to the original value: fixed-layout
//!   payloads answer a typed `WireError`, trailing-bytes payloads (write
//!   data) decode to a visibly shorter value.

use parafile_audit::{RawElement, RawFalls, RawPattern};
use parafile_net::wire::{op, Reply, Request, StatInfo, WireError};
use parafile_net::{ErrCode, ProtocolError};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies

/// A small raw FALLS tree (validity is irrelevant to the codec: the wire
/// carries *raw* trees and the daemon audits them after decoding).
fn arb_falls() -> impl Strategy<Value = RawFalls> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), 0usize..3).prop_map(
        |(l, r, s, n, kids)| RawFalls {
            l,
            r,
            s,
            n,
            inner: (0..kids as u64).map(|k| RawFalls::leaf(k, k + 1, 4, 1)).collect(),
        },
    )
}

fn arb_pattern() -> impl Strategy<Value = RawPattern> {
    (any::<u64>(), prop::collection::vec(arb_falls(), 0..3)).prop_map(|(displacement, fams)| {
        RawPattern { displacement, elements: vec![RawElement::new(fams)] }
    })
}

/// What a sub-v6 wire preserves of `req`: the tenant id is a v6 additive
/// field, so older encodings drop it to the anonymous tenant.
fn below_v6(req: &Request) -> Request {
    match req {
        Request::Open { file, subfile, len, tenant: _ } => {
            Request::Open { file: *file, subfile: *subfile, len: *len, tenant: 0 }
        }
        other => other.clone(),
    }
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(file, subfile, len, tenant)| Request::Open { file, subfile, len, tenant }),
        (any::<u64>(), any::<u32>(), any::<u32>(), arb_pattern(), arb_falls(), any::<u64>())
            .prop_map(|(file, compute, element, view, proj, proj_period)| Request::SetView {
                file,
                compute,
                element,
                view,
                proj_set: vec![proj],
                proj_period,
            }),
        arb_write(),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(file, compute, l_s, r_s)| Request::Read { file, compute, l_s, r_s }),
        any::<u64>().prop_map(|file| Request::Flush { file }),
        any::<u64>().prop_map(|file| Request::Stat { file }),
        any::<u64>().prop_map(|file| Request::Fetch { file }),
        Just(Request::Shutdown),
        Just(Request::Ping),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(file, session, seq)| { Request::ResumeQuery { file, session, seq } }),
        arb_write_chunk(0..64),
    ]
}

fn arb_write() -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(file, compute, l_s, r_s, session, seq, payload)| Request::Write {
            file,
            compute,
            l_s,
            r_s,
            session,
            seq,
            payload,
        })
}

/// A `WriteChunk` with its data length drawn from `sizes` — reused by the
/// general round-trip (small sizes) and the boundary-size suite.
fn arb_write_chunk(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), sizes),
    )
        .prop_map(|(file, compute, l_s, r_s, session, seq, offset, last, data)| {
            Request::WriteChunk {
                file,
                compute,
                l_s,
                r_s,
                session,
                seq,
                offset,
                total: offset + data.len() as u64,
                last,
                data,
            }
        })
}

fn arb_err_code() -> impl Strategy<Value = ErrCode> {
    (1u16..=14).prop_filter_map("valid wire id", ErrCode::from_u16)
}

/// The v5 admission-control replies (`Busy` / `Overloaded`).
fn arb_shed_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        any::<u32>().prop_map(|retry_after_ms| Reply::Busy { retry_after_ms }),
        any::<u32>().prop_map(|retry_after_ms| Reply::Overloaded { retry_after_ms }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        Just(Reply::Ok),
        (any::<u64>(), any::<bool>())
            .prop_map(|(written, replayed)| Reply::WriteOk { written, replayed }),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|payload| Reply::Data { payload }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(len, views, requests, bytes_written, bytes_read, fragments, checksum_errors)| {
                    Reply::Stat(StatInfo {
                        len,
                        views,
                        requests,
                        bytes_written,
                        bytes_read,
                        fragments,
                        checksum_errors,
                    })
                }
            ),
        (any::<u64>(), any::<u32>())
            .prop_map(|(epoch, max_chunk)| Reply::Pong { epoch, max_chunk }),
        any::<u64>().prop_map(|offset| Reply::ChunkOk { offset }),
        any::<u64>().prop_map(|offset| Reply::ResumeAt { offset }),
        (arb_err_code(), 0usize..3, prop::collection::vec(any::<u8>(), 0..12)).prop_map(
            |(code, n_pa, msg)| Reply::Error(ProtocolError {
                code,
                pa_codes: (0..n_pa).map(|i| format!("PA{:03}", 20 + i)).collect(),
                message: String::from_utf8_lossy(&msg).into_owned(),
            })
        ),
    ]
}

// ---------------------------------------------------------------------------
// Round-trip identity at v3

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request frame type: encode at v4, decode at v4, get the same
    /// value back (modulo the v6 tenant field, which a sub-v6 wire drops
    /// to the anonymous tenant by design).
    #[test]
    fn request_roundtrip_v4(req in arb_request()) {
        let payload = req.encode_payload_at(4);
        let back = Request::decode_at(4, req.opcode(), &payload);
        prop_assert_eq!(back.as_ref(), Ok(&below_v6(&req)));
    }

    /// Every reply frame type likewise.
    #[test]
    fn reply_roundtrip_v4(reply in arb_reply()) {
        let payload = reply.encode_payload_at(4);
        let back = Reply::decode_at(4, reply.opcode(), &payload);
        prop_assert_eq!(back.as_ref(), Ok(&reply));
    }

    /// Chunked frames at boundary data sizes: empty, single-byte, and
    /// straddling a typical negotiated chunk limit.
    #[test]
    fn chunk_frames_roundtrip_at_boundary_sizes(
        req in arb_write_chunk(0..2),
        big in arb_write_chunk(4095..4098),
    ) {
        for r in [req, big] {
            let payload = r.encode_payload_at(3);
            prop_assert_eq!(Request::decode_at(3, r.opcode(), &payload), Ok(r));
        }
    }
}

// ---------------------------------------------------------------------------
// Version gating

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The v2 additive fields of `Write` are dropped for a v1 peer and
    /// refilled with the unstamped sentinel on decode; the payload
    /// survives untouched.
    #[test]
    fn write_gates_its_stamp_below_v2(req in arb_write()) {
        let Request::Write { payload, .. } = &req else { unreachable!() };
        let v1 = req.encode_payload_at(1);
        prop_assert_eq!(v1.len() + 16, req.encode_payload_at(2).len());
        match Request::decode_at(1, op::WRITE, &v1) {
            Ok(Request::Write { session, seq, payload: got, .. }) => {
                prop_assert_eq!((session, seq), (0, 0));
                prop_assert_eq!(&got, payload);
            }
            other => return Err(TestCaseError::fail(format!("decoded {other:?}"))),
        }
    }

    /// `Pong` drops its v3 capability field for a v2 peer (capability
    /// defaults to "no chunking"); `WriteOk` drops its v2 replay flag for
    /// a v1 peer.
    #[test]
    fn replies_gate_additive_fields(epoch in any::<u64>(), max_chunk in 1u32..=u32::MAX, written in any::<u64>()) {
        let pong = Reply::Pong { epoch, max_chunk };
        let v2 = pong.encode_payload_at(2);
        prop_assert_eq!(Reply::decode_at(2, op::R_PONG, &v2), Ok(Reply::Pong { epoch, max_chunk: 0 }));

        let ack = Reply::WriteOk { written, replayed: true };
        let v1 = ack.encode_payload_at(1);
        prop_assert_eq!(v1.len(), 8);
        prop_assert_eq!(
            Reply::decode_at(1, op::R_WRITE_OK, &v1),
            Ok(Reply::WriteOk { written, replayed: false })
        );
    }

    /// v3-only opcodes are rejected on older connections no matter what
    /// bytes follow them.
    #[test]
    fn chunk_opcodes_rejected_below_v3(version in 1u8..=2, bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(
            Request::decode_at(version, op::WRITE_CHUNK, &bytes),
            Err(WireError::BadValue("opcode"))
        );
        prop_assert_eq!(
            Reply::decode_at(version, op::R_CHUNK_OK, &bytes),
            Err(WireError::BadValue("opcode"))
        );
    }

    /// The v4-only resume opcodes are likewise rejected on v1–v3
    /// connections.
    #[test]
    fn resume_opcodes_rejected_below_v4(version in 1u8..=3, bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(
            Request::decode_at(version, op::WRITE_RESUME, &bytes),
            Err(WireError::BadValue("opcode"))
        );
        prop_assert_eq!(
            Reply::decode_at(version, op::R_RESUME, &bytes),
            Err(WireError::BadValue("opcode"))
        );
    }
}

// ---------------------------------------------------------------------------
// v5: the deadline prefix and the shed replies

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// At v5 every request payload leads with a `u32` deadline budget that
    /// round-trips alongside the request; v4 encodes no prefix, so the v5
    /// form is exactly four bytes longer and a v4 decode refills 0.
    #[test]
    fn request_deadline_roundtrips_at_v5(req in arb_request(), deadline in any::<u32>()) {
        let mut v5 = Vec::new();
        req.encode_payload_deadline_into(5, deadline, &mut v5);
        prop_assert_eq!(
            Request::decode_deadline_at(5, req.opcode(), &v5),
            Ok((below_v6(&req), deadline))
        );
        let v4 = req.encode_payload_at(4);
        prop_assert_eq!(v4.len() + 4, v5.len(), "the prefix is exactly one u32");
        prop_assert_eq!(
            Request::decode_deadline_at(4, req.opcode(), &v4),
            Ok((below_v6(&req), 0))
        );
    }

    /// Truncating a v5 payload anywhere — inside the deadline prefix or
    /// inside the body — never panics and never yields the original
    /// `(request, deadline)` pair back.
    #[test]
    fn truncated_v5_requests_never_roundtrip(
        req in arb_request(),
        deadline in any::<u32>(),
        cut_seed in any::<u64>(),
    ) {
        let mut payload = Vec::new();
        req.encode_payload_deadline_into(5, deadline, &mut payload);
        let cut = (cut_seed % payload.len() as u64) as usize;
        if let Ok((shorter, d)) = Request::decode_deadline_at(5, req.opcode(), &payload[..cut]) {
            prop_assert!(shorter != req || d != deadline, "truncation went unnoticed");
        }
    }

    /// `Busy` / `Overloaded` round-trip at v5, reject every truncation of
    /// their fixed four-byte payload, and are refused outright on v1–v4
    /// connections (they are v5-only opcodes).
    #[test]
    fn shed_replies_are_v5_only(reply in arb_shed_reply(), version in 1u8..=4) {
        let payload = reply.encode_payload_at(5);
        prop_assert_eq!(Reply::decode_at(5, reply.opcode(), &payload), Ok(reply.clone()));
        for cut in 0..payload.len() {
            prop_assert!(Reply::decode_at(5, reply.opcode(), &payload[..cut]).is_err());
        }
        prop_assert_eq!(
            Reply::decode_at(version, reply.opcode(), &payload),
            Err(WireError::BadValue("opcode"))
        );
    }
}

// ---------------------------------------------------------------------------
// Truncated buffers

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cutting any request payload short never panics and never yields the
    /// original value back: fixed-layout frames answer a typed error,
    /// trailing-data frames decode to a visibly shorter payload.
    #[test]
    fn truncated_requests_never_roundtrip(req in arb_request(), cut_seed in any::<u64>()) {
        let payload = req.encode_payload_at(4);
        prop_assume!(!payload.is_empty());
        let cut = (cut_seed % payload.len() as u64) as usize;
        if let Ok(shorter) = Request::decode_at(4, req.opcode(), &payload[..cut]) {
            prop_assert_ne!(shorter, req);
        }
    }

    /// The same for replies.
    #[test]
    fn truncated_replies_never_roundtrip(reply in arb_reply(), cut_seed in any::<u64>()) {
        let payload = reply.encode_payload_at(4);
        prop_assume!(!payload.is_empty());
        let cut = (cut_seed % payload.len() as u64) as usize;
        if let Ok(shorter) = Reply::decode_at(4, reply.opcode(), &payload[..cut]) {
            prop_assert_ne!(shorter, reply);
        }
    }
}
