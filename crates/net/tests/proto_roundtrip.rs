//! Encode→decode identity for every frame type, property-tested.
//!
//! Three layers of guarantees, each over randomly generated frames:
//!
//! * **round-trip identity** — every request and reply payload decodes
//!   back to exactly the value that was encoded, including chunked frames
//!   at boundary data sizes (empty, one byte, around the chunk limit);
//! * **version refusal** — a frame whose version byte is not
//!   [`PROTOCOL_VERSION`] decodes to a typed `UnsupportedVersion` error,
//!   whatever its opcode and bytes;
//! * **truncation rejection** — cutting any encoded payload short never
//!   panics and never decodes back to the original value: fixed-layout
//!   payloads answer a typed `WireError`, trailing-bytes payloads (write
//!   data) decode to a visibly shorter value.

use parafile_audit::{RawElement, RawFalls, RawPattern};
use parafile_net::wire::{Reply, Request, StatInfo, WireError, PROTOCOL_VERSION};
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

/// The admission-control replies (`Busy` / `Overloaded`).
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
// Round-trip identity

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request frame type: encode, decode, get the same value back.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let payload = req.encode_payload();
        prop_assert_eq!(Request::decode(req.opcode(), &payload), Ok(req));
    }

    /// Every reply frame type likewise.
    #[test]
    fn replies_roundtrip(reply in arb_reply()) {
        let payload = reply.encode_payload();
        prop_assert_eq!(Reply::decode(reply.opcode(), &payload), Ok(reply));
    }

    /// Chunked frames at boundary data sizes: empty, single-byte, and
    /// straddling a typical negotiated chunk limit.
    #[test]
    fn chunk_frames_roundtrip_at_boundary_sizes(
        req in arb_write_chunk(0..2),
        big in arb_write_chunk(4095..4098),
    ) {
        for r in [req, big] {
            let payload = r.encode_payload();
            prop_assert_eq!(Request::decode(r.opcode(), &payload), Ok(r));
        }
    }
}

// ---------------------------------------------------------------------------
// Version refusal

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any version byte but [`PROTOCOL_VERSION`] is refused before the
    /// payload is read, for requests and replies alike, no matter what
    /// opcode and bytes follow it.
    #[test]
    fn other_versions_are_refused(
        version in any::<u8>().prop_filter("another version", |v| *v != PROTOCOL_VERSION),
        opcode in any::<u8>(),
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let refused = WireError::UnsupportedVersion(version);
        prop_assert_eq!(Request::decode_at(version, opcode, &bytes), Err(refused.clone()));
        prop_assert_eq!(Reply::decode_at(version, opcode, &bytes), Err(refused));
    }
}

// ---------------------------------------------------------------------------
// The deadline prefix and the shed replies

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request payload leads with a `u32` deadline budget that
    /// round-trips alongside the request; the no-deadline encoding is the
    /// same bytes with the budget zeroed.
    #[test]
    fn request_deadline_roundtrips(req in arb_request(), deadline in any::<u32>()) {
        let mut stamped = Vec::new();
        req.encode_payload_deadline_into(deadline, &mut stamped);
        prop_assert_eq!(
            Request::decode_deadline(req.opcode(), &stamped),
            Ok((req.clone(), deadline))
        );
        let plain = req.encode_payload();
        prop_assert_eq!(&plain[..4], &[0; 4], "no deadline encodes as zero");
        prop_assert_eq!(&plain[4..], &stamped[4..], "the prefix is exactly one u32");
    }

    /// Truncating a payload anywhere — inside the deadline prefix or
    /// inside the body — never panics and never yields the original
    /// `(request, deadline)` pair back.
    #[test]
    fn truncated_deadline_requests_never_roundtrip(
        req in arb_request(),
        deadline in any::<u32>(),
        cut_seed in any::<u64>(),
    ) {
        let mut payload = Vec::new();
        req.encode_payload_deadline_into(deadline, &mut payload);
        let cut = (cut_seed % payload.len() as u64) as usize;
        if let Ok((shorter, d)) = Request::decode_deadline(req.opcode(), &payload[..cut]) {
            prop_assert!(shorter != req || d != deadline, "truncation went unnoticed");
        }
    }

    /// `Busy` / `Overloaded` round-trip, reject every truncation of their
    /// fixed four-byte payload, and are refused in a frame of any older
    /// version like every other reply.
    #[test]
    fn shed_replies_refuse_other_versions(reply in arb_shed_reply(), version in 1u8..PROTOCOL_VERSION) {
        let payload = reply.encode_payload();
        prop_assert_eq!(payload.len(), 4);
        prop_assert_eq!(Reply::decode(reply.opcode(), &payload), Ok(reply.clone()));
        for cut in 0..payload.len() {
            prop_assert!(Reply::decode(reply.opcode(), &payload[..cut]).is_err());
        }
        prop_assert_eq!(
            Reply::decode_at(version, reply.opcode(), &payload),
            Err(WireError::UnsupportedVersion(version))
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
        let payload = req.encode_payload();
        prop_assume!(!payload.is_empty());
        let cut = (cut_seed % payload.len() as u64) as usize;
        if let Ok(shorter) = Request::decode(req.opcode(), &payload[..cut]) {
            prop_assert_ne!(shorter, req);
        }
    }

    /// The same for replies.
    #[test]
    fn truncated_replies_never_roundtrip(reply in arb_reply(), cut_seed in any::<u64>()) {
        let payload = reply.encode_payload();
        prop_assume!(!payload.is_empty());
        let cut = (cut_seed % payload.len() as u64) as usize;
        if let Ok(shorter) = Reply::decode(reply.opcode(), &payload[..cut]) {
            prop_assert_ne!(shorter, reply);
        }
    }
}
