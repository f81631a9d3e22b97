//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌──────────┬─────────┬────────┬──────────────┬─────────────┐
//! │ len: u32 │ ver: u8 │ op: u8 │ request: u64 │ payload …   │
//! └──────────┴─────────┴────────┴──────────────┴─────────────┘
//!      └─ length of everything after the prefix (≥ 10)
//! ```
//!
//! All integers are little-endian. `len` counts the version byte, opcode
//! byte, request id and payload. Payloads carry the existing model
//! structures — partition patterns as raw FALLS trees (audited server-side
//! before use) and projections as nested-FALLS sets — plus gathered segment
//! bytes; redistribution stays segment-granular on the wire, exactly as in
//! the paper.
//!
//! Decoding never panics and never reads past the frame: malformed input is
//! reported as a typed [`WireError`], which the daemon answers with an
//! `Error` reply.

use crate::error::{ErrCode, ProtocolError};
use falls::{Falls, NestedFalls, NestedSet};
use parafile::model::{Partition, PartitionPattern};
use parafile_audit::{RawElement, RawFalls, RawPattern};
use std::borrow::Cow;
use std::io::{Read, Write};

mod framebuf;
pub use framebuf::{Filled, FrameBuf, RawFrame, READ_CHUNK};

/// The one protocol version this crate speaks.
///
/// Every request payload leads with a `u32` `deadline_ms` budget (`0` =
/// none), then the opcode's fields: `Open` carries the client's `tenant`,
/// `Write` and `WriteChunk` a `(session, seq)` retry stamp ahead of their
/// bytes, `Pong` the daemon's `max_chunk`, `WriteOk` a `replayed` flag and
/// `Stat` a `checksum_errors` counter (DESIGN.md §10). Any change to a
/// frame's layout bumps this number, and a daemon refuses every frame whose
/// version byte is not this one with `UnsupportedVersion`, before decoding
/// or admitting it.
pub const PROTOCOL_VERSION: u8 = 6;

/// Bytes of the fixed header after the length prefix.
pub const HEADER_LEN: u32 = 1 + 1 + 8;

/// Length prefix plus fixed header: the bytes in front of every payload.
const PREFIX_LEN: usize = 4 + HEADER_LEN as usize;

/// Default upper bound on a frame's `len` field (64 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// Maximum nesting depth accepted when decoding FALLS trees.
pub const MAX_TREE_DEPTH: usize = 16;

/// Maximum total FALLS nodes accepted per decoded pattern or set.
pub const MAX_TREE_NODES: usize = 65_536;

/// Request opcodes.
pub mod op {
    /// Create (or reopen) this daemon's subfile of a file.
    pub const OPEN: u8 = 0x01;
    /// Register a compute node's view: audited pattern + `PROJ_S`.
    pub const SET_VIEW: u8 = 0x02;
    /// Scatter gathered segment bytes into the subfile.
    pub const WRITE: u8 = 0x03;
    /// Gather segment bytes from the subfile.
    pub const READ: u8 = 0x04;
    /// Force the subfile to stable storage.
    pub const FLUSH: u8 = 0x05;
    /// Per-subfile statistics.
    pub const STAT: u8 = 0x06;
    /// The whole subfile, verbatim (diagnostics / verification).
    pub const FETCH: u8 = 0x07;
    /// Stop the daemon.
    pub const SHUTDOWN: u8 = 0x08;
    /// Liveness/health probe.
    pub const PING: u8 = 0x09;
    /// One bounded chunk of a streamed scatter write.
    pub const WRITE_CHUNK: u8 = 0x0A;
    /// Where did my interrupted chunked write get to?
    pub const WRITE_RESUME: u8 = 0x0C;
    /// Success, no payload.
    pub const R_OK: u8 = 0x80;
    /// Write acknowledgment with the byte count actually stored.
    pub const R_WRITE_OK: u8 = 0x81;
    /// Gathered bytes.
    pub const R_DATA: u8 = 0x82;
    /// Statistics payload.
    pub const R_STAT: u8 = 0x83;
    /// Health probe answer with the daemon's boot epoch.
    pub const R_PONG: u8 = 0x84;
    /// Acknowledgment of one non-final write chunk.
    pub const R_CHUNK_OK: u8 = 0x85;
    /// Answer to `WriteResume`: the offset a retried stream should resume
    /// from.
    pub const R_RESUME: u8 = 0x87;
    /// The daemon shed this request under admission control.
    pub const R_BUSY: u8 = 0x88;
    /// The daemon refused the whole connection under overload.
    pub const R_OVERLOADED: u8 = 0x89;
    /// Typed protocol error.
    pub const R_ERROR: u8 = 0xFF;

    /// Whether `opcode` names a request. `0x0B` (the retired read-side
    /// chunk stream) sits inside the numeric range but is refused like any
    /// other unknown opcode.
    #[must_use]
    pub fn is_request(opcode: u8) -> bool {
        matches!(opcode, OPEN..=WRITE_CHUNK | WRITE_RESUME)
    }
}

/// Decoding failures (never panics, never reads out of bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field was complete.
    Truncated,
    /// Bytes remained after the last field.
    Trailing,
    /// A field held a structurally impossible value.
    BadValue(&'static str),
    /// A FALLS tree nested deeper than [`MAX_TREE_DEPTH`].
    TooDeep,
    /// A pattern or set carried more than [`MAX_TREE_NODES`] nodes.
    TooManyNodes,
    /// A frame's length prefix exceeds the receiver's budget; the frame
    /// was not read.
    FrameTooLarge {
        /// The refused length prefix.
        len: u32,
        /// The receiver's `max_frame`.
        max: u32,
    },
    /// A frame's length prefix is shorter than the fixed header.
    FrameTooShort(u32),
    /// A frame's version byte is not [`PROTOCOL_VERSION`]; its payload was
    /// not decoded.
    UnsupportedVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("payload truncated"),
            WireError::Trailing => f.write_str("trailing bytes after payload"),
            WireError::BadValue(what) => write!(f, "invalid value for {what}"),
            WireError::TooDeep => f.write_str("FALLS tree nested too deep"),
            WireError::TooManyNodes => f.write_str("FALLS tree has too many nodes"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte budget")
            }
            WireError::FrameTooShort(len) => {
                write!(f, "frame length {len} is shorter than the header")
            }
            WireError::UnsupportedVersion(version) => {
                write!(
                    f,
                    "version {version} is not supported (this build speaks {PROTOCOL_VERSION})"
                )
            }
        }
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        let code = match e {
            WireError::FrameTooLarge { .. } => ErrCode::FrameTooLarge,
            WireError::UnsupportedVersion(_) => ErrCode::UnsupportedVersion,
            _ => ErrCode::Malformed,
        };
        ProtocolError::new(code, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Byte-level cursor

pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadValue("utf-8 string"))
    }

    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// FALLS tree codec

fn put_raw_falls(out: &mut Vec<u8>, f: &RawFalls) {
    put_u64(out, f.l);
    put_u64(out, f.r);
    put_u64(out, f.s);
    put_u64(out, f.n);
    put_u32(out, f.inner.len() as u32);
    for child in &f.inner {
        put_raw_falls(out, child);
    }
}

fn get_raw_falls(
    c: &mut Cursor<'_>,
    depth: usize,
    nodes: &mut usize,
) -> Result<RawFalls, WireError> {
    if depth > MAX_TREE_DEPTH {
        return Err(WireError::TooDeep);
    }
    *nodes += 1;
    if *nodes > MAX_TREE_NODES {
        return Err(WireError::TooManyNodes);
    }
    let (l, r, s, n) = (c.u64()?, c.u64()?, c.u64()?, c.u64()?);
    let count = c.u32()? as usize;
    if count > MAX_TREE_NODES {
        return Err(WireError::TooManyNodes);
    }
    let mut inner = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        inner.push(get_raw_falls(c, depth + 1, nodes)?);
    }
    Ok(RawFalls { l, r, s, n, inner })
}

/// Encodes a raw pattern (displacement + elements of raw FALLS trees).
pub(crate) fn put_raw_pattern(out: &mut Vec<u8>, p: &RawPattern) {
    put_u64(out, p.displacement);
    put_u32(out, p.elements.len() as u32);
    for e in &p.elements {
        put_u32(out, e.families.len() as u32);
        for f in &e.families {
            put_raw_falls(out, f);
        }
    }
}

/// Decodes a raw pattern with depth and node budgets enforced.
pub(crate) fn get_raw_pattern(c: &mut Cursor<'_>) -> Result<RawPattern, WireError> {
    let displacement = c.u64()?;
    let element_count = c.u32()? as usize;
    if element_count > MAX_TREE_NODES {
        return Err(WireError::TooManyNodes);
    }
    let mut nodes = 0usize;
    let mut elements = Vec::with_capacity(element_count.min(64));
    for _ in 0..element_count {
        let fam_count = c.u32()? as usize;
        if fam_count > MAX_TREE_NODES {
            return Err(WireError::TooManyNodes);
        }
        let mut families = Vec::with_capacity(fam_count.min(64));
        for _ in 0..fam_count {
            families.push(get_raw_falls(c, 0, &mut nodes)?);
        }
        elements.push(RawElement::new(families));
    }
    Ok(RawPattern { displacement, elements })
}

fn put_raw_set(out: &mut Vec<u8>, families: &[RawFalls]) {
    put_u32(out, families.len() as u32);
    for f in families {
        put_raw_falls(out, f);
    }
}

fn get_raw_set(c: &mut Cursor<'_>) -> Result<Vec<RawFalls>, WireError> {
    let count = c.u32()? as usize;
    if count > MAX_TREE_NODES {
        return Err(WireError::TooManyNodes);
    }
    let mut nodes = 0usize;
    let mut families = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        families.push(get_raw_falls(c, 0, &mut nodes)?);
    }
    Ok(families)
}

/// Lowers a raw FALLS tree to a validated [`NestedFalls`].
pub fn raw_to_nested(raw: &RawFalls) -> Result<NestedFalls, falls::FallsError> {
    let falls = Falls::new(raw.l, raw.r, raw.s, raw.n)?;
    if raw.inner.is_empty() {
        return Ok(NestedFalls::leaf(falls));
    }
    let inner = raw.inner.iter().map(raw_to_nested).collect::<Result<Vec<_>, _>>()?;
    NestedFalls::with_inner(falls, inner)
}

/// Lowers raw sibling families to a validated [`NestedSet`].
pub fn raw_to_set(families: &[RawFalls]) -> Result<NestedSet, falls::FallsError> {
    if families.is_empty() {
        return Ok(NestedSet::empty());
    }
    let nested = families.iter().map(raw_to_nested).collect::<Result<Vec<_>, _>>()?;
    NestedSet::new(nested)
}

/// Lowers a raw pattern to a validated [`Partition`].
pub fn raw_to_partition(raw: &RawPattern) -> Result<Partition, parafile::Error> {
    let sets = raw
        .elements
        .iter()
        .map(|e| raw_to_set(&e.families).map_err(parafile::Error::from))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Partition::new(raw.displacement, PartitionPattern::new(sets)?))
}

// ---------------------------------------------------------------------------
// Requests

/// A decoded request frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create (or idempotently reopen) this daemon's subfile of `file`.
    Open {
        /// File identifier (client-chosen, shared across all I/O nodes).
        file: u64,
        /// Which subfile of the file this daemon hosts.
        subfile: u32,
        /// Subfile length in bytes (zero-filled on creation).
        len: u64,
        /// Tenant id for fair-queueing and quota accounting (0 = the
        /// anonymous tenant).
        tenant: u32,
    },
    /// Register a compute node's view on `file`.
    SetView {
        /// File identifier.
        file: u64,
        /// Compute node (view owner) id.
        compute: u32,
        /// Element of `view` the compute node owns.
        element: u32,
        /// The full view partition, as an unvalidated raw tree — audited by
        /// the daemon before acceptance.
        view: RawPattern,
        /// `PROJ_S(V ∩ S)` families in the subfile's linear space.
        proj_set: Vec<RawFalls>,
        /// Subfile-linear bytes per aligned window of the projection.
        proj_period: u64,
    },
    /// Scatter `payload` into the projected segments of `[l_s, r_s]`.
    Write {
        /// File identifier.
        file: u64,
        /// Compute node whose registered projection drives the scatter.
        compute: u32,
        /// First subfile-linear offset of the access interval.
        l_s: u64,
        /// Last subfile-linear offset of the access interval.
        r_s: u64,
        /// Retry-dedup session stamp (0 = unstamped, the daemon applies
        /// without dedup tracking).
        session: u64,
        /// Retry-dedup sequence number within `session`.
        seq: u64,
        /// Gathered segment bytes, in subfile-offset order.
        payload: Vec<u8>,
    },
    /// Gather the projected segments of `[l_s, r_s]`.
    Read {
        /// File identifier.
        file: u64,
        /// Compute node whose registered projection drives the gather.
        compute: u32,
        /// First subfile-linear offset.
        l_s: u64,
        /// Last subfile-linear offset.
        r_s: u64,
    },
    /// Force the subfile to stable storage.
    Flush {
        /// File identifier.
        file: u64,
    },
    /// Per-subfile statistics.
    Stat {
        /// File identifier.
        file: u64,
    },
    /// The whole subfile, verbatim.
    Fetch {
        /// File identifier.
        file: u64,
    },
    /// Stop the daemon gracefully.
    Shutdown,
    /// Liveness/health probe. Answered with `Pong` carrying
    /// the daemon's boot epoch, so clients can detect restarts.
    Ping,
    /// One bounded chunk of a streamed scatter write.
    ///
    /// A chunked write is the same logical operation as [`Request::Write`]:
    /// the gathered payload of `[l_s, r_s]` is split into frames of at most
    /// the negotiated chunk size, each carrying its byte `offset` into the
    /// gathered payload and the declared `total` length. The daemon applies
    /// each chunk straight into the store as it arrives, acknowledges
    /// non-final chunks with `ChunkOk` and the final chunk (`last`) with the
    /// ordinary `WriteOk`. The `(session, seq)` stamp dedups exactly like a
    /// monolithic write — a replayed stream is acknowledged without
    /// re-applying.
    WriteChunk {
        /// File identifier.
        file: u64,
        /// Compute node whose registered projection drives the scatter.
        compute: u32,
        /// First subfile-linear offset of the access interval.
        l_s: u64,
        /// Last subfile-linear offset of the access interval.
        r_s: u64,
        /// Retry-dedup session stamp (0 = unstamped).
        session: u64,
        /// Retry-dedup sequence number within `session`.
        seq: u64,
        /// Byte offset of `data` within the gathered payload.
        offset: u64,
        /// Total gathered payload length of the whole logical write.
        total: u64,
        /// Whether this is the final chunk of the stream.
        last: bool,
        /// This chunk's slice of the gathered payload.
        data: Vec<u8>,
    },
    /// Ask how far a previously interrupted chunked write for this
    /// `(session, seq)` stamp got. Answered with `ResumeAt`:
    /// offset 0 when the daemon has no partial progress recorded (including
    /// after a daemon restart — progress is volatile, the journal covers the
    /// applied chunks), so a conservative client can always restart cleanly.
    ResumeQuery {
        /// File identifier.
        file: u64,
        /// Retry-dedup session stamp the interrupted stream carried.
        session: u64,
        /// Retry-dedup sequence number within `session`.
        seq: u64,
    },
}

impl Request {
    /// The request's opcode byte.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Open { .. } => op::OPEN,
            Request::SetView { .. } => op::SET_VIEW,
            Request::Write { .. } => op::WRITE,
            Request::Read { .. } => op::READ,
            Request::Flush { .. } => op::FLUSH,
            Request::Stat { .. } => op::STAT,
            Request::Fetch { .. } => op::FETCH,
            Request::Shutdown => op::SHUTDOWN,
            Request::Ping => op::PING,
            Request::WriteChunk { .. } => op::WRITE_CHUNK,
            Request::ResumeQuery { .. } => op::WRITE_RESUME,
        }
    }

    /// Whether the request may be retried after a transport failure.
    ///
    /// Reads, stats, fetches, opens, view registrations, flushes and pings
    /// are idempotent by construction; writes are made retry-safe by their
    /// `(session, seq)` stamp — the daemon's dedup window replays the
    /// original acknowledgment instead of re-applying. Only `Shutdown` is
    /// excluded: after a successful shutdown the retry would report a
    /// spurious connect error.
    #[must_use]
    pub fn retry_safe(&self) -> bool {
        !matches!(self, Request::Shutdown)
    }

    /// Encodes the payload bytes (everything after the frame header).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        self.encode_payload_at(PROTOCOL_VERSION)
    }

    /// [`encode_payload`](Self::encode_payload); `version` must be
    /// [`PROTOCOL_VERSION`], the only layout there is.
    #[must_use]
    pub fn encode_payload_at(&self, version: u8) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_at_into(version, &mut out);
        out
    }

    /// [`encode_payload_at`](Self::encode_payload_at) into a caller-owned
    /// scratch buffer (cleared first), so per-connection encoders reuse one
    /// allocation across frames.
    pub fn encode_payload_at_into(&self, version: u8, out: &mut Vec<u8>) {
        debug_assert_eq!(version, PROTOCOL_VERSION, "there is one wire layout");
        self.encode_payload_deadline_into(0, out);
    }

    /// Encodes the payload carrying a `deadline_ms` budget (0 = no
    /// deadline). The deadline is a payload prefix shared by every request
    /// opcode — the remaining milliseconds of the caller's budget at send
    /// time, decremented at every propagation hop (session → daemon
    /// loop).
    pub fn encode_payload_deadline_into(&self, deadline_ms: u32, out: &mut Vec<u8>) {
        out.clear();
        self.append_payload(deadline_ms, out);
    }

    /// [`encode_payload_deadline_into`](Self::encode_payload_deadline_into)
    /// without the clear: the payload lands behind whatever `out` already
    /// holds, which is how a frame is encoded in place in a write buffer.
    pub(crate) fn append_payload(&self, deadline_ms: u32, out: &mut Vec<u8>) {
        put_u32(out, deadline_ms);
        match self {
            Request::Open { file, subfile, len, tenant } => {
                put_u64(out, *file);
                put_u32(out, *subfile);
                put_u64(out, *len);
                put_u32(out, *tenant);
            }
            Request::SetView { file, compute, element, view, proj_set, proj_period } => {
                put_u64(out, *file);
                put_u32(out, *compute);
                put_u32(out, *element);
                put_raw_pattern(out, view);
                put_raw_set(out, proj_set);
                put_u64(out, *proj_period);
            }
            Request::Write { file, compute, l_s, r_s, session, seq, payload } => {
                put_u64(out, *file);
                put_u32(out, *compute);
                put_u64(out, *l_s);
                put_u64(out, *r_s);
                put_u64(out, *session);
                put_u64(out, *seq);
                out.extend_from_slice(payload);
            }
            Request::Read { file, compute, l_s, r_s } => {
                put_u64(out, *file);
                put_u32(out, *compute);
                put_u64(out, *l_s);
                put_u64(out, *r_s);
            }
            Request::Flush { file } | Request::Stat { file } | Request::Fetch { file } => {
                put_u64(out, *file);
            }
            Request::Shutdown | Request::Ping => {}
            Request::WriteChunk {
                file,
                compute,
                l_s,
                r_s,
                session,
                seq,
                offset,
                total,
                last,
                data,
            } => {
                put_u64(out, *file);
                put_u32(out, *compute);
                put_u64(out, *l_s);
                put_u64(out, *r_s);
                put_u64(out, *session);
                put_u64(out, *seq);
                put_u64(out, *offset);
                put_u64(out, *total);
                out.push(u8::from(*last));
                out.extend_from_slice(data);
            }
            Request::ResumeQuery { file, session, seq } => {
                put_u64(out, *file);
                put_u64(out, *session);
                put_u64(out, *seq);
            }
        }
    }

    /// Decodes a request from its opcode and payload bytes, dropping the
    /// deadline prefix (see [`decode_deadline`](Self::decode_deadline) to
    /// keep it).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, WireError> {
        Self::decode_deadline(opcode, payload).map(|(req, _)| req)
    }

    /// [`decode`](Self::decode) for a frame whose version byte is
    /// `version`: anything but [`PROTOCOL_VERSION`] is
    /// [`WireError::UnsupportedVersion`], with the payload left unread.
    pub fn decode_at(version: u8, opcode: u8, payload: &[u8]) -> Result<Self, WireError> {
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        Self::decode(opcode, payload)
    }

    /// Decodes a request together with its `deadline_ms` prefix (0 = no
    /// deadline).
    pub fn decode_deadline(opcode: u8, payload: &[u8]) -> Result<(Self, u32), WireError> {
        Lent::decode_deadline(opcode, payload)
            .map(|(req, deadline_ms)| (req.into_owned(), deadline_ms))
    }
}

/// A request whose bulk bytes — `Write::payload` or `WriteChunk::data`,
/// always the tail of the payload encoding — stay where they are: `head`
/// carries that field empty and `bulk` lends the bytes. The daemon decodes
/// this way, so it journals, scatters and checksums from the frame it
/// received; the client encodes each chunk this way, from a slice of the
/// parent `Write`. [`Request`]'s own decoders are this parse plus
/// [`into_owned`](Self::into_owned).
#[derive(Debug)]
pub(crate) struct Lent<'a> {
    pub head: Request,
    pub bulk: &'a [u8],
}

impl<'a> Lent<'a> {
    pub(crate) fn into_owned(self) -> Request {
        let mut head = self.head;
        if let Request::Write { payload: tail, .. } | Request::WriteChunk { data: tail, .. } =
            &mut head
        {
            *tail = self.bulk.to_vec();
        }
        head
    }

    /// [`Request::append_payload`] with the bulk bytes from `bulk`.
    pub(crate) fn append_payload(&self, deadline_ms: u32, out: &mut Vec<u8>) {
        self.head.append_payload(deadline_ms, out);
        out.extend_from_slice(self.bulk);
    }

    /// See [`Request::decode_deadline`].
    pub(crate) fn decode_deadline(opcode: u8, payload: &'a [u8]) -> Result<(Self, u32), WireError> {
        // An unknown opcode is reported as such even when the payload is
        // shorter than the deadline prefix, so UnknownOp vs Malformed
        // diagnostics do not depend on the payload length.
        if !op::is_request(opcode) {
            return Err(WireError::BadValue("opcode"));
        }
        let mut c = Cursor::new(payload);
        let deadline_ms = c.u32()?;
        let req = match opcode {
            op::OPEN => {
                Request::Open { file: c.u64()?, subfile: c.u32()?, len: c.u64()?, tenant: c.u32()? }
            }
            op::SET_VIEW => {
                let file = c.u64()?;
                let compute = c.u32()?;
                let element = c.u32()?;
                let view = get_raw_pattern(&mut c)?;
                let proj_set = get_raw_set(&mut c)?;
                let proj_period = c.u64()?;
                Request::SetView { file, compute, element, view, proj_set, proj_period }
            }
            op::WRITE => {
                let file = c.u64()?;
                let compute = c.u32()?;
                let l_s = c.u64()?;
                let r_s = c.u64()?;
                let session = c.u64()?;
                let seq = c.u64()?;
                let head =
                    Request::Write { file, compute, l_s, r_s, session, seq, payload: Vec::new() };
                return Ok((Lent { head, bulk: c.rest() }, deadline_ms));
            }
            op::READ => {
                Request::Read { file: c.u64()?, compute: c.u32()?, l_s: c.u64()?, r_s: c.u64()? }
            }
            op::FLUSH => Request::Flush { file: c.u64()? },
            op::STAT => Request::Stat { file: c.u64()? },
            op::FETCH => Request::Fetch { file: c.u64()? },
            op::SHUTDOWN => Request::Shutdown,
            op::PING => Request::Ping,
            op::WRITE_CHUNK => {
                let file = c.u64()?;
                let compute = c.u32()?;
                let l_s = c.u64()?;
                let r_s = c.u64()?;
                let session = c.u64()?;
                let seq = c.u64()?;
                let offset = c.u64()?;
                let total = c.u64()?;
                let last = match c.take(1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadValue("last flag")),
                };
                let head = Request::WriteChunk {
                    file,
                    compute,
                    l_s,
                    r_s,
                    session,
                    seq,
                    offset,
                    total,
                    last,
                    data: Vec::new(),
                };
                return Ok((Lent { head, bulk: c.rest() }, deadline_ms));
            }
            op::WRITE_RESUME => {
                Request::ResumeQuery { file: c.u64()?, session: c.u64()?, seq: c.u64()? }
            }
            _ => return Err(WireError::BadValue("opcode")),
        };
        c.finish()?;
        Ok((Lent { head: req, bulk: &[] }, deadline_ms))
    }
}

// ---------------------------------------------------------------------------
// Replies

/// Per-subfile statistics returned by `Stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatInfo {
    /// Subfile length in bytes.
    pub len: u64,
    /// Number of registered views.
    pub views: u64,
    /// Requests served (all ops).
    pub requests: u64,
    /// Bytes stored by writes.
    pub bytes_written: u64,
    /// Bytes gathered by reads.
    pub bytes_read: u64,
    /// Scatter/gather fragments touched.
    pub fragments: u64,
    /// CRC32C verification failures detected on this subfile.
    pub checksum_errors: u64,
}

/// A decoded reply frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success, no payload.
    Ok,
    /// Write acknowledged; `written` bytes were actually stored (may be
    /// less than sent when the interval crossed the subfile boundary).
    WriteOk {
        /// Bytes stored.
        written: u64,
        /// This acknowledgment came from the retry-dedup window: the write
        /// had already been applied and was **not** re-applied.
        replayed: bool,
    },
    /// Gathered bytes.
    Data {
        /// Segment bytes in subfile-offset order (or the whole subfile for
        /// `Fetch`).
        payload: Vec<u8>,
    },
    /// Statistics.
    Stat(StatInfo),
    /// Health probe answer.
    Pong {
        /// Daemon boot epoch: changes on every daemon (re)start, letting a
        /// client distinguish "same daemon, slow" from "daemon restarted
        /// and lost its volatile state".
        epoch: u64,
        /// Largest chunk data length the daemon accepts per streamed frame
        /// (`0` = the daemon does not chunk).
        max_chunk: u32,
    },
    /// Acknowledgment of one non-final write chunk.
    ChunkOk {
        /// Echo of the acknowledged chunk's payload offset.
        offset: u64,
    },
    /// Answer to `ResumeQuery`.
    ResumeAt {
        /// Gathered-payload offset from which a retried chunked write for
        /// the queried `(session, seq)` should resume; 0 means "start over"
        /// (no partial progress on record).
        offset: u64,
    },
    /// The daemon shed this one request under admission control: its
    /// queue, per-session in-flight cap, tenant quota or disk-capacity
    /// watermark left no room. The request was **not** executed; a stamped
    /// retry after the hinted delay is safe.
    Busy {
        /// Daemon's backoff hint in milliseconds (0 = caller's choice).
        retry_after_ms: u32,
    },
    /// The daemon refused the whole connection under overload: the
    /// accept-side connection budget is exhausted. Sent with
    /// request id 0 before the connection closes.
    Overloaded {
        /// Daemon's backoff hint in milliseconds (0 = caller's choice).
        retry_after_ms: u32,
    },
    /// Typed protocol error.
    Error(ProtocolError),
}

impl Reply {
    /// The reply's opcode byte.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Reply::Ok => op::R_OK,
            Reply::WriteOk { .. } => op::R_WRITE_OK,
            Reply::Data { .. } => op::R_DATA,
            Reply::Stat(_) => op::R_STAT,
            Reply::Pong { .. } => op::R_PONG,
            Reply::ChunkOk { .. } => op::R_CHUNK_OK,
            Reply::ResumeAt { .. } => op::R_RESUME,
            Reply::Busy { .. } => op::R_BUSY,
            Reply::Overloaded { .. } => op::R_OVERLOADED,
            Reply::Error(_) => op::R_ERROR,
        }
    }

    /// Encodes the payload bytes (everything after the frame header).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        self.encode_payload_at(PROTOCOL_VERSION)
    }

    /// [`encode_payload`](Self::encode_payload); `version` must be
    /// [`PROTOCOL_VERSION`], the only layout there is.
    #[must_use]
    pub fn encode_payload_at(&self, version: u8) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_at_into(version, &mut out);
        out
    }

    /// [`encode_payload_at`](Self::encode_payload_at) into a caller-owned
    /// scratch buffer (cleared first), so per-connection encoders reuse one
    /// allocation across frames.
    pub fn encode_payload_at_into(&self, version: u8, out: &mut Vec<u8>) {
        debug_assert_eq!(version, PROTOCOL_VERSION, "there is one wire layout");
        out.clear();
        self.append_payload(out);
    }

    /// [`encode_payload_at_into`](Self::encode_payload_at_into) without the
    /// clear, for encoding a frame in place in a write buffer.
    pub(crate) fn append_payload(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Ok => {}
            Reply::WriteOk { written, replayed } => {
                put_u64(out, *written);
                out.push(u8::from(*replayed));
            }
            Reply::Data { payload } => out.extend_from_slice(payload),
            Reply::Pong { epoch, max_chunk } => {
                put_u64(out, *epoch);
                put_u32(out, *max_chunk);
            }
            Reply::ChunkOk { offset } => put_u64(out, *offset),
            Reply::ResumeAt { offset } => put_u64(out, *offset),
            Reply::Busy { retry_after_ms } | Reply::Overloaded { retry_after_ms } => {
                put_u32(out, *retry_after_ms);
            }
            Reply::Stat(s) => {
                put_u64(out, s.len);
                put_u64(out, s.views);
                put_u64(out, s.requests);
                put_u64(out, s.bytes_written);
                put_u64(out, s.bytes_read);
                put_u64(out, s.fragments);
                put_u64(out, s.checksum_errors);
            }
            Reply::Error(e) => {
                put_u16(out, e.code.as_u16());
                put_u16(out, e.pa_codes.len() as u16);
                for pa in &e.pa_codes {
                    put_string(out, pa);
                }
                put_string(out, &e.message);
            }
        }
    }

    /// Decodes a reply from its opcode and payload bytes.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, WireError> {
        Self::decode_at(PROTOCOL_VERSION, opcode, payload)
    }

    /// [`decode`](Self::decode) for a frame whose version byte is
    /// `version`: anything but [`PROTOCOL_VERSION`] is
    /// [`WireError::UnsupportedVersion`], with the payload left unread.
    pub fn decode_at(version: u8, opcode: u8, payload: &[u8]) -> Result<Self, WireError> {
        Self::decode_owned_at(version, opcode, Cow::Borrowed(payload))
    }

    /// [`decode_at`](Self::decode_at) for a payload that may already be
    /// its own allocation (a frame the splitter received in place): `Data`
    /// takes it over instead of copying it.
    pub(crate) fn decode_owned_at(
        version: u8,
        opcode: u8,
        payload: Cow<'_, [u8]>,
    ) -> Result<Self, WireError> {
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        if opcode == op::R_DATA {
            return Ok(Reply::Data { payload: payload.into_owned() });
        }
        let mut c = Cursor::new(&payload);
        let reply = match opcode {
            op::R_OK => Reply::Ok,
            op::R_WRITE_OK => {
                let written = c.u64()?;
                let replayed = match c.take(1)?[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadValue("replayed flag")),
                };
                Reply::WriteOk { written, replayed }
            }
            op::R_PONG => Reply::Pong { epoch: c.u64()?, max_chunk: c.u32()? },
            op::R_CHUNK_OK => Reply::ChunkOk { offset: c.u64()? },
            op::R_RESUME => Reply::ResumeAt { offset: c.u64()? },
            op::R_BUSY => Reply::Busy { retry_after_ms: c.u32()? },
            op::R_OVERLOADED => Reply::Overloaded { retry_after_ms: c.u32()? },
            op::R_STAT => Reply::Stat(StatInfo {
                len: c.u64()?,
                views: c.u64()?,
                requests: c.u64()?,
                bytes_written: c.u64()?,
                bytes_read: c.u64()?,
                fragments: c.u64()?,
                checksum_errors: c.u64()?,
            }),
            op::R_ERROR => {
                let code = ErrCode::from_u16(c.u16()?).ok_or(WireError::BadValue("error code"))?;
                let pa_count = c.u16()? as usize;
                let mut pa_codes = Vec::with_capacity(pa_count.min(64));
                for _ in 0..pa_count {
                    pa_codes.push(c.string()?);
                }
                let message = c.string()?;
                Reply::Error(ProtocolError { code, pa_codes, message })
            }
            _ => return Err(WireError::BadValue("opcode")),
        };
        c.finish()?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------------
// Framing

/// A frame as read off the socket, header split out, payload raw.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Protocol version byte.
    pub version: u8,
    /// Opcode byte.
    pub opcode: u8,
    /// Request id (echoed in the matching reply).
    pub request_id: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read off the socket.
#[derive(Debug)]
pub enum FrameReadError {
    /// Socket failure or EOF.
    Io(std::io::Error),
    /// The connection closed cleanly between frames.
    Closed,
    /// The length prefix exceeds the budget; the frame was not read.
    TooLarge(u32),
    /// The length prefix is shorter than the fixed header.
    TooShort(u32),
}

/// Writes one frame with the current protocol version byte.
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    write_frame_at(w, PROTOCOL_VERSION, opcode, request_id, payload)
}

/// Writes one frame carrying an explicit version byte — how a test or
/// probe frames what a peer of another version would send.
pub fn write_frame_at(
    w: &mut impl Write,
    version: u8,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    w.write_all(&frame_head(payload.len(), version, opcode, request_id))?;
    w.write_all(payload)?;
    w.flush()
}

/// Length prefix and fixed header of a frame carrying `payload_len` bytes.
fn frame_head(payload_len: usize, version: u8, opcode: u8, request_id: u64) -> [u8; PREFIX_LEN] {
    let mut head = [0u8; PREFIX_LEN];
    head[0..4].copy_from_slice(&(HEADER_LEN + payload_len as u32).to_le_bytes());
    head[4] = version;
    head[5] = opcode;
    head[6..14].copy_from_slice(&request_id.to_le_bytes());
    head
}

/// Appends one frame to `out`, its payload encoded in place by `body`:
/// room for the prefix and header is reserved first and filled in once
/// the length is known, so the payload is written once, where it is sent
/// from. Returns the offset in `out` at which the frame starts.
pub(crate) fn append_frame(
    out: &mut Vec<u8>,
    opcode: u8,
    request_id: u64,
    body: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; PREFIX_LEN]);
    body(out);
    let head = frame_head(out.len() - start - PREFIX_LEN, PROTOCOL_VERSION, opcode, request_id);
    out[start..start + PREFIX_LEN].copy_from_slice(&head);
    start
}

/// [`append_frame`] for a reply value: its payload encoded in place.
pub(crate) fn append_reply(out: &mut Vec<u8>, request_id: u64, reply: &Reply) {
    append_frame(out, reply.opcode(), request_id, |out| reply.append_payload(out));
}

/// Reads one frame, enforcing the size budget.
///
/// Returns [`FrameReadError::Closed`] only when the connection ends cleanly
/// *between* frames; EOF in the middle of a frame is an I/O error.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, FrameReadError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no next frame" (clean close) from "frame cut short".
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(FrameReadError::Closed),
            Ok(0) => {
                return Err(FrameReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_frame {
        return Err(FrameReadError::TooLarge(len));
    }
    if len < HEADER_LEN {
        return Err(FrameReadError::TooShort(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(FrameReadError::Io)?;
    let mut id_bytes = [0u8; 8];
    id_bytes.copy_from_slice(&body[2..10]);
    Ok(Frame {
        version: body[0],
        opcode: body[1],
        request_id: u64::from_le_bytes(id_bytes),
        payload: body.split_off(10),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3_raw() -> RawPattern {
        RawPattern {
            displacement: 2,
            elements: (0..3)
                .map(|k| RawElement::new(vec![RawFalls::leaf(2 * k, 2 * k + 1, 6, 1)]))
                .collect(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Open { file: 7, subfile: 2, len: 4096, tenant: 0 },
            Request::SetView {
                file: 7,
                compute: 1,
                element: 1,
                view: figure3_raw(),
                proj_set: vec![RawFalls::nested(0, 3, 8, 2, vec![RawFalls::leaf(0, 0, 2, 2)])],
                proj_period: 8,
            },
            Request::Write {
                file: 7,
                compute: 1,
                l_s: 3,
                r_s: 90,
                session: 11,
                seq: 4,
                payload: vec![1, 2, 3],
            },
            Request::Read { file: 7, compute: 1, l_s: 0, r_s: 31 },
            Request::Flush { file: 7 },
            Request::Stat { file: 7 },
            Request::Fetch { file: 7 },
            Request::Shutdown,
            Request::Ping,
            Request::WriteChunk {
                file: 7,
                compute: 1,
                l_s: 3,
                r_s: 90,
                session: 11,
                seq: 4,
                offset: 4096,
                total: 8192,
                last: true,
                data: vec![9, 8, 7],
            },
            Request::ResumeQuery { file: 7, session: 11, seq: 4 },
        ];
        for req in reqs {
            let payload = req.encode_payload();
            let back = Request::decode(req.opcode(), &payload).expect("round trip");
            assert_eq!(back, req);
            // The lending decode is the same parse — at full length and at
            // every truncation — and its bulk bytes are the frame's own.
            for cut in 0..=payload.len() {
                let frame = &payload[..cut];
                let owned = Request::decode_deadline(req.opcode(), frame);
                let lent = Lent::decode_deadline(req.opcode(), frame);
                if let Ok((Lent { bulk, .. }, _)) = &lent {
                    assert!(bulk.is_empty() || bulk.as_ptr_range().end == frame.as_ptr_range().end);
                }
                assert_eq!(lent.map(|(r, ms)| (r.into_owned(), ms)), owned, "cut {cut}");
            }
            // A request encoded around lent bulk bytes is the owned encoding.
            let Ok((lent, _)) = Lent::decode_deadline(req.opcode(), &payload) else {
                panic!("decoded above");
            };
            let mut appended = vec![0xEE];
            lent.append_payload(0, &mut appended);
            assert_eq!(appended[1..], payload);
        }
    }

    #[test]
    fn frames_encoded_in_place_equal_write_frame() {
        let reply = Reply::Data { payload: b"gathered".to_vec() };
        let mut want = b"earlier frame".to_vec();
        write_frame(&mut want, reply.opcode(), 77, &reply.encode_payload()).unwrap();
        let mut got = b"earlier frame".to_vec();
        let start = append_frame(&mut got, reply.opcode(), 77, |out| reply.append_payload(out));
        assert_eq!(start, b"earlier frame".len());
        assert_eq!(got, want);
        // A received frame's own allocation becomes the Data payload.
        let owned = b"gathered".to_vec();
        let at = owned.as_ptr();
        match Reply::decode_owned_at(PROTOCOL_VERSION, op::R_DATA, Cow::Owned(owned)).unwrap() {
            Reply::Data { payload } => assert_eq!(payload.as_ptr(), at),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = vec![
            Reply::Ok,
            Reply::WriteOk { written: 99, replayed: false },
            Reply::WriteOk { written: 99, replayed: true },
            Reply::Pong { epoch: 77, max_chunk: 1 << 18 },
            Reply::ChunkOk { offset: 4096 },
            Reply::ResumeAt { offset: 8192 },
            Reply::Busy { retry_after_ms: 25 },
            Reply::Overloaded { retry_after_ms: 100 },
            Reply::Data { payload: b"abc".to_vec() },
            Reply::Stat(StatInfo {
                len: 10,
                views: 2,
                requests: 5,
                bytes_written: 100,
                bytes_read: 50,
                fragments: 7,
                checksum_errors: 3,
            }),
            Reply::Error(ProtocolError {
                code: ErrCode::PatternRejected,
                pa_codes: vec!["PA020".into()],
                message: "gap".into(),
            }),
        ];
        for reply in replies {
            let payload = reply.encode_payload();
            let back = Reply::decode(reply.opcode(), &payload).expect("round trip");
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let req = Request::Read { file: 1, compute: 0, l_s: 0, r_s: 9 };
        let payload = req.encode_payload();
        for cut in 0..payload.len() {
            let err = Request::decode(req.opcode(), &payload[..cut]).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Flush { file: 1 }.encode_payload();
        payload.push(0);
        assert_eq!(Request::decode(op::FLUSH, &payload), Err(WireError::Trailing));
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        assert_eq!(Request::decode(0x6F, &[]), Err(WireError::BadValue("opcode")));
        assert_eq!(Reply::decode(0x00, &[]), Err(WireError::BadValue("opcode")));
        // The retired read-side chunk stream: inside the numeric ranges,
        // refused like any other unknown opcode.
        assert_eq!(Request::decode(0x0B, &[0; 64]), Err(WireError::BadValue("opcode")));
        assert_eq!(Reply::decode(0x86, &[0; 16]), Err(WireError::BadValue("opcode")));
    }

    #[test]
    fn deep_trees_are_bounded() {
        // A tree nested past MAX_TREE_DEPTH must be rejected, not recursed.
        let mut tree = RawFalls::leaf(0, 0, 1, 1);
        for _ in 0..(MAX_TREE_DEPTH + 2) {
            tree = RawFalls::nested(0, 0, 1, 1, vec![tree]);
        }
        let mut out = Vec::new();
        put_raw_set(&mut out, &[tree]);
        let mut c = Cursor::new(&out);
        assert_eq!(get_raw_set(&mut c), Err(WireError::TooDeep));
    }

    #[test]
    fn absurd_node_counts_are_bounded() {
        // Claim 2^31 families but supply none: must fail fast on the budget
        // or truncation, never attempt the allocation.
        let mut out = Vec::new();
        put_u32(&mut out, 1 << 31);
        let mut c = Cursor::new(&out);
        assert!(matches!(get_raw_set(&mut c), Err(WireError::TooManyNodes | WireError::Truncated)));
    }

    #[test]
    fn frames_round_trip_through_io() {
        let req = Request::Stat { file: 42 };
        let mut buf = Vec::new();
        write_frame(&mut buf, req.opcode(), 17, &req.encode_payload()).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame.version, PROTOCOL_VERSION);
        assert_eq!(frame.opcode, op::STAT);
        assert_eq!(frame.request_id, 17);
        assert_eq!(Request::decode(frame.opcode, &frame.payload).unwrap(), req);
        // Clean close between frames.
        assert!(matches!(
            read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameReadError::Closed)
        ));
    }

    #[test]
    fn oversized_and_undersized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameReadError::TooLarge(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameReadError::TooShort(3))
        ));
    }

    #[test]
    fn pattern_lowering_round_trips() {
        let raw = figure3_raw();
        let part = raw_to_partition(&raw).unwrap();
        assert_eq!(part.displacement(), 2);
        assert_eq!(part.element_count(), 3);
        assert_eq!(RawPattern::from_partition(&part).elements.len(), 3);
        // A structurally invalid tree fails with an error, not a panic.
        let bad = RawPattern::new(vec![RawElement::new(vec![RawFalls::leaf(5, 1, 6, 1)])]);
        assert!(raw_to_partition(&bad).is_err());
    }
}
