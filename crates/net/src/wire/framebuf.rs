//! The receive half of the frame path: one buffer that reads from a
//! non-blocking socket and splits the byte stream into frames.
//!
//! Both event loops — the session's [`mux`](crate::mux), turned on the
//! caller's thread, and the daemon's reactor — own one [`FrameBuf`] per
//! connection. It reads straight into its own storage (allocated and
//! zeroed once, then reused behind a filled-length mark), validates every
//! length prefix against `max_frame` and [`HEADER_LEN`] *before* anything
//! is sized by it, and hands frames out in one of two ways:
//!
//! * a frame that is complete in the buffer is lent as a slice of it
//!   ([`Cow::Borrowed`]) — a small reply is decoded without any copy, a
//!   small request is copied once into the frame queued for dispatch;
//! * a frame longer than what is buffered when its header arrives gets a
//!   `Vec` of its own, and the rest of it is read from the socket directly
//!   into that `Vec` ([`Cow::Owned`]) — a bulk payload crosses user space
//!   once, socket → frame, and the `Vec` becomes the queued frame's (or the
//!   `Data` reply's) payload as it is. It is the spare handed back through
//!   [`FrameBuf::recycle`] when that fits (its stale bytes are all
//!   overwritten before the frame is handed out), else a zeroed one.
//!
//! A read never asks for more than the current frame's remainder in the
//! second mode, so frame boundaries survive it. Receive memory per
//! connection is bounded by `max_frame` plus one [`READ_CHUNK`], plus the
//! one spare (itself at most `max_frame`).

use super::{Frame, WireError, HEADER_LEN, PREFIX_LEN};
use std::borrow::Cow;
use std::io::Read;

/// Bytes asked of the socket per read into the shared buffer (also the
/// buffer's fixed size).
pub const READ_CHUNK: usize = 64 * 1024;

/// What one [`FrameBuf::read_from`] call delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filled {
    /// The peer closed the stream.
    Eof,
    /// Fewer bytes than were asked for: the socket is drained, and on a
    /// level-triggered reactor another read could only answer
    /// `WouldBlock` — the turn ends here.
    Drained,
    /// As many bytes as were asked for: more may be waiting.
    More,
}

/// One frame split off the stream, header parsed, payload raw.
#[derive(Debug)]
pub struct RawFrame<'a> {
    /// Protocol version byte.
    pub version: u8,
    /// Opcode byte.
    pub opcode: u8,
    /// Request id (echoed in the matching reply).
    pub request_id: u64,
    /// Payload bytes: lent from the buffer, or the frame's own `Vec` when
    /// it was received in place.
    pub payload: Cow<'a, [u8]>,
}

/// Receive buffer and frame splitter for one connection.
pub struct FrameBuf {
    max_frame: u32,
    /// Received, not yet split bytes live in `buf[start..end]`; the `Vec`
    /// keeps its full zero-initialised length so reads need no resize.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// A frame being received into its own payload `Vec`, with the
    /// payload bytes received so far.
    in_place: Option<(Frame, usize)>,
    /// A consumed payload handed back for the next in-place frame.
    spare: Option<Vec<u8>>,
}

impl FrameBuf {
    /// A splitter refusing frames whose length prefix exceeds `max_frame`.
    #[must_use]
    pub fn new(max_frame: u32) -> Self {
        Self { max_frame, buf: Vec::new(), start: 0, end: 0, in_place: None, spare: None }
    }

    /// Forgets everything received so far (connection reset, or a stream
    /// that is only being drained).
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
        self.in_place = None;
    }

    /// Hands back a consumed frame payload for the next in-place frame that
    /// fits in it: one is kept, the larger, none larger than `max_frame`.
    pub fn recycle(&mut self, payload: Vec<u8>) {
        let kept = self.spare.as_ref().map_or(0, Vec::capacity);
        if payload.capacity() > kept && payload.capacity() <= self.max_frame as usize {
            self.spare = Some(payload);
        }
    }

    /// One `read` call on `r`, into the in-place frame when one is being
    /// received and into the shared buffer otherwise. `WouldBlock` and
    /// `Interrupted` come back as errors for the caller's loop to handle.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<Filled> {
        let target = match &mut self.in_place {
            Some((frame, filled)) => &mut frame.payload[*filled..],
            None => {
                if self.buf.is_empty() {
                    self.buf = vec![0; READ_CHUNK];
                }
                // Whatever `next_frame` left is less than a frame prefix
                // (or frames a paused reader has not taken yet): move it
                // to the front so the whole tail is free.
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                }
                &mut self.buf[self.end..]
            }
        };
        if target.is_empty() {
            // Only a caller that reads without taking frames gets here; a
            // zero-length read must not be mistaken for end of stream.
            return Ok(Filled::Drained);
        }
        let asked = target.len();
        let got = r.read(target)?;
        match &mut self.in_place {
            Some((_, filled)) => *filled += got,
            None => self.end += got,
        }
        Ok(match got {
            0 => Filled::Eof,
            n if n < asked => Filled::Drained,
            _ => Filled::More,
        })
    }

    /// Splits the next complete frame off the stream; `None` when more
    /// bytes are needed. A length prefix over `max_frame` or under
    /// [`HEADER_LEN`] is refused as soon as its four bytes are in, before
    /// anything is allocated for it; the stream is then out of sync and
    /// every later call repeats the error.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame<'_>>, WireError> {
        if let Some((f, _)) = self.in_place.take_if(|(f, filled)| *filled == f.payload.len()) {
            let Frame { version, opcode, request_id, payload } = f;
            return Ok(Some(RawFrame {
                version,
                opcode,
                request_id,
                payload: Cow::Owned(payload),
            }));
        }
        if self.in_place.is_some() {
            return Ok(None);
        }
        let avail = &self.buf[self.start..self.end];
        let Some((prefix, _)) = avail.split_first_chunk::<4>() else { return Ok(None) };
        let len = u32::from_le_bytes(*prefix);
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge { len, max: self.max_frame });
        }
        if len < HEADER_LEN {
            return Err(WireError::FrameTooShort(len));
        }
        let Some((head, body)) = avail.split_first_chunk::<PREFIX_LEN>() else { return Ok(None) };
        let (version, opcode) = (head[4], head[5]);
        let request_id = u64::from_le_bytes([
            head[6], head[7], head[8], head[9], head[10], head[11], head[12], head[13],
        ]);
        let payload_len = (len - HEADER_LEN) as usize;
        if let Some(payload) = body.get(..payload_len) {
            self.start += PREFIX_LEN + payload_len;
            let payload = Cow::Borrowed(payload);
            return Ok(Some(RawFrame { version, opcode, request_id, payload }));
        }
        // The frame reaches past what is buffered: give it storage of its
        // own — the spare when it fits — and receive the rest in place.
        let mut payload = self.spare.take_if(|v| v.capacity() >= payload_len).unwrap_or_default();
        payload.resize(payload_len, 0);
        payload[..body.len()].copy_from_slice(body);
        self.in_place = Some((Frame { version, opcode, request_id, payload }, body.len()));
        self.start = 0;
        self.end = 0;
        Ok(None)
    }
}
