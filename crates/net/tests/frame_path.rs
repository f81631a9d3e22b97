//! The receive half of the frame path, property-tested: whatever frames a
//! peer sends and however the socket cuts the byte stream up, the
//! [`FrameBuf`] splitter both event loops share yields exactly what the
//! blocking reference reader [`read_frame`] yields, and a length prefix it
//! must refuse is refused from its four bytes alone, with the error codes
//! the daemon has always answered. Buffers handed back for reuse, full of
//! stale bytes, change nothing it yields.

use parafile_net::wire::{
    read_frame, write_frame_at, Filled, FrameBuf, FrameReadError, WireError, HEADER_LEN, READ_CHUNK,
};
use parafile_net::{ErrCode, ProtocolError};
use proptest::prelude::*;
use std::io::Read;

/// Hands a byte stream out in pieces of the given sizes (cycled), then
/// end of stream.
struct Pieces<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    turn: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

type Fields = (u8, u8, u64, Vec<u8>);

/// Every frame the splitter yields for `stream` delivered in `sizes`;
/// after each frame, a buffer of the next of `spares` bytes (cycled), all
/// garbage, is handed back for reuse.
fn split(
    stream: &[u8],
    sizes: &[usize],
    max_frame: u32,
    spares: &[usize],
) -> Result<Vec<Fields>, WireError> {
    let mut rx = FrameBuf::new(max_frame);
    let mut r = Pieces { data: stream, sizes, turn: 0 };
    let mut out = Vec::new();
    loop {
        let filled = rx.read_from(&mut r).expect("in-memory reads do not fail");
        while let Some(f) = rx.next_frame()? {
            out.push((f.version, f.opcode, f.request_id, f.payload.into_owned()));
            if let Some(&n) = spares.get(out.len() % spares.len().max(1)) {
                rx.recycle(vec![0xEE; n]);
            }
        }
        if filled == Filled::Eof {
            return Ok(out);
        }
    }
}

/// The same stream through the blocking reference reader.
fn reference(stream: &[u8], max_frame: u32) -> Vec<Fields> {
    let mut r = stream;
    let mut out = Vec::new();
    loop {
        match read_frame(&mut r, max_frame) {
            Ok(f) => out.push((f.version, f.opcode, f.request_id, f.payload)),
            Err(FrameReadError::Closed) => return out,
            Err(e) => panic!("reference reader refused a well-formed stream: {e:?}"),
        }
    }
}

fn stream_of(frames: &[(u8, u8, u64, usize)]) -> Vec<u8> {
    let mut stream = Vec::new();
    for (k, &(version, opcode, id, len)) in frames.iter().enumerate() {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + k * 7) as u8).collect();
        write_frame_at(&mut stream, version, opcode, id, &payload).expect("Vec sink");
    }
    stream
}

#[test]
fn one_byte_reads_split_every_frame_including_one_of_exactly_max_frame() {
    // Larger than the shared buffer, so it is received in place.
    let max_frame = READ_CHUNK as u32 + 5000;
    let biggest = (max_frame - HEADER_LEN) as usize;
    let stream =
        stream_of(&[(6, 3, 1, 0), (6, 3, 2, 1), (1, 0x82, u64::MAX, biggest), (6, 9, 4, 300)]);
    let want = reference(&stream, max_frame);
    assert_eq!(want.len(), 4);
    assert_eq!(split(&stream, &[1], max_frame, &[]).expect("well-formed"), want);
    // One byte more in the prefix and the same frame is refused.
    assert_eq!(
        split(&stream, &[1], max_frame - 1, &[]).unwrap_err(),
        WireError::FrameTooLarge { len: max_frame, max: max_frame - 1 }
    );
}

#[test]
fn bad_length_prefixes_are_refused_from_their_four_bytes_alone() {
    // Nothing but the prefix has arrived: the refusal cannot have
    // sized anything by it.
    for (len, code, message) in [
        (
            u32::MAX,
            ErrCode::FrameTooLarge,
            "frame of 4294967295 bytes exceeds the 4096 byte budget",
        ),
        (4097, ErrCode::FrameTooLarge, "frame of 4097 bytes exceeds the 4096 byte budget"),
        (9, ErrCode::Malformed, "frame length 9 is shorter than the header"),
        (0, ErrCode::Malformed, "frame length 0 is shorter than the header"),
    ] {
        let mut rx = FrameBuf::new(4096);
        let mut r: &[u8] = &len.to_le_bytes();
        assert_eq!(rx.read_from(&mut r).expect("read"), Filled::Drained);
        let err = rx.next_frame().expect_err("refused");
        let refusal = ProtocolError::from(err.clone());
        assert_eq!((refusal.code, refusal.message.as_str()), (code, message));
        assert_eq!(rx.next_frame().expect_err("out of sync for good"), err);
    }
    // Three bytes of a prefix are not a verdict yet.
    let mut rx = FrameBuf::new(4096);
    let mut r: &[u8] = &[0xFF; 3];
    rx.read_from(&mut r).expect("read");
    assert!(matches!(rx.next_frame(), Ok(None)));
}

#[test]
fn a_full_buffer_is_not_mistaken_for_end_of_stream() {
    // A reader that never takes frames: the buffer fills with whole
    // frames and further reads report a drained socket, not Eof.
    let stream = stream_of(&[(6, 3, 1, 1000); 80]);
    let mut rx = FrameBuf::new(1 << 20);
    let mut r = stream.as_slice();
    assert_eq!(rx.read_from(&mut r).expect("read"), Filled::More);
    assert_eq!(rx.read_from(&mut r).expect("read"), Filled::Drained);
    assert_eq!(stream.len() - r.len(), READ_CHUNK, "nothing read past the buffer");
}

#[test]
fn a_recycled_buffer_is_received_into_and_its_garbage_never_shows() {
    let big = READ_CHUNK + 5000;
    let max_frame = 2 * READ_CHUNK as u32;
    // Frames just under, at and over the spare's length, then small ones.
    let stream = stream_of(&[(6, 0x81, 1, big - 1), (6, 0x81, 2, big), (6, 0x81, 3, big + 1)]);
    let mut rx = FrameBuf::new(max_frame);
    let mut r = stream.as_slice();
    let mut got = Vec::new();
    let spare = vec![0xEE; big];
    let mut lent = spare.as_ptr();
    rx.recycle(spare);
    while rx.read_from(&mut r).expect("read") != Filled::Eof {
        while let Some(f) = rx.next_frame().expect("well-formed") {
            let mut payload = f.payload.into_owned();
            // The first two fit in the spare and are received into it.
            assert_eq!(payload.as_ptr() == lent, got.len() < 2, "frame {}", got.len());
            got.push((f.version, f.opcode, f.request_id, payload.clone()));
            payload.iter_mut().for_each(|b| *b = !*b);
            lent = payload.as_ptr();
            rx.recycle(payload);
        }
    }
    assert_eq!(got, reference(&stream, max_frame));
    for spares in [[0], [big - 1], [big + 4096], [max_frame as usize]] {
        assert_eq!(split(&stream, &[1, 777, READ_CHUNK], max_frame, &spares), Ok(got.clone()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]
    #[test]
    fn any_frames_through_any_splits_equal_the_reference_reader(
        frames in prop::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                any::<u64>(),
                prop_oneof![
                    Just(0usize),
                    1usize..64,
                    Just(READ_CHUNK - 14),
                    Just(READ_CHUNK - 13),
                    1000usize..200_000,
                    Just(3 << 19),
                ],
            ),
            0..6,
        ),
        sizes in prop::collection::vec(
            prop_oneof![
                Just(1usize), Just(2), Just(13), Just(14), Just(15), 1usize..5000,
                Just(READ_CHUNK - 1), Just(READ_CHUNK), Just(1 << 20),
            ],
            1..5,
        ),
        spares in prop::collection::vec(
            prop_oneof![Just(0usize), 1usize..64, 1000usize..200_000, Just(3 << 19)],
            0..4,
        ),
    ) {
        let stream = stream_of(&frames);
        let max_frame = (3 << 19) + HEADER_LEN;
        let want = reference(&stream, max_frame);
        prop_assert_eq!(split(&stream, &sizes, max_frame, &[]).expect("well-formed"), want.clone());
        prop_assert_eq!(split(&stream, &sizes, max_frame, &spares).expect("well-formed"), want);
    }
}
