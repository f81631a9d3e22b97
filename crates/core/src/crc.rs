//! The workspace's one CRC-32 kernel: table-driven slicing-by-8, four
//! pages at a time where there are pages.
//!
//! Three on-disk formats carry a reflected CRC-32 — the per-page checksum
//! sidecars and the plan-cache file use the Castagnoli polynomial
//! ([`crc32c`]), journal records the IEEE 802.3 one ([`crc32_ieee`]) —
//! and the daemon pushes every stored byte through one of them. The
//! kernel lives here, in the crate every other one depends on, so there is
//! a single copy to test against a bytewise reference.
//!
//! Slicing-by-8 consumes eight input bytes per step through eight 256-entry
//! tables built at compile time; a bytewise loop finishes the tail. It is
//! portable safe Rust on purpose: the SSE4.2 `crc32` instruction would be
//! faster still, but it needs `unsafe` and a per-architecture fork, and it
//! only exists for one of the two polynomials. The values are the standard
//! ones bit for bit, so files written by a bytewise implementation verify
//! unchanged.
//!
//! # Lanes
//!
//! One CRC stream is a chain of dependent look-ups: every step XORs the
//! previous state into its input before it can index the tables, so a
//! single stream runs at the latency of that chain (load, XOR, load …)
//! while most of the core's load ports idle. The per-page checksum map
//! never has just one stream, though — a message covers many 4 KiB pages,
//! each with its own checksum and none depending on another — so
//! [`crc32c_pages`] keeps `LANES` (4) page states and advances all of them
//! by one word per loop iteration. The chains interleave and the same
//! tables, the same arithmetic and the same values come out about three
//! times sooner. Measured on the development host, per MiB of 4 KiB pages:
//!
//! | lanes | µs/MiB |
//! |------:|-------:|
//! | 1 (one `crc32c` per page) | 745 |
//! | 2 | 390 |
//! | 3 | 280 |
//! | **4** | **240** |
//! | 6 | 320 |
//! | 8 | 315 |
//!
//! Past four the states, slice cursors and table bases no longer fit the
//! register file and the spills cost more than the overlap gains, so the
//! lane count is a constant, not a parameter. Fewer than `LANES` whole
//! pages, and a short last page, go through the single stream. This is
//! still plain safe Rust with no `cfg(target_arch)`: the gain comes from
//! instruction-level parallelism every out-of-order core has, not from an
//! instruction only some have.
//!
//! The journal's IEEE CRC stays single-stream: a record is *one* stream
//! under one checksum, and splitting it into independently checksummed
//! pieces (or combining lane CRCs with the carry-less arithmetic that
//! needs) would change the record format for the one format whose cost is
//! dominated by its `fsync`, not its checksum.

/// Reflected Castagnoli polynomial (`0x1EDC6F41` bit-reversed).
pub(crate) const CASTAGNOLI: u32 = 0x82F6_3B78;
/// Reflected IEEE 802.3 polynomial (`0x04C11DB7` bit-reversed).
const IEEE: u32 = 0xEDB8_8320;

type Tables = [[u32; 256]; 8];

/// `tables[0]` is the classic one-byte table; `tables[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
const fn build_tables(poly: u32) -> Tables {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CASTAGNOLI_TABLES: Tables = build_tables(CASTAGNOLI);
static IEEE_TABLES: Tables = build_tables(IEEE);

/// One slicing-by-8 step: the state after `crc` consumes the word `w`.
#[inline(always)]
fn step(t: &Tables, crc: u32, w: &[u8; 8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The state after `crc` consumes `tail` one byte at a time.
#[inline(always)]
fn bytes(t: &Tables, mut crc: u32, tail: &[u8]) -> u32 {
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

fn checksum(t: &Tables, mut data: &[u8]) -> u32 {
    let mut crc = !0u32;
    while let Some((w, rest)) = data.split_first_chunk::<8>() {
        crc = step(t, crc, w);
        data = rest;
    }
    !bytes(t, crc, data)
}

/// Pages checksummed side by side by [`crc32c_pages`].
const LANES: usize = 4;

/// The CRC32C of each of the `LANES` consecutive `page`-byte pieces of
/// `group` (exactly `LANES * page` bytes): one state per piece, all
/// advanced by one word per loop iteration.
fn lanes(t: &Tables, group: &[u8], page: usize) -> [u32; LANES] {
    let mut crc = [!0u32; LANES];
    let mut rest: [&[u8]; LANES] = std::array::from_fn(|k| &group[k * page..(k + 1) * page]);
    // Every lane is `page` bytes long, so they all run out of whole words
    // in the same iteration (lane 0 notices first).
    'words: loop {
        let mut next = rest;
        for k in 0..LANES {
            let Some((w, tail)) = next[k].split_first_chunk::<8>() else { break 'words };
            crc[k] = step(t, crc[k], w);
            next[k] = tail;
        }
        rest = next;
    }
    std::array::from_fn(|k| !bytes(t, crc[k], rest[k]))
}

/// CRC32C of each consecutive `page`-byte piece of `data` (the last one
/// may be short), handed to `each` as `(piece index, checksum)` in
/// ascending order. Every value equals [`crc32c`] of that piece; whole
/// pieces are taken `LANES` at a time through independent states, the
/// fewer-than-`LANES` remainder and a short last piece one by one.
///
/// # Panics
///
/// If `page` is zero, like [`slice::chunks`].
pub fn crc32c_pages(data: &[u8], page: usize, mut each: impl FnMut(usize, u32)) {
    let t = &CASTAGNOLI_TABLES;
    let mut groups = data.chunks_exact(LANES * page);
    let mut index = 0;
    for group in groups.by_ref() {
        for crc in lanes(t, group, page) {
            each(index, crc);
            index += 1;
        }
    }
    for piece in groups.remainder().chunks(page) {
        each(index, checksum(t, piece));
        index += 1;
    }
}

/// CRC32C (Castagnoli) of `data`: stored data pages, sidecars, plan cache.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    checksum(&CASTAGNOLI_TABLES, data)
}

/// CRC-32 (IEEE 802.3) of `data`: journal records.
#[must_use]
pub fn crc32_ieee(data: &[u8]) -> u32 {
    checksum(&IEEE_TABLES, data)
}

/// The one-byte-per-step loop every format was first written with, kept as
/// the reference the kernel (and the formats' fixture tests) compare against.
#[cfg(test)]
pub(crate) fn bytewise(poly: u32, data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) vectors for CRC32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // IEEE 802.3.
        assert_eq!(crc32_ieee(b""), 0);
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_ne!(crc32c(b"123456789"), crc32_ieee(b"123456789"));
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..64 * 1024 + 8).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32c(s), bytewise(CASTAGNOLI, s), "crc32c start {start} len {len}");
                assert_eq!(crc32_ieee(s), bytewise(IEEE, s), "ieee start {start} len {len}");
            }
        }
        for _ in 0..32 {
            let start = (next() % 8) as usize;
            let len = (next() % (64 * 1024 + 1)) as usize;
            let s = &buf[start..start + len];
            assert_eq!(crc32c(s), bytewise(CASTAGNOLI, s));
            assert_eq!(crc32_ieee(s), bytewise(IEEE, s));
        }
    }

    #[test]
    fn page_lanes_match_the_single_stream_and_the_bytewise_reference() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2 {
            let buf: Vec<u8> = (0..64 * 1024 + 8).map(|_| next() as u8).collect();
            for page in [1usize, 7, 8, 9, 512, 4095, 4096, 4097] {
                for pieces in 0..=9usize {
                    // A whole number of pieces, then the same with a short
                    // last piece (one byte, and all but one byte).
                    let mut lens = vec![pieces * page];
                    if pieces > 0 && page > 1 {
                        lens.push((pieces - 1) * page + 1);
                        lens.push(pieces * page - 1);
                    }
                    for len in lens {
                        for start in 0..8 {
                            let data = &buf[start..start + len];
                            let mut got = Vec::new();
                            crc32c_pages(data, page, |k, crc| got.push((k, crc)));
                            let want: Vec<(usize, u32)> = data
                                .chunks(page)
                                .map(|piece| {
                                    assert_eq!(crc32c(piece), bytewise(CASTAGNOLI, piece));
                                    crc32c(piece)
                                })
                                .enumerate()
                                .collect();
                            assert_eq!(
                                got, want,
                                "round {round} page {page} len {len} start {start}"
                            );
                        }
                    }
                }
            }
        }
    }
}
