//! The workspace's one CRC-32 kernel: table-driven slicing-by-8.
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

fn checksum(t: &Tables, mut data: &[u8]) -> u32 {
    let mut crc = !0u32;
    while let Some((w, rest)) = data.split_first_chunk::<8>() {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
        data = rest;
    }
    for &b in data {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
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
}
