//! The workspace's one CRC-32 kernel: every stream runs as four lanes,
//! stitched back together with a GF(2) combine, on the SSE4.2 `crc32`
//! instruction where the CPU has it and on slicing-by-8 tables elsewhere.
//!
//! Three on-disk formats carry a CRC, all of them CRC32C (the reflected
//! Castagnoli polynomial, [`crc32c`]): the per-page checksum sidecars, the
//! plan-cache file and the journal's header and records. The daemon pushes
//! every stored byte through it. The kernel lives here, in the
//! crate every other one depends on, so there is a single copy to test
//! against a bytewise reference. Every value is the standard one bit for
//! bit, whichever path computes it, so files written by a bytewise
//! implementation verify unchanged.
//!
//! # Lanes
//!
//! One CRC stream is a chain of dependent steps: each step needs the
//! previous state before it can start (a load-XOR-load chain through the
//! tables, or the `crc32` instruction's three-cycle latency), so a single
//! stream runs at the latency of that chain while most of the core idles.
//! `LANES` (4) independent states advanced by one word per loop iteration
//! overlap the chains. Past four, the states, cursors and table bases no
//! longer fit the register file (measured for the tables: 2 lanes 390
//! µs/MiB, 3 → 280, 4 → 240, 6 and 8 → 315–320).
//!
//! Pages are independent already: [`crc32c_pages`] takes whole pages four
//! at a time. One stream is made independent by linearity. CRC is linear
//! over GF(2), so `crc(A‖B) = crc(A)·x^(8·|B|) mod P ⊕ crc(B)`. A stream
//! of at least `Kernel::SPLIT_MIN` bytes is cut into four equal,
//! word-aligned parts and a tail of fewer than four words; the parts run
//! as lanes, and three multiplications by the one operator `x^(8·part)`
//! stitch them back together before the tail is streamed on. The
//! operator is a product of the `x^(8·2^j) mod P` a 64-entry table holds
//! (built at compile time), which is zlib's `crc32_combine` arithmetic. A
//! journal record, a sidecar, a plan-cache file and a short or single
//! page all get lanes this way, with no change to any format.
//!
//! # Kernels
//!
//! * **Tables** (slicing-by-8): eight 256-entry tables, eight input bytes
//!   per step. Portable safe Rust, the only path off x86-64, and the
//!   reference the instruction kernel is tested against.
//! * **Instruction** (`crc32`, x86-64 with SSE4.2): same lane structure.
//!   It is picked by the CPU's own feature bit (`is_x86_feature_detected!`,
//!   which the standard library detects once and caches) and by nothing
//!   else. Its `unsafe` is confined to the private `hw` module.
//!
//! Measured on an x86-64 Xeon with SSE4.2, release build, µs per MiB
//! (median of four runs; "one lane" is a stream left unsplit):
//!
//! | path | 256 KiB stream | one 4 KiB page | 4 KiB pages, four at a time |
//! |---|---:|---:|---:|
//! | tables, one lane | 654 | 655 | — |
//! | tables, four lanes | 218 | 243 | 212 |
//! | instruction, one lane | 172 | 167 | — |
//! | instruction, four lanes | 45 | 80 | 48 |

// Runs over every payload byte the daemon stores: no panics.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Reflected Castagnoli polynomial (`0x1EDC6F41` bit-reversed).
pub(crate) const CASTAGNOLI: u32 = 0x82F6_3B78;

/// `x⁰` in reflected form: the identity of [`Poly::multiply`].
const ONE: u32 = 1 << 31;

/// States advanced side by side: pages by [`crc32c_pages`], the parts of
/// one stream by [`checksum`].
const LANES: usize = 4;

type Tables = [[u32; 256]; 8];

/// The reflected CRC-32 polynomial with the tables of both halves of the
/// kernel, built at compile time.
struct Poly {
    /// The reflected polynomial.
    poly: u32,
    /// `tables[0]` is the classic one-byte table; `tables[k][b]` is the
    /// CRC state after byte `b` followed by `k` zero bytes.
    tables: Tables,
    /// `byte_zeros[j]` = `x^(8·2^j) mod P`: the operator that moves a CRC
    /// past `2^j` bytes. Sixty-four entries cover every `usize` length
    /// without assuming anything about the order of `x` (it divides
    /// `2^31 − 1` for Castagnoli, so a 32-entry table would wrap wrongly).
    byte_zeros: [u32; 64],
}

impl Poly {
    const fn new(poly: u32) -> Self {
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
        let mut this = Self { poly, tables, byte_zeros: [0; 64] };
        // x^8, then each entry the square of the one before.
        this.byte_zeros[0] = ONE >> 8;
        let mut j = 1;
        while j < 64 {
            this.byte_zeros[j] = this.multiply(this.byte_zeros[j - 1], this.byte_zeros[j - 1]);
            j += 1;
        }
        this
    }

    /// `a·b mod P`, both in reflected form (bit 31 is the `x⁰`
    /// coefficient). Branch-free: 32 shift-and-reduce steps of `b`.
    const fn multiply(&self, a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut i = 0;
        while i < 32 {
            product ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
            b = (b >> 1) ^ (self.poly & 0u32.wrapping_sub(b & 1));
            i += 1;
        }
        product
    }

    /// `x^(8·len) mod P`: multiplying a CRC by it moves the CRC past `len`
    /// bytes, so `crc(A‖B) = multiply(zeros(|B|), crc(A)) ^ crc(B)`.
    fn zeros(&self, len: usize) -> u32 {
        let mut op = ONE;
        let mut n = len;
        for &power in &self.byte_zeros {
            if n == 0 {
                break;
            }
            if n & 1 != 0 {
                op = if op == ONE { power } else { self.multiply(power, op) };
            }
            n >>= 1;
        }
        op
    }
}

static CRC32C: Poly = Poly::new(CASTAGNOLI);

/// A way to advance CRC states: the slicing-by-8 tables of a [`Poly`], or
/// (on x86-64) the `crc32` instruction.
trait Kernel: Copy {
    /// Streams shorter than this stay one lane: below it the three
    /// combines cost more than the overlapped chains save.
    const SPLIT_MIN: usize;

    /// The state after `crc` consumes `data` (no pre- or post-inversion).
    fn stream(self, crc: u32, data: &[u8]) -> u32;

    /// The CRC of each of the `LANES` consecutive `page`-byte pieces of
    /// `group` (exactly `LANES * page` bytes): one state per piece, all
    /// advanced by one word per loop iteration.
    fn lanes(self, group: &[u8], page: usize) -> [u32; LANES];
}

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

impl Kernel for &'static Poly {
    const SPLIT_MIN: usize = 512;

    fn stream(self, mut crc: u32, mut data: &[u8]) -> u32 {
        while let Some((w, rest)) = data.split_first_chunk::<8>() {
            crc = step(&self.tables, crc, w);
            data = rest;
        }
        bytes(&self.tables, crc, data)
    }

    fn lanes(self, group: &[u8], page: usize) -> [u32; LANES] {
        let t = &self.tables;
        let mut crc = [!0u32; LANES];
        let mut rest: [&[u8]; LANES] = std::array::from_fn(|k| &group[k * page..(k + 1) * page]);
        // Every lane is `page` bytes long, so they all run out of whole
        // words in the same iteration (lane 0 notices first).
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
}

/// The instruction kernel. This module is the crate's only `unsafe`: two
/// `#[target_feature(enable = "sse4.2")]` functions, called only through
/// an `Sse42` value, which exists only on a CPU that reported the feature.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw {
    use super::{Kernel, LANES};
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Proof that this CPU executes SSE4.2's `crc32` instruction.
    #[derive(Clone, Copy)]
    pub(super) struct Sse42(());

    impl Sse42 {
        /// The instruction kernel, if the CPU reports SSE4.2.
        pub(super) fn detect() -> Option<Self> {
            std::arch::is_x86_feature_detected!("sse4.2").then_some(Self(()))
        }
    }

    impl Kernel for Sse42 {
        const SPLIT_MIN: usize = 2048;

        fn stream(self, crc: u32, data: &[u8]) -> u32 {
            // SAFETY: an `Sse42` exists only after
            // `is_x86_feature_detected!("sse4.2")` returned true in `detect`.
            unsafe { stream(crc, data) }
        }

        fn lanes(self, group: &[u8], page: usize) -> [u32; LANES] {
            // SAFETY: an `Sse42` exists only after
            // `is_x86_feature_detected!("sse4.2")` returned true in `detect`.
            unsafe { lanes(group, page) }
        }
    }

    /// [`Kernel::stream`] on the instruction.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn stream(mut crc: u32, mut data: &[u8]) -> u32 {
        while let Some((w, rest)) = data.split_first_chunk::<8>() {
            crc = _mm_crc32_u64(u64::from(crc), u64::from_le_bytes(*w)) as u32;
            data = rest;
        }
        for &b in data {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// [`Kernel::lanes`] on the instruction.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn lanes(group: &[u8], page: usize) -> [u32; LANES] {
        let mut crc = [!0u32; LANES];
        let mut rest: [&[u8]; LANES] = std::array::from_fn(|k| &group[k * page..(k + 1) * page]);
        'words: loop {
            let mut next = rest;
            for k in 0..LANES {
                let Some((w, tail)) = next[k].split_first_chunk::<8>() else { break 'words };
                crc[k] = _mm_crc32_u64(u64::from(crc[k]), u64::from_le_bytes(*w)) as u32;
                next[k] = tail;
            }
            rest = next;
        }
        for k in 0..LANES {
            crc[k] = !stream(crc[k], rest[k]);
        }
        crc
    }
}

/// The CRC of `data` through `k`: four lanes and three combines from
/// `K::SPLIT_MIN` bytes up, one stream below.
fn checksum<K: Kernel>(k: K, data: &[u8]) -> u32 {
    if data.len() < K::SPLIT_MIN {
        return !k.stream(!0, data);
    }
    let part = data.len() / (LANES * 8) * 8;
    let (group, tail) = data.split_at(LANES * part);
    let [first, rest @ ..] = k.lanes(group, part);
    let poly = &CRC32C;
    let op = poly.zeros(part);
    let crc = rest.iter().fold(first, |crc, &next| poly.multiply(op, crc) ^ next);
    !k.stream(!crc, tail)
}

/// [`crc32c_pages`] through `k`.
fn pages<K: Kernel>(k: K, data: &[u8], page: usize, mut each: impl FnMut(usize, u32)) {
    let mut groups = data.chunks_exact(LANES * page);
    let mut index = 0;
    for group in groups.by_ref() {
        for crc in k.lanes(group, page) {
            each(index, crc);
            index += 1;
        }
    }
    for piece in groups.remainder().chunks(page) {
        each(index, checksum(k, piece));
        index += 1;
    }
}

/// CRC32C of each consecutive `page`-byte piece of `data` (the last one
/// may be short), handed to `each` as `(piece index, checksum)` in
/// ascending order. Every value equals [`crc32c`] of that piece; whole
/// pieces are taken `LANES` at a time through independent states, the
/// fewer-than-`LANES` remainder and a short last piece one by one (each
/// split into lanes itself when it is long enough).
///
/// # Panics
///
/// If `page` is zero, like [`slice::chunks`].
pub fn crc32c_pages(data: &[u8], page: usize, each: impl FnMut(usize, u32)) {
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = hw::Sse42::detect() {
        return pages(hw, data, page, each);
    }
    pages(&CRC32C, data, page, each);
}

/// CRC32C (Castagnoli) of `data`: stored data pages, sidecars, plan
/// cache, journal records.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = hw::Sse42::detect() {
        return checksum(hw, data);
    }
    checksum(&CRC32C, data)
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
    use proptest::prelude::*;

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    /// One kernel's single-stream CRC32C and its [`pages`].
    type Crc<'a> = &'a dyn Fn(&[u8]) -> u32;
    type PagesOf<'a> = &'a dyn Fn(&[u8], usize, &mut dyn FnMut(usize, u32));

    /// Runs `check` on every CRC32C kernel this CPU can run: the tables
    /// always (called directly, so they stay tested where the instruction
    /// exists), the instruction where the CPU reports it.
    fn castagnoli_kernels(mut check: impl FnMut(&str, Crc<'_>, PagesOf<'_>)) {
        check("tables", &|d| checksum(&CRC32C, d), &|d, p, each| pages(&CRC32C, d, p, each));
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = hw::Sse42::detect() {
            check("instruction", &|d| checksum(hw, d), &|d, p, each| pages(hw, d, p, each));
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) vectors for CRC32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// Every length up to three pages and a bit, at every start offset
    /// within a word: single streams, split streams with every tail
    /// length, and both sides of each kernel's split threshold. Hands
    /// `check` each start's buffer and the bytewise CRC of its every prefix
    /// (computed in one pass).
    fn every_prefix(mut check: impl FnMut(usize, &[u8], &[u32])) {
        const MAX: usize = 3 * 4096 + 72;
        let buf = random_bytes(0x9E37_79B9_7F4A_7C15, MAX + 8);
        for start in 0..8 {
            let data = &buf[start..start + MAX];
            let mut want = Vec::with_capacity(MAX + 1);
            let mut state = !0u32;
            want.push(!state);
            for &b in data {
                state ^= u32::from(b);
                for _ in 0..8 {
                    state = if state & 1 != 0 { (state >> 1) ^ CASTAGNOLI } else { state >> 1 };
                }
                want.push(!state);
            }
            assert_eq!(want[MAX], bytewise(CASTAGNOLI, data));
            check(start, data, &want);
        }
    }

    #[test]
    fn castagnoli_kernels_match_the_bytewise_reference_at_every_length_and_alignment() {
        every_prefix(|start, data, want| {
            castagnoli_kernels(|kernel, crc, _| {
                for (len, &want) in want.iter().enumerate() {
                    assert_eq!(crc(&data[..len]), want, "{kernel} start {start} len {len}");
                }
            });
        });
    }

    /// The public entry point, whichever kernel it picks: every prefix,
    /// then long random buffers.
    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_alignment() {
        every_prefix(|start, data, want| {
            for (len, &want) in want.iter().enumerate() {
                assert_eq!(crc32c(&data[..len]), want, "start {start} len {len}");
            }
        });
        for round in 0..8u64 {
            let len = (round as usize * 8191 + 3) % (64 * 1024 + 1);
            let s = &random_bytes(round + 1, len)[..];
            assert_eq!(crc32c(s), bytewise(CASTAGNOLI, s), "crc32c len {len}");
        }
    }

    #[test]
    fn page_lanes_match_the_single_stream_and_the_bytewise_reference() {
        for round in 0..2u64 {
            let buf = random_bytes(0xD1B5_4A32_D192_ED03 ^ round, 64 * 1024 + 8);
            castagnoli_kernels(|kernel, crc, pages_of| {
                for page in [1usize, 7, 8, 9, 512, 4095, 4096, 4097] {
                    for pieces in 0..=9usize {
                        // A whole number of pieces, then the same with a
                        // short last piece (one byte, and all but one byte).
                        let mut lens = vec![pieces * page];
                        if pieces > 0 && page > 1 {
                            lens.push((pieces - 1) * page + 1);
                            lens.push(pieces * page - 1);
                        }
                        for len in lens {
                            for start in 0..8 {
                                let data = &buf[start..start + len];
                                let mut got = Vec::new();
                                pages_of(data, page, &mut |k, c| got.push((k, c)));
                                let want: Vec<(usize, u32)> = data
                                    .chunks(page)
                                    .map(|piece| {
                                        let want = bytewise(CASTAGNOLI, piece);
                                        assert_eq!(crc(piece), want, "{kernel} page {page}");
                                        want
                                    })
                                    .enumerate()
                                    .collect();
                                assert_eq!(
                                    got, want,
                                    "{kernel} round {round} page {page} len {len} start {start}"
                                );
                            }
                        }
                    }
                }
            });
        }
        let mut got = Vec::new();
        crc32c_pages(&[7u8; 3 * 4096 + 5], 4096, |k, c| got.push((k, c)));
        assert_eq!(got.len(), 4);
        assert_eq!(got[3], (3, bytewise(CASTAGNOLI, &[7u8; 5])));
    }

    #[test]
    fn zeros_operator_is_the_crc_of_zero_bytes() {
        // Moving a CRC past `len` bytes is what `len` zero bytes do to the
        // raw state: compare against streaming the zeros.
        let poly = &CRC32C;
        for len in [0usize, 1, 2, 3, 7, 8, 100, 1024, 4095, 65_537] {
            let op = poly.zeros(len);
            for state in [1u32, 0xDEAD_BEEF, !0] {
                let zeros = vec![0u8; len];
                assert_eq!(poly.multiply(op, state), poly.stream(state, &zeros), "len {len}");
            }
        }
        // The table is a chain of squares, so its last entry is
        // x^(8·2^63) however the order of x divides it.
        for j in 1..64 {
            let prev = poly.byte_zeros[j - 1];
            assert_eq!(poly.byte_zeros[j], poly.multiply(prev, prev));
        }
    }

    fn arb_split() -> impl Strategy<Value = (Vec<u8>, usize)> {
        (proptest::collection::vec(any::<u8>(), 0..6000usize), any::<u64>()).prop_map(
            |(data, at)| {
                let at = (at % (data.len() as u64 + 1)) as usize;
                (data, at)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `crc(a‖b) = shift(crc(a), |b|) ⊕ crc(b)`, split anywhere, empty
        /// halves included.
        #[test]
        fn combine_stitches_any_split((data, at) in arb_split()) {
            let (a, b) = data.split_at(at);
            let poly = &CRC32C;
            let (ca, cb) = (checksum(poly, a), checksum(poly, b));
            let joined = poly.multiply(poly.zeros(b.len()), ca) ^ cb;
            prop_assert_eq!(joined, bytewise(CASTAGNOLI, &data));
            prop_assert_eq!(checksum(poly, &data), joined);
        }
    }
}
