//! Persistent tier of the plan cache: warm starts across processes.
//!
//! The in-memory LRU dies with the process, so every fresh `pf` run or
//! daemon restart pays the full `MAP_V∘MAP_S⁻¹` compile again even for
//! layouts it has served a thousand times. This module persists the
//! *symbolic* plans ([`ViewPlan`] / [`RedistributionPlan`]) to one
//! versioned, checksummed cache file keyed by the same canonical
//! fingerprint + displacement tuples the LRU uses — the fingerprints are
//! stable across processes (see `falls::canon`), and the compiled replay
//! tables are a deterministic function of the symbolic plan, so a
//! re-loaded entry reproduces the cold compile byte for byte.
//!
//! # File format (version 1)
//!
//! ```text
//! [magic "PFPC"][format u32][payload_len u64][crc32c u32][payload]
//! payload := entry_count u32, entry*
//! entry   := kind u8 (0 = view, 1 = redist), key, blob_len u32, blob
//! ```
//!
//! All integers little-endian. The CRC covers the payload only; a header
//! or checksum mismatch, a truncated file, or an undecodable blob never
//! surfaces as an error — the store degrades to a cold compile and bumps
//! `load_failures`. Blobs decode through the validating constructors
//! (`Falls::new`, `NestedFalls::with_inner`, `NestedSet::new`) with the
//! same depth/node budgets the wire codec enforces, so even a
//! checksum-colliding corruption cannot build an invalid FALLS tree.
//!
//! Rewrites are atomic: the whole image is written to a sibling temp file
//! and renamed over the old one, so a crashed writer leaves either the
//! previous complete image or a stale temp file, never a torn cache.

use super::{RedistKey, ViewKey};
use crate::crc::crc32c;
use crate::plan::{CopyRun, PairPlan, RedistributionPlan};
use crate::redist::{Intersection, Projection, SubfileAccess, ViewPlan};
use falls::{Falls, NestedFalls, NestedSet};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const MAGIC: [u8; 4] = *b"PFPC";
/// Bumped whenever the payload layout changes; a mismatch is a stale
/// cache from another build and degrades to cold compiles.
const FORMAT: u32 = 1;
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// Decode budgets, mirroring the wire codec's: no cache file may make the
/// loader recurse unboundedly or allocate without limit.
const MAX_TREE_DEPTH: usize = 16;
const MAX_TREE_NODES: usize = 65_536;
/// Upper bound on decoded collection lengths (entries, subfiles, pairs,
/// runs) — far above anything a real plan produces, small enough that a
/// corrupt length cannot drive a huge allocation.
const MAX_ITEMS: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Little-endian codec helpers

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked reader over a decoded payload. Every decode error is
/// `None` — the caller's answer to any malformation is the same (cold
/// compile), so the codec does not distinguish them.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn len(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= MAX_ITEMS).then_some(n)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// FALLS-tree codec

fn put_nested_falls(out: &mut Vec<u8>, nf: &NestedFalls) {
    let f = nf.falls();
    put_u64(out, f.l());
    put_u64(out, f.r());
    put_u64(out, f.stride());
    put_u64(out, f.count());
    put_u32(out, nf.inner().len() as u32);
    for child in nf.inner() {
        put_nested_falls(out, child);
    }
}

fn get_nested_falls(c: &mut Cursor<'_>, depth: usize, nodes: &mut usize) -> Option<NestedFalls> {
    if depth >= MAX_TREE_DEPTH {
        return None;
    }
    *nodes += 1;
    if *nodes > MAX_TREE_NODES {
        return None;
    }
    let (l, r, s, n) = (c.u64()?, c.u64()?, c.u64()?, c.u64()?);
    let falls = Falls::new(l, r, s, n).ok()?;
    let children = c.len()?;
    if children == 0 {
        return Some(NestedFalls::leaf(falls));
    }
    let mut inner = Vec::with_capacity(children.min(64));
    for _ in 0..children {
        inner.push(get_nested_falls(c, depth + 1, nodes)?);
    }
    NestedFalls::with_inner(falls, inner).ok()
}

fn put_set(out: &mut Vec<u8>, set: &NestedSet) {
    put_u32(out, set.families().len() as u32);
    for f in set.families() {
        put_nested_falls(out, f);
    }
}

fn get_set(c: &mut Cursor<'_>) -> Option<NestedSet> {
    let count = c.len()?;
    let mut nodes = 0usize;
    let mut families = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        families.push(get_nested_falls(c, 0, &mut nodes)?);
    }
    NestedSet::new(families).ok()
}

fn put_projection(out: &mut Vec<u8>, p: &Projection) {
    put_u64(out, p.period);
    put_set(out, &p.set);
}

fn get_projection(c: &mut Cursor<'_>) -> Option<Projection> {
    let period = c.u64()?;
    let set = get_set(c)?;
    Some(Projection { set, period })
}

// ---------------------------------------------------------------------------
// Plan codecs

fn encode_view_plan(plan: &ViewPlan) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, plan.per_subfile.len() as u32);
    for a in &plan.per_subfile {
        put_projection(&mut out, &a.proj_view);
        put_projection(&mut out, &a.proj_sub);
        out.push(u8::from(a.perfect_match));
    }
    out
}

fn decode_view_plan(blob: &[u8]) -> Option<ViewPlan> {
    let mut c = Cursor::new(blob);
    let count = c.len()?;
    let mut per_subfile = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let proj_view = get_projection(&mut c)?;
        let proj_sub = get_projection(&mut c)?;
        let perfect_match = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        per_subfile.push(SubfileAccess { proj_view, proj_sub, perfect_match });
    }
    c.done().then_some(ViewPlan { per_subfile })
}

fn encode_redist_plan(plan: &RedistributionPlan) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, plan.displacement);
    put_u64(&mut out, plan.period);
    put_u64(&mut out, plan.src_elements() as u64);
    put_u64(&mut out, plan.dst_elements() as u64);
    put_u32(&mut out, plan.pairs.len() as u32);
    for p in &plan.pairs {
        put_u64(&mut out, p.src_element as u64);
        put_u64(&mut out, p.dst_element as u64);
        put_u64(&mut out, p.intersection.displacement);
        put_u64(&mut out, p.intersection.period);
        put_set(&mut out, &p.intersection.set);
        put_projection(&mut out, &p.src_projection);
        put_projection(&mut out, &p.dst_projection);
        put_u64(&mut out, p.src_period);
        put_u64(&mut out, p.dst_period);
        put_u32(&mut out, p.runs.len() as u32);
        for r in &p.runs {
            put_u64(&mut out, r.file_rel);
            put_u64(&mut out, r.src_off);
            put_u64(&mut out, r.dst_off);
            put_u64(&mut out, r.len);
        }
    }
    out
}

fn decode_redist_plan(blob: &[u8]) -> Option<RedistributionPlan> {
    let mut c = Cursor::new(blob);
    let displacement = c.u64()?;
    let period = c.u64()?;
    let src_elements = usize::try_from(c.u64()?).ok().filter(|&n| n <= MAX_ITEMS)?;
    let dst_elements = usize::try_from(c.u64()?).ok().filter(|&n| n <= MAX_ITEMS)?;
    let pair_count = c.len()?;
    let mut pairs = Vec::with_capacity(pair_count.min(1024));
    for _ in 0..pair_count {
        let src_element = usize::try_from(c.u64()?).ok().filter(|&e| e < src_elements)?;
        let dst_element = usize::try_from(c.u64()?).ok().filter(|&e| e < dst_elements)?;
        let i_disp = c.u64()?;
        let i_period = c.u64()?;
        let set = get_set(&mut c)?;
        let intersection = Intersection { set, displacement: i_disp, period: i_period };
        let src_projection = get_projection(&mut c)?;
        let dst_projection = get_projection(&mut c)?;
        let src_period = c.u64()?;
        let dst_period = c.u64()?;
        let run_count = c.len()?;
        let mut runs = Vec::with_capacity(run_count.min(4096));
        for _ in 0..run_count {
            runs.push(CopyRun {
                file_rel: c.u64()?,
                src_off: c.u64()?,
                dst_off: c.u64()?,
                len: c.u64()?,
            });
        }
        pairs.push(PairPlan {
            src_element,
            dst_element,
            intersection,
            src_projection,
            dst_projection,
            runs,
            src_period,
            dst_period,
        });
    }
    if !c.done() {
        return None;
    }
    Some(RedistributionPlan::from_parts(displacement, period, pairs, src_elements, dst_elements))
}

// ---------------------------------------------------------------------------
// Keys

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StoreKey {
    View(ViewKey),
    Redist(RedistKey),
}

fn put_key(out: &mut Vec<u8>, key: &StoreKey) {
    match key {
        StoreKey::View(k) => {
            out.push(0);
            put_u64(out, k.view_fp);
            put_u64(out, k.phys_fp);
            put_u64(out, k.element as u64);
            put_u64(out, k.view_disp);
            put_u64(out, k.phys_disp);
        }
        StoreKey::Redist(k) => {
            out.push(1);
            put_u64(out, k.src_fp);
            put_u64(out, k.dst_fp);
            put_u64(out, k.src_disp);
            put_u64(out, k.dst_disp);
        }
    }
}

fn get_key(c: &mut Cursor<'_>) -> Option<StoreKey> {
    match c.u8()? {
        0 => Some(StoreKey::View(ViewKey {
            view_fp: c.u64()?,
            phys_fp: c.u64()?,
            element: usize::try_from(c.u64()?).ok()?,
            view_disp: c.u64()?,
            phys_disp: c.u64()?,
        })),
        1 => Some(StoreKey::Redist(RedistKey {
            src_fp: c.u64()?,
            dst_fp: c.u64()?,
            src_disp: c.u64()?,
            dst_disp: c.u64()?,
        })),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The store

/// Counters of the persistent cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Entries currently resident (loaded + inserted this process).
    pub entries: u64,
    /// Serialized size of the current image in bytes.
    pub bytes: u64,
    /// Lookups answered from the persisted tier.
    pub hits: u64,
    /// Lookups that fell through to a cold compile.
    pub misses: u64,
    /// Load-time rejections: missing/corrupt/stale file images or
    /// undecodable entries — each one a silent fall-back, never an error.
    pub load_failures: u64,
}

struct StoreState {
    entries: HashMap<StoreKey, Vec<u8>>,
    /// Serialized image size (file length after the last load/flush).
    bytes: u64,
}

/// The on-disk plan cache behind a [`PlanEngine`](super::PlanEngine).
pub(super) struct PlanStore {
    path: PathBuf,
    state: Mutex<StoreState>,
    hits: AtomicU64,
    misses: AtomicU64,
    load_failures: AtomicU64,
}

impl PlanStore {
    /// Opens (or lazily creates) the store at `path`. A missing file is a
    /// normal first run; anything unreadable or malformed counts one load
    /// failure and starts empty.
    pub(super) fn open(path: PathBuf) -> Self {
        let store = Self {
            path,
            state: Mutex::new(StoreState { entries: HashMap::new(), bytes: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
        };
        store.load();
        store
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn load(&self) {
        let image = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(_) => {
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let Some(entries) = parse_image(&image) else {
            self.load_failures.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut st = self.lock();
        st.entries = entries;
        st.bytes = image.len() as u64;
    }

    /// Looks a view plan up, decoding its blob. A present-but-undecodable
    /// entry counts as a load failure *and* a miss, and is dropped so it
    /// is re-persisted from the fresh compile.
    pub(super) fn get_view(&self, key: &ViewKey) -> Option<ViewPlan> {
        self.get(StoreKey::View(*key), decode_view_plan)
    }

    pub(super) fn get_redist(&self, key: &RedistKey) -> Option<RedistributionPlan> {
        self.get(StoreKey::Redist(*key), decode_redist_plan)
    }

    fn get<T>(&self, key: StoreKey, decode: fn(&[u8]) -> Option<T>) -> Option<T> {
        let blob = self.lock().entries.get(&key).cloned();
        let Some(blob) = blob else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode(&blob) {
            Some(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            None => {
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.lock().entries.remove(&key);
                None
            }
        }
    }

    pub(super) fn put_view(&self, key: &ViewKey, plan: &ViewPlan) {
        self.put(StoreKey::View(*key), encode_view_plan(plan));
    }

    pub(super) fn put_redist(&self, key: &RedistKey, plan: &RedistributionPlan) {
        self.put(StoreKey::Redist(*key), encode_redist_plan(plan));
    }

    /// Inserts and rewrites the image. A flush failure (read-only disk,
    /// missing directory) is swallowed: the entry still serves this
    /// process from memory, the next process just starts cold.
    fn put(&self, key: StoreKey, blob: Vec<u8>) {
        let mut st = self.lock();
        if st.entries.get(&key).is_some_and(|old| *old == blob) {
            return;
        }
        st.entries.insert(key, blob);
        let image = build_image(&st.entries);
        st.bytes = image.len() as u64;
        let _ = self.write_atomic(&image);
    }

    fn write_atomic(&self, image: &[u8]) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = self.path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, image)?;
        std::fs::rename(&tmp, &self.path)
    }

    /// Drops every persisted entry and deletes the backing file.
    pub(super) fn purge(&self) -> std::io::Result<()> {
        let mut st = self.lock();
        st.entries.clear();
        st.bytes = 0;
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    pub(super) fn path(&self) -> &Path {
        &self.path
    }

    pub(super) fn stats(&self) -> PersistStats {
        let (entries, bytes) = {
            let st = self.lock();
            (st.entries.len() as u64, st.bytes)
        };
        PersistStats {
            entries,
            bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
        }
    }
}

/// Serializes the full image: header + checksummed payload.
fn build_image(entries: &HashMap<StoreKey, Vec<u8>>) -> Vec<u8> {
    // Deterministic entry order keeps repeated flushes byte-identical
    // (useful for tests and for rsync-style backup of the cache file).
    let mut keys: Vec<(Vec<u8>, &Vec<u8>)> = entries
        .iter()
        .map(|(k, blob)| {
            let mut kb = Vec::new();
            put_key(&mut kb, k);
            (kb, blob)
        })
        .collect();
    keys.sort_by(|a, b| a.0.cmp(&b.0));
    let mut payload = Vec::new();
    put_u32(&mut payload, keys.len() as u32);
    for (kb, blob) in keys {
        payload.extend_from_slice(&kb);
        put_u32(&mut payload, blob.len() as u32);
        payload.extend_from_slice(blob);
    }
    let mut image = Vec::with_capacity(HEADER_LEN + payload.len());
    image.extend_from_slice(&MAGIC);
    put_u32(&mut image, FORMAT);
    put_u64(&mut image, payload.len() as u64);
    put_u32(&mut image, crc32c(&payload));
    image.extend_from_slice(&payload);
    image
}

/// Parses a full image; `None` on any structural problem (bad magic,
/// format mismatch, truncation, checksum mismatch, malformed entries).
fn parse_image(image: &[u8]) -> Option<HashMap<StoreKey, Vec<u8>>> {
    if image.len() < HEADER_LEN || image[..4] != MAGIC {
        return None;
    }
    let mut h = Cursor::new(&image[4..HEADER_LEN]);
    let format = h.u32()?;
    let payload_len = usize::try_from(h.u64()?).ok()?;
    let crc = h.u32()?;
    if format != FORMAT {
        return None;
    }
    let payload = image.get(HEADER_LEN..)?;
    if payload.len() != payload_len || crc32c(payload) != crc {
        return None;
    }
    let mut c = Cursor::new(payload);
    let count = c.len()?;
    let mut entries = HashMap::with_capacity(count.min(MAX_ITEMS));
    for _ in 0..count {
        let key = get_key(&mut c)?;
        let blob_len = c.len()?;
        let blob = c.take(blob_len)?;
        entries.insert(key, blob.to_vec());
    }
    c.done().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Partition, PartitionPattern};

    fn stripes(count: u64, width: u64, disp: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(
                        Falls::new(k * width, (k + 1) * width - 1, count * width, 1).unwrap(),
                    ))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(disp, pattern)
    }

    fn cyclic(count: u64) -> Partition {
        let pattern = PartitionPattern::new(
            (0..count)
                .map(|k| {
                    NestedSet::singleton(NestedFalls::leaf(Falls::new(k, k, count, 1).unwrap()))
                })
                .collect(),
        )
        .unwrap();
        Partition::new(0, pattern)
    }

    #[test]
    fn view_plan_codec_round_trips() {
        let plan = ViewPlan::compile(&stripes(4, 8, 0), 1, &cyclic(4)).unwrap();
        let blob = encode_view_plan(&plan);
        let back = decode_view_plan(&blob).expect("round trip");
        assert_eq!(encode_view_plan(&back), blob, "re-encoding is byte-identical");
        assert_eq!(back.per_subfile.len(), plan.per_subfile.len());
        for (a, b) in plan.per_subfile.iter().zip(&back.per_subfile) {
            assert_eq!(a.proj_view, b.proj_view);
            assert_eq!(a.proj_sub, b.proj_sub);
            assert_eq!(a.perfect_match, b.perfect_match);
        }
    }

    #[test]
    fn redist_plan_codec_round_trips() {
        let plan = RedistributionPlan::build(&stripes(3, 5, 2), &cyclic(4)).unwrap();
        let blob = encode_redist_plan(&plan);
        let back = decode_redist_plan(&blob).expect("round trip");
        assert_eq!(encode_redist_plan(&back), blob);
        assert_eq!(back.displacement, plan.displacement);
        assert_eq!(back.period, plan.period);
        assert_eq!(back.src_elements(), plan.src_elements());
        assert_eq!(back.dst_elements(), plan.dst_elements());
        assert_eq!(back.pairs.len(), plan.pairs.len());
        for (a, b) in plan.pairs.iter().zip(&back.pairs) {
            assert_eq!(a.runs, b.runs);
            assert_eq!(a.src_period, b.src_period);
            assert_eq!(a.dst_period, b.dst_period);
        }
    }

    #[test]
    fn truncated_blob_is_rejected_not_panicking() {
        let plan = ViewPlan::compile(&stripes(2, 4, 0), 0, &cyclic(2)).unwrap();
        let blob = encode_view_plan(&plan);
        for cut in 0..blob.len() {
            assert!(decode_view_plan(&blob[..cut]).is_none(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn crc32c_matches_known_vector() {
        // RFC 3720 test vector: 32 zero bytes.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn image_survives_round_trip_and_rejects_corruption() {
        let plan = ViewPlan::compile(&stripes(2, 4, 0), 0, &cyclic(2)).unwrap();
        let key = StoreKey::View(ViewKey {
            view_fp: 1,
            phys_fp: 2,
            element: 0,
            view_disp: 0,
            phys_disp: 0,
        });
        let mut entries = HashMap::new();
        entries.insert(key, encode_view_plan(&plan));
        let image = build_image(&entries);
        assert_eq!(parse_image(&image).expect("parse").len(), 1);
        // The header CRC is the one a bytewise CRC32C writes: cache files
        // from builds that predate the shared kernel load unchanged.
        let reference = crate::crc::bytewise(crate::crc::CASTAGNOLI, &image[HEADER_LEN..]);
        assert_eq!(image[HEADER_LEN - 4..HEADER_LEN], reference.to_le_bytes());
        // Bit flip anywhere in the payload breaks the checksum.
        let mut flipped = image.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(parse_image(&flipped).is_none());
        // Truncation at every prefix is rejected.
        for cut in 0..image.len() {
            assert!(parse_image(&image[..cut]).is_none(), "cut at {cut}");
        }
        // A format bump is a stale cache.
        let mut stale = image;
        stale[4] ^= 0xFF;
        assert!(parse_image(&stale).is_none());
    }
}
