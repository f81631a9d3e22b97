//! Per-page CRC32C checksums stored alongside subfile data.
//!
//! Every subfile store can carry a [`ChecksumMap`]: one CRC32C (Castagnoli)
//! checksum per fixed-size page of the store. The map lets a daemon verify
//! the pages covered by a read *before* shipping bytes to a client, so a
//! bit-flip on disk surfaces as a checksum error the replication layer can
//! fail over from, rather than as silently corrupt data.
//!
//! The checksums use the Castagnoli polynomial (`0x1EDC6F41`, reflected
//! `0x82F63B78`), the same CRC32C that guards journal records.
//!
//! The map is maintained and consulted *per message*, not per segment: the
//! `(offset, len)` runs of one scatter or gather are folded into ascending
//! page ranges, so a page that many fragments land in is checksummed once,
//! and each contiguous page range costs one positioned read of the store
//! (a borrowed slice on the memory backend). A writer that still holds the
//! payload ([`ChecksumMap::record_runs`]) has the pages a run covers whole
//! checksummed from it; a reader ([`ChecksumMap::read_verified`]) gets its
//! bytes out of the very pages that were just verified, appended to the end
//! of a buffer it passes in (the daemon passes its connection's write
//! buffer, so they land in the reply frame itself) and cut back out of it
//! on a mismatch. A file-backed store is read through a page window the
//! caller owns and reuses across reads.
//!
//! For directory-backed stores the map persists to a sidecar file next to
//! the data (`file<fid>_subfile<idx>.crc`), written on flush. The sidecar
//! is exactly as fresh as the last flush; anything newer is covered by the
//! intent journal, so after a crash recovery the map is rebuilt from the
//! replayed bytes instead of trusted from disk.

// The daemon's read and scrub paths: a failure is a typed error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fs::OpenOptions;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::storage::{positioned_write, StorageBackend, SubfileStore};

/// Default checksum granularity in bytes.
pub const CHECKSUM_PAGE: u64 = 4096;

/// Sidecar file magic ("ParaFile CheckSums").
const SIDECAR_MAGIC: &[u8; 4] = b"PFCS";
/// Sidecar format version.
const SIDECAR_VERSION: u8 = 1;

/// Pages fetched per positioned read when a page walk crosses a
/// file-backed store: one `pread` moves up to this many pages (1 MiB), so a
/// whole-subfile pass costs `len / 1 MiB` syscalls and a bounded buffer.
pub const WALK_WINDOW_PAGES: usize = 256;

/// CRC32C (Castagnoli) of `data` — the checksum guarding stored *data*
/// pages and journal records, computed by the workspace's shared kernel.
pub use parafile::crc::crc32c;
use parafile::crc::crc32c_pages;

/// Sidecar path for `file<fid>_subfile<idx>.crc` under `dir`.
#[must_use]
pub fn sidecar_path(dir: &Path, file_id: usize, subfile: usize) -> PathBuf {
    dir.join(format!("file{file_id}_subfile{subfile}.crc"))
}

/// Page-granular CRC32C map over one subfile store.
///
/// The map always covers the store exactly: `ceil(len / page)` checksums,
/// the last one over the trailing partial page. Callers must keep it in
/// sync by routing every mutation through [`record_runs`] (once per
/// scattered message; [`record_write`] is its one-run case) or
/// [`rebuild`] after wholesale changes.
///
/// [`record_runs`]: ChecksumMap::record_runs
/// [`record_write`]: ChecksumMap::record_write
/// [`rebuild`]: ChecksumMap::rebuild
#[derive(Debug)]
pub struct ChecksumMap {
    page: u64,
    sums: Vec<u32>,
    /// Sidecar path, when the backing store is directory-backed.
    path: Option<PathBuf>,
}

impl ChecksumMap {
    /// Build the map for a store, loading the sidecar when it is present,
    /// trusted, and consistent with the store's current length — otherwise
    /// recomputing every page from the bytes.
    ///
    /// Pass `trust_sidecar = false` when journaled intents were replayed
    /// into the store after the last flush (the sidecar predates them).
    pub fn for_store(
        backend: &StorageBackend,
        file_id: usize,
        subfile: usize,
        store: &mut SubfileStore,
        trust_sidecar: bool,
    ) -> io::Result<Self> {
        let path = match backend {
            StorageBackend::Memory => None,
            StorageBackend::Directory(dir) => Some(sidecar_path(dir, file_id, subfile)),
        };
        let mut map = ChecksumMap { page: CHECKSUM_PAGE, sums: Vec::new(), path };
        if trust_sidecar {
            if let Some(sums) = map.load_sidecar(store.len())? {
                map.sums = sums;
                return Ok(map);
            }
        }
        map.rebuild(store)?;
        Ok(map)
    }

    /// Checksum granularity in bytes.
    #[must_use]
    pub fn page(&self) -> u64 {
        self.page
    }

    /// Number of checksummed pages.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.sums.len()
    }

    fn page_count(len: u64, page: u64) -> usize {
        (len.div_ceil(page)) as usize
    }

    /// Recompute every page checksum from the store's current bytes.
    pub fn rebuild(&mut self, store: &mut SubfileStore) -> io::Result<()> {
        let n = Self::page_count(store.len(), self.page);
        self.sums.clear();
        self.sums.resize(n, 0);
        let (page, sums) = (self.page, &mut self.sums);
        walk_pages(store, page, 0, n, &mut Vec::new(), |first, bytes| {
            refresh(sums, page, first, bytes);
        })
    }

    /// Refresh the checksums of every page touched by a write of `len`
    /// bytes at `offset` (call *after* the bytes hit the store): the
    /// one-run case of [`record_runs`](ChecksumMap::record_runs).
    pub fn record_write(
        &mut self,
        store: &mut SubfileStore,
        offset: u64,
        len: u64,
    ) -> io::Result<()> {
        self.record_runs(store, &[(offset, len)], None)
    }

    /// Refresh the checksums of every page touched by a whole message's
    /// `(offset, len)` runs (call *after* the bytes hit the store).
    ///
    /// The runs are folded into ascending page ranges first, so a page is
    /// recomputed once however many runs land in it, and each contiguous
    /// page range costs one positioned read (a borrowed slice on the
    /// memory backend). Runs may be unsorted, overlapping, empty, or reach
    /// past the end of the store (they are clipped to it).
    ///
    /// `payload` is the buffer `scatter(runs, payload)` just wrote, when
    /// the caller still holds it: a page that one run covers entirely and
    /// no other run touches is then checksummed from the payload instead
    /// of being read back, leaving at most the two partial edge pages of a
    /// contiguous run to fetch from the store. It must cover every run.
    pub fn record_runs(
        &mut self,
        store: &mut SubfileStore,
        runs: &[(u64, u64)],
        payload: Option<&[u8]>,
    ) -> io::Result<()> {
        let total = runs.iter().fold(0u64, |sum, &(_, len)| sum.saturating_add(len));
        if payload.is_some_and(|p| (p.len() as u64) < total) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checksum payload shorter than its segment runs",
            ));
        }
        let extents = clip_runs(runs, store.len());
        if extents.is_empty() {
            return Ok(());
        }
        // Keep the map sized to the store (replace() may have resized it).
        let n = Self::page_count(store.len(), self.page);
        self.sums.resize(n, 0);
        let (page, sums) = (self.page, &mut self.sums);
        let mut buf = Vec::new();
        for span in page_spans(&extents, page, store.len(), payload.is_some()) {
            match (span.src, payload) {
                (Some(src), Some(payload)) => {
                    let bytes =
                        (span.end as u64 * page).min(store.len()) - span.first as u64 * page;
                    refresh(sums, page, span.first, &payload[src..src + bytes as usize]);
                }
                _ => walk_pages(store, page, span.first, span.end, &mut buf, |first, bytes| {
                    refresh(sums, page, first, bytes);
                })?,
            }
        }
        Ok(())
    }

    /// Verify the pages covering `[offset, offset + len)`; returns how many
    /// failed their checksum. `Err` is reserved for real I/O failures. The
    /// one-run case of [`verify_runs`](ChecksumMap::verify_runs).
    pub fn verify_range(&self, store: &mut SubfileStore, offset: u64, len: u64) -> io::Result<u64> {
        self.verify_runs(store, &[(offset, len)])
    }

    /// Verify the pages a whole message's `(offset, len)` runs touch;
    /// returns the number of *distinct* pages that failed — a page counts
    /// once however many runs touch it (a per-run loop over
    /// [`verify_range`](ChecksumMap::verify_range) would count it once per
    /// run). A page of the store the map does not cover is a mismatch.
    /// Runs are clipped to the store like in
    /// [`record_runs`](ChecksumMap::record_runs), and each contiguous page
    /// range is fetched with one positioned read.
    pub fn verify_runs(&self, store: &mut SubfileStore, runs: &[(u64, u64)]) -> io::Result<u64> {
        let extents = clip_runs(runs, store.len());
        let mut bad = 0u64;
        let mut buf = Vec::new();
        for span in page_spans(&extents, self.page, store.len(), false) {
            walk_pages(store, self.page, span.first, span.end, &mut buf, |first, bytes| {
                bad += self.mismatches(first, bytes);
            })?;
        }
        Ok(bad)
    }

    /// Verify-then-serve in one pass: appends the bytes of `runs` to `out`
    /// in run order, like [`SubfileStore::gather`], while checking every
    /// page the runs touch against the map from the same fetched bytes.
    /// Returns the number of distinct mismatching pages; when it is not
    /// zero, or on an error, `out` is cut back to the length it came in
    /// with (nothing unverified is handed out). Unlike the verify-only
    /// entry points, a run reaching past the end of the store is an error
    /// here, as it is for `gather`.
    ///
    /// `out` may already hold bytes (a daemon passes the connection's write
    /// buffer, a reply frame's header at its end); they are left alone.
    /// When the runs ascend through the store without overlapping — every
    /// projection's runs do, and so does a whole-store read — each verified
    /// slice is appended as it is walked, so the reply is written once and
    /// never zero-filled; any other run order is laid out by position in a
    /// zero-filled tail. A file-backed store is read through `window`,
    /// which grows to at most [`WALK_WINDOW_PAGES`] pages and is never
    /// shrunk, so a caller that keeps it reuses one allocation across
    /// reads; whatever it held before is overwritten, never handed out.
    pub fn read_verified(
        &self,
        store: &mut SubfileStore,
        runs: &[(u64, u64)],
        out: &mut Vec<u8>,
        window: &mut Vec<u8>,
    ) -> io::Result<u64> {
        let store_len = store.len();
        let mut total = 0u64;
        for &(off, len) in runs {
            if off.checked_add(len).is_none_or(|end| end > store_len) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("read [{off}, {off}+{len}) beyond the {store_len}-byte subfile"),
                ));
            }
            total += len;
        }
        let base = out.len();
        // An extent's `pos` is its place in the reply, past `base`.
        let extents = clip_runs(runs, store_len);
        let mut reached = (0u64, 0usize);
        let ascending = extents.iter().all(|e| {
            let in_order = e.off >= reached.0 && e.pos == reached.1;
            reached = (e.end, e.pos + (e.end - e.off) as usize);
            in_order
        });
        if ascending {
            out.reserve(total as usize);
        } else {
            out.resize(base + total as usize, 0);
        }
        let mut bad = 0u64;
        // First extent that may still reach into the bytes being walked.
        let mut lo = 0usize;
        let result =
            page_spans(&extents, self.page, store_len, false).into_iter().try_for_each(|span| {
                walk_pages(store, self.page, span.first, span.end, window, |first, bytes| {
                    bad += self.mismatches(first, bytes);
                    let start = first as u64 * self.page;
                    let end = start + bytes.len() as u64;
                    while lo < extents.len() && extents[lo].end <= start {
                        lo += 1;
                    }
                    for e in extents[lo..].iter().take_while(|e| e.off < end) {
                        let (a, b) = (e.off.max(start), e.end.min(end));
                        if a < b {
                            let src = &bytes[(a - start) as usize..(b - start) as usize];
                            if ascending {
                                out.extend_from_slice(src);
                            } else {
                                let dst = base + e.pos + (a - e.off) as usize;
                                out[dst..dst + src.len()].copy_from_slice(src);
                            }
                        }
                    }
                })
            });
        if bad > 0 || result.is_err() {
            out.truncate(base);
        }
        result.map(|()| bad)
    }

    /// Verify up to `count` pages starting at page `first`, clipped to the
    /// store; returns the number of mismatching pages. A background scrub
    /// walks a subfile through this in bounded steps so foreground I/O
    /// waits for one step, not for the whole subfile. A file-backed store
    /// is read through `window`, as [`read_verified`](Self::read_verified)
    /// reads it.
    pub fn verify_pages(
        &self,
        store: &mut SubfileStore,
        first: usize,
        count: usize,
        window: &mut Vec<u8>,
    ) -> io::Result<u64> {
        let n = Self::page_count(store.len(), self.page);
        let end = first.saturating_add(count).min(n);
        let mut bad = 0u64;
        if first < end {
            walk_pages(store, self.page, first, end, window, |p, bytes| {
                bad += self.mismatches(p, bytes);
            })?;
        }
        Ok(bad)
    }

    /// Verify every page; returns the number of mismatching pages.
    pub fn verify_all(&self, store: &mut SubfileStore) -> io::Result<u64> {
        self.verify_pages(store, 0, usize::MAX, &mut Vec::new())
    }

    /// How many of the pages in `bytes` (page `first` onwards) disagree
    /// with the map; a page past the map's end has no checksum to agree
    /// with.
    fn mismatches(&self, first: usize, bytes: &[u8]) -> u64 {
        let mut bad = 0u64;
        crc32c_pages(bytes, self.page as usize, |k, crc| {
            bad += u64::from(self.sums.get(first + k) != Some(&crc));
        });
        bad
    }

    /// Persist the map to its sidecar (no-op for memory-backed stores).
    ///
    /// The sidecar is overwritten in place and cut only when its size
    /// changes, so a flush of an unchanged-size map reuses the file's
    /// blocks and syncs data alone. A crash mid-overwrite leaves a file
    /// whose trailer CRC fails, which the next open rebuilds from the
    /// store, exactly as it does a truncated or missing sidecar.
    pub fn flush(&self) -> io::Result<()> {
        let Some(path) = &self.path else { return Ok(()) };
        let mut image = Vec::with_capacity(4 + 17 + self.sums.len() * 4 + 4);
        image.extend_from_slice(SIDECAR_MAGIC);
        image.push(SIDECAR_VERSION);
        image.extend_from_slice(&self.page.to_le_bytes());
        image.extend_from_slice(&(self.sums.len() as u64).to_le_bytes());
        for sum in &self.sums {
            image.extend_from_slice(&sum.to_le_bytes());
        }
        let trailer = crc32c(&image[SIDECAR_MAGIC.len()..]);
        image.extend_from_slice(&trailer.to_le_bytes());
        let mut file = OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
        positioned_write(&mut file, 0, &image)?;
        if file.metadata()?.len() != image.len() as u64 {
            file.set_len(image.len() as u64)?;
        }
        file.sync_data()
    }

    /// Load the sidecar if it exists, parses, and matches `store_len`.
    /// A missing, truncated, or stale sidecar is `Ok(None)` — the caller
    /// rebuilds — never an error.
    fn load_sidecar(&self, store_len: u64) -> io::Result<Option<Vec<u32>>> {
        let Some(path) = &self.path else { return Ok(None) };
        let mut raw = Vec::new();
        match std::fs::File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        if raw.len() < 4 + 17 + 4 || &raw[..4] != SIDECAR_MAGIC {
            return Ok(None);
        }
        let body = &raw[4..raw.len() - 4];
        let trailer = u32::from_le_bytes(raw[raw.len() - 4..].try_into().unwrap_or([0; 4]));
        if crc32c(body) != trailer || body[0] != SIDECAR_VERSION {
            return Ok(None);
        }
        let page = u64::from_le_bytes(body[1..9].try_into().unwrap_or([0; 8]));
        let count = u64::from_le_bytes(body[9..17].try_into().unwrap_or([0; 8])) as usize;
        if page != self.page
            || count != Self::page_count(store_len, self.page)
            || body.len() != 17 + count * 4
        {
            return Ok(None);
        }
        let sums = body[17..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap_or([0; 4])))
            .collect();
        Ok(Some(sums))
    }
}

/// Stores the checksums of the pages in `bytes` (page `first` onwards).
fn refresh(sums: &mut [u32], page: u64, first: usize, bytes: &[u8]) {
    crc32c_pages(bytes, page as usize, |k, crc| sums[first + k] = crc);
}

/// One run of a message: store bytes `[off, end)`, whose first byte sits
/// at `pos` in the message's payload (write) or reply (read).
#[derive(Debug, Clone, Copy)]
struct Extent {
    off: u64,
    end: u64,
    pos: usize,
}

/// The non-empty runs clipped to the store, each with its position in
/// the message payload, runs adjacent in both store and payload merged,
/// sorted by store offset.
fn clip_runs(runs: &[(u64, u64)], store_len: u64) -> Vec<Extent> {
    let mut extents: Vec<Extent> = Vec::with_capacity(runs.len());
    let mut pos = 0usize;
    for &(off, len) in runs {
        let end = off.saturating_add(len).min(store_len);
        if off < end {
            match extents.last_mut() {
                Some(prev)
                    if prev.end == off && prev.pos + (prev.end - prev.off) as usize == pos =>
                {
                    prev.end = end;
                }
                _ => extents.push(Extent { off, end, pos }),
            }
        }
        pos = pos.saturating_add(len as usize);
    }
    extents.sort_by_key(|e| e.off);
    extents
}

/// Pages `[first, end)` to (re)compute: from the payload starting at `src`
/// when set, from the store otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageSpan {
    first: usize,
    end: usize,
    src: Option<usize>,
}

/// Folds offset-sorted extents into ascending, non-overlapping page
/// spans covering exactly the pages the extents touch. Store spans that
/// overlap or abut are merged. With `from_payload`, the pages an extent
/// covers entirely *and* no other extent touches become payload spans:
/// earlier extents (sorted) end at or before `covered`, later ones start
/// at or after the next extent's offset, so pages inside
/// `[max(off, covered), min(end, next.off))` are this extent's alone. (The
/// rule is conservative where extents nest — the outer one's pages past
/// the inner one are read back too — and exact for disjoint extents, the
/// only kind a projection produces.)
fn page_spans(extents: &[Extent], page: u64, store_len: u64, from_payload: bool) -> Vec<PageSpan> {
    let mut spans: Vec<PageSpan> = Vec::with_capacity(extents.len());
    let mut covered = 0u64;
    for (i, e) in extents.iter().enumerate() {
        let first = (e.off / page) as usize;
        let end = e.end.div_ceil(page) as usize;
        let lo = e.off.max(covered);
        let hi = e.end.min(extents.get(i + 1).map_or(u64::MAX, |next| next.off));
        covered = covered.max(e.end);
        let own_first = lo.div_ceil(page) as usize;
        // The trailing partial page is whole once the extent reaches EOF.
        let own_end = if hi >= store_len { end } else { (hi / page) as usize };
        if from_payload && lo < hi && own_first < own_end {
            let src = e.pos + (own_first as u64 * page - e.off) as usize;
            spans.push(PageSpan { first, end: own_first, src: None });
            spans.push(PageSpan { first: own_first, end: own_end, src: Some(src) });
            spans.push(PageSpan { first: own_end, end, src: None });
        } else {
            spans.push(PageSpan { first, end, src: None });
        }
    }
    spans.retain(|s| s.first < s.end);
    spans.sort_by_key(|s| s.first);
    let mut merged: Vec<PageSpan> = Vec::with_capacity(spans.len());
    // Index in `merged` of the store span still open for extension; a
    // payload span in between never overlaps it (its pages are exclusive).
    let mut open: Option<usize> = None;
    for s in spans {
        match (s.src, open) {
            (None, Some(i)) if s.first <= merged[i].end => {
                merged[i].end = merged[i].end.max(s.end);
            }
            (None, _) => {
                open = Some(merged.len());
                merged.push(s);
            }
            (Some(_), _) => merged.push(s),
        }
    }
    merged
}

/// Hands `visit` the bytes of pages `[first, end)` of `store` (`end` at
/// most the store's page count) as `(first page of the chunk, bytes)`:
/// the memory backend lends one slice for the whole range — no copy — and
/// a file-backed store is read through `buf` in windows of
/// [`WALK_WINDOW_PAGES`], one positioned read each. `buf` only grows, so a
/// reused one is zero-filled once, not once per window.
fn walk_pages(
    store: &mut SubfileStore,
    page: u64,
    first: usize,
    end: usize,
    buf: &mut Vec<u8>,
    mut visit: impl FnMut(usize, &[u8]),
) -> io::Result<()> {
    let byte_end = |p: usize, len: u64| (p as u64 * page).min(len);
    if let SubfileStore::Memory(v) = store {
        let len = v.len() as u64;
        visit(first, &v[byte_end(first, len) as usize..byte_end(end, len) as usize]);
        return Ok(());
    }
    let len = store.len();
    let mut p = first;
    while p < end {
        let next = p.saturating_add(WALK_WINDOW_PAGES).min(end);
        let n = (byte_end(next, len) - byte_end(p, len)) as usize;
        if buf.len() < n {
            buf.resize(n, 0);
        }
        store.read_into(byte_end(p, len), &mut buf[..n])?;
        visit(p, &buf[..n]);
        p = next;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step CRC loop the on-disk formats were first written
    /// with: the fixture tests of this crate build "old" files with it.
    pub(crate) fn bytewise_crc(poly: u32, data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            }
        }
        !crc
    }

    fn scratch_backend(tag: &str) -> (StorageBackend, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pf_crc_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (StorageBackend::Directory(dir.clone()), dir)
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 test vector.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn map_tracks_writes_and_detects_corruption() {
        let mut store = SubfileStore::create(&StorageBackend::Memory, 0, 0, 10_000).unwrap();
        let mut map =
            ChecksumMap::for_store(&StorageBackend::Memory, 0, 0, &mut store, true).unwrap();
        assert_eq!(map.pages(), 3);
        store.write_at(4000, &[7; 200]).unwrap();
        // Stale until recorded: pages 0 and 1 are both touched by [4000, 4200).
        assert_eq!(map.verify_range(&mut store, 4000, 200).unwrap(), 2);
        map.record_write(&mut store, 4000, 200).unwrap();
        assert_eq!(map.verify_all(&mut store).unwrap(), 0);
        // Verification is page-granular: a write in page 2 does not disturb
        // verification of page 0.
        store.write_at(9000, &[1]).unwrap();
        assert_eq!(map.verify_range(&mut store, 0, 4096).unwrap(), 0);
        assert_eq!(map.verify_range(&mut store, 9000, 1).unwrap(), 1);
    }

    #[test]
    fn sidecar_round_trips_and_rejects_staleness() {
        let dir = std::env::temp_dir().join(format!("pf_crc_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let backend = StorageBackend::Directory(dir.clone());
        let mut store = SubfileStore::create(&backend, 5, 2, 9000).unwrap();
        store.write_at(100, b"payload").unwrap();
        let mut map = ChecksumMap::for_store(&backend, 5, 2, &mut store, true).unwrap();
        map.record_write(&mut store, 100, 7).unwrap();
        map.flush().unwrap();
        assert!(sidecar_path(&dir, 5, 2).exists());

        // Reload trusts the sidecar and agrees with the data.
        let map2 = ChecksumMap::for_store(&backend, 5, 2, &mut store, true).unwrap();
        assert_eq!(map2.verify_all(&mut store).unwrap(), 0);

        // An untrusted sidecar (journal replay happened) is rebuilt, so a
        // data change invisible to the sidecar still verifies clean.
        store.write_at(5000, &[3; 10]).unwrap();
        let map3 = ChecksumMap::for_store(&backend, 5, 2, &mut store, false).unwrap();
        assert_eq!(map3.verify_all(&mut store).unwrap(), 0);
        // ... while the trusted (stale) sidecar flags the page.
        let map4 = ChecksumMap::for_store(&backend, 5, 2, &mut store, true).unwrap();
        assert_eq!(map4.verify_all(&mut store).unwrap(), 1);

        // A corrupt sidecar falls back to rebuild rather than erroring.
        std::fs::write(sidecar_path(&dir, 5, 2), b"PFCSgarbage").unwrap();
        let map5 = ChecksumMap::for_store(&backend, 5, 2, &mut store, true).unwrap();
        assert_eq!(map5.verify_all(&mut store).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_is_overwritten_in_place_and_a_torn_overwrite_is_rebuilt() {
        let (backend, dir) = scratch_backend("inplace");
        let mut store = SubfileStore::create(&backend, 3, 0, 3 * 4096).unwrap();
        let mut map = ChecksumMap::for_store(&backend, 3, 0, &mut store, true).unwrap();
        map.flush().unwrap();
        let path = sidecar_path(&dir, 3, 0);
        let old = std::fs::read(&path).unwrap();
        store.write_at(5000, &[9; 100]).unwrap();
        map.record_write(&mut store, 5000, 100).unwrap();
        map.flush().unwrap();
        let new = std::fs::read(&path).unwrap();
        assert_eq!(new.len(), old.len(), "same map size, same file size");
        assert_ne!(new, old);
        // A crash part-way through the overwrite: any mix of the two images
        // fails the trailer CRC and is rebuilt from the store, never
        // trusted, so it verifies against the bytes it was rebuilt from.
        for cut in 1..new.len() {
            let mut torn = new[..cut].to_vec();
            torn.extend_from_slice(&old[cut..]);
            if torn == new || torn == old {
                continue;
            }
            std::fs::write(&path, &torn).unwrap();
            let reloaded = ChecksumMap::for_store(&backend, 3, 0, &mut store, true).unwrap();
            assert_eq!(reloaded.load_sidecar(store.len()).unwrap(), None, "cut {cut}");
            assert_eq!(reloaded.sums, map.sums, "cut {cut}");
        }
        // A map that shrinks cuts the file to the new image: no stale tail
        // follows the trailer.
        let mut small = SubfileStore::create(&StorageBackend::Memory, 0, 0, 4096).unwrap();
        let mut shrunk = ChecksumMap::for_store(&backend, 3, 0, &mut small, false).unwrap();
        shrunk.record_write(&mut small, 0, 1).unwrap();
        shrunk.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 4 + 17 + 4 + 4);
        assert_eq!(shrunk.load_sidecar(4096).unwrap().as_ref(), Some(&shrunk.sums));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_bit_flip_is_detected() {
        let dir = std::env::temp_dir().join(format!("pf_crc_flip_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let backend = StorageBackend::Directory(dir.clone());
        let mut store = SubfileStore::create(&backend, 1, 0, 4096 * 2).unwrap();
        store.write_at(0, &vec![0xAAu8; 8192]).unwrap();
        let mut map = ChecksumMap::for_store(&backend, 1, 0, &mut store, true).unwrap();
        map.record_write(&mut store, 0, 8192).unwrap();
        let path = store.path().unwrap().to_path_buf();
        store.flush().unwrap();

        // Flip one byte behind the store's back, as disk rot would.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[5000] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut reopened = SubfileStore::open_or_create(&backend, 1, 0, 8192).unwrap().0;
        assert_eq!(map.verify_all(&mut reopened).unwrap(), 1);
        assert_eq!(map.verify_range(&mut reopened, 0, 4096).unwrap(), 0);
        assert_eq!(map.verify_range(&mut reopened, 4097, 1000).unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_write_resizes_with_the_store() {
        let mut store = SubfileStore::create(&StorageBackend::Memory, 0, 0, 100).unwrap();
        let mut map =
            ChecksumMap::for_store(&StorageBackend::Memory, 0, 0, &mut store, true).unwrap();
        assert_eq!(map.pages(), 1);
        store.replace(vec![1u8; 10_000]).unwrap();
        map.record_write(&mut store, 0, 10_000).unwrap();
        assert_eq!(map.pages(), 3);
        assert_eq!(map.verify_all(&mut store).unwrap(), 0);
    }

    #[test]
    fn a_page_the_map_does_not_cover_is_a_mismatch_not_a_pass_or_a_panic() {
        // An empty map over a store that has since grown one page.
        let mut store = SubfileStore::create(&StorageBackend::Memory, 0, 0, 0).unwrap();
        let map = ChecksumMap::for_store(&StorageBackend::Memory, 0, 0, &mut store, true).unwrap();
        assert_eq!(map.pages(), 0);
        store.replace(vec![1; 100]).unwrap();
        assert_eq!(map.verify_range(&mut store, 0, 100).unwrap(), 1);
        assert_eq!(map.verify_all(&mut store).unwrap(), 1);
        // A one-page map over a three-page store: pages 1 and 2 are unknown.
        let mut store = SubfileStore::create(&StorageBackend::Memory, 0, 0, 4096).unwrap();
        let map = ChecksumMap::for_store(&StorageBackend::Memory, 0, 0, &mut store, true).unwrap();
        store.replace(vec![0; 3 * 4096]).unwrap();
        assert_eq!(map.verify_range(&mut store, 4096, 8192).unwrap(), 2);
        assert_eq!(map.verify_runs(&mut store, &[(5000, 1), (0, 10), (9000, 1)]).unwrap(), 2);
        assert_eq!(map.verify_pages(&mut store, 1, 1, &mut Vec::new()).unwrap(), 1);
        let read = map.read_verified(&mut store, &[(4096, 10)], &mut Vec::new(), &mut Vec::new());
        assert_eq!(read.unwrap(), 1);
        assert_eq!(map.verify_all(&mut store).unwrap(), 2);
    }

    #[test]
    fn whole_store_walks_cross_read_windows() {
        let (backend, dir) = scratch_backend("windows");
        let len = (2 * WALK_WINDOW_PAGES as u64 + 1) * CHECKSUM_PAGE + 100;
        let mut store = SubfileStore::create(&backend, 0, 0, len).unwrap();
        let body: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        store.write_at(0, &body).unwrap();
        let map = ChecksumMap::for_store(&backend, 0, 0, &mut store, false).unwrap();
        assert_eq!(map.pages(), 2 * WALK_WINDOW_PAGES + 2);
        assert_eq!(map.sums[WALK_WINDOW_PAGES], crc32c(&body[1 << 20..(1 << 20) + 4096]));
        assert_eq!(*map.sums.last().unwrap(), crc32c(&body[body.len() - 100..]));
        assert_eq!(map.verify_all(&mut store).unwrap(), 0);
        // Runs that ascend but overlap across a window seam are laid out by
        // position, not appended as they are walked.
        let seam = WALK_WINDOW_PAGES as u64 * CHECKSUM_PAGE;
        let runs = [(0, seam + 100), (seam - 50, 200)];
        let (mut out, mut gathered) = (Vec::new(), Vec::new());
        assert_eq!(map.read_verified(&mut store, &runs, &mut out, &mut Vec::new()).unwrap(), 0);
        store.gather(runs, &mut gathered).unwrap();
        assert!(out == gathered, "overlapping runs read back as gathered");
        // One bad page on each side of both window seams, and the tail.
        let w = WALK_WINDOW_PAGES as u64;
        for page in [0, w - 1, w, 2 * w, 2 * w + 1] {
            store.write_at(page * CHECKSUM_PAGE + 7, &[0xEE]).unwrap();
        }
        assert_eq!(map.verify_all(&mut store).unwrap(), 5);
        // A reused window's stale bytes are overwritten, never verified.
        let mut window = body[..3 * CHECKSUM_PAGE as usize].to_vec();
        assert_eq!(map.verify_pages(&mut store, 0, WALK_WINDOW_PAGES, &mut window).unwrap(), 2);
        let rest = map.verify_pages(&mut store, WALK_WINDOW_PAGES, usize::MAX, &mut window);
        assert_eq!(rest.unwrap(), 3);
        let mut out = Vec::new();
        assert_eq!(
            map.read_verified(&mut store, &[(0, len)], &mut out, &mut Vec::new()).unwrap(),
            5
        );
        assert!(out.is_empty(), "nothing unverified is handed out");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_written_with_a_bytewise_crc_still_loads() {
        let (backend, dir) = scratch_backend("fixture");
        let mut store = SubfileStore::create(&backend, 9, 1, 9000).unwrap();
        store.write_at(4000, &[0x3C; 300]).unwrap();
        // The file an older build leaves behind, byte for byte.
        let castagnoli = |data: &[u8]| bytewise_crc(0x82F6_3B78, data);
        let bytes = store.read_all().unwrap();
        let mut body = vec![SIDECAR_VERSION];
        body.extend_from_slice(&CHECKSUM_PAGE.to_le_bytes());
        body.extend_from_slice(&3u64.to_le_bytes());
        for page in bytes.chunks(CHECKSUM_PAGE as usize) {
            body.extend_from_slice(&castagnoli(page).to_le_bytes());
        }
        let mut old = SIDECAR_MAGIC.to_vec();
        old.extend_from_slice(&body);
        old.extend_from_slice(&castagnoli(&body).to_le_bytes());
        std::fs::write(sidecar_path(&dir, 9, 1), &old).unwrap();

        let map = ChecksumMap::for_store(&backend, 9, 1, &mut store, true).unwrap();
        assert_eq!(
            map.load_sidecar(9000).unwrap().as_ref(),
            Some(&map.sums),
            "loaded, not rebuilt"
        );
        assert_eq!(map.verify_all(&mut store).unwrap(), 0);
        // ... and this build writes the same file back.
        map.flush().unwrap();
        assert_eq!(std::fs::read(sidecar_path(&dir, 9, 1)).unwrap(), old);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_contiguous_run_reads_back_only_its_two_edge_pages() {
        // Four abutting fragments fold into one extent [1000, 13000).
        let runs = [(1000, 3000), (4000, 3000), (7000, 0), (7000, 3000), (10_000, 3000)];
        let extents = clip_runs(&runs, 20_000);
        assert_eq!(extents.len(), 1);
        let span = |first, end, src| PageSpan { first, end, src };
        assert_eq!(
            page_spans(&extents, 4096, 20_000, true),
            vec![span(0, 1, None), span(1, 3, Some(3096)), span(3, 4, None)]
        );
        assert_eq!(page_spans(&extents, 4096, 20_000, false), vec![span(0, 4, None)]);
        // Reaching EOF makes the trailing partial page whole; a second run
        // overlapping page 1 takes that page away from the payload.
        let extents = clip_runs(&[(4096, 15_904), (4000, 200)], 20_000);
        assert_eq!(
            page_spans(&extents, 4096, 20_000, true),
            vec![span(0, 2, None), span(2, 5, Some(4096))]
        );
    }

    /// Pages of a `len`-byte store the clipped, non-empty `runs` touch.
    fn touched_pages(runs: &[(u64, u64)], len: u64) -> std::collections::BTreeSet<usize> {
        let mut pages = std::collections::BTreeSet::new();
        for &(off, n) in runs {
            let end = (off + n).min(len);
            if off < end {
                pages.extend((off / CHECKSUM_PAGE) as usize..=((end - 1) / CHECKSUM_PAGE) as usize);
            }
        }
        pages
    }

    /// One generated case against one backend: scatter + run-list refresh
    /// must equal a rebuild (with and without the payload in hand), and
    /// run-list verify / verified read must count exactly the distinct
    /// corrupted pages the runs touch.
    fn check_run_lists(
        backend: &StorageBackend,
        len: u64,
        runs: &[(u64, u64)],
        corrupt: &[u64],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = seed | 1;
        let mut byte = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 24) as u8
        };
        let mut store = SubfileStore::create(backend, 0, 0, len).unwrap();
        store.write_at(0, &(0..len).map(|_| byte()).collect::<Vec<u8>>()).unwrap();
        let mut with_payload = ChecksumMap::for_store(backend, 0, 0, &mut store, false).unwrap();
        let mut read_back = ChecksumMap::for_store(backend, 0, 0, &mut store, false).unwrap();

        // The scatter the daemon performs, clipped by hand where a run
        // reaches past EOF (later runs win where they overlap).
        let total: u64 = runs.iter().map(|&(_, n)| n).sum();
        let payload: Vec<u8> = (0..total).map(|_| byte()).collect();
        let mut pos = 0usize;
        for &(off, n) in runs {
            let keep = (off + n).min(len).saturating_sub(off) as usize;
            if keep > 0 {
                store.write_at(off, &payload[pos..pos + keep]).unwrap();
            }
            pos += n as usize;
        }
        with_payload.record_runs(&mut store, runs, Some(&payload)).unwrap();
        read_back.record_runs(&mut store, runs, None).unwrap();
        let mut fresh = ChecksumMap::for_store(backend, 0, 0, &mut store, false).unwrap();
        fresh.rebuild(&mut store).unwrap();
        prop_assert_eq!(&with_payload.sums, &fresh.sums, "payload-side CRCs, runs {:?}", runs);
        prop_assert_eq!(&read_back.sums, &fresh.sums, "read-back CRCs, runs {:?}", runs);

        // Rot some pages behind the map's back.
        let mut rotten = std::collections::BTreeSet::new();
        for &at in corrupt.iter().filter(|&&at| at < len) {
            let old = store.read_at(at, 1).unwrap()[0];
            store.write_at(at, &[!old]).unwrap();
            rotten.insert((at / CHECKSUM_PAGE) as usize);
        }
        let touched = touched_pages(runs, len);
        let want = rotten.intersection(&touched).count() as u64;
        prop_assert_eq!(fresh.verify_runs(&mut store, runs).unwrap(), want, "runs {:?}", runs);
        let per_run: u64 =
            runs.iter().map(|&(off, n)| fresh.verify_range(&mut store, off, n).unwrap()).sum();
        prop_assert!(per_run >= want, "the per-run loop visits at least the same pages");
        prop_assert_eq!(fresh.verify_all(&mut store).unwrap(), rotten.len() as u64);

        // Verified read: the same count, and the gather's bytes or nothing,
        // behind bytes already in `out` and through a reused window full of
        // stale bytes. The runs as drawn are laid out by position (unless
        // they happen to ascend); their ascending, disjoint subset — the
        // shape a projection sends — is appended as it is walked.
        let inside: Vec<(u64, u64)> =
            runs.iter().copied().filter(|&(off, n)| off + n <= len).collect();
        let mut sorted = inside.clone();
        sorted.sort_unstable();
        let mut reach = 0;
        let ascending: Vec<(u64, u64)> = sorted
            .into_iter()
            .filter(|&(off, n)| {
                off >= reach && {
                    reach = off + n;
                    true
                }
            })
            .collect();
        let mut window = vec![0xC3; (seed % (3 * CHECKSUM_PAGE)) as usize];
        for runs in [&inside, &ascending] {
            window.iter_mut().for_each(|b| *b = !*b);
            let want = rotten.intersection(&touched_pages(runs, len)).count() as u64;
            let mut out = vec![0xAA, 0x55];
            prop_assert_eq!(
                fresh.read_verified(&mut store, runs, &mut out, &mut window).unwrap(),
                want
            );
            let mut gathered = vec![0xAA, 0x55];
            if want == 0 {
                store.gather(runs.iter().copied(), &mut gathered).unwrap();
            }
            prop_assert_eq!(out, gathered, "runs {:?}", runs);
        }
        if inside.len() < runs.len() {
            let mut out = vec![0xAA];
            prop_assert!(fresh.read_verified(&mut store, runs, &mut out, &mut window).is_err());
            prop_assert_eq!(out, vec![0xAA]);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96 })]
        #[test]
        fn run_list_refresh_equals_rebuild_and_verify_counts_distinct_pages(
            len in prop_oneof![Just(0u64), 1u64..6 * 4096, Just(3 * 4096u64)],
            runs in prop::collection::vec(
                (0u64..7 * 4096, prop_oneof![Just(0u64), 1u64..300, 1u64..3 * 4096]),
                0..10,
            ),
            abutting in 0usize..4,
            corrupt in prop::collection::vec(0u64..6 * 4096, 0..4),
            seed in any::<u64>(),
        ) {
            // Splice in a chain of abutting runs: the shape the daemon's
            // coalescing (and the payload-side CRC) exists for.
            let mut runs = runs;
            for k in 0..abutting as u64 {
                runs.push((1000 + k * 3000, 3000));
            }
            check_run_lists(&StorageBackend::Memory, len, &runs, &corrupt, seed)?;
            if seed % 4 == 0 {
                let (backend, dir) = scratch_backend(&format!("prop_{seed:x}"));
                let verdict = check_run_lists(&backend, len, &runs, &corrupt, seed);
                std::fs::remove_dir_all(&dir).ok();
                verdict?;
            }
        }
    }
}
