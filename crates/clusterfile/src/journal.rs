//! Write-ahead intent journal for [`SubfileStore`] scatter writes.
//!
//! A networked scatter write lands on several non-contiguous segments of a
//! subfile. A daemon crash between two of those segments would leave a
//! *torn* subfile — some segments carrying the new bytes, some the old —
//! which no retry can detect, because the projection arithmetic is
//! oblivious to history. The journal closes that hole with the classic
//! redo-log discipline:
//!
//! 1. **Intend** — before the first byte touches the store, the full
//!    intent (segment list and payload bytes, both under CRC32C) is
//!    written at the journal's tail and synced.
//! 2. **Apply** — the scatter writes run against the store.
//! 3. **Checkpoint** — once the store itself has been flushed, the
//!    journal moves to its next *generation*: one rewrite of the file
//!    header and one sync. The records stay on disk but are stale from
//!    then on, and the next append overwrites them in place. The file is
//!    never cut back, so once it has reached its high-water size an
//!    append lands on blocks the file already has and its `sync_data`
//!    commits data, not a change of file size.
//!
//! On reopen after a crash, [`Journal::recover`] walks the records from
//! the header and replays each one that carries the header's generation
//! and verifies, in order (scatter writes use absolute offsets, so replay
//! is idempotent). It stops at the first record whose marker, length,
//! generation or checksum fails: a torn tail — the crash happened before
//! the intent was durable, so the write never happened — or a stale record
//! of an older generation, which a checkpoint already made redundant. Each
//! record also carries the client's `(session, seq)` retry stamp and the
//! acknowledged byte count, letting a daemon repopulate its dedup window
//! and answer a post-crash retry with the original result.
//!
//! # Format (`PFWJ` v2, all integers little-endian)
//!
//! ```text
//! header: "PFWJ" | 2 u8 | generation u64 | header_crc u32
//! record: A5 | body_len u32 | generation u64 | session u64 | seq u64
//!       | nsegs u32 | (offset u64, len u64) × nsegs
//!       | payload_crc u32 | record_crc u32 | payload
//! ```
//!
//! `header_crc` is CRC32C over the 13 bytes before it. `payload_crc` is
//! CRC32C over the payload and `record_crc` CRC32C over every record byte
//! before it, `payload_crc` included, so no byte of a record goes
//! unchecked. `body_len` counts the bytes after itself.
//!
//! Memory-backed stores get [`Journal::Disabled`]: their bytes do not
//! survive a restart, so there is nothing for a journal to protect.

// The daemon's write path: a failure is a typed error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::storage::{positioned_write, StorageBackend, SubfileStore};
use parafile::crc::crc32c;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Journal format version written in the header.
const JOURNAL_VERSION: u8 = 2;

/// File magic, followed by the version byte.
const MAGIC: [u8; 4] = *b"PFWJ";

/// File header: magic, version, generation and the header's CRC32C.
const HEADER_LEN: usize = 4 + 1 + 8 + 4;

/// Generation of a freshly initialised journal.
const FIRST_GENERATION: u64 = 1;

/// Marker byte opening every record.
const RECORD_MARKER: u8 = 0xA5;

/// Record bytes before the segment list: marker, body length, generation,
/// session, seq and segment count.
const RECORD_FIXED: usize = 1 + 4 + 8 + 8 + 8 + 4;

/// The header of a journal in generation `generation`.
fn file_header(generation: u64) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = JOURNAL_VERSION;
    out[5..13].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32c(&out[..13]);
    out[13..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Everything of a record that precedes its payload bytes: marker, body
/// length, generation, retry stamp, segment list and both checksums.
fn encode_header(
    generation: u64,
    session: u64,
    seq: u64,
    segments: &[(u64, u64)],
    payload: &[u8],
) -> io::Result<Vec<u8>> {
    let head_len = RECORD_FIXED + 16 * segments.len() + 8;
    let body_len = u32::try_from(head_len - 5 + payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "journal record longer than 4 GiB")
    })?;
    let mut out = Vec::with_capacity(head_len);
    out.push(RECORD_MARKER);
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for &(off, len) in segments {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    let record_crc = crc32c(&out);
    out.extend_from_slice(&record_crc.to_le_bytes());
    Ok(out)
}

/// One scatter write's full intent, as journaled before application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Client session that issued the write (0 = unstamped).
    pub session: u64,
    /// Client sequence number within the session.
    pub seq: u64,
    /// `(offset, len)` segments, in application order.
    pub segments: Vec<(u64, u64)>,
    /// Gathered payload bytes, in segment order.
    pub payload: Vec<u8>,
}

impl IntentRecord {
    /// Total bytes this intent stores (the acknowledged `written` count).
    #[must_use]
    pub fn written(&self) -> u64 {
        self.segments.iter().map(|&(_, len)| len).sum()
    }

    #[cfg(test)]
    fn encode(&self, generation: u64) -> Vec<u8> {
        let mut out =
            encode_header(generation, self.session, self.seq, &self.segments, &self.payload)
                .unwrap_or_default();
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Why a walk over the records stopped.
#[derive(Debug, PartialEq, Eq)]
enum End {
    /// No record of the current generation starts here: the end of the
    /// file, or a stale record an earlier generation left behind.
    Log,
    /// A record of the current generation starts here but its length or a
    /// checksum fails: an append the crash tore.
    Torn,
}

fn u32_at(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at.checked_add(4)?)?.try_into().ok().map(u32::from_le_bytes)
}

fn u64_at(b: &[u8], at: usize) -> Option<u64> {
    b.get(at..at.checked_add(8)?)?.try_into().ok().map(u64::from_le_bytes)
}

/// Decodes the record of `generation` that starts `image`, returning it
/// and its length.
fn decode_record(image: &[u8], generation: u64) -> Result<(IntentRecord, usize), End> {
    if image.first() != Some(&RECORD_MARKER) || u64_at(image, 5) != Some(generation) {
        return Err(End::Log);
    }
    let body_len = u32_at(image, 1).ok_or(End::Torn)? as usize;
    let record = image.get(..5 + body_len).ok_or(End::Torn)?;
    let nsegs = u32_at(record, RECORD_FIXED - 4).ok_or(End::Torn)? as usize;
    let head_len = nsegs
        .checked_mul(16)
        .and_then(|n| n.checked_add(RECORD_FIXED + 8))
        .filter(|&n| n <= record.len())
        .ok_or(End::Torn)?;
    let record_crc = u32_at(record, head_len - 4).ok_or(End::Torn)?;
    if crc32c(&record[..head_len - 4]) != record_crc {
        return Err(End::Torn);
    }
    let mut segments = Vec::with_capacity(nsegs);
    let mut total = 0u64;
    for k in 0..nsegs {
        let at = RECORD_FIXED + 16 * k;
        let (off, len) = u64_at(record, at).zip(u64_at(record, at + 8)).ok_or(End::Torn)?;
        total = total.checked_add(len).ok_or(End::Torn)?;
        segments.push((off, len));
    }
    let payload = &record[head_len..];
    if payload.len() as u64 != total || u32_at(record, head_len - 8) != Some(crc32c(payload)) {
        return Err(End::Torn);
    }
    let session = u64_at(record, 13).ok_or(End::Torn)?;
    let seq = u64_at(record, 21).ok_or(End::Torn)?;
    Ok((IntentRecord { session, seq, segments, payload: payload.to_vec() }, record.len()))
}

/// Hands each verified record of `generation` in `image` (a whole journal
/// file) to `each`, oldest first, and returns where the log ends and why.
fn walk(
    image: &[u8],
    generation: u64,
    mut each: impl FnMut(IntentRecord) -> io::Result<()>,
) -> io::Result<(u64, End)> {
    let mut pos = HEADER_LEN;
    loop {
        match decode_record(image.get(pos..).unwrap_or_default(), generation) {
            Ok((record, len)) => {
                each(record)?;
                pos += len;
            }
            Err(end) => return Ok((pos as u64, end)),
        }
    }
}

/// What a journal file's first bytes say it is.
enum Header {
    /// A `PFWJ` v2 header whose checksum verifies.
    Current(u64),
    /// A `PFWJ` v1 journal with this many bytes of records.
    V1(usize),
    /// A `PFWJ` journal of a version this build does not know.
    Unknown(u8),
    /// Empty, too short, not a journal, or a v2 header whose checksum
    /// fails: the rewrite a checkpoint tore, which it starts only after
    /// the store is durable, so no record behind it is needed.
    Unusable,
}

fn parse_header(image: &[u8]) -> Header {
    match (image.get(..4), image.get(4)) {
        (Some(magic), Some(&version)) if magic == MAGIC => match version {
            1 => Header::V1(image.len() - 5),
            JOURNAL_VERSION => match image.get(..HEADER_LEN).zip(u64_at(image, 5)) {
                Some((h, generation)) if h == file_header(generation) => {
                    Header::Current(generation)
                }
                _ => Header::Unusable,
            },
            other => Header::Unknown(other),
        },
        _ => Header::Unusable,
    }
}

/// What [`Journal::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete records replayed into the store.
    pub replayed: usize,
    /// Torn tail records of the current generation discarded (at most 1).
    pub discarded: usize,
    /// `(session, seq, written)` stamps of replayed records, oldest first,
    /// for repopulating a retry dedup window.
    pub dedup: Vec<(u64, u64, u64)>,
}

/// A per-subfile write-ahead journal.
#[derive(Debug)]
pub enum Journal {
    /// No journaling (memory-backed stores).
    Disabled,
    /// A real journal file next to the subfile it protects.
    File {
        /// The open journal file.
        file: File,
        /// Journal path (`file<fid>_subfile<idx>.journal`).
        path: PathBuf,
        /// Logical length in bytes: the header plus the current
        /// generation's records. The next record is written here; the
        /// file itself may be longer.
        len: u64,
        /// The generation every record written now carries.
        generation: u64,
        /// The generation the header on disk is known to carry. It lags
        /// `generation` only after a header rewrite failed; the next append
        /// then rewrites and syncs the header before it writes its record.
        header_generation: u64,
    },
}

impl Journal {
    /// Opens (or creates) the journal for subfile `subfile` of `file_id`
    /// under `backend`. Memory backends get [`Journal::Disabled`].
    ///
    /// An empty, unrecognisable or torn-header file is initialised afresh.
    /// A v1 journal that holds records, or one of an unknown version, is
    /// refused with [`io::ErrorKind::InvalidData`]: it may hold
    /// acknowledged writes this build cannot replay.
    pub fn open(backend: &StorageBackend, file_id: usize, subfile: usize) -> io::Result<Self> {
        let dir = match backend {
            StorageBackend::Memory => return Ok(Journal::Disabled),
            StorageBackend::Directory(dir) => dir,
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("file{file_id}_subfile{subfile}.journal"));
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut image = Vec::new();
        file.read_to_end(&mut image)?;
        let refuse = |what: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {what}; this build reads and writes PFWJ v2 only", path.display()),
            )
        };
        let generation = match parse_header(&image) {
            Header::Current(generation) => generation,
            Header::V1(0) | Header::Unusable => {
                // No stale record may outlive a re-initialised header.
                file.set_len(0)?;
                positioned_write(&mut file, 0, &file_header(FIRST_GENERATION))?;
                file.sync_data()?;
                image.clear();
                FIRST_GENERATION
            }
            Header::V1(records) => {
                return Err(refuse(format!("a PFWJ v1 journal holding {records} bytes of records")))
            }
            Header::Unknown(version) => {
                return Err(refuse(format!("a PFWJ journal of unknown version {version}")))
            }
        };
        let (len, _) = walk(&image, generation, |_| Ok(()))?;
        Ok(Journal::File { file, path, len, generation, header_generation: generation })
    }

    /// Whether this journal actually persists intents.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Journal::File { .. })
    }

    /// Current logical journal size in bytes, header included (0 when
    /// disabled).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            Journal::Disabled => 0,
            Journal::File { len, .. } => *len,
        }
    }

    /// Whether the journal holds no records of the current generation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() <= HEADER_LEN as u64
    }

    /// Appends `record` and syncs it to stable storage. After this returns,
    /// a crash at any point during the matching scatter writes is
    /// recoverable by replay.
    pub fn append(&mut self, record: &IntentRecord) -> io::Result<()> {
        self.append_intent(record.session, record.seq, &record.segments, &record.payload)
    }

    /// [`append`](Journal::append) without an owned [`IntentRecord`]: the
    /// payload is written straight from the caller's slice (a daemon's
    /// frame buffer), so a bulk message is neither copied into a record
    /// nor into an encode buffer. Same bytes on disk, same single sync.
    pub fn append_intent(
        &mut self,
        session: u64,
        seq: u64,
        segments: &[(u64, u64)],
        payload: &[u8],
    ) -> io::Result<()> {
        let Journal::File { file, len, generation, header_generation, .. } = self else {
            return Ok(());
        };
        let header = encode_header(*generation, session, seq, segments, payload)?;
        if *header_generation != *generation {
            // The header goes down, durably, before any record of its
            // generation: so every record on disk is of the disk header's
            // generation or older, and the next generation never finds a
            // record of its own already there.
            positioned_write(file, 0, &file_header(*generation))?;
            file.sync_data()?;
            *header_generation = *generation;
        }
        // Written at the logical tail, over whatever an older generation
        // left there: one vectored write in the common case, a short count
        // falls back to plain writes of what is left.
        file.seek(SeekFrom::Start(*len))?;
        let n = file.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)])?;
        if n < header.len() {
            file.write_all(&header[n..])?;
            file.write_all(payload)?;
        } else {
            file.write_all(&payload[n - header.len()..])?;
        }
        file.sync_data()?;
        *len += (header.len() + payload.len()) as u64;
        Ok(())
    }

    /// Replays every verified record of the current generation into
    /// `store` (in append order), discards a torn tail, flushes the store,
    /// and moves the journal to its next generation.
    pub fn recover(&mut self, store: &mut SubfileStore) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let Journal::File { file, generation, .. } = self else { return Ok(report) };
        let mut image = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut image)?;
        let store_len = store.len();
        let (_, end) = walk(&image, *generation, |rec| {
            let mut off = 0usize;
            for &(seg_off, seg_len) in &rec.segments {
                let n = seg_len as usize;
                // A verified record only ever holds clipped segments, but a
                // segment past the store is skipped, never wrapped.
                if seg_off.checked_add(seg_len).is_some_and(|end| end <= store_len) {
                    store.write_at(seg_off, &rec.payload[off..off + n])?;
                }
                off += n;
            }
            report.dedup.push((rec.session, rec.seq, rec.written()));
            report.replayed += 1;
            Ok(())
        })?;
        report.discarded = usize::from(end == End::Torn);
        store.flush()?;
        self.next_generation()?;
        Ok(report)
    }

    /// Flushes `store` and moves the journal to its next generation
    /// (records are redundant once the store bytes are durable).
    pub fn checkpoint(&mut self, store: &mut SubfileStore) -> io::Result<()> {
        if self.is_enabled() {
            store.flush()?;
            self.next_generation()?;
        }
        Ok(())
    }

    /// Retires every record (used when a subfile is re-created from scratch
    /// and old intents must not replay into it).
    pub fn reset(&mut self) -> io::Result<()> {
        self.next_generation()
    }

    /// One header rewrite and sync: every record on disk becomes stale and
    /// the tail moves back to the header. The file keeps its size.
    fn next_generation(&mut self) -> io::Result<()> {
        let Journal::File { file, len, generation, header_generation, .. } = self else {
            return Ok(());
        };
        // From here on, whatever the disk holds, no record may be appended
        // under the old generation: an append rewrites the header first
        // until this rewrite is known to be durable.
        *generation = generation.wrapping_add(1);
        *len = HEADER_LEN as u64;
        positioned_write(file, 0, &file_header(*generation))?;
        file.sync_data()?;
        *header_generation = *generation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_backend(tag: &str) -> (StorageBackend, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pf_journal_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (StorageBackend::Directory(dir.clone()), dir)
    }

    fn record(session: u64, seq: u64, segs: &[(u64, u64)], byte: u8) -> IntentRecord {
        let total: u64 = segs.iter().map(|&(_, l)| l).sum();
        IntentRecord { session, seq, segments: segs.to_vec(), payload: vec![byte; total as usize] }
    }

    /// The owned records a walk over `image` replays, and why it stopped.
    fn replayed(image: &[u8], generation: u64) -> (Vec<IntentRecord>, End) {
        let mut out = Vec::new();
        let (_, end) = walk(image, generation, |r| {
            out.push(r);
            Ok(())
        })
        .unwrap_or((0, End::Log));
        (out, end)
    }

    #[test]
    fn records_round_trip() {
        let rec = record(7, 42, &[(0, 3), (10, 2)], 9);
        let image = [&file_header(3)[..], &rec.encode(3)].concat();
        assert_eq!(image[HEADER_LEN], RECORD_MARKER);
        assert_eq!(replayed(&image, 3), (vec![rec.clone()], End::Log));
        // Under another generation the same bytes are a stale record.
        assert_eq!(replayed(&image, 4), (vec![], End::Log));
        // Any single-byte corruption of the payload is caught by the CRC.
        let mut bad = image.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert_eq!(replayed(&bad, 3), (vec![], End::Torn));
    }

    #[test]
    fn memory_backend_disables_journaling() {
        let j = Journal::open(&StorageBackend::Memory, 0, 0).unwrap();
        assert!(!j.is_enabled());
        assert_eq!(j.len(), 0);
    }

    #[test]
    fn replay_after_simulated_crash_heals_a_torn_write() {
        let (backend, dir) = temp_backend("replay");
        let mut store = SubfileStore::create(&backend, 1, 0, 32).unwrap();
        let mut journal = Journal::open(&backend, 1, 0).unwrap();
        // Intend a two-segment scatter, then "crash" after applying only
        // the first segment: the subfile is torn.
        let rec = record(5, 1, &[(0, 4), (16, 4)], 0xAB);
        journal.append(&rec).unwrap();
        store.write_at(0, &rec.payload[..4]).unwrap();
        drop(journal);
        drop(store);

        // Restart: reopen the store (preserving bytes) and recover.
        let (mut store, existed) = SubfileStore::open_or_create(&backend, 1, 0, 32).unwrap();
        assert!(existed);
        let mut journal = Journal::open(&backend, 1, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.discarded, 0);
        assert_eq!(report.dedup, vec![(5, 1, 8)]);
        assert_eq!(store.read_at(0, 4).unwrap(), vec![0xAB; 4]);
        assert_eq!(store.read_at(16, 4).unwrap(), vec![0xAB; 4], "second segment healed by replay");
        assert!(journal.is_empty(), "recovery checkpoints the journal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_record_is_discarded_not_replayed() {
        let (backend, dir) = temp_backend("torn");
        let mut store = SubfileStore::create(&backend, 2, 0, 32).unwrap();
        let mut journal = Journal::open(&backend, 2, 0).unwrap();
        let good = record(1, 1, &[(0, 4)], 0x11);
        journal.append(&good).unwrap();
        // A torn append: only half the second record reaches the file.
        let torn = record(1, 2, &[(8, 4)], 0x22).encode(FIRST_GENERATION);
        if let Journal::File { file, .. } = &mut journal {
            file.write_all(&torn[..torn.len() / 2]).unwrap();
            file.sync_data().unwrap();
        }
        drop(journal);

        let mut journal = Journal::open(&backend, 2, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!(report.replayed, 1, "the complete record replays");
        assert_eq!(report.discarded, 1, "the torn record is dropped");
        assert_eq!(store.read_at(0, 4).unwrap(), vec![0x11; 4]);
        assert_eq!(store.read_at(8, 4).unwrap(), vec![0; 4], "torn intent never applied");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rewinds_the_tail_after_store_flush() {
        let (backend, dir) = temp_backend("ckpt");
        let mut store = SubfileStore::create(&backend, 3, 0, 16).unwrap();
        let mut journal = Journal::open(&backend, 3, 0).unwrap();
        journal.append(&record(1, 1, &[(0, 8)], 7)).unwrap();
        assert!(!journal.is_empty());
        journal.checkpoint(&mut store).unwrap();
        assert!(journal.is_empty());
        // The record is still on disk, stale: a reopen replays nothing.
        let path = dir.join("file3_subfile0.journal");
        assert!(std::fs::metadata(&path).unwrap().len() > HEADER_LEN as u64);
        let mut journal = Journal::open(&backend, 3, 0).unwrap();
        assert!(journal.is_empty());
        assert_eq!(journal.recover(&mut store).unwrap(), RecoveryReport::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_is_idempotent_when_run_twice() {
        let (backend, dir) = temp_backend("idem");
        let mut store = SubfileStore::create(&backend, 4, 0, 16).unwrap();
        let mut journal = Journal::open(&backend, 4, 0).unwrap();
        journal.append(&record(9, 3, &[(2, 4)], 0x5C)).unwrap();
        let first = journal.recover(&mut store).unwrap();
        assert_eq!(first.replayed, 1);
        let second = journal.recover(&mut store).unwrap();
        assert_eq!(second.replayed, 0, "checkpointed records do not replay again");
        assert_eq!(store.read_at(2, 4).unwrap(), vec![0x5C; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A v2 record built field by field, with a bytewise CRC32C.
    fn reference_record(
        generation: u64,
        session: u64,
        seq: u64,
        segs: &[(u64, u64)],
        payload: &[u8],
    ) -> Vec<u8> {
        let crc = |data: &[u8]| crate::checksum::tests::bytewise_crc(0x82F6_3B78, data);
        let mut head = vec![RECORD_MARKER];
        let body_len = 8 + 8 + 8 + 4 + 16 * segs.len() + 4 + 4 + payload.len();
        head.extend_from_slice(&(body_len as u32).to_le_bytes());
        head.extend_from_slice(&generation.to_le_bytes());
        head.extend_from_slice(&session.to_le_bytes());
        head.extend_from_slice(&seq.to_le_bytes());
        head.extend_from_slice(&(segs.len() as u32).to_le_bytes());
        for &(off, len) in segs {
            head.extend_from_slice(&off.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
        }
        head.extend_from_slice(&crc(payload).to_le_bytes());
        let record_crc = crc(&head);
        head.extend_from_slice(&record_crc.to_le_bytes());
        head.extend_from_slice(payload);
        head
    }

    /// A v2 file header built field by field, with a bytewise CRC32C.
    fn reference_header(generation: u64) -> Vec<u8> {
        let mut out = b"PFWJ\x02".to_vec();
        out.extend_from_slice(&generation.to_le_bytes());
        let crc = crate::checksum::tests::bytewise_crc(0x82F6_3B78, &out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn journal_written_with_a_bytewise_crc_replays_and_appends_are_byte_identical() {
        let (backend, dir) = temp_backend("fixture");
        let mut store = SubfileStore::create(&backend, 6, 0, 64).unwrap();
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let complete = reference_record(5, 3, 9, &[(0, 8), (32, 4)], &payload[..12]);
        let torn = reference_record(5, 3, 10, &[(16, 8)], &payload[12..20]);
        let mut image = reference_header(5);
        image.extend_from_slice(&complete);
        image.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("file6_subfile0.journal"), &image).unwrap();

        let mut journal = Journal::open(&backend, 6, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!((report.replayed, report.discarded), (1, 1));
        assert_eq!(report.dedup, vec![(3, 9, 12)]);
        assert_eq!(store.read_at(0, 8).unwrap(), payload[..8]);
        assert_eq!(store.read_at(32, 4).unwrap(), payload[8..12]);
        assert_eq!(store.read_at(16, 8).unwrap(), vec![0; 8], "torn intent never applied");

        // Recovery moved to generation 6 in place; both append entry
        // points put exactly the reference bytes on disk over the old ones.
        let again = reference_record(6, 3, 9, &[(0, 8), (32, 4)], &payload[..12]);
        let big = reference_record(6, 1, 2, &[(0, 40)], &payload[..40]);
        journal.append_intent(3, 9, &[(0, 8), (32, 4)], &payload[..12]).unwrap();
        journal
            .append(&IntentRecord {
                session: 1,
                seq: 2,
                segments: vec![(0, 40)],
                payload: payload[..40].to_vec(),
            })
            .unwrap();
        let want = [reference_header(6), again, big].concat();
        assert_eq!(journal.len(), want.len() as u64);
        let on_disk = std::fs::read(dir.join("file6_subfile0.journal")).unwrap();
        assert_eq!(on_disk, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_offset_past_u64_max_is_skipped_not_wrapped() {
        // The record verifies, but the segment's offset is one no daemon
        // writes: `offset + len` overflows.
        let (backend, dir) = temp_backend("overflow");
        let mut store = SubfileStore::create(&backend, 7, 0, 32).unwrap();
        let before: Vec<u8> = (0..32).collect();
        store.write_at(0, &before).unwrap();
        let rec = reference_record(1, 4, 1, &[(u64::MAX - 2, 4)], &[0xEE; 4]);
        std::fs::write(dir.join("file7_subfile0.journal"), [reference_header(1), rec].concat())
            .unwrap();

        let mut journal = Journal::open(&backend, 7, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!((report.replayed, report.discarded), (1, 0));
        assert_eq!(store.read_at(0, 32).unwrap(), before, "the store is untouched");
        assert!(journal.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_segment_header_byte_discards_the_record() {
        // The payload and its CRC are intact; one byte of the segment list
        // (here, of the offset) is not. The record CRC covers the header, so
        // recovery discards the record instead of writing the payload to a
        // damaged offset.
        let (backend, dir) = temp_backend("flip");
        let mut store = SubfileStore::create(&backend, 8, 0, 64).unwrap();
        let rec = reference_record(1, 4, 1, &[(8, 4)], &[0xEE; 4]);
        for byte in RECORD_FIXED..RECORD_FIXED + 16 {
            let mut bad = rec.clone();
            bad[byte] ^= 0x10;
            std::fs::write(dir.join("file8_subfile0.journal"), [reference_header(1), bad].concat())
                .unwrap();
            let mut journal = Journal::open(&backend, 8, 0).unwrap();
            let report = journal.recover(&mut store).unwrap();
            assert_eq!((report.replayed, report.discarded), (0, 1), "byte {byte}");
            assert_eq!(store.read_all().unwrap(), vec![0; 64], "byte {byte}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_v1_journal_with_records_is_refused_and_an_empty_one_reinitialised() {
        let (backend, dir) = temp_backend("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file9_subfile0.journal");
        // A v1 header and one record's first bytes: it may hold acked writes.
        std::fs::write(&path, b"PFWJ\x01\xA5\x10\x00\x00\x00").unwrap();
        let err = Journal::open(&backend, 9, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("PFWJ v1 journal holding 5 bytes"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap().len(), 10, "the file is left as it was");
        // A version this build does not know is refused too.
        std::fs::write(&path, b"PFWJ\x03").unwrap();
        let err = Journal::open(&backend, 9, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An empty v1 journal holds nothing: it becomes a fresh v2 one.
        std::fs::write(&path, b"PFWJ\x01").unwrap();
        let journal = Journal::open(&backend, 9, 0).unwrap();
        assert!(journal.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), reference_header(FIRST_GENERATION));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_append_after_a_checkpoint_overwrites_in_place_without_growing_the_file() {
        let (backend, dir) = temp_backend("highwater");
        let mut store = SubfileStore::create(&backend, 10, 0, 4096).unwrap();
        let mut journal = Journal::open(&backend, 10, 0).unwrap();
        let path = dir.join("file10_subfile0.journal");
        journal.append(&record(1, 1, &[(0, 1000)], 1)).unwrap();
        journal.append(&record(1, 2, &[(1000, 1000)], 2)).unwrap();
        let high_water = std::fs::metadata(&path).unwrap().len();
        assert_eq!(high_water, journal.len());
        for round in 0..3u64 {
            journal.checkpoint(&mut store).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), high_water, "round {round}");
            // Up to the high-water mark, appends land on the old records.
            journal.append(&record(2, round, &[(0, 1500)], 3)).unwrap();
            journal.append(&record(2, round + 10, &[(2000, 100)], 4)).unwrap();
            assert!(journal.len() <= high_water);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), high_water, "round {round}");
        }
        // Past it, the file grows to the new mark.
        journal.append(&record(3, 1, &[(0, 4000)], 5)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), journal.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_append_after_a_failed_header_rewrite_writes_the_header_first() {
        let (backend, dir) = temp_backend("lag");
        let mut store = SubfileStore::create(&backend, 12, 0, 64).unwrap();
        let mut journal = Journal::open(&backend, 12, 0).unwrap();
        journal.append(&record(1, 1, &[(0, 8)], 1)).unwrap();
        journal.checkpoint(&mut store).unwrap();
        // As if the checkpoint's header rewrite never reached the disk:
        // the disk still says generation 1, the journal is at 2.
        let path = dir.join("file12_subfile0.journal");
        let mut image = std::fs::read(&path).unwrap();
        image[..HEADER_LEN].copy_from_slice(&file_header(FIRST_GENERATION));
        std::fs::write(&path, &image).unwrap();
        if let Journal::File { header_generation, .. } = &mut journal {
            *header_generation = FIRST_GENERATION;
        }
        journal.append(&record(1, 2, &[(8, 8)], 2)).unwrap();
        drop(journal);
        let mut journal = Journal::open(&backend, 12, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!(report.dedup, vec![(1, 2, 8)], "the new record replays, the stale one not");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The image a crash leaves: `old` with `new` written over its first
    /// `cut` bytes at `at`.
    fn overwritten(old: &[u8], at: usize, new: &[u8], cut: usize) -> Vec<u8> {
        let mut out = old.to_vec();
        let end = at + cut;
        if out.len() < end {
            out.resize(end, 0);
        }
        out[at..end].copy_from_slice(&new[..cut]);
        out
    }

    #[test]
    fn every_crash_prefix_replays_exactly_the_current_generation() {
        // Generation 7 holds two large records; a checkpoint rewrites the
        // header to generation 8, which then holds one shorter record over
        // the first old one.
        let big_a = reference_record(7, 1, 1, &[(0, 300), (600, 200)], &[0xA1; 500]);
        let big_b = reference_record(7, 1, 2, &[(100, 400)], &[0xB2; 400]);
        let small = reference_record(8, 2, 1, &[(900, 60)], &[0xC3; 60]);
        let gen7 = [reference_header(7), big_a.clone(), big_b.clone()].concat();
        let header8 = reference_header(8);
        let gen8 = overwritten(&gen7, 0, &header8, HEADER_LEN);
        let stamps = |recs: &[IntentRecord]| -> Vec<(u64, u64)> {
            recs.iter().map(|r| (r.session, r.seq)).collect()
        };

        // A crash inside the header rewrite: the old header replays both
        // generation-7 records (the store is already flushed, so replay is
        // redundant but harmless), the new one none, and a torn one is
        // unusable, so nothing behind it replays.
        for cut in 0..=HEADER_LEN {
            let image = overwritten(&gen7, 0, &header8, cut);
            match parse_header(&image) {
                Header::Current(7) => {
                    let (recs, end) = replayed(&image, 7);
                    assert_eq!((stamps(&recs), end), (vec![(1, 1), (1, 2)], End::Log), "{cut}");
                }
                Header::Current(8) => {
                    assert_eq!(image[..HEADER_LEN], header8[..], "cut {cut}");
                    assert_eq!(replayed(&image, 8), (vec![], End::Log));
                }
                Header::Unusable => assert!(0 < cut && cut < HEADER_LEN, "cut {cut}"),
                _ => panic!("cut {cut}: a v2 header cannot parse as anything else"),
            }
        }

        // A crash inside the append of the newest record, written over the
        // stale generation or (had the file been cut back) past its end:
        // never a generation-7 record, and the new one only once whole.
        for cut in 0..=small.len() {
            let recycled = overwritten(&gen8, HEADER_LEN, &small, cut);
            let grown = overwritten(&header8, HEADER_LEN, &small, cut);
            for image in [recycled, grown] {
                assert!(matches!(parse_header(&image), Header::Current(8)));
                let (recs, _) = replayed(&image, 8);
                if cut == small.len() {
                    assert_eq!(stamps(&recs), vec![(2, 1)]);
                    assert_eq!(recs[0].payload, vec![0xC3; 60]);
                } else {
                    assert!(recs.is_empty(), "cut {cut} of {}: {:?}", small.len(), stamps(&recs));
                }
            }
        }

        // The same through the file API: the whole image, opened and
        // recovered, replays exactly the newest record.
        let (backend, dir) = temp_backend("prefix");
        let mut store = SubfileStore::create(&backend, 11, 0, 1024).unwrap();
        let image = overwritten(&gen8, HEADER_LEN, &small, small.len());
        std::fs::write(dir.join("file11_subfile0.journal"), &image).unwrap();
        let mut journal = Journal::open(&backend, 11, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!((report.replayed, report.dedup), (1, vec![(2, 1, 60)]));
        assert_eq!(store.read_at(900, 60).unwrap(), vec![0xC3; 60]);
        assert_eq!(store.read_at(0, 900).unwrap(), vec![0; 900], "no stale record replayed");
        // A torn header is re-initialised, and nothing behind it survives.
        let torn = overwritten(&gen7, 0, &header8, HEADER_LEN - 1);
        std::fs::write(dir.join("file11_subfile0.journal"), &torn).unwrap();
        let journal = Journal::open(&backend, 11, 0).unwrap();
        assert!(journal.is_empty());
        assert_eq!(
            std::fs::read(dir.join("file11_subfile0.journal")).unwrap(),
            reference_header(FIRST_GENERATION)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
