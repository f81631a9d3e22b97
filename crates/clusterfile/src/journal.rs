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
//!    intent (segment list, payload checksum, payload bytes) is appended
//!    to the journal and synced.
//! 2. **Apply** — the scatter writes run against the store.
//! 3. **Checkpoint** — once the store itself has been flushed, the journal
//!    is truncated; records are redundant from then on.
//!
//! On reopen after a crash, [`Journal::recover`] replays every complete,
//! checksum-valid record in order (scatter writes use absolute offsets, so
//! replay is idempotent) and discards a torn tail record — the crash
//! happened before the intent was durable, so the write never happened.
//! Each record also carries the client's `(session, seq)` retry stamp and
//! the acknowledged byte count, letting a daemon repopulate its dedup
//! window and answer a post-crash retry with the original result.
//!
//! Memory-backed stores get [`Journal::Disabled`]: their bytes do not
//! survive a restart, so there is nothing for a journal to protect.

use crate::storage::{StorageBackend, SubfileStore};
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Journal format version written in the header.
const JOURNAL_VERSION: u8 = 1;

/// File magic: "PFWJ" + version byte.
const MAGIC: [u8; 5] = [b'P', b'F', b'W', b'J', JOURNAL_VERSION];

/// Marker byte opening every record.
const RECORD_MARKER: u8 = 0xA5;

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the journal's record
/// checksum, computed by the workspace's shared kernel.
pub use parafile::crc::crc32_ieee as crc32;

/// Everything of a record that precedes its payload bytes: marker, body
/// length, retry stamp, segment list and payload CRC.
fn encode_header(session: u64, seq: u64, segments: &[(u64, u64)], payload: &[u8]) -> Vec<u8> {
    let body_len = 8 + 8 + 4 + 16 * segments.len() + 4 + payload.len();
    let mut out = Vec::with_capacity(1 + 4 + body_len - payload.len());
    out.push(RECORD_MARKER);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for &(off, len) in segments {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
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
    fn encode(&self) -> Vec<u8> {
        let mut out = encode_header(self.session, self.seq, &self.segments, &self.payload);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one record body (after marker and length). `None` means the
    /// record is torn or corrupt and must be discarded.
    fn decode(body: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n)?;
            if end > body.len() {
                return None;
            }
            let out = &body[*pos..end];
            *pos = end;
            Some(out)
        };
        let u64_at = |b: &[u8]| b.try_into().ok().map(u64::from_le_bytes);
        let u32_at = |b: &[u8]| b.try_into().ok().map(u32::from_le_bytes);
        let session = u64_at(take(&mut pos, 8)?)?;
        let seq = u64_at(take(&mut pos, 8)?)?;
        let nsegs = u32_at(take(&mut pos, 4)?)? as usize;
        // A record cannot hold more segments than bytes remain.
        if nsegs > body.len() / 16 + 1 {
            return None;
        }
        let mut segments = Vec::with_capacity(nsegs);
        let mut total = 0u64;
        for _ in 0..nsegs {
            let off = u64_at(take(&mut pos, 8)?)?;
            let len = u64_at(take(&mut pos, 8)?)?;
            total = total.checked_add(len)?;
            segments.push((off, len));
        }
        let crc = u32_at(take(&mut pos, 4)?)?;
        let payload = body.get(pos..)?.to_vec();
        if payload.len() as u64 != total || crc32(&payload) != crc {
            return None;
        }
        Some(IntentRecord { session, seq, segments, payload })
    }
}

/// What [`Journal::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete records replayed into the store.
    pub replayed: usize,
    /// Torn/corrupt tail records discarded (at most 1 in practice).
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
        /// The open journal file, positioned at its end.
        file: File,
        /// Journal path (`file<fid>_subfile<idx>.journal`).
        path: PathBuf,
        /// Current journal length in bytes (header included).
        len: u64,
    },
}

impl Journal {
    /// Opens (or creates) the journal for subfile `subfile` of `file_id`
    /// under `backend`. Memory backends get [`Journal::Disabled`].
    pub fn open(backend: &StorageBackend, file_id: usize, subfile: usize) -> std::io::Result<Self> {
        let dir = match backend {
            StorageBackend::Memory => return Ok(Journal::Disabled),
            StorageBackend::Directory(dir) => dir,
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("file{file_id}_subfile{subfile}.journal"));
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let len = file.metadata()?.len();
        if len < MAGIC.len() as u64 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            file.sync_data()?;
            return Ok(Journal::File { file, path, len: MAGIC.len() as u64 });
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Journal::File { file, path, len })
    }

    /// Whether this journal actually persists intents.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Journal::File { .. })
    }

    /// Current journal size in bytes (0 when disabled).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            Journal::Disabled => 0,
            Journal::File { len, .. } => *len,
        }
    }

    /// Whether the journal holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() <= MAGIC.len() as u64
    }

    /// Appends `record` and syncs it to stable storage. After this returns,
    /// a crash at any point during the matching scatter writes is
    /// recoverable by replay.
    pub fn append(&mut self, record: &IntentRecord) -> std::io::Result<()> {
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
    ) -> std::io::Result<()> {
        match self {
            Journal::Disabled => Ok(()),
            Journal::File { file, len, .. } => {
                let header = encode_header(session, seq, segments, payload);
                // One vectored write in the common case; a short count
                // falls back to plain writes of what is left.
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
        }
    }

    /// Replays every complete record into `store` (in append order),
    /// discards a torn tail, flushes the store, and truncates the journal.
    pub fn recover(&mut self, store: &mut SubfileStore) -> std::io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let (file, len) = match self {
            Journal::Disabled => return Ok(report),
            Journal::File { file, len, .. } => (file, len),
        };
        let mut bytes = Vec::with_capacity(*len as usize);
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        let mut pos = MAGIC.len();
        if bytes.len() < pos || bytes[..pos.min(bytes.len())] != MAGIC[..] {
            // Unrecognizable journal: treat everything as torn.
            report.discarded = usize::from(!bytes.is_empty());
        } else {
            while pos < bytes.len() {
                if bytes[pos] != RECORD_MARKER || pos + 5 > bytes.len() {
                    report.discarded += 1;
                    break;
                }
                let Ok(len_bytes) = bytes[pos + 1..pos + 5].try_into() else {
                    report.discarded += 1;
                    break;
                };
                let body_len = u32::from_le_bytes(len_bytes) as usize;
                let Some(end) = (pos + 5).checked_add(body_len) else {
                    report.discarded += 1;
                    break;
                };
                if end > bytes.len() {
                    report.discarded += 1;
                    break;
                }
                match IntentRecord::decode(&bytes[pos + 5..end]) {
                    Some(rec) => {
                        let mut off = 0usize;
                        let store_len = store.len();
                        for &(seg_off, seg_len) in &rec.segments {
                            let n = seg_len as usize;
                            // The CRC covers the payload only: a damaged
                            // offset is skipped like any past-the-end one.
                            if seg_off.checked_add(seg_len).is_some_and(|end| end <= store_len) {
                                store.write_at(seg_off, &rec.payload[off..off + n])?;
                            }
                            off += n;
                        }
                        report.dedup.push((rec.session, rec.seq, rec.written()));
                        report.replayed += 1;
                        pos = end;
                    }
                    None => {
                        report.discarded += 1;
                        break;
                    }
                }
            }
        }
        store.flush()?;
        self.truncate()?;
        Ok(report)
    }

    /// Flushes `store` and truncates the journal (records are redundant
    /// once the store bytes are durable).
    pub fn checkpoint(&mut self, store: &mut SubfileStore) -> std::io::Result<()> {
        if let Journal::File { .. } = self {
            store.flush()?;
            self.truncate()?;
        }
        Ok(())
    }

    fn truncate(&mut self) -> std::io::Result<()> {
        if let Journal::File { file, len, .. } = self {
            file.set_len(MAGIC.len() as u64)?;
            file.seek(SeekFrom::End(0))?;
            file.sync_data()?;
            *len = MAGIC.len() as u64;
        }
        Ok(())
    }

    /// Deletes the journal file (used when a subfile is re-created from
    /// scratch and old intents must not replay into it).
    pub fn reset(&mut self) -> std::io::Result<()> {
        match self {
            Journal::Disabled => Ok(()),
            Journal::File { file, len, .. } => {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&MAGIC)?;
                file.sync_data()?;
                *len = MAGIC.len() as u64;
                Ok(())
            }
        }
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

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn records_round_trip() {
        let rec = record(7, 42, &[(0, 3), (10, 2)], 9);
        let bytes = rec.encode();
        assert_eq!(bytes[0], RECORD_MARKER);
        let body = &bytes[5..];
        assert_eq!(IntentRecord::decode(body), Some(rec));
        // Any single-byte corruption of the payload is caught by the CRC.
        let mut bad = body.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert_eq!(IntentRecord::decode(&bad), None);
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
        let torn = record(1, 2, &[(8, 4)], 0x22).encode();
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
    fn checkpoint_truncates_after_store_flush() {
        let (backend, dir) = temp_backend("ckpt");
        let mut store = SubfileStore::create(&backend, 3, 0, 16).unwrap();
        let mut journal = Journal::open(&backend, 3, 0).unwrap();
        journal.append(&record(1, 1, &[(0, 8)], 7)).unwrap();
        assert!(!journal.is_empty());
        journal.checkpoint(&mut store).unwrap();
        assert!(journal.is_empty());
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
    /// A record as the bytewise-CRC builds wrote it, field by field.
    fn old_format_record(session: u64, seq: u64, segs: &[(u64, u64)], payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&session.to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&(segs.len() as u32).to_le_bytes());
        for &(off, len) in segs {
            body.extend_from_slice(&off.to_le_bytes());
            body.extend_from_slice(&len.to_le_bytes());
        }
        body.extend_from_slice(
            &crate::checksum::tests::bytewise_crc(0xEDB8_8320, payload).to_le_bytes(),
        );
        body.extend_from_slice(payload);
        let mut out = vec![RECORD_MARKER];
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn journal_written_with_a_bytewise_crc_replays_and_appends_are_byte_identical() {
        let (backend, dir) = temp_backend("fixture");
        let mut store = SubfileStore::create(&backend, 6, 0, 64).unwrap();
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let complete = old_format_record(3, 9, &[(0, 8), (32, 4)], &payload[..12]);
        let torn = old_format_record(3, 10, &[(16, 8)], &payload[12..20]);
        let mut image = MAGIC.to_vec();
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

        // Both append entry points put exactly the old bytes on disk.
        let big = old_format_record(1, 2, &[(0, 40)], &payload[..40]);
        journal.append_intent(3, 9, &[(0, 8), (32, 4)], &payload[..12]).unwrap();
        journal
            .append(&IntentRecord {
                session: 1,
                seq: 2,
                segments: vec![(0, 40)],
                payload: payload[..40].to_vec(),
            })
            .unwrap();
        assert_eq!(journal.len(), (MAGIC.len() + complete.len() + big.len()) as u64);
        let on_disk = std::fs::read(dir.join("file6_subfile0.journal")).unwrap();
        assert_eq!(on_disk, [&MAGIC[..], &complete, &big].concat());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_offset_past_u64_max_is_skipped_not_wrapped() {
        // The payload verifies, but the segment's offset is damaged so
        // that `offset + len` overflows.
        let (backend, dir) = temp_backend("overflow");
        let mut store = SubfileStore::create(&backend, 7, 0, 32).unwrap();
        let before: Vec<u8> = (0..32).collect();
        store.write_at(0, &before).unwrap();
        let rec = old_format_record(4, 1, &[(u64::MAX - 2, 4)], &[0xEE; 4]);
        std::fs::write(dir.join("file7_subfile0.journal"), [&MAGIC[..], &rec].concat()).unwrap();

        let mut journal = Journal::open(&backend, 7, 0).unwrap();
        let report = journal.recover(&mut store).unwrap();
        assert_eq!((report.replayed, report.discarded), (1, 0));
        assert_eq!(store.read_at(0, 32).unwrap(), before, "the store is untouched");
        assert!(journal.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
