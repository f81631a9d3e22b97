//! Subfile storage backends.
//!
//! The simulator models *service times*; the bytes themselves can live in
//! memory (default, fastest for experiments) or in real files on the host
//! filesystem — one file per subfile, written with positioned I/O — so the
//! library is usable as an actual store and the scatter/gather paths are
//! exercised against a real kernel.
//!
//! All accessors return `io::Result`: a full disk or a bad offset is a
//! recoverable condition for a daemon (it answers with a `Nack`), not an
//! abort. File-backed stores use positioned I/O (`pread`/`pwrite` via
//! [`std::os::unix::fs::FileExt`] on unix, a seek fallback elsewhere) so
//! concurrent readers never race a shared cursor.
//!
//! The [`scatter`] / [`gather`] entry points coalesce adjacent segment
//! runs into a run table of [`BatchOp`] entries and submit the whole
//! table at once through the [`IoBatch`] trait — an io_uring-shaped
//! queue/submit interface whose portable backend issues one `FileExt`
//! positioned syscall per entry. A ring-backed implementation can slot in
//! behind the same submission shape without touching the callers.
//!
//! [`scatter`]: SubfileStore::scatter
//! [`gather`]: SubfileStore::gather

// The daemon's scatter/gather path: a failure is a typed error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fs::{File, OpenOptions};
#[cfg(not(unix))]
use std::io::Read;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Where subfile bytes are kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageBackend {
    /// In-memory buffers (default).
    #[default]
    Memory,
    /// One real file per subfile under the given directory, named
    /// `file<fid>_subfile<idx>.bin`.
    Directory(PathBuf),
}

/// One subfile's bytes.
///
/// Public so transports other than the simulator (the `parafile-net`
/// daemon) can host the same stores behind the same [`StorageBackend`].
#[derive(Debug)]
pub enum SubfileStore {
    /// Bytes held in memory.
    Memory(Vec<u8>),
    /// Bytes held in a real host file.
    File {
        /// The open backing file.
        file: File,
        /// Current store length in bytes.
        len: u64,
        /// Path of the backing file.
        path: PathBuf,
    },
}

/// One submission entry in a positioned-I/O batch.
///
/// Entries are offset/length descriptors, not borrowed buffers: writes
/// slice a shared payload by `(src, len)` the way a ring submission
/// references a registered buffer, so a run table is plain data that can
/// be built once and handed to any [`IoBatch`] backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Write `payload[src..src + len]` at store byte `offset`.
    Write {
        /// Store byte offset the run lands at.
        offset: u64,
        /// Start of the run's bytes inside the shared payload.
        src: usize,
        /// Run length in bytes.
        len: usize,
    },
    /// Read `len` bytes at store byte `offset`, appending them to the
    /// batch's output buffer in submission order.
    Read {
        /// Store byte offset the run starts at.
        offset: u64,
        /// Run length in bytes.
        len: u64,
    },
}

/// One completion: the submitted entry's index and the bytes it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// Index of the completed entry in the submitted run table.
    pub index: usize,
    /// Bytes written or read by that entry.
    pub bytes: u64,
}

/// io_uring-shaped batch submission: the caller queues a run table of
/// positioned operations and submits them all at once, receiving one
/// completion per entry.
///
/// Entries complete in submission order. The first failing entry aborts
/// the submission: earlier entries have already reached the store, the
/// failing and later ones produce no completions, and read bytes
/// appended to `out` by the failing entry are rolled back (earlier
/// entries' bytes stay). The portable backend issues one positioned
/// syscall per entry; the shape leaves room for a backend that stages
/// the whole table into a real submission ring.
pub trait IoBatch {
    /// Submits `ops` against the backing storage. Writes pull their bytes
    /// from `payload`; reads append theirs to `out`. Returns one [`Cqe`]
    /// per completed entry, in submission order.
    fn submit_batch(
        &mut self,
        ops: &[BatchOp],
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> io::Result<Vec<Cqe>>;
}

/// Folds ordered `(offset, len)` runs into a coalesced [`BatchOp`] run
/// table: adjacent runs (`offset_a + len_a == offset_b`) merge into one
/// entry. `writes` selects write entries (consuming a payload left to
/// right) or read entries. Zero-length runs still participate in
/// coalescing but never force a syscall of their own.
pub fn coalesce_runs<I>(runs: I, writes: bool) -> Vec<BatchOp>
where
    I: IntoIterator<Item = (u64, u64)>,
{
    let mut table: Vec<BatchOp> = Vec::new();
    let mut pos: usize = 0;
    for (offset, len) in runs {
        match table.last_mut() {
            Some(BatchOp::Write { offset: off0, len: acc, .. })
                if writes && *off0 + *acc as u64 == offset =>
            {
                *acc += len as usize;
            }
            Some(BatchOp::Read { offset: off0, len: acc }) if !writes && *off0 + *acc == offset => {
                *acc += len;
            }
            _ => table.push(if writes {
                BatchOp::Write { offset, src: pos, len: len as usize }
            } else {
                BatchOp::Read { offset, len }
            }),
        }
        pos += len as usize;
    }
    table
}

impl IoBatch for SubfileStore {
    fn submit_batch(
        &mut self,
        ops: &[BatchOp],
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> io::Result<Vec<Cqe>> {
        let mut cqes = Vec::with_capacity(ops.len());
        for (index, op) in ops.iter().enumerate() {
            let bytes = match *op {
                BatchOp::Write { offset, src, len } => {
                    let data = payload.get(src..src + len).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "batch write entry reaches past its payload",
                        )
                    })?;
                    self.write_at(offset, data)?;
                    len as u64
                }
                BatchOp::Read { offset, len } => {
                    self.gather_one(offset, len, out)?;
                    len
                }
            };
            cqes.push(Cqe { index, bytes });
        }
        Ok(cqes)
    }
}

fn out_of_range(what: &str, offset: u64, len: u64, store_len: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{what} [{offset}, {offset}+{len}) beyond the {store_len}-byte subfile"),
    )
}

/// Writes all of `data` at `offset` of `file`: `pwrite` on unix, a seek and
/// a write elsewhere (which moves the file's cursor).
#[cfg(unix)]
pub(crate) fn positioned_write(file: &mut File, offset: u64, data: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(data, offset)
}

#[cfg(unix)]
fn positioned_read(file: &mut File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
pub(crate) fn positioned_write(file: &mut File, offset: u64, data: &[u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(data)
}

#[cfg(not(unix))]
fn positioned_read(file: &mut File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

impl SubfileStore {
    /// Creates a zero-filled store of `len` bytes.
    pub fn create(
        backend: &StorageBackend,
        file_id: usize,
        subfile: usize,
        len: u64,
    ) -> io::Result<Self> {
        match backend {
            StorageBackend::Memory => Ok(SubfileStore::Memory(vec![0u8; len as usize])),
            StorageBackend::Directory(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("file{file_id}_subfile{subfile}.bin"));
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                file.set_len(len)?;
                Ok(SubfileStore::File { file, len, path })
            }
        }
    }

    /// Opens an existing subfile *preserving its bytes*, or creates a
    /// zero-filled one of `len` bytes. Returns the store and whether it
    /// already existed.
    ///
    /// A memory store never survives its process, so the memory backend
    /// always creates fresh. A directory-backed store that survives a
    /// daemon crash keeps its on-disk length (which may differ from the
    /// requested `len`; the caller decides whether that is a geometry
    /// mismatch) so crash recovery can replay journaled intents into the
    /// real pre-crash bytes instead of a zero-filled impostor.
    pub fn open_or_create(
        backend: &StorageBackend,
        file_id: usize,
        subfile: usize,
        len: u64,
    ) -> io::Result<(Self, bool)> {
        if let StorageBackend::Directory(dir) = backend {
            let path = dir.join(format!("file{file_id}_subfile{subfile}.bin"));
            if path.exists() {
                let file = OpenOptions::new().read(true).write(true).open(&path)?;
                let on_disk = file.metadata()?.len();
                return Ok((SubfileStore::File { file, len: on_disk, path }, true));
            }
        }
        Ok((Self::create(backend, file_id, subfile, len)?, false))
    }

    /// Store length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            SubfileStore::Memory(v) => v.len() as u64,
            SubfileStore::File { len, .. } => *len,
        }
    }

    /// Whether the store holds zero bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces buffered bytes to stable storage (no-op for memory stores).
    pub fn flush(&mut self) -> io::Result<()> {
        match self {
            SubfileStore::Memory(_) => Ok(()),
            SubfileStore::File { file, .. } => file.sync_all(),
        }
    }

    /// Backing path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        match self {
            SubfileStore::Memory(_) => None,
            SubfileStore::File { path, .. } => Some(path),
        }
    }

    /// Writes `data` at byte `offset`. Out-of-range writes and I/O errors
    /// (e.g. a full disk) surface as `Err`, never a panic.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or_else(|| out_of_range("write", offset, data.len() as u64, self.len()))?;
        if end > self.len() {
            return Err(out_of_range("write", offset, data.len() as u64, self.len()));
        }
        match self {
            SubfileStore::Memory(v) => {
                v[offset as usize..offset as usize + data.len()].copy_from_slice(data);
                Ok(())
            }
            SubfileStore::File { file, .. } => positioned_write(file, offset, data),
        }
    }

    /// Reads exactly `buf.len()` bytes at `offset` into `buf`.
    pub fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let end = offset
            .checked_add(buf.len() as u64)
            .ok_or_else(|| out_of_range("read", offset, buf.len() as u64, self.len()))?;
        if end > self.len() {
            return Err(out_of_range("read", offset, buf.len() as u64, self.len()));
        }
        match self {
            SubfileStore::Memory(v) => {
                buf.copy_from_slice(&v[offset as usize..offset as usize + buf.len()]);
                Ok(())
            }
            SubfileStore::File { file, .. } => positioned_read(file, offset, buf),
        }
    }

    /// Reads `len` bytes at `offset`.
    pub fn read_at(&mut self, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// Reads the whole store.
    pub fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let len = self.len();
        self.read_at(0, len)
    }

    /// Replaces the contents wholesale (used by relayout).
    pub fn replace(&mut self, data: Vec<u8>) -> io::Result<()> {
        match self {
            SubfileStore::Memory(v) => {
                *v = data;
                Ok(())
            }
            SubfileStore::File { file, len, .. } => {
                *len = data.len() as u64;
                file.set_len(*len)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&data)
            }
        }
    }

    /// Scatters a contiguous `payload` across `(offset, len)` runs, in
    /// order, coalescing adjacent runs (`offset_a + len_a == offset_b`)
    /// into a run table submitted as one [`IoBatch`] of positioned
    /// writes. The payload is consumed left to right; it must cover every
    /// run. Returns the bytes written.
    pub fn scatter<I>(&mut self, runs: I, payload: &[u8]) -> io::Result<u64>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let table = coalesce_runs(runs, true);
        let total: usize = table
            .iter()
            .map(|op| match op {
                BatchOp::Write { len, .. } => *len,
                BatchOp::Read { .. } => 0,
            })
            .sum();
        if total > payload.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "scatter payload shorter than its segment runs",
            ));
        }
        let mut sink = Vec::new();
        self.submit_batch(&table, payload, &mut sink)?;
        Ok(total as u64)
    }

    /// Gathers `(offset, len)` runs, in order, appending the bytes to
    /// `out`; adjacent runs are coalesced into a run table submitted as
    /// one [`IoBatch`] of positioned reads. Returns the bytes appended.
    pub fn gather<I>(&mut self, runs: I, out: &mut Vec<u8>) -> io::Result<u64>
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let base = out.len();
        let table = coalesce_runs(runs, false);
        self.submit_batch(&table, &[], out)?;
        Ok((out.len() - base) as u64)
    }

    fn gather_one(&mut self, offset: u64, len: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let base = out.len();
        out.resize(base + len as usize, 0);
        match self.read_into(offset, &mut out[base..]) {
            Ok(()) => Ok(()),
            Err(e) => {
                out.truncate(base);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_round_trip() {
        let mut s = SubfileStore::create(&StorageBackend::Memory, 0, 0, 16).unwrap();
        assert_eq!(s.len(), 16);
        assert!(s.path().is_none());
        s.write_at(4, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_at(3, 5).unwrap(), vec![0, 1, 2, 3, 0]);
        s.replace(vec![9; 4]).unwrap();
        assert_eq!(s.read_all().unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("pf_store_test_{}", std::process::id()));
        let backend = StorageBackend::Directory(dir.clone());
        let mut s = SubfileStore::create(&backend, 3, 1, 32).unwrap();
        assert_eq!(s.len(), 32);
        let path = s.path().unwrap().to_path_buf();
        assert!(path.ends_with("file3_subfile1.bin"));
        s.write_at(10, b"hello").unwrap();
        assert_eq!(s.read_at(9, 7).unwrap(), b"\0hello\0");
        // The bytes are really on disk.
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(&on_disk[10..15], b"hello");
        s.replace(b"short".to_vec()).unwrap();
        assert_eq!(s.read_all().unwrap(), b"short");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("pf_store_oob_{}", std::process::id()));
        let backend = StorageBackend::Directory(dir.clone());
        let mut s = SubfileStore::create(&backend, 0, 0, 4).unwrap();
        let err = s.write_at(2, &[0; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = s.read_at(3, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Offset overflow must not wrap.
        assert!(s.write_at(u64::MAX, &[1]).is_err());
        // The store is still usable afterwards.
        s.write_at(0, &[7; 4]).unwrap();
        assert_eq!(s.read_all().unwrap(), vec![7; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scatter_gather_coalesce_adjacent_runs() {
        let mut s = SubfileStore::create(&StorageBackend::Memory, 0, 0, 24).unwrap();
        // Runs [0,4) + [4,8) coalesce; [16,20) is separate.
        let written =
            s.scatter([(0, 4), (4, 4), (16, 4)], &[1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]).unwrap();
        assert_eq!(written, 12);
        let mut out = Vec::new();
        let read = s.gather([(0, 4), (4, 4), (16, 4)], &mut out).unwrap();
        assert_eq!(read, 12);
        assert_eq!(out, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        // Short payload is an error and applies nothing past the runs it covers.
        assert!(s.scatter([(0, 8)], &[0; 4]).is_err());
    }

    #[test]
    fn coalesce_builds_minimal_run_tables() {
        // Adjacent write runs merge and keep payload slices contiguous.
        let w = coalesce_runs([(0, 4), (4, 4), (16, 4)], true);
        assert_eq!(
            w,
            vec![
                BatchOp::Write { offset: 0, src: 0, len: 8 },
                BatchOp::Write { offset: 16, src: 8, len: 4 },
            ]
        );
        // Same geometry as reads.
        let r = coalesce_runs([(0, 4), (4, 4), (16, 4)], false);
        assert_eq!(
            r,
            vec![BatchOp::Read { offset: 0, len: 8 }, BatchOp::Read { offset: 16, len: 4 }]
        );
        // Non-adjacent runs (gap, or out of order) stay separate entries.
        assert_eq!(coalesce_runs([(8, 4), (0, 4)], false).len(), 2);
        assert!(coalesce_runs(std::iter::empty(), true).is_empty());
    }

    #[test]
    fn mixed_batch_submits_in_order_with_one_cqe_per_entry() {
        let mut s = SubfileStore::create(&StorageBackend::Memory, 0, 0, 16).unwrap();
        s.write_at(8, &[9; 4]).unwrap();
        // A single submission carrying writes and a read-back of bytes the
        // store already held: completions arrive in submission order.
        let ops = [
            BatchOp::Write { offset: 0, src: 0, len: 4 },
            BatchOp::Read { offset: 8, len: 4 },
            BatchOp::Write { offset: 12, src: 4, len: 2 },
        ];
        let mut out = Vec::new();
        let cqes = s.submit_batch(&ops, &[1, 2, 3, 4, 5, 6], &mut out).unwrap();
        assert_eq!(
            cqes,
            vec![
                Cqe { index: 0, bytes: 4 },
                Cqe { index: 1, bytes: 4 },
                Cqe { index: 2, bytes: 2 },
            ]
        );
        assert_eq!(out, vec![9; 4]);
        assert_eq!(s.read_at(0, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(s.read_at(12, 2).unwrap(), vec![5, 6]);
    }

    #[test]
    fn failing_entry_aborts_the_batch_and_rolls_back_its_read_bytes() {
        let mut s = SubfileStore::create(&StorageBackend::Memory, 0, 0, 8).unwrap();
        s.write_at(0, &[5; 8]).unwrap();
        // Entry 0 lands, entry 1 is out of range: the error surfaces, the
        // first entry's bytes stay in `out`, the failing entry's do not.
        let ops = [BatchOp::Read { offset: 0, len: 4 }, BatchOp::Read { offset: 6, len: 4 }];
        let mut out = Vec::new();
        assert!(s.submit_batch(&ops, &[], &mut out).is_err());
        assert_eq!(out, vec![5; 4]);
        // A write entry whose slice reaches past the payload is rejected.
        let ops = [BatchOp::Write { offset: 0, src: 2, len: 4 }];
        assert!(s.submit_batch(&ops, &[0; 4], &mut out).is_err());
    }

    #[test]
    fn scatter_gather_on_real_files() {
        let dir = std::env::temp_dir().join(format!("pf_store_sg_{}", std::process::id()));
        let backend = StorageBackend::Directory(dir.clone());
        let mut s = SubfileStore::create(&backend, 0, 0, 16).unwrap();
        s.scatter([(2, 3), (5, 3), (12, 2)], b"abcdefgh").unwrap();
        let mut out = Vec::new();
        s.gather([(2, 6), (12, 2)], &mut out).unwrap();
        assert_eq!(out, b"abcdefgh");
        // A failing gather leaves `out` unchanged.
        let before = out.clone();
        assert!(s.gather([(15, 4)], &mut out).is_err());
        assert_eq!(out, before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
