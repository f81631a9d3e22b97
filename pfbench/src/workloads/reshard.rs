//! `reshard_4to3`: the paper's redistribution as a checkpoint reshard. A
//! 768 × 1024 array of 8-byte elements (6 MiB) lives in `CYCLIC(64 KiB)`
//! stripes over the four nodes, in two files used as a double buffer.
//!
//! Thread A (own `Session`) plays N = 4 writers with BLOCK-row views: in
//! round `k` it writes checkpoint `k` into file `k % 2` and flushes it.
//! Thread B (own `Session`) plays M = 3 readers with `CYCLIC(16 rows)`
//! views: in the same round it re-declares its three views on the other
//! file and reads checkpoint `k - 1` from it. A barrier opens and closes
//! each round, so writes run beside reads on shared daemons; with two
//! load-generating threads the workload uses both cores of the reference
//! box.
//!
//! Checkpoint `k` is a function of `(seed, k)`, so a stale or misplaced
//! byte shows in the next round's reads; every [`CHECK_EVERY`] rounds the
//! file reassembled from the subfiles must equal the serial row-major
//! array (scda's serial-equivalence rule).

use super::{
    check_file, declare_views, flush, open, read, set_view, write, Params, View, Workload,
};
use crate::cluster::{Cluster, NODES};
use crate::rec::{Kind, Rec, ViewCtx};
use crate::refview::{Dim, ViewSpec};
use parafile_net::Session;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

const ROWS: u64 = 768;
const COLS: u64 = 1024;
const ELEM: u64 = 8;
const FILE_LEN: usize = (ROWS * COLS * ELEM) as usize;
const STRIPE: u64 = 64 << 10;
const FILES: [u64; 2] = [1, 2];
const WRITERS: usize = 4;
const READERS: usize = 3;
const READER_ROWS: u64 = 16;
const CHECK_EVERY: u64 = 32;

/// Checkpoint `k` of the array, serial row-major.
fn checkpoint(seed: u64, k: u64, out: &mut [u8]) {
    let base = (seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (i, elem) in out.chunks_exact_mut(ELEM as usize).enumerate() {
        let v = base.wrapping_add((i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        elem.copy_from_slice(&v.to_le_bytes());
    }
}

struct Shared {
    start: Barrier,
    end: Barrier,
    stop: AtomicBool,
    /// What thread B recorded since thread A last collected it.
    rec_b: Mutex<Rec>,
}

impl Shared {
    fn rec_b(&self) -> MutexGuard<'_, Rec> {
        // A panic in the other thread already fails the run; keep the data.
        self.rec_b.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub struct Reshard4to3 {
    s: Session,
    seed: u64,
    writers: Vec<View>,
    /// Each writer's rows of the checkpoint being written.
    bufs: Vec<Vec<u8>>,
    /// The checkpoint being written, serial row-major.
    image: Vec<u8>,
    k: u64,
    shared: Arc<Shared>,
    reader: Option<JoinHandle<()>>,
}

impl Reshard4to3 {
    pub fn new(cluster: &Cluster, p: Params) -> Result<Self, String> {
        // The physical layout sees the file as a flat run of stripes.
        let stripes = FILE_LEN as u64 / STRIPE;
        let physical_spec = ViewSpec {
            rows: stripes,
            cols: STRIPE,
            elem: 1,
            dists: [Dim::Cyclic(1), Dim::All],
            grid: [NODES as u64, 1],
        };
        let (mut s, physical) = open(cluster, &FILES, physical_spec)?;
        let block = ViewSpec::row_blocks(ROWS, COLS, ELEM, WRITERS as u64);
        let writers = declare_views(&mut s, &FILES, block, &physical, 0)?;
        let bufs = writers.iter().map(|v| vec![0u8; v.len() as usize]).collect();

        let (mut sb, _) = open(cluster, &FILES, physical_spec)?;
        let cyclic = ViewSpec {
            rows: ROWS,
            cols: COLS,
            elem: ELEM,
            dists: [Dim::Cyclic(READER_ROWS), Dim::All],
            grid: [READERS as u64, 1],
        };
        let readers = declare_views(&mut sb, &FILES, cyclic, &physical, reader_id(0))?;
        let shared = Arc::new(Shared {
            start: Barrier::new(2),
            end: Barrier::new(2),
            stop: AtomicBool::new(false),
            rec_b: Mutex::new(Rec::new(p.epoch, p.tracing, 1)),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pfbench-readers".into())
                .spawn(move || reader_loop(sb, &readers, &shared, p.seed))
                .map_err(|e| format!("spawn reader thread: {e}"))?
        };
        Ok(Self {
            s,
            seed: p.seed,
            writers,
            bufs,
            image: vec![0; FILE_LEN],
            k: 0,
            shared,
            reader: Some(reader),
        })
    }

    /// Releases thread B from its start barrier with the stop flag up, and
    /// joins it. Idempotent.
    fn stop_reader(&mut self) -> bool {
        let Some(handle) = self.reader.take() else { return true };
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.start.wait();
        handle.join().is_ok()
    }
}

fn reader_id(r: usize) -> u32 {
    (WRITERS + r) as u32
}

fn reader_loop(mut s: Session, views: &[View], shared: &Shared, seed: u64) {
    let mut expect = vec![0u8; FILE_LEN];
    for k in 0u64.. {
        // Round k reads checkpoint k - 1; before round 0 the file is zeros.
        if k > 0 {
            checkpoint(seed, k - 1, &mut expect);
        }
        shared.start.wait();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let file = FILES[((k + 1) % 2) as usize];
        let mut got = Vec::with_capacity(views.len());
        {
            let mut rec = shared.rec_b();
            for (r, v) in views.iter().enumerate() {
                set_view(&mut rec, &mut s, Kind::SetViewWarm, reader_id(r), file, v);
            }
            for (r, v) in views.iter().enumerate() {
                got.push(read(&mut rec, &mut s, reader_id(r), file, v, 0, v.len()));
            }
        }
        shared.end.wait();
        // Outside the round: compare what was read with the reference.
        let mut rec = shared.rec_b();
        for (back, v) in got.into_iter().zip(views) {
            back.check(&mut rec, v, &expect, 0);
        }
    }
}

impl Workload for Reshard4to3 {
    fn round(&mut self, rec: &mut Rec) {
        let file = FILES[(self.k % 2) as usize];
        checkpoint(self.seed, self.k, &mut self.image);
        for (v, buf) in self.writers.iter().zip(&mut self.bufs) {
            let rows = v.reference.load(&self.image, 0, buf.len());
            buf.copy_from_slice(&rows);
        }
        self.shared.start.wait();
        let t0 = Instant::now();
        for (w, (v, buf)) in self.writers.iter().zip(&self.bufs).enumerate() {
            write(rec, &mut self.s, w as u32, file, v, 0, buf, true);
        }
        flush(rec, &mut self.s, file);
        self.shared.end.wait();
        let wall = t0.elapsed().as_nanos() as u64;
        {
            // Thread B's share of the round; the round's wall time is the
            // barrier-to-barrier one taken here, not B's.
            let mut theirs = self.shared.rec_b();
            theirs.end_round(None);
            theirs.round_ms.clear();
            rec.absorb(&mut theirs);
        }
        rec.end_round(Some(wall));
        if self.k % CHECK_EVERY == CHECK_EVERY - 1 {
            check_file(rec, &mut self.s, file, &self.image);
        }
        self.k += 1;
    }

    fn finish(&mut self, rec: &mut Rec) {
        let joined = self.stop_reader();
        rec.absorb(&mut self.shared.rec_b());
        rec.expect(joined, || "reader thread panicked".to_string());
        if self.k > 0 {
            let file = FILES[((self.k - 1) % 2) as usize];
            check_file(rec, &mut self.s, file, &self.image);
        }
    }

    fn session(&mut self) -> &mut Session {
        &mut self.s
    }

    fn files(&self) -> Vec<u64> {
        FILES.to_vec()
    }

    fn shape(&self) -> (Arc<ViewCtx>, u64, u64) {
        (Arc::clone(&self.writers[0].ctx), 0, self.writers[0].len() - 1)
    }
}

impl Drop for Reshard4to3 {
    fn drop(&mut self) {
        self.stop_reader();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_differ_by_round_and_seed() {
        let (mut a, mut b, mut c) = (vec![0u8; 64], vec![0u8; 64], vec![0u8; 64]);
        checkpoint(1, 0, &mut a);
        checkpoint(1, 1, &mut b);
        checkpoint(2, 0, &mut c);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[..8], a[8..16]);
    }
}
