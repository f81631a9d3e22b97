//! `bulk_rowcol_disk`: the paper's worst match — row-block views over
//! column-block subfiles — at 1 MiB per op on disk-backed daemons. Each
//! write fans out 4 × 256 KiB messages of 512 fragments of 512 B; the
//! daemon journals, scatters with positioned writes and refreshes CRC32C
//! pages. Request overhead is amortised and planning is zero.
//!
//! Flush policy: exactly one `Session::flush` per round, after the writes.

use super::{declare_views, flush, open, read, set_view, write, Params, View, Workload};
use crate::cluster::{Cluster, NODES};
use crate::rec::{Kind, Rec, ViewCtx};
use crate::refview::ViewSpec;
use crate::stats::Rng;
use parafile_net::Session;
use std::sync::Arc;

const SIDE: u64 = 2048;
/// The smoke path moves this much of each row block, not all 1 MiB of it.
const LIGHT_OP: usize = 64 << 10;

pub struct BulkRowcolDisk {
    s: Session,
    file: u64,
    /// Compute node `i` owns row block `i`: 512 rows, 1 MiB.
    views: Vec<View>,
    image: Vec<u8>,
    rng: Rng,
    round: u64,
    buf: Vec<u8>,
}

impl BulkRowcolDisk {
    pub fn new(cluster: &Cluster, p: Params) -> Result<Self, String> {
        let file = 1;
        let (mut s, physical) =
            open(cluster, &[file], ViewSpec::col_blocks(SIDE, SIDE, 1, NODES as u64))?;
        let spec = ViewSpec::row_blocks(SIDE, SIDE, 1, NODES as u64);
        let views = declare_views(&mut s, &[file], spec, &physical, 0)?;
        let op = if p.smoke { LIGHT_OP } else { views[0].len() as usize };
        Ok(Self {
            s,
            file,
            views,
            image: vec![0; spec.file_len() as usize],
            rng: Rng::fork(p.seed, 1),
            round: 0,
            buf: vec![0; op],
        })
    }
}

impl Workload for BulkRowcolDisk {
    fn round(&mut self, rec: &mut Rec) {
        let Self { s, file, views, image, rng, round, buf } = self;
        let file = *file;
        let c = (*round % NODES as u64) as usize;
        set_view(rec, s, Kind::SetViewWarm, c as u32, file, &views[c]);
        for (c, v) in views.iter().enumerate() {
            rng.fill(buf);
            write(rec, s, c as u32, file, v, 0, buf, true);
            v.reference.store(image, 0, buf);
        }
        flush(rec, s, file);
        for (c, v) in views.iter().enumerate() {
            read(rec, s, c as u32, file, v, 0, buf.len() as u64).check(rec, v, image, 0);
        }
        rec.end_round(None);
        *round += 1;
    }

    fn finish(&mut self, rec: &mut Rec) {
        super::check_file(rec, &mut self.s, self.file, &self.image);
    }

    fn session(&mut self) -> &mut Session {
        &mut self.s
    }

    fn files(&self) -> Vec<u64> {
        vec![self.file]
    }

    fn shape(&self) -> (Arc<ViewCtx>, u64, u64) {
        (Arc::clone(&self.views[0].ctx), 0, self.buf.len() as u64 - 1)
    }
}
