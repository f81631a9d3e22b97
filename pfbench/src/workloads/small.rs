//! `small_ops`: 1 KiB writes and reads through views that match the
//! physical layout exactly, so every op is one message to one node and
//! mapping, gather/scatter, journal and planning all drop out. What is left
//! is the per-request path: session, mux or blocking client, wire, reactor
//! loop, worker, reply.

use super::{declare_views, flush, open, read, set_view, write, Params, View, Workload};
use crate::cluster::{Cluster, NODES};
use crate::rec::{Kind, Rec, ViewCtx};
use crate::refview::ViewSpec;
use crate::stats::Rng;
use parafile_net::{BatchWrite, Session};
use std::sync::Arc;

const SIDE: u64 = 2048;
const OP: u64 = 1024;
/// A round is this many (write, read) pairs, then the pipelined batches.
/// Smaller than the issue's 1000 + 25 so that a 25 s window holds a few
/// hundred rounds; percentiles are taken per 1000 consecutive samples
/// whatever the round size.
const PAIRS: usize = 250;
const BATCHES: usize = 6;
const BATCH_OPS: usize = 64;
/// The smoke path's round.
const LIGHT_PAIRS: usize = 25;
const LIGHT_BATCHES: usize = 1;

pub struct SmallOps {
    s: Session,
    file: u64,
    /// One view per compute node, element `i` of the physical layout itself.
    views: Vec<View>,
    image: Vec<u8>,
    rng: Rng,
    round: u64,
    pairs: usize,
    batches: usize,
    buf: Vec<u8>,
}

impl SmallOps {
    pub fn new(cluster: &Cluster, p: Params) -> Result<Self, String> {
        let spec = ViewSpec::row_blocks(SIDE, SIDE, 1, NODES as u64);
        let file = 1;
        let (mut s, physical) = open(cluster, &[file], spec)?;
        let views = declare_views(&mut s, &[file], spec, &physical, 0)?;
        Ok(Self {
            s,
            file,
            views,
            image: vec![0; spec.file_len() as usize],
            rng: Rng::fork(p.seed, 1),
            round: 0,
            pairs: if p.smoke { LIGHT_PAIRS } else { PAIRS },
            batches: if p.smoke { LIGHT_BATCHES } else { BATCHES },
            buf: vec![0; BATCH_OPS * OP as usize],
        })
    }
}

impl Workload for SmallOps {
    fn round(&mut self, rec: &mut Rec) {
        let Self { s, file, views, image, rng, round, pairs, batches, buf } = self;
        let file = *file;
        let c = (*round % NODES as u64) as usize;
        set_view(rec, s, Kind::SetViewWarm, c as u32, file, &views[c]);
        for _ in 0..*pairs {
            let c = rng.below(NODES as u64) as usize;
            let v = &views[c];
            let data = &mut buf[..OP as usize];
            rng.fill(data);
            // The 1 KiB calls feed the latency metrics only; `write_mib_s`
            // on this workload is the pipelined path below.
            let lo = rng.below(v.len() - OP + 1);
            write(rec, s, c as u32, file, v, lo, data, false);
            v.reference.store(image, lo, data);
            let c = rng.below(NODES as u64) as usize;
            let v = &views[c];
            let lo = rng.below(v.len() - OP + 1);
            read(rec, s, c as u32, file, v, lo, OP).check(rec, v, image, lo);
        }
        for _ in 0..*batches {
            let c = rng.below(NODES as u64) as usize;
            let v = &views[c];
            rng.fill(buf);
            let ops: Vec<BatchWrite<'_>> = buf
                .chunks_exact(OP as usize)
                .map(|data| {
                    let lo_v = rng.below(v.len() - OP + 1);
                    BatchWrite { lo_v, hi_v: lo_v + OP - 1, data }
                })
                .collect();
            let r = rec.timed(Kind::Batch, || s.write_batch(c as u32, file, &ops));
            rec.batched(BATCH_OPS as u64);
            rec.wrote(buf.len() as u64);
            let ok = matches!(&r, Ok(reports) if reports.len() == ops.len()
                && reports.iter().all(|r| r.fully_applied() && r.written == OP));
            rec.expect(ok, || format!("write_batch({c}): {r:?}"));
            // One node serves the whole batch in order, so later entries
            // overwrite earlier ones exactly as the serial image does.
            for op in &ops {
                v.reference.store(image, op.lo_v, op.data);
            }
        }
        flush(rec, s, file);
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
        (Arc::clone(&self.views[0].ctx), 0, OP - 1)
    }
}
