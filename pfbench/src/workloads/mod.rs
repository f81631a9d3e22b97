//! The four workloads. Names are final: later issues cite them.
//!
//! Every workload is a closed loop of whole rounds: the next call is issued
//! when the previous one returned, as a compute process blocked on its I/O
//! would. Each round of each workload also re-declares one view and
//! flushes once, so every end-to-end metric has samples on every workload.
//!
//! `viewset_churn`, `small_ops` and `bulk_rowcol_disk` have one client
//! thread; `reshard_4to3` has two, its writers and its readers.

mod bulk;
mod churn;
mod reshard;
mod small;

use crate::cluster::Cluster;
use crate::rec::{Kind, Rec, ViewCtx};
use crate::refview::{RefView, ViewSpec};
use parafile_net::Session;
use std::sync::Arc;
use std::time::Instant;

/// Name, whether its daemons store on disk, warm-up rounds, and why the
/// workload exists (one line, repeated in `BENCHMARK.json`).
pub struct Info {
    pub name: &'static str,
    pub disk: bool,
    pub warmup_rounds: u64,
    pub why: &'static str,
}

/// Warm-up is a fixed count of rounds, not a duration, so that work moved
/// into set-up shows in `setup_s`.
pub const WORKLOADS: [Info; 4] = [
    Info {
        name: "viewset_churn",
        disk: false,
        warmup_rounds: 2,
        why: "planning-bound: every draw sets a view the 128-entry plan cache has never seen, then moves 8 KiB each way; three quarters of a round is view-setting",
    },
    Info {
        name: "small_ops",
        disk: false,
        warmup_rounds: 4,
        why: "per-request-overhead-bound: 1 KiB ops on a perfectly matching view, one message to one node per op; mapping, gather, journal and planning are bypassed",
    },
    Info {
        name: "bulk_rowcol_disk",
        disk: true,
        warmup_rounds: 4,
        why: "data-plane-bound: 1 MiB row-block ops over column-block subfiles on disk (journal, CRC32C sidecars, positioned writes); request overhead is amortised",
    },
    Info {
        name: "reshard_4to3",
        disk: false,
        warmup_rounds: 4,
        why: "the macro workload: 4 BLOCK writers beside 3 CYCLIC readers on shared daemons, two threads, serial-equivalence checked; every layer does a middling share",
    },
];

pub fn info(name: &str) -> Option<&'static Info> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub tracing: bool,
    /// Light rounds (fewer draws or pairs each) for the smoke path.
    pub smoke: bool,
    /// Zero of the span clock.
    pub epoch: Instant,
    /// Which set-up repetition of the run this instance belongs to, so a
    /// workload that must never repeat an input within a run can avoid it.
    pub rep: u64,
}

pub trait Workload {
    /// Runs one whole round, recording into `rec`.
    fn round(&mut self, rec: &mut Rec);

    /// End-of-run oracle: the file the daemons hold must equal the serial
    /// reference image. Also stops any helper thread.
    fn finish(&mut self, rec: &mut Rec);

    /// The session whose counters the traced run reads.
    fn session(&mut self) -> &mut Session;

    /// Files whose daemon-side `Stat` counters the traced run reads: those
    /// only [`round`](Self::round) touches, so that the counts over a fixed
    /// number of rounds are exact.
    fn files(&self) -> Vec<u64>;

    /// A representative write: the view and interval the fixed layer probes
    /// take as input.
    fn shape(&self) -> (Arc<ViewCtx>, u64, u64);
}

pub fn build(name: &str, cluster: &Cluster, p: Params) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "viewset_churn" => Box::new(churn::ViewsetChurn::new(cluster, p)?),
        "small_ops" => Box::new(small::SmallOps::new(cluster, p)?),
        "bulk_rowcol_disk" => Box::new(bulk::BulkRowcolDisk::new(cluster, p)?),
        "reshard_4to3" => Box::new(reshard::Reshard4to3::new(cluster, p)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

// ---------------------------------------------------------------------------
// Checked calls shared by the workloads. The check runs after the timed
// call returned, so the oracle is outside every timed region.

/// A view as a workload holds it: replay inputs plus the serial reference.
pub struct View {
    pub ctx: Arc<ViewCtx>,
    pub reference: RefView,
}

impl View {
    /// Declares element `element` of `spec` over `physical`, and confirms
    /// the serial reference against the library's own `MAP⁻¹`.
    pub fn new(
        spec: ViewSpec,
        element: usize,
        physical: &Arc<parafile::Partition>,
    ) -> Result<Self, String> {
        let logical = spec.distribution().partition(0);
        Self::from_partition(spec, logical, element, physical)
    }

    pub fn from_partition(
        spec: ViewSpec,
        logical: parafile::Partition,
        element: usize,
        physical: &Arc<parafile::Partition>,
    ) -> Result<Self, String> {
        let reference = spec.reference(element);
        if !reference.agrees_with_mapper(&logical, element, 16) {
            return Err(format!("serial reference disagrees with Mapper on {spec:?}[{element}]"));
        }
        let ctx = Arc::new(ViewCtx { spec, logical, element, physical: Arc::clone(physical) });
        Ok(Self { ctx, reference })
    }

    pub fn len(&self) -> u64 {
        self.reference.len()
    }
}

pub fn set_view(rec: &mut Rec, s: &mut Session, kind: Kind, compute: u32, file: u64, v: &View) {
    let r = rec.timed(kind, || s.set_view(compute, file, &v.ctx.logical, v.ctx.element));
    rec.replayable(&v.ctx, 0, 0);
    rec.expect(r.is_ok(), || format!("set_view({compute}, {file}): {r:?}"));
}

/// Writes `data` at view offset `lo`. `credit` says whether the call counts
/// towards `write_mib_s`. The caller applies the write to its reference
/// image.
#[allow(clippy::too_many_arguments)]
pub fn write(
    rec: &mut Rec,
    s: &mut Session,
    compute: u32,
    file: u64,
    v: &View,
    lo: u64,
    data: &[u8],
    credit: bool,
) {
    let hi = lo + data.len() as u64 - 1;
    let r = rec.timed(Kind::Write, || s.write(compute, file, lo, hi, data));
    rec.replayable(&v.ctx, lo, hi);
    if credit {
        rec.wrote(data.len() as u64);
    } else {
        rec.wrote_uncredited(data.len() as u64);
    }
    rec.expect(matches!(r, Ok(n) if n == data.len() as u64), || {
        format!("write({compute}, {file}, {lo}..={hi}): {r:?}")
    });
}

/// What a timed read returned, to be compared with the reference once the
/// caller is outside its timed region.
pub struct ReadBack {
    what: String,
    len: usize,
    bytes: Result<Vec<u8>, String>,
}

/// Reads `len` bytes at view offset `lo`.
pub fn read(
    rec: &mut Rec,
    s: &mut Session,
    compute: u32,
    file: u64,
    v: &View,
    lo: u64,
    len: u64,
) -> ReadBack {
    let hi = lo + len - 1;
    let r = rec.timed(Kind::Read, || s.read(compute, file, lo, hi));
    rec.replayable(&v.ctx, lo, hi);
    rec.read(len);
    ReadBack {
        what: format!("read({compute}, {file}, {lo}..={hi})"),
        len: len as usize,
        bytes: r.map_err(|e| format!("{e:?}")),
    }
}

impl ReadBack {
    /// Compares the bytes with what the serial reference says the view
    /// interval starting at `lo` holds.
    pub fn check(self, rec: &mut Rec, v: &View, image: &[u8], lo: u64) {
        let Self { what, len, bytes } = self;
        match bytes {
            Ok(b) => rec.expect(b == v.reference.load(image, lo, len), || {
                format!("{what}: bytes differ from the serial reference")
            }),
            Err(e) => rec.expect(false, || format!("{what}: {e}")),
        }
    }
}

pub fn flush(rec: &mut Rec, s: &mut Session, file: u64) {
    let r = rec.timed(Kind::Flush, || s.flush(file));
    rec.expect(r.is_ok(), || format!("flush({file}): {r:?}"));
}

/// Serial equivalence: the file reassembled from the daemons' subfiles
/// must be byte-identical to the image the serial reference built.
pub fn check_file(rec: &mut Rec, s: &mut Session, file: u64, image: &[u8]) {
    rec.attempted += 1;
    let r = s.file_contents(file);
    let ok = matches!(&r, Ok(bytes) if bytes == image);
    rec.expect(ok, || match r {
        Ok(_) => format!("file_contents({file}) differs from the serial reference"),
        Err(e) => format!("file_contents({file}): {e:?}"),
    });
}

/// Declares every element of `spec` as a view on each of `files`: element
/// `e` for compute node `first_compute + e`.
pub fn declare_views(
    s: &mut Session,
    files: &[u64],
    spec: ViewSpec,
    physical: &Arc<parafile::Partition>,
    first_compute: u32,
) -> Result<Vec<View>, String> {
    let mut views = Vec::with_capacity(spec.elements());
    for e in 0..spec.elements() {
        let v = View::new(spec, e, physical)?;
        for &file in files {
            s.set_view(first_compute + e as u32, file, &v.ctx.logical, e)
                .map_err(|err| format!("set_view({e}, {file}): {err:?}"))?;
        }
        views.push(v);
    }
    Ok(views)
}

/// Connects a session and creates `file` with the physical layout `spec`.
pub fn open(
    cluster: &Cluster,
    files: &[u64],
    spec: ViewSpec,
) -> Result<(Session, Arc<parafile::Partition>), String> {
    let physical = Arc::new(spec.distribution().partition(0));
    let mut s = Session::connect(&cluster.addrs);
    for &file in files {
        s.create_file(file, (*physical).clone(), spec.file_len())
            .map_err(|e| format!("create_file({file}): {e:?}"))?;
    }
    Ok((s, physical))
}
