//! Per-layer measurements, taken from outside: the benchmark calls each
//! layer's public functions with the inputs a traced call had and times
//! them. Two uses share the stage functions here:
//!
//! * **replay** — for a sampled call, re-execute its stages one by one and
//!   return them as child spans of the call's root span. The client-side
//!   stages (map extremities, gather, encode) cover every node the call
//!   fanned out to, as the client does them one after the other; the
//!   node-side stages (decode, journal, scatter, checksum) cover one node,
//!   as the nodes work side by side.
//! * **probes** — fixed-size or once-per-view measurements that are not a
//!   stage of any one call (wire cost of a 256 KiB and a 1 KiB message,
//!   CRC32C speed, journal checkpoint, plan compile cold and hit, …).

use crate::cluster::ScratchDir;
use crate::rec::{Kind, OpDesc, ViewCtx};
use crate::stats::{median, MIB};
use clusterfile::{crc32c, ChecksumMap, IntentRecord, Journal, StorageBackend, SubfileStore};
use parafile::redist::ViewPlan;
use parafile::{sg, CompiledView, Mapper, PlanEngine};
use parafile_audit::{audit_pattern, AuditConfig, RawFalls, RawPattern};
use parafile_net::wire::{write_frame, Reply, Request, PROTOCOL_VERSION};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One replayed stage of a call: a child span.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    pub name: &'static str,
    pub start_ns: u64,
    pub ns: u64,
    /// Payload bytes the stage handled (0 where bytes are not its unit).
    pub bytes: u64,
}

/// Repetitions of each fixed probe; the median is reported.
const PROBE_REPS: usize = 15;
const FILE_ID: usize = 1;

fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_nanos() as u64)
}

/// [`Layers::stage`] without the borrow of `Layers`, for stages whose
/// closure mutates its stores. `timed` is false for a stage the real path
/// skips by construction: `f` still runs (later stages need what it builds)
/// but the span reads 0.
fn staged<T>(
    epoch: Instant,
    out: &mut Vec<Stage>,
    name: &'static str,
    bytes: u64,
    timed: bool,
    f: impl FnOnce() -> T,
) -> T {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let (v, ns) = time(f);
    out.push(Stage { name, start_ns, ns: if timed { ns } else { 0 }, bytes });
    v
}

fn median_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
}

/// One node's share of a call: subfile, subfile-linear extremities, and the
/// `(offset, len)` runs the node scatters to or gathers from.
struct Share {
    subfile: usize,
    l_s: u64,
    r_s: u64,
    bytes: u64,
}

/// Node-side state the replays and probes run against: a subfile store with
/// its journal and checksum map over the workload's own backend, plus a
/// memory store and a file store for the storage probes.
pub struct Layers {
    epoch: Instant,
    engine: PlanEngine,
    dir: ScratchDir,
    store: SubfileStore,
    journal: Journal,
    sums: ChecksumMap,
    store_len: u64,
}

impl Layers {
    /// `disk` selects the workload's backend; `subfile_len` sizes the
    /// stores (every subfile of a workload has the same length).
    pub fn new(epoch: Instant, disk: bool, subfile_len: u64) -> Result<Self, String> {
        let dir = ScratchDir::create("layers").map_err(|e| format!("scratch dir: {e}"))?;
        let backend = if disk {
            StorageBackend::Directory(dir.path().to_path_buf())
        } else {
            StorageBackend::Memory
        };
        let io = |e: std::io::Error| format!("layer stores: {e}");
        let mut store = SubfileStore::create(&backend, FILE_ID, 0, subfile_len).map_err(io)?;
        let journal = Journal::open(&backend, FILE_ID, 0).map_err(io)?;
        let sums = ChecksumMap::for_store(&backend, FILE_ID, 0, &mut store, false).map_err(io)?;
        Ok(Self {
            epoch,
            engine: PlanEngine::new(),
            dir,
            store,
            journal,
            sums,
            store_len: subfile_len,
        })
    }

    /// Runs `f` as the stage `name`, appending its span to `out`.
    fn stage<T>(
        &self,
        out: &mut Vec<Stage>,
        name: &'static str,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        staged(self.epoch, out, name, bytes, true, f)
    }

    fn compiled(&self, ctx: &ViewCtx) -> Result<Arc<CompiledView>, String> {
        self.engine
            .compile_view(&ctx.logical, ctx.element, &ctx.physical)
            .map_err(|e| format!("compile_view: {e}"))
    }

    /// The per-node shares of the view interval `[lo, hi]`, with the
    /// extremities mapped the way `Session` maps them.
    fn shares(ctx: &ViewCtx, plan: &CompiledView, lo: u64, hi: u64) -> Vec<Share> {
        let mut out = Vec::new();
        for s in 0..plan.subfile_count() {
            let replay = plan.replay(s);
            let bytes = if replay.is_empty() { 0 } else { replay.bytes_between(lo, hi) };
            if bytes == 0 {
                continue;
            }
            let (l_s, r_s) = if plan.access(s).perfect_match {
                (lo, hi)
            } else {
                let mv = Mapper::new(&ctx.logical, ctx.element);
                let ms = Mapper::new(&ctx.physical, s);
                let l_s = ms.map_next(mv.unmap(lo));
                let r_s = ms.map_prev(mv.unmap(hi)).unwrap_or(l_s);
                (l_s, r_s)
            };
            out.push(Share { subfile: s, l_s, r_s, bytes });
        }
        out
    }

    /// A share whose bytes are one contiguous fragment on every node needs
    /// no gather or scatter: the client-side copy is a plain `memcpy`. The
    /// `core.sg` stages report 0 for such a call by construction.
    fn contiguous(plan: &CompiledView, shares: &[Share], lo: u64, hi: u64) -> bool {
        Self::fragments(plan, shares, lo, hi) == shares.len()
    }

    /// View-side fragments of `[lo, hi]` over all nodes: the copy runs a
    /// gather or scatter of the interval makes.
    fn fragments(plan: &CompiledView, shares: &[Share], lo: u64, hi: u64) -> usize {
        shares.iter().map(|s| plan.replay(s.subfile).fragments_between(lo, hi)).sum()
    }

    fn runs(&self, plan: &CompiledView, share: &Share) -> Vec<(u64, u64)> {
        let r_c = share.r_s.min(self.store_len.saturating_sub(1));
        plan.access(share.subfile)
            .proj_sub
            .segments_between(share.l_s, r_c)
            .iter()
            .map(|s| (s.l(), s.len()))
            .collect()
    }

    /// Re-executes the stages of a sampled call.
    pub fn replay(&mut self, desc: &OpDesc) -> Result<Vec<Stage>, String> {
        match desc.kind {
            Kind::Write => self.replay_write(desc),
            Kind::Read => self.replay_read(desc),
            Kind::SetViewCold => self.replay_set_view(desc, true),
            Kind::SetViewWarm => self.replay_set_view(desc, false),
            Kind::Batch | Kind::Flush | Kind::Probe => Ok(Vec::new()),
        }
    }

    fn replay_write(&mut self, d: &OpDesc) -> Result<Vec<Stage>, String> {
        let ctx = &*d.view;
        let plan = self.compiled(ctx)?;
        let (lo, hi) = (d.lo, d.hi);
        let len = hi - lo + 1;
        // View-addressed source buffer, as `sg::gather_replay` indexes it.
        let src = vec![0xA5u8; hi as usize + 1];
        let mut out = Vec::new();

        let shares = self
            .stage(&mut out, "core.mapping.extremities", 0, || Self::shares(ctx, &plan, lo, hi));
        let mut payloads: Vec<Vec<u8>> =
            shares.iter().map(|s| Vec::with_capacity(s.bytes as usize)).collect();
        let gathers = !Self::contiguous(&plan, &shares, lo, hi);
        staged(self.epoch, &mut out, "core.sg.gather", len, gathers, || {
            for (s, p) in shares.iter().zip(&mut payloads) {
                sg::gather_replay(p, &src, lo, hi, plan.replay(s.subfile));
            }
        });
        let requests: Vec<Request> =
            shares.iter().zip(payloads).map(|(s, p)| write_request(s, d.op + 1, p)).collect();
        let mut frames: Vec<Vec<u8>> = requests.iter().map(|_| Vec::new()).collect();
        self.stage(&mut out, "net.wire.encode", len, || {
            for (r, f) in requests.iter().zip(&mut frames) {
                r.encode_payload_at_into(PROTOCOL_VERSION, f);
            }
        });

        // Node side, for the first node the call reached.
        let (Some(share), Some(req), Some(frame)) =
            (shares.first(), requests.first(), frames.first())
        else {
            return Ok(out);
        };
        let decoded = self.stage(&mut out, "net.wire.decode", share.bytes, || {
            Request::decode_at(PROTOCOL_VERSION, req.opcode(), frame)
        });
        let Ok(Request::Write { payload, session, seq, .. }) = decoded else {
            return Err("replayed Write did not decode to a Write".into());
        };
        let runs = self.runs(&plan, share);
        let expect: u64 = runs.iter().map(|r| r.1).sum();
        let body = &payload[..expect as usize];
        let epoch = self.epoch;
        staged(epoch, &mut out, "clusterfile.journal.append", expect, true, || {
            if !self.journal.is_enabled() {
                return Ok(());
            }
            let record =
                IntentRecord { session, seq, segments: runs.clone(), payload: body.to_vec() };
            self.journal.append(&record)
        })
        .map_err(|e| format!("journal append: {e}"))?;
        staged(epoch, &mut out, "clusterfile.storage.scatter", expect, true, || {
            self.store.scatter(runs.iter().copied(), body)
        })
        .map_err(|e| format!("scatter: {e}"))?;
        staged(epoch, &mut out, "clusterfile.checksum.record", expect, true, || {
            runs.iter()
                .try_for_each(|&(off, len)| self.sums.record_write(&mut self.store, off, len))
        })
        .map_err(|e| format!("checksum record: {e}"))?;

        // Keep the journal from growing without bound across replays; the
        // checkpoint has its own probe.
        self.journal.checkpoint(&mut self.store).map_err(|e| format!("checkpoint: {e}"))?;
        Ok(out)
    }

    fn replay_read(&mut self, d: &OpDesc) -> Result<Vec<Stage>, String> {
        let ctx = &*d.view;
        let plan = self.compiled(ctx)?;
        let (lo, hi) = (d.lo, d.hi);
        let len = hi - lo + 1;
        let mut out = Vec::new();
        let shares = self
            .stage(&mut out, "core.mapping.extremities", 0, || Self::shares(ctx, &plan, lo, hi));
        let Some(share) = shares.first() else { return Ok(out) };
        let runs = self.runs(&plan, share);

        let epoch = self.epoch;
        staged(epoch, &mut out, "clusterfile.checksum.verify", share.bytes, true, || {
            runs.iter().try_fold(0u64, |bad, &(off, len)| {
                self.sums.verify_range(&mut self.store, off, len).map(|n| bad + n)
            })
        })
        .map_err(|e| format!("checksum verify: {e}"))?;
        let mut gathered = Vec::with_capacity(share.bytes as usize);
        staged(epoch, &mut out, "clusterfile.storage.gather", share.bytes, true, || {
            self.store.gather(runs.iter().copied(), &mut gathered)
        })
        .map_err(|e| format!("gather: {e}"))?;

        let reply = Reply::Data { payload: gathered };
        let mut frame = Vec::new();
        self.stage(&mut out, "net.wire.encode", share.bytes, || {
            reply.encode_payload_at_into(PROTOCOL_VERSION, &mut frame);
        });
        let decoded = self.stage(&mut out, "net.wire.decode", share.bytes, || {
            Reply::decode_at(PROTOCOL_VERSION, reply.opcode(), &frame)
        });
        let Ok(Reply::Data { payload }) = decoded else {
            return Err("replayed Data did not decode to Data".into());
        };

        // Client side: every node's fragment stream lands in the view
        // buffer. The other nodes' streams have the first node's shape.
        let mut dst = vec![0u8; hi as usize + 1];
        let streams: Vec<Vec<u8>> = shares.iter().map(|s| vec![0x5Au8; s.bytes as usize]).collect();
        black_box(&payload);
        let scatters = !Self::contiguous(&plan, &shares, lo, hi);
        staged(self.epoch, &mut out, "core.sg.scatter", len, scatters, || {
            for (s, p) in shares.iter().zip(&streams) {
                sg::scatter_replay(&mut dst, p, lo, hi, plan.replay(s.subfile));
            }
        });
        Ok(out)
    }

    fn replay_set_view(&mut self, d: &OpDesc, cold: bool) -> Result<Vec<Stage>, String> {
        let ctx = &*d.view;
        let mut out = Vec::new();
        if cold {
            self.stage(&mut out, "arraydist.partition", 0, || ctx.spec.distribution().partition(0));
            let r = self.stage(&mut out, "core.redist.compile", 0, || {
                ViewPlan::compile(&ctx.logical, ctx.element, &ctx.physical)
            });
            r.map_err(|e| format!("ViewPlan::compile: {e}"))?;
        }
        let plan = self.compiled(ctx)?; // fills the private engine's cache
        if !cold {
            self.stage(&mut out, "core.engine.lookup", 0, || self.compiled(ctx)).map(|_| ())?;
        }
        let mut frames = Vec::new();
        self.stage(&mut out, "net.wire.encode", 0, || frames = set_view_frames(ctx, &plan));
        let raw = RawPattern::from_partition(&ctx.logical);
        let report = self
            .stage(&mut out, "audit.pattern", 0, || audit_pattern(&raw, &AuditConfig::default()));
        if report.has_errors() {
            return Err("a workload view failed the audit".into());
        }
        Ok(out)
    }

    /// The fixed probes, on the workload's representative write
    /// `(ctx, lo, hi)`. Returns `(metric name, value)` pairs.
    pub fn probes(
        &mut self,
        ctx: &ViewCtx,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let mut m: Vec<(&'static str, f64)> = Vec::new();
        let reps = |f: &mut dyn FnMut() -> u64| -> f64 {
            median_us(&(0..PROBE_REPS).map(|_| f()).collect::<Vec<_>>())
        };

        // Planning.
        m.push((
            "arraydist.partition_us",
            reps(&mut || time(|| ctx.spec.distribution().partition(0)).1),
        ));
        m.push((
            "core.redist.compile_us",
            reps(&mut || time(|| ViewPlan::compile(&ctx.logical, ctx.element, &ctx.physical)).1),
        ));
        let (mut cold, mut hit) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            let engine = PlanEngine::new();
            cold.push(time(|| engine.compile_view(&ctx.logical, ctx.element, &ctx.physical)).1);
            hit.push(time(|| engine.compile_view(&ctx.logical, ctx.element, &ctx.physical)).1);
        }
        m.push(("core.engine.compile_cold_us", median_us(&cold)));
        m.push(("core.engine.compile_hit_us", median_us(&hit)));
        let raw = RawPattern::from_partition(&ctx.logical);
        m.push((
            "audit.pattern_us",
            reps(&mut || time(|| audit_pattern(&raw, &AuditConfig::default())).1),
        ));

        // Shape of the representative call: exact counts.
        let plan = self.compiled(ctx)?;
        let shares = Self::shares(ctx, &plan, lo, hi);
        let len = hi - lo + 1;
        m.push(("core.engine.plan_runs", Self::fragments(&plan, &shares, lo, hi) as f64));
        let wire_bytes: usize = shares
            .iter()
            .map(|s| framed(&write_request(s, 1, vec![0; s.bytes as usize])).len())
            .sum();
        m.push(("net.wire.bytes_per_payload_byte", wire_bytes as f64 / len as f64));
        let setview_bytes: usize = set_view_frames(ctx, &plan).iter().map(Vec::len).sum();
        m.push(("net.wire.setview_bytes", setview_bytes as f64));

        // Wire cost of a bulk and of a small message.
        for (size, enc, dec, per_mib) in [
            (256usize << 10, "net.wire.encode_us_per_mib", "net.wire.decode_us_per_mib", true),
            (1 << 10, "net.wire.encode_1k_us", "net.wire.decode_1k_us", false),
        ] {
            let whole = Share { subfile: 0, l_s: 0, r_s: size as u64 - 1, bytes: size as u64 };
            let req = write_request(&whole, 1, vec![0xC3; size]);
            let scale = if per_mib { MIB / size as f64 } else { 1.0 };
            let mut frame = Vec::new();
            m.push((
                enc,
                scale
                    * reps(&mut || {
                        time(|| req.encode_payload_at_into(PROTOCOL_VERSION, &mut frame)).1
                    }),
            ));
            m.push((
                dec,
                scale
                    * reps(&mut || {
                        time(|| Request::decode_at(PROTOCOL_VERSION, req.opcode(), &frame)).1
                    }),
            ));
        }

        // Storage: the representative call's first-node run list against a
        // memory store and a file store.
        let Some(share) = shares.first() else {
            return Err("representative call reaches no node".into());
        };
        let runs = self.runs(&plan, share);
        let bytes: u64 = runs.iter().map(|r| r.1).sum();
        let per_mib = MIB / bytes as f64;
        let body = vec![0x3Cu8; bytes as usize];
        let io = |e: std::io::Error| format!("storage probe: {e}");
        let file_backend = StorageBackend::Directory(self.dir.path().to_path_buf());
        let mut mem = SubfileStore::create(&StorageBackend::Memory, FILE_ID, 1, self.store_len)
            .map_err(io)?;
        let mut file =
            SubfileStore::create(&file_backend, FILE_ID, 1, self.store_len).map_err(io)?;
        let mut failed = None;
        let mut note = |r: std::io::Result<u64>| {
            if let Err(e) = r {
                failed = Some(e);
            }
        };
        m.push((
            "clusterfile.storage.scatter_mem_us_per_mib",
            per_mib
                * reps(&mut || {
                    let (r, ns) = time(|| mem.scatter(runs.iter().copied(), &body));
                    note(r);
                    ns
                }),
        ));
        m.push((
            "clusterfile.storage.scatter_file_us_per_mib",
            per_mib
                * reps(&mut || {
                    let (r, ns) = time(|| file.scatter(runs.iter().copied(), &body));
                    note(r);
                    ns
                }),
        ));
        let mut sink = Vec::with_capacity(bytes as usize);
        m.push((
            "clusterfile.storage.gather_file_us_per_mib",
            per_mib
                * reps(&mut || {
                    sink.clear();
                    let (r, ns) = time(|| file.gather(runs.iter().copied(), &mut sink));
                    note(r);
                    ns
                }),
        ));
        if let Some(e) = failed {
            return Err(io(e));
        }

        // Journal checkpoint: a file journal holding one intent of the
        // representative size, flushed and truncated.
        let mut journal = Journal::open(&file_backend, FILE_ID, 1).map_err(io)?;
        let record =
            IntentRecord { session: 1, seq: 1, segments: runs.clone(), payload: body.clone() };
        let mut ckpt = Vec::new();
        for _ in 0..PROBE_REPS {
            journal.append(&record).map_err(io)?;
            let (r, ns) = time(|| journal.checkpoint(&mut file));
            r.map_err(io)?;
            ckpt.push(ns);
        }
        m.push(("clusterfile.journal.checkpoint_us", median_us(&ckpt)));

        let page = vec![0x77u8; 256 << 10];
        m.push((
            "clusterfile.checksum.crc32c_us_per_mib",
            MIB / page.len() as f64 * reps(&mut || time(|| crc32c(&page)).1),
        ));
        Ok(m)
    }
}

/// The `SetView` frames `Session::set_view` ships for `ctx`: one per
/// intersecting subfile, each carrying the raw view and that subfile's
/// projection.
fn set_view_frames(ctx: &ViewCtx, plan: &CompiledView) -> Vec<Vec<u8>> {
    let raw_view = RawPattern::from_partition(&ctx.logical);
    plan.per_subfile()
        .iter()
        .filter(|a| !a.is_empty())
        .map(|access| {
            let req = Request::SetView {
                file: FILE_ID as u64,
                compute: 0,
                element: ctx.element as u32,
                view: raw_view.clone(),
                proj_set: access
                    .proj_sub
                    .set
                    .families()
                    .iter()
                    .map(RawFalls::from_nested)
                    .collect(),
                proj_period: access.proj_sub.period,
            };
            framed(&req)
        })
        .collect()
}

/// The `Write` message carrying `payload` to the node of `share`.
fn write_request(share: &Share, seq: u64, payload: Vec<u8>) -> Request {
    Request::Write {
        file: FILE_ID as u64,
        compute: 0,
        l_s: share.l_s,
        r_s: share.r_s,
        session: 1,
        seq,
        payload,
    }
}

/// `req` as it goes on the wire, frame header included.
fn framed(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    // Writing to a Vec cannot fail.
    let _ = write_frame(&mut frame, req.opcode(), 1, &req.encode_payload_at(PROTOCOL_VERSION));
    frame
}
