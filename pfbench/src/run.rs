//! One run of one workload: repeated set-up, the measured window of whole
//! rounds, the end-of-run oracle, and — in a traced run — the counters
//! around the window and the stage replays after it.

use crate::cluster::{scrub_env, trace_dir, Cluster, NODES};
use crate::counters::Snapshot;
use crate::layers::{Layers, Stage};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rec::{Kind, OpDesc, Rec};
use crate::refview::ViewSpec;
use crate::stats::{block_percentile, median, BLOCK, MIB};
use crate::workloads::{self, Params, Workload};
use jsonlite::Json;
use parafile::PlanEngine;
use parafile_net::{NodeHealth, Session};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// The measured window: whole rounds until this much wall time has passed.
    pub seconds: f64,
    pub tracing: bool,
    /// The smoke path instead: one set-up, one warm-up round and
    /// [`SMOKE_ROUNDS`] measured rounds, each of the workload's light size.
    pub smoke: bool,
}

/// Set-up runs this many times per run so that `setup_s` is a median, not
/// one sample.
pub const SETUP_REPS: u64 = 5;
pub const SMOKE_ROUNDS: u64 = 3;
/// Rounds at the head of the window over which the exact structural counts
/// (`server.*_per_op`) are taken: a fixed count, so that they do not depend
/// on how many rounds the window holds.
const COUNT_ROUNDS: u64 = 2;
/// Most sampled calls replayed per kind.
const MAX_REPLAYS: usize = 256;
const PROBE_CALLS: usize = 200;

pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub tracing: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    /// The CPU the run was confined to.
    pub cpu: u32,
    pub backend_dir: Option<String>,
    /// The metrics this run must print: end-to-end untraced, per-layer
    /// traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The other family, for the human-readable report (a traced run still
    /// measures its end-to-end metrics; they carry the tracing overhead).
    pub also: BTreeMap<&'static str, f64>,
    pub errors: Vec<String>,
    pub trace_path: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.values().all(|v| v.is_finite())
    }
}

/// Daemon-side `Stat` counters summed over nodes and files.
fn server_counts(w: &mut dyn Workload) -> Result<(u64, u64), String> {
    let (mut requests, mut fragments) = (0, 0);
    for file in w.files() {
        for node in w.session().stat(file).map_err(|e| format!("stat({file}): {e:?}"))? {
            requests += node.requests;
            fragments += node.fragments;
        }
    }
    Ok((requests, fragments))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let info = workloads::info(&cfg.workload)
        .ok_or_else(|| format!("unknown workload {}", cfg.workload))?;
    scrub_env();
    let cpu = crate::pin::to_one_cpu()?;
    let epoch = Instant::now();
    let (setup_reps, warmup) = if cfg.smoke { (1, 1) } else { (SETUP_REPS, info.warmup_rounds) };

    // Set-up, several times over; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut live: Option<(Box<dyn Workload>, Cluster)> = None;
    for rep in 0..setup_reps {
        drop(live.take()); // the workload (its sessions) before its cluster
        let t0 = Instant::now();
        let cluster = Cluster::start(info.disk).map_err(|e| format!("start daemons: {e}"))?;
        let params = Params { seed: cfg.seed, tracing: cfg.tracing, smoke: cfg.smoke, epoch, rep };
        let mut w = workloads::build(info.name, &cluster, params)?;
        let mut warm = Rec::new(epoch, false, 0);
        for _ in 0..warmup {
            w.round(&mut warm);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.errors));
        }
        live = Some((w, cluster));
    }
    let Some((mut w, cluster)) = live else { unreachable!("at least one set-up repetition") };

    // The measured window.
    let mut rec = Rec::new(epoch, cfg.tracing, 0);
    let engine_before = PlanEngine::global().stats();
    let tokens_before = w.session().retry_budget().tokens();
    let counts_before = if cfg.tracing { Some(server_counts(&mut *w)?) } else { None };
    let mut counts_after = None;
    let before = if cfg.tracing { Some(Snapshot::take()) } else { None };
    let t0 = Instant::now();
    let mut rounds = 0u64;
    let mut paused = Duration::ZERO;
    loop {
        w.round(&mut rec);
        rounds += 1;
        if cfg.tracing && rounds == COUNT_ROUNDS {
            let t = Instant::now();
            counts_after = Some((server_counts(&mut *w)?, rec.attempted));
            paused += t.elapsed();
        }
        let done = if cfg.smoke {
            rounds >= SMOKE_ROUNDS
        } else {
            (t0.elapsed() - paused).as_secs_f64() >= cfg.seconds
        };
        if done {
            break;
        }
    }
    let after = before.map(|b| Snapshot::take().since(&b));
    let engine_after = PlanEngine::global().stats();
    let tokens_after = w.session().retry_budget().tokens();
    let hedged = w.session().hedged_reads();
    let window_ops = rec.attempted;
    let window_payload = rec.payload_bytes;

    let session = session_metrics(&rec, &setup_s);

    let mut layer = BTreeMap::new();
    let mut trace_path = None;
    if let (Some(delta), Some((c0_req, c0_frag))) = (after, counts_before) {
        let ((c1_req, c1_frag), c_ops) = match counts_after {
            Some(c) => c,
            None => (server_counts(&mut *w)?, window_ops), // window shorter than COUNT_ROUNDS
        };
        // Each `stat` counts itself once per node and file; the later
        // reading holds one more of those than the earlier one.
        let own = (NODES * w.files().len()) as u64;
        let ops = c_ops.max(1) as f64;
        layer.insert("server.msgs_per_op", (c1_req - c0_req - own) as f64 / ops);
        layer.insert("server.fragments_per_op", (c1_frag - c0_frag) as f64 / ops);

        let lookups = (engine_after.hits() - engine_before.hits())
            + (engine_after.misses() - engine_before.misses());
        let hits = (engine_after.hits() - engine_before.hits()) as f64;
        layer.insert(
            "core.engine.hit_ratio",
            if lookups == 0 { 1.0 } else { hits / lookups as f64 },
        );

        let ops = window_ops.max(1) as f64;
        let payload = window_payload.max(1) as f64;
        layer.insert("process.syscr_per_op", delta.syscr as f64 / ops);
        layer.insert("process.syscw_per_op", delta.syscw as f64 / ops);
        layer.insert("process.wchar_per_payload_byte", delta.wchar as f64 / payload);
        layer.insert("process.ctx_switches_per_op", delta.ctx_switches as f64 / ops);
        layer.insert("process.cpu_us_per_op", delta.cpu_us as f64 / ops);
        layer.insert(
            "process.cpu_s_per_gib",
            delta.cpu_us as f64 / 1e6 / (payload / (1024.0 * MIB)),
        );
        layer.insert("process.allocs_per_op", delta.allocs as f64 / ops);
        layer.insert("process.alloc_bytes_per_payload_byte", delta.alloc_bytes as f64 / payload);
        layer.insert(
            "session.retries_per_op",
            f64::from(tokens_before.saturating_sub(tokens_after)) / ops,
        );
        layer.insert("session.hedged_reads", hedged as f64);
        layer.insert("session.set_view_cold_us", {
            let cold = rec.latencies(Kind::SetViewCold);
            if cold.is_empty() {
                cold_set_view_probe(&cluster, &mut *w)?
            } else {
                median(cold)
            }
        });
        for (name, measured) in [
            ("session.set_view_warm_us", "viewset_warm_p50_us"),
            ("session.write_p99_us", "write_p99_us"),
            ("session.read_p99_us", "read_p99_us"),
            ("session.flush_p50_ms", "flush_p50_ms"),
            ("traced.round_p50_ms", "round_p50_ms"),
            ("traced.write_p50_us", "write_p50_us"),
            ("traced.read_p50_us", "read_p50_us"),
        ] {
            layer.insert(name, session[measured]);
        }
    }

    // End-of-run oracle, then (traced) the probes and replays, which need
    // the daemons no more except for `probe`.
    w.finish(&mut rec);
    if cfg.tracing {
        for _ in 0..PROBE_CALLS {
            let s = w.session();
            let health = rec.timed(Kind::Probe, || s.probe());
            let alive = health.iter().all(|h| matches!(h, NodeHealth::Alive { .. }));
            rec.expect(alive, || format!("probe: {health:?}"));
        }
        layer.insert("net.session.probe_rtt_us", median(rec.latencies(Kind::Probe)));

        let (ctx, lo, hi) = w.shape();
        let subfile_len = ctx
            .physical
            .element_len(0, ctx.spec.file_len())
            .map_err(|e| format!("subfile length: {e}"))?;
        let mut layers = Layers::new(epoch, info.disk, subfile_len)?;
        for (name, value) in layers.probes(&ctx, lo, hi)? {
            layer.insert(name, value);
        }
        let children = replay_sampled(&mut layers, &rec.sampled)?;
        stage_metrics(&children, &mut layer);
        trace_path = Some(write_trace(cfg, &rec, &children)?);
    }
    let backend_dir = cluster.dir().map(|d| d.display().to_string());
    drop(w);
    drop(cluster);

    // An untraced run prints the end-to-end metrics and shows the rest of
    // what the session saw beside them; a traced run prints the layers.
    let (e2e, rest): (BTreeMap<_, _>, BTreeMap<_, _>) =
        session.into_iter().partition(|(name, _)| END_TO_END.iter().any(|m| m.name == *name));
    let (metrics, also) = if cfg.tracing { (layer, e2e) } else { (e2e, rest) };
    let expected: Vec<&str> = if cfg.tracing {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    if let Some(missing) = expected.iter().find(|n| !metrics.contains_key(*n)) {
        return Err(format!("metric {missing} was not measured"));
    }
    Ok(Outcome {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        tracing: cfg.tracing,
        attempted: rec.attempted,
        failed: rec.failed,
        rounds,
        cpu,
        backend_dir,
        metrics,
        also,
        errors: rec.errors,
        trace_path,
    })
}

/// Everything measured from the client's side of `Session`: the end-to-end
/// metrics, and the tail percentiles and flush time the traced run reports
/// as layer metrics. Latency percentiles are taken per [`BLOCK`] consecutive
/// samples and the median block is reported; throughput and round time are
/// medians of per-round values.
fn session_metrics(rec: &Rec, setup_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(setup_s));
    m.insert("round_p50_ms", median(&rec.round_ms));
    m.insert("viewset_warm_p50_us", block_percentile(rec.latencies(Kind::SetViewWarm), 0.50));
    m.insert("write_p50_us", block_percentile(rec.latencies(Kind::Write), 0.50));
    m.insert("write_p99_us", block_percentile(rec.latencies(Kind::Write), 0.99));
    m.insert("read_p50_us", block_percentile(rec.latencies(Kind::Read), 0.50));
    m.insert("read_p99_us", block_percentile(rec.latencies(Kind::Read), 0.99));
    m.insert("write_mib_s", median(&rec.write_mib_s));
    m.insert("read_mib_s", median(&rec.read_mib_s));
    m.insert("flush_p50_ms", block_percentile(rec.latencies(Kind::Flush), 0.50) / 1e3);
    m
}

/// For a workload that declares no new view inside its window: the median
/// of five cold `set_view` calls made after it, on a scratch file, of the
/// workload's own view narrowed by 1 to 5 columns — partitions nothing
/// else declares, so the plan cache cannot hold them.
fn cold_set_view_probe(cluster: &Cluster, w: &mut dyn Workload) -> Result<f64, String> {
    const FILE: u64 = 1 << 40;
    let (ctx, _, _) = w.shape();
    let mut s = Session::connect(&cluster.addrs);
    let mut us = Vec::new();
    for narrower in 1..=5 {
        let spec = ViewSpec { cols: ctx.spec.cols - narrower, ..ctx.spec };
        let physical = ViewSpec::row_blocks(spec.rows, spec.cols, spec.elem, NODES as u64);
        s.create_file(FILE + narrower, physical.distribution().partition(0), spec.file_len())
            .map_err(|e| format!("cold probe create_file: {e:?}"))?;
        let t = Instant::now();
        let logical = spec.distribution().partition(0);
        s.set_view(0, FILE + narrower, &logical, ctx.element)
            .map_err(|e| format!("cold probe set_view: {e:?}"))?;
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&us))
}

/// Replays up to [`MAX_REPLAYS`] sampled calls of each kind, evenly spread
/// over the window. Returns `(call, its child spans)`.
fn replay_sampled<'a>(
    layers: &mut Layers,
    sampled: &'a [OpDesc],
) -> Result<Vec<(&'a OpDesc, Vec<Stage>)>, String> {
    let mut out = Vec::new();
    for kind in Kind::ALL {
        let of_kind: Vec<&OpDesc> = sampled.iter().filter(|d| d.kind == kind).collect();
        let step = of_kind.len().div_ceil(MAX_REPLAYS).max(1);
        for d in of_kind.into_iter().step_by(step) {
            out.push((d, layers.replay(d)?));
        }
    }
    Ok(out)
}

/// The layer metrics that are medians over replayed stages.
fn stage_metrics(children: &[(&OpDesc, Vec<Stage>)], layer: &mut BTreeMap<&'static str, f64>) {
    let stage = |kind: Kind, name: &str, per_mib: bool| -> f64 {
        let values: Vec<f64> = children
            .iter()
            .filter(|(d, _)| d.kind == kind)
            .flat_map(|(_, stages)| stages.iter().filter(|s| s.name == name))
            .map(|s| {
                let us = s.ns as f64 / 1e3;
                if per_mib {
                    us / (s.bytes.max(1) as f64 / MIB)
                } else {
                    us
                }
            })
            .collect();
        median(&values)
    };
    layer.insert(
        "core.mapping.extremities_us",
        stage(Kind::Write, "core.mapping.extremities", false),
    );
    layer.insert("core.sg.gather_us_per_mib", stage(Kind::Write, "core.sg.gather", true));
    layer.insert("core.sg.scatter_us_per_mib", stage(Kind::Read, "core.sg.scatter", true));
    layer.insert(
        "clusterfile.journal.append_us_per_mib",
        stage(Kind::Write, "clusterfile.journal.append", true),
    );
    layer.insert(
        "clusterfile.checksum.record_us_per_mib",
        stage(Kind::Write, "clusterfile.checksum.record", true),
    );
    // What the stages do not explain: socket, queues, thread hops.
    let residual: Vec<f64> = children
        .iter()
        .filter(|(d, _)| d.kind == Kind::Write)
        .map(|(d, stages)| {
            (d.dur_ns as f64 - stages.iter().map(|s| s.ns as f64).sum::<f64>()) / 1e3
        })
        .collect();
    layer.insert("net.residual_us", median(&residual));
}

/// Writes the spans of a traced run beside the executable and returns the
/// path. Root spans are `[name, start_ns, end_ns, op]`; replayed children
/// add the parent op and the tag `"replay"`.
fn write_trace(
    cfg: &Config,
    rec: &Rec,
    children: &[(&OpDesc, Vec<Stage>)],
) -> Result<String, String> {
    let dir = trace_dir().map_err(|e| format!("trace dir: {e}"))?;
    let path = dir.join(format!("{}-{}.json", cfg.workload, cfg.seed));
    let mut spans: Vec<Json> = rec
        .spans
        .iter()
        .map(|s| {
            Json::Array(vec![
                Json::Str(s.kind.span_name().into()),
                Json::UInt(s.start_ns),
                Json::UInt(s.end_ns),
                Json::UInt(s.op),
            ])
        })
        .collect();
    for (d, stages) in children {
        for s in stages {
            spans.push(Json::Array(vec![
                Json::Str(s.name.into()),
                Json::UInt(s.start_ns),
                Json::UInt(s.start_ns + s.ns),
                Json::UInt(d.op),
                Json::Str("replay".into()),
            ]));
        }
    }
    let doc = Json::Object(vec![
        ("workload".into(), Json::Str(cfg.workload.clone())),
        ("seed".into(), Json::UInt(cfg.seed)),
        ("sample_every".into(), Json::UInt(crate::rec::SAMPLE_EVERY)),
        ("samples_per_percentile".into(), Json::UInt(BLOCK as u64)),
        ("spans".into(), Json::Array(spans)),
    ]);
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
