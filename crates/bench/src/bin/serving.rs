//! Serving-tier benchmark: pooled sessions and tenant fairness.
//!
//! Two phases, one JSON report (`bench_results/serving.json`):
//!
//! 1. **Session pool** — the same create/view/write/read round is run by
//!    per-session (dedicated mux) connections and by pooled leases on one
//!    shared driver, over thousands of logical sessions. Reported: startup
//!    p50/p99 for both paths and whether the bytes are identical (they
//!    must be — the pool changes socket ownership, never payloads).
//! 2. **Fairness** — one reactor daemon, several tenants, one of them hot
//!    (many more client threads). Per-tenant throughput is measured with
//!    deficit-round-robin dispatch on and off; CI gates the fair max/min
//!    ratio at ≤2× while the FIFO run demonstrates starvation.
//!
//! ```text
//! cargo run -p pf-bench --release --bin serving \
//!     [--sessions 1000] [--window-ms 400] [--hot 8] [--gate-fair R]
//! ```

use arraydist::matrix::MatrixLayout;
use clusterfile::StorageBackend;
use jsonlite::{obj, Json, ToJson};
use parafile_net::session::{spawn_loopback, BatchWrite, Session};
use parafile_net::{pool_stats, serve, DaemonConfig};
use pf_bench::dump_json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants in the fairness phase; tenant 1 is the hot neighbor.
const TENANTS: u32 = 4;
/// Client threads per well-behaved tenant.
const BASE_CLIENTS: usize = 3;
/// Logical writes pipelined per batch (keeps every tenant's queue deep
/// enough that DRR arbitration, not client round-trips, sets the ratio).
const BATCH: usize = 128;

struct Args {
    sessions: usize,
    window_ms: u64,
    hot: usize,
    /// Fail unless the DRR per-tenant max/min ratio is at most this.
    gate_fair: Option<f64>,
}

fn parse_args() -> Args {
    let mut out = Args { sessions: 1000, window_ms: 400, hot: 8, gate_fair: None };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let grab = |i: usize| -> u64 {
            args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{} needs a numeric value", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--sessions" => {
                out.sessions = grab(i) as usize;
                i += 2;
            }
            "--window-ms" => {
                out.window_ms = grab(i);
                i += 2;
            }
            "--hot" => {
                out.hot = grab(i) as usize;
                i += 2;
            }
            "--gate-fair" => {
                out.gate_fair = Some(grab(i) as f64);
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    out
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

// ---------------------------------------------------------------- phase 1

/// One logical session's whole life: connect, create a small file, set a
/// view, write it, read it back. Returns (latency µs, bytes read).
fn session_round(session: &mut Session, file: u64, pattern: &[u8]) -> Vec<u8> {
    let physical = MatrixLayout::ColumnBlocks.partition(8, 8, 1, 2);
    let logical = MatrixLayout::RowBlocks.partition(8, 8, 1, 2);
    session.create_file(file, physical, 64).expect("create file");
    session.set_view(0, file, &logical, 0).expect("set view");
    session.write(0, file, 0, 31, pattern).expect("write");
    session.read(0, file, 0, 31).expect("read")
}

fn pool_phase(sessions: usize) -> Json {
    let (mut daemons, addrs) =
        spawn_loopback(2, StorageBackend::Memory).expect("spawn loopback daemons");
    let pattern: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(3) ^ 0x5A).collect();

    // Baseline: every logical session is a full dedicated connection set
    // (own mux driver, own socket per node), created and dropped in turn.
    let mut dedicated_us = Vec::with_capacity(sessions);
    let mut identical = true;
    for i in 0..sessions {
        let t = Instant::now();
        let mut s = Session::connect(&addrs);
        let got = session_round(&mut s, 10_000 + i as u64, &pattern);
        drop(s);
        dedicated_us.push(t.elapsed().as_secs_f64() * 1e6);
        identical &= got == pattern;
    }

    // Pooled: the same rounds over leases on one shared warm driver. All
    // sessions are held live at once — that is the serving-tier shape the
    // pool exists for (thousands of logical sessions, one driver).
    let mut pooled_us = Vec::with_capacity(sessions);
    let mut live: Vec<Session> = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let t = Instant::now();
        let mut s = Session::connect_pooled(&addrs);
        let got = session_round(&mut s, 100_000 + i as u64, &pattern);
        pooled_us.push(t.elapsed().as_secs_f64() * 1e6);
        identical &= got == pattern;
        live.push(s);
    }
    let (drivers, leases) = pool_stats();
    live.clear();

    dedicated_us.sort_by(|a, b| a.total_cmp(b));
    pooled_us.sort_by(|a, b| a.total_cmp(b));
    let row = obj![
        ("sessions", sessions as u64),
        ("identical", identical),
        ("dedicated_p50_us", percentile(&dedicated_us, 0.50)),
        ("dedicated_p99_us", percentile(&dedicated_us, 0.99)),
        ("pooled_p50_us", percentile(&pooled_us, 0.50)),
        ("pooled_p99_us", percentile(&pooled_us, 0.99)),
        ("pool_drivers", drivers as u64),
        ("pool_peak_leases", leases as u64)
    ];
    println!(
        "pool: {sessions} sessions, dedicated p50/p99 {:.0}/{:.0} µs, \
         pooled p50/p99 {:.0}/{:.0} µs, identical={identical}, {drivers} driver(s)",
        percentile(&dedicated_us, 0.50),
        percentile(&dedicated_us, 0.99),
        percentile(&pooled_us, 0.50),
        percentile(&pooled_us, 0.99),
    );
    for d in &mut daemons {
        d.stop();
    }
    assert!(identical, "pooled sessions must be byte-identical to dedicated ones");
    row
}

// ---------------------------------------------------------------- phase 2

/// Runs the hot-neighbor workload against one reactor daemon and returns
/// completed writes per tenant. `fair` toggles DRR dispatch.
fn fairness_run(window: Duration, hot: usize, fair: bool) -> Vec<u64> {
    let config = DaemonConfig {
        backend: StorageBackend::Memory,
        workers: 2,
        fair,
        ..DaemonConfig::default()
    };
    let mut daemon = serve("127.0.0.1:0", config).expect("spawn reactor daemon");
    let addrs = vec![daemon.addr().to_string()];

    let stop = Arc::new(AtomicBool::new(false));
    let counters: Vec<Arc<AtomicU64>> = (0..TENANTS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut threads = Vec::new();
    let mut next_file = 1u64;
    for tenant in 1..=TENANTS {
        let clients = if tenant == 1 { hot } else { BASE_CLIENTS };
        for _ in 0..clients {
            let addrs = addrs.clone();
            let stop = Arc::clone(&stop);
            let count = Arc::clone(&counters[(tenant - 1) as usize]);
            let file = next_file;
            next_file += 1;
            threads.push(std::thread::spawn(move || {
                let physical = MatrixLayout::ColumnBlocks.partition(8, 8, 1, 1);
                let logical = MatrixLayout::RowBlocks.partition(8, 8, 1, 1);
                let mut s = Session::connect(&addrs).with_tenant(tenant);
                s.create_file(file, physical, 64).expect("create file");
                s.set_view(0, file, &logical, 0).expect("set view");
                let data = [tenant as u8; 32];
                let ops: Vec<BatchWrite<'_>> =
                    (0..BATCH).map(|_| BatchWrite { lo_v: 0, hi_v: 31, data: &data }).collect();
                while !stop.load(Ordering::Relaxed) {
                    // Shed/degraded batches count only their applied ops;
                    // errors cost the window time instead.
                    if let Ok(reports) = s.write_batch(0, file, &ops) {
                        count.fetch_add(reports.len() as u64, Ordering::Relaxed);
                    }
                }
            }));
        }
    }
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    daemon.stop();
    counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

fn ratio(per_tenant: &[u64]) -> f64 {
    let max = per_tenant.iter().copied().max().unwrap_or(0) as f64;
    let min = per_tenant.iter().copied().min().unwrap_or(0).max(1) as f64;
    max / min
}

fn fairness_phase(window: Duration, hot: usize) -> (Json, f64) {
    let fair = fairness_run(window, hot, true);
    let fifo = fairness_run(window, hot, false);
    let fair_ratio = ratio(&fair);
    let fifo_ratio = ratio(&fifo);
    println!(
        "fairness: drr per-tenant {fair:?} (max/min {fair_ratio:.2}), \
         fifo per-tenant {fifo:?} (max/min {fifo_ratio:.2})"
    );
    let as_json = |v: &[u64]| Json::Array(v.iter().map(|&n| n.to_json()).collect());
    let row = obj![
        ("tenants", u64::from(TENANTS)),
        ("hot_clients", hot as u64),
        ("base_clients", BASE_CLIENTS as u64),
        ("batch", BATCH as u64),
        ("window_ms", window.as_millis() as u64),
        ("fair_per_tenant_ops", as_json(&fair)),
        ("fair_ratio", fair_ratio),
        ("fifo_per_tenant_ops", as_json(&fifo)),
        ("fifo_ratio", fifo_ratio)
    ];
    (row, fair_ratio)
}

fn main() {
    let args = parse_args();
    println!(
        "serving tier: {} sessions, {} ms fairness window, {} hot clients\n",
        args.sessions, args.window_ms, args.hot
    );
    let pool = pool_phase(args.sessions);
    let (fairness, fair_ratio) = fairness_phase(Duration::from_millis(args.window_ms), args.hot);
    let report = obj![("pool", pool), ("fairness", fairness)];
    let path = dump_json("serving", &report).expect("write bench_results/serving.json");
    println!("\nwrote {}", path.display());
    if let Some(gate) = args.gate_fair {
        assert!(
            fair_ratio <= gate,
            "GATE: DRR per-tenant max/min ratio {fair_ratio:.2} exceeds {gate:.2}"
        );
        println!("gate ok: DRR per-tenant ratio {fair_ratio:.2} ≤ {gate:.2}");
    }
}
