//! Serving-tier benchmark: tenant fairness under a hot neighbor.
//!
//! One reactor daemon, several tenants, one of them hot (many more client
//! threads than the rest). Per-tenant throughput is measured under the
//! daemon's deficit-round-robin dispatch and reported as a max/min
//! ratio, beside the hot/base client ratio — the share a queue that
//! served connections in arrival order would hand the hot tenant. CI
//! gates the DRR ratio at ≤2×. The report also carries the client's CPU
//! per write: every thread but the daemon's loop, summed. One JSON report:
//! `bench_results/serving.json`.
//!
//! ```text
//! cargo run -p pf-bench --release --bin serving \
//!     [--window-ms 400] [--hot 8] [--gate-fair R]
//! ```

use arraydist::matrix::MatrixLayout;
use clusterfile::StorageBackend;
use jsonlite::{obj, Json, ToJson};
use parafile_net::session::{BatchWrite, Session};
use parafile_net::{serve, DaemonConfig};
use pf_bench::dump_json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tenants in the run; tenant 1 is the hot neighbor.
const TENANTS: u32 = 4;
/// Client threads per well-behaved tenant.
const BASE_CLIENTS: usize = 3;
/// Logical writes pipelined per batch (keeps every tenant's queue deep
/// enough that DRR arbitration, not client round-trips, sets the ratio).
const BATCH: usize = 128;

struct Args {
    window_ms: u64,
    hot: usize,
    /// Fail unless the DRR per-tenant max/min ratio is at most this.
    gate_fair: Option<f64>,
}

fn parse_args() -> Args {
    let mut out = Args { window_ms: 400, hot: 8, gate_fair: None };
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

/// CPU time (user + system, µs) this process's threads have used, leaving
/// out the daemon's loop thread (`pf-net-reactor`). Linux `/proc` counts
/// it in ticks of 1/100 s; elsewhere the sum is 0.
fn client_cpu_us() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { continue };
        // `pid (comm) state ...`: comm may hold spaces, so split at the
        // last ')'; utime and stime are fields 14 and 15.
        let Some((head, rest)) = stat.rsplit_once(')') else { continue };
        if head.ends_with("(pf-net-reactor") {
            continue;
        }
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        ticks += field(11) + field(12);
    }
    ticks * 10_000
}

/// Runs the hot-neighbor workload against one reactor daemon and returns
/// completed writes per tenant, with the client CPU (µs) used by the time
/// the window closed.
fn fairness_run(window: Duration, hot: usize) -> (Vec<u64>, u64) {
    let config = DaemonConfig { backend: StorageBackend::Memory, ..DaemonConfig::default() };
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
    let client_cpu = client_cpu_us();
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    daemon.stop();
    (counters.iter().map(|c| c.load(Ordering::Relaxed)).collect(), client_cpu)
}

fn ratio(per_tenant: &[u64]) -> f64 {
    let max = per_tenant.iter().copied().max().unwrap_or(0) as f64;
    let min = per_tenant.iter().copied().min().unwrap_or(0).max(1) as f64;
    max / min
}

fn main() {
    let args = parse_args();
    let window = Duration::from_millis(args.window_ms);
    // What an arrival-order queue hands the hot tenant: its share of the
    // client threads, each keeping one connection busy.
    let client_ratio = args.hot as f64 / BASE_CLIENTS as f64;
    println!(
        "serving tier: {} ms fairness window, {} hot clients vs {BASE_CLIENTS} per tenant \
         (client ratio {client_ratio:.2})\n",
        args.window_ms, args.hot
    );
    let (fair, client_cpu) = fairness_run(window, args.hot);
    let fair_ratio = ratio(&fair);
    let cpu_per_write = client_cpu as f64 / fair.iter().sum::<u64>().max(1) as f64;
    println!("fairness: drr per-tenant {fair:?} (max/min {fair_ratio:.2})");
    println!("client cpu: {cpu_per_write:.2} µs per write");
    let as_json = |v: &[u64]| Json::Array(v.iter().map(|&n| n.to_json()).collect());
    let report = obj![(
        "fairness",
        obj![
            ("tenants", u64::from(TENANTS)),
            ("hot_clients", args.hot as u64),
            ("base_clients", BASE_CLIENTS as u64),
            ("batch", BATCH as u64),
            ("window_ms", args.window_ms),
            ("fair_per_tenant_ops", as_json(&fair)),
            ("fair_ratio", fair_ratio),
            ("client_ratio", client_ratio),
            ("client_cpu_us_per_write", cpu_per_write)
        ]
    )];
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
