//! **Ablation G** (extension): the pipelined multi-node data path —
//! persistent per-node session workers, batched pipelined writes and
//! chunked streaming — against the PR 4 `net_throughput` baseline.
//!
//! The workload is the paper's worst-matching layout pair (row-block
//! views over a column-block physical file): one compute node writes its
//! full strided view as a batch of pipelined slices, then reads it back.
//! The sweep covers I/O-node count × payload (matrix size) × projected
//! segment size (the element width of the layouts, which sets the length
//! of every scatter run at the I/O nodes).
//!
//! Rows on the baseline configuration (4 nodes, 1-byte segments, a
//! single batched op — the PR 4 workload exactly) carry the committed
//! PR 4 single-client write throughput from
//! `bench_results/net_throughput.json` and the resulting speedup;
//! `--gate X` fails the run (exit 1) unless the best such speedup
//! reaches `X`. Multi-op rows document the batch path, which is
//! round-trip-bound per node today (see ROADMAP: in-worker request
//! pipelining).
//!
//! ```text
//! cargo run -p pf-bench --release --bin pipeline \
//!     [--reps 5] [--sizes 256,512,1024,2048] [--nodes 2,4] [--ops 1,8] [--gate 2.0]
//! ```

use arraydist::matrix::MatrixLayout;
use clusterfile::StorageBackend;
use jsonlite::Json;
use parafile::Mapper;
use parafile_net::session::{spawn_loopback, BatchWrite, Session};
use pf_bench::{dump_json, results_dir};
use std::time::Instant;

struct Args {
    reps: usize,
    sizes: Vec<u64>,
    nodes: Vec<usize>,
    ops: Vec<usize>,
    gate: Option<f64>,
}

fn parse_args() -> Args {
    let mut out = Args {
        reps: 5,
        sizes: vec![256, 512, 1024, 2048],
        nodes: vec![2, 4],
        ops: vec![1, 8],
        gate: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let num = |args: &[String], i: usize, what: &str| -> String {
        args.get(i + 1).unwrap_or_else(|| panic!("{what} needs a value")).clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => out.reps = num(&args, i, "--reps").parse().expect("--reps"),
            "--ops" => {
                out.ops =
                    num(&args, i, "--ops").split(',').map(|v| v.parse().expect("--ops")).collect()
            }
            "--gate" => out.gate = Some(num(&args, i, "--gate").parse().expect("--gate")),
            "--sizes" => {
                out.sizes =
                    num(&args, i, "--sizes").split(',').map(|v| v.parse().expect("size")).collect()
            }
            "--nodes" => {
                out.nodes =
                    num(&args, i, "--nodes").split(',').map(|v| v.parse().expect("nodes")).collect()
            }
            other => {
                eprintln!(
                    "unknown argument {other}; supported: \
                     --reps N, --sizes a,b, --nodes a,b, --ops N, --gate X"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    out
}

struct Row {
    nodes: usize,
    size: u64,
    segment: u64,
    ops: usize,
    reps: usize,
    bytes_per_client: u64,
    write_mib_s: f64,
    read_mib_s: f64,
    baseline_write_mib_s: Option<f64>,
    speedup: Option<f64>,
}

impl jsonlite::ToJson for Row {
    fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
        Json::Object(vec![
            ("nodes".into(), Json::UInt(self.nodes as u64)),
            ("size".into(), Json::UInt(self.size)),
            ("segment".into(), Json::UInt(self.segment)),
            ("ops".into(), Json::UInt(self.ops as u64)),
            ("reps".into(), Json::UInt(self.reps as u64)),
            ("bytes_per_client".into(), Json::UInt(self.bytes_per_client)),
            ("write_mib_s".into(), Json::Float(self.write_mib_s)),
            ("read_mib_s".into(), Json::Float(self.read_mib_s)),
            ("baseline_write_mib_s".into(), opt(self.baseline_write_mib_s)),
            ("speedup".into(), opt(self.speedup)),
        ])
    }
}

/// The committed PR 4 single-client write throughput for matrix side
/// `size`, if `bench_results/net_throughput.json` carries it.
fn baseline_write_mib_s(size: u64) -> Option<f64> {
    let text = std::fs::read_to_string(results_dir().join("net_throughput.json")).ok()?;
    let rows = Json::parse(&text).ok()?;
    rows.as_array()?.iter().find_map(|row| {
        let matches = row.get("size")?.as_u64()? == size && row.get("clients")?.as_u64()? == 1;
        if matches {
            row.get("write_mib_s")?.as_f64()
        } else {
            None
        }
    })
}

/// Runs one configuration: `reps` timed batched-write + read passes of
/// compute 0's full view, after one untimed warm-up pass that opens the
/// connections and primes the chunk-capability probe. Returns
/// `(write_mib_s, read_mib_s, bytes_per_client)`.
fn run_config(
    addrs: &[String],
    nodes: usize,
    n: u64,
    segment: u64,
    ops: usize,
    reps: usize,
    file: &mut u64,
) -> (f64, f64, u64) {
    let physical = MatrixLayout::ColumnBlocks.partition(n, n, segment, nodes as u64);
    let logical = MatrixLayout::RowBlocks.partition(n, n, segment, 4);
    let file_len = n * n * segment;
    let bytes = logical.element_len(0, file_len).expect("view element");
    let m = Mapper::new(&logical, 0);
    let data: Vec<u8> = (0..bytes).map(|y| (m.unmap(y) % 251) as u8).collect();
    // The batch: `ops` contiguous slices of the view, pipelined per node.
    let slice = (bytes / ops as u64).max(1);
    let batch: Vec<BatchWrite<'_>> = (0..bytes)
        .step_by(slice as usize)
        .map(|lo| {
            let hi = (lo + slice - 1).min(bytes - 1);
            BatchWrite { lo_v: lo, hi_v: hi, data: &data[lo as usize..=hi as usize] }
        })
        .collect();

    let mut session = Session::connect(addrs);
    let mut write_ns = 0u128;
    let mut read_ns = 0u128;
    for rep in 0..=reps {
        let fid = *file;
        *file += 1;
        session.create_file(fid, physical.clone(), file_len).expect("create");
        session.set_view(0, fid, &logical, 0).expect("view");
        let start = Instant::now();
        let reports = session.write_batch(0, fid, &batch).expect("batch write");
        let write = start.elapsed().as_nanos();
        for r in &reports {
            assert!(r.fully_applied(), "loopback write must fully apply");
        }
        let start = Instant::now();
        let back = session.read(0, fid, 0, bytes - 1).expect("read");
        let read = start.elapsed().as_nanos();
        assert_eq!(back, data, "read-back must match the strided write");
        // Rep 0 is the warm-up: connections, worker threads and the
        // chunk-capability probe all come up outside the timed region.
        if rep > 0 {
            write_ns += write;
            read_ns += read;
        }
    }
    let total = (bytes * reps as u64) as f64;
    let mib = 1024.0 * 1024.0;
    (total / mib / (write_ns as f64 / 1e9), total / mib / (read_ns as f64 / 1e9), bytes)
}

fn main() {
    let args = parse_args();
    println!("pipelined data path, loopback daemons (MiB/s)\n");
    println!(
        "{:>5} {:>5} {:>7} {:>4} {:>12} {:>12} {:>10} {:>8}",
        "nodes", "size", "segment", "ops", "write", "read", "baseline", "speedup"
    );
    let mut rows = Vec::new();
    let mut file = 1u64;
    for &nodes in &args.nodes {
        let (_daemons, addrs) =
            spawn_loopback(nodes, StorageBackend::Memory).expect("spawn loopback daemons");
        for &n in &args.sizes {
            for segment in [1u64, 8] {
                for &ops in &args.ops {
                    let (write_mib_s, read_mib_s, bytes) =
                        run_config(&addrs, nodes, n, segment, ops, args.reps.max(1), &mut file);
                    // The PR 4 baseline ran 4 nodes, 1-byte elements, one
                    // fan-out per view write; only that configuration is an
                    // apples-to-apples comparison.
                    let baseline = if nodes == 4 && segment == 1 && ops == 1 {
                        baseline_write_mib_s(n)
                    } else {
                        None
                    };
                    let speedup = baseline.map(|b| write_mib_s / b);
                    let fmt_opt = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.1}"));
                    println!(
                        "{nodes:>5} {n:>5} {segment:>7} {ops:>4} {write_mib_s:>12.1} \
                         {read_mib_s:>12.1} {:>10} {:>8}",
                        fmt_opt(baseline),
                        fmt_opt(speedup),
                    );
                    rows.push(Row {
                        nodes,
                        size: n,
                        segment,
                        ops,
                        reps: args.reps.max(1),
                        bytes_per_client: bytes,
                        write_mib_s,
                        read_mib_s,
                        baseline_write_mib_s: baseline,
                        speedup,
                    });
                }
            }
        }
    }
    let path = dump_json("pipeline", &rows).expect("persist results");
    println!("\nresults → {}", path.display());
    if let Some(gate) = args.gate {
        let best = rows.iter().filter_map(|r| r.speedup).fold(f64::NAN, f64::max);
        if best.is_nan() {
            eprintln!("gate {gate}: no baseline rows to compare against");
            std::process::exit(1);
        }
        if best < gate {
            eprintln!("gate {gate}: best speedup over the PR 4 baseline is only {best:.2}x");
            std::process::exit(1);
        }
        println!("gate {gate}: passed (best speedup {best:.2}x)");
    }
}
