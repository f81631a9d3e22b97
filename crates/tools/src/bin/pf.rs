//! `pf` — inspect and manipulate parallel-file partitions from the shell.
//!
//! ```text
//! pf example                              # emit a sample partition JSON
//! pf render  <part.json> [span]          # ASCII diagram of the pattern
//! pf map     <part.json> <elem> <offset> # file offset → element offset
//! pf unmap   <part.json> <elem> <offset> # element offset → file offset
//! pf owner   <part.json> <offset>        # which element owns a file byte
//! pf intersect <a.json> <ea> <b.json> <eb>   # intersection + projections
//! pf plan    <a.json> <b.json> [--stats] # plan summary (+ cache counters)
//! pf plan --stats                        # cache counters only
//! pf serve   <addr> [--dir DIR] [--chaos SPEC] [--scrub SECS]  # run an I/O-node daemon (one event-loop thread)
//! pf chaos   <listen> <up1[,up2,…]> <SPEC> [--duration SECS] [--delay MS]  # fault proxy
//! pf io <a1,a2,…> demo <n> [--pipeline] [--replicas R] [--tenant T]  # matrix scenario over real daemons
//! pf io <a1,a2,…> work <reads> [--deadline MS] [--replicas R] [--tenant T]  # deadline-bounded read workload
//! pf io <a1,a2,…> stat <file>            # per-subfile daemon statistics
//! pf io <a1,a2,…> fetch <file>           # reassembled length + CRC32C (read path)
//! pf io <a1,a2,…> probe                  # ping every daemon, print health/epoch
//! pf io <a1,a2,…> shutdown               # stop the daemons
//! pf scrub <a1,a2,…> <file> [--replicas R] [--verify]  # replica checksum walk + repair
//! ```
//!
//! A chaos SPEC is a bare seed (`42`, expanded deterministically into one
//! failure scenario) or `family:seed` with family `drop`, `truncate`,
//! `flush`, `kill`, `torn`, or `delay`. `pf serve --chaos` injects
//! server-side faults (flush failures, kills, torn scatter writes) and,
//! when a crash fault fires, restarts the daemon on the same address with
//! the crash disarmed — one seed, one crash, one recovery. `pf chaos`
//! attacks the transport of an untouched daemon instead; with a
//! comma-separated upstream list it runs one proxy per replica daemon and
//! reports per-replica outcome counters at the end of a `--duration`
//! window. `pf chaos … --delay MS` holds every proxied frame back by a
//! fixed latency — the deterministic "one slow replica" scenario hedged
//! reads and circuit breakers (DESIGN.md §16) are demonstrated against.
//!
//! `pf serve --scrub SECS` arms the daemon-side detection loop: every
//! interval the daemon re-verifies its stored checksums and surfaces
//! mismatches in `stat` (`checksum_errors`), so a `pf scrub` sweep from
//! any client can find and repair them. `pf scrub --verify` probes and
//! votes without repairing (exit 5 when redundancy is degraded).
//!
//! `pf io … --tenant T` stamps every `Open` with tenant id `T` (protocol
//! ≥ 6). `pf serve` runs every frame on its one event-loop thread and
//! takes connections with frames ready in deficit round robin over
//! tenants, so a tenant with more connections gets no larger share.
//! Every flag applies to every daemon: there is one serving model.
//!
//! Partition files use the JSON forms documented in the `pf-tools` library;
//! pass `-` to read from stdin.

use arraydist::matrix::MatrixLayout;
use parafile::matching::MatchingDegree;
use parafile::redist::intersect_and_project;
use parafile::{Mapper, PlanEngine};
use pf_tools::{load_partition, PartitionSpec, ToolError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ToolError {
    ToolError::Spec(
        "usage: pf <example|render|map|unmap|owner|intersect|plan|serve|chaos|io|scrub> [args…]\n\
         see `crates/tools/src/bin/pf.rs` for details"
            .into(),
    )
}

fn net_err(e: parafile_net::NetError) -> ToolError {
    ToolError::Spec(e.to_string())
}

fn parse_u64(s: &str, what: &str) -> Result<u64, ToolError> {
    s.parse().map_err(|_| ToolError::Spec(format!("{what} must be a number, got {s:?}")))
}

/// Strips a `--replicas R` flag (default 1) out of an argument slice,
/// returning the remaining arguments in order.
fn split_replicas_flag(args: &[String]) -> Result<(Vec<&String>, usize, u32), ToolError> {
    let mut replicas = 1usize;
    let mut tenant = 0u32;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--replicas" {
            let r = it.next().ok_or_else(usage)?;
            replicas = r
                .parse()
                .map_err(|_| ToolError::Spec(format!("--replicas must be a number, got {r:?}")))?;
        } else if a == "--tenant" {
            let t = it.next().ok_or_else(usage)?;
            tenant = t
                .parse()
                .map_err(|_| ToolError::Spec(format!("--tenant must be a number, got {t:?}")))?;
        } else {
            rest.push(a);
        }
    }
    Ok((rest, replicas, tenant))
}

/// `pf plan --stats`: the plan cache's hit/miss/eviction counters.
fn print_plan_stats(engine: &PlanEngine) {
    let stats = engine.stats();
    println!(
        "plan cache: views {} hit / {} miss / {} evicted ({} entries), \
         redists {} hit / {} miss / {} evicted ({} entries)",
        stats.views.hits,
        stats.views.misses,
        stats.views.evictions,
        stats.views.entries,
        stats.redists.hits,
        stats.redists.misses,
        stats.redists.evictions,
        stats.redists.entries
    );
}

fn parse_elem(s: &str, part: &parafile::Partition) -> Result<usize, ToolError> {
    let e: usize = s
        .parse()
        .map_err(|_| ToolError::Spec(format!("element index must be a number, got {s:?}")))?;
    if e >= part.element_count() {
        return Err(ToolError::Spec(format!(
            "element {e} out of range (partition has {})",
            part.element_count()
        )));
    }
    Ok(e)
}

fn run(args: &[String]) -> Result<(), ToolError> {
    let cmd = args.first().ok_or_else(usage)?;
    match cmd.as_str() {
        "example" => {
            println!("{}", PartitionSpec::example().to_json().render_pretty());
            Ok(())
        }
        "render" => {
            let part = load_partition(args.get(1).ok_or_else(usage)?)?;
            let span = match args.get(2) {
                Some(s) => parse_u64(s, "span")?,
                None => part.pattern().size(),
            };
            println!(
                "displacement {}, pattern size {}, {} elements",
                part.displacement(),
                part.pattern().size(),
                part.element_count()
            );
            println!("{}", falls::render_nested_set(part.pattern().elements(), span.min(256)));
            Ok(())
        }
        "map" => {
            let part = load_partition(args.get(1).ok_or_else(usage)?)?;
            let e = parse_elem(args.get(2).ok_or_else(usage)?, &part)?;
            let x = parse_u64(args.get(3).ok_or_else(usage)?, "offset")?;
            let m = Mapper::new(&part, e);
            match m.map(x) {
                Some(y) => println!("MAP_S{e}({x}) = {y}"),
                None => println!(
                    "file byte {x} does not map on element {e}; next = {}, prev = {}",
                    m.map_next(x),
                    m.map_prev(x).map_or("-".into(), |v| v.to_string())
                ),
            }
            Ok(())
        }
        "unmap" => {
            let part = load_partition(args.get(1).ok_or_else(usage)?)?;
            let e = parse_elem(args.get(2).ok_or_else(usage)?, &part)?;
            let y = parse_u64(args.get(3).ok_or_else(usage)?, "offset")?;
            println!("MAP_S{e}⁻¹({y}) = {}", Mapper::new(&part, e).unmap(y));
            Ok(())
        }
        "owner" => {
            let part = load_partition(args.get(1).ok_or_else(usage)?)?;
            let x = parse_u64(args.get(2).ok_or_else(usage)?, "offset")?;
            match part.owner_of(x) {
                Some(e) => {
                    let off = Mapper::new(&part, e).map(x).expect("owner selects the byte");
                    println!("file byte {x} → element {e}, offset {off}");
                }
                None => println!("file byte {x} lies below the displacement"),
            }
            Ok(())
        }
        "intersect" => {
            let a = load_partition(args.get(1).ok_or_else(usage)?)?;
            let ea = parse_elem(args.get(2).ok_or_else(usage)?, &a)?;
            let b = load_partition(args.get(3).ok_or_else(usage)?)?;
            let eb = parse_elem(args.get(4).ok_or_else(usage)?, &b)?;
            let (inter, pa, pb) = intersect_and_project(&a, ea, &b, eb)?;
            if inter.is_empty() {
                println!("elements share no data");
                return Ok(());
            }
            println!(
                "intersection: {} bytes per period of {} (displacement {})",
                inter.bytes_per_period(),
                inter.period,
                inter.displacement
            );
            println!("  V ∩ S = {}", inter.set);
            println!("  PROJ on first  element: {} (period {})", pa.set, pa.period);
            println!("  PROJ on second element: {} (period {})", pb.set, pb.period);
            Ok(())
        }
        "plan" => {
            let show_stats = args.iter().any(|a| a == "--stats");
            let positional: Vec<&String> =
                args[1..].iter().filter(|a| !a.starts_with("--")).collect();
            let engine = PlanEngine::global();
            if positional.is_empty() && show_stats {
                // Counters-only mode: no partitions to plan, just report.
                print_plan_stats(engine);
                return Ok(());
            }
            let a = load_partition(positional.first().ok_or_else(usage)?)?;
            let b = load_partition(positional.get(1).ok_or_else(usage)?)?;
            let plan = engine.compile_redist(&a, &b)?;
            let m = MatchingDegree::from_plan(plan.plan(), &b);
            println!(
                "plan: {} bytes per period of {}, {} copy runs over {} active pairs",
                plan.bytes_per_period(),
                plan.period(),
                plan.runs_per_period(),
                plan.pairs().len()
            );
            println!(
                "matching: degree {:.3}, mean run {:.1} B (dst intrinsic fragments: {})",
                m.degree, m.mean_run_len, m.intrinsic_runs
            );
            for pair in plan.pairs() {
                println!(
                    "  {} → {}: {} runs, {} bytes/period",
                    pair.src_element,
                    pair.dst_element,
                    plan.runs_of(pair).count(),
                    plan.runs_of(pair).map(|r| r.len).sum::<u64>()
                );
            }
            if show_stats {
                print_plan_stats(engine);
            }
            Ok(())
        }
        "serve" => {
            let addr = args.get(1).ok_or_else(usage)?;
            let mut config = parafile_net::DaemonConfig::default();
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--dir" => {
                        let dir = rest.next().ok_or_else(usage)?;
                        config.backend = clusterfile::StorageBackend::Directory(dir.into());
                    }
                    "--chaos" => {
                        let spec = rest.next().ok_or_else(usage)?;
                        config.fault =
                            Some(parafile_net::FaultPlan::parse(spec).map_err(ToolError::Spec)?);
                    }
                    "--scrub" => {
                        let secs = parse_u64(rest.next().ok_or_else(usage)?, "--scrub interval")?;
                        if secs == 0 {
                            return Err(ToolError::Spec("--scrub interval must be > 0".into()));
                        }
                        config.scrub_interval = Some(std::time::Duration::from_secs(secs));
                    }
                    other => return Err(ToolError::Spec(format!("unknown flag {other:?}"))),
                }
            }
            // With a chaos plan, a kill/torn-write fault "crashes" the
            // daemon; restart it on the same address with the crash
            // disarmed so the run demonstrates recovery, not a crash loop.
            let mut serve_addr = addr.clone();
            loop {
                let mut handle = parafile_net::serve(&serve_addr, config.clone())?;
                // Keep the OS-assigned port across restarts.
                serve_addr = handle.addr().to_string();
                println!("pf-io-node listening on {serve_addr}");
                handle.wait();
                if handle.fault_killed() {
                    println!("pf-io-node crashed (injected fault); restarting for recovery");
                    config.fault = config.fault.map(|p| p.disarmed_crashes());
                    drop(handle);
                    continue;
                }
                break;
            }
            println!("pf-io-node stopped");
            Ok(())
        }
        "chaos" => {
            let listens: Vec<String> =
                args.get(1).ok_or_else(usage)?.split(',').map(|s| s.trim().to_string()).collect();
            let upstreams: Vec<String> =
                args.get(2).ok_or_else(usage)?.split(',').map(|s| s.trim().to_string()).collect();
            let spec = args.get(3).ok_or_else(usage)?;
            let mut plan = parafile_net::FaultPlan::parse(spec).map_err(ToolError::Spec)?;
            let mut duration = None;
            let mut rest = args[4..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--duration" => {
                        duration = Some(parse_u64(rest.next().ok_or_else(usage)?, "--duration")?);
                    }
                    // Hold back *every* frame by a fixed latency on top of
                    // whatever the spec plans — the deterministic slow-node
                    // knob the README quickstart drives hedged reads with.
                    "--delay" => {
                        let ms = parse_u64(rest.next().ok_or_else(usage)?, "--delay")?;
                        plan.delay = Some((1, ms));
                    }
                    other => return Err(ToolError::Spec(format!("unknown flag {other:?}"))),
                }
            }
            if listens.len() > upstreams.len() {
                return Err(ToolError::Spec(format!(
                    "{} listen address(es) for {} upstream(s)",
                    listens.len(),
                    upstreams.len()
                )));
            }
            let planned = plan.plans_transport_fault();
            println!("chaos plan (seed {}): {plan:?}", plan.seed);
            // One proxy per replica daemon; missing listen addresses get
            // OS-assigned ports. Each proxy keeps its own outcome
            // counters, so a replicated run can tell which replica's
            // transport faulted and which misbehaved.
            let mut proxies = Vec::with_capacity(upstreams.len());
            for (i, upstream) in upstreams.iter().enumerate() {
                let listen = listens.get(i).map_or("127.0.0.1:0", String::as_str);
                let proxy = parafile_net::chaos_proxy(listen, upstream, plan.clone())?;
                println!("pf-chaos[{i}] proxying {} → {upstream}", proxy.addr());
                proxies.push(proxy);
            }
            // Without --duration the proxies run until killed; with it
            // they stop after the window so scripts can read the verdict.
            match duration {
                Some(secs) => {
                    std::thread::sleep(std::time::Duration::from_secs(secs));
                    for proxy in &mut proxies {
                        proxy.stop();
                    }
                }
                None => {
                    for proxy in &mut proxies {
                        proxy.wait();
                    }
                }
            }
            // Exit codes distinguish the run's verdict: 0 = the planned
            // fault fired (or the plan injects nothing at the transport)
            // and the protocol held; 3 = the planned fault never fired on
            // any replica; 4 = errors the plan does not explain flowed to
            // a client. The per-replica counters say which daemon's link
            // carried the fault.
            let mut fired = 0u64;
            let mut unexpected = 0u64;
            let mut delayed = 0u64;
            for (i, proxy) in proxies.iter().enumerate() {
                let outcome = proxy.outcome();
                println!(
                    "pf-chaos outcome[{i}] ({}): {} planned fault(s) fired, \
                     {} unexpected error(s), {} delayed frame(s)",
                    upstreams[i],
                    outcome.planned_faults,
                    outcome.unexpected_errors,
                    outcome.injected_delays
                );
                fired += outcome.planned_faults;
                unexpected += outcome.unexpected_errors;
                delayed += outcome.injected_delays;
            }
            println!(
                "pf-chaos outcome: {fired} planned fault(s) fired, \
                 {unexpected} unexpected error(s), {delayed} delayed frame(s) \
                 across {} replica(s)",
                proxies.len()
            );
            if unexpected > 0 {
                std::process::exit(4);
            }
            if planned && fired == 0 {
                std::process::exit(3);
            }
            if plan.delay.is_some() && delayed == 0 {
                std::process::exit(3);
            }
            Ok(())
        }
        "io" => {
            let (rest, replicas, tenant) = split_replicas_flag(&args[1..])?;
            let addrs: Vec<String> =
                rest.first().ok_or_else(usage)?.split(',').map(|s| s.trim().to_string()).collect();
            let sub = rest.get(1).ok_or_else(usage)?;
            let mut session = parafile_net::Session::connect_replicated(&addrs, replicas)
                .map_err(net_err)?
                .with_tenant(tenant);
            match sub.as_str() {
                // The paper's experiment over live daemons: row-block views
                // onto a column-block file, every node writes its view, the
                // reassembled file must match what was written. With
                // `--pipeline`, each view write is issued as a batch of
                // slices so the session transport pipelines the per-node
                // transfers (DESIGN.md §13).
                "demo" => {
                    let n = parse_u64(rest.get(2).ok_or_else(usage)?, "matrix dim")?;
                    let pipeline = rest[2..].iter().any(|a| *a == "--pipeline");
                    let nodes = addrs.len() as u64;
                    if n == 0 || n % nodes != 0 {
                        return Err(ToolError::Spec(format!(
                            "matrix dim must be a positive multiple of {nodes}"
                        )));
                    }
                    let physical = MatrixLayout::ColumnBlocks.partition(n, n, 1, nodes);
                    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, nodes);
                    let file_len = n * n;
                    let file = 1u64;
                    session.create_file(file, physical, file_len).map_err(net_err)?;
                    let start = std::time::Instant::now();
                    for c in 0..logical.element_count() {
                        session.set_view(c as u32, file, &logical, c).map_err(net_err)?;
                    }
                    let t_views = start.elapsed();
                    let start = std::time::Instant::now();
                    for c in 0..logical.element_count() {
                        let m = Mapper::new(&logical, c);
                        let len = logical.element_len(c, file_len)?;
                        let data: Vec<u8> = (0..len).map(|y| (m.unmap(y) % 251) as u8).collect();
                        if pipeline {
                            // One slice per row block: the whole view goes
                            // out as pipelined ops on each node's connection.
                            let slice = (len / nodes).max(1);
                            let batch: Vec<parafile_net::BatchWrite<'_>> = (0..len)
                                .step_by(slice as usize)
                                .map(|lo| {
                                    let hi = (lo + slice - 1).min(len - 1);
                                    parafile_net::BatchWrite {
                                        lo_v: lo,
                                        hi_v: hi,
                                        data: &data[lo as usize..=hi as usize],
                                    }
                                })
                                .collect();
                            let reports =
                                session.write_batch(c as u32, file, &batch).map_err(net_err)?;
                            if let Some(r) = reports.iter().find(|r| !r.fully_applied()) {
                                return Err(ToolError::Spec(format!(
                                    "pipelined write left segments unapplied: {:?}",
                                    r.outcomes
                                )));
                            }
                        } else {
                            session.write(c as u32, file, 0, len - 1, &data).map_err(net_err)?;
                        }
                    }
                    let t_writes = start.elapsed();
                    let contents = session.file_contents(file).map_err(net_err)?;
                    for (x, &b) in contents.iter().enumerate() {
                        if b != (x as u64 % 251) as u8 {
                            return Err(ToolError::Spec(format!(
                                "verification failed at file byte {x}"
                            )));
                        }
                    }
                    println!(
                        "demo ok ({}): {n}×{n} matrix over {} I/O nodes — views {:.3} ms, \
                         writes {:.3} ms, {} bytes verified",
                        if pipeline { "pipelined" } else { "sequential" },
                        addrs.len(),
                        t_views.as_secs_f64() * 1e3,
                        t_writes.as_secs_f64() * 1e3,
                        contents.len()
                    );
                    Ok(())
                }
                // Deadline-bounded replicated read workload (DESIGN.md
                // §16): write one deterministic file, then time `reads`
                // whole-file reads under a fresh per-read deadline.
                // Succeeds only when every read lands inside its budget
                // with intact bytes; prints the hedge counter and each
                // node's breaker history either way, so a chaos proxy
                // holding one replica back (`pf chaos … --delay`) can be
                // seen hiding behind the hedge instead of the deadline.
                "work" => {
                    use parafile_net::{BreakerState, Deadline};
                    let reads = parse_u64(rest.get(2).ok_or_else(usage)?, "read count")?;
                    let mut deadline_ms = 1_000u64;
                    let mut it = rest[3..].iter();
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--deadline" => {
                                deadline_ms =
                                    parse_u64(it.next().ok_or_else(usage)?, "--deadline")?;
                            }
                            other => {
                                return Err(ToolError::Spec(format!(
                                    "unknown work flag {other:?}"
                                )));
                            }
                        }
                    }
                    let nodes = addrs.len() as u64;
                    let n = nodes * 16;
                    let file = 1u64;
                    let file_len = n * n;
                    let physical = MatrixLayout::ColumnBlocks.partition(n, n, 1, nodes);
                    // One whole-file view: compute 0 sees every byte in
                    // file order, so each read fans out to all subfiles.
                    let whole = MatrixLayout::RowBlocks.partition(n, n, 1, 1);
                    session.create_file(file, physical, file_len).map_err(net_err)?;
                    session.set_view(0, file, &whole, 0).map_err(net_err)?;
                    let data: Vec<u8> = (0..file_len).map(|x| (x % 251) as u8).collect();
                    session.write(0, file, 0, file_len - 1, &data).map_err(net_err)?;

                    let mut worst = std::time::Duration::ZERO;
                    let mut states: Vec<BreakerState> =
                        (0..addrs.len()).map(|s| session.breaker_state(s)).collect();
                    let mut transitions = vec![0u64; addrs.len()];
                    let mut digest = 0u32;
                    for i in 0..reads {
                        session.set_deadline(Deadline::within(std::time::Duration::from_millis(
                            deadline_ms,
                        )));
                        let start = std::time::Instant::now();
                        let bytes = session.read(0, file, 0, file_len - 1).map_err(|e| {
                            ToolError::Spec(format!("read {i} failed under deadline: {e}"))
                        })?;
                        let took = start.elapsed();
                        worst = worst.max(took);
                        if took > std::time::Duration::from_millis(deadline_ms) {
                            return Err(ToolError::Spec(format!(
                                "read {i} missed the {deadline_ms} ms deadline \
                                 ({:.1} ms)",
                                took.as_secs_f64() * 1e3
                            )));
                        }
                        if bytes != data {
                            return Err(ToolError::Spec(format!("read {i} returned wrong bytes")));
                        }
                        digest = clusterfile::crc32c(&bytes);
                        for (s, t) in transitions.iter_mut().enumerate() {
                            let now = session.breaker_state(s);
                            if now != states[s] {
                                *t += 1;
                                states[s] = now;
                            }
                        }
                    }
                    println!(
                        "work ok: {reads} reads × {file_len} B over {} node(s) \
                         (replicas {}) — worst {:.1} ms of {deadline_ms} ms budget, \
                         crc32c {digest:08x}",
                        addrs.len(),
                        session.replicas(),
                        worst.as_secs_f64() * 1e3,
                    );
                    println!("hedged reads: {}", session.hedged_reads());
                    for (s, st) in states.iter().enumerate() {
                        println!(
                            "node {s} @ {}: breaker {st:?} ({} transition(s) observed)",
                            addrs[s], transitions[s]
                        );
                    }
                    Ok(())
                }
                "stat" => {
                    let file = parse_u64(rest.get(2).ok_or_else(usage)?, "file id")?;
                    for (s, info) in session.stat(file).map_err(net_err)?.iter().enumerate() {
                        println!(
                            "subfile {s} @ {}: {} B, {} views, {} requests, \
                             {} B written, {} B read, {} fragments",
                            addrs[s],
                            info.len,
                            info.views,
                            info.requests,
                            info.bytes_written,
                            info.bytes_read,
                            info.fragments
                        );
                    }
                    Ok(())
                }
                // Fetches every subfile through the session read path
                // (with `--replicas R`, reads fail over to surviving
                // copies) and prints a digest over the concatenation in
                // subfile order — byte-identical subfiles give an
                // identical digest, so scripts can compare runs across
                // faults without knowing the partitioning.
                "fetch" => {
                    let file = parse_u64(rest.get(2).ok_or_else(usage)?, "file id")?;
                    let mut all = Vec::new();
                    for s in 0..session.io_nodes() {
                        all.extend_from_slice(&session.subfile(file, s).map_err(net_err)?);
                    }
                    println!(
                        "file {file}: {} bytes, crc32c {:08x}",
                        all.len(),
                        clusterfile::crc32c(&all)
                    );
                    Ok(())
                }
                "probe" => {
                    for (s, health) in session.probe().iter().enumerate() {
                        match health {
                            parafile_net::NodeHealth::Alive { epoch } => {
                                println!("node {s} @ {}: alive (epoch {epoch})", addrs[s]);
                            }
                            parafile_net::NodeHealth::Dead => {
                                println!("node {s} @ {}: DEAD", addrs[s]);
                            }
                            parafile_net::NodeHealth::Unknown => {
                                println!("node {s} @ {}: unknown", addrs[s]);
                            }
                        }
                    }
                    Ok(())
                }
                "shutdown" => {
                    session.shutdown_all().map_err(net_err)?;
                    println!("{} daemon(s) asked to stop", addrs.len());
                    Ok(())
                }
                _ => Err(usage()),
            }
        }
        "scrub" => {
            let verify = args.iter().any(|a| a == "--verify");
            let without_verify: Vec<String> =
                args[1..].iter().filter(|a| *a != "--verify").cloned().collect();
            let (rest, replicas, _tenant) = split_replicas_flag(&without_verify)?;
            let addrs: Vec<String> =
                rest.first().ok_or_else(usage)?.split(',').map(|s| s.trim().to_string()).collect();
            let file = parse_u64(rest.get(1).ok_or_else(usage)?, "file id")?;
            let mut session =
                parafile_net::Session::connect_replicated(&addrs, replicas).map_err(net_err)?;
            let report = if verify {
                session.scrub_verify(file).map_err(net_err)?
            } else {
                session.scrub(file).map_err(net_err)?
            };
            for (s, verdict) in &report.verdicts {
                println!("subfile {s}: {verdict:?}");
            }
            println!(
                "pf-scrub{}: {} repaired, {} unrepaired, {} unreachable cop(ies), {} lost",
                if verify { " (verify)" } else { "" },
                report.repaired,
                report.failed,
                report.skipped,
                report.lost.len()
            );
            // Exit 5 = the file is not fully R-way redundant (some copy
            // is lost, unreachable, or still pending repair), so scripts
            // can gate on scrub convergence.
            if report.fully_redundant() {
                println!("file {file} fully redundant ({replicas} cop(ies) per subfile)");
                Ok(())
            } else {
                println!("file {file} NOT fully redundant");
                std::process::exit(5);
            }
        }
        _ => Err(usage()),
    }
}
