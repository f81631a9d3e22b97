//! `pfbench` — the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and what each is predicted
//! to move.
//!
//! ```text
//! pfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! pfbench sets [--sets 2] [--seed n] [--seconds s]                    self-agreement
//! pfbench compare <a.json> <b.json>                                   two saved sets
//! ```

mod cluster;
mod compare;
mod counters;
mod layers;
mod metrics;
mod pin;
mod rec;
mod refview;
mod run;
mod stats;
mod workloads;

use compare::Set;
use jsonlite::Json;
use run::{Config, Outcome};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: counters::CountingAlloc = counters::CountingAlloc;

const USAGE: &str = "usage:
  pfbench [run] --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  pfbench sets [--sets <k>] [--seed <n>] [--seconds <s>]
  pfbench compare <a.json> <b.json>
workloads: viewset_churn small_ops bulk_rowcol_disk reshard_4to3";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("sets") => cmd_sets(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some(_) => cmd_run(&args),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and bare flags, in any order.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            None if self.has(key) => Err(format!("{key} needs a value")),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = Flags(args);
    let workload = f.value("--workload").ok_or(USAGE)?.to_string();
    let smoke = f.has("--smoke");
    let seconds = match f.parsed::<f64>("--seconds")? {
        Some(s) if s > 0.0 => s,
        Some(_) => return Err("--seconds must be positive".into()),
        None if smoke => 0.0,
        None => return Err(USAGE.into()),
    };
    let cfg = Config {
        workload,
        seed: f.parsed("--seed")?.unwrap_or(1),
        seconds,
        tracing: match f.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke,
    };
    let hygiene = Hygiene::collect();
    let outcome = run::run(&cfg)?;
    print!("{}", report(&cfg, &outcome, &hygiene));
    println!("{}", result_line(&outcome).render());
    Ok(outcome.correct())
}

/// Facts about the run's surroundings, recorded in the report header.
struct Hygiene {
    nproc: usize,
    rustc: String,
    commit: String,
}

impl Hygiene {
    fn collect() -> Self {
        let first_line = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".into())
        };
        Self {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

fn report(cfg: &Config, o: &Outcome, h: &Hygiene) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "pfbench {} seed {} trace {}", o.workload, o.seed, u8::from(o.tracing));
    if let Some(info) = workloads::info(&o.workload) {
        let _ = writeln!(s, "  why              {}", info.why);
    }
    let _ = writeln!(
        s,
        "  transport        loopback TCP, in-process daemons (4 nodes x 2 reactor workers)"
    );
    let _ = writeln!(s, "  nproc            {}, run confined to CPU {}", h.nproc, o.cpu);
    let _ = writeln!(s, "  rustc            {}", h.rustc);
    let _ = writeln!(s, "  commit           {}", h.commit);
    let _ = writeln!(
        s,
        "  backend          {}",
        o.backend_dir
            .as_ref()
            .map_or("memory".into(), |d| format!("directory {d} (removed on exit)"))
    );
    if cfg.smoke {
        let _ = writeln!(
            s,
            "  rounds           {} measured (smoke: light rounds, one set-up)",
            o.rounds
        );
    } else {
        let _ = writeln!(s, "  set-up           {} repetitions, median reported", run::SETUP_REPS);
        let _ = writeln!(s, "  rounds           {} measured in {} s", o.rounds, cfg.seconds);
    }
    let _ =
        writeln!(s, "  percentiles      per {} consecutive samples, median block", stats::BLOCK);
    let _ = writeln!(s, "  operations       {} attempted, {} failed", o.attempted, o.failed);
    if o.rounds < 60 {
        let _ =
            writeln!(s, "  WARNING          fewer than 60 measured rounds: medians are not steady");
    }
    if let Some(p) = &o.trace_path {
        let _ = writeln!(s, "  spans            {p}");
    }
    for e in &o.errors {
        let _ = writeln!(s, "  FAILED           {e}");
    }
    for (title, family) in [("metrics", &o.metrics), ("also measured", &o.also)] {
        if family.is_empty() {
            continue;
        }
        let _ = writeln!(s, "{title}:");
        for (name, value) in family {
            let _ =
                writeln!(s, "  {name:<44} {value:>16.4} {}", metrics::unit_of(name).unwrap_or(""));
        }
    }
    s
}

/// The last line of a run: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_line(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = metrics::unit_of(name).unwrap_or("");
            let m = Json::Object(vec![
                ("value".into(), Json::Float(*value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), m)
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(o.correct())),
        ("attempted".into(), Json::UInt(o.attempted)),
        ("failed".into(), Json::UInt(o.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ])
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.into()) };
    let load = |path: &String| -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Set::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (table, ok) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(ok)
}

/// Untraced runs per workload in a set: the fewest a spread, hence the
/// `unresolved` verdict, can be taken from.
const SET_REPS: u64 = 3;

/// Runs every workload `--sets` times over, alternating the order between
/// sets, each run in a process of its own, then compares consecutive sets:
/// the self-agreement check. Each set holds [`SET_REPS`] untraced runs
/// (seeds `seed`, `seed + 1`, …) and one traced run per workload.
fn cmd_sets(args: &[String]) -> Result<bool, String> {
    let f = Flags(args);
    let sets: usize = f.parsed("--sets")?.unwrap_or(2);
    let seed: u64 = f.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = f.parsed("--seconds")?.unwrap_or(25.0);
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out_dir = cluster::trace_dir().map_err(|e| format!("output directory: {e}"))?;
    let one = |workload: &str, seed: u64, trace: bool| -> Result<Json, String> {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        Json::parse(last).map_err(|e| {
            format!(
                "{workload} seed {seed}: no result line ({e}); stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
    };
    let mut done: Vec<Set> = Vec::new();
    for k in 0..sets {
        let mut set = Set::default();
        let mut order: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        if k % 2 == 1 {
            order.reverse();
        }
        for w in order {
            for r in 0..SET_REPS {
                eprintln!("set {k}: {w} seed {} untraced", seed + r);
                set.add(w, false, &one(w, seed + r, false)?)?;
            }
            eprintln!("set {k}: {w} seed {seed} traced");
            set.add(w, true, &one(w, seed, true)?)?;
        }
        let path = out_dir.join(format!("set{k}.json"));
        std::fs::write(&path, set.to_json().render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("set {k} -> {}", path.display());
        done.push(set);
    }
    let mut all_ok = true;
    for (k, pair) in done.windows(2).enumerate() {
        println!("\nset {} (b) against set {k} (a):", k + 1);
        let (table, ok) = compare::compare(&pair[0], &pair[1]);
        print!("{table}");
        all_ok &= ok;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, EXACT_COUNTS, PER_LAYER};

    fn smoke(workload: &str, tracing: bool) -> Outcome {
        let cfg =
            Config { workload: workload.into(), seed: 42, seconds: 0.0, tracing, smoke: true };
        run::run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    /// The smoke path: three rounds of every workload, untraced and traced.
    /// Nothing may fail, every listed metric must be present and finite,
    /// and the exact structural counts must repeat between two traced runs
    /// of one seed. One test, so the runs do not overlap in this process.
    #[test]
    fn smoke_every_workload_reports_every_metric_and_fails_nothing() {
        for w in &workloads::WORKLOADS {
            let plain = smoke(w.name, false);
            assert_eq!(plain.failed, 0, "{}: {:?}", w.name, plain.errors);
            assert!(plain.attempted > 0 && plain.rounds == run::SMOKE_ROUNDS);
            for m in &END_TO_END {
                let v = plain
                    .metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{}: no {}", w.name, m.name));
                assert!(v.is_finite() && *v > 0.0, "{}: {} = {v}", w.name, m.name);
            }
            assert_eq!(plain.metrics.len(), END_TO_END.len());

            let (a, b) = (smoke(w.name, true), smoke(w.name, true));
            assert_eq!(a.failed + b.failed, 0, "{}: {:?} {:?}", w.name, a.errors, b.errors);
            for m in &PER_LAYER {
                let v =
                    a.metrics.get(m.name).unwrap_or_else(|| panic!("{}: no {}", w.name, m.name));
                assert!(v.is_finite(), "{}: {} = {v}", w.name, m.name);
            }
            assert_eq!(a.metrics.len(), PER_LAYER.len());
            for name in EXACT_COUNTS {
                assert_eq!(
                    a.metrics[name].to_bits(),
                    b.metrics[name].to_bits(),
                    "{}: {name}",
                    w.name
                );
            }
            assert!(a.trace_path.is_some());
            let line = result_line(&a).render();
            let keys = Json::parse(&line).unwrap().keys().join(",");
            assert_eq!(keys, "correct,attempted,failed,metrics");
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("no {key}"))
                .iter()
                .map(|m| {
                    let s =
                        |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        for (m, j) in END_TO_END.iter().zip(doc.get("end_to_end").and_then(Json::as_array).unwrap())
        {
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        }
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            workloads::WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(listed, ours);
    }
}
