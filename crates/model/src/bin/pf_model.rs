//! `pf-model` — run the bounded protocol model checker.
//!
//! Exit codes: `0` every scenario explored violation-free within budget;
//! `1` an invariant violation was found (expected under `--mutate`);
//! `2` the state budget was exceeded or the arguments were invalid.

use std::process::ExitCode;

use parafile_model::{
    breaker_scenarios, check_everything, quorum_scenarios, standard_scenarios, Limits, Mutations,
};

const USAGE: &str = "\
usage: pf-model [options]
  --mutate <knob>   seed a deliberate protocol bug and expect it caught
                    (ack-before-journal | skip-dedup | ignore-window |
                     ack-below-quorum | stuck-open)
  --budget <N>      total explored-state budget across scenarios
  --depth <D>       maximum interleaving depth per scenario
  --list            list scenarios and exit
  -h, --help        show this help";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut mutations = Mutations::none();
    let mut mutated = false;
    let mut budget: u64 = 500_000;
    let mut limits = Limits::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mutate" => {
                let name = it.next().ok_or("--mutate needs a knob name")?;
                mutations = Mutations::from_name(name)?;
                mutated = true;
            }
            "--budget" => {
                let n = it.next().ok_or("--budget needs a number")?;
                budget = n.parse().map_err(|_| format!("bad budget: {n:?}"))?;
            }
            "--depth" => {
                let d = it.next().ok_or("--depth needs a number")?;
                limits.max_depth = d.parse().map_err(|_| format!("bad depth: {d:?}"))?;
            }
            "--list" => {
                for sc in standard_scenarios() {
                    println!(
                        "{:<20} chunked={} n_chunks={} window={} client=v{} fault={:?}",
                        sc.name,
                        sc.chunked,
                        sc.n_chunks,
                        sc.window,
                        sc.client_version,
                        sc.perturbation
                    );
                }
                for sc in quorum_scenarios() {
                    println!(
                        "{:<20} replicated crash_rank={:?} duplicate={}",
                        sc.name, sc.crash_rank, sc.duplicate
                    );
                }
                for sc in breaker_scenarios() {
                    println!(
                        "{:<20} breaker node_up={} recover={} hedged={} requests={}",
                        sc.name, sc.node_up, sc.can_recover, sc.hedged, sc.requests
                    );
                }
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    // The per-scenario cap is the whole remaining budget; the total is
    // enforced across scenarios below.
    limits.max_states = budget;
    println!(
        "pf-model: exploring {} scenarios (budget {budget} states, depth {}){}",
        standard_scenarios().len() + quorum_scenarios().len() + breaker_scenarios().len(),
        limits.max_depth,
        if mutated { " [mutated]" } else { "" },
    );

    let results = check_everything(&mutations, &limits);
    let mut total: u64 = 0;
    let mut violated = false;
    let mut truncated = false;
    for r in &results {
        total += r.states;
        let status = if let Some(v) = &r.violation {
            violated = true;
            format!("VIOLATION: {}", v.invariant)
        } else if r.truncated {
            truncated = true;
            "BUDGET EXCEEDED".to_string()
        } else {
            "ok".to_string()
        };
        println!("  {:<20} {:>8} states   {status}", r.scenario, r.states);
        if let Some(v) = &r.violation {
            println!("    at depth {}: {}", v.depth, v.state);
        }
        if total > budget {
            truncated = true;
            break;
        }
    }
    println!("total explored states: {total} (budget {budget})");

    if violated {
        println!("model check FAILED: reachable invariant violation");
        return Ok(ExitCode::from(1));
    }
    if truncated {
        println!("model check INCONCLUSIVE: state budget exceeded");
        return Ok(ExitCode::from(2));
    }
    println!("model check passed: all scenarios exhausted, no violations");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pf-model: {msg}");
            ExitCode::from(2)
        }
    }
}
