//! Regenerates the paper's **Table 2** — scatter time at the I/O node — for
//! every matrix size and physical layout, printing simulated values next to
//! the paper's references (µs).
//!
//! ```text
//! cargo run -p pf-bench --release --bin table2 [--reps N] [--sizes 256,512]
//! ```

use clusterfile::PaperScenario;
use jsonlite::{obj, Json, ToJson};
use pf_bench::{dump_json, paper_table2_row, shape_checks, TableArgs};

struct Row {
    size: u64,
    layout: String,
    t_s_bc_us: f64,
    t_s_disk_us: f64,
    t_s_real_us: f64,
    fragments_per_io: f64,
    paper_t_s_bc_us: f64,
    paper_t_s_disk_us: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj![
            ("size", self.size),
            ("layout", self.layout.as_str()),
            ("t_s_bc_us", self.t_s_bc_us),
            ("t_s_disk_us", self.t_s_disk_us),
            ("t_s_real_us", self.t_s_real_us),
            ("fragments_per_io", self.fragments_per_io),
            ("paper_t_s_bc_us", self.paper_t_s_bc_us),
            ("paper_t_s_disk_us", self.paper_t_s_disk_us)
        ]
    }
}

fn main() {
    let args = TableArgs::parse();
    println!("Table 2: scatter time at the I/O node (µs)");
    println!("simulated on the paper-calibrated models (paper values in parentheses)\n");
    println!(
        "{:>5} {:>4} {:>4} {:>20} {:>20} {:>12} {:>10}",
        "size", "phy", "log", "t_s^bc", "t_s^disk", "real(µs)", "frags"
    );

    let mut rows = Vec::new();
    for &size in &args.sizes {
        for layout in pf_bench::paper_layouts() {
            let mut bc = PaperScenario::paper(size, layout, false);
            bc.repetitions = args.reps;
            let bc = bc.run();
            let mut disk = PaperScenario::paper(size, layout, true);
            disk.repetitions = args.reps;
            let disk = disk.run();
            let (p_bc, p_disk) = paper_table2_row(size, layout.label()).unwrap_or((0.0, 0.0));
            println!(
                "{:>5} {:>4} {:>4} {:>11.1} ({:>5.0}) {:>11.1} ({:>6.0}) {:>12.2} {:>10.1}",
                size,
                layout.label(),
                "r",
                bc.t_s_us,
                p_bc,
                disk.t_s_us,
                p_disk,
                bc.t_s_real_us,
                bc.fragments_per_io,
            );
            rows.push(Row {
                size,
                layout: layout.label().to_string(),
                t_s_bc_us: bc.t_s_us,
                t_s_disk_us: disk.t_s_us,
                t_s_real_us: bc.t_s_real_us,
                fragments_per_io: bc.fragments_per_io,
                paper_t_s_bc_us: p_bc,
                paper_t_s_disk_us: p_disk,
            });
        }
        println!();
    }

    let find = |size: u64, l: &str| {
        rows.iter().find(|r| r.size == size && r.layout == l).expect("swept row exists")
    };
    let mut checks: Vec<(String, bool)> = Vec::new();
    for &size in &args.sizes {
        let (c, r) = (find(size, "c"), find(size, "r"));
        checks.push((
            format!("{size}: fragmented layouts cost at least as much to scatter (c ≥ r)"),
            c.t_s_bc_us >= r.t_s_bc_us * 0.95,
        ));
        checks.push((
            format!("{size}: disk writes dominate cache writes"),
            c.t_s_disk_us > 2.0 * c.t_s_bc_us,
        ));
    }
    if args.sizes.len() >= 2 {
        let small = args.sizes[0];
        let big = *args.sizes.last().expect("size sweep is non-empty");
        let conv_small = find(small, "c").t_s_bc_us / find(small, "r").t_s_bc_us;
        let conv_big = find(big, "c").t_s_bc_us / find(big, "r").t_s_bc_us;
        checks.push((
            format!(
                "layouts converge for big messages (c/r: {conv_small:.2} at {small} → \
                 {conv_big:.2} at {big})"
            ),
            conv_big < conv_small || conv_big < 1.15,
        ));
    }
    let held = shape_checks(&checks);

    match dump_json("table2", &rows) {
        Ok(path) => println!("\nresults written to {}", path.display()),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
    if !held {
        std::process::exit(1);
    }
}
