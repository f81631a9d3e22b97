//! Regenerates the paper's **Table 1** — write-time breakdown at the compute
//! node — for every matrix size and physical layout, under both write
//! policies, and prints it next to the paper's reference values.
//!
//! ```text
//! cargo run -p pf-bench --release --bin table1 [--reps N] [--sizes 256,512]
//! ```
//!
//! `t_i`, `t_m`, `t_g` are real measured wall-clock of the actual algorithms
//! (today's CPU, so absolute values are far below the paper's 800 MHz
//! numbers; orderings and size-(in)dependence are the reproduction target).
//! `t_w` is simulated on the paper-calibrated hardware models and lands in
//! the paper's magnitude range.

use clusterfile::PaperScenario;
use jsonlite::{obj, Json, ToJson};
use pf_bench::{dump_json, paper_table1_row, ratio, shape_checks, TableArgs};

struct Row {
    size: u64,
    layout: String,
    t_i_us: f64,
    t_m_us: f64,
    t_g_us: f64,
    t_w_bc_us: f64,
    t_w_disk_us: f64,
    paper_t_i_us: f64,
    paper_t_m_us: f64,
    paper_t_g_us: f64,
    paper_t_w_bc_us: f64,
    paper_t_w_disk_us: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj![
            ("size", self.size),
            ("layout", self.layout.as_str()),
            ("t_i_us", self.t_i_us),
            ("t_m_us", self.t_m_us),
            ("t_g_us", self.t_g_us),
            ("t_w_bc_us", self.t_w_bc_us),
            ("t_w_disk_us", self.t_w_disk_us),
            ("paper_t_i_us", self.paper_t_i_us),
            ("paper_t_m_us", self.paper_t_m_us),
            ("paper_t_g_us", self.paper_t_g_us),
            ("paper_t_w_bc_us", self.paper_t_w_bc_us),
            ("paper_t_w_disk_us", self.paper_t_w_disk_us)
        ]
    }
}

fn main() {
    let args = TableArgs::parse();
    println!("Table 1: write time breakdown at the compute node (µs)");
    println!("logical distribution: row blocks over 4 compute nodes; 4 I/O nodes");
    println!("t_i/t_m/t_g: real measured; t_w: simulated (paper values in parentheses)\n");
    println!(
        "{:>5} {:>4} {:>4} {:>18} {:>16} {:>18} {:>22} {:>22}",
        "size", "phy", "log", "t_i", "t_m", "t_g", "t_w^bc", "t_w^disk"
    );

    // Scenarios run sequentially on purpose: t_i/t_m/t_g are *real*
    // wall-clock measurements, and concurrent workers would pollute them
    // with scheduler contention.
    let mut rows = Vec::new();
    for &size in &args.sizes {
        for layout in pf_bench::paper_layouts() {
            let mut bc = PaperScenario::paper(size, layout, false);
            bc.repetitions = args.reps;
            let bc = bc.run();
            let mut disk = PaperScenario::paper(size, layout, true);
            disk.repetitions = args.reps;
            let disk = disk.run();

            let (p_ti, p_tm, p_tg, p_twbc, p_twd) =
                paper_table1_row(size, layout.label()).unwrap_or((0.0, 0.0, 0.0, 0.0, 0.0));
            println!(
                "{:>5} {:>4} {:>4} {:>9.1} ({:>6.0}) {:>7.2} ({:>4.0}) {:>9.1} ({:>6.0}) {:>12.1} ({:>6.0}) {:>12.1} ({:>6.0})",
                size,
                layout.label(),
                "r",
                bc.t_i_us,
                p_ti,
                bc.t_m_us,
                p_tm,
                bc.t_g_us,
                p_tg,
                bc.t_w_us,
                p_twbc,
                disk.t_w_us,
                p_twd,
            );
            rows.push(Row {
                size,
                layout: layout.label().to_string(),
                t_i_us: bc.t_i_us,
                t_m_us: bc.t_m_us,
                t_g_us: bc.t_g_us,
                t_w_bc_us: bc.t_w_us,
                t_w_disk_us: disk.t_w_us,
                paper_t_i_us: p_ti,
                paper_t_m_us: p_tm,
                paper_t_g_us: p_tg,
                paper_t_w_bc_us: p_twbc,
                paper_t_w_disk_us: p_twd,
            });
        }
        println!();
    }

    // Shape summary: the qualitative claims the reproduction must satisfy.
    let find = |size: u64, l: &str| {
        rows.iter().find(|r| r.size == size && r.layout == l).expect("swept row exists")
    };
    let mut checks: Vec<(String, bool)> = Vec::new();
    for &size in &args.sizes {
        let (c, b, r) = (find(size, "c"), find(size, "b"), find(size, "r"));
        checks.push((
            format!("{size}: t_g ordering c>b>r=0"),
            c.t_g_us > b.t_g_us && b.t_g_us > 0.0 && r.t_g_us == 0.0,
        ));
        checks.push((format!("{size}: t_m zero only for r"), r.t_m_us == 0.0 && c.t_m_us > 0.0));
        checks.push((
            format!("{size}: t_i ordering c>b>r"),
            c.t_i_us > b.t_i_us && b.t_i_us > r.t_i_us,
        ));
        checks.push((
            format!("{size}: t_w^bc ordering c>b>r"),
            c.t_w_bc_us > b.t_w_bc_us && b.t_w_bc_us > r.t_w_bc_us,
        ));
        checks.push((
            format!("{size}: disk > cache for every layout"),
            c.t_w_disk_us > c.t_w_bc_us
                && b.t_w_disk_us > b.t_w_bc_us
                && r.t_w_disk_us > r.t_w_bc_us,
        ));
    }
    if args.sizes.len() >= 2 {
        let lo = find(args.sizes[0], "c").t_i_us;
        let hi = find(*args.sizes.last().expect("size sweep is non-empty"), "c").t_i_us;
        checks.push((
            format!("t_i roughly size-independent (c: {lo:.1} → {hi:.1} µs across the sweep)"),
            ratio(hi, lo) < 2.0,
        ));
    }
    let held = shape_checks(&checks);

    match dump_json("table1", &rows) {
        Ok(path) => println!("\nresults written to {}", path.display()),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
    if !held {
        std::process::exit(1);
    }
}
