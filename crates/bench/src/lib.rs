//! Shared harness code for regenerating the paper's tables and our
//! ablations: the paper's reference numbers, result records, table
//! formatting and JSON persistence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arraydist::matrix::MatrixLayout;
use jsonlite::ToJson;
use std::path::PathBuf;

/// The paper's matrix sizes (bytes per side).
pub const PAPER_SIZES: [u64; 4] = [256, 512, 1024, 2048];

/// One reference row of the paper's Table 1 (write-time breakdown at the
/// compute node, µs): `(size, layout, t_i, t_m, t_g, t_w_bc, t_w_disk)`.
pub const PAPER_TABLE1: [(u64, &str, f64, f64, f64, f64, f64); 12] = [
    (256, "c", 1229.0, 9.0, 344.0, 1205.0, 4346.0),
    (256, "b", 514.0, 4.0, 203.0, 831.0, 2191.0),
    (256, "r", 310.0, 0.0, 0.0, 510.0, 1455.0),
    (512, "c", 1096.0, 11.0, 940.0, 2871.0, 7614.0),
    (512, "b", 506.0, 6.0, 568.0, 2294.0, 5900.0),
    (512, "r", 333.0, 0.0, 0.0, 1425.0, 4018.0),
    (1024, "c", 1136.0, 18.0, 2414.0, 9237.0, 22309.0),
    (1024, "b", 518.0, 9.0, 1703.0, 7104.0, 19375.0),
    (1024, "r", 318.0, 0.0, 0.0, 5340.0, 15136.0),
    (2048, "c", 1222.0, 22.0, 6501.0, 30781.0, 80793.0),
    (2048, "b", 503.0, 11.0, 5496.0, 26184.0, 71358.0),
    (2048, "r", 296.0, 0.0, 0.0, 20333.0, 56475.0),
];

/// One reference row of the paper's Table 2 (scatter time at the I/O node,
/// µs): `(size, layout, t_s_bc, t_s_disk)`.
pub const PAPER_TABLE2: [(u64, &str, f64, f64); 12] = [
    (256, "c", 87.0, 2255.0),
    (256, "b", 61.0, 1278.0),
    (256, "r", 45.0, 918.0),
    (512, "c", 292.0, 3593.0),
    (512, "b", 261.0, 3095.0),
    (512, "r", 219.0, 2717.0),
    (1024, "c", 1096.0, 10602.0),
    (1024, "b", 1068.0, 10622.0),
    (1024, "r", 1194.0, 10951.0),
    (2048, "c", 4942.0, 41684.0),
    (2048, "b", 4919.0, 41178.0),
    (2048, "r", 5081.0, 41179.0),
];

/// Looks up a paper Table 1 reference row.
#[must_use]
pub fn paper_table1_row(size: u64, layout: &str) -> Option<(f64, f64, f64, f64, f64)> {
    PAPER_TABLE1
        .iter()
        .find(|(s, l, ..)| *s == size && *l == layout)
        .map(|&(_, _, ti, tm, tg, twbc, twd)| (ti, tm, tg, twbc, twd))
}

/// Looks up a paper Table 2 reference row.
#[must_use]
pub fn paper_table2_row(size: u64, layout: &str) -> Option<(f64, f64)> {
    PAPER_TABLE2
        .iter()
        .find(|(s, l, ..)| *s == size && *l == layout)
        .map(|&(_, _, bc, disk)| (bc, disk))
}

/// The three physical layouts in the paper's table order (`c`, `b`, `r`).
#[must_use]
pub fn paper_layouts() -> [MatrixLayout; 3] {
    MatrixLayout::all()
}

/// Writes a JSON-convertible result set to `bench_results/<name>.json`
/// under the workspace root, creating the directory as needed. Returns the
/// path.
pub fn dump_json<T: ToJson>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().render_pretty())?;
    Ok(path)
}

/// The directory bench results are persisted into.
fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("bench_results");
    p
}

/// Parses `--reps N` / `--sizes a,b,c` style command-line overrides used by
/// the table binaries.
#[derive(Debug, Clone)]
pub struct TableArgs {
    /// Repetitions per configuration.
    pub reps: usize,
    /// Matrix sizes to sweep.
    pub sizes: Vec<u64>,
}

impl TableArgs {
    /// Parses `std::env::args`, defaulting to 5 repetitions over the paper's
    /// sizes.
    #[must_use]
    pub fn parse() -> Self {
        let mut reps = 5usize;
        let mut sizes: Vec<u64> = PAPER_SIZES.to_vec();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--reps" => {
                    reps = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--reps needs a number");
                    i += 2;
                }
                "--sizes" => {
                    sizes = args
                        .get(i + 1)
                        .expect("--sizes needs a list")
                        .split(',')
                        .map(|v| v.parse().expect("size must be a number"))
                        .collect();
                    i += 2;
                }
                other => {
                    eprintln!("unknown argument {other}; supported: --reps N, --sizes a,b,c");
                    std::process::exit(2);
                }
            }
        }
        Self { reps, sizes }
    }
}

/// Prints the shape checks of a table binary, one `[ok]`/`[FAIL]` line
/// each, and returns whether all of them held — the binary exits 1
/// otherwise, so a script or CI step can gate on the paper's orderings.
pub fn shape_checks(checks: &[(String, bool)]) -> bool {
    println!("shape checks:");
    for (name, ok) in checks {
        println!("  [{}] {}", if *ok { "ok" } else { "FAIL" }, name);
    }
    checks.iter().all(|&(_, ok)| ok)
}

/// Relative deviation helper used in table footers: `ours / paper`.
#[must_use]
pub fn ratio(ours: f64, paper: f64) -> f64 {
    if paper == 0.0 {
        if ours == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        ours / paper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_rows_cover_the_sweep() {
        for size in PAPER_SIZES {
            for layout in ["c", "b", "r"] {
                assert!(paper_table1_row(size, layout).is_some());
                assert!(paper_table2_row(size, layout).is_some());
            }
        }
        assert!(paper_table1_row(128, "c").is_none());
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(1.0, 0.0), f64::INFINITY);
        assert!((ratio(2.0, 4.0) - 0.5).abs() < 1e-12);
    }
}
