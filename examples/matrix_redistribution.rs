//! Redistributing a 2-D matrix between HPF-style layouts — the workload the
//! paper's introduction motivates: arrays stored on parallel disks in one
//! distribution and consumed by processors in another.
//!
//! Also times the two ablations behind the paper's §3 and §7 choices:
//! segment redistribution against byte-by-byte copying (Ablation A), and the
//! periodic `INTERSECT-FALLS` against a merge over every segment pair
//! (Ablation B). Both assert that the two strategies agree.
//!
//! Run with: `cargo run -p pf-examples --release --example matrix_redistribution`

use arraydist::dist::{ArrayDistribution, DimDist};
use arraydist::grid::ProcGrid;
use arraydist::matrix::MatrixLayout;
use falls::Falls;
use parafile::matching::MatchingDegree;
use parafile::plan::RedistributionPlan;
use parafile::redist::{intersect_falls, intersect_falls_merge, redistribute_bytewise};
use parafile::Mapper;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every byte a union of FALLS selects, ascending.
fn bytes_of(fs: &[Falls]) -> Vec<u64> {
    let mut v: Vec<u64> =
        fs.iter().flat_map(|f| f.segments().flat_map(|s| s.l()..=s.r())).collect();
    v.sort_unstable();
    v
}

/// Mean wall-clock of one call of `f` over `reps` calls.
fn per_call<T>(reps: u32, f: impl Fn() -> T) -> Duration {
    let t = Instant::now();
    (0..reps).for_each(|_| drop(black_box(f())));
    t.elapsed() / reps
}

fn main() {
    let n = 512u64;
    let file_len = n * n;

    // Source: the matrix lives on 4 disks as square blocks.
    let src = MatrixLayout::SquareBlocks.partition(n, n, 1, 4);
    // Destination: 8 processors want block-cyclic rows × cyclic columns.
    let dst = ArrayDistribution::new(
        vec![n, n],
        1,
        vec![DimDist::BlockCyclic(16), DimDist::Cyclic],
        ProcGrid::new(vec![4, 2]),
    )
    .partition(0);

    println!("redistributing a {n}×{n} byte matrix");
    println!("  src: square blocks over 4 disks");
    println!("  dst: CYCLIC(16) rows × CYCLIC columns over a 4×2 grid");

    // Fill source buffers with a recognizable pattern.
    let src_bufs: Vec<Vec<u8>> = (0..src.element_count())
        .map(|e| {
            let m = Mapper::new(&src, e);
            (0..src.element_len(e, file_len).unwrap()).map(|y| (m.unmap(y) % 251) as u8).collect()
        })
        .collect();
    let mut dst_bufs: Vec<Vec<u8>> = (0..dst.element_count())
        .map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize])
        .collect();

    // Plan (the paper's view-set analogue) …
    let t0 = Instant::now();
    let plan = RedistributionPlan::build(&src, &dst).unwrap();
    let plan_time = t0.elapsed();
    let degree = MatchingDegree::from_plan(&plan, &dst);
    println!(
        "  plan: {} runs/period, mean run {:.1} B, matching degree {:.3} ({:.1?} to build)",
        plan.runs_per_period(),
        degree.mean_run_len,
        degree.degree,
        plan_time
    );

    // … then move the data with segment copies.
    let t1 = Instant::now();
    let moved = plan.apply(&src_bufs, &mut dst_bufs, file_len);
    let seg_time = t1.elapsed();
    println!("  segment redistribution: {moved} bytes in {seg_time:.1?}");

    // Verify every destination byte.
    for (e, buf) in dst_bufs.iter().enumerate() {
        let m = Mapper::new(&dst, e);
        for (y, &v) in buf.iter().enumerate() {
            assert_eq!(v, (m.unmap(y as u64) % 251) as u8, "element {e} offset {y}");
        }
    }
    println!("  verified: every byte landed at its MAP⁻¹ position");

    // The byte-by-byte strawman of §3, for contrast.
    let mut dst_bufs2: Vec<Vec<u8>> = dst_bufs.iter().map(|b| vec![0u8; b.len()]).collect();
    let t2 = Instant::now();
    redistribute_bytewise(&src, &dst, &src_bufs, &mut dst_bufs2, file_len);
    let byte_time = t2.elapsed();
    println!(
        "  byte-by-byte baseline: {byte_time:.1?} ({:.1}× slower)",
        byte_time.as_secs_f64() / seg_time.as_secs_f64()
    );
    assert_eq!(dst_bufs, dst_bufs2, "both strategies agree on the result");

    // Ablation B: the periodic INTERSECT-FALLS costs O(segment pairs per
    // lcm period) however many segments the families hold; the merge
    // reference walks every segment.
    println!("INTERSECT-FALLS, strides 6 and 10 (period 30):");
    for n in [16u64, 256, 4096] {
        let f1 = Falls::new(1, 2, 6, n).unwrap();
        let f2 = Falls::new(0, 3, 10, (n * 6) / 10 + 1).unwrap();
        assert_eq!(
            bytes_of(&intersect_falls(&f1, &f2)),
            bytes_of(&intersect_falls_merge(&f1, &f2)),
            "periodic and merge intersections agree at n = {n}"
        );
        let periodic = per_call(1000, || intersect_falls(black_box(&f1), black_box(&f2)));
        let merge = per_call(100, || intersect_falls_merge(black_box(&f1), black_box(&f2)));
        println!("  n = {n:>4} segments: periodic {periodic:>9.1?}, merge {merge:>9.1?}");
    }
    println!("  verified: both intersections select the same bytes");
}
