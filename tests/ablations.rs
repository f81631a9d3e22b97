//! The shape claims of EXPERIMENTS.md's Ablations D, E and F, each at the
//! size its claim is made for. E and F compare simulated (bit-identical)
//! write completions; D counts plan compiles.

use arraydist::matrix::MatrixLayout;
use clusterfile::{Clusterfile, ClusterfileConfig, WritePolicy};

/// Every view's full contents; payload bytes do not enter simulated costs.
fn full_view_ops(logical: &parafile::Partition, n: u64) -> Vec<(usize, u64, u64, Vec<u8>)> {
    (0..logical.element_count())
        .map(|c| {
            let len = logical.element_len(c, n * n).expect("view element exists");
            (c, 0, len - 1, (0..len).map(|y| (y % 251) as u8).collect())
        })
        .collect()
}

/// Latest simulated completion (µs) of the four writers' concurrent
/// full-view writes of a column-block file through row-block views.
fn direct_write_us(config: ClusterfileConfig, n: u64) -> f64 {
    let mut fs = Clusterfile::new(config);
    let file = fs.create_file(MatrixLayout::ColumnBlocks.partition(n, n, 1, 4), n * n);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 4);
    for c in 0..4usize {
        fs.set_view(c, file, &logical, c);
    }
    let t = fs.write_group(file, &full_view_ops(&logical, n));
    t.iter().map(|w| w.t_w_sim_ns).max().expect("at least one writer") as f64 / 1e3
}

/// **Ablation F**: when every writer starts at subfile 0, round j sends all
/// payloads to I/O node j. Staggering the start pays more when the inbound
/// link serializes them (1.34× against 1.13× at 2048; at 256 it flips).
#[test]
fn staggering_gains_more_under_rx_contention() {
    let n = 2048;
    let t_w = |contention: bool, staggered: bool| {
        let mut hardware = clustersim::ClusterConfig::paper_testbed(8);
        hardware.network.rx_contention = contention;
        direct_write_us(
            ClusterfileConfig {
                compute_nodes: 4,
                io_nodes: 4,
                hardware,
                write_policy: WritePolicy::BufferCache,
                stagger_writes: staggered,
            },
            n,
        )
    };
    let gain = |contention: bool| t_w(contention, false) / t_w(contention, true);
    let (with, without) = (gain(true), gain(false));
    assert!(
        with > without,
        "staggering gains {with:.3}× with rx contention and {without:.3}× without at {n}"
    );
}

/// **Ablation E**: the two-phase collective write beats direct per-view
/// writes for every write-through column-block case (min 1.17×, at 2048).
#[test]
fn two_phase_beats_direct_on_write_through_column_blocks() {
    let config = ClusterfileConfig::paper_deployment(WritePolicy::WriteThrough);
    for n in [256u64, 512, 1024, 2048] {
        let direct = direct_write_us(config.clone(), n);
        let collective = {
            let mut fs = Clusterfile::new(config.clone());
            let file = fs.create_file(MatrixLayout::ColumnBlocks.partition(n, n, 1, 4), n * n);
            let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 4);
            let data: Vec<Vec<u8>> =
                full_view_ops(&logical, n).into_iter().map(|(.., d)| d).collect();
            let t = fs.collective_write(file, &logical, &data);
            (t.exchange_ns + t.write_ns) as f64 / 1e3
        };
        assert!(
            direct > collective,
            "at {n}: two-phase {collective:.1} µs against direct {direct:.1} µs"
        );
    }
}

/// **Ablation D**: the mapping overhead is "paid at view setting … and can
/// be amortized over several accesses". After one `set_view` on the
/// worst-matching pair, 32 writes through it compile no plan, and the
/// extremity mapping they do pay stays below 100 µs per write.
#[test]
fn writes_after_one_set_view_compile_nothing() {
    let n = 512;
    let mut fs = Clusterfile::new(ClusterfileConfig::paper_deployment(WritePolicy::BufferCache));
    let file = fs.create_file(MatrixLayout::ColumnBlocks.partition(n, n, 1, 4), n * n);
    let logical = MatrixLayout::RowBlocks.partition(n, n, 1, 4);
    fs.set_view(0, file, &logical, 0);
    let misses = fs.plan_engine().stats().misses();
    assert!(misses > 0, "the view set compiles its plan");

    let (_, lo, hi, data) = full_view_ops(&logical, n).swap_remove(0);
    let mut t_m_us: Vec<f64> =
        (0..32).map(|_| fs.write(0, file, lo, hi, &data).t_m.as_secs_f64() * 1e6).collect();
    assert_eq!(fs.plan_engine().stats().misses(), misses, "a write recompiled the view");
    // The median, not the mean: one preempted write must not decide it.
    t_m_us.sort_by(f64::total_cmp);
    let median = t_m_us[t_m_us.len() / 2];
    assert!(median < 100.0, "per-write extremity mapping took {median:.3} µs (median)");
}
