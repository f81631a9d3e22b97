//! The metric tables. `BENCHMARK.json` at the repository root repeats
//! them; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
///
/// Each bound is three times the widest spread (interquartile range over
/// median of ten 25 s runs of one commit, each with its own seed) the metric
/// showed on any workload in three such passes, rounded up to the next 0.05:
/// 0.049 for `round_p50_ms`, 0.064 and 0.060 for the two latencies (both on
/// `reshard_4to3`, whose two client threads share the one CPU by time
/// slice), 0.045 and 0.054 for the two throughputs. `setup_s` is gated on
/// medians only and has the contract's largest bound. The warm view-set
/// (0.25 on `reshard_4to3`), the tail percentiles (0.23 on
/// `bulk_rowcol_disk`, which has one block of samples) and the flush time
/// spread too widely to gate and are layer metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "round_p50_ms", unit: "ms", better: Lower, bound: 0.15 },
    EndToEnd { name: "write_p50_us", unit: "us", better: Lower, bound: 0.20 },
    EndToEnd { name: "read_p50_us", unit: "us", better: Lower, bound: 0.20 },
    EndToEnd { name: "write_mib_s", unit: "MiB/s", better: Higher, bound: 0.15 },
    EndToEnd { name: "read_mib_s", unit: "MiB/s", better: Higher, bound: 0.20 },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single layers, from the traced run. No bounds: they explain a change in
/// an end-to-end metric, they do not gate one.
pub const PER_LAYER: [PerLayer; 45] = [
    layer("arraydist.partition_us", "us", Lower),
    layer("core.redist.compile_us", "us", Lower),
    layer("core.engine.compile_cold_us", "us", Lower),
    layer("core.engine.compile_hit_us", "us", Lower),
    layer("core.engine.hit_ratio", "ratio", Higher),
    layer("core.engine.plan_runs", "count", Lower),
    layer("audit.pattern_us", "us", Lower),
    layer("core.mapping.extremities_us", "us", Lower),
    layer("core.sg.gather_us_per_mib", "us/MiB", Lower),
    layer("core.sg.scatter_us_per_mib", "us/MiB", Lower),
    layer("net.wire.encode_us_per_mib", "us/MiB", Lower),
    layer("net.wire.decode_us_per_mib", "us/MiB", Lower),
    layer("net.wire.encode_1k_us", "us", Lower),
    layer("net.wire.decode_1k_us", "us", Lower),
    layer("net.wire.bytes_per_payload_byte", "ratio", Lower),
    layer("net.wire.setview_bytes", "bytes", Lower),
    layer("net.session.probe_rtt_us", "us", Lower),
    layer("net.residual_us", "us", Lower),
    layer("session.set_view_cold_us", "us", Lower),
    layer("session.set_view_warm_us", "us", Lower),
    layer("session.write_p99_us", "us", Lower),
    layer("session.read_p99_us", "us", Lower),
    layer("session.flush_p50_ms", "ms", Lower),
    layer("session.retries_per_op", "ratio", Lower),
    layer("session.hedged_reads", "count", Lower),
    layer("server.msgs_per_op", "ratio", Lower),
    layer("server.fragments_per_op", "ratio", Lower),
    layer("clusterfile.storage.scatter_mem_us_per_mib", "us/MiB", Lower),
    layer("clusterfile.storage.scatter_file_us_per_mib", "us/MiB", Lower),
    layer("clusterfile.storage.gather_file_us_per_mib", "us/MiB", Lower),
    layer("clusterfile.journal.append_us_per_mib", "us/MiB", Lower),
    layer("clusterfile.journal.checkpoint_us", "us", Lower),
    layer("clusterfile.checksum.record_us_per_mib", "us/MiB", Lower),
    layer("clusterfile.checksum.crc32c_us_per_mib", "us/MiB", Lower),
    layer("process.syscr_per_op", "ratio", Lower),
    layer("process.syscw_per_op", "ratio", Lower),
    layer("process.wchar_per_payload_byte", "ratio", Lower),
    layer("process.ctx_switches_per_op", "ratio", Lower),
    layer("process.cpu_us_per_op", "us", Lower),
    layer("process.cpu_s_per_gib", "s/GiB", Lower),
    layer("process.allocs_per_op", "ratio", Lower),
    layer("process.alloc_bytes_per_payload_byte", "ratio", Lower),
    // The traced run's own end-to-end medians: divided by the untraced
    // run's they give the tracing overhead.
    layer("traced.round_p50_ms", "ms", Lower),
    layer("traced.write_p50_us", "us", Lower),
    layer("traced.read_p50_us", "us", Lower),
];

/// Layer metrics that are exact counts of the workload's structure: equal
/// between any two runs of one commit with one seed.
pub const EXACT_COUNTS: [&str; 4] = [
    "server.msgs_per_op",
    "server.fragments_per_op",
    "core.engine.plan_runs",
    "net.wire.bytes_per_payload_byte",
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
        // What the session saw but no table lists carries its unit in its name.
        .or_else(|| ["us", "ms", "s"].into_iter().find(|u| name.ends_with(&format!("_{u}"))))
}
