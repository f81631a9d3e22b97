//! A deterministic discrete-event cluster simulator.
//!
//! The paper's evaluation ran on a 2002-era cluster: 16 Pentium III 800 MHz
//! nodes with IDE disks, interconnected by Myrinet, split into compute nodes
//! and I/O nodes. This crate substitutes that testbed with a simulator whose
//! service-time models are calibrated to the same hardware class:
//!
//! * [`NetworkModel`] — LogP-style: per-message overhead + wire latency +
//!   size / bandwidth (Myrinet ≈ 100 MB/s, ≈ 9 µs latency);
//! * [`DiskModel`] — average seek + half-rotation on non-sequential access,
//!   then size / sequential bandwidth (IDE ≈ 25 MB/s);
//! * [`CacheModel`] — buffer-cache writes cost a memcpy (≈ 250 MB/s) and
//!   dirty data can be flushed to the disk model.
//!
//! The *algorithms* under study (intersection, mapping, gather/scatter) run
//! for real on real buffers; only wire and platter service times are
//! simulated, so message counts, sizes and fragmentation — the quantities
//! the paper's claims are about — are produced by the genuine code paths.
//!
//! Events are processed in `(time, sequence)` order, which makes every run
//! bit-for-bit reproducible; see [`Cluster`].
//!
//! # Example
//!
//! ```
//! use clustersim::{Cluster, ClusterConfig};
//!
//! let mut cluster: Cluster<&str> = Cluster::new(ClusterConfig::paper_testbed(2));
//! cluster.send(0, 1, 4096, "write this block");
//! cluster.run_until_idle(|cluster, delivery| {
//!     // Service the request on the receiving node's simulated disk.
//!     cluster.disk_write(delivery.to, 0, delivery.bytes);
//! });
//! assert_eq!(cluster.node_stats(1).disk_bytes, 4096);
//! assert!(cluster.clock(1) > cluster.clock(0), "the disk write dominates");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod devices;
mod stats;
mod trace;

pub use cluster::{Cluster, Delivery, NodeId, SimTime};
pub use devices::{CacheModel, CacheState, ClusterConfig, DiskModel, DiskState, NetworkModel};
pub use stats::{ClusterStats, NodeStats};
pub use trace::{TraceEntry, TraceKind};
