//! Clusterfile — the case-study parallel file system of §8 of the paper,
//! rebuilt over the [`clustersim`] discrete-event cluster.
//!
//! The cluster's nodes are split into *compute nodes* and *I/O nodes*. A
//! file is physically partitioned into subfiles (one per I/O node) and
//! logically partitioned into views (one per compute process), both
//! described by the [`parafile`] file model. The write path follows the
//! paper's pseudocode exactly:
//!
//! 1. **View set** — the compute node intersects its view with every
//!    subfile, keeps `PROJ_V(V∩S)` locally and sends `PROJ_S(V∩S)` to the
//!    subfile's I/O node. This is where the redistribution machinery runs;
//!    its cost (`t_i`) is paid once and amortized over all later accesses.
//! 2. **Write** — for each intersecting subfile the compute node maps the
//!    access interval's extremities onto the subfile (`t_m`), gathers the
//!    non-contiguous view data into a message buffer unless the projection
//!    is contiguous (`t_g`), and sends it. The I/O node scatters the
//!    received buffer into the subfile through the buffer cache (`t_s`),
//!    optionally writing through to disk.
//!
//! Real CPU phases (intersections, mappings, gathers, scatters) execute on
//! real buffers and are measured with wall-clock timers; network and
//! storage service times come from the simulator models. See DESIGN.md §5
//! for how this substitution preserves the paper's claims.

//! # Example
//!
//! ```
//! use arraydist::matrix::MatrixLayout;
//! use clusterfile::{Clusterfile, ClusterfileConfig, WritePolicy};
//!
//! let mut fs = Clusterfile::new(ClusterfileConfig::paper_deployment(
//!     WritePolicy::BufferCache,
//! ));
//! // 16×16 byte matrix stored as column blocks over 4 I/O nodes.
//! let file = fs.create_file(MatrixLayout::ColumnBlocks.partition(16, 16, 1, 4), 256);
//! // Compute node 0 views the first 4 rows.
//! let logical = MatrixLayout::RowBlocks.partition(16, 16, 1, 4);
//! fs.set_view(0, file, &logical, 0);
//! let data = vec![7u8; 64];
//! let timings = fs.write(0, file, 0, 63, &data);
//! assert_eq!(timings.messages, 4, "a row view scatters over all 4 column subfiles");
//! assert_eq!(fs.read(0, file, 0, 63), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
mod collective;
mod fs;
pub mod journal;
mod relayout;
pub mod scenario;
pub mod storage;
mod timing;

pub use checksum::{crc32c, ChecksumMap, CHECKSUM_PAGE};
pub use collective::CollectiveTimings;
pub use fs::{Clusterfile, ClusterfileConfig, FileId, WritePolicy};
pub use journal::{IntentRecord, Journal, RecoveryReport};
pub use relayout::{relayout, relayout_cost, RelayoutReport};
pub use scenario::{PaperScenario, ScenarioResult};
pub use storage::{coalesce_runs, BatchOp, Cqe, IoBatch, StorageBackend, SubfileStore};
pub use timing::{IoTimings, ViewSetTimings, WriteTimings};
