//! `parafile` — the parallel file model, mapping functions and data
//! redistribution algorithm of Isaila & Tichy, *"Mapping Functions and Data
//! Redistribution for Parallel Files"* (IPPS 2002).
//!
//! A parallel file is a linear sequence of bytes described by a
//! *displacement* and a *partitioning pattern*: a union of sets of nested
//! FALLS (see the [`falls`] crate), each set defining one partition element.
//! The same model describes **physical** partitions (subfiles stored on the
//! disks of I/O nodes) and **logical** partitions (views set by compute
//! processes).
//!
//! The crate provides:
//!
//! * [`model`] — [`PartitionPattern`] / [`Partition`] with full validation
//!   (elements tile a contiguous region without overlap);
//! * [`mapping`] — the `MAP`/`MAP⁻¹` mapping functions between file offsets
//!   and partition-element offsets, their *next*/*previous* rounding
//!   variants, and composition between two partitions;
//! * [`redist`] — `CUT-FALLS`, `INTERSECT-FALLS`, the nested-FALLS
//!   intersection algorithm with its PREPROCESS phase, intersection
//!   projections, and a byte-by-byte baseline for comparison;
//! * [`plan`] — redistribution plans: per-element-pair transfer schedules of
//!   maximal contiguous copy runs, applicable to real byte buffers;
//! * [`sg`] — the `GATHER`/`SCATTER` procedures copying between
//!   non-contiguous regions and contiguous buffers;
//! * [`matching`] — quantitative *matching degree* metrics between two
//!   partitions (the paper's §9 future work);
//! * [`crc`] — the CRC-32 kernel behind every checksummed on-disk format.
//!
//! # Quickstart
//!
//! ```
//! use falls::{Falls, NestedFalls, NestedSet};
//! use parafile::model::{Partition, PartitionPattern};
//! use parafile::mapping::Mapper;
//!
//! // The paper's Figure 3: a file partitioned into three subfiles by the
//! // FALLS (0,1,6,1), (2,3,6,1) and (4,5,6,1); displacement 2.
//! let pattern = PartitionPattern::new(vec![
//!     NestedSet::singleton(NestedFalls::leaf(Falls::new(0, 1, 6, 1).unwrap())),
//!     NestedSet::singleton(NestedFalls::leaf(Falls::new(2, 3, 6, 1).unwrap())),
//!     NestedSet::singleton(NestedFalls::leaf(Falls::new(4, 5, 6, 1).unwrap())),
//! ]).unwrap();
//! let partition = Partition::new(2, pattern);
//!
//! // Byte 10 of the file falls on subfile 1, at subfile offset 2.
//! let mapper = Mapper::new(&partition, 1);
//! assert_eq!(mapper.map(10), Some(2));
//! assert_eq!(mapper.unmap(2), 10);
//! ```

// `deny` rather than `forbid`: the CRC kernel's instruction path
// (`crc::hw`) carries the crate's only scoped `#[allow(unsafe_code)]`;
// everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod engine;
pub mod mapping;
pub mod matching;
pub mod model;
pub mod plan;
pub mod redist;
pub mod sg;

pub use engine::{CompiledPlan, CompiledView, EngineStats, PlanEngine, SegmentReplay};
pub use mapping::Mapper;
pub use model::{Partition, PartitionPattern};
pub use plan::RedistributionPlan;
pub use redist::{cut_falls, intersect_falls, Intersection, Projection};

/// Errors produced by the parallel-file model and its algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Underlying FALLS representation error.
    Falls(falls::FallsError),
    /// The partitioning pattern's elements do not tile a contiguous region
    /// `[0, size)` exactly once.
    NonTilingPattern {
        /// Sum of element sizes.
        total: u64,
        /// Extent actually covered (one past the last covered byte), if any.
        covered: u64,
    },
    /// Partition elements overlap.
    OverlappingElements,
    /// A pattern with no elements or zero size.
    EmptyPattern,
    /// An element index out of range.
    NoSuchElement {
        /// Index requested.
        index: usize,
        /// Number of elements in the pattern.
        count: usize,
    },
    /// An offset below the partition displacement was used.
    BelowDisplacement {
        /// Offset requested.
        offset: u64,
        /// The partition displacement.
        displacement: u64,
    },
    /// The aligned period `lcm(SIZE(P₁), SIZE(P₂))` exceeds `u64::MAX`, so
    /// the two patterns cannot be intersected symbolically.
    PeriodOverflow {
        /// First pattern's size.
        size1: u64,
        /// Second pattern's size.
        size2: u64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Falls(e) => write!(f, "FALLS error: {e}"),
            Error::NonTilingPattern { total, covered } => write!(
                f,
                "partitioning pattern does not tile a contiguous region: \
                 element sizes sum to {total} but the union covers [0, {covered})"
            ),
            Error::OverlappingElements => write!(f, "partition elements overlap"),
            Error::EmptyPattern => write!(f, "partitioning pattern has no elements"),
            Error::NoSuchElement { index, count } => {
                write!(f, "partition element {index} out of range (pattern has {count})")
            }
            Error::BelowDisplacement { offset, displacement } => write!(
                f,
                "file offset {offset} lies below the partition displacement {displacement}"
            ),
            Error::PeriodOverflow { size1, size2 } => {
                write!(f, "aligned period lcm({size1}, {size2}) exceeds the 64-bit offset range")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Falls(e) => Some(e),
            _ => None,
        }
    }
}

impl From<falls::FallsError> for Error {
    fn from(e: falls::FallsError) -> Self {
        Error::Falls(e)
    }
}
