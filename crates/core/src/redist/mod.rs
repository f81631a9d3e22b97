//! The data redistribution algorithm (§7 of the paper): FALLS cutting and
//! intersection, nested-FALLS intersection with preprocessing, and
//! intersection projections.
//!
//! Given two partitions of the same file, redistribution moves the data from
//! one partition to the other by intersecting pairs of partition elements
//! and projecting each intersection onto the linear spaces of the two
//! elements — moving non-contiguous *segments* of bytes, never single bytes.

mod access;
mod baseline;
mod cut;
mod flat;
mod nested;
pub mod oracle;
mod project;

pub use access::{SubfileAccess, ViewPlan};
pub use baseline::redistribute_bytewise;
pub use cut::cut_falls;
pub use flat::{intersect_falls, intersect_falls_merge};
pub use nested::{
    cut_set, intersect_and_project, intersect_elements, intersect_sets, Intersection,
};
pub use project::Projection;
