//! Data representation for parallel-file partitions: line segments, FALLS,
//! nested FALLS and PITFALLS.
//!
//! This crate implements the representation layer of Isaila & Tichy,
//! *"Mapping Functions and Data Redistribution for Parallel Files"*
//! (IPPS 2002), which itself extends the PITFALLS representation of
//! Ramaswamy & Banerjee (used in the PARADIGM compiler).
//!
//! # Concepts
//!
//! * [`LineSegment`] — a contiguous byte range `[l, r]` of a file.
//! * [`Falls`] — a *FAmily of Line Segments* `(l, r, s, n)`: `n` equally
//!   sized, equally spaced segments; segment `i` is `[l + i·s, r + i·s]`.
//! * [`NestedFalls`] — a FALLS together with a set of *inner* FALLS that
//!   subdivide each of its blocks. Inner indices are relative to the left
//!   index of the enclosing block. A nested FALLS is a tree.
//! * [`NestedSet`] — an ordered set of sibling [`NestedFalls`]; the unit in
//!   which partition elements (subfiles / views) are described.
//! * [`Pitfalls`] / [`NestedPitfalls`] — *Processor Indexed Tagged* families:
//!   a compact representation of `p` FALLS that differ only by a per-processor
//!   shift `d`.
//! * [`tiling`] — a proof, from the trees alone, that a set of nested FALLS
//!   covers an extent exactly once.
//!
//! # Example — the paper's Figure 1 and Figure 2
//!
//! ```
//! use falls::{Falls, NestedFalls};
//!
//! // Figure 1: FALLS (3,5,6,5) — five 3-byte blocks, stride 6.
//! let f = Falls::new(3, 5, 6, 5).unwrap();
//! assert_eq!(f.size(), 15);
//! assert_eq!(f.segment(1).unwrap().bounds(), (9, 11));
//!
//! // Figure 2: nested FALLS (0,3,8,2, {(0,0,2,2)}) — size 4.
//! let nf = NestedFalls::with_inner(
//!     Falls::new(0, 3, 8, 2).unwrap(),
//!     vec![NestedFalls::leaf(Falls::new(0, 0, 2, 2).unwrap())],
//! ).unwrap();
//! assert_eq!(nf.size(), 4);
//! assert_eq!(nf.absolute_offsets(), vec![0, 2, 8, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod compress;
mod error;
mod falls_impl;
mod nested;
mod pitfalls;
mod render;
mod segment;
mod set;

pub mod testing;
pub mod tiling;

pub use canon::{canonicalize_nested, canonicalize_set, fingerprint_set, StructuralHasher};
pub use compress::{compress_segments, segments_to_falls};
pub use error::FallsError;
pub use falls_impl::{Falls, FallsSegments};
pub use nested::NestedFalls;
pub use pitfalls::{NestedPitfalls, Pitfalls};
pub use render::{render_falls, render_nested_set, render_ruler};
pub use segment::LineSegment;
pub use set::NestedSet;

/// Byte offset / length type used throughout the workspace.
///
/// The paper models files as linear sequences of bytes; all indices are
/// non-negative, so an unsigned 64-bit offset covers any realistic file.
pub type Offset = u64;

/// Greatest common divisor (Euclid). `gcd(0, x) = x`.
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple; `lcm(0, _) = 0`. Saturates to `u64::MAX` on
/// overflow — prefer [`checked_lcm`] anywhere a saturated period would be
/// silently wrong (intersection periods, audit checks).
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    checked_lcm(a, b).unwrap_or(u64::MAX)
}

/// Least common multiple that reports overflow: `Some(lcm)` when the result
/// is representable, `None` otherwise. `checked_lcm(0, _) = Some(0)`.
///
/// Pattern sizes are products of strides and counts, so two modest patterns
/// can already push `lcm(SIZE(P₁), SIZE(P₂))` past `u64::MAX`; every period
/// computation must go through here (or [`lcm`] where saturation is
/// acceptable) rather than multiplying raw.
#[must_use]
pub fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = gcd(a, b);
    (a / g).checked_mul(b)
}

/// Size of a FALLS-shaped family — `count · block_len` — reporting overflow
/// instead of wrapping. For a [`Falls`] built through [`Falls::new`] the
/// product always fits (the constructor bounds the extent), but raw
/// `(l, r, s, n)` quadruples from specs or audits must use this.
#[must_use]
pub fn checked_size(count: u64, block_len: u64) -> Option<u64> {
    count.checked_mul(block_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(16, 8), 16);
        assert_eq!(lcm(7, 13), 91);
    }

    #[test]
    fn lcm_saturates_instead_of_overflowing() {
        assert_eq!(lcm(u64::MAX, u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn checked_lcm_reports_overflow() {
        assert_eq!(checked_lcm(0, 5), Some(0));
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(1 << 40, (1 << 40) + 1), None);
        assert_eq!(checked_lcm(u64::MAX, u64::MAX - 1), None);
        assert_eq!(checked_lcm(u64::MAX, u64::MAX), Some(u64::MAX));
    }

    #[test]
    fn checked_size_reports_overflow() {
        assert_eq!(checked_size(5, 3), Some(15));
        assert_eq!(checked_size(0, 3), Some(0));
        assert_eq!(checked_size(1 << 40, 1 << 40), None);
    }
}
