//! Shared helpers for the workspace integration tests.

#![forbid(unsafe_code)]

use falls::{Falls, NestedFalls, NestedSet};
use parafile::model::{Partition, PartitionPattern};
use parafile::Mapper;

/// Contiguous stripes of `width` bytes over `count` elements.
pub fn stripes(count: u64, width: u64, displacement: u64) -> Partition {
    let pattern = PartitionPattern::new(
        (0..count)
            .map(|k| {
                NestedSet::singleton(NestedFalls::leaf(
                    Falls::new(k * width, (k + 1) * width - 1, count * width, 1).unwrap(),
                ))
            })
            .collect(),
    )
    .unwrap();
    Partition::new(displacement, pattern)
}

/// Byte-cyclic partition over `count` elements.
pub fn cyclic(count: u64, displacement: u64) -> Partition {
    let pattern = PartitionPattern::new(
        (0..count)
            .map(|k| NestedSet::singleton(NestedFalls::leaf(Falls::new(k, k, count, 1).unwrap())))
            .collect(),
    )
    .unwrap();
    Partition::new(displacement, pattern)
}

/// Deterministic file contents for offset `x`.
pub fn file_byte(x: u64) -> u8 {
    (x.wrapping_mul(167).wrapping_add(43) % 251) as u8
}

/// Fills each element buffer of a partition with the file bytes it holds.
pub fn fill_element_buffers(p: &Partition, file_len: u64) -> Vec<Vec<u8>> {
    (0..p.element_count())
        .map(|e| {
            let m = Mapper::new(p, e);
            (0..p.element_len(e, file_len).unwrap()).map(|y| file_byte(m.unmap(y))).collect()
        })
        .collect()
}

/// Asserts that every in-range byte of the element buffers matches
/// [`file_byte`].
pub fn assert_element_buffers(p: &Partition, bufs: &[Vec<u8>], file_len: u64, from: u64) {
    for (e, buf) in bufs.iter().enumerate().take(p.element_count()) {
        let m = Mapper::new(p, e);
        for (y, &v) in buf.iter().enumerate() {
            let x = m.unmap(y as u64);
            if x < from || x >= file_len {
                continue;
            }
            assert_eq!(v, file_byte(x), "element {e} offset {y} (file byte {x})");
        }
    }
}
