//! The serial reference: where byte `y` of a view lives in the row-major
//! file, worked out with plain index arithmetic that shares no code with
//! the library under test. Every byte a workload reads is compared with an
//! image maintained through this mapping, and the mapping itself is
//! cross-checked against `parafile::Mapper` on sampled offsets.

use arraydist::{ArrayDistribution, DimDist, ProcGrid};
use parafile::{Mapper, Partition};

/// How one dimension of a 2-D array is dealt to the processes of one grid
/// dimension (the subset of HPF the workloads use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Contiguous chunks of `ceil(extent / procs)` indices.
    Block,
    /// Blocks of `b` indices dealt round-robin.
    Cyclic(u64),
    /// Not distributed (grid extent 1).
    All,
}

impl Dim {
    fn lower(self) -> DimDist {
        match self {
            Dim::Block => DimDist::Block,
            Dim::Cyclic(b) => DimDist::BlockCyclic(b),
            Dim::All => DimDist::Collapsed,
        }
    }

    /// Indices of `0..extent` owned by process `p` of `procs`, ascending.
    fn owned(self, extent: u64, p: u64, procs: u64) -> Vec<u64> {
        match self {
            Dim::All => (0..extent).collect(),
            Dim::Block => {
                let b = extent.div_ceil(procs);
                ((p * b).min(extent)..((p + 1) * b).min(extent)).collect()
            }
            Dim::Cyclic(b) => (0..extent).filter(|i| (i / b) % procs == p).collect(),
        }
    }
}

/// A 2-D array of `rows × cols` elements of `elem` bytes, distributed over a
/// `grid[0] × grid[1]` process grid: what a workload declares as a view (or
/// as the physical layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewSpec {
    pub rows: u64,
    pub cols: u64,
    pub elem: u64,
    pub dists: [Dim; 2],
    pub grid: [u64; 2],
}

impl ViewSpec {
    /// Row blocks over `p` processes.
    pub fn row_blocks(rows: u64, cols: u64, elem: u64, p: u64) -> Self {
        Self { rows, cols, elem, dists: [Dim::Block, Dim::All], grid: [p, 1] }
    }

    /// Column blocks over `p` processes.
    pub fn col_blocks(rows: u64, cols: u64, elem: u64, p: u64) -> Self {
        Self { rows, cols, elem, dists: [Dim::All, Dim::Block], grid: [1, p] }
    }

    pub fn file_len(&self) -> u64 {
        self.rows * self.cols * self.elem
    }

    pub fn elements(&self) -> usize {
        (self.grid[0] * self.grid[1]) as usize
    }

    /// The library-side description of the same distribution.
    pub fn distribution(&self) -> ArrayDistribution {
        ArrayDistribution::new(
            vec![self.rows, self.cols],
            self.elem,
            vec![self.dists[0].lower(), self.dists[1].lower()],
            ProcGrid::new(self.grid.to_vec()),
        )
    }

    /// The serial reference mapping of partition element `element`
    /// (row-major rank in the grid).
    pub fn reference(&self, element: usize) -> RefView {
        let (pr, pc) = (element as u64 / self.grid[1], element as u64 % self.grid[1]);
        let rows = self.dists[0].owned(self.rows, pr, self.grid[0]);
        let cols = self.dists[1].owned(self.cols, pc, self.grid[1]);
        // Adjacent owned columns form one contiguous byte run of the file.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &c in &cols {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == c * self.elem => *len += self.elem,
                _ => runs.push((c * self.elem, self.elem)),
            }
        }
        let mut run_view_off = Vec::with_capacity(runs.len());
        let mut acc = 0u64;
        for &(_, len) in &runs {
            run_view_off.push(acc);
            acc += len;
        }
        RefView { rows, runs, run_view_off, row_bytes: acc, pitch: self.cols * self.elem }
    }
}

/// View-linear offset → file offset for one partition element.
#[derive(Debug, Clone)]
pub struct RefView {
    /// Owned array rows, ascending.
    rows: Vec<u64>,
    /// Owned byte runs within one array row: `(byte offset in row, len)`.
    runs: Vec<(u64, u64)>,
    /// View offset (within one owned row) at which each run starts.
    run_view_off: Vec<u64>,
    /// View bytes per owned row.
    row_bytes: u64,
    /// File bytes per array row.
    pitch: u64,
}

impl RefView {
    /// View length in bytes.
    pub fn len(&self) -> u64 {
        self.rows.len() as u64 * self.row_bytes
    }

    /// File offset of view byte `y`.
    pub fn offset_of(&self, y: u64) -> u64 {
        let (lr, within) = (y / self.row_bytes, y % self.row_bytes);
        let k = self.run_view_off.partition_point(|&o| o <= within) - 1;
        self.rows[lr as usize] * self.pitch + self.runs[k].0 + (within - self.run_view_off[k])
    }

    /// Calls `f(file_off, view_off, len)` for each maximal file-contiguous
    /// piece of the view interval `[lo, lo + len)`, in view order.
    fn for_each_run(&self, lo: u64, len: u64, mut f: impl FnMut(usize, usize, usize)) {
        let hi = lo + len; // exclusive
        let mut y = lo;
        while y < hi {
            let (lr, within) = (y / self.row_bytes, y % self.row_bytes);
            let k = self.run_view_off.partition_point(|&o| o <= within) - 1;
            let skip = within - self.run_view_off[k];
            let take = (self.runs[k].1 - skip).min(hi - y);
            let file_off = self.rows[lr as usize] * self.pitch + self.runs[k].0 + skip;
            f(file_off as usize, (y - lo) as usize, take as usize);
            y += take;
        }
    }

    /// Applies a write of `data` at view offset `lo` to the file image.
    pub fn store(&self, image: &mut [u8], lo: u64, data: &[u8]) {
        self.for_each_run(lo, data.len() as u64, |file_off, view_off, len| {
            image[file_off..file_off + len].copy_from_slice(&data[view_off..view_off + len]);
        });
    }

    /// What a read of `len` bytes at view offset `lo` must return.
    pub fn load(&self, image: &[u8], lo: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.for_each_run(lo, len as u64, |file_off, view_off, n| {
            out[view_off..view_off + n].copy_from_slice(&image[file_off..file_off + n]);
        });
        out
    }

    /// Whether the library's `MAP⁻¹` agrees with this mapping on the view's
    /// first and last byte and on `samples` offsets spread between them.
    pub fn agrees_with_mapper(&self, partition: &Partition, element: usize, samples: u64) -> bool {
        let m = Mapper::new(partition, element);
        let last = self.len() - 1;
        (0..=samples).all(|i| {
            let y = last / samples.max(1) * i;
            m.unmap(y) == self.offset_of(y)
        }) && m.unmap(last) == self.offset_of(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_mapper_byte_for_byte_on_small_arrays() {
        let specs = [
            ViewSpec::row_blocks(8, 6, 1, 4),
            ViewSpec::col_blocks(8, 8, 2, 4),
            ViewSpec {
                rows: 12,
                cols: 10,
                elem: 1,
                dists: [Dim::Cyclic(2), Dim::Cyclic(3)],
                grid: [2, 2],
            },
            ViewSpec {
                rows: 13,
                cols: 4,
                elem: 8,
                dists: [Dim::Cyclic(3), Dim::All],
                grid: [4, 1],
            },
        ];
        for spec in specs {
            let part = spec.distribution().partition(0);
            let mut seen = vec![false; spec.file_len() as usize];
            for e in 0..spec.elements() {
                let r = spec.reference(e);
                let m = Mapper::new(&part, e);
                assert_eq!(r.len(), part.element_len(e, spec.file_len()).unwrap());
                for y in 0..r.len() {
                    assert_eq!(r.offset_of(y), m.unmap(y), "{spec:?} element {e} byte {y}");
                    seen[r.offset_of(y) as usize] = true;
                }
                assert!(r.agrees_with_mapper(&part, e, 5));
            }
            assert!(seen.iter().all(|&s| s), "elements must tile the file");
        }
    }

    #[test]
    fn store_then_load_round_trips_through_the_image() {
        let spec = ViewSpec {
            rows: 8,
            cols: 8,
            elem: 1,
            dists: [Dim::Cyclic(1), Dim::Cyclic(2)],
            grid: [2, 2],
        };
        let r = spec.reference(3);
        let mut image = vec![0u8; 64];
        let data: Vec<u8> = (1..=10).collect();
        r.store(&mut image, 3, &data);
        assert_eq!(r.load(&image, 3, 10), data);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(image[r.offset_of(3 + i as u64) as usize], *b);
        }
        assert_eq!(image.iter().filter(|&&b| b != 0).count(), 10);
    }
}
