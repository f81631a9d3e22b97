//! Seeded randomness and the order statistics every metric is built from.

/// SplitMix64: the benchmark's only source of randomness, so `--seed`
/// fixes every offset, partition parameter and payload byte.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` of the same seed (one per thread or
    /// purpose, so adding draws to one does not shift another).
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut r = Self(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Samples per percentile block: p99 of 1000 samples has 10 beyond it.
pub const BLOCK: usize = 1000;

/// Nearest-rank percentile of an ascending slice.
fn rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing sample shows instead of reading 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-percentile computed per block of [`BLOCK`] consecutive samples,
/// then the median across blocks. A burst of outside interference lands in
/// a few blocks and leaves the median block untouched, which a percentile
/// over the whole window would not. Fewer than two full blocks fall back to
/// one percentile over everything.
pub fn block_percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let blocks: Vec<f64> = if samples.len() < 2 * BLOCK {
        vec![sorted_rank(samples, q)]
    } else {
        samples.chunks_exact(BLOCK).map(|b| sorted_rank(b, q)).collect()
    };
    median(&blocks)
}

fn sorted_rank(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    rank(&v, q)
}

/// `(q1, q3)` with the same convention as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, the index clamped to the
        // data range and the weight left free to extrapolate, as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(sorted_rank(&v, 0.99), 990.0); // ten samples beyond it
        assert_eq!(sorted_rank(&v, 0.50), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn block_percentile_ignores_one_bad_block() {
        let mut v = vec![1.0; 3 * BLOCK];
        for x in &mut v[..BLOCK] {
            *x = 100.0;
        }
        assert_eq!(block_percentile(&v, 0.99), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::fork(7, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::fork(7, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }
}
