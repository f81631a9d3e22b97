//! `viewset_churn`: a stream of view declarations the plan cache has never
//! seen. A draw builds a block-cyclic partition of the 2048 × 2048 byte
//! matrix from the seed, sets it as a view (cold: partition build, compile,
//! ship, daemon-side audit), sets the identical view again (warm: cache hit,
//! re-ship, re-audit), and moves 8 KiB each way through it.
//!
//! The 2-D family `CYCLIC(b) × CYCLIC(c)` on a 2 × 2 grid takes `(b, c)` from
//! a seeded bijection on `25..=1024 × 129..=1024`, so no pair recurs within a
//! run. The lower ends keep a draw's cost within about one order of
//! magnitude: planning cost grows with `2048 / c`, and at `c = 1` one
//! partition build alone takes a third of a second, which would leave a run
//! measuring its few smallest draws. Every eighth draw is rows-only
//! `CYCLIC(b)` on a 4 × 1 grid; its 512 shapes recur every 4096 draws, 32
//! times the 128 entries the cache holds.

use super::{flush, open, read, set_view, write, Params, View, Workload};
use crate::cluster::{Cluster, NODES};
use crate::rec::{Kind, Rec, ViewCtx};
use crate::refview::{Dim, ViewSpec};
use crate::stats::Rng;
use parafile::Partition;
use parafile_net::Session;
use std::sync::Arc;

const SIDE: u64 = 2048;
/// The issue's 64 KiB costs 2 ms each way on seed (a view of 129-byte
/// fragments makes the daemon refresh a CRC page per fragment), which would
/// make half of every round data plane; 8 KiB keeps the workload's point.
const OP: u64 = 8 << 10;
/// Half the issue's 100, so that a 25 s window holds about a hundred rounds.
const DRAWS_PER_ROUND: u64 = 50;
/// The smoke path's round: its one warm-up and three measured rounds then
/// end on the first rows-only draw.
const DRAWS_PER_LIGHT_ROUND: u64 = 2;
/// Draw indices one set-up repetition may use before running into the next
/// repetition's range.
const DRAWS_PER_REP: u64 = 1 << 16;
/// `b` ranges over `B_MIN..B_MIN + B_COUNT`, `c` likewise.
const B_MIN: u64 = 25;
const B_COUNT: u64 = 1000;
const C_MIN: u64 = 129;
const C_COUNT: u64 = 896;
const PAIRS: u64 = B_COUNT * C_COUNT;

pub struct ViewsetChurn {
    s: Session,
    file: u64,
    physical: Arc<Partition>,
    image: Vec<u8>,
    rng: Rng,
    /// Multiplier (coprime to [`PAIRS`]) and offset of the `(b, c)` bijection.
    stride: u64,
    shift: u64,
    next_draw: u64,
    draws_per_round: u64,
    buf: Vec<u8>,
    first: Arc<ViewCtx>,
}

impl ViewsetChurn {
    pub fn new(cluster: &Cluster, p: Params) -> Result<Self, String> {
        let file = 1;
        let (s, physical) =
            open(cluster, &[file], ViewSpec::col_blocks(SIDE, SIDE, 1, NODES as u64))?;
        // One bijection per seed, whose indices the set-up repetitions take
        // range by range: no shape recurs in the run.
        let mut shapes = Rng::fork(p.seed, 0);
        let (stride, shift) = (coprime_stride(shapes.next_u64()), shapes.next_u64() % PAIRS);
        let rng = Rng::fork(p.seed, 1);
        let next_draw = p.rep * DRAWS_PER_REP;
        let (spec, element) = draw(stride, shift, next_draw);
        let first = View::new(spec, element, &physical)?.ctx;
        Ok(Self {
            s,
            file,
            physical,
            image: vec![0; (SIDE * SIDE) as usize],
            rng,
            stride,
            shift,
            next_draw,
            draws_per_round: if p.smoke { DRAWS_PER_LIGHT_ROUND } else { DRAWS_PER_ROUND },
            buf: vec![0; OP as usize],
            first,
        })
    }
}

/// The first multiplier at or above `from mod PAIRS` that is coprime to
/// [`PAIRS`], so that `i ↦ stride · i + shift (mod PAIRS)` is a bijection.
fn coprime_stride(from: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    (from % PAIRS..).find(|&s| gcd(s, PAIRS) == 1).unwrap_or(1)
}

/// The view of draw `i`: a pure function of the seed-derived bijection.
fn draw(stride: u64, shift: u64, i: u64) -> (ViewSpec, usize) {
    let pair = ((stride as u128 * i as u128 + shift as u128) % PAIRS as u128) as u64;
    let element = ((stride ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33) as usize % NODES;
    let spec = if i % 8 == 7 {
        // An odd multiplier is a bijection on the 512 rows-only shapes.
        let b = (stride | 1).wrapping_mul(i / 8).wrapping_add(shift) % 512 + 1;
        ViewSpec {
            rows: SIDE,
            cols: SIDE,
            elem: 1,
            dists: [Dim::Cyclic(b), Dim::All],
            grid: [4, 1],
        }
    } else {
        let (b, c) = (B_MIN + pair / C_COUNT, C_MIN + pair % C_COUNT);
        ViewSpec {
            rows: SIDE,
            cols: SIDE,
            elem: 1,
            dists: [Dim::Cyclic(b), Dim::Cyclic(c)],
            grid: [2, 2],
        }
    };
    (spec, element)
}

impl Workload for ViewsetChurn {
    fn round(&mut self, rec: &mut Rec) {
        let Self { s, file, physical, image, rng, stride, shift, next_draw, buf, .. } = self;
        let file = *file;
        for _ in 0..self.draws_per_round {
            let (spec, element) = draw(*stride, *shift, *next_draw);
            *next_draw += 1;
            // Cold: describing the view is part of declaring it, so the
            // partition build is inside the timed call.
            let r = rec.timed(Kind::SetViewCold, || {
                let logical = spec.distribution().partition(0);
                s.set_view(0, file, &logical, element).map(|()| logical)
            });
            let logical = match r {
                Ok(logical) => logical,
                Err(e) => {
                    rec.expect(false, || format!("cold set_view {spec:?}[{element}]: {e:?}"));
                    continue;
                }
            };
            let v = match View::from_partition(spec, logical, element, physical) {
                Ok(v) => v,
                Err(e) => {
                    rec.expect(false, || e);
                    continue;
                }
            };
            rec.replayable(&v.ctx, 0, 0);
            set_view(rec, s, Kind::SetViewWarm, 0, file, &v);
            let lo = rng.below(v.len() - OP + 1);
            rng.fill(buf);
            write(rec, s, 0, file, &v, lo, buf, true);
            v.reference.store(image, lo, buf);
            read(rec, s, 0, file, &v, lo, OP).check(rec, &v, image, lo);
        }
        flush(rec, s, file);
        rec.end_round(None);
    }

    fn finish(&mut self, rec: &mut Rec) {
        super::check_file(rec, &mut self.s, self.file, &self.image);
    }

    fn session(&mut self) -> &mut Session {
        &mut self.s
    }

    fn files(&self) -> Vec<u64> {
        vec![self.file]
    }

    fn shape(&self) -> (Arc<ViewCtx>, u64, u64) {
        (Arc::clone(&self.first), 0, OP - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn no_two_dimensional_shape_recurs_and_all_are_valid() {
        let (stride, shift) = (coprime_stride(0x9E37_79B9_7F4A_7C15), 12345);
        let mut seen = HashSet::new();
        let mut elements = [0u32; NODES];
        for i in 0..20_000 {
            let (spec, element) = draw(stride, shift, i);
            assert!(element < spec.elements());
            elements[element] += 1;
            if let [Dim::Cyclic(b), Dim::Cyclic(c)] = spec.dists {
                assert!((B_MIN..=1024).contains(&b) && (C_MIN..=1024).contains(&c));
                assert!(seen.insert((b, c)), "pair ({b}, {c}) recurred at draw {i}");
            }
            assert!(spec.reference(element).len() >= OP);
        }
        assert!(elements.iter().all(|&n| n > 4000), "elements are drawn evenly: {elements:?}");
    }
}
