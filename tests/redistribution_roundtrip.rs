//! Property tests: redistribution between arbitrary partitions preserves
//! every byte, agrees with the byte-wise baseline, and gather/scatter
//! through projections is lossless.

use parafile::model::{Partition, PartitionPattern};
use parafile::plan::RedistributionPlan;
use parafile::redist::{intersect_and_project, redistribute_bytewise};
use parafile::sg::{gather, scatter};
use parafile::Mapper;
use pf_tests::{assert_element_buffers, cyclic, file_byte, fill_element_buffers, stripes};
use proptest::prelude::*;

/// A random valid partition built from a random interleaving of segments.
fn arb_partition(max_elems: usize, span: u64) -> impl Strategy<Value = Partition> {
    (2..=max_elems, 1u64..=span, proptest::collection::vec(0u64..1000, 1..64)).prop_map(
        move |(elems, span, keys)| {
            // Deal `span` bytes into `elems` buckets driven by the key
            // stream, then compress each bucket into FALLS.
            let mut buckets: Vec<Vec<falls::LineSegment>> = vec![Vec::new(); elems];
            let mut pos = 0u64;
            let mut i = 0usize;
            while pos < span {
                let e = (keys[i % keys.len()] as usize) % elems;
                let len = 1 + keys[(i + 1) % keys.len()] % 7;
                let end = (pos + len).min(span) - 1;
                buckets[e].push(falls::LineSegment::new(pos, end).unwrap());
                pos = end + 1;
                i += 2;
            }
            let sets: Vec<falls::NestedSet> = buckets
                .into_iter()
                .filter(|b| !b.is_empty())
                .map(|b| falls::segments_to_falls(&b))
                .collect();
            Partition::new(0, PartitionPattern::new(sets).unwrap())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// plan.apply moves every byte to exactly where MAP says it belongs.
    #[test]
    fn plan_apply_matches_mapping(
        src in arb_partition(4, 48),
        dst in arb_partition(5, 36),
        tiles in 1u64..5,
    ) {
        let file_len = src.pattern().size().max(dst.pattern().size()) * tiles + 3;
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        let src_bufs = fill_element_buffers(&src, file_len);
        let mut dst_bufs: Vec<Vec<u8>> = (0..dst.element_count())
            .map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize])
            .collect();
        let moved = plan.apply(&src_bufs, &mut dst_bufs, file_len);
        prop_assert_eq!(moved, file_len);
        assert_element_buffers(&dst, &dst_bufs, file_len, 0);
    }

    /// The plan and the byte-wise baseline produce identical buffers.
    #[test]
    fn plan_agrees_with_bytewise(
        src in arb_partition(3, 30),
        dst in arb_partition(4, 24),
    ) {
        let file_len = 100u64;
        let src_bufs = fill_element_buffers(&src, file_len);
        let mk = |dst: &Partition| -> Vec<Vec<u8>> {
            (0..dst.element_count())
                .map(|e| vec![0u8; dst.element_len(e, file_len).unwrap() as usize])
                .collect()
        };
        let plan = RedistributionPlan::build(&src, &dst).unwrap();
        let mut via_plan = mk(&dst);
        plan.apply(&src_bufs, &mut via_plan, file_len);
        let mut via_bytes = mk(&dst);
        redistribute_bytewise(&src, &dst, &src_bufs, &mut via_bytes, file_len);
        prop_assert_eq!(via_plan, via_bytes);
    }

    /// gather followed by scatter through the two projections of an
    /// intersection moves view data into subfile positions losslessly.
    #[test]
    fn gather_scatter_projection_roundtrip(
        a in arb_partition(3, 40),
        b in arb_partition(3, 40),
        lo_frac in 0u64..100,
        hi_frac in 0u64..100,
    ) {
        let file_len = 160u64;
        let (inter, proj_a, proj_b) = intersect_and_project(&a, 0, &b, 0).unwrap();
        prop_assume!(!inter.is_empty());

        let a_len = a.element_len(0, file_len).unwrap();
        prop_assume!(a_len > 0);
        let lo = lo_frac * a_len / 100;
        let hi = (hi_frac * a_len / 100).min(a_len - 1);
        prop_assume!(lo <= hi);

        // Element A's buffer holds its file bytes; gather the shared data.
        let ma = Mapper::new(&a, 0);
        let src: Vec<u8> = (0..a_len).map(|y| file_byte(ma.unmap(y))).collect();
        let mut packed = Vec::new();
        let n = gather(&mut packed, &src, lo, hi, &proj_a);
        prop_assert_eq!(n as usize, packed.len());

        // Scatter into element B at the corresponding interval.
        let mb = Mapper::new(&b, 0);
        let x_lo = ma.unmap(lo);
        let x_hi = ma.unmap(hi);
        let l_b = mb.map_next(x_lo);
        let r_b = match mb.map_prev(x_hi) { Some(v) => v, None => return Ok(()) };
        if l_b > r_b { return Ok(()); }
        let b_len = b.element_len(0, file_len.max(mb.unmap(r_b) + 1)).unwrap().max(r_b + 1);
        let mut dst = vec![0u8; b_len as usize];
        let m = scatter(&mut dst, &packed, l_b, r_b, &proj_b);
        prop_assert_eq!(m, n);

        // Every scattered byte sits at its file position.
        for (y, &v) in dst.iter().enumerate() {
            if v != 0 {
                prop_assert_eq!(v, file_byte(mb.unmap(y as u64)), "b offset {}", y);
            }
        }
    }

    /// Stripes ↔ cyclic redistribution round-trips back to the original.
    #[test]
    fn there_and_back_again(width in 1u64..9, count in 2u64..6, tiles in 1u64..6) {
        let a = stripes(count, width, 0);
        let b = cyclic(count, 0);
        let file_len = count * width * tiles + width / 2;
        let orig = fill_element_buffers(&a, file_len);
        let forth = RedistributionPlan::build(&a, &b).unwrap();
        let back = RedistributionPlan::build(&b, &a).unwrap();
        let mut mid: Vec<Vec<u8>> = (0..b.element_count())
            .map(|e| vec![0u8; b.element_len(e, file_len).unwrap() as usize])
            .collect();
        forth.apply(&orig, &mut mid, file_len);
        let mut final_: Vec<Vec<u8>> = (0..a.element_count())
            .map(|e| vec![0u8; a.element_len(e, file_len).unwrap() as usize])
            .collect();
        back.apply(&mid, &mut final_, file_len);
        prop_assert_eq!(orig, final_);
    }
}
