//! Property-based tests: every collective, random shapes and roots.

use collectives::{allgather, allreduce, broadcast, gather, reduce, scatter};
use cost_model::CommParams;
use proptest::prelude::*;
use torus_topology::TorusShape;

/// Random shapes: 1–3 dims, extents 1..=9 (node count bounded).
fn arb_shape() -> impl Strategy<Value = TorusShape> {
    prop::collection::vec(1u32..=9, 1..=3)
        .prop_filter("bounded", |d| {
            d.iter().map(|&k| k as u64).product::<u64>() <= 400
        })
        .prop_map(|d| TorusShape::new(&d).expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn broadcast_any_shape_any_root((shape, root_sel) in arb_shape().prop_flat_map(|s| {
        let n = s.num_nodes();
        (Just(s), 0..n)
    })) {
        let r = broadcast(&shape, &CommParams::unit(), root_sel, 3).unwrap();
        prop_assert!(r.verified, "{} root {}", shape, root_sel);
    }

    #[test]
    fn scatter_gather_roundtrip_shapes((shape, root) in arb_shape().prop_flat_map(|s| {
        let n = s.num_nodes();
        (Just(s), 0..n)
    })) {
        let s = scatter(&shape, &CommParams::unit(), root).unwrap();
        prop_assert!(s.verified, "{shape} scatter root {root}");
        let g = gather(&shape, &CommParams::unit(), root).unwrap();
        prop_assert!(g.verified, "{shape} gather root {root}");
    }

    #[test]
    fn allgather_any_shape(shape in arb_shape()) {
        let r = allgather(&shape, &CommParams::unit(), 1).unwrap();
        prop_assert!(r.verified, "{shape}");
        // steps = Σ (a_d − 1)
        let want: u64 = shape.dims().iter().map(|&k| (k - 1) as u64).sum();
        prop_assert_eq!(r.counts.startup_steps, want);
    }

    #[test]
    fn reduce_sums_are_exact((shape, root, seed) in arb_shape().prop_flat_map(|s| {
        let n = s.num_nodes();
        (Just(s), 0..n, any::<u32>())
    })) {
        let contrib = |u: u32| vec![(u as u64).wrapping_mul(seed as u64 + 1), seed as u64];
        let (r, v) = reduce(&shape, &CommParams::unit(), root, 2, contrib).unwrap();
        prop_assert!(r.verified, "{shape} root {root}");
        let n = shape.num_nodes() as u64;
        let want0 = (0..n).fold(0u64, |a, u| a.wrapping_add(u.wrapping_mul(seed as u64 + 1)));
        prop_assert_eq!(v[0], want0);
        prop_assert_eq!(v[1], (seed as u64).wrapping_mul(n));
    }

    #[test]
    fn allreduce_matches_reduce_value(shape in arb_shape()) {
        let (ar, va) = allreduce(&shape, &CommParams::unit(), 1, |u| vec![u as u64]).unwrap();
        let (rr, vr) = reduce(&shape, &CommParams::unit(), 0, 1, |u| vec![u as u64]).unwrap();
        prop_assert!(ar.verified && rr.verified);
        prop_assert_eq!(va, vr);
    }

    #[test]
    fn collective_costs_are_positive_and_consistent(shape in arb_shape()) {
        let params = CommParams::cray_t3d_like();
        let r = broadcast(&shape, &params, 0, 4).unwrap();
        // elapsed components must be consistent with the counts
        let recomputed = cost_model::CompletionTime::from_counts(&r.counts, &params);
        prop_assert!((r.elapsed.startup - recomputed.startup).abs() < 1e-9);
        prop_assert!((r.elapsed.transmission - recomputed.transmission).abs() < 1e-9);
        prop_assert!((r.elapsed.propagation - recomputed.propagation).abs() < 1e-9);
    }

    // External yardsticks as oracles (one-port model; cf. Jung & Sakho's
    // all-to-all-broadcast optimality for k-ary n-dimensional tori).

    #[test]
    fn allgather_meets_the_one_port_receive_bound((shape, b) in (arb_shape(), 1u64..=3)) {
        // Every node takes in the other N − 1 contributions through one
        // port, and Σ_d (a_d − 1)·Π_{e<d} a_e telescopes to exactly N − 1.
        let r = allgather(&shape, &CommParams::unit(), b).unwrap();
        let bound = (shape.num_nodes() as u64 - 1) * b;
        prop_assert_eq!(
            r.counts.trans_blocks, bound,
            "{}: allgather is {} blocks off the (N − 1)·b receive bound",
            shape, r.counts.trans_blocks as i64 - bound as i64
        );
    }

    #[test]
    fn dissemination_steps_respect_the_doubling_bound((shape, root) in arb_shape().prop_flat_map(|s| {
        let n = s.num_nodes();
        (Just(s), 0..n)
    })) {
        // The set of nodes that hold anything of one origin at most
        // doubles per one-port step, so N nodes need ⌈log₂ N⌉ steps.
        let bound = u64::from(shape.num_nodes().next_power_of_two().trailing_zeros());
        let unit = CommParams::unit();
        for r in [broadcast(&shape, &unit, root, 1), scatter(&shape, &unit, root), allgather(&shape, &unit, 1)] {
            let r = r.unwrap();
            let steps = r.counts.startup_steps;
            prop_assert!(
                steps >= bound,
                "{} on {}: {} steps against a ⌈log₂ N⌉ bound of {} (gap {})",
                r.name, shape, steps, bound, steps as i64 - bound as i64
            );
        }
    }
}
