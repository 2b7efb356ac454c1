//! Property-based tests: every collective, random shapes and roots.

use collective_plan::{CollectiveOp, CollectivePlan, Dtype, ReduceOp};
use collectives::{simulate, CollectiveReport};
use cost_model::CommParams;
use proptest::prelude::*;
use torus_topology::{NodeId, TorusShape};

/// Random shapes: 1–3 dims, extents 1..=9 (node count bounded).
fn arb_shape() -> impl Strategy<Value = TorusShape> {
    prop::collection::vec(1u32..=9, 1..=3)
        .prop_filter("bounded", |d| {
            d.iter().map(|&k| k as u64).product::<u64>() <= 400
        })
        .prop_map(|d| TorusShape::new(&d).expect("valid"))
}

/// A random shape and a root on it.
fn arb_rooted() -> impl Strategy<Value = (TorusShape, NodeId)> {
    arb_shape().prop_flat_map(|s| {
        let n = s.num_nodes();
        (Just(s), 0..n)
    })
}

const SUM_U64: (ReduceOp, Dtype) = (ReduceOp::Sum, Dtype::U64);

fn reduce_op(root: NodeId) -> CollectiveOp {
    let (op, dtype) = SUM_U64;
    CollectiveOp::Reduce { root, op, dtype }
}

fn allreduce_op() -> CollectiveOp {
    let (op, dtype) = SUM_U64;
    CollectiveOp::Allreduce { op, dtype }
}

fn plan(shape: &TorusShape, op: CollectiveOp) -> CollectivePlan {
    CollectivePlan::new(shape, op).unwrap_or_else(|e| panic!("{op:?} on {shape}: {e}"))
}

/// Lowers `op` and replays it on the simulator with `blocks` per key,
/// panicking if either refuses it.
fn run(shape: &TorusShape, op: CollectiveOp, params: &CommParams, blocks: u64) -> CollectiveReport {
    simulate(&plan(shape, op), params, blocks).unwrap_or_else(|e| panic!("{op:?} on {shape}: {e}"))
}

/// The wrapping-`u64`-sum a reduction plan leaves at its holder (the
/// root, or node 0 for allreduce) over `contribution(node)`, after
/// checking that every block left anywhere equals the
/// order-independent direct fold.
fn reduced(
    plan: &CollectivePlan,
    vec_len: usize,
    contribution: impl Fn(NodeId) -> Vec<u64>,
) -> Vec<u64> {
    let seed = |u: u32| -> Vec<u8> {
        contribution(u)
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .collect()
    };
    let finals = plan.reference_finals(8 * vec_len, seed).unwrap();
    let direct = plan.direct_reduction(8 * vec_len, seed).unwrap();
    assert!(
        finals.iter().flatten().all(|(_, b)| *b == direct),
        "{:?}",
        plan.op()
    );
    let holder = plan.op().root().unwrap_or(0) as usize;
    finals[holder][0]
        .1
        .chunks_exact(8)
        .map(|lane| u64::from_le_bytes(lane.try_into().unwrap()))
        .collect()
}

/// `Σ ⌈log₂ a_d⌉`: one tree level per step, per dimension.
fn tree_steps(shape: &TorusShape) -> u64 {
    shape
        .dims()
        .iter()
        .map(|&a| u64::from(a.next_power_of_two().trailing_zeros()))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn broadcast_any_shape_any_root((shape, root) in arb_rooted()) {
        run(&shape, CollectiveOp::Broadcast { root }, &CommParams::unit(), 3);
    }

    #[test]
    fn scatter_gather_roundtrip_shapes((shape, root) in arb_rooted()) {
        run(&shape, CollectiveOp::Scatter { root }, &CommParams::unit(), 1);
        run(&shape, CollectiveOp::Gather { root }, &CommParams::unit(), 1);
    }

    #[test]
    fn allgather_any_shape(shape in arb_shape()) {
        let r = run(&shape, CollectiveOp::Allgather, &CommParams::unit(), 1);
        // steps = Σ (a_d − 1)
        let want: u64 = shape.dims().iter().map(|&k| (k - 1) as u64).sum();
        prop_assert_eq!(r.counts.startup_steps, want);
    }

    #[test]
    fn rooted_ops_take_one_step_per_tree_level((shape, root) in arb_rooted()) {
        // Recursive doubling on every extent, power of two or not:
        // ⌈log₂ a_d⌉ steps per dimension, and twice that for allreduce.
        let want = tree_steps(&shape);
        let unit = CommParams::unit();
        for op in [
            CollectiveOp::Broadcast { root },
            CollectiveOp::Scatter { root },
            CollectiveOp::Gather { root },
            reduce_op(root),
        ] {
            let steps = run(&shape, op, &unit, 1).counts.startup_steps;
            prop_assert_eq!(steps, want, "{:?} on {}", op, shape);
        }
        let steps = run(&shape, allreduce_op(), &unit, 1).counts.startup_steps;
        prop_assert_eq!(steps, 2 * want, "allreduce on {}", shape);
    }

    #[test]
    fn reduce_sums_are_exact((shape, root, seed) in arb_shape().prop_flat_map(|s| {
        let n = s.num_nodes();
        (Just(s), 0..n, any::<u32>())
    })) {
        let contrib = |u: u32| vec![(u as u64).wrapping_mul(seed as u64 + 1), seed as u64];
        let plan = plan(&shape, reduce_op(root));
        simulate(&plan, &CommParams::unit(), 2).unwrap();
        let v = reduced(&plan, 2, contrib);
        let n = shape.num_nodes() as u64;
        let want0 = (0..n).fold(0u64, |a, u| a.wrapping_add(u.wrapping_mul(seed as u64 + 1)));
        prop_assert_eq!(v[0], want0);
        prop_assert_eq!(v[1], (seed as u64).wrapping_mul(n));
    }

    #[test]
    fn allreduce_matches_reduce_value(shape in arb_shape()) {
        let (ar, rr) = (plan(&shape, allreduce_op()), plan(&shape, reduce_op(0)));
        let unit = CommParams::unit();
        simulate(&ar, &unit, 1).unwrap();
        simulate(&rr, &unit, 1).unwrap();
        let own = |u: u32| vec![u as u64];
        prop_assert_eq!(reduced(&ar, 1, own), reduced(&rr, 1, own));
    }

    #[test]
    fn collective_costs_are_positive_and_consistent(shape in arb_shape()) {
        let params = CommParams::cray_t3d_like();
        let r = run(&shape, CollectiveOp::Broadcast { root: 0 }, &params, 4);
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
        let r = run(&shape, CollectiveOp::Allgather, &CommParams::unit(), b);
        let bound = (shape.num_nodes() as u64 - 1) * b;
        prop_assert_eq!(
            r.counts.trans_blocks, bound,
            "{}: allgather is {} blocks off the (N − 1)·b receive bound",
            shape, r.counts.trans_blocks as i64 - bound as i64
        );
    }

    #[test]
    fn dissemination_steps_respect_the_doubling_bound((shape, root) in arb_rooted()) {
        // The set of nodes that hold anything of one origin at most
        // doubles per one-port step, so N nodes need ⌈log₂ N⌉ steps; run
        // backwards, the set of nodes whose data has not yet met at the
        // root at most halves, so gather and reduce need as many.
        let bound = u64::from(shape.num_nodes().next_power_of_two().trailing_zeros());
        let unit = CommParams::unit();
        for op in [
            CollectiveOp::Broadcast { root },
            CollectiveOp::Scatter { root },
            CollectiveOp::Gather { root },
            reduce_op(root),
            CollectiveOp::Allgather,
        ] {
            let r = run(&shape, op, &unit, 1);
            let steps = r.counts.startup_steps;
            prop_assert!(
                steps >= bound,
                "{} on {}: {} steps against a ⌈log₂ N⌉ bound of {} (gap {})",
                r.name, shape, steps, bound, steps as i64 - bound as i64
            );
        }
    }
}
