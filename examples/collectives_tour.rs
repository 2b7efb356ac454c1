//! Tour of the collective-communication library: every collective on the
//! same torus, checked on the one-port model, with comparable cost
//! reports.
//!
//! ```text
//! cargo run --release --example collectives_tour
//! ```

use torus_alltoall::collectives;
use torus_alltoall::prelude::*;

fn main() {
    let shape = TorusShape::new_2d(8, 8).unwrap();
    let params = CommParams::cray_t3d_like();
    println!(
        "collectives on a {shape} torus (T3D-like parameters, m = {} B)\n",
        params.block_bytes
    );
    println!(
        "{:<12} {:>7} {:>12} {:>8} {:>12}",
        "operation", "steps", "crit blocks", "hops", "time (µs)"
    );

    let show = |name: &str, counts: CostCounts, time: f64| {
        println!(
            "{:<12} {:>7} {:>12} {:>8} {:>12.1}",
            name, counts.startup_steps, counts.trans_blocks, counts.prop_hops, time
        );
    };

    // Every collective is a `CollectivePlan`, which refuses a schedule
    // that breaks the op's contract; the simulator replays it with
    // `blocks` blocks per key and refuses a step that breaks one-port.
    // The reductions carry real data through the plan's reference
    // replay: node u contributes [u; 4].
    let (op, dtype) = (ReduceOp::Sum, Dtype::U64);
    let seed = |u: u32| {
        [u64::from(u); 4]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect()
    };
    for (op, blocks) in [
        (CollectiveOp::Broadcast { root: 0 }, 16),
        (CollectiveOp::Scatter { root: 0 }, 1),
        (CollectiveOp::Gather { root: 0 }, 1),
        (CollectiveOp::Allgather, 1),
        (CollectiveOp::Reduce { root: 0, op, dtype }, 4),
        (CollectiveOp::Allreduce { op, dtype }, 4),
    ] {
        let plan = CollectivePlan::new(&shape, op).unwrap();
        let r = collectives::simulate(&plan, &params, blocks).unwrap();
        show(r.name, r.counts, r.total_time());
        if plan.is_combining() {
            let finals: Vec<Vec<(u32, Vec<u8>)>> = plan.reference_finals(32, seed).unwrap();
            let sum: Vec<u64> = finals[0][0]
                .1
                .chunks_exact(8)
                .map(|lane| u64::from_le_bytes(lane.try_into().unwrap()))
                .collect();
            assert_eq!(sum, vec![2016; 4]);
            println!(
                "  {} result: {sum:?} (Σ u over 64 nodes = 2016 per element)",
                r.name
            );
        }
    }

    // The centerpiece: all-to-all personalized exchange, the most
    // demanding collective — same substrate, same accounting.
    let rep = Exchange::new(&shape)
        .unwrap()
        .run_counting(&params)
        .unwrap();
    assert!(rep.verified, "alltoall must deliver every block");
    show("alltoall", rep.counts, rep.total_time());

    println!("\nall collectives run on the same contention-verified wormhole model;");
    println!("alltoall dominates cost, which is why the paper optimizes it.");
}
