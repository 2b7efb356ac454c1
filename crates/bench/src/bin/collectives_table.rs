//! Experiment S5 — the collective family on one substrate.
//!
//! All collectives (including the paper's all-to-all) on the same torus
//! under the same parameters: step counts, their gap to the one-port
//! dissemination bound `⌈log₂ N⌉`, critical volumes, and modeled
//! completion times. Shows where complete exchange sits in the hierarchy
//! of collective costs (top), which is the paper's motivation.
//!
//! ```text
//! cargo run --release -p bench --bin collectives_table
//! ```

use alltoall_core::Exchange;
use bench::{fnum, Table};
use cost_model::{CommParams, CostCounts};
use torus_runtime::{CollectiveOp, CollectivePlan, Dtype, ReduceOp};
use torus_topology::TorusShape;

fn main() {
    let params = CommParams::cray_t3d_like();
    let (op, dtype) = (ReduceOp::Sum, Dtype::U64);
    let ops = [
        CollectiveOp::Broadcast { root: 0 },
        CollectiveOp::Scatter { root: 0 },
        CollectiveOp::Gather { root: 0 },
        CollectiveOp::Allgather,
        CollectiveOp::Reduce { root: 0, op, dtype },
        CollectiveOp::Allreduce { op, dtype },
    ];
    for dims in [&[8u32, 8][..], &[8, 8, 8]] {
        let shape = TorusShape::new(dims).unwrap();
        let bound = u64::from(shape.num_nodes().next_power_of_two().trailing_zeros());
        println!(
            "collectives on {shape} ({} nodes), T3D-like parameters, m = {} B\n",
            shape.num_nodes(),
            params.block_bytes
        );
        let mut t = Table::new(&[
            "operation",
            "steps",
            "ceil(log2 N)",
            "gap",
            "crit blocks",
            "hops",
            "time (µs)",
        ]);
        let mut row = |name: &str, counts: CostCounts, time: f64, ok: bool| {
            assert!(ok, "{name} failed verification");
            t.row(&[
                name.to_string(),
                counts.startup_steps.to_string(),
                bound.to_string(),
                (counts.startup_steps - bound).to_string(),
                counts.trans_blocks.to_string(),
                counts.prop_hops.to_string(),
                fnum(time),
            ]);
        };
        for op in ops {
            let plan = CollectivePlan::new(&shape, op).unwrap();
            let r = collectives::simulate(&plan, &params, 1).unwrap();
            // The reductions carry real data: every block the replay
            // leaves must equal the order-independent direct fold.
            let seed = |u: u32| u64::from(u).to_le_bytes().to_vec();
            let exact = plan.direct_reduction(8, seed).is_none_or(|direct| {
                let finals = plan.reference_finals(8, seed).unwrap();
                finals.iter().flatten().all(|(_, b)| *b == direct)
            });
            row(r.name, r.counts, r.total_time(), exact);
        }
        let rep = Exchange::new(&shape)
            .unwrap()
            .run_counting(&params)
            .unwrap();
        row(
            "alltoall (paper)",
            rep.counts,
            rep.total_time(),
            rep.verified,
        );
        t.print();
        println!();
    }
    println!("expected shape: alltoall transmits the most data of the family; the paper's");
    println!("combining keeps its *startup* count on par with the cheap collectives, and");
    println!("every rooted collective meets the ⌈log₂ N⌉ one-port bound (gap 0).");
}
