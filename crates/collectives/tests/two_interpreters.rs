//! Two interpreters, one plan: the *same* `CollectivePlan` object goes
//! through the simulator (`collectives::simulate`) and through the byte
//! executor (`torus_runtime::CollectiveRuntime`), and both must walk the
//! phases and steps the plan lists.

use std::sync::Arc;

use collectives::simulate;
use cost_model::CommParams;
use torus_runtime::{
    CollectiveOp, CollectivePlan, CollectiveRuntime, Dtype, ReduceOp, RuntimeConfig,
};
use torus_topology::TorusShape;

#[test]
fn simulator_and_byte_runtime_walk_the_same_phases_and_steps() {
    let (op, dtype) = (ReduceOp::Sum, Dtype::U64);
    for dims in [&[4u32, 4][..], &[4, 4, 4]] {
        let shape = TorusShape::new(dims).unwrap();
        let root = shape.num_nodes() / 3;
        for kind in CollectiveOp::KINDS {
            let cop = CollectiveOp::from_parts(kind, root, op, dtype).unwrap();
            let plan = Arc::new(CollectivePlan::new(&shape, cop).unwrap());

            let sim = simulate(&plan, &CommParams::unit(), 1).unwrap();
            let config = RuntimeConfig::default().with_block_bytes(8).with_workers(2);
            let (real, _) = CollectiveRuntime::from_plan(Arc::clone(&plan), config)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{kind} on {shape}: {e}"));

            assert_eq!(sim.name, kind);
            assert!(real.verified, "{kind} on {shape}");
            assert_eq!(
                sim.counts.startup_steps,
                real.total_steps() as u64,
                "{kind} on {shape}: simulator and runtime disagree on step count"
            );
            let walked: Vec<(String, usize)> = real
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.steps))
                .collect();
            assert_eq!(walked, plan.phases(), "{kind} on {shape}: phase order");
        }
    }
}
