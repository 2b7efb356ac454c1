//! The byte runtime and the simulator price a collective alike: for one
//! plan, `CollectiveRuntime`'s analytic prediction from what it measured
//! on the wire equals the simulator engine's completion time, term by
//! term (one startup per step, the step's largest message once, its
//! longest path in hops).

use std::sync::Arc;

use torus_alltoall::collectives;
use torus_alltoall::prelude::*;
use torus_alltoall::runtime::CollectiveRuntime;

#[test]
fn runtime_analytic_equals_the_simulators_elapsed() {
    let m = 64;
    let params = CommParams::cray_t3d_like();
    let (op, dtype) = (ReduceOp::Sum, Dtype::U64);
    for dims in [&[8u32, 8][..], &[3, 5], &[4, 4, 4]] {
        let shape = TorusShape::new(dims).unwrap();
        let root = shape.num_nodes() / 3;
        for kind in CollectiveOp::KINDS {
            let cop = CollectiveOp::from_parts(kind, root, op, dtype).unwrap();
            let plan = Arc::new(CollectivePlan::new(&shape, cop).unwrap());
            let sim = collectives::simulate(&plan, &params.with_block_bytes(m as u32), 1).unwrap();
            let config = RuntimeConfig::default()
                .with_block_bytes(m)
                .with_params(params);
            let (real, _) = CollectiveRuntime::from_plan(Arc::clone(&plan), config)
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{kind} on {shape}: {e}"));
            assert!(real.verified, "{kind} on {shape}");
            let (a, s) = (real.analytic, sim.elapsed);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1.0);
            assert!(
                close(a.startup, s.startup),
                "{kind} on {shape}: {a:?} vs {s:?}"
            );
            assert!(
                close(a.transmission, s.transmission),
                "{kind} on {shape}: {a:?} vs {s:?}"
            );
            assert!(
                close(a.propagation, s.propagation),
                "{kind} on {shape}: {a:?} vs {s:?}"
            );
        }
    }
}
