//! Smoke tests for the persistent-pool execution path: `run_pooled` must
//! match the spawn path bit-for-bit and leave the pool reusable
//! afterwards.

use torus_runtime::{PayloadSpec, PoolBank, Runtime, RuntimeConfig, WorkerPool};
use torus_topology::TorusShape;

#[test]
fn pooled_run_verifies_like_spawn() {
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64);
    let rt = Runtime::new(&shape, cfg).unwrap();
    let spawn = rt.run().unwrap();
    let pool = WorkerPool::new(2);
    let (pooled, _) = rt.run_pooled(&pool, None, PayloadSpec::Pattern).unwrap();
    assert!(pooled.verified);
    assert_eq!(pooled.wire_bytes, spawn.wire_bytes);
    assert_eq!(pooled.messages, spawn.messages);
    assert_eq!(pooled.nodes, spawn.nodes);
    pool.shutdown();
}

#[test]
fn sequential_pooled_runs_reuse_threads_and_warm_pools() {
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64);
    let rt = Runtime::new(&shape, cfg).unwrap();
    let pool = WorkerPool::new(2);
    let bank = PoolBank::new();
    let (first, _) = rt
        .run_pooled(&pool, Some(&bank), PayloadSpec::Pattern)
        .unwrap();
    assert!(first.verified);
    assert_eq!(bank.len(), 2, "both workers banked their frame pools");
    let (second, _) = rt
        .run_pooled(&pool, Some(&bank), PayloadSpec::Pattern)
        .unwrap();
    assert!(second.verified);
    assert!(
        second.allocations < first.allocations,
        "warm pools must cut allocations ({} -> {})",
        first.allocations,
        second.allocations
    );
    pool.shutdown();
}

/// The two payload producers feed one seeding loop: a spec seeded by the
/// per-node kernel must deliver exactly what the same spec delivers one
/// pair at a time through a closure — on exact, padded, odd-extent and
/// 3-D shapes, with a block length that leaves a partial word.
#[test]
fn pooled_spec_seeding_delivers_like_the_closure_producer() {
    const M: usize = 44;
    let pool = WorkerPool::new(2);
    let bank = PoolBank::new();
    for dims in [&[3, 5][..], &[6, 6], &[5, 7], &[4, 4, 4]] {
        let shape = TorusShape::new(dims).unwrap();
        let cfg = RuntimeConfig::default().with_workers(2).with_block_bytes(M);
        let rt = Runtime::new(&shape, cfg).unwrap();
        for spec in [PayloadSpec::Pattern, PayloadSpec::Seeded { seed: 0xC0FFEE }] {
            let (pooled, pooled_got) = rt.run_pooled(&pool, Some(&bank), spec).unwrap();
            let (spawned, spawned_got) =
                rt.run_with_payloads(|s, d| spec.payload(s, d, M)).unwrap();
            assert!(pooled.verified && spawned.verified, "{dims:?} {spec:?}");
            assert_eq!(pooled.wire_bytes, spawned.wire_bytes, "{dims:?} {spec:?}");
            assert_eq!(pooled_got, spawned_got, "{dims:?} {spec:?}");
            let n = shape.num_nodes() as usize;
            assert_eq!(pooled_got.len(), n);
            assert!(pooled_got.iter().all(|got| got.len() == n - 1));
        }
    }
    pool.shutdown();
}

/// Both backends take the walls from the thread that called the run:
/// every step takes time, the steps nest in their phases and the phases
/// in the run, and the phase and step grid is the plan's.
#[test]
fn walls_nest_steps_in_phases_in_the_run_on_both_backends() {
    let pool = WorkerPool::new(3);
    for dims in [&[4, 4, 4][..], &[8, 8]] {
        let shape = TorusShape::new(dims).unwrap();
        for workers in [1, 3] {
            let cfg = RuntimeConfig::default().with_workers(workers);
            let rt = Runtime::new(&shape, cfg).unwrap();
            let (pooled, _) = rt.run_pooled(&pool, None, PayloadSpec::Pattern).unwrap();
            for (backend, report) in [("spawn", rt.run().unwrap()), ("pool", pooled)] {
                let lane = format!("{dims:?}, {workers} worker(s), {backend}");
                assert!(report.verified, "{lane}");
                let plan = rt.plan().phases();
                assert_eq!(report.phases.len(), plan.len(), "{lane}");
                assert_eq!(report.trace.phases.len(), plan.len(), "{lane}");
                for ((phase, traced), planned) in
                    report.phases.iter().zip(&report.trace.phases).zip(plan)
                {
                    assert_eq!(phase.steps, planned.steps.len(), "{lane}");
                    assert_eq!(traced.steps.len(), planned.steps.len(), "{lane}");
                }
                let steps = || report.trace.phases.iter().flat_map(|p| &p.steps);
                assert!(steps().all(|s| s.time_us > 0.0), "{lane}");
                let step_us: f64 = steps().map(|s| s.time_us).sum();
                let phase_us: f64 = report
                    .phases
                    .iter()
                    .map(|p| p.wall.as_secs_f64() * 1e6)
                    .sum();
                let run_us = report.wall.as_secs_f64() * 1e6;
                assert!(
                    step_us <= phase_us + 1.0,
                    "{lane}: steps {step_us} > phases {phase_us} µs"
                );
                assert!(
                    phase_us <= run_us + 1.0,
                    "{lane}: phases {phase_us} > run {run_us} µs"
                );
            }
        }
    }
}
