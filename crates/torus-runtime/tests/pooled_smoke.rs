//! Smoke tests for the persistent-pool execution path: `run_pooled` must
//! match the spawn path bit-for-bit and leave the pool reusable
//! afterwards.

use torus_runtime::{pattern_payload, PoolBank, Runtime, RuntimeConfig, WorkerPool};
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
    let (pooled, _) = rt
        .run_pooled(&pool, None, |s, d| pattern_payload(s, d, 64))
        .unwrap();
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
        .run_pooled(&pool, Some(&bank), |s, d| pattern_payload(s, d, 64))
        .unwrap();
    assert!(first.verified);
    assert_eq!(bank.len(), 2, "both workers banked their frame pools");
    let (second, _) = rt
        .run_pooled(&pool, Some(&bank), |s, d| pattern_payload(s, d, 64))
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
