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
