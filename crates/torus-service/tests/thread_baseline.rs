//! Shutdown hygiene, measured on the whole process: the engine's pool
//! and driver threads must all be joined by `shutdown()`.
//!
//! `/proc/self/task` counts every thread in the process, so this test
//! lives alone in its own test binary: a sibling test running in
//! parallel would start and stop threads of its own between the two
//! reads and make the exact comparison flaky.

use torus_runtime::RuntimeConfig;
use torus_service::{Engine, EngineConfig, PayloadSpec};
use torus_topology::TorusShape;

fn small_cfg() -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64)
}

/// No worker-thread leak: after `shutdown()` the process thread count
/// returns to its pre-engine baseline.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_returns_thread_count_to_baseline() {
    fn threads_now() -> usize {
        std::fs::read_dir("/proc/self/task").unwrap().count()
    }
    let baseline = threads_now();
    let engine = Engine::new(EngineConfig::default().with_pool_size(4).with_drivers(3));
    let shape = TorusShape::new_2d(4, 4).unwrap();
    for i in 0..4u64 {
        engine
            .submit(shape.clone(), PayloadSpec::Seeded { seed: i }, small_cfg())
            .unwrap()
            .wait();
    }
    assert!(threads_now() > baseline, "pool + drivers are running");
    engine.shutdown();
    assert_eq!(
        threads_now(),
        baseline,
        "every pool and driver thread must be joined by shutdown"
    );
}
