//! Thread hygiene, measured on the whole process: an engine runs
//! exactly its pool and driver threads, and `shutdown()` joins them all.
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

/// An engine adds one thread per pool worker and per driver and no
/// other, jobs spawn none, and after `shutdown()` the process thread
/// count returns to its pre-engine baseline.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_returns_thread_count_to_baseline() {
    fn threads_now() -> usize {
        std::fs::read_dir("/proc/self/task").unwrap().count()
    }
    let baseline = threads_now();
    let engine = Engine::new(EngineConfig::default().with_pool_size(4).with_drivers(3));
    assert_eq!(threads_now(), baseline + 7, "4 pool workers + 3 drivers");
    let shape = TorusShape::new_2d(4, 4).unwrap();
    for i in 0..4u64 {
        engine
            .submit(shape.clone(), PayloadSpec::Seeded { seed: i }, small_cfg())
            .unwrap()
            .wait();
    }
    assert_eq!(threads_now(), baseline + 7, "jobs spawn no thread");
    engine.shutdown();
    assert_eq!(
        threads_now(),
        baseline,
        "every pool and driver thread must be joined by shutdown"
    );
}
