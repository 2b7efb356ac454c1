//! Admission under concurrency: the global depth bound is exact with
//! many submitters at once, and submissions racing `shutdown()` are
//! either refused or run to a terminal state — never lost.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use torus_runtime::{FaultPlan, RetryPolicy, RuntimeConfig, WorkerFaultKind};
use torus_service::{
    CancelOutcome, Engine, EngineConfig, JobHandle, JobStatus, PayloadSpec, SubmitError,
    TenantQuota,
};
use torus_topology::TorusShape;

fn small_cfg() -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64)
}

/// A run that pins its driver in a 30 s worker stall until cancelled.
fn stalled_cfg() -> RuntimeConfig {
    small_cfg()
        .with_faults(FaultPlan::seeded(1).with_worker_fault(
            0,
            0,
            WorkerFaultKind::StallMicros(30_000_000),
        ))
        .with_retry(
            RetryPolicy::default()
                .with_deadline(Duration::from_secs(60))
                .with_max_retries(64),
        )
}

fn await_running(handle: &JobHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.try_status() == JobStatus::Queued {
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls `handle` until it is terminal, failing the test past `within`.
fn await_terminal(handle: &JobHandle, within: Duration) -> JobStatus {
    let deadline = Instant::now() + within;
    loop {
        let status = handle.try_status();
        if status.is_terminal() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "job {} stuck in {status:?} past {within:?}",
            handle.id()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Eight threads submit sixteen jobs each at the same moment into a
/// depth-8 queue whose only driver is pinned: exactly eight are
/// admitted, the other 120 are refused `QueueFull`, and the high-water
/// mark never passes the bound.
#[test]
fn admission_bound_is_exact_under_concurrent_submitters() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 16;
    const DEPTH: usize = 8;
    let engine = Arc::new(Engine::new(
        EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(1)
            .with_queue_depth(DEPTH),
    ));
    engine.set_tenant_quota("acme", TenantQuota::default().with_max_queued(256));
    let shape = TorusShape::new_2d(4, 4).unwrap();

    let blocker = engine
        .submit(shape.clone(), PayloadSpec::Pattern, stalled_cfg())
        .unwrap();
    await_running(&blocker);

    let barrier = Arc::new(Barrier::new(THREADS));
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let shape = shape.clone();
            std::thread::spawn(move || {
                barrier.wait();
                (0..PER_THREAD)
                    .map(|i| {
                        let seed = (t * PER_THREAD + i) as u64;
                        engine.submit_as(
                            "acme",
                            shape.clone(),
                            PayloadSpec::Seeded { seed },
                            small_cfg(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut accepted = Vec::new();
    let mut full = 0;
    for submitter in submitters {
        for outcome in submitter.join().unwrap() {
            match outcome {
                Ok(handle) => accepted.push(handle),
                Err(SubmitError::QueueFull { depth, .. }) => {
                    assert_eq!(depth, DEPTH);
                    full += 1;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
    }
    assert_eq!(accepted.len(), DEPTH);
    assert_eq!(full, THREADS * PER_THREAD - DEPTH);
    let acme = engine
        .tenant_stats()
        .into_iter()
        .find(|t| t.tenant == "acme")
        .unwrap();
    assert_eq!(
        (acme.jobs_accepted + acme.jobs_rejected) as usize,
        THREADS * PER_THREAD
    );
    assert_eq!(engine.stats().queue_high_water, DEPTH);

    assert_eq!(engine.cancel(blocker.id()), CancelOutcome::Cancelling);
    for handle in &accepted {
        assert_eq!(
            await_terminal(handle, Duration::from_secs(30)),
            JobStatus::Completed
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_completed as usize, DEPTH);
    assert_eq!(stats.jobs_cancelled, 1);
}

/// One round of four submitters racing `shutdown()`: every admitted job
/// reaches a terminal state, every refusal is `ShuttingDown` or
/// `QueueFull`, and the final books account for exactly the admitted
/// jobs. `round` staggers when shutdown fires.
fn submits_racing_shutdown_round(round: u64) {
    const SUBMITTERS: usize = 4;
    let engine = Arc::new(Engine::new(
        EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(2)
            .with_queue_depth(16),
    ));
    let shape = TorusShape::new_2d(2, 2).unwrap();
    let barrier = Arc::new(Barrier::new(SUBMITTERS + 1));
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let shape = shape.clone();
            std::thread::spawn(move || {
                let tenant = format!("t{t}");
                let mut admitted = Vec::new();
                barrier.wait();
                for seed in 0u64.. {
                    match engine.submit_as(
                        &tenant,
                        shape.clone(),
                        PayloadSpec::Seeded { seed },
                        small_cfg(),
                    ) {
                        Ok(handle) => admitted.push(handle),
                        Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(SubmitError::ShuttingDown) => break,
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
                admitted
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(Duration::from_micros(50 * (round % 20)));
    engine.shutdown();
    let admitted: Vec<JobHandle> = submitters
        .into_iter()
        .flat_map(|s| s.join().unwrap())
        .collect();
    for handle in &admitted {
        await_terminal(handle, Duration::from_secs(30));
    }
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_accepted as usize, admitted.len());
    assert_eq!(
        stats.jobs_accepted,
        stats.jobs_completed
            + stats.jobs_failed
            + stats.jobs_cancelled
            + stats.jobs_deadline_exceeded,
        "books must balance: {stats:?}"
    );
}

#[test]
fn submits_racing_shutdown_lose_nothing() {
    for round in 0..20 {
        submits_racing_shutdown_round(round);
    }
}

/// The same race, 500 rounds, run serialized in the stress lane:
/// `cargo test -p torus-service --features chaos -- --ignored
/// --test-threads=1`.
#[cfg(feature = "chaos")]
#[ignore = "stress: 500 shutdown races; run serialized via CI"]
#[test]
fn submits_racing_shutdown_lose_nothing_stress() {
    for round in 0..500 {
        submits_racing_shutdown_round(round);
    }
}
