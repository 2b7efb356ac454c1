//! Job lifecycle hardening: explicit cancellation of queued and running
//! jobs, wall-clock deadlines carried by each job's cancel token, and the
//! books invariant (`accepted == completed + failed + cancelled +
//! deadline_exceeded`) across every terminal path.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use torus_runtime::{FaultPlan, RetryPolicy, RuntimeConfig, WorkerFaultKind};
use torus_service::{
    CancelOutcome, Engine, EngineConfig, JobEvent, JobHandle, JobStatus, PayloadSpec,
};
use torus_topology::TorusShape;

fn shape() -> TorusShape {
    TorusShape::new_2d(4, 4).unwrap()
}

fn quick_cfg() -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64)
}

/// A run that pins a pool worker in a stall long enough that only a
/// cancel or the deadline ends the job: the retry policy outlives the
/// stall, so the runtime itself never gives up first.
fn stalled_cfg(stall: Duration) -> RuntimeConfig {
    quick_cfg()
        .with_faults(FaultPlan::seeded(1).with_worker_fault(
            0,
            0,
            WorkerFaultKind::StallMicros(stall.as_micros() as u64),
        ))
        .with_retry(
            RetryPolicy::default()
                .with_deadline(Duration::from_secs(60))
                .with_max_retries(64),
        )
}

fn wait_until_running(handle: &JobHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.try_status() == JobStatus::Queued {
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn assert_books_balance(engine: &Engine) {
    let s = engine.stats();
    assert_eq!(
        s.jobs_accepted,
        s.jobs_completed + s.jobs_failed + s.jobs_cancelled + s.jobs_deadline_exceeded,
        "service books must balance: {s:?}"
    );
    for t in engine.tenant_stats() {
        assert_eq!(
            t.jobs_accepted,
            t.jobs_completed + t.jobs_failed + t.jobs_cancelled + t.jobs_deadline_exceeded,
            "tenant books must balance: {t:?}"
        );
    }
}

/// A queued job cancels synchronously: the engine finishes it on the
/// spot as `Cancelled` with a typed error, without a driver ever
/// touching it.
#[test]
fn cancel_queued_job_finishes_immediately() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2).with_drivers(1));
    // Occupy the single driver so the next submission stays queued.
    let blocker = engine
        .submit(
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(2)),
        )
        .unwrap();
    wait_until_running(&blocker);
    let queued = engine
        .submit(shape(), PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    assert_eq!(queued.try_status(), JobStatus::Queued);

    assert_eq!(engine.cancel(&queued), CancelOutcome::Cancelled);
    assert_eq!(queued.try_status(), JobStatus::Cancelled);
    let result = queued.wait();
    assert!(
        result.error.as_deref().unwrap_or("").contains("cancelled"),
        "cancelled job must carry a typed error, got {:?}",
        result.error
    );
    assert!(result.deliveries.is_none());

    // The blocker is unaffected; free the engine and check the books.
    assert_eq!(engine.cancel(&blocker), CancelOutcome::Cancelling);
    blocker.wait();
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_accepted, 2);
    assert_eq!(stats.jobs_cancelled, 2);
    assert_eq!(stats.jobs_completed, 0);
}

/// A running job stops at the next cancellation checkpoint — orders of
/// magnitude sooner than its injected stall would otherwise hold the
/// pool — and reports `Cancelled`, not `Failed`.
#[test]
fn cancel_running_job_aborts_promptly() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2).with_drivers(1));
    let job = engine
        .submit(
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(30)),
        )
        .unwrap();
    wait_until_running(&job);

    let cancelled_at = Instant::now();
    assert_eq!(engine.cancel(&job), CancelOutcome::Cancelling);
    let result = job.wait();
    let to_terminal = cancelled_at.elapsed();
    assert_eq!(job.try_status(), JobStatus::Cancelled);
    assert!(
        to_terminal < Duration::from_secs(10),
        "cancel took {to_terminal:?} against a 30s stall"
    );
    assert!(result.error.is_some());

    // The pool reservation is released: a fresh job completes.
    let next = engine
        .submit(shape(), PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    assert_eq!(next.wait().error, None);
    assert_books_balance(&engine);
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_completed, 1);
}

/// Cancelling a job already terminal is a safe no-op.
#[test]
fn cancel_terminal_is_a_noop() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2));
    let job = engine
        .submit(shape(), PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    job.wait();
    assert_eq!(engine.cancel(&job), CancelOutcome::Unknown);
    assert_eq!(job.try_status(), JobStatus::Completed);
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_cancelled, 0);
}

/// The acceptance scenario: a job whose pinned worker stalls without
/// ever recovering, submitted with a wall-clock deadline, is reaped at
/// the run's first checkpoint past the deadline — never before it —
/// reports the typed `DeadlineExceeded` status, frees its pool
/// reservation, and leaves the books balanced.
#[test]
fn deadline_reaps_a_stalled_job() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2).with_drivers(1));
    let submitted_at = Instant::now();
    let job = engine
        .submit_with_deadline(
            "default",
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(30)),
            Some(Duration::from_millis(150)),
        )
        .unwrap();
    let result = job.wait();
    let to_terminal = submitted_at.elapsed();
    assert_eq!(job.try_status(), JobStatus::DeadlineExceeded);
    assert!(
        result.error.as_deref().unwrap_or("").contains("deadline"),
        "deadline reap must carry a typed error, got {:?}",
        result.error
    );
    // Deadline 150ms + checkpoint latency: never early, and the 30s
    // stall must not be what ended the job.
    assert!(
        to_terminal >= Duration::from_millis(150),
        "reaped after {to_terminal:?}, before its 150ms deadline"
    );
    assert!(
        to_terminal < Duration::from_secs(10),
        "reap took {to_terminal:?} against a 150ms deadline"
    );

    // Reservation freed: the engine still runs jobs to completion.
    let next = engine
        .submit(shape(), PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    assert_eq!(next.wait().error, None);
    assert_books_balance(&engine);
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_deadline_exceeded, 1);
    assert_eq!(stats.jobs_completed, 1);
}

/// A deadline counts from dispatch, not submission: a job that waits in
/// the queue for twice its deadline still runs to completion.
#[test]
fn queue_wait_does_not_count_against_the_deadline() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2).with_drivers(1));
    let blocker = engine
        .submit(
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(30)),
        )
        .unwrap();
    wait_until_running(&blocker);
    let job = engine
        .submit_with_deadline(
            "default",
            shape(),
            PayloadSpec::Pattern,
            quick_cfg(),
            Some(Duration::from_millis(150)),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(job.try_status(), JobStatus::Queued);

    assert_eq!(engine.cancel(&blocker), CancelOutcome::Cancelling);
    let result = job.wait();
    assert_eq!(job.try_status(), JobStatus::Completed);
    assert_eq!(result.error, None);
    assert!(engine.stats().queue_wait.max >= 300_000);
    assert_books_balance(&engine);
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_deadline_exceeded, 0);
}

/// Jobs that name no deadline inherit the engine default, and the
/// server-side maximum clamps even explicit requests above it.
#[test]
fn default_and_max_deadline_bound_every_job() {
    let engine = Engine::new(
        EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(2)
            .with_default_deadline(Duration::from_millis(100))
            .with_max_deadline(Duration::from_millis(200)),
    );
    // No requested deadline: the default applies.
    let defaulted = engine
        .submit(
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(30)),
        )
        .unwrap();
    // Requests far above the max: clamped to 200ms.
    let clamped = engine
        .submit_with_deadline(
            "default",
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(30)),
            Some(Duration::from_secs(3600)),
        )
        .unwrap();
    let started = Instant::now();
    defaulted.wait();
    clamped.wait();
    assert_eq!(defaulted.try_status(), JobStatus::DeadlineExceeded);
    assert_eq!(clamped.try_status(), JobStatus::DeadlineExceeded);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "both reaps must beat the 30s stalls by a wide margin"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_deadline_exceeded, 2);
}

/// A cancel storm across queued, running, and already-terminal jobs:
/// every job reaches exactly one terminal state and the books balance
/// at both the service and tenant level.
#[test]
fn cancel_storm_keeps_books_balanced() {
    let engine = Engine::new(
        EngineConfig::default()
            .with_pool_size(4)
            .with_drivers(2)
            .with_queue_depth(256),
    );
    let mut handles = Vec::new();
    for i in 0..24u64 {
        let tenant = format!("tenant-{}", i % 6);
        let cfg = if i % 3 == 0 {
            stalled_cfg(Duration::from_secs(20))
        } else {
            quick_cfg()
        };
        handles.push(
            engine
                .submit_as(&tenant, shape(), PayloadSpec::Pattern, cfg)
                .unwrap(),
        );
    }
    // Cancel everything, twice, racing the drivers. Whatever each
    // cancel observes (queued, running, already terminal) must resolve
    // to exactly one terminal state per job.
    for pass in 0..2 {
        for handle in &handles {
            let outcome = engine.cancel(handle);
            if pass == 1 {
                // Second pass: nothing is queued anymore, so a repeat
                // cancel is either still-cancelling or a no-op.
                assert_ne!(outcome, CancelOutcome::Cancelled);
            }
        }
    }
    for handle in &handles {
        let status = handle.wait();
        assert!(
            handle.try_status().is_terminal(),
            "job {} stuck in {:?}",
            handle.id(),
            handle.try_status()
        );
        drop(status);
    }
    assert_books_balance(&engine);
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_accepted, 24);
    assert_eq!(
        stats.jobs_completed + stats.jobs_failed + stats.jobs_cancelled,
        24,
        "no deadline was set, so terminals are completed/failed/cancelled only: {stats:?}"
    );
    assert!(stats.jobs_cancelled > 0, "the storm must land some cancels");
}

/// An extent the schedule cannot hold (1028 pads past 1024) fails the
/// job at plan build and releases the build claim: a second submit of
/// the same shape fails too instead of waiting on the claim, and the
/// engine still completes a 4x4 job afterwards.
#[test]
fn oversized_extent_fails_the_job_and_releases_the_plan_build() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2).with_drivers(2));
    let huge = TorusShape::new_2d(1028, 4).unwrap();
    for _ in 0..2 {
        let job = engine
            .submit(huge.clone(), PayloadSpec::Pattern, quick_cfg())
            .unwrap();
        let result = job.wait();
        assert_eq!(job.try_status(), JobStatus::Failed);
        let error = result.error.as_deref().unwrap_or_default();
        assert!(error.contains("bad shape"), "{error}");
    }
    let next = engine
        .submit(shape(), PayloadSpec::Seeded { seed: 5 }, quick_cfg())
        .unwrap();
    let result = next.wait();
    assert_eq!(
        next.try_status(),
        JobStatus::Completed,
        "{:?}",
        result.error
    );
    assert!(result.report.as_ref().unwrap().verified);
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 2);
}

/// The `Finished` hook runs before the terminal result is published: a
/// waiter (or a daemon streaming `done`) never sees a job finish before
/// what the hook records — the daemon's journaled terminal record —
/// exists. A slow hook makes the window wide; every terminal path
/// (completion, plan-build failure, a queued cancel) must close it.
#[test]
fn finished_hook_runs_before_the_job_is_seen_terminal() {
    let recorded: Arc<Mutex<HashSet<u64>>> = Arc::default();
    let hook_recorded = Arc::clone(&recorded);
    let engine = Engine::new(
        EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(1)
            .with_event_hook(Arc::new(move |event| {
                if let JobEvent::Finished { job_id, .. } = event {
                    std::thread::sleep(Duration::from_millis(50));
                    hook_recorded.lock().unwrap().insert(job_id);
                }
            })),
    );
    let recorded_when_seen = |handle: &JobHandle| {
        handle.wait();
        recorded.lock().unwrap().contains(&handle.id())
    };

    let clean = engine
        .submit(shape(), PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    assert!(
        recorded_when_seen(&clean),
        "completion seen before its hook"
    );

    let huge = TorusShape::new_2d(1028, 4).unwrap();
    let failed = engine
        .submit(huge, PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    assert!(
        recorded_when_seen(&failed),
        "build failure seen before its hook"
    );
    assert_eq!(failed.try_status(), JobStatus::Failed);

    // Occupy the single driver so the next submission stays queued.
    let blocker = engine
        .submit(
            shape(),
            PayloadSpec::Pattern,
            stalled_cfg(Duration::from_secs(2)),
        )
        .unwrap();
    wait_until_running(&blocker);
    let queued = engine
        .submit(shape(), PayloadSpec::Pattern, quick_cfg())
        .unwrap();
    assert_eq!(engine.cancel(&queued), CancelOutcome::Cancelled);
    assert!(
        recorded_when_seen(&queued),
        "queued cancel seen before its hook"
    );

    assert_eq!(engine.cancel(&blocker), CancelOutcome::Cancelling);
    assert!(recorded_when_seen(&blocker), "abort seen before its hook");
    assert_eq!(blocker.try_status(), JobStatus::Cancelled);
    engine.shutdown();
}
