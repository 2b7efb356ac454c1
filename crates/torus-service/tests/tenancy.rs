//! Multi-tenant admission and accounting: typed quota and rate-limit
//! rejections, fair round-robin dispatch, per-tenant in-flight caps, latency percentiles,
//! and the concurrent-shutdown stats snapshot.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use torus_runtime::{FaultPlan, OnFailure, RetryPolicy, RuntimeConfig, WorkerFaultKind};
use torus_service::{
    Engine, EngineConfig, JobStatus, PayloadSpec, RateLimit, SubmitError, TenantQuota,
    DEFAULT_TENANT,
};
use torus_topology::TorusShape;

fn small_cfg() -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64)
}

/// A config whose job holds its driver for at least `ms` before failing:
/// an unrecoverable worker kill under `Abort`, so the run spends the
/// whole receive deadline (plus one retry) before giving up.
fn blocker_cfg(ms: u64) -> RuntimeConfig {
    small_cfg()
        .with_faults(FaultPlan::default().with_worker_fault(1, 3, WorkerFaultKind::Kill))
        .with_retry(
            RetryPolicy::default()
                .with_deadline(Duration::from_millis(ms))
                .with_max_retries(1)
                .with_backoff(Duration::from_micros(500)),
        )
        .with_on_failure(OnFailure::Abort)
}

#[test]
fn tenant_queue_quota_rejects_typed_while_global_has_room() {
    let engine = Engine::new(
        EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(1)
            .with_queue_depth(16),
    );
    engine.set_tenant_quota("acme", TenantQuota::default().with_max_queued(1));
    let shape = TorusShape::new_2d(4, 4).unwrap();

    // Pin the single driver for ~60 ms so queue contents are stable.
    let blocker = engine
        .submit(shape.clone(), PayloadSpec::Pattern, blocker_cfg(60))
        .unwrap();

    let first = engine
        .submit_as("acme", shape.clone(), PayloadSpec::Pattern, small_cfg())
        .unwrap();
    let err = engine
        .submit_as("acme", shape.clone(), PayloadSpec::Pattern, small_cfg())
        .unwrap_err();
    assert!(
        matches!(
            &err,
            SubmitError::TenantQueueFull {
                tenant,
                max_queued: 1,
                ..
            } if tenant == "acme"
        ),
        "expected acme's tenant-queue-full rejection, got {err:?}"
    );
    // Another tenant is unaffected by acme's quota.
    let other = engine
        .submit_as("zeta", shape, PayloadSpec::Pattern, small_cfg())
        .unwrap();

    assert_eq!(blocker.wait().job_id, blocker.id());
    first.wait();
    other.wait();
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_accepted, 3);
    assert_eq!(stats.jobs_rejected, 1);

    let tenants = engine.tenant_stats();
    let acme = tenants.iter().find(|t| t.tenant == "acme").unwrap();
    assert_eq!(acme.jobs_accepted, 1);
    assert_eq!(acme.jobs_rejected, 1);
    assert_eq!(acme.jobs_completed, 1);
    let zeta = tenants.iter().find(|t| t.tenant == "zeta").unwrap();
    assert_eq!(zeta.jobs_rejected, 0);
    let default = tenants.iter().find(|t| t.tenant == DEFAULT_TENANT).unwrap();
    assert_eq!(default.jobs_failed, 1, "the blocker job fails by design");
}

#[test]
fn rate_limit_rejects_typed_with_a_backoff_hint_per_tenant() {
    // 50 jobs/s with a burst of one: the first submission spends the
    // only token and the next whole one is 20 ms away.
    let engine = Engine::new(EngineConfig::default().with_default_quota(
        TenantQuota::default().with_rate_limit(RateLimit::per_sec(50).with_burst(1)),
    ));
    let shape = TorusShape::new_2d(4, 4).unwrap();

    let first = engine
        .submit_as("acme", shape.clone(), PayloadSpec::Pattern, small_cfg())
        .unwrap();
    let err = engine
        .submit_as("acme", shape.clone(), PayloadSpec::Pattern, small_cfg())
        .unwrap_err();
    match &err {
        SubmitError::RateLimited {
            tenant,
            retry_after_ms,
        } => {
            assert_eq!(tenant, "acme");
            assert!((1..=20).contains(retry_after_ms), "{err:?}");
        }
        other => panic!("expected acme's rate-limit rejection, got {other:?}"),
    }
    // Each tenant has its own bucket.
    let other = engine
        .submit_as("zeta", shape, PayloadSpec::Pattern, small_cfg())
        .unwrap();

    first.wait();
    other.wait();
    let stats = engine.shutdown();
    assert_eq!((stats.jobs_accepted, stats.jobs_rejected), (2, 1));
    let tenants = engine.tenant_stats();
    let acme = tenants.iter().find(|t| t.tenant == "acme").unwrap();
    assert_eq!((acme.jobs_accepted, acme.jobs_rejected), (1, 1));
    let zeta = tenants.iter().find(|t| t.tenant == "zeta").unwrap();
    assert_eq!((zeta.jobs_accepted, zeta.jobs_rejected), (1, 0));
}

#[test]
fn dispatch_round_robins_across_tenants_not_fifo() {
    let engine = Engine::new(
        EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(1)
            .with_queue_depth(16),
    );
    let shape = TorusShape::new_2d(4, 4).unwrap();

    // Pin the single driver, then queue two bursts: t1 submits both of
    // its jobs before t2 submits either. Global FIFO would run
    // a1 a2 b1 b2; round-robin must interleave a1 b1 a2 b2.
    let blocker = engine
        .submit(shape.clone(), PayloadSpec::Pattern, blocker_cfg(60))
        .unwrap();
    let order: Arc<Mutex<Vec<(char, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut watchers = Vec::new();
    for (tenant, tag, seed) in [
        ("t1", 'a', 1u64),
        ("t1", 'a', 2),
        ("t2", 'b', 3),
        ("t2", 'b', 4),
    ] {
        let handle = engine
            .submit_as(
                tenant,
                shape.clone(),
                PayloadSpec::Seeded { seed },
                small_cfg(),
            )
            .unwrap();
        let order = Arc::clone(&order);
        watchers.push(std::thread::spawn(move || {
            let result = handle.wait();
            order.lock().unwrap().push((tag, result.job_id));
        }));
    }
    blocker.wait();
    for w in watchers {
        w.join().unwrap();
    }
    let tags: Vec<char> = order.lock().unwrap().iter().map(|(t, _)| *t).collect();
    assert_eq!(
        tags,
        vec!['a', 'b', 'a', 'b'],
        "single driver must alternate tenants, not drain t1 first"
    );
    engine.shutdown();
}

#[test]
fn in_flight_cap_serializes_a_tenants_jobs() {
    let engine = Engine::new(
        EngineConfig::default()
            .with_pool_size(4)
            .with_drivers(4)
            .with_queue_depth(16)
            .with_default_quota(TenantQuota::default().with_max_in_flight(1)),
    );
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            engine
                .submit(shape.clone(), PayloadSpec::Seeded { seed }, small_cfg())
                .unwrap()
        })
        .collect();
    // With four idle drivers and a cap of one, at most one job may be
    // Running at any sample point.
    loop {
        let statuses: Vec<_> = handles.iter().map(|h| h.try_status()).collect();
        let running = statuses
            .iter()
            .filter(|s| **s == JobStatus::Running)
            .count();
        assert!(running <= 1, "in-flight cap violated: {statuses:?}");
        if statuses.iter().all(|s| *s == JobStatus::Completed) {
            break;
        }
        std::thread::yield_now();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.jobs_completed, 4);
}

#[test]
fn latency_percentiles_populate_and_are_monotone() {
    let engine = Engine::new(EngineConfig::default().with_pool_size(2).with_drivers(2));
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let handles: Vec<_> = (0..12)
        .map(|seed| {
            engine
                .submit_as(
                    "lat",
                    shape.clone(),
                    PayloadSpec::Seeded { seed },
                    small_cfg(),
                )
                .unwrap()
        })
        .collect();
    for h in &handles {
        h.wait();
    }
    let stats = engine.shutdown();
    for (name, lat) in [
        ("queue_wait", stats.queue_wait),
        ("run_time", stats.run_time),
    ] {
        assert_eq!(lat.count, 12, "{name} must record every job");
        assert!(
            lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max,
            "{name} percentiles must be monotone: {lat:?}"
        );
    }
    assert!(stats.run_time.max > 0, "an exchange takes measurable time");
    let tenants = engine.tenant_stats();
    let lat = tenants.iter().find(|t| t.tenant == "lat").unwrap();
    assert_eq!(lat.run_time.count, 12);
    assert!(lat.run_time.p50 <= lat.run_time.p99);
}

/// Regression: two threads racing `shutdown()` used to let the loser
/// snapshot stats before the winner's drivers had drained the queue,
/// returning undercounted totals. Both callers must now report the
/// same post-drain numbers.
#[test]
fn concurrent_shutdown_callers_see_identical_final_stats() {
    for round in 0..8u64 {
        let engine = Arc::new(Engine::new(
            EngineConfig::default()
                .with_pool_size(2)
                .with_drivers(2)
                .with_queue_depth(32),
        ));
        let shape = TorusShape::new_2d(4, 4).unwrap();
        for seed in 0..6 {
            engine
                .submit(
                    shape.clone(),
                    PayloadSpec::Seeded {
                        seed: round * 100 + seed,
                    },
                    small_cfg(),
                )
                .unwrap();
        }
        let racers: Vec<_> = (0..3)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || engine.shutdown())
            })
            .collect();
        let mut snapshots: Vec<_> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        snapshots.push(engine.shutdown());
        for snap in &snapshots {
            assert_eq!(
                snap.jobs_completed, 6,
                "round {round}: a shutdown caller saw a pre-drain snapshot"
            );
            assert_eq!(snap, &snapshots[0], "round {round}: snapshots diverge");
        }
    }
}
