//! Connection-churn test for the poll-reactor connection plane: the
//! daemon's thread count is exactly one reactor (the thread running the
//! daemon) + engine drivers + worker pool, never a function of how many
//! clients are connected or how many jobs are in flight — and clients
//! that vanish mid-job leak neither threads nor jobs. The daemon
//! journals, as the CLI's and the benchmark's do: the journal's group
//! commit runs on the reactor and adds no thread.
//!
//! This lives in its own test binary on purpose: it counts the threads
//! of the whole process via `/proc/self/task`, so it must not share a
//! process with concurrently running tests spawning their own daemons.

#![cfg(target_os = "linux")]

use std::time::Duration;

use torus_service::EngineConfig;
use torus_serviced::{Client, Daemon, DaemonConfig, JobSpec, JournalConfig};

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn seeded_spec(seed: u64) -> JobSpec {
    JobSpec {
        shape: vec![4, 4],
        block_bytes: 32,
        payload: torus_service::PayloadSpec::Seeded { seed },
        ..JobSpec::default()
    }
}

#[test]
fn hundreds_of_churning_connections_leak_neither_threads_nor_jobs() {
    const DRIVERS: usize = 2;
    const POOL: usize = 4;
    const WAVES: u64 = 8;
    const CONNS_PER_WAVE: u64 = 25;

    let journal_dir =
        std::env::temp_dir().join(format!("torus-churn-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let config = DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(POOL)
            .with_drivers(DRIVERS)
            .with_queue_depth(512),
        status_poll: Duration::from_millis(1),
        journal: Some(JournalConfig::new(&journal_dir)),
        ..DaemonConfig::default()
    };
    let before = threads_now();
    let (addr, daemon) = Daemon::spawn(config).unwrap();

    // Warm up: one full job round-trip, then drop the connection, so
    // the baseline includes every lazily started daemon thread.
    let mut seed = 0u64;
    {
        let mut warmup = Client::connect(addr).unwrap();
        warmup.hello("warmup").unwrap();
        let job = warmup.submit(&seeded_spec(seed)).unwrap();
        assert!(warmup.wait_done(job).unwrap().ok);
    }
    let baseline = threads_now();
    assert_eq!(
        baseline - before,
        1 + DRIVERS + POOL,
        "a daemon adds exactly one reactor, its drivers and its pool workers"
    );

    let mut accepted = 0u64;
    let mut peak = 0usize;
    for wave in 0..WAVES {
        // Open a whole wave of authenticated connections, each with one
        // job in flight, before closing any of them.
        let mut clients: Vec<(Client, u64)> = (0..CONNS_PER_WAVE)
            .map(|i| {
                let mut client = Client::connect(addr).unwrap();
                client.hello(&format!("tenant-{}", i % 3)).unwrap();
                seed += 1;
                let job = client.submit(&seeded_spec(seed)).unwrap();
                accepted += 1;
                (client, job)
            })
            .collect();
        peak = peak.max(threads_now());

        // Odd connections vanish mid-job (no wait, no goodbye) — the
        // reactor must reap them without orphaning their jobs; even
        // connections see their job through.
        let survivors: Vec<(Client, u64)> = clients
            .drain(..)
            .enumerate()
            .filter_map(|(i, pair)| (i % 2 == 0).then_some(pair))
            .collect();
        for (mut client, job) in survivors {
            assert!(
                client.wait_done(job).unwrap().ok,
                "wave {wave}: surviving connection lost its job"
            );
        }
    }

    assert_eq!(
        peak,
        baseline,
        "thread count grew with connections: baseline {baseline}, \
         peak {peak} across {} connections",
        WAVES * CONNS_PER_WAVE
    );

    // No job leak: drain waits for every admitted job, and the books
    // must balance — jobs whose submitter vanished still completed.
    let mut admin = Client::connect(addr).unwrap();
    let service = admin.drain().unwrap();
    let completed = service
        .get("jobs_completed")
        .and_then(torus_serviced::json::Json::as_u64)
        .unwrap();
    let failed = service
        .get("jobs_failed")
        .and_then(torus_serviced::json::Json::as_u64)
        .unwrap();
    assert_eq!(failed, 0, "clean jobs must not fail");
    assert_eq!(
        completed,
        accepted + 1, // + the warm-up job
        "every accepted job must complete even if its submitter hung up"
    );

    let stats = daemon.join().unwrap();
    assert_eq!(stats.jobs_completed, completed);
    assert!(
        threads_now() < baseline,
        "daemon threads must be joined after run() returns"
    );
    let _ = std::fs::remove_dir_all(&journal_dir);
}
