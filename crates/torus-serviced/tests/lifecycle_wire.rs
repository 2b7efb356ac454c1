//! Wire-level job lifecycle tests: server-side deadlines reaped at the
//! run's first checkpoint past them, `done` and the daemon's exit sent
//! on a wake rather than the next status poll, tenant-scoped
//! cancellation of queued and running jobs, idle-connection reaping,
//! and the exactly-one-terminal-record journal invariant under a
//! multi-tenant cancel storm.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use torus_service::EngineConfig;
use torus_serviced::journal::RecordKind;
use torus_serviced::{json::Json, Client, Daemon, DaemonConfig, JobSpec};

fn quick_config() -> DaemonConfig {
    DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        status_poll: Duration::from_millis(1),
        ..DaemonConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("torus-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spec whose pinned worker stalls for `stall_ms` without recovering,
/// with a retry policy that outlives the stall — only a cancel or the
/// deadline ends this job early.
fn stalled_spec(stall_ms: u64) -> Json {
    torus_serviced::json::parse(&format!(
        r#"{{"shape":[4,4],"block_bytes":32,
             "fault":{{"worker_stall":[0,0,{}]}},
             "retry":{{"deadline_ms":60000,"max_retries":64,"backoff_us":200}}}}"#,
        stall_ms * 1000
    ))
    .unwrap()
}

fn with_deadline(spec: Json, deadline_ms: u64) -> Json {
    let Json::Obj(mut pairs) = spec else {
        panic!("spec must be an object")
    };
    pairs.push((
        "job".to_string(),
        Json::obj([("deadline_ms", Json::u64(deadline_ms))]),
    ));
    Json::Obj(pairs)
}

fn seeded_spec(seed: u64) -> JobSpec {
    JobSpec {
        shape: vec![4, 4],
        block_bytes: 32,
        payload: torus_service::PayloadSpec::Seeded { seed },
        ..JobSpec::default()
    }
}

/// Polls the `status` op until the job reports `running`.
fn wait_running(client: &mut Client, job_id: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = client.status(job_id).expect("status query");
        if reply.state == "running" {
            return;
        }
        assert!(
            reply.state == "queued",
            "job {job_id} reached {} before running",
            reply.state
        );
        assert!(Instant::now() < deadline, "job {job_id} never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Counts `done` records per job id by decoding segment files directly
/// (independent of the journal's own replay index).
fn count_done_records(dir: &Path) -> HashMap<u64, u32> {
    use torus_serviced::journal::RECORD_HEADER_BYTES;
    let mut counts = HashMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tjl"))
        .collect();
    paths.sort();
    for path in paths {
        let data = std::fs::read(&path).expect("segment");
        let mut offset = 0usize;
        while offset + RECORD_HEADER_BYTES <= data.len() {
            let kind = data[offset + 4];
            let job_id =
                u64::from_le_bytes(data[offset + 8..offset + 16].try_into().expect("8 bytes"));
            let payload_len =
                u32::from_le_bytes(data[offset + 16..offset + 20].try_into().expect("4 bytes"))
                    as usize;
            if RecordKind::from_byte(kind) == Some(RecordKind::Done) {
                *counts.entry(job_id).or_default() += 1;
            }
            offset += RECORD_HEADER_BYTES + payload_len;
        }
    }
    counts
}

/// The acceptance scenario end to end: a job whose pinned worker never
/// recovers, submitted with `job.deadline_ms`, is reaped past its
/// deadline, answers `done{ok:false}` with the typed deadline state
/// over the wire well before the stall would have ended, and frees its
/// pool reservation for the next job.
#[test]
fn deadline_job_reaped_over_the_wire() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let submitted_at = Instant::now();
    let job = client
        .submit_raw(with_deadline(stalled_spec(30_000), 200))
        .unwrap();
    let done = client.wait_done(job).unwrap();
    let to_done = submitted_at.elapsed();

    assert!(!done.ok, "a reaped job must not report success");
    assert_eq!(done.state, "deadline_exceeded", "typed state: {done:?}");
    assert!(
        done.error.as_deref().unwrap_or("").contains("deadline"),
        "typed deadline error over the wire: {:?}",
        done.error
    );
    assert!(
        to_done < Duration::from_secs(15),
        "reap took {to_done:?} against a 30s stall and a 200ms deadline"
    );

    // The `status` op reports the same terminal state.
    let reply = client.status(job).unwrap();
    assert_eq!(reply.state, "deadline_exceeded");
    assert_eq!(reply.ok, Some(false));

    // Pool reservation freed: a clean job completes afterwards.
    let next = client.submit(&seeded_spec(7)).unwrap();
    assert!(client.wait_done(next).unwrap().ok);

    // The engine counters surfaced through the stats op.
    let stats = client.stats().unwrap();
    let service = stats.get("service").unwrap();
    assert_eq!(
        service.get("jobs_deadline_exceeded").and_then(Json::as_u64),
        Some(1)
    );

    client.drain().unwrap();
    daemon.join().unwrap();
}

/// A connection's only job, seen running past the admitting iteration,
/// sends `done` when it finishes, not on the next status poll: under a
/// 5 s poll, a 300 ms job (seen running by the `status` queries in
/// `wait_running`, each a reactor iteration of its own) is reported
/// long before the reactor's poll would have timed out.
#[test]
fn a_running_job_reports_done_when_it_finishes_not_on_the_next_poll() {
    let (addr, daemon) = Daemon::spawn(DaemonConfig {
        status_poll: Duration::from_secs(5),
        ..quick_config()
    })
    .unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let submitted_at = Instant::now();
    let job = client.submit_raw(stalled_spec(300)).unwrap();
    wait_running(&mut client, job);
    let done = client.wait_done(job).unwrap();
    let to_done = submitted_at.elapsed();
    assert!(done.ok, "{done:?}");
    assert!(
        to_done >= Duration::from_millis(300) && to_done < Duration::from_secs(3),
        "done after {to_done:?}: a 300 ms job under a 5 s status poll"
    );

    client.drain().unwrap();
    daemon.join().unwrap();
}

/// A drained daemon exits on the drain helper's wake, not on its next
/// status poll: under a 30 s poll, `Daemon::run` returns within 1 s of
/// the `drained` reply.
#[test]
fn a_drained_daemon_exits_on_the_wake_not_on_the_next_poll() {
    let (addr, daemon) = Daemon::spawn(DaemonConfig {
        status_poll: Duration::from_secs(30),
        ..quick_config()
    })
    .unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();
    let job = client.submit(&seeded_spec(3)).unwrap();
    assert!(client.status(job).is_ok());

    client.drain().unwrap();
    let drained_at = Instant::now();
    daemon.join().unwrap();
    let to_exit = drained_at.elapsed();
    assert!(
        to_exit < Duration::from_secs(1),
        "daemon exited {to_exit:?} after `drained` under a 30 s status poll"
    );
}

/// Cancellation over the wire, tenant-scoped: the owner can cancel its
/// running job (typed `cancelled` done event), another tenant is
/// refused without learning anything, unknown ids answer `unknown`,
/// and a repeat cancel reports the recorded terminal state.
#[test]
fn cancel_is_tenant_scoped_over_the_wire() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut owner = Client::connect(addr).unwrap();
    owner.hello("acme").unwrap();
    let mut intruder = Client::connect(addr).unwrap();
    intruder.hello("zeta").unwrap();

    let job = owner.submit_raw(stalled_spec(30_000)).unwrap();
    wait_running(&mut owner, job);

    // Another tenant may neither cancel nor probe.
    let refused = intruder.cancel(job).unwrap();
    assert_eq!(refused.outcome, "forbidden");
    // Unknown ids are distinguishable from forbidden ones only for the
    // owner's own namespace probes.
    assert_eq!(intruder.cancel(999_999).unwrap().outcome, "unknown");

    let accepted = owner.cancel(job).unwrap();
    assert_eq!(accepted.outcome, "cancelling", "job was running");
    let done = owner.wait_done(job).unwrap();
    assert!(!done.ok);
    assert_eq!(done.state, "cancelled", "{done:?}");

    // Terminal now: a repeat cancel names the recorded state.
    let repeat = owner.cancel(job).unwrap();
    assert_eq!(repeat.outcome, "already_terminal");
    assert_eq!(repeat.state.as_deref(), Some("cancelled"));

    let stats = owner.stats().unwrap();
    let service = stats.get("service").unwrap();
    assert_eq!(
        service.get("jobs_cancelled").and_then(Json::as_u64),
        Some(1)
    );

    owner.drain().unwrap();
    daemon.join().unwrap();
}

/// A cancel storm across 16 tenants with queued, running, and terminal
/// jobs on a journaling daemon: every job ends in exactly one terminal
/// state, the final books balance, and the journal holds exactly one
/// `done` record per accepted id.
#[test]
fn cancel_storm_across_tenants_keeps_books_and_journal_exact() {
    let journal_dir = temp_dir("storm");
    let config = DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(4)
            .with_drivers(2)
            .with_queue_depth(512),
        status_poll: Duration::from_millis(1),
        journal: Some(torus_serviced::JournalConfig::new(&journal_dir)),
        ..DaemonConfig::default()
    };
    let (addr, daemon) = Daemon::spawn(config).unwrap();

    const TENANTS: usize = 16;
    const JOBS_PER_TENANT: usize = 4;
    let mut clients: Vec<Client> = (0..TENANTS)
        .map(|i| {
            let mut c = Client::connect(addr).unwrap();
            c.hello(&format!("tenant-{i}")).unwrap();
            c
        })
        .collect();

    // Mix of instantly-completing and long-stalled jobs per tenant, so
    // cancels land on queued, running, and already-terminal targets.
    let mut ids: Vec<Vec<u64>> = Vec::new();
    for (i, client) in clients.iter_mut().enumerate() {
        let mut tenant_ids = Vec::new();
        for j in 0..JOBS_PER_TENANT {
            let id = if (i + j) % 2 == 0 {
                client.submit(&seeded_spec((i * 31 + j) as u64)).unwrap()
            } else {
                client.submit_raw(stalled_spec(20_000)).unwrap()
            };
            tenant_ids.push(id);
        }
        ids.push(tenant_ids);
    }

    // Each tenant cancels its own jobs; every outcome token is legal,
    // and cross-tenant ids stay forbidden.
    for (i, client) in clients.iter_mut().enumerate() {
        for &id in &ids[i] {
            let reply = client.cancel(id).unwrap();
            assert!(
                matches!(
                    reply.outcome.as_str(),
                    "cancelled" | "cancelling" | "already_terminal"
                ),
                "tenant {i} job {id}: {reply:?}"
            );
        }
        let foreign = ids[(i + 1) % TENANTS][0];
        assert_eq!(client.cancel(foreign).unwrap().outcome, "forbidden");
    }

    // Every job reaches exactly one terminal state.
    for (i, client) in clients.iter_mut().enumerate() {
        for &id in &ids[i] {
            let done = client.wait_done(id).unwrap();
            assert!(
                matches!(done.state.as_str(), "completed" | "cancelled"),
                "tenant {i} job {id}: {done:?}"
            );
        }
    }

    let final_stats = clients[0].drain().unwrap();
    daemon.join().unwrap();
    let accepted = final_stats.get("jobs_accepted").and_then(Json::as_u64);
    let terminal: Option<u64> = ["jobs_completed", "jobs_failed", "jobs_cancelled"]
        .iter()
        .map(|k| final_stats.get(k).and_then(Json::as_u64))
        .sum::<Option<u64>>();
    assert_eq!(accepted, Some((TENANTS * JOBS_PER_TENANT) as u64));
    assert_eq!(accepted, terminal, "books must balance: {final_stats:?}");
    assert_eq!(
        final_stats
            .get("jobs_deadline_exceeded")
            .and_then(Json::as_u64),
        Some(0)
    );

    // Exactly one terminal record per accepted id, cancelled included.
    let dones = count_done_records(&journal_dir);
    for tenant_ids in &ids {
        for id in tenant_ids {
            assert_eq!(
                dones.get(id),
                Some(&1),
                "job {id} must have exactly one done record"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Idle-connection reaping: a quiet connection owed nothing is closed
/// after the timeout (and counted), while a connection with a live
/// tracked job is never reaped no matter how long it stays quiet.
#[test]
fn idle_connections_are_reaped_but_busy_ones_survive() {
    let config = DaemonConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..quick_config()
    };
    let (addr, daemon) = Daemon::spawn(config).unwrap();

    let mut idle = Client::connect(addr).unwrap();
    idle.hello("acme").unwrap();

    let mut busy = Client::connect(addr).unwrap();
    busy.hello("acme").unwrap();
    // ~2s of stall: far past the idle timeout, and the submitter sends
    // nothing while it waits — only the tracked job keeps it alive.
    let job = busy.submit_raw(stalled_spec(2_000)).unwrap();

    let done = busy.wait_done(job).expect("busy connection must survive");
    assert!(done.ok, "stalled job recovers and completes: {done:?}");

    // The idle connection is gone: the next request fails (EOF/reset).
    let reaped = idle.ping().is_err();
    assert!(reaped, "idle connection must have been closed");

    let mut probe = Client::connect(addr).unwrap();
    probe.hello("acme").unwrap();
    let stats = probe.stats().unwrap();
    let daemon_stats = stats.get("daemon").unwrap();
    assert!(
        daemon_stats
            .get("idle_reaped")
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1),
        "idle reap must be counted: {daemon_stats:?}"
    );

    probe.drain().unwrap();
    daemon.join().unwrap();
}
