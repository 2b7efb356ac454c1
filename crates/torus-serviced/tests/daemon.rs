//! End-to-end daemon tests over real sockets: submit/status/done
//! streaming, checksummed bit-exactness, typed rejections, tenant
//! quotas over the wire, and drain semantics.
//!
//! SIGTERM-driven drain lives in its own test binary (`sigterm.rs`) —
//! the flag is process-global, so raising the signal here would drain
//! every daemon these parallel tests are running.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use torus_service::{EngineConfig, RateLimit, TenantQuota};
use torus_serviced::{checksum, json::Json, Client, ClientError, Daemon, DaemonConfig, JobSpec};

fn quick_config() -> DaemonConfig {
    DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        status_poll: Duration::from_millis(1),
        ..DaemonConfig::default()
    }
}

fn seeded_spec(seed: u64) -> JobSpec {
    JobSpec {
        shape: vec![4, 4],
        block_bytes: 32,
        payload: torus_service::PayloadSpec::Seeded { seed },
        ..JobSpec::default()
    }
}

/// A spec whose job holds its driver for several hundred ms before
/// completing: a seeded 75% drop rate forces round after round of
/// 10ms receive-deadline waits plus retransmits, all through the
/// recoverable-fault path, so the run eventually succeeds but occupies
/// the driver for the whole recovery dance.
fn blocker_spec() -> Json {
    torus_serviced::json::parse(
        r#"{"shape":[4,4],"fault":{"drop_rate":0.75,"seed":1},
            "retry":{"deadline_ms":10,"max_retries":64,"backoff_us":200},
            "on_failure":"abort"}"#,
    )
    .unwrap()
}

#[test]
fn submit_streams_status_and_done_with_matching_checksum() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let spec = seeded_spec(42);
    let job = client.submit(&spec).unwrap();
    let done = client.wait_done(job).unwrap();

    assert!(done.ok, "clean job must succeed: {:?}", done.error);
    assert!(done.verified && !done.degraded);
    assert!(done.wire_bytes > 0);
    assert_eq!(
        done.checksum.as_deref(),
        Some(checksum::to_hex(checksum::expected_checksum(&spec)).as_str()),
        "wire checksum must match the spec-side expectation"
    );
    // The pump streamed at least one status before completion.
    assert!(
        !client.status_trace(job).is_empty(),
        "no status events seen"
    );

    client.drain().unwrap();
    daemon.join().unwrap();
}

#[test]
fn submit_without_hello_is_rejected_unauthenticated() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();

    let err = client.submit(&seeded_spec(1)).unwrap_err();
    match err {
        ClientError::Rejected { reason, .. } => assert_eq!(reason, "unauthenticated"),
        other => panic!("expected rejection, got {other}"),
    }
    // The connection survives; hello unlocks it.
    client.hello("acme").unwrap();
    let job = client.submit(&seeded_spec(1)).unwrap();
    assert!(client.wait_done(job).unwrap().ok);

    client.drain().unwrap();
    daemon.join().unwrap();
}

#[test]
fn invalid_specs_are_rejected_with_the_field() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    for (raw, field) in [
        (r#"{}"#, "shape"),
        (r#"{"shape":[0,4]}"#, "shape"),
        (r#"{"shape":[4,4],"block_bytes":0}"#, "block_bytes"),
        (r#"{"shape":[4,4],"frobnicate":1}"#, "frobnicate"),
    ] {
        let err = client
            .submit_raw(torus_serviced::json::parse(raw).unwrap())
            .unwrap_err();
        match err {
            ClientError::Rejected { reason, detail, .. } => {
                assert_eq!(reason, "invalid_spec", "for {raw}");
                assert!(detail.contains(field), "{detail:?} should name {field:?}");
            }
            other => panic!("expected invalid_spec for {raw}, got {other}"),
        }
    }

    client.drain().unwrap();
    daemon.join().unwrap();
}

#[test]
fn validate_normalizes_and_schema_lists_fields() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();

    // validate/schema need no hello — they run nothing.
    let normalized = client
        .validate(torus_serviced::json::parse(r#"{"shape":[2,3]}"#).unwrap())
        .unwrap();
    assert_eq!(
        normalized.get("block_bytes").unwrap().as_u64(),
        Some(64),
        "defaults must be filled in"
    );

    let schema = client.schema().unwrap();
    for field in ["shape", "block_bytes", "payload", "fault", "retry"] {
        assert!(schema.get(field).is_some(), "schema missing {field}");
    }

    client.drain().unwrap();
    daemon.join().unwrap();
}

#[test]
fn tenant_quota_rejections_are_typed_over_the_wire() {
    // One case per per-tenant refusal: a queue cap, and a token bucket
    // of 50 jobs/s with a burst of one (its next token is 20 ms away).
    let cases = [
        (
            TenantQuota::default().with_max_queued(1),
            "tenant_queue_full",
        ),
        (
            TenantQuota::default().with_rate_limit(RateLimit::per_sec(50).with_burst(1)),
            "rate_limited",
        ),
    ];
    for (quota, expected) in cases {
        let config = DaemonConfig {
            engine: EngineConfig::default()
                .with_pool_size(4)
                .with_drivers(1)
                .with_queue_depth(64)
                .with_default_quota(quota),
            status_poll: Duration::from_millis(1),
            ..DaemonConfig::default()
        };
        let (addr, daemon) = Daemon::spawn(config).unwrap();

        // Pin the single driver so queued jobs stay queued.
        let mut pinner = Client::connect(addr).unwrap();
        pinner.hello("pinner").unwrap();
        let blocker = pinner.submit_raw(blocker_spec()).unwrap();

        let mut acme = Client::connect(addr).unwrap();
        acme.hello("acme").unwrap();
        let first = acme.submit(&seeded_spec(7)).unwrap();
        let err = acme.submit(&seeded_spec(8)).unwrap_err();
        match err {
            ClientError::Rejected {
                reason,
                detail,
                retry_after_ms,
            } => {
                assert_eq!(reason, expected);
                assert!(detail.contains("acme"), "{detail:?}");
                assert!(
                    retry_after_ms.is_some_and(|ms| ms >= 1),
                    "{expected}: overload rejection must carry a backoff hint"
                );
            }
            other => panic!("expected {expected}, got {other}"),
        }
        // Another tenant still has room — per-tenant isolation.
        let mut zeta = Client::connect(addr).unwrap();
        zeta.hello("zeta").unwrap();
        let z = zeta.submit(&seeded_spec(9)).unwrap();

        // A rate limit only delays: backing off on the hint admits the
        // job, and it completes.
        let retried = (expected == "rate_limited")
            .then(|| acme.submit_with_retry(&seeded_spec(8), 50).unwrap());

        assert!(pinner.wait_done(blocker).unwrap().ok);
        assert!(acme.wait_done(first).unwrap().ok);
        assert!(zeta.wait_done(z).unwrap().ok);
        if let Some(id) = retried {
            assert!(acme.wait_done(id).unwrap().ok, "{expected}");
        }

        // Per-tenant books over the wire: acme's rejections are counted
        // — the explicit refusal, plus at most one inside the retry (its
        // first attempt may beat the token; the wait on the exact hint
        // does not).
        let stats = acme.stats().unwrap();
        let tenants = stats.get("tenants").unwrap().as_arr().unwrap();
        let acme_row = tenants
            .iter()
            .find(|t| t.get("tenant").unwrap().as_str() == Some("acme"))
            .expect("acme row");
        let rejected = acme_row.get("jobs_rejected").unwrap().as_u64().unwrap();
        let completed = acme_row.get("jobs_completed").unwrap().as_u64();
        if retried.is_some() {
            assert!((1..=2).contains(&rejected), "{expected}: {rejected}");
            assert_eq!(completed, Some(2), "{expected}");
        } else {
            assert_eq!(rejected, 1, "{expected}");
            assert_eq!(completed, Some(1), "{expected}");
        }

        acme.drain().unwrap();
        daemon.join().unwrap();
    }
}

#[test]
fn drain_rejects_new_work_and_returns_consistent_final_stats() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut worker = Client::connect(addr).unwrap();
    worker.hello("acme").unwrap();
    let jobs: Vec<u64> = (0..6)
        .map(|i| worker.submit(&seeded_spec(i)).unwrap())
        .collect();

    let mut admin = Client::connect(addr).unwrap();
    let service = admin.drain().unwrap();
    assert_eq!(
        service.get("jobs_completed").unwrap().as_u64(),
        Some(6),
        "drain must wait for every admitted job"
    );

    // The worker's jobs all completed and their done events arrived.
    for job in jobs {
        assert!(worker.wait_done(job).unwrap().ok);
    }
    // Submitting into the drained daemon is refused, not dropped.
    let err = worker.submit(&seeded_spec(99)).unwrap_err();
    match err {
        ClientError::Rejected { reason, .. } => assert_eq!(reason, "draining"),
        // The daemon may already have torn the connection down.
        ClientError::Io(_) | ClientError::Protocol(_) | ClientError::Disconnected { .. } => {}
        other => panic!("unexpected {other}"),
    }

    // run() returns the same frozen snapshot the drain reply carried.
    let final_stats = daemon.join().unwrap();
    assert_eq!(final_stats.jobs_completed, 6);
    assert_eq!(
        service.get("jobs_accepted").unwrap().as_u64(),
        Some(final_stats.jobs_accepted)
    );
}

/// Connections opened while a drain is in flight are adopted and
/// answered, never reset when the daemon closes its listener: a late
/// client's submit gets the typed `draining` rejection and its `drain`
/// the same final verdict as the first drainer.
#[test]
fn connections_opened_mid_drain_get_typed_replies() {
    const LATE: usize = 8;
    let config = DaemonConfig {
        engine: EngineConfig::default().with_pool_size(2).with_drivers(1),
        ..quick_config()
    };
    let (addr, daemon) = Daemon::spawn(config).unwrap();
    let mut worker = Client::connect(addr).unwrap();
    worker.hello("acme").unwrap();
    // The holder stalls its run for 30 s, so the drain cannot finish
    // until this test cancels it: every late client below connects while
    // the drain is provably still in flight.
    let holder = worker
        .submit_raw(
            torus_serviced::json::parse(
                r#"{"shape":[4,4],"block_bytes":32,
                    "fault":{"worker_stall":[0,0,30000000]},
                    "retry":{"deadline_ms":60000,"max_retries":64,"backoff_us":200}}"#,
            )
            .unwrap(),
        )
        .unwrap();

    // One write per client, so every request line is on the daemon's side
    // of the socket by the time the first reply arrives. (Bytes a client
    // has not yet sent when the daemon exits can never be answered.)
    let send = |stream: &mut TcpStream, lines: &[&str]| {
        stream
            .write_all((lines.join("\n") + "\n").as_bytes())
            .unwrap();
    };
    let read_event = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("reading a reply: {e}"));
        assert!(n > 0, "daemon closed the connection without replying");
        torus_serviced::json::parse(line.trim_end()).unwrap()
    };
    let ev = |event: &Json| event.get("ev").and_then(Json::as_str).map(str::to_owned);
    let completed = |event: &Json| {
        event
            .get("service")
            .and_then(|s| s.get("jobs_completed"))
            .and_then(Json::as_u64)
    };

    let mut first = TcpStream::connect(addr).unwrap();
    send(&mut first, &[r#"{"op":"drain"}"#]);
    // Admission has stopped once a submit is refused as `draining`; any
    // submit that beat the drain is one more job queued behind the
    // holder. The drain lands on another reactor, so those submits can
    // fill the queue first: `queue_full` means admission is still open.
    let mut seed = 0u64;
    loop {
        match worker.submit(&seeded_spec(seed)) {
            Ok(_) => seed += 1,
            Err(ClientError::Rejected { reason, .. }) if reason == "queue_full" => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ClientError::Rejected { reason, .. }) => {
                assert_eq!(reason, "draining");
                break;
            }
            Err(other) => panic!("unexpected {other}"),
        }
    }

    let submit = format!(
        r#"{{"op":"submit","spec":{}}}"#,
        seeded_spec(7).to_json().dump()
    );
    let mut late: Vec<BufReader<TcpStream>> = (0..LATE)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            send(
                &mut stream,
                &[
                    r#"{"op":"hello","tenant":"late"}"#,
                    &submit,
                    r#"{"op":"drain"}"#,
                ],
            );
            BufReader::new(stream)
        })
        .collect();
    for (i, reader) in late.iter_mut().enumerate() {
        assert_eq!(ev(&read_event(reader)).as_deref(), Some("hello_ok"));
        let rejected = read_event(reader);
        assert_eq!(
            ev(&rejected).as_deref(),
            Some("rejected"),
            "late client {i}"
        );
        assert_eq!(
            rejected.get("reason").and_then(Json::as_str),
            Some("draining")
        );
    }

    // Release the drain; every drainer, early or late, gets one verdict.
    worker.cancel(holder).unwrap();
    assert_eq!(worker.wait_done(holder).unwrap().state, "cancelled");
    let mut first = BufReader::new(first);
    let verdict = read_event(&mut first);
    assert_eq!(ev(&verdict).as_deref(), Some("drained"));
    assert_eq!(completed(&verdict), Some(seed), "every queued job ran");
    for (i, reader) in late.iter_mut().enumerate() {
        let drained = read_event(reader);
        assert_eq!(ev(&drained).as_deref(), Some("drained"), "late client {i}");
        assert_eq!(
            completed(&drained),
            Some(seed),
            "late client {i} saw a different drain snapshot"
        );
    }
    assert_eq!(daemon.join().unwrap().jobs_completed, seed);
}

#[test]
fn degraded_jobs_report_degraded_with_null_checksum() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let spec = torus_serviced::json::parse(
        r#"{"shape":[4,4],"fault":{"worker_kill":[5,1]},
            "retry":{"deadline_ms":10,"max_retries":1,"backoff_us":500},
            "on_failure":"degrade"}"#,
    )
    .unwrap();
    let job = client.submit_raw(spec).unwrap();
    let done = client.wait_done(job).unwrap();
    assert!(done.ok, "degrade-policy run completes: {:?}", done.error);
    assert!(done.degraded);
    assert_eq!(done.checksum, None, "degraded runs carry no checksum");

    client.drain().unwrap();
    daemon.join().unwrap();
}
