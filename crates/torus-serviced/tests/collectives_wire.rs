//! Collectives over the wire: every op runs byte-real through the
//! daemon (submit → accepted → done with a checksum the client verifies
//! against the spec), malformed op objects are typed `invalid_spec`
//! rejections, a broadcast survives seeded frame drop + corruption, a
//! stalled allreduce cancels cleanly, and a SIGKILL mid-allreduce is
//! recovered by journal replay on restart — bit-exact.

use std::time::{Duration, Instant};

use torus_service::EngineConfig;
use torus_serviced::{checksum, json::Json, Client, ClientError, Daemon, DaemonConfig, JobSpec};

#[path = "support/crashd.rs"]
mod crashd;
use crashd::{connect, Crashd};

fn quick_config() -> DaemonConfig {
    DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        status_poll: Duration::from_millis(1),
        ..DaemonConfig::default()
    }
}

fn parse(text: &str) -> Json {
    torus_serviced::json::parse(text).unwrap()
}

/// The spec-side digest for a raw wire spec, via the same parse the
/// daemon runs at admission.
fn expected_hex(spec: &Json) -> String {
    let spec = JobSpec::from_json(spec).expect("test spec must validate");
    checksum::to_hex(checksum::expected_checksum(&spec))
}

/// Every collective kind, submitted as raw wire JSON, runs byte-real
/// end to end: accepted, completed, verified, and the daemon's delivery
/// checksum equals the digest the client derives from the spec alone.
/// The stats op reports one accepted and one completed in each op slot.
#[test]
fn every_collective_completes_with_matching_checksum() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let specs = [
        r#"{"shape":[4,4],"block_bytes":32,"seed":3,
            "op":{"kind":"broadcast","root":5}}"#,
        r#"{"shape":[2,3,4],"block_bytes":24,"seed":4,
            "op":{"kind":"scatter","root":0}}"#,
        r#"{"shape":[4,4],"block_bytes":32,"seed":5,
            "op":{"kind":"gather","root":15}}"#,
        r#"{"shape":[4,4],"block_bytes":32,"seed":6,
            "op":{"kind":"allgather"}}"#,
        r#"{"shape":[4,4],"block_bytes":32,"seed":7,
            "op":{"kind":"reduce","root":1,"reduce":"sum","dtype":"u64"}}"#,
        r#"{"shape":[4,4],"block_bytes":32,"seed":8,
            "op":{"kind":"allreduce","reduce":"max","dtype":"f32"}}"#,
        r#"{"shape":[4,4],"block_bytes":32,"seed":9}"#, // alltoall baseline
    ];
    for text in specs {
        let spec = parse(text);
        let job = client.submit_raw(spec.clone()).unwrap();
        let done = client.wait_done(job).unwrap();
        assert!(done.ok, "{text}: {done:?}");
        assert!(done.verified, "{text} must verify");
        assert_eq!(
            done.checksum.as_deref(),
            Some(expected_hex(&spec).as_str()),
            "{text}: daemon checksum must match the spec-side digest"
        );
    }

    let stats = client.stats().unwrap();
    let ops = stats.get("service").unwrap().get("ops").unwrap();
    for name in [
        "alltoall",
        "broadcast",
        "scatter",
        "gather",
        "allgather",
        "reduce",
        "allreduce",
    ] {
        let slot = ops.get(name).unwrap_or_else(|| panic!("op slot {name}"));
        assert_eq!(
            slot.get("accepted").and_then(Json::as_u64),
            Some(1),
            "{name}"
        );
        assert_eq!(
            slot.get("completed").and_then(Json::as_u64),
            Some(1),
            "{name}"
        );
    }

    client.drain().unwrap();
    daemon.join().unwrap();
}

/// Malformed op objects never reach the engine: both `validate` and
/// `submit` answer a typed `invalid_spec` rejection whose detail names
/// the offending field.
#[test]
fn malformed_ops_are_typed_invalid_spec_rejections() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let cases = [
        (r#"{"shape":[4,4],"op":{"kind":"levitate"}}"#, "op.kind"),
        (r#"{"shape":[4,4],"op":{}}"#, "op.kind"),
        (
            r#"{"shape":[4,4],"op":{"kind":"broadcast","root":16}}"#,
            "op.root",
        ),
        (
            r#"{"shape":[4,4],"op":{"kind":"allgather","root":0}}"#,
            "op.root",
        ),
        (
            r#"{"shape":[4,4],"op":{"kind":"allreduce","reduce":"xor"}}"#,
            "op.reduce",
        ),
        (
            r#"{"shape":[4,4],"op":{"kind":"broadcast","root":0,"dtype":"u64"}}"#,
            "op.dtype",
        ),
        (
            r#"{"shape":[4,4],"block_bytes":12,
                "op":{"kind":"allreduce","reduce":"sum","dtype":"u64"}}"#,
            "op.dtype",
        ),
        (
            r#"{"shape":[4,4],"on_failure":"degrade","op":{"kind":"broadcast"}}"#,
            "on_failure",
        ),
    ];
    for (text, field) in cases {
        let spec = parse(text);
        for attempt in ["validate", "submit"] {
            let err = if attempt == "validate" {
                client.validate(spec.clone()).unwrap_err()
            } else {
                client.submit_raw(spec.clone()).unwrap_err()
            };
            match err {
                ClientError::Rejected { reason, detail, .. } => {
                    assert_eq!(reason, "invalid_spec", "{attempt} {text}");
                    assert!(
                        detail.contains(field),
                        "{attempt} {text}: detail {detail:?} must name {field:?}"
                    );
                }
                other => panic!("{attempt} {text}: wanted a rejection, got {other:?}"),
            }
        }
    }

    // A valid collective spec normalizes with its op echoed back.
    let normalized = client
        .validate(parse(
            r#"{"shape":[4,4],"op":{"kind":"reduce","root":3,"reduce":"min","dtype":"u64"}}"#,
        ))
        .unwrap();
    let op = normalized.get("op").expect("normalized op object");
    assert_eq!(op.get("kind").and_then(Json::as_str), Some("reduce"));
    assert_eq!(op.get("root").and_then(Json::as_u64), Some(3));
    assert_eq!(op.get("reduce").and_then(Json::as_str), Some("min"));
    assert_eq!(op.get("dtype").and_then(Json::as_str), Some("u64"));

    client.drain().unwrap();
    daemon.join().unwrap();
}

/// A broadcast under seeded frame drop + corruption recovers via the
/// retained-frame retry path and still delivers bit-exact bytes — the
/// daemon's checksum equals the clean-spec digest.
#[test]
fn broadcast_survives_seeded_faults_over_the_wire() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let spec = parse(
        r#"{"shape":[4,4],"block_bytes":64,"seed":11,
            "op":{"kind":"broadcast","root":2},
            "fault":{"drop_rate":0.3,"corrupt_rate":0.3,"seed":17},
            "retry":{"deadline_ms":30000,"max_retries":64,"backoff_us":200}}"#,
    );
    let job = client.submit_raw(spec.clone()).unwrap();
    let done = client.wait_done(job).unwrap();
    assert!(done.ok, "faulted broadcast must recover: {done:?}");
    assert!(!done.degraded, "collectives never degrade");
    assert_eq!(
        done.checksum.as_deref(),
        Some(expected_hex(&spec).as_str()),
        "recovery must be bit-exact"
    );

    client.drain().unwrap();
    daemon.join().unwrap();
}

/// A running allreduce whose pinned worker stalls for 30 s is cancelled
/// over the wire and reports the typed `cancelled` terminal state well
/// before the stall would have ended.
#[test]
fn running_allreduce_cancels_over_the_wire() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let spec = parse(
        r#"{"shape":[4,4],"block_bytes":32,
            "op":{"kind":"allreduce","reduce":"sum","dtype":"u64"},
            "fault":{"worker_stall":[0,0,30000000]},
            "retry":{"deadline_ms":60000,"max_retries":64,"backoff_us":200}}"#,
    );
    let started = Instant::now();
    let job = client.submit_raw(spec).unwrap();
    // Wait for the run to actually start before cancelling.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = client.status(job).unwrap();
        if reply.state == "running" {
            break;
        }
        assert_eq!(reply.state, "queued", "{reply:?}");
        assert!(Instant::now() < deadline, "job never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
    let accepted = client.cancel(job).unwrap();
    assert_eq!(accepted.outcome, "cancelling");
    let done = client.wait_done(job).unwrap();
    assert!(!done.ok);
    assert_eq!(done.state, "cancelled", "{done:?}");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "cancel must beat the 30s stall"
    );

    client.drain().unwrap();
    daemon.join().unwrap();
}

// --- SIGKILL recovery ---------------------------------------------------

/// SIGKILL the journaling daemon with allreduce/broadcast jobs accepted
/// and one allreduce guaranteed mid-run (a 400 ms pinned-worker stall);
/// the restarted incarnation replays every admission — op included —
/// and finishes each job exactly once with the spec's exact checksum.
#[test]
fn sigkill_mid_allreduce_recovers_bit_exact() {
    let journal_dir =
        std::env::temp_dir().join(format!("torus-collective-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);

    let stalled = parse(
        r#"{"shape":[4,4],"block_bytes":32,"seed":21,
            "op":{"kind":"allreduce","reduce":"sum","dtype":"u64"},
            "fault":{"worker_stall":[0,0,400000]},
            "retry":{"deadline_ms":60000,"max_retries":64,"backoff_us":200}}"#,
    );
    let quick_specs = [
        parse(
            r#"{"shape":[4,4],"block_bytes":32,"seed":22,
                "op":{"kind":"allreduce","reduce":"sum","dtype":"u64"}}"#,
        ),
        parse(
            r#"{"shape":[4,4],"block_bytes":32,"seed":23,
                "op":{"kind":"broadcast","root":7}}"#,
        ),
        parse(
            r#"{"shape":[4,4],"block_bytes":32,"seed":24,
                "op":{"kind":"reduce","root":0,"reduce":"min","dtype":"u64"}}"#,
        ),
    ];

    // First incarnation: accept everything, kill mid-stall.
    let mut daemon = Crashd::start(&journal_dir, "c0");
    let mut jobs: Vec<(u64, Json)> = Vec::new();
    {
        let mut client = connect(daemon.port);
        client.hello("acme").unwrap();
        let id = client.submit_raw(stalled.clone()).unwrap();
        jobs.push((id, stalled.clone()));
        for spec in &quick_specs {
            let id = client.submit_raw(spec.clone()).unwrap();
            jobs.push((id, spec.clone()));
        }
        // Let the stalled allreduce reach its mid-run stall, then kill.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let reply = client.status(jobs[0].0).unwrap();
            if reply.state == "running" {
                break;
            }
            assert!(Instant::now() < deadline, "stalled job never ran");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    daemon.kill();

    // Second incarnation: replay finishes every job with exact bytes.
    let mut daemon = Crashd::start(&journal_dir, "c1");
    let mut client = connect(daemon.port);
    client.hello("acme").unwrap();
    for (job_id, spec) in &jobs {
        let deadline = Instant::now() + Duration::from_secs(60);
        let reply = loop {
            let reply = client.status(*job_id).unwrap();
            assert_ne!(reply.state, "unknown", "job {job_id} lost by the crash");
            if reply.state == "completed" || reply.state == "failed" {
                break reply;
            }
            assert!(
                Instant::now() < deadline,
                "job {job_id} never reached a terminal state"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(reply.state, "completed", "job {job_id}: {reply:?}");
        assert_eq!(
            reply.checksum.as_deref(),
            Some(expected_hex(spec).as_str()),
            "job {job_id}'s recovered checksum must match its spec"
        );
    }
    client.drain().expect("clean drain");
    let status = daemon.child.wait().expect("crashd exit");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&journal_dir);
}
