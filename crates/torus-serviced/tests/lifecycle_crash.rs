//! Lifecycle-chaos harness: SIGKILL the journaling daemon around
//! cancellation and deadline reaps, restart it on the same journal
//! directory, and assert the terminality invariants:
//!
//! * **cancelled stays cancelled** — a job with a `cancelled` terminal
//!   record is never re-run by recovery, and answers `status` after the
//!   restart with the recorded state;
//! * **deadline stays exceeded** — same for `deadline_exceeded`;
//! * **exactly-once under the race** — a kill landing between the
//!   cancel and its terminal record resolves to exactly one `done`
//!   record per job: either the record survived (recovered terminal) or
//!   it did not (the replayed job re-runs to a fresh single terminal).
//!
//! The kill nap is driven by a fixed-seed splitmix64, so a failure
//! reproduces. The daemon runs as a child process (`crashd`) because
//! SIGKILL must hit a real process.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use torus_serviced::journal::RecordKind;
use torus_serviced::{json::Json, Client, JobSpec, JobStatusReply};

#[path = "support/crashd.rs"]
mod crashd;
use crashd::{connect, Crashd};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seeded_spec(seed: u64) -> JobSpec {
    JobSpec {
        shape: vec![4, 4],
        block_bytes: 32,
        payload: torus_service::PayloadSpec::Seeded { seed },
        ..JobSpec::default()
    }
}

/// A spec whose pinned worker stalls for `stall_ms` with a retry policy
/// that outlives the stall: only a cancel or the deadline ends
/// it early, but a re-run after recovery completes once the stall
/// elapses.
fn stalled_spec(stall_ms: u64, deadline_ms: Option<u64>) -> Json {
    let job = deadline_ms
        .map(|ms| format!(r#","job":{{"deadline_ms":{ms}}}"#))
        .unwrap_or_default();
    torus_serviced::json::parse(&format!(
        r#"{{"shape":[4,4],"block_bytes":32,
             "fault":{{"worker_stall":[0,0,{}]}},
             "retry":{{"deadline_ms":60000,"max_retries":64,"backoff_us":200}}{job}}}"#,
        stall_ms * 1000
    ))
    .unwrap()
}

/// Polls `status` until `job_id` reaches any terminal state (replayed
/// jobs finish asynchronously after the restart).
fn wait_terminal(client: &mut Client, job_id: u64) -> JobStatusReply {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = client.status(job_id).expect("status query");
        assert_ne!(
            reply.state, "unknown",
            "job {job_id} was accepted pre-crash but is unknown after restart"
        );
        if matches!(
            reply.state.as_str(),
            "completed" | "failed" | "cancelled" | "deadline_exceeded"
        ) {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "job {job_id} never reached a terminal state"
        );
        std::thread::sleep(Duration::from_millis(5));
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

#[test]
fn sigkill_preserves_cancel_and_deadline_terminality_exactly_once() {
    let journal_dir =
        std::env::temp_dir().join(format!("torus-lifecycle-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut rng: u64 = 0xDEAD_BEA7_5EED;

    // ---- Round 0: settle terminals of every flavor, then SIGKILL. ----
    let mut daemon = Crashd::start(&journal_dir, "r0");
    let mut client = connect(daemon.port);
    client.hello("acme").unwrap();

    let clean = client.submit(&seeded_spec(11)).unwrap();
    let cancelled = client.submit_raw(stalled_spec(20_000, None)).unwrap();
    let reaped = client.submit_raw(stalled_spec(20_000, Some(200))).unwrap();

    let outcome = client.cancel(cancelled).unwrap();
    assert!(
        matches!(outcome.outcome.as_str(), "cancelled" | "cancelling"),
        "{outcome:?}"
    );
    assert_eq!(client.wait_done(cancelled).unwrap().state, "cancelled");
    assert_eq!(client.wait_done(reaped).unwrap().state, "deadline_exceeded");
    assert!(client.wait_done(clean).unwrap().ok);
    daemon.kill();

    // ---- Round 1: recovery must honor every recorded terminal. ----
    let mut daemon = Crashd::start(&journal_dir, "r1");
    let mut client = connect(daemon.port);
    client.hello("acme").unwrap();

    for (job_id, want) in [
        (clean, "completed"),
        (cancelled, "cancelled"),
        (reaped, "deadline_exceeded"),
    ] {
        let reply = client.status(job_id).expect("status across restart");
        assert_eq!(reply.state, want, "job {job_id}: {reply:?}");
        assert!(
            reply.recovered,
            "job {job_id} must answer from the recovered journal: {reply:?}"
        );
        assert_eq!(reply.ok, Some(want == "completed"));
    }

    // Race the kill against cancels in flight: short stalls, so a job
    // whose terminal record was lost re-runs to completion quickly.
    let mut raced = Vec::new();
    for _ in 0..6 {
        raced.push(client.submit_raw(stalled_spec(2_000, None)).unwrap());
    }
    for &job_id in &raced {
        let reply = client.cancel(job_id).unwrap();
        assert!(
            matches!(
                reply.outcome.as_str(),
                "cancelled" | "cancelling" | "already_terminal"
            ),
            "job {job_id}: {reply:?}"
        );
    }
    // 0–9ms: sometimes before any terminal record hits the journal,
    // sometimes after some of them, never after all the stalls end.
    std::thread::sleep(Duration::from_millis(splitmix64(&mut rng) % 10));
    daemon.kill();

    // A cancelled job must not be re-run even when the kill landed
    // after its terminal record: at this instant every done record
    // present belongs to a terminal reached before the kill.
    let dones_after_kill = count_done_records(&journal_dir);
    for (&job_id, &count) in &dones_after_kill {
        assert!(count <= 1, "job {job_id}: {count} done records pre-restart");
    }

    // ---- Round 2: every raced job resolves to exactly one terminal. ----
    let mut daemon = Crashd::start(&journal_dir, "r2");
    let mut client = connect(daemon.port);
    client.hello("acme").unwrap();

    for &job_id in &raced {
        let reply = wait_terminal(&mut client, job_id);
        if dones_after_kill.contains_key(&job_id) {
            // Its terminal record survived the kill: recovery must
            // report the recorded cancel, never re-run it.
            assert_eq!(reply.state, "cancelled", "job {job_id}: {reply:?}");
            assert!(reply.recovered, "job {job_id}: {reply:?}");
        } else {
            // The cancel was lost with the process — by design, a
            // cancel is durable only once its terminal record is. The
            // replayed admission re-runs and completes after its stall.
            assert_eq!(reply.state, "completed", "job {job_id}: {reply:?}");
        }
    }
    // Terminals recorded before the kill are still intact.
    assert_eq!(wait_terminal(&mut client, cancelled).state, "cancelled");
    assert_eq!(
        wait_terminal(&mut client, reaped).state,
        "deadline_exceeded"
    );

    client.drain().expect("clean drain");
    let status = daemon.child.wait().expect("crashd exit");
    assert!(status.success(), "clean drain must exit 0");

    // Exactly one done record per job the daemon ever accepted.
    let final_dones = count_done_records(&journal_dir);
    for job_id in [clean, cancelled, reaped].iter().chain(&raced) {
        assert_eq!(
            final_dones.get(job_id),
            Some(&1),
            "job {job_id} must have exactly one done record: {final_dones:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
}
