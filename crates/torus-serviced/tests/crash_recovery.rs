//! Crash-chaos harness: SIGKILL the journaling daemon mid-batch,
//! restart it on the same journal directory, and assert the recovery
//! invariants end to end:
//!
//! * **no lost accepted job** — every id the client saw `accepted` for
//!   answers `status` after the restart (never `"unknown"`);
//! * **no double execution** — the final journal holds at most one
//!   `done` record per job id;
//! * **bit-exactness across the crash** — every clean job's delivery
//!   checksum (recorded pre-crash or produced by the replayed re-run)
//!   equals the spec-side delivery-digest expectation;
//! * **books balance** — per tenant, accepted == completed + failed in
//!   the final drain snapshot;
//! * **old journals stay readable** — a hand-written version-1 journal
//!   recovers its terminal jobs with a `null` checksum and replays its
//!   pending ones under the current digest.
//!
//! The kill points are driven by a fixed-seed splitmix64, so a failure
//! reproduces. The daemon runs as a child process (`crashd`, found via
//! `CARGO_BIN_EXE_crashd`) because SIGKILL must hit a real process —
//! an in-process daemon would take the test down with it.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use torus_service::EngineConfig;
use torus_serviced::journal::{
    Journal, JournalConfig, RecordKind, MAGIC, RECORD_HEADER_BYTES, VERSION,
};
use torus_serviced::{checksum, Client, DaemonConfig, JobSpec};

#[path = "support/crashd.rs"]
mod crashd;
use crashd::{connect, Crashd};

const TENANTS: [&str; 3] = ["acme", "zeta", "omni"];

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

/// Polls `status` until `job_id` is terminal (replayed jobs finish
/// asynchronously after the restart), returning the final reply.
fn wait_terminal(client: &mut Client, job_id: u64) -> torus_serviced::JobStatusReply {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = client.status(job_id).expect("status query");
        assert_ne!(
            reply.state, "unknown",
            "job {job_id} was accepted pre-crash but is unknown after restart"
        );
        if reply.state == "completed" || reply.state == "failed" {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "job {job_id} never reached a terminal state"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sigkill_mid_batch_recovers_every_job_exactly_once() {
    let journal_dir =
        std::env::temp_dir().join(format!("torus-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);

    let mut rng: u64 = 0xC0FF_EE00_5EED;
    // job_id -> (payload seed, tenant) for every job the daemon ever
    // acknowledged with `accepted`.
    let mut accepted: HashMap<u64, (u64, &'static str)> = HashMap::new();
    let mut payload_seed = 0u64;
    // An admission injected into the dead daemon's journal with a spec
    // that can never re-validate; set after the first crash.
    let mut poisoned_job: Option<u64> = None;

    const ROUNDS: usize = 3;
    for round in 0..ROUNDS {
        let daemon = Crashd::start(&journal_dir, &format!("r{round}"));
        let mut clients: Vec<Client> = TENANTS
            .iter()
            .map(|tenant| {
                let mut c = connect(daemon.port);
                c.hello(tenant).unwrap();
                c
            })
            .collect();

        // Every accepted-but-unfinished job from the previous crash must
        // be visible (and eventually terminal) in this incarnation.
        if !accepted.is_empty() {
            let probe = &mut clients[0];
            for &job_id in accepted.keys() {
                let reply = probe.status(job_id).expect("status across restart");
                assert_ne!(reply.state, "unknown", "job {job_id} lost by the crash");
            }
        }
        // A journaled admission whose spec fails re-validation must not
        // be silently discarded at recovery: it answers `status` as a
        // recovered failure naming the resubmit error.
        if let Some(job_id) = poisoned_job {
            let probe = &mut clients[0];
            let reply = wait_terminal(probe, job_id);
            assert_eq!(reply.state, "failed", "poisoned job: {reply:?}");
            assert!(
                reply.recovered,
                "outcome must come from recovery: {reply:?}"
            );
            assert!(
                reply
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("recovered spec invalid")),
                "error must name the resubmit failure: {reply:?}"
            );
        }

        // Submit a batch round-robin across tenants, then SIGKILL at a
        // seeded point with jobs still queued or running.
        let batch = 6 + (splitmix64(&mut rng) % 5) as usize;
        for i in 0..batch {
            payload_seed += 1;
            let tenant_idx = i % TENANTS.len();
            let spec = seeded_spec(payload_seed);
            let job_id = clients[tenant_idx]
                .submit(&spec)
                .expect("submission under open admission");
            accepted.insert(job_id, (payload_seed, TENANTS[tenant_idx]));
        }
        let mut daemon = daemon;
        if round < ROUNDS - 1 {
            // Let a seeded slice of the batch make progress, then kill.
            let naps = splitmix64(&mut rng) % 20;
            std::thread::sleep(Duration::from_millis(naps));
            daemon.kill();
            if round == 0 {
                // While the daemon is dead, append an admission whose
                // spec can never pass re-validation (a zero dimension).
                // The next incarnation must record its resubmit failure
                // instead of losing it — asserted at each later round.
                let (journal, recovery) = Journal::open(JournalConfig::new(&journal_dir))
                    .expect("open journal between incarnations");
                let bad_id = recovery.max_job_id + 1_000;
                journal
                    .record_accepted(
                        bad_id,
                        "acme",
                        torus_serviced::json::parse(r#"{"shape":[0,4]}"#).unwrap(),
                    )
                    .expect("inject poisoned admission");
                poisoned_job = Some(bad_id);
            }
        } else {
            // Final round: verify everything, then drain cleanly.
            let mut probe = connect(daemon.port);
            for (&job_id, &(seed, _tenant)) in &accepted {
                let reply = wait_terminal(&mut probe, job_id);
                assert_eq!(
                    reply.state, "completed",
                    "clean job {job_id} must complete, got {reply:?}"
                );
                let expected = checksum::to_hex(checksum::expected_checksum(&seeded_spec(seed)));
                assert_eq!(
                    reply.checksum.as_deref(),
                    Some(expected.as_str()),
                    "job {job_id}'s recovered checksum must match its spec"
                );
            }
            // Books balance per tenant: accepted == completed + failed
            // in this process (replayed jobs count as accepted here).
            let stats = probe.stats().expect("stats");
            let tenants = stats.get("tenants").unwrap().as_arr().unwrap().to_vec();
            for t in &tenants {
                let name = t.get("tenant").unwrap().as_str().unwrap();
                let acc = t.get("jobs_accepted").unwrap().as_u64().unwrap();
                let done = t.get("jobs_completed").unwrap().as_u64().unwrap()
                    + t.get("jobs_failed").unwrap().as_u64().unwrap();
                assert_eq!(acc, done, "tenant {name}'s books must balance");
            }
            let journal_stats = stats.get("journal").unwrap();
            assert!(
                journal_stats.get("fsyncs").unwrap().as_u64().unwrap() > 0,
                "admissions must have been fsync'd"
            );
            probe.drain().expect("clean drain");
            let status = daemon.child.wait().expect("crashd exit");
            assert!(status.success(), "clean drain must exit 0");
            assert!(
                !daemon.port_file.exists(),
                "clean drain must remove the port file"
            );
        }
        drop(clients);
    }

    // No double execution: the journal holds at most one done record
    // per job id. (Segments never rotate at this batch size, so no
    // compaction hides a duplicate.)
    let mut done_counts: HashMap<u64, u32> = HashMap::new();
    let (_journal, recovery) =
        Journal::open(JournalConfig::new(&journal_dir)).expect("reopen journal post-mortem");
    for done in &recovery.terminal {
        *done_counts.entry(done.job_id).or_default() += 1;
    }
    assert_eq!(recovery.pending.len(), 0, "drain left nothing pending");
    for &job_id in accepted.keys() {
        assert_eq!(
            done_counts.get(&job_id),
            Some(&1),
            "job {job_id} must have exactly one terminal record"
        );
    }
    // Raw-record cross-check: count done records directly so an index
    // bug cannot mask a replay double-run.
    let raw_dones = count_done_records(&journal_dir);
    for (&job_id, &count) in &raw_dones {
        assert!(
            count <= 1,
            "job {job_id} has {count} done records — double execution"
        );
    }

    let _ = std::fs::remove_dir_all(&journal_dir);
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

/// One record in the version-1 layout, written byte by byte: the
/// format's header with version 1, its CRC over header bytes 4..20 plus
/// the payload.
fn v1_record(kind: RecordKind, job_id: u64, payload: &str) -> Vec<u8> {
    let mut record = Vec::new();
    record.extend_from_slice(&MAGIC.to_le_bytes());
    record.push(kind.to_byte());
    record.push(1);
    record.extend_from_slice(&0u16.to_le_bytes());
    record.extend_from_slice(&job_id.to_le_bytes());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc_input = record[4..20].to_vec();
    crc_input.extend_from_slice(payload.as_bytes());
    record.extend_from_slice(&torus_runtime::crc32(&crc_input).to_le_bytes());
    record.extend_from_slice(payload.as_bytes());
    assert_eq!(record.len(), RECORD_HEADER_BYTES + payload.len());
    record
}

/// A journal written by a version-1 daemon: its finished job recovers as
/// terminal with a `null` checksum (its FNV-1a digest is one no client
/// can reproduce), and `status` answers it; its unfinished job replays
/// and completes with the current digest. The restarted daemon writes
/// version 2, and a second restart reads that back digest intact.
#[test]
fn v1_journal_recovers_with_null_checksums() {
    assert_eq!(VERSION, 2);
    let journal_dir = std::env::temp_dir().join(format!("torus-v1-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).unwrap();
    let accepted = |seed: u64| {
        format!(r#"{{"tenant":"acme","spec":{{"shape":[4,4],"block_bytes":32,"seed":{seed}}}}}"#)
    };
    let mut segment = v1_record(RecordKind::Accepted, 1, &accepted(11));
    segment.extend(v1_record(RecordKind::Started, 1, ""));
    segment.extend(v1_record(
        RecordKind::Done,
        1,
        r#"{"ok":true,"degraded":false,"checksum":"0123456789abcdef","error":null,"state":"completed"}"#,
    ));
    segment.extend(v1_record(RecordKind::Accepted, 2, &accepted(12)));
    std::fs::write(journal_dir.join("journal-00000001.tjl"), segment).unwrap();

    let config = || DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        status_poll: Duration::from_millis(1),
        journal: Some(JournalConfig::new(&journal_dir)),
        ..DaemonConfig::default()
    };
    let (addr, daemon) = torus_serviced::Daemon::spawn(config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let done = client.status(1).unwrap();
    assert_eq!(done.state, "completed");
    assert_eq!(done.ok, Some(true));
    assert_eq!(done.checksum, None, "a v1 digest is not reported");
    assert!(done.recovered);
    let replayed = wait_terminal(&mut client, 2);
    let expected = checksum::to_hex(checksum::expected_checksum(&seeded_spec(12)));
    assert_eq!(replayed.checksum.as_deref(), Some(expected.as_str()));
    client.drain().unwrap();
    daemon.join().unwrap();

    let (addr, daemon) = torus_serviced::Daemon::spawn(config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let reread = client.status(2).unwrap();
    assert!(reread.recovered, "job 2's v2 done record is replayed");
    assert_eq!(reread.checksum.as_deref(), Some(expected.as_str()));
    assert_eq!(client.status(1).unwrap().checksum, None);
    client.drain().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&journal_dir);
}
