//! Group-commit and durability-barrier tests: a pipelined submit burst
//! must coalesce many admissions into few fsync batches, every
//! `accepted` heard on the wire must already be an on-disk record, and
//! a recovered admission whose spec no longer parses must surface as a
//! `failed` + `recovered` status — never silently vanish.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use torus_service::EngineConfig;
use torus_serviced::journal::{RecordKind, RECORD_HEADER_BYTES};
use torus_serviced::json::Json;
use torus_serviced::{Client, ClientError, Daemon, DaemonConfig, JobSpec, Journal, JournalConfig};

fn temp_journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("torus-gc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaling_config(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(4)
            .with_drivers(2)
            .with_queue_depth(256),
        status_poll: Duration::from_millis(1),
        journal: Some(JournalConfig::new(dir)),
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

/// Job ids with an `accepted` record on disk right now, decoded from
/// the raw segment bytes (independent of the journal's own index).
fn accepted_ids_on_disk(dir: &Path) -> HashSet<u64> {
    let mut ids = HashSet::new();
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
            if offset + RECORD_HEADER_BYTES + payload_len > data.len() {
                break; // torn tail
            }
            if RecordKind::from_byte(kind) == Some(RecordKind::Accepted) {
                ids.insert(job_id);
            }
            offset += RECORD_HEADER_BYTES + payload_len;
        }
    }
    ids
}

/// A 64-submit pipelined burst — every line written before any reply is
/// read — must share fsync batches: far fewer `sync_data` calls than
/// admissions, with the savings visible in the wire `stats`.
#[test]
fn pipelined_burst_coalesces_fsyncs_into_few_batches() {
    let dir = temp_journal_dir("burst");
    let (addr, daemon) = Daemon::spawn(journaling_config(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    const BURST: u64 = 64;
    let specs: Vec<JobSpec> = (0..BURST).map(seeded_spec).collect();
    let replies = client.submit_batch(&specs).unwrap();
    let ids: Vec<u64> = replies
        .into_iter()
        .map(|r| r.expect("burst fits the queue"))
        .collect();
    assert_eq!(ids.len() as u64, BURST);

    let stats = client.stats().unwrap();
    let journal = stats.get("journal").expect("journal stats present");
    let batches = journal
        .get("group_commit_batches")
        .and_then(torus_serviced::json::Json::as_u64)
        .expect("group_commit_batches");
    let records = journal
        .get("group_commit_records")
        .and_then(torus_serviced::json::Json::as_u64)
        .expect("group_commit_records");
    assert!(
        records >= BURST,
        "all {BURST} admissions covered, got {records}"
    );
    assert!(batches >= 1, "at least one batch sync ran");
    assert!(
        batches * 4 <= records,
        "group commit must coalesce: {batches} batches for {records} records \
         is a mean batch size below 4"
    );
    let mean = journal
        .get("mean_batch_size")
        .and_then(torus_serviced::json::Json::as_f64)
        .expect("mean_batch_size");
    assert!(mean >= 4.0, "reported mean batch size {mean} disagrees");
    let fsyncs = journal
        .get("fsyncs")
        .and_then(torus_serviced::json::Json::as_u64)
        .expect("fsyncs");
    assert!(
        fsyncs < BURST,
        "{fsyncs} fsyncs for {BURST} admissions — group commit is not batching"
    );

    for id in ids {
        assert!(client.wait_done(id).unwrap().ok);
    }
    client.drain().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pipelined burst mixing accepted and rejected submits must get its
/// replies in submission order: a rejection resolves immediately while
/// earlier admissions still await their fsync, and the daemon must park
/// it behind their `accepted` lines rather than let it jump the wire —
/// positional clients would otherwise attribute the rejection to the
/// wrong spec.
#[test]
fn mixed_burst_replies_arrive_in_submission_order() {
    let dir = temp_journal_dir("mixed");
    let (addr, daemon) = Daemon::spawn(journaling_config(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    const BURST: usize = 32;
    // A zero in the shape never validates: deterministic `invalid_spec`
    // rejections at known positions, interleaved with valid specs.
    let invalid = |i: usize| i % 5 == 2;
    let specs: Vec<Json> = (0..BURST)
        .map(|i| {
            if invalid(i) {
                torus_serviced::json::parse(r#"{"shape":[0,4]}"#).unwrap()
            } else {
                seeded_spec(i as u64).to_json()
            }
        })
        .collect();

    let replies = client.submit_batch_raw(&specs).unwrap();
    assert_eq!(replies.len(), BURST);
    let mut ids = Vec::new();
    for (i, reply) in replies.iter().enumerate() {
        if invalid(i) {
            match reply {
                Err(ClientError::Rejected { reason, .. }) => assert_eq!(
                    reason, "invalid_spec",
                    "position {i} must carry its own rejection reason"
                ),
                other => panic!("position {i} sent an invalid spec but got {other:?}"),
            }
        } else {
            match reply {
                Ok(id) => ids.push(*id),
                other => panic!("position {i} sent a valid spec but got {other:?}"),
            }
        }
    }
    // Admissions on one connection are processed in request order, so
    // their engine ids must be strictly increasing — a second witness
    // that no reply landed on the wrong position.
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "accepted ids out of submission order: {ids:?}"
    );
    for id in ids {
        assert!(client.wait_done(id).unwrap().ok);
    }

    client.drain().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability barrier orders the fsync before the wire reply: the
/// moment the client has read `accepted {job_id}`, that job's admission
/// record is decodable from the raw segment bytes on disk.
#[test]
fn accepted_on_the_wire_means_record_on_disk() {
    let dir = temp_journal_dir("barrier");
    let (addr, daemon) = Daemon::spawn(journaling_config(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    for seed in 0..4u64 {
        let job_id = client.submit(&seeded_spec(seed)).unwrap();
        assert!(
            accepted_ids_on_disk(&dir).contains(&job_id),
            "heard `accepted` for job {job_id} but its record is not on disk"
        );
        assert!(client.wait_done(job_id).unwrap().ok);
    }

    client.drain().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The barrier holds across connections: eight clients, each on its own
/// connection, submit one job at a time, so a reactor iteration's sync
/// can cover admissions from several connections — and every `accepted`
/// any client hears is still an on-disk record by then.
#[test]
fn accepted_means_on_disk_across_connections() {
    const CLIENTS: u64 = 8;
    const JOBS: u64 = 16;
    let dir = temp_journal_dir("connections");
    let (addr, daemon) = Daemon::spawn(journaling_config(&dir)).unwrap();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.hello(&format!("tenant-{c}")).unwrap();
                for j in 0..JOBS {
                    let job_id = client.submit(&seeded_spec(c * JOBS + j)).unwrap();
                    assert!(
                        accepted_ids_on_disk(&dir).contains(&job_id),
                        "client {c} heard `accepted` for job {job_id} before its record was on disk"
                    );
                    assert!(client.wait_done(job_id).unwrap().ok);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let mut admin = Client::connect(addr).unwrap();
    let stats = admin.stats().unwrap();
    let records = stats
        .get("journal")
        .and_then(|j| j.get("group_commit_records"))
        .and_then(Json::as_u64)
        .expect("group_commit_records");
    assert_eq!(records, CLIENTS * JOBS, "every admission synced once");
    admin.drain().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled admission whose spec fails re-validation at recovery
/// (schema tightened across the restart, say) must not be dropped on
/// the floor: the daemon records a `done {ok:false}` carrying the
/// resubmit error and answers `status` with failed + recovered.
#[test]
fn recovery_resubmit_failure_is_recorded_not_lost() {
    let dir = temp_journal_dir("resubmit-fail");
    const POISONED: u64 = 7;
    {
        let (journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovery.records_replayed, 0, "fresh directory");
        // Zero in the shape never validates, so resubmission must fail.
        let bad_spec = torus_serviced::json::parse(r#"{"shape":[0,4]}"#).unwrap();
        journal.record_accepted(POISONED, "acme", bad_spec).unwrap();
    }

    let (addr, daemon) = Daemon::spawn(journaling_config(&dir)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let reply = client.status(POISONED).unwrap();
    assert_eq!(reply.state, "failed", "got {reply:?}");
    assert!(reply.recovered, "outcome came from recovery: {reply:?}");
    assert_eq!(reply.ok, Some(false));
    assert!(
        reply
            .error
            .as_deref()
            .is_some_and(|e| e.contains("recovered spec invalid")),
        "error must say why resubmission failed: {reply:?}"
    );

    client.drain().unwrap();
    daemon.join().unwrap();

    // The verdict is durable: a post-mortem replay sees the job
    // terminal (failed), not pending — a second restart will not
    // resurrect it.
    let (_journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
    assert!(
        recovery.pending.iter().all(|p| p.job_id != POISONED),
        "poisoned job must not be pending after its failure was recorded"
    );
    let done = recovery
        .terminal
        .iter()
        .find(|d| d.job_id == POISONED)
        .expect("poisoned job has a terminal record");
    assert!(!done.ok);
    assert!(done
        .error
        .as_deref()
        .is_some_and(|e| e.contains("recovered spec invalid")));
    let _ = std::fs::remove_dir_all(&dir);
}
