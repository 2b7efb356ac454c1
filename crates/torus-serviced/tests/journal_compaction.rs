//! Compaction never brings a finished job back. The journal deletes
//! closed segments only as a prefix, below the segment holding the
//! oldest pending admission, so a `done` record is never deleted while
//! its `accepted` record survives:
//!
//! * a seeded model test drives random interleavings of `accepted` and
//!   `done` (a `done` racing ahead of its `accepted` included) over
//!   4 KiB segments, reopening at random points, and checks every
//!   recovery against the model;
//! * a daemon test holds one job running while dozens of short jobs
//!   finish across rotations, then reopens the drained journal.
//!
//! The vendored `proptest` is a stub, so the model test draws from a
//! fixed-seed splitmix64, as the crash chaos suite does; a failure
//! names its seed and step.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use torus_service::EngineConfig;
use torus_serviced::journal::{Journal, JournalConfig, Recovery};
use torus_serviced::{json::Json, Client, Daemon, DaemonConfig, JobSpec};

const SEGMENT_BYTES: u64 = 4096;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "torus-journal-compaction-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segments_on_disk(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("journal dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "tjl"))
        })
        .count()
}

/// What the journal must recover, tracked beside it. Positions count
/// records in append order across every reopen.
#[derive(Default)]
struct Model {
    /// Accepted, not done: id → position of its `accepted` record.
    pending: HashMap<u64, u64>,
    /// `done` recorded before the job's `accepted` (held in memory).
    early: Vec<u64>,
    /// Done: id → position of its `done` record.
    finished: HashMap<u64, u64>,
    records: u64,
    next_id: u64,
}

impl Model {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Checks one reopen's recovery. Pending must match exactly. A
    /// finished job may be forgotten only with its whole segment, and
    /// compaction deletes nothing at or above the oldest pending
    /// admission, so every job that finished after that admission was
    /// appended must still answer as terminal.
    fn check(&self, recovery: &Recovery, context: &str) {
        let pending: BTreeSet<u64> = recovery.pending.iter().map(|j| j.job_id).collect();
        let expected: BTreeSet<u64> = self.pending.keys().copied().collect();
        assert_eq!(pending, expected, "{context}: pending");
        let terminal: HashSet<u64> = recovery.terminal.iter().map(|d| d.job_id).collect();
        for id in &terminal {
            assert!(
                self.finished.contains_key(id),
                "{context}: phantom terminal {id}"
            );
        }
        if let Some(&floor) = self.pending.values().min() {
            for (id, &at) in &self.finished {
                assert!(
                    at < floor || terminal.contains(id),
                    "{context}: job {id} finished at record {at}, after the oldest \
                     pending admission (record {floor}), but is not terminal"
                );
            }
        }
    }
}

fn config(dir: &Path) -> JournalConfig {
    JournalConfig::new(dir).with_max_segment_bytes(SEGMENT_BYTES)
}

fn spec(id: u64) -> Json {
    Json::obj([
        ("shape", Json::Arr(vec![Json::u64(4), Json::u64(4)])),
        ("seed", Json::u64(id)),
    ])
}

/// Random interleavings of `accepted` and `done` over 4 KiB segments,
/// reopened at random points: every recovery reads exactly the model's
/// accepted-minus-done set as pending, and keeps every `done` that lies
/// behind a pending admission.
#[test]
fn compaction_never_resurrects_a_finished_job() {
    const SEEDS: u64 = 24;
    const STEPS: usize = 400;
    for seed in 0..SEEDS {
        let dir = temp_dir(&format!("model-{seed}"));
        let mut rng = seed.wrapping_mul(0x0005_DEEC_E66D) ^ 1998;
        let mut model = Model::default();
        let (mut journal, _) = Journal::open(config(&dir)).unwrap();
        for step in 0..STEPS {
            let context = format!("seed {seed} step {step}");
            let roll = splitmix64(&mut rng) % 100;
            let pick = splitmix64(&mut rng);
            match roll {
                // A new admission.
                0..=39 => {
                    let id = model.fresh_id();
                    journal.record_accepted(id, "acme", spec(id)).unwrap();
                    model.pending.insert(id, model.records);
                    model.records += 1;
                }
                // A pending job finishes.
                40..=74 if !model.pending.is_empty() => {
                    let mut ids: Vec<u64> = model.pending.keys().copied().collect();
                    ids.sort_unstable();
                    let id = ids[(pick % ids.len() as u64) as usize];
                    journal.record_done(id, true, false, None, None).unwrap();
                    model.pending.remove(&id);
                    model.finished.insert(id, model.records);
                    model.records += 1;
                }
                // A job's `done` races ahead of its `accepted`.
                75..=84 => {
                    let id = model.fresh_id();
                    journal.record_done(id, true, false, None, None).unwrap();
                    model.early.push(id);
                }
                // The late admission lands, its `done` right behind it.
                85..=94 if !model.early.is_empty() => {
                    let id = model
                        .early
                        .swap_remove((pick % model.early.len() as u64) as usize);
                    journal.record_accepted(id, "acme", spec(id)).unwrap();
                    model.finished.insert(id, model.records + 1);
                    model.records += 2;
                }
                // Restart. A `done` still waiting for its admission was
                // never on disk, and that admission never comes.
                95..=99 => {
                    drop(journal);
                    model.early.clear();
                    let recovery;
                    (journal, recovery) = Journal::open(config(&dir)).expect(&context);
                    model.check(&recovery, &context);
                }
                _ => {}
            }
        }
        drop(journal);
        model.early.clear();
        let (_journal, recovery) = Journal::open(config(&dir)).unwrap();
        model.check(&recovery, &format!("seed {seed} final"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A spec whose pinned worker stalls for `stall_ms`, with a retry
/// policy that outlives the stall — only a cancel ends it early.
fn stalled_spec(stall_ms: u64) -> Json {
    torus_serviced::json::parse(&format!(
        r#"{{"shape":[4,4],"block_bytes":32,
             "fault":{{"worker_stall":[0,0,{}]}},
             "retry":{{"deadline_ms":60000,"max_retries":64,"backoff_us":200}}}}"#,
        stall_ms * 1000
    ))
    .unwrap()
}

fn seeded_spec(seed: u64) -> JobSpec {
    JobSpec {
        shape: vec![4, 4],
        block_bytes: 32,
        payload: torus_service::PayloadSpec::Seeded { seed },
        ..JobSpec::default()
    }
}

/// A long-running job holds its segment while 64 short jobs finish
/// across rotations: once the daemon drains, reopening the journal finds
/// nothing pending and every job terminal.
#[test]
fn a_held_job_keeps_every_later_done_on_disk() {
    let dir = temp_dir("daemon");
    let (addr, daemon) = Daemon::spawn(DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        status_poll: Duration::from_millis(1),
        journal: Some(config(&dir)),
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();

    let held = client.submit_raw(stalled_spec(60_000)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.status(held).unwrap().state != "running" {
        assert!(Instant::now() < deadline, "job {held} never ran");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Pipelined batches put several admissions ahead of their `done`
    // records, so jobs straddle segment boundaries.
    let mut short = Vec::new();
    for batch in 0..8 {
        let specs: Vec<Json> = (0..8)
            .map(|i| seeded_spec(batch * 8 + i).to_json())
            .collect();
        let ids: Vec<u64> = client
            .submit_batch_raw(&specs)
            .unwrap()
            .into_iter()
            .map(|reply| reply.unwrap())
            .collect();
        for &id in &ids {
            assert!(client.wait_done(id).unwrap().ok, "job {id}");
        }
        short.extend(ids);
    }
    let segments = segments_on_disk(&dir);
    assert!(
        segments >= 3,
        "{segments} segments: the short jobs must rotate"
    );
    assert_eq!(client.status(held).unwrap().state, "running");

    assert_eq!(client.cancel(held).unwrap().outcome, "cancelling");
    assert_eq!(client.wait_done(held).unwrap().state, "cancelled");
    client.drain().unwrap();
    daemon.join().unwrap();

    let (_journal, recovery) = Journal::open(config(&dir)).unwrap();
    let pending: Vec<u64> = recovery.pending.iter().map(|j| j.job_id).collect();
    assert!(
        pending.is_empty(),
        "finished jobs would re-run: {pending:?}"
    );
    let terminal: HashSet<u64> = recovery.terminal.iter().map(|d| d.job_id).collect();
    for id in short.iter().chain([&held]) {
        assert!(terminal.contains(id), "job {id} lost its terminal record");
    }
    drop(_journal);
    let _ = std::fs::remove_dir_all(&dir);
}
