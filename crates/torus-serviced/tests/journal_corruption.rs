//! Journal corruption behavior, exercised through the public API:
//!
//! * a torn final record (crash mid-append) is truncated and tolerated,
//!   and the journal stays usable afterwards;
//! * a corrupted *interior* record is a typed [`JournalError::Corrupt`]
//!   naming the exact segment and byte offset — never a silent skip;
//! * property: random single-byte flips and truncations of segment
//!   files never panic `Journal::open` and never make it invent state —
//!   a successful open only ever reports jobs that were really written,
//!   with their original payload fields.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use torus_serviced::journal::{
    Journal, JournalConfig, JournalError, Recovery, MAGIC, RECORD_HEADER_BYTES, VERSION,
};
use torus_serviced::json::Json;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "torus-journal-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_json(seed: u64) -> Json {
    torus_serviced::json::parse(&format!(r#"{{"shape":[4,4],"seed":{seed}}}"#)).unwrap()
}

/// Writes `pairs` accepted records (ids 1..=pairs), recording `done`
/// for every even id, and returns the journal directory.
fn seed_journal(tag: &str, pairs: u64) -> PathBuf {
    let dir = temp_dir(tag);
    let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
    for id in 1..=pairs {
        journal.record_accepted(id, "acme", spec_json(id)).unwrap();
        if id % 2 == 0 {
            journal
                .record_done(id, true, false, Some(&format!("{id:016x}")), None)
                .unwrap();
        }
    }
    drop(journal);
    dir
}

fn only_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tjl"))
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "expected a single segment in {dir:?}");
    segs.remove(0)
}

#[test]
fn torn_final_record_is_truncated_and_the_journal_stays_usable() {
    let dir = seed_journal("torn", 4);
    let segment = only_segment(&dir);
    let clean_len = std::fs::metadata(&segment).unwrap().len();

    // Simulate a crash mid-append: a complete header promising a
    // 100-byte payload, followed by only 10 bytes of it.
    let mut torn = Vec::new();
    torn.extend_from_slice(&MAGIC.to_le_bytes());
    torn.push(1); // accepted
    torn.push(VERSION);
    torn.extend_from_slice(&0u16.to_le_bytes());
    torn.extend_from_slice(&99u64.to_le_bytes());
    torn.extend_from_slice(&100u32.to_le_bytes());
    torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    torn.extend_from_slice(&[0x7B; 10]);
    let mut data = std::fs::read(&segment).unwrap();
    data.extend_from_slice(&torn);
    std::fs::write(&segment, &data).unwrap();

    let (journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
    assert!(recovery.tail_truncated, "the torn tail must be reported");
    assert_eq!(
        pending_ids(&recovery),
        vec![1, 3],
        "odd ids were accepted but never done"
    );
    assert_eq!(terminal_ids(&recovery), vec![2, 4]);
    assert!(
        recovery.pending.iter().all(|j| j.job_id != 99),
        "the torn record must not surface as a job"
    );
    assert_eq!(
        std::fs::metadata(&segment).unwrap().len(),
        clean_len,
        "open must truncate the file back to the last whole record"
    );

    // The journal keeps working where the torn record was cut off.
    journal.record_done(1, true, false, None, None).unwrap();
    drop(journal);
    let (_journal, again) = Journal::open(JournalConfig::new(&dir)).unwrap();
    assert!(
        !again.tail_truncated,
        "truncation already repaired the tail"
    );
    assert_eq!(pending_ids(&again), vec![3]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interior_crc_mismatch_names_segment_and_offset() {
    let dir = seed_journal("interior", 3);
    let segment = only_segment(&dir);
    let mut data = std::fs::read(&segment).unwrap();

    // Locate the second record and flip a byte in its payload.
    let first_len =
        RECORD_HEADER_BYTES + u32::from_le_bytes(data[16..20].try_into().unwrap()) as usize;
    data[first_len + RECORD_HEADER_BYTES + 3] ^= 0xFF;
    std::fs::write(&segment, &data).unwrap();

    let err = Journal::open(JournalConfig::new(&dir)).unwrap_err();
    match err {
        JournalError::Corrupt {
            segment: name,
            offset,
            detail,
        } => {
            assert_eq!(name, "journal-00000001.tjl");
            assert_eq!(
                offset, first_len as u64,
                "the error must point at the corrupted record, not the file start"
            );
            assert!(detail.contains("crc"), "detail must say why: {detail:?}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_record_in_a_closed_segment_is_corruption_not_a_torn_tail() {
    // Small segments and forever-pending jobs: the oldest pending
    // admission keeps every segment on disk, so the journal genuinely
    // spans files.
    let dir = temp_dir("closed");
    let config = JournalConfig::new(&dir).with_max_segment_bytes(4096);
    let (journal, _) = Journal::open(config.clone()).unwrap();
    for id in 1..=80u64 {
        journal.record_accepted(id, "acme", spec_json(id)).unwrap();
    }
    drop(journal);
    let mut segs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tjl"))
        .collect();
    segs.sort();
    assert!(
        segs.len() >= 2,
        "80 records must span segments, got {segs:?}"
    );

    // Chop the FIRST (closed) segment mid-record: that is not a crash
    // tail, it is damage, and replay must refuse rather than resync.
    let first = &segs[0];
    let len = std::fs::metadata(first).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(first).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);

    let err = Journal::open(config).unwrap_err();
    match err {
        JournalError::Corrupt {
            segment, detail, ..
        } => {
            assert_eq!(segment, "journal-00000001.tjl");
            assert!(
                detail.contains("closed segment"),
                "detail must distinguish closed-segment damage: {detail:?}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

fn pending_ids(recovery: &Recovery) -> Vec<u64> {
    let mut ids: Vec<u64> = recovery.pending.iter().map(|j| j.job_id).collect();
    ids.sort_unstable();
    ids
}

fn terminal_ids(recovery: &Recovery) -> Vec<u64> {
    let mut ids: Vec<u64> = recovery.terminal.iter().map(|d| d.job_id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping one byte anywhere in a journal segment never panics
    /// `Journal::open` and never smuggles state in: the open either
    /// reports corruption or recovers a subset of what was written,
    /// with every surviving record's fields intact.
    #[test]
    fn single_byte_flips_never_panic_or_invent_state(
        pairs in 1u64..6,
        byte_pos in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let tag = format!("flip-{pairs}-{}", byte_pos.index(usize::MAX));
        let dir = seed_journal(&tag, pairs);
        let segment = only_segment(&dir);
        let mut data = std::fs::read(&segment).unwrap();
        let pos = byte_pos.index(data.len());
        data[pos] ^= flip; // xor with a non-zero mask: always a real change
        std::fs::write(&segment, &data).unwrap();

        match Journal::open(JournalConfig::new(&dir)) {
            Err(JournalError::Corrupt { segment, offset, .. }) => {
                prop_assert_eq!(segment, "journal-00000001.tjl".to_string());
                prop_assert!(offset <= data.len() as u64);
            }
            Err(JournalError::Io(e)) => {
                return Err(TestCaseError::fail(format!("io error leaked: {e}")));
            }
            Ok((_, recovery)) => {
                // Only reachable when the flip turned the damaged record
                // into a torn tail (e.g. inflated payload_len at EOF):
                // everything recovered must be a prefix of what was
                // actually written, bit-exact.
                // A job may shift terminal→pending when the flip cut off
                // its done record, but ids and fields must be genuine.
                for job in &recovery.pending {
                    prop_assert!((1..=pairs).contains(&job.job_id));
                    prop_assert_eq!(&job.tenant, "acme");
                    prop_assert_eq!(
                        job.spec.get("seed").and_then(Json::as_u64),
                        Some(job.job_id)
                    );
                }
                for done in &recovery.terminal {
                    prop_assert!((1..=pairs).contains(&done.job_id));
                    prop_assert!(done.job_id % 2 == 0);
                    prop_assert_eq!(
                        done.checksum.clone(),
                        Some(format!("{:016x}", done.job_id))
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the (single, therefore last) segment at any length is
    /// always survivable — the torn-tail rule — and recovers exactly
    /// the records that fit whole in the prefix.
    #[test]
    fn any_truncation_of_the_last_segment_recovers_a_clean_prefix(
        pairs in 1u64..6,
        cut in any::<proptest::sample::Index>(),
    ) {
        let tag = format!("cut-{pairs}-{}", cut.index(usize::MAX));
        let dir = seed_journal(&tag, pairs);
        let segment = only_segment(&dir);
        let data = std::fs::read(&segment).unwrap();
        let cut_len = cut.index(data.len());

        // Compute the expected surviving records from the record
        // boundaries of the intact file.
        let mut whole: HashMap<u64, u32> = HashMap::new(); // id -> record count
        let mut offset = 0usize;
        while offset + RECORD_HEADER_BYTES <= cut_len {
            let rec_len = RECORD_HEADER_BYTES
                + u32::from_le_bytes(data[offset + 16..offset + 20].try_into().unwrap()) as usize;
            if offset + rec_len > cut_len {
                break;
            }
            let id = u64::from_le_bytes(data[offset + 8..offset + 16].try_into().unwrap());
            *whole.entry(id).or_default() += 1;
            offset += rec_len;
        }

        std::fs::write(&segment, &data[..cut_len]).unwrap();
        let (_, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        prop_assert_eq!(recovery.tail_truncated, offset < cut_len);
        let mut recovered: Vec<u64> = pending_ids(&recovery);
        recovered.extend(terminal_ids(&recovery));
        recovered.sort_unstable();
        let mut expected: Vec<u64> = whole.keys().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(recovered, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
