//! The write-ahead admission journal: crash durability for the daemon.
//!
//! Every admission the daemon acknowledges is recorded here *before*
//! the client hears about it, so a `kill -9` at any instant loses no
//! accepted job. The format is deliberately dependency-light — binary
//! fixed-header records in append-only segment files, integrity-checked
//! with the runtime's CRC32 ([`torus_runtime::crc32`]).
//!
//! ## Record format
//!
//! Each record is a 24-byte little-endian header followed by a JSON
//! payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "TJL1" (0x314C_4A54)
//!      4     1  kind         1=accepted 2=started 3=done 4=rejected
//!      5     1  version      2 (1 still read; see below)
//!      6     2  reserved     0
//!      8     8  job_id       engine-assigned id (0 for rejected)
//!     16     4  payload_len  bytes of JSON following the header
//!     20     4  crc32        over bytes 4..20 ++ payload
//!     24     …  payload      UTF-8 JSON object
//! ```
//!
//! This build writes only the two kinds replay reads: `accepted` and
//! `done`. Journals from older builds also hold `started` and
//! `rejected` records; they still decode (a bad one is still
//! corruption) and replay skips them.
//!
//! ## Durability, group commit, and torn writes
//!
//! `accepted` records are fsync'd before the daemon acknowledges the
//! job; `done` records are write-through only. The fsync itself is
//! **group committed**, with no thread of its own: each admission
//! append takes a monotone sequence number, and `Journal::sync` issues
//! one `sync_data` covering every admission appended so far — returning
//! at once when another caller's sync already covered the sequence. A
//! reactor appends every admission its iteration read, then syncs once
//! for the highest; concurrent reactors share each other's syncs. The
//! barrier — *on disk before the client hears `accepted`* — is exactly
//! as strong as one-fsync-per-record, while the fsync count under
//! concurrent submitters drops well below one per job. A record that
//! landed in a previous segment is covered too: rotation syncs the old
//! file under the append lock before switching, and syncs the directory
//! once the new file exists, so syncing the active file always
//! completes the batch. A crash mid-append can therefore leave one
//! *incomplete* record at the tail of the newest segment — recovery
//! tolerates exactly that case by truncating it away. Any other damage
//! (bad magic, bad kind, CRC mismatch, short record in a closed
//! segment) is real corruption and fails recovery with a typed
//! [`JournalError::Corrupt`] naming the segment and byte offset.
//!
//! ## Segments, rotation, compaction
//!
//! Records append to the active segment (`journal-NNNNNNNN.tjl`);
//! once it exceeds the configured size the journal rotates to a new
//! file. Compaction deletes a *prefix*: closed segments go oldest-first
//! while they lie below the segment holding the oldest pending
//! admission. A job's `done` follows its `accepted` in stream order
//! (a `done` that races ahead is buffered), so a deleted segment holds
//! only finished jobs' records, and no `done` is ever deleted while
//! its `accepted` survives. The price: a long-pending job keeps every
//! later segment on disk until it finishes.
//!
//! ## Recovery
//!
//! [`Journal::open`] replays all segments oldest-first and returns a
//! [`Recovery`]: jobs `accepted` but never `done` (to re-enqueue,
//! exactly once), terminal jobs with their recorded outcome and
//! delivery digest (to answer `status` for pre-crash ids without
//! re-running), and the highest job id seen (so fresh ids stay
//! monotonic across the restart).
//!
//! ## Versions
//!
//! This build writes version 2 and reads versions 1 and 2; any other
//! version is corruption. The two differ only in what a `done` record's
//! `checksum` means: v2 carries the four-lane delivery digest
//! ([`torus_runtime::digest`]), v1 carried an FNV-1a digest that no
//! client computes any more. Replay therefore drops a v1 checksum — the
//! job recovers as terminal with its outcome and a `null` checksum, the
//! same answer the wire gives for a degraded run — rather than report a
//! value no client could verify.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use torus_runtime::crc32;

use crate::json::Json;

/// First four bytes of every record: `"TJL1"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"TJL1");
/// The on-disk format version this build writes.
pub const VERSION: u8 = 2;
/// The oldest version replay still reads (see "Versions" above).
const OLDEST_READABLE_VERSION: u8 = 1;
/// Fixed bytes preceding every record's JSON payload.
pub const RECORD_HEADER_BYTES: usize = 24;
/// Upper bound on a record's payload; anything larger on disk is
/// treated as corruption rather than allocated.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

fn lk<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a journal record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A job passed admission; payload carries `tenant` and `spec`.
    Accepted,
    /// A driver began executing the job; empty payload. Written only
    /// by older builds; replay skips it.
    Started,
    /// The job reached a terminal state; payload carries `ok`,
    /// `degraded`, `checksum` (delivery digest hex or null), and `error`.
    Done,
    /// A submission was refused; `job_id` is 0, payload carries
    /// `tenant` and `reason`. Written only by older builds; replay
    /// skips it.
    Rejected,
}

impl RecordKind {
    /// The wire byte written at header offset 4.
    pub fn to_byte(self) -> u8 {
        match self {
            RecordKind::Accepted => 1,
            RecordKind::Started => 2,
            RecordKind::Done => 3,
            RecordKind::Rejected => 4,
        }
    }

    /// Decodes a wire byte; `None` for anything unassigned.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RecordKind::Accepted),
            2 => Some(RecordKind::Started),
            3 => Some(RecordKind::Done),
            4 => Some(RecordKind::Rejected),
            _ => None,
        }
    }
}

/// Why the journal could not be opened, replayed, or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record failed validation somewhere other than the tolerated
    /// torn tail of the newest segment.
    Corrupt {
        /// File name of the damaged segment (e.g. `journal-00000001.tjl`).
        segment: String,
        /// Byte offset of the damaged record within the segment.
        offset: u64,
        /// What failed: bad magic, bad kind, CRC mismatch, …
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "journal corrupt: segment {segment} at offset {offset}: {detail}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Sizing knobs for a [`Journal`].
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segment files; created if absent.
    pub dir: PathBuf,
    /// Rotate the active segment once it exceeds this many bytes.
    /// Default 1 MiB.
    pub max_segment_bytes: u64,
}

impl JournalConfig {
    /// A journal rooted at `dir` with default sizing.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_segment_bytes: 1 << 20,
        }
    }

    /// Sets the rotation threshold (clamped to at least 4 KiB).
    pub fn with_max_segment_bytes(mut self, bytes: u64) -> Self {
        self.max_segment_bytes = bytes.max(4096);
        self
    }
}

/// An `accepted`-but-never-`done` job reconstructed from the journal,
/// to be re-enqueued exactly once on restart.
#[derive(Clone, Debug)]
pub struct RecoveredJob {
    /// The pre-crash engine-assigned id, preserved across the restart.
    pub job_id: u64,
    /// The tenant that submitted it.
    pub tenant: String,
    /// The job's wire spec, as recorded at admission (opaque JSON here;
    /// the daemon re-parses it with `JobSpec::from_json`).
    pub spec: Json,
}

/// A terminal job reconstructed from the journal, so a restarted
/// daemon can answer `status` for ids it never executed.
#[derive(Clone, Debug)]
pub struct RecoveredDone {
    /// The pre-crash engine-assigned id.
    pub job_id: u64,
    /// Whether the job completed (vs. failed).
    pub ok: bool,
    /// Whether it completed in degraded mode.
    pub degraded: bool,
    /// The recorded delivery digest (16 hex digits), when the run was
    /// clean. `None` for v1 records, whose FNV-1a digest is dropped.
    pub checksum: Option<String>,
    /// The recorded failure description, when it failed.
    pub error: Option<String>,
    /// The recorded terminal state: `"completed"`, `"failed"`,
    /// `"cancelled"`, or `"deadline_exceeded"`. Records written before
    /// the field existed derive it from `ok`.
    pub state: String,
}

/// Everything [`Journal::open`] reconstructed from disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs to re-enqueue, in ascending id order.
    pub pending: Vec<RecoveredJob>,
    /// Terminal jobs with their recorded outcomes, ascending id order.
    pub terminal: Vec<RecoveredDone>,
    /// The highest job id seen anywhere in the journal (0 if empty).
    pub max_job_id: u64,
    /// Records successfully replayed across all segments.
    pub records_replayed: u64,
    /// Whether a torn final record was truncated away.
    pub tail_truncated: bool,
}

/// A point-in-time snapshot of the journal's write-side counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since open (all kinds).
    pub records_written: u64,
    /// Total bytes appended since open.
    pub bytes_written: u64,
    /// `fsync` calls issued: group-commit batches, rotation syncs, and
    /// the directory syncs that make a new segment's entry durable.
    /// Group commit makes this well below the `accepted` count under
    /// bursts — one batch sync can cover many admissions.
    pub fsyncs: u64,
    /// Closed segments deleted because they lay below the oldest
    /// pending admission's segment.
    pub segments_compacted: u64,
    /// Pending jobs handed to the engine at the last recovery.
    pub jobs_replayed: u64,
    /// Batch `sync_data` calls `Journal::sync` issued.
    pub group_commit_batches: u64,
    /// Admissions those batches made durable;
    /// `group_commit_records / group_commit_batches` is the mean batch
    /// size (1.0 when submitters never overlap).
    pub group_commit_records: u64,
}

impl JournalStats {
    /// Mean admissions per group-commit batch (`None` before the first
    /// batch).
    pub(crate) fn mean_batch_size(&self) -> Option<f64> {
        if self.group_commit_batches == 0 {
            None
        } else {
            Some(self.group_commit_records as f64 / self.group_commit_batches as f64)
        }
    }
}

/// Mutable write-side state, guarded by one mutex.
struct Inner {
    file: File,
    /// The active segment's sequence number.
    seq: u64,
    /// Closed segments still on disk, oldest first. Compaction pops the
    /// front; numbering may have holes (older builds deleted segments
    /// out of order).
    closed: VecDeque<u64>,
    active_bytes: u64,
    /// Admissions appended since open: the sequence of the newest.
    /// Assigned under this lock, so sequence order is file order.
    appended: u64,
    /// Set when a rotation's `sync_data` or directory sync failed. The
    /// former may have consumed a writeback error that a concurrent
    /// [`Journal::sync`] on a clone of the same file was spared; after
    /// the latter the new segment's entry may not survive a power loss.
    /// Either way `sync` reads this after its own `sync_data` and never
    /// certifies past it.
    rotation_error: Option<String>,
    /// Each pending admission — an `accepted` record on disk (written
    /// or replayed) with no `done` yet — mapped to the segment holding
    /// that record. A `done` for a job not here is deferred: no record
    /// for a job follows its `done`, so "not pending" can only mean
    /// "not yet accepted".
    pending: HashMap<u64, u64>,
    /// `done` records that arrived before their job's `accepted`
    /// record (driver hooks race the submit path); written right after
    /// the acceptance lands.
    deferred: HashMap<u64, Json>,
}

/// Group-commit state: what is known durable, guarded by the mutex
/// every [`Journal::sync`] holds for its whole `sync_data`.
#[derive(Default)]
struct Durable {
    /// Admissions covered by a completed `sync_data` (the sequence of
    /// the newest).
    through: u64,
    /// Sticky: a failed sync poisons the journal's durability — every
    /// later sync of an uncovered admission fails with this.
    error: Option<String>,
}

/// The daemon's append-only admission journal. Cheap to share: all
/// methods take `&self`.
pub struct Journal {
    config: JournalConfig,
    /// The append lock. Taken after `durable`, never before it.
    inner: Mutex<Inner>,
    durable: Mutex<Durable>,
    records_written: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    segments_compacted: AtomicU64,
    jobs_replayed: AtomicU64,
    group_commit_batches: AtomicU64,
    group_commit_records: AtomicU64,
}

// No `Drop`: every appended admission is synced by the reactor
// iteration (or the `record_accepted` call) that appended it, so no sync
// is owed when the journal drops; `done` records are write-through only
// and the closing file keeps them in the page cache.

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.config.dir)
            .finish_non_exhaustive()
    }
}

fn segment_name(seq: u64) -> String {
    format!("journal-{seq:08}.tjl")
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_name(seq))
}

/// Creates (or empties) segment `seq` in `dir` for appending.
fn create_segment(dir: &Path, seq: u64) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(segment_path(dir, seq))
}

/// Makes `dir`'s entries durable: a file created in it survives a
/// power loss only once its directory entry does.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Sorted sequence numbers of the segment files present in `dir`.
fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(mid) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".tjl"))
        {
            if let Ok(seq) = mid.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

fn encode_record(kind: RecordKind, job_id: u64, payload: &[u8]) -> Vec<u8> {
    encode_record_version(VERSION, kind, job_id, payload)
}

fn encode_record_version(version: u8, kind: RecordKind, job_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(kind.to_byte());
    buf.push(version);
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&job_id.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc_input = Vec::with_capacity(16 + payload.len());
    crc_input.extend_from_slice(&buf[4..20]);
    crc_input.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// One decoded record during replay.
struct RawRecord {
    kind: RecordKind,
    version: u8,
    job_id: u64,
    payload: Json,
    /// Total bytes the record occupied on disk.
    len: usize,
}

/// Outcome of decoding the record at `offset` in `data`.
enum Decoded {
    Record(RawRecord),
    /// Fewer bytes remain than the record claims — a torn tail if this
    /// is the newest segment, corruption otherwise.
    Torn,
    Corrupt(String),
}

fn decode_record(data: &[u8], offset: usize) -> Decoded {
    let rest = &data[offset..];
    if rest.len() < RECORD_HEADER_BYTES {
        return Decoded::Torn;
    }
    let magic = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Decoded::Corrupt(format!("bad magic {magic:#010x}"));
    }
    let kind_byte = rest[4];
    let Some(kind) = RecordKind::from_byte(kind_byte) else {
        return Decoded::Corrupt(format!("unknown record kind {kind_byte}"));
    };
    let version = rest[5];
    if !(OLDEST_READABLE_VERSION..=VERSION).contains(&version) {
        return Decoded::Corrupt(format!("unsupported record version {version}"));
    }
    let job_id = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD_BYTES {
        return Decoded::Corrupt(format!(
            "payload length {payload_len} exceeds the format cap"
        ));
    }
    let stored_crc = u32::from_le_bytes(rest[20..24].try_into().expect("4 bytes"));
    let total = RECORD_HEADER_BYTES + payload_len as usize;
    if rest.len() < total {
        return Decoded::Torn;
    }
    let payload = &rest[RECORD_HEADER_BYTES..total];
    let mut crc_input = Vec::with_capacity(16 + payload.len());
    crc_input.extend_from_slice(&rest[4..20]);
    crc_input.extend_from_slice(payload);
    let computed = crc32(&crc_input);
    if computed != stored_crc {
        return Decoded::Corrupt(format!(
            "crc mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
        ));
    }
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => return Decoded::Corrupt("payload is not UTF-8".to_string()),
    };
    let payload = if text.is_empty() {
        Json::obj([])
    } else {
        match crate::json::parse(text) {
            Ok(j) => j,
            Err(e) => return Decoded::Corrupt(format!("payload is not valid JSON: {e}")),
        }
    };
    Decoded::Record(RawRecord {
        kind,
        version,
        job_id,
        payload,
        len: total,
    })
}

/// Replay bookkeeping for one job id.
#[derive(Default)]
struct JobReplay {
    /// `tenant`, `spec` and the segment of the `accepted` record.
    accepted: Option<(String, Json, u64)>,
    done: Option<RecoveredDone>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `config.dir`, replays
    /// every segment, compacts the finished prefix, and returns the
    /// journal alongside what it recovered.
    pub fn open(config: JournalConfig) -> Result<(Self, Recovery), JournalError> {
        let mut dir_syncs = 0;
        if !config.dir.exists() {
            fs::create_dir_all(&config.dir)?;
            let parent = config.dir.parent().filter(|p| !p.as_os_str().is_empty());
            sync_dir(parent.unwrap_or(Path::new(".")))?;
            dir_syncs += 1;
        }
        let mut seqs = list_segments(&config.dir)?;
        let mut recovery = Recovery::default();
        let mut jobs: HashMap<u64, JobReplay> = HashMap::new();
        let mut tail_valid_bytes = 0u64;

        for (i, &seq) in seqs.iter().enumerate() {
            let is_last = i + 1 == seqs.len();
            let path = segment_path(&config.dir, seq);
            let mut data = Vec::new();
            File::open(&path)?.read_to_end(&mut data)?;
            let mut offset = 0usize;
            while offset < data.len() {
                match decode_record(&data, offset) {
                    Decoded::Record(rec) => {
                        offset += rec.len;
                        recovery.records_replayed += 1;
                        recovery.max_job_id = recovery.max_job_id.max(rec.job_id);
                        match rec.kind {
                            RecordKind::Accepted => {
                                let tenant = rec.payload.get("tenant").and_then(Json::as_str);
                                let spec = rec.payload.get("spec").cloned();
                                jobs.entry(rec.job_id).or_default().accepted =
                                    tenant.zip(spec).map(|(t, spec)| (t.to_string(), spec, seq));
                            }
                            RecordKind::Started | RecordKind::Rejected => {}
                            RecordKind::Done => {
                                let ok = rec
                                    .payload
                                    .get("ok")
                                    .and_then(Json::as_bool)
                                    .unwrap_or(false);
                                // Pre-`state` records derive it from `ok`.
                                let state = rec
                                    .payload
                                    .get("state")
                                    .and_then(Json::as_str)
                                    .map(str::to_string)
                                    .unwrap_or_else(|| {
                                        if ok { "completed" } else { "failed" }.to_string()
                                    });
                                jobs.entry(rec.job_id).or_default().done = Some(RecoveredDone {
                                    job_id: rec.job_id,
                                    ok,
                                    degraded: rec
                                        .payload
                                        .get("degraded")
                                        .and_then(Json::as_bool)
                                        .unwrap_or(false),
                                    checksum: rec
                                        .payload
                                        .get("checksum")
                                        .and_then(Json::as_str)
                                        // v1 carried FNV-1a: unverifiable now.
                                        .filter(|_| rec.version >= 2)
                                        .map(str::to_string),
                                    error: rec
                                        .payload
                                        .get("error")
                                        .and_then(Json::as_str)
                                        .map(str::to_string),
                                    state,
                                });
                            }
                        }
                    }
                    Decoded::Torn => {
                        if is_last {
                            // A crash mid-append: drop the partial tail.
                            recovery.tail_truncated = true;
                            break;
                        }
                        return Err(JournalError::Corrupt {
                            segment: segment_name(seq),
                            offset: offset as u64,
                            detail: "record truncated inside a closed segment".to_string(),
                        });
                    }
                    Decoded::Corrupt(detail) => {
                        return Err(JournalError::Corrupt {
                            segment: segment_name(seq),
                            offset: offset as u64,
                            detail,
                        });
                    }
                }
            }
            if is_last {
                tail_valid_bytes = offset as u64;
            }
        }

        // Classify: accepted-without-done is pending work; every done
        // record (even one whose accepted landed in a since-compacted
        // segment) answers status queries.
        let mut pending = HashMap::new();
        for (id, replay) in jobs {
            match (replay.done, replay.accepted) {
                (Some(done), _) => recovery.terminal.push(done),
                (None, Some((tenant, spec, seq))) => {
                    pending.insert(id, seq);
                    recovery.pending.push(RecoveredJob {
                        job_id: id,
                        tenant,
                        spec,
                    });
                }
                (None, None) => {}
            }
        }
        recovery.pending.sort_by_key(|j| j.job_id);
        recovery.terminal.sort_by_key(|j| j.job_id);

        // Open the active segment: resume the newest file (truncating a
        // torn tail first) or start fresh at segment 1.
        let (seq, file, active_bytes) = match seqs.pop() {
            Some(last) => {
                let path = segment_path(&config.dir, last);
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.set_len(tail_valid_bytes)?;
                file.seek(SeekFrom::End(0))?;
                (last, file, tail_valid_bytes)
            }
            None => {
                let file = create_segment(&config.dir, 1)?;
                sync_dir(&config.dir)?;
                dir_syncs += 1;
                (1, file, 0)
            }
        };

        let journal = Self {
            config,
            inner: Mutex::new(Inner {
                file,
                seq,
                closed: seqs.into(),
                active_bytes,
                appended: 0,
                rotation_error: None,
                pending,
                deferred: HashMap::new(),
            }),
            durable: Mutex::new(Durable::default()),
            records_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            fsyncs: AtomicU64::new(dir_syncs),
            segments_compacted: AtomicU64::new(0),
            jobs_replayed: AtomicU64::new(recovery.pending.len() as u64),
            group_commit_batches: AtomicU64::new(0),
            group_commit_records: AtomicU64::new(0),
        };
        journal.compact_locked(&mut lk(&journal.inner))?;
        Ok((journal, recovery))
    }

    /// Records an admission: `{tenant, spec}` under `job_id`, durable
    /// before returning — once this succeeds, a crash cannot lose the
    /// job. `append_accepted` followed by `sync`; concurrent callers
    /// share one fsync.
    pub fn record_accepted(
        &self,
        job_id: u64,
        tenant: &str,
        spec: Json,
    ) -> Result<(), JournalError> {
        let seq = self.append_accepted(job_id, tenant, spec)?;
        self.sync(seq)
    }

    /// Appends an admission record *without* making it durable. Returns
    /// the admission's sequence for a later [`sync`](Journal::sync) —
    /// callers batching several admissions need only sync the highest.
    /// A `done` record that raced ahead of the admission is written
    /// right behind it, preserving per-job stream order.
    pub(crate) fn append_accepted(
        &self,
        job_id: u64,
        tenant: &str,
        spec: Json,
    ) -> Result<u64, JournalError> {
        let payload = Json::obj([("tenant", Json::str(tenant)), ("spec", spec)]);
        let mut inner = lk(&self.inner);
        self.append_locked(&mut inner, RecordKind::Accepted, job_id, &payload)?;
        let segment = inner.seq;
        inner.pending.insert(job_id, segment);
        if let Some(done) = inner.deferred.remove(&job_id) {
            self.done_locked(&mut inner, job_id, done)?;
        }
        inner.appended += 1;
        Ok(inner.appended)
    }

    /// Makes the admission with sequence `seq` (and every earlier one)
    /// durable: returns once a `sync_data` that began after it was
    /// appended has succeeded, or fails once a sync has failed — after
    /// which the journal's durability is poisoned and no uncovered
    /// admission is ever certified, so the daemon stops acknowledging
    /// jobs it could lose.
    pub(crate) fn sync(&self, seq: u64) -> Result<(), JournalError> {
        // Syncs run one at a time, under this lock for their whole
        // `sync_data`: Linux reports a writeback error to only one
        // `fsync` per open file description, and `try_clone` shares the
        // description, so of two overlapping syncs one could see
        // success for pages the other was told were lost.
        let mut durable = lk(&self.durable);
        // Durability first: a record covered by a sync that succeeded
        // (this caller's, or another reactor's that ran while this one
        // waited for the lock) IS on disk, even if a later sync failed,
        // and its admission can still be acknowledged honestly.
        if durable.through >= seq {
            return Ok(());
        }
        if let Some(error) = &durable.error {
            return Err(JournalError::Io(std::io::Error::other(error.clone())));
        }
        // Clone the fd under the append lock (rotation may swap the
        // file) and read the newest sequence with it: every admission
        // up to `target` is in the file before the sync begins. The sync
        // itself runs outside the append lock, so appenders never stall
        // behind it. Records in previously rotated segments were synced
        // by the rotation, so the active file completes the set.
        let (target, cloned) = {
            let inner = lk(&self.inner);
            (inner.appended, inner.file.try_clone())
        };
        let outcome = cloned
            .and_then(|file| file.sync_data())
            .map_err(|e| format!("group-commit sync failed: {e}"));
        let outcome = outcome.and_then(|()| match &lk(&self.inner).rotation_error {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        });
        match outcome {
            Ok(()) => {
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
                self.group_commit_records
                    .fetch_add(target - durable.through, Ordering::Relaxed);
                durable.through = target;
                Ok(())
            }
            Err(error) => {
                // Sticky poison: every later sync of an uncovered
                // admission reports this failure.
                durable.error = Some(error.clone());
                Err(JournalError::Io(std::io::Error::other(error)))
            }
        }
    }

    /// Records `job_id`'s terminal outcome. `checksum` is the delivery
    /// digest in hex when the run was clean. The terminal
    /// state is derived from `ok`; cancellations and deadline reaps use
    /// `record_done_state` so recovery
    /// can tell them apart from genuine failures.
    pub fn record_done(
        &self,
        job_id: u64,
        ok: bool,
        degraded: bool,
        checksum: Option<&str>,
        error: Option<&str>,
    ) -> Result<(), JournalError> {
        let state = if ok { "completed" } else { "failed" };
        self.record_done_state(job_id, ok, degraded, checksum, error, state)
    }

    /// [`record_done`](Journal::record_done) with an explicit terminal
    /// `state` (`"completed"`, `"failed"`, `"cancelled"`, or
    /// `"deadline_exceeded"`). A `cancelled` terminal record is what
    /// stops recovery from re-running a job the user already killed.
    pub(crate) fn record_done_state(
        &self,
        job_id: u64,
        ok: bool,
        degraded: bool,
        checksum: Option<&str>,
        error: Option<&str>,
        state: &str,
    ) -> Result<(), JournalError> {
        let payload = Json::obj([
            ("ok", Json::Bool(ok)),
            ("degraded", Json::Bool(degraded)),
            ("checksum", checksum.map_or(Json::Null, Json::str)),
            ("error", error.map_or(Json::Null, Json::str)),
            ("state", Json::str(state)),
        ]);
        self.done_locked(&mut lk(&self.inner), job_id, payload)
    }

    /// Appends `job_id`'s `done` record, or defers it until the job's
    /// `accepted` record lands.
    fn done_locked(
        &self,
        inner: &mut Inner,
        job_id: u64,
        payload: Json,
    ) -> Result<(), JournalError> {
        if !inner.pending.contains_key(&job_id) {
            inner.deferred.insert(job_id, payload);
            return Ok(());
        }
        self.append_locked(inner, RecordKind::Done, job_id, &payload)?;
        inner.pending.remove(&job_id);
        Ok(())
    }

    /// A snapshot of the write-side counters for the `stats` op.
    pub(crate) fn stats(&self) -> JournalStats {
        JournalStats {
            records_written: self.records_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            segments_compacted: self.segments_compacted.load(Ordering::Relaxed),
            jobs_replayed: self.jobs_replayed.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            group_commit_records: self.group_commit_records.load(Ordering::Relaxed),
        }
    }

    fn append_locked(
        &self,
        inner: &mut Inner,
        kind: RecordKind,
        job_id: u64,
        payload: &Json,
    ) -> Result<(), JournalError> {
        if inner.active_bytes >= self.config.max_segment_bytes {
            self.rotate_locked(inner)?;
        }
        let text = payload.dump();
        let body = if text == "{}" { &[] } else { text.as_bytes() };
        let record = encode_record(kind, job_id, body);
        inner.file.write_all(&record)?;
        inner.active_bytes += record.len() as u64;
        self.records_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Closes the active segment, opens the next, and compacts the
    /// finished prefix. Both the old file and the directory entry of
    /// the new one are durable before any record lands in it; a failed
    /// sync poisons [`sync`](Journal::sync).
    fn rotate_locked(&self, inner: &mut Inner) -> Result<(), JournalError> {
        if let Err(e) = inner.file.sync_data() {
            inner.rotation_error = Some(format!("segment rotation sync failed: {e}"));
            return Err(e.into());
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let next = inner.seq + 1;
        inner.file = create_segment(&self.config.dir, next)?;
        inner.closed.push_back(inner.seq);
        inner.seq = next;
        inner.active_bytes = 0;
        if let Err(e) = sync_dir(&self.config.dir) {
            inner.rotation_error = Some(format!("journal directory sync failed: {e}"));
            return Err(e.into());
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.compact_locked(inner)
    }

    /// Deletes closed segments oldest-first while they lie below the
    /// segment holding the oldest pending admission — the checkpoint
    /// rule of a write-ahead log. Every record below that point belongs
    /// to a finished job, and no `done` below it has its `accepted`
    /// above it.
    fn compact_locked(&self, inner: &mut Inner) -> Result<(), JournalError> {
        let floor = inner.pending.values().min().copied().unwrap_or(inner.seq);
        while let Some(&oldest) = inner.closed.front().filter(|&&seq| seq < floor) {
            fs::remove_file(segment_path(&self.config.dir, oldest))?;
            inner.closed.pop_front();
            self.segments_compacted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "torus-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_spec() -> Json {
        Json::obj([("shape", Json::Arr(vec![Json::u64(4), Json::u64(4)]))])
    }

    #[test]
    fn roundtrip_recovers_pending_and_terminal() {
        let dir = tmp_dir("roundtrip");
        {
            let (journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
            assert!(recovery.pending.is_empty());
            journal.record_accepted(1, "acme", demo_spec()).unwrap();
            journal
                .record_done(1, true, false, Some("00000000deadbeef"), None)
                .unwrap();
            journal.record_accepted(2, "zeta", demo_spec()).unwrap();
            assert_eq!(journal.stats().records_written, 3);
        }
        let (_journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovery.pending.len(), 1, "job 2 was accepted, never done");
        assert_eq!(recovery.pending[0].job_id, 2);
        assert_eq!(recovery.pending[0].tenant, "zeta");
        assert_eq!(recovery.terminal.len(), 1);
        assert_eq!(recovery.terminal[0].job_id, 1);
        assert!(recovery.terminal[0].ok);
        assert_eq!(
            recovery.terminal[0].checksum.as_deref(),
            Some("00000000deadbeef")
        );
        assert_eq!(recovery.max_job_id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_accepted_record_still_replays() {
        // One version-1 `accepted` record (job 42, 161-byte payload)
        // written before the runtime's CRC routine gained its wide
        // kernels: journals on disk must stay readable, and a v1
        // re-encode must not move a bit. The v2 writer is pinned too.
        const GOLDEN: &str = "544a4c31010100002a00000000000000a1000000088041c07b2274656e61\
            6e74223a22676f6c64656e2d74656e616e74222c2273706563223a7b227368617065223a\
            5b382c385d2c22626c6f636b5f6279746573223a313032342c2273656564223a37312c22\
            6f70223a7b226b696e64223a22616c6c726564756365222c22726564756365223a227375\
            6d222c226474797065223a22753634227d2c226a6f62223a7b22646561646c696e655f6d\
            73223a33303030307d7d7d";
        // The same record as the current (v2) writer emits it: version
        // byte 2 and the CRC over the changed header, same payload.
        const GOLDEN_V2_HEADER: &str = "544a4c31010200002a00000000000000a1000000ef506d2e";
        let unhex = |text: &str| -> Vec<u8> {
            (0..text.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
                .collect()
        };
        let golden = unhex(GOLDEN);
        let payload = &golden[RECORD_HEADER_BYTES..];
        assert_eq!(
            encode_record_version(1, RecordKind::Accepted, 42, payload),
            golden
        );
        let mut golden_v2 = unhex(GOLDEN_V2_HEADER);
        golden_v2.extend_from_slice(payload);
        assert_eq!(encode_record(RecordKind::Accepted, 42, payload), golden_v2);
        let dir = tmp_dir("golden");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 1), &golden).unwrap();
        let (_journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovery.records_replayed, 1);
        assert!(!recovery.tail_truncated);
        assert_eq!(recovery.pending.len(), 1);
        let job = &recovery.pending[0];
        assert_eq!((job.job_id, job.tenant.as_str()), (42, "golden-tenant"));
        assert_eq!(
            job.spec.get("seed").and_then(Json::as_u64),
            Some(71),
            "spec survives: {:?}",
            job.spec
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A v1 `done` record recovers its outcome with no checksum (its
    /// FNV-1a digest is unverifiable by any current client); v2 keeps
    /// the digest; any other version is corruption.
    #[test]
    fn v1_done_recovers_without_its_checksum_and_other_versions_are_refused() {
        let dir = tmp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let accepted = br#"{"tenant":"acme","spec":{"shape":[4,4]}}"#;
        let done = br#"{"ok":true,"degraded":false,"checksum":"0123456789abcdef","error":null,"state":"completed"}"#;
        let mut segment = encode_record_version(1, RecordKind::Accepted, 1, accepted);
        segment.extend(encode_record_version(1, RecordKind::Done, 1, done));
        segment.extend(encode_record_version(2, RecordKind::Accepted, 2, accepted));
        segment.extend(encode_record_version(2, RecordKind::Done, 2, done));
        fs::write(segment_path(&dir, 1), &segment).unwrap();
        let (journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(recovery.pending.is_empty());
        let checksums: Vec<_> = recovery
            .terminal
            .iter()
            .map(|d| (d.job_id, d.ok, d.state.as_str(), d.checksum.as_deref()))
            .collect();
        assert_eq!(
            checksums,
            [
                (1, true, "completed", None),
                (2, true, "completed", Some("0123456789abcdef"))
            ]
        );
        // New records are written as v2.
        journal.record_accepted(3, "acme", demo_spec()).unwrap();
        drop(journal);
        let data = fs::read(segment_path(&dir, 1)).unwrap();
        assert_eq!(data[segment.len() + 5], VERSION);
        assert_eq!(VERSION, 2);

        for version in [0, 3] {
            fs::write(
                segment_path(&dir, 1),
                encode_record_version(version, RecordKind::Accepted, 1, accepted),
            )
            .unwrap();
            match Journal::open(JournalConfig::new(&dir)) {
                Err(JournalError::Corrupt { detail, .. }) => {
                    assert_eq!(detail, format!("unsupported record version {version}"))
                }
                other => panic!("version {version}: expected Corrupt, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The journal's in-memory index tracks only unfinished jobs: after
    /// 10 000 accepted + done pairs nothing is pending or deferred, and
    /// no closed segment is left.
    #[test]
    fn finished_jobs_leave_no_ids_in_memory() {
        let dir = tmp_dir("ids");
        let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let mut last = 0;
        for id in 1..=10_000 {
            last = journal.append_accepted(id, "acme", demo_spec()).unwrap();
            journal
                .record_done(id, true, false, Some("00ff00ff00ff00ff"), None)
                .unwrap();
        }
        journal.sync(last).unwrap();
        let inner = lk(&journal.inner);
        assert!(inner.pending.is_empty(), "{} pending", inner.pending.len());
        assert!(
            inner.deferred.is_empty(),
            "{} deferred",
            inner.deferred.len()
        );
        assert!(inner.seq > 1, "the run rotated");
        assert!(
            inner.closed.is_empty(),
            "every closed segment was compacted"
        );
        drop(inner);
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The poison rules of [`Journal::sync`]: once a sync has failed,
    /// an admission an earlier sync covered is still durable, but no
    /// newer one is ever certified, and no further `sync_data` runs.
    #[test]
    fn a_failed_sync_poisons_every_later_sync_but_not_what_was_durable() {
        let dir = tmp_dir("poison");
        let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let covered = journal.append_accepted(1, "acme", demo_spec()).unwrap();
        journal.sync(covered).unwrap();
        let fsyncs = journal.stats().fsyncs;
        let newer = journal.append_accepted(2, "acme", demo_spec()).unwrap();
        lk(&journal.durable).error = Some("injected sync failure".to_string());

        journal.sync(covered).expect("covered before the failure");
        let err = journal.sync(newer).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let later = journal.append_accepted(3, "acme", demo_spec()).unwrap();
        for seq in [later, newer, later] {
            assert!(journal.sync(seq).is_err(), "sequence {seq} certified");
        }
        journal.sync(covered).expect("still covered");
        assert_eq!(
            journal.stats().fsyncs,
            fsyncs,
            "a poisoned journal syncs no more"
        );
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed rotation sync may have consumed the writeback error a
    /// concurrent sync needed to see, so it poisons the next sync too.
    #[test]
    fn a_failed_rotation_sync_poisons_the_next_sync() {
        let dir = tmp_dir("rotation-poison");
        let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        let seq = journal.append_accepted(1, "acme", demo_spec()).unwrap();
        lk(&journal.inner).rotation_error = Some("injected rotation failure".to_string());
        let err = journal.sync(seq).unwrap_err();
        assert!(err.to_string().contains("injected rotation"), "{err}");
        lk(&journal.inner).rotation_error = None;
        assert!(journal.sync(seq).is_err(), "the poison is sticky");
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_done_is_buffered_until_acceptance() {
        let dir = tmp_dir("reorder");
        {
            let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            // The driver's hook can beat the submit path to the journal.
            journal
                .record_done(7, true, false, Some("aa"), None)
                .unwrap();
            journal.record_accepted(7, "acme", demo_spec()).unwrap();
        }
        let (_journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(recovery.pending.is_empty(), "done job must not re-run");
        assert_eq!(recovery.terminal.len(), 1);
        assert_eq!(recovery.terminal[0].job_id, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        {
            let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            journal.record_accepted(1, "acme", demo_spec()).unwrap();
        }
        // Simulate a crash mid-append: a partial header at the tail.
        let seg = segment_path(&dir, 1);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&MAGIC.to_le_bytes()).unwrap();
        f.write_all(&[1, 1, 0]).unwrap();
        drop(f);
        let before = fs::metadata(&seg).unwrap().len();
        let (journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(recovery.tail_truncated);
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(fs::metadata(&seg).unwrap().len(), before - 7);
        // The journal keeps working after the truncation.
        journal
            .record_done(1, true, false, Some("bb"), None)
            .unwrap();
        drop(journal);
        let (_j, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(recovery.pending.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_names_segment_and_offset() {
        let dir = tmp_dir("corrupt");
        {
            let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            journal.record_accepted(1, "acme", demo_spec()).unwrap();
            journal.record_accepted(2, "acme", demo_spec()).unwrap();
        }
        // Flip a payload byte inside the FIRST record: CRC must catch it.
        let seg = segment_path(&dir, 1);
        let mut data = fs::read(&seg).unwrap();
        data[RECORD_HEADER_BYTES + 2] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        match Journal::open(JournalConfig::new(&dir)) {
            Err(JournalError::Corrupt {
                segment,
                offset,
                detail,
            }) => {
                assert_eq!(segment, "journal-00000001.tjl");
                assert_eq!(offset, 0);
                assert!(detail.contains("crc"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_fully_terminal_segments() {
        let dir = tmp_dir("compact");
        let config = JournalConfig::new(&dir).with_max_segment_bytes(4096);
        let (journal, _) = Journal::open(config.clone()).unwrap();
        // Enough terminal jobs to cross several 4 KiB segments.
        for id in 1..=60 {
            journal.record_accepted(id, "acme", demo_spec()).unwrap();
            journal
                .record_done(id, true, false, Some("00ff00ff00ff00ff"), None)
                .unwrap();
        }
        assert!(
            journal.stats().segments_compacted > 0,
            "60 terminal jobs across 4 KiB segments must compact something"
        );
        drop(journal);
        let (_j, recovery) = Journal::open(config).unwrap();
        assert!(recovery.pending.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_terminal_state_survives_recovery() {
        let dir = tmp_dir("cancelstate");
        {
            let (journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
            journal.record_accepted(1, "acme", demo_spec()).unwrap();
            journal
                .record_done_state(1, false, false, None, Some("run cancelled"), "cancelled")
                .unwrap();
            journal.record_accepted(2, "acme", demo_spec()).unwrap();
            journal
                .record_done_state(
                    2,
                    false,
                    false,
                    None,
                    Some("deadline exceeded"),
                    "deadline_exceeded",
                )
                .unwrap();
            // A plain record_done still derives its state from `ok`.
            journal.record_accepted(3, "acme", demo_spec()).unwrap();
            journal
                .record_done(3, true, false, Some("00ff00ff00ff00ff"), None)
                .unwrap();
        }
        let (_j, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert!(
            recovery.pending.is_empty(),
            "cancelled jobs must never re-run"
        );
        assert_eq!(recovery.terminal.len(), 3);
        assert_eq!(recovery.terminal[0].state, "cancelled");
        assert!(!recovery.terminal[0].ok);
        assert_eq!(recovery.terminal[1].state, "deadline_exceeded");
        assert_eq!(recovery.terminal[2].state, "completed");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `done` that lands in a later segment than a still-pending
    /// admission outlives compaction: finished jobs never come back as
    /// pending, however the segments around them are deleted.
    #[test]
    fn a_done_behind_a_pending_admission_is_never_compacted() {
        let dir = tmp_dir("prefix");
        let config = JournalConfig::new(&dir).with_max_segment_bytes(4096);
        let (journal, _) = Journal::open(config.clone()).unwrap();
        for id in 1..=100 {
            journal.record_accepted(id, "acme", demo_spec()).unwrap();
        }
        assert!(
            lk(&journal.inner).seq > 1,
            "jobs 1 and 2 open across a rotation"
        );
        journal.record_done(1, true, false, None, None).unwrap();
        for id in 3..=300 {
            if id > 100 {
                journal.record_accepted(id, "acme", demo_spec()).unwrap();
            }
            journal.record_done(id, true, false, None, None).unwrap();
        }
        assert!(
            lk(&journal.inner).seq > 3,
            "job 1's done lies in a closed segment past segment 1"
        );
        assert_eq!(
            journal.stats().segments_compacted,
            0,
            "job 2 holds segment 1"
        );
        drop(journal);
        let (_j, recovery) = Journal::open(config).unwrap();
        let pending: Vec<u64> = recovery.pending.iter().map(|j| j.job_id).collect();
        assert_eq!(pending, [2]);
        assert_eq!(recovery.terminal.len(), 299);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Journals from builds that wrote `started` (kind 2) and `rejected`
    /// (kind 4) records replay to the same [`Recovery`] as one without.
    #[test]
    fn older_started_and_rejected_records_replay_to_the_same_recovery() {
        let accepted = br#"{"tenant":"acme","spec":{"shape":[4,4]}}"#;
        let done = br#"{"ok":true,"degraded":false,"checksum":"0123456789abcdef","error":null,"state":"completed"}"#;
        let rejected = br#"{"tenant":"acme","reason":"queue_full"}"#;
        let replay = |tag: &str, records: &[(RecordKind, u64, &[u8])]| {
            let dir = tmp_dir(tag);
            fs::create_dir_all(&dir).unwrap();
            let segment: Vec<u8> = records
                .iter()
                .flat_map(|&(kind, id, payload)| encode_record(kind, id, payload))
                .collect();
            fs::write(segment_path(&dir, 1), segment).unwrap();
            let (_journal, recovery) = Journal::open(JournalConfig::new(&dir)).unwrap();
            let _ = fs::remove_dir_all(&dir);
            recovery
        };
        let old = replay(
            "kinds-old",
            &[
                (RecordKind::Accepted, 1, accepted),
                (RecordKind::Started, 1, b""),
                (RecordKind::Done, 1, done),
                (RecordKind::Rejected, 0, rejected),
                (RecordKind::Accepted, 2, accepted),
                (RecordKind::Started, 2, b""),
            ],
        );
        let new = replay(
            "kinds-new",
            &[
                (RecordKind::Accepted, 1, accepted),
                (RecordKind::Done, 1, done),
                (RecordKind::Accepted, 2, accepted),
            ],
        );
        assert_eq!((old.records_replayed, new.records_replayed), (6, 3));
        let summary = |r: &Recovery| {
            format!(
                "{:?} {:?} {} {}",
                r.pending, r.terminal, r.max_job_id, r.tail_truncated
            )
        };
        assert_eq!(summary(&old), summary(&new));
        assert_eq!(new.pending.len(), 1);
        assert_eq!(new.terminal.len(), 1);
    }

    /// Creating a segment syncs its directory, and the parent directory
    /// when `open` created the journal's: each counts as an fsync.
    #[test]
    fn segment_creation_syncs_the_directory() {
        let dir = tmp_dir("dirsync");
        let config = JournalConfig::new(&dir).with_max_segment_bytes(4096);
        let (journal, _) = Journal::open(config.clone()).unwrap();
        assert_eq!(journal.stats().fsyncs, 2, "parent and journal directory");
        for id in 1.. {
            if lk(&journal.inner).seq > 1 {
                break;
            }
            journal.append_accepted(id, "acme", demo_spec()).unwrap();
        }
        assert_eq!(
            journal.stats().fsyncs,
            4,
            "a rotation syncs the old segment and the directory"
        );
        drop(journal);
        let (journal, _) = Journal::open(config).unwrap();
        assert_eq!(journal.stats().fsyncs, 0, "reopening creates no segment");
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }
}
