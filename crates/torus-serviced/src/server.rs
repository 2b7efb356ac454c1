//! The daemon: one poll reactor (the private `reactor` module) serving
//! the listening socket and every connection. No async runtime — the
//! concurrency story is the same hand-rolled threads-and-locks the rest
//! of the workspace uses.
//!
//! ## Threading model
//!
//! * **One reactor thread**, the thread calling [`Daemon::run`]: it
//!   polls the listener alongside every connection's socket and, when
//!   the listener is readable, accepts until `WouldBlock`. It drives all
//!   reads, request handling, job-status streaming and writes over
//!   non-blocking sockets and `poll(2)`. Connection count and in-flight
//!   job count add *no* threads, nor does the journal's group commit,
//!   which runs on the reactor: total daemon threads are the reactor,
//!   the engine drivers and the worker pool.
//! * **Transient drain helper**: the first drain trigger (`drain`
//!   request or SIGTERM) spawns one short-lived helper thread that waits
//!   out the engine drain, publishes the final stats and wakes the
//!   reactor, so the reactor keeps serving meanwhile. Repeated drains
//!   share that helper — they park for the published verdict rather than
//!   each adding a thread, keeping thread count a function of
//!   configuration, never of client behavior.
//!
//! ## Core and shell
//!
//! The reactor is split in two. Its core (the private `core` module)
//! makes every decision — parsing, admission, reply order, the
//! durability barrier, job streaming, drain, idle reaping, when to exit
//! and how long to poll — from the instant and the input it is handed:
//! accepted, read, EOF, written and closed per connection; durable(seq,
//! result) for the tick's journal sync; the drain verdict; SIGTERM; and
//! the tick itself. It reads no clock, owns no fd, and reaches the
//! engine, journal and registry only through one trait that
//! `DaemonShared` implements. The shell (`reactor`) owns the listener,
//! the sockets, `poll`, the waker and the drain helper, reads the clock
//! once per iteration and runs the journal sync inline. So every
//! interleaving of inputs replays from a seed: the core's proptest
//! checks, with no socket and no sleep, that replies leave in request
//! order, that no `accepted` leaves before a sync covers it, that a
//! drain completes with exactly one `done` per owed job and the daemon
//! exits as soon as nothing is owed, and that the admission bound holds.
//! `DaemonShared` keeps only what crosses threads.
//!
//! ## Durability
//!
//! With a journal configured, no client hears `accepted` before its
//! admission record is fsync'd. Admissions arriving close together
//! share one group-commit fsync (see [`crate::journal`] and the
//! batching notes in the `core` module); if the journal cannot make an
//! admission durable the job is cancelled and the client receives a
//! typed `journal_unavailable` rejection instead of an acknowledgment
//! the daemon could not honor.
//!
//! ## Drain
//!
//! A `drain` request (or SIGTERM, via [`crate::signal`]) stops
//! admission and lets every admitted job finish: the engine's own
//! shutdown drains the queue, the reactor delivers each job's `done`,
//! the drain caller gets the final aggregate stats, and [`Daemon::run`]
//! returns them. The reactor keeps accepting connections until the
//! engine has drained, so a client that connects mid-drain is answered
//! rather than reset: its submissions are rejected with reason
//! `"draining"`, its `drain` gets the final stats. Concurrent drains are
//! safe — the engine's shutdown snapshot is taken exactly once.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use torus_service::{
    Engine, EngineConfig, JobEvent, JobHandle, JobResult, JobStatus, ServiceStats,
};

use crate::checksum;
use crate::core::Core;
use crate::journal::{Journal, JournalConfig};
use crate::json::Json;
use crate::proto;
use crate::reactor::{self, Waker};
use crate::signal;
use crate::spec::JobSpec;

/// Daemon sizing and behavior knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Daemon::local_addr`]). Default `127.0.0.1:0`.
    pub addr: String,
    /// The engine the daemon fronts.
    pub engine: EngineConfig,
    /// How often the reactor polls tracked job status. A connection's
    /// only job, still running at a later reactor iteration than the one
    /// that admitted it, does not wait for this: it wakes the reactor
    /// when it finishes.
    pub status_poll: Duration,
    /// Resend the current status every this many polls, so a client
    /// watching a long-queued job sees liveness, not silence.
    pub heartbeat_polls: u32,
    /// Ignored: the daemon runs one reactor, the thread that calls
    /// [`Daemon::run`]. Kept until the benchmark stops setting it
    /// (ROADMAP 1(e)).
    pub reactor_threads: usize,
    /// Write-ahead admission journal. `Some` makes every admission
    /// durable (fsync'd before the client hears `accepted`) and lets
    /// [`Daemon::bind`] recover accepted-but-unfinished jobs from a
    /// previous process's journal directory. Default: none.
    pub journal: Option<JournalConfig>,
    /// Close connections with no live jobs, no pending replies, and no
    /// traffic for this long, so slow-loris clients cannot pin poll
    /// slots forever. Default: none (connections idle indefinitely).
    pub idle_timeout: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            status_poll: Duration::from_millis(2),
            heartbeat_polls: 250,
            reactor_threads: 1,
            journal: None,
            idle_timeout: None,
        }
    }
}

/// Terminal entries the registry keeps. A long-lived daemon under
/// millions of jobs holds at most this many terminal records; the
/// oldest are evicted (their `status` answers become `"unknown"`),
/// bounding memory where the registry previously grew forever.
const TERMINAL_CAP: usize = 65_536;

/// A terminal job's recorded outcome — everything `status` needs
/// without keeping the full result (deliveries included) alive. One of
/// these is held per finished job up to the registry cap, so it is kept
/// small and a clean completion owns no heap memory: the state is the
/// status itself ([`status_label`] renders it), the checksum stays a
/// number until it is rendered, and the tenant is the live entry's
/// shared handle (kept beside it in the index).
#[derive(Clone)]
pub(crate) struct Terminal {
    pub(crate) ok: bool,
    pub(crate) degraded: bool,
    /// `true` when the outcome was reconstructed from the journal
    /// rather than executed by this process.
    pub(crate) recovered: bool,
    /// `Completed`, `Failed`, `Cancelled` or `DeadlineExceeded`.
    pub(crate) status: JobStatus,
    /// The delivery digest ([`torus_runtime::digest`]); hex only on the
    /// wire.
    pub(crate) checksum: Option<u64>,
    pub(crate) error: Option<Box<str>>,
}

/// A live registry entry: the engine handle plus the owning tenant, so
/// the `cancel` op can be scoped without a second lookup table.
struct LiveEntry {
    handle: JobHandle,
    tenant: Arc<str>,
}

struct Tables {
    /// Jobs admitted or replayed by this process, not yet terminal.
    live: HashMap<u64, LiveEntry>,
    /// Terminal outcomes with their owning tenant, bounded by
    /// [`TERMINAL_CAP`]. The tenant is `None` when
    /// reconstructed from a journal replay (pre-crash `done` records do
    /// not carry it).
    terminal: HashMap<u64, (Terminal, Option<Arc<str>>)>,
    /// Insertion order of `terminal`, for eviction.
    order: VecDeque<u64>,
}

/// What a `status` lookup found, cloned out of the registry so no
/// registry lock is held while the caller inspects (or waits on) it.
enum Lookup {
    Unknown,
    Live(JobHandle),
    Terminal(Terminal),
}

/// What a tenant-scoped `cancel` lookup found.
pub(crate) enum CancelLookup {
    /// No job with this id (or its terminal record was evicted).
    Unknown,
    /// The job exists but belongs to a different tenant.
    Forbidden,
    /// The job is live (queued or running) and owned by the caller.
    Live(JobHandle),
    /// The job is already terminal; carries its state label. A replayed
    /// terminal with no recorded tenant is reported here rather than
    /// guessed at — cancelling a finished job is a no-op either way.
    Terminal(&'static str),
}

/// The job registry: every id the daemon can answer `status` for. Live
/// entries move to the bounded terminal index when the engine's event
/// hook reports them finished.
pub(crate) struct Registry {
    tables: Mutex<Tables>,
}

impl Registry {
    fn new() -> Self {
        Self {
            tables: Mutex::new(Tables {
                live: HashMap::new(),
                terminal: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Registers a job the engine just admitted. A fast job can finish
    /// (and its hook fire) before this runs; the terminal entry then
    /// wins and the stale handle is not inserted.
    pub(crate) fn register_live(&self, handle: JobHandle, tenant: &str) {
        let mut tables = lk(&self.tables);
        if tables.terminal.contains_key(&handle.id()) {
            return;
        }
        tables.live.insert(
            handle.id(),
            LiveEntry {
                handle,
                tenant: Arc::from(tenant),
            },
        );
    }

    /// Moves a job to the terminal index (evicting the oldest terminal
    /// entry past the cap) and drops its live handle. The index reuses
    /// the live entry's tenant handle; `tenant` is copied only for a job
    /// with no live entry (it finished before
    /// [`register_live`](Self::register_live) ran, or never ran at all).
    pub(crate) fn finish(&self, job_id: u64, tenant: Option<&str>, term: Terminal) {
        let mut tables = lk(&self.tables);
        let tenant = match tables.live.remove(&job_id) {
            Some(entry) => Some(entry.tenant),
            None => tenant.map(Arc::from),
        };
        if tables.terminal.insert(job_id, (term, tenant)).is_none() {
            tables.order.push_back(job_id);
            if tables.order.len() > TERMINAL_CAP {
                if let Some(evicted) = tables.order.pop_front() {
                    tables.terminal.remove(&evicted);
                }
            }
        }
    }

    fn lookup(&self, job_id: u64) -> Lookup {
        let tables = lk(&self.tables);
        if let Some(entry) = tables.live.get(&job_id) {
            return Lookup::Live(entry.handle.clone());
        }
        match tables.terminal.get(&job_id) {
            Some((term, _)) => Lookup::Terminal(term.clone()),
            None => Lookup::Unknown,
        }
    }

    /// Tenant-scoped lookup for the `cancel` op: only the owning tenant
    /// may cancel a live job. Terminal replays with no recorded tenant
    /// answer as terminal (the op is a no-op there regardless).
    pub(crate) fn cancel_lookup(&self, job_id: u64, tenant: &str) -> CancelLookup {
        let tables = lk(&self.tables);
        if let Some(entry) = tables.live.get(&job_id) {
            return if entry.tenant.as_ref() == tenant {
                CancelLookup::Live(entry.handle.clone())
            } else {
                CancelLookup::Forbidden
            };
        }
        match tables.terminal.get(&job_id) {
            Some((term, owner)) => match owner {
                Some(owner) if owner.as_ref() != tenant => CancelLookup::Forbidden,
                _ => CancelLookup::Terminal(status_label(term.status)),
            },
            None => CancelLookup::Unknown,
        }
    }

    /// `(live, terminal)` entry counts, for `stats`.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let tables = lk(&self.tables);
        (tables.live.len(), tables.terminal.len())
    }
}

/// What the reactor shares with other threads: the engine (and its
/// drivers' event hook), the journal, the registry, the drain helper's
/// verdict and the waker. State only the reactor touches is its
/// [`Core`]'s.
pub(crate) struct DaemonShared {
    pub(crate) engine: Engine,
    /// The write-ahead admission journal, when configured.
    pub(crate) journal: Option<Arc<Journal>>,
    /// Every job id this daemon can answer `status` for.
    pub(crate) registry: Arc<Registry>,
    /// The final `drained` event, published once by the drain helper
    /// and taken by the reactor for its core, which answers every drain
    /// request from it.
    pub(crate) drained_event: Mutex<Option<Json>>,
    /// The reactor's waker, rung by the drain helper when the verdict
    /// lands and by a connection's lone long job when it finishes.
    pub(crate) waker: Arc<Waker>,
}

fn lk<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<DaemonShared>,
    core: Core<Arc<DaemonShared>>,
}

impl Daemon {
    /// Binds the listener and starts the engine (drivers spawn now;
    /// they idle until jobs arrive).
    ///
    /// With a journal configured this also replays the journal
    /// directory: jobs `accepted` but never `done` by a previous
    /// process are re-enqueued under their original ids (exactly once —
    /// a recorded `done` suppresses the re-run), and terminal pre-crash
    /// ids become answerable via the `status` op. A recovered job that
    /// cannot be re-enqueued (unparseable spec, or the engine refuses
    /// the resubmission) is closed out with a `done{ok:false}` record
    /// rather than silently dropped, so it never vanishes without a
    /// terminal answer. A corrupt journal fails the bind with
    /// [`ErrorKind::InvalidData`] rather than silently dropping
    /// records.
    pub fn bind(config: DaemonConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        reactor::widen_backlog(&listener)?;
        let waker = Arc::new(Waker::new()?);
        let registry = Arc::new(Registry::new());
        let mut engine_config = config.engine.clone();
        let opened = match config.journal.clone() {
            Some(journal_config) => {
                let (journal, recovery) = Journal::open(journal_config)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                Some((Arc::new(journal), recovery))
            }
            None => None,
        };
        // The hook runs on driver threads at every job finish: the
        // journal's `done` record first (when journaling), then the
        // registry's live→terminal transition, so `status` stops holding
        // full job results for the daemon's lifetime.
        let hook_journal = opened.as_ref().map(|(journal, _)| Arc::clone(journal));
        let hook_registry = Arc::clone(&registry);
        engine_config = engine_config.with_event_hook(Arc::new(move |event| {
            if let Some(journal) = &hook_journal {
                journal_hook(journal, &event);
            }
            registry_hook(&hook_registry, &event);
        }));
        let engine = Engine::new(engine_config);
        let journal = opened.map(|(journal, recovery)| {
            engine.reserve_ids_through(recovery.max_job_id);
            for done in recovery.terminal {
                registry.finish(
                    done.job_id,
                    None,
                    Terminal {
                        ok: done.ok,
                        degraded: done.degraded,
                        checksum: done
                            .checksum
                            .and_then(|hex| u64::from_str_radix(&hex, 16).ok()),
                        error: done.error.map(String::into_boxed_str),
                        status: recorded_status(&done.state, done.ok),
                        recovered: true,
                    },
                );
            }
            for job in recovery.pending {
                let resubmitted = JobSpec::from_json(&job.spec)
                    .map_err(|e| format!("recovered spec invalid: {e}"))
                    .and_then(|spec| {
                        engine
                            .resubmit_op_as(
                                &job.tenant,
                                job.job_id,
                                spec.torus_shape(),
                                spec.op,
                                spec.payload,
                                spec.runtime_config(),
                                spec.deadline,
                            )
                            .map_err(|e| format!("recovery resubmit failed: {e}"))
                    });
                match resubmitted {
                    Ok(handle) => registry.register_live(handle, &job.tenant),
                    Err(error) => {
                        // A journaled-accepted job must never vanish:
                        // close it out with a terminal record (so it
                        // stops replaying forever) and answer `status`
                        // with the failure.
                        let _ = journal.record_done(job.job_id, false, false, None, Some(&error));
                        registry.finish(
                            job.job_id,
                            Some(&job.tenant),
                            Terminal {
                                ok: false,
                                degraded: false,
                                checksum: None,
                                error: Some(error.into_boxed_str()),
                                status: JobStatus::Failed,
                                recovered: true,
                            },
                        );
                    }
                }
            }
            journal
        });
        let shared = Arc::new(DaemonShared {
            engine,
            journal,
            registry,
            drained_event: Mutex::new(None),
            waker,
        });
        let core = Core::new(Arc::clone(&shared), &config);
        Ok(Self {
            listener,
            shared,
            core,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained (by a `drain` request or SIGTERM), then
    /// returns the final aggregate stats. Installs the SIGTERM flag
    /// handler and runs the reactor on the calling thread. A reactor
    /// panic drops every connection; this still returns the drained
    /// stats.
    pub fn run(self) -> ServiceStats {
        let Self {
            listener,
            shared,
            core,
        } = self;
        signal::install();
        // Non-blocking, so the reactor's accept loop ends at
        // `WouldBlock` instead of blocking in accept.
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            reactor::reactor_loop(core, &shared, &listener)
        }));
        // The reactor exits once the drain helper has shut the engine
        // down and published its verdict, so this returns its frozen
        // snapshot (or, if the reactor stopped early, drains the engine
        // here).
        shared.engine.shutdown()
    }

    /// Convenience for tests and embedders: run on a background thread,
    /// returning the bound address and the join handle for the final
    /// stats.
    pub fn spawn(config: DaemonConfig) -> io::Result<(SocketAddr, JoinHandle<ServiceStats>)> {
        let daemon = Self::bind(config)?;
        let addr = daemon.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("serviced-reactor".to_string())
            .spawn(move || daemon.run())
            .expect("spawn daemon thread");
        Ok((addr, handle))
    }
}

/// The wire label for a [`JobStatus`].
pub(crate) fn status_label(status: JobStatus) -> &'static str {
    match status {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Completed => "completed",
        JobStatus::Failed => "failed",
        JobStatus::Cancelled => "cancelled",
        JobStatus::DeadlineExceeded => "deadline_exceeded",
    }
}

/// The terminal status behind a state label read back from the journal.
/// The journal only ever records the four terminal labels; anything
/// else falls back to what `ok` says, as pre-`state` records do.
fn recorded_status(state: &str, ok: bool) -> JobStatus {
    [
        JobStatus::Completed,
        JobStatus::Failed,
        JobStatus::Cancelled,
        JobStatus::DeadlineExceeded,
    ]
    .into_iter()
    .find(|status| status_label(*status) == state)
    .unwrap_or(if ok {
        JobStatus::Completed
    } else {
        JobStatus::Failed
    })
}

/// Extracts a terminal result's `(ok, degraded, checksum)` the way the
/// wire protocol reports it. The checksum is the delivery digest the
/// engine computed once when the job finished ([`JobResult::digest`]):
/// present only for clean completions (degraded runs drop dead-node
/// blocks, so their digest intentionally stays absent rather than
/// faking a match). No reader here hashes payload bytes.
fn terminal_fields(result: &JobResult) -> (bool, bool, Option<u64>) {
    let degraded = result.report.as_ref().is_some_and(|r| r.degraded.is_some());
    (result.error.is_none(), degraded, result.digest)
}

/// The engine's event hook on a journaling daemon: every terminal
/// outcome (with its delivery digest) goes to disk, from the driver
/// thread that owns the transition.
fn journal_hook(journal: &Journal, event: &JobEvent<'_>) {
    if let JobEvent::Finished {
        job_id,
        status,
        result,
        ..
    } = event
    {
        let (_, degraded, checksum) = terminal_fields(result);
        let _ = journal.record_done_state(
            *job_id,
            *status == JobStatus::Completed,
            degraded,
            checksum.map(checksum::to_hex).as_deref(),
            result.error.as_deref(),
            status_label(*status),
        );
    }
}

/// The registry half of the event hook: finished jobs move from the
/// live map to the bounded terminal index, dropping the handle (and the
/// full result it pins) so the registry's memory stays bounded.
fn registry_hook(registry: &Registry, event: &JobEvent<'_>) {
    if let JobEvent::Finished {
        job_id,
        tenant,
        status,
        result,
    } = event
    {
        let (ok, degraded, checksum) = terminal_fields(result);
        registry.finish(
            *job_id,
            Some(tenant),
            Terminal {
                ok,
                degraded,
                checksum,
                error: result.error.as_deref().map(Box::from),
                status: *status,
                recovered: false,
            },
        );
    }
}

/// Answers a `status` lookup from the registry: live jobs through their
/// handle, terminal jobs (including pre-crash recoveries) from the
/// bounded terminal index. The handle is cloned out of the registry
/// before any blocking inspection, so a slow terminal transition never
/// stalls other connections' lookups.
pub(crate) fn status_reply(shared: &DaemonShared, job_id: u64) -> Json {
    match shared.registry.lookup(job_id) {
        Lookup::Unknown => proto::job_status(job_id, "unknown", None, None, None, None, false),
        Lookup::Terminal(term) => proto::job_status(
            job_id,
            status_label(term.status),
            Some(term.ok),
            Some(term.degraded),
            term.checksum.map(checksum::to_hex).as_deref(),
            term.error.as_deref(),
            term.recovered,
        ),
        Lookup::Live(handle) => match handle.try_status() {
            JobStatus::Queued => proto::job_status(job_id, "queued", None, None, None, None, false),
            JobStatus::Running => {
                proto::job_status(job_id, "running", None, None, None, None, false)
            }
            status => {
                // Terminal, so `wait` returns without blocking; no
                // registry lock is held here.
                let result = handle.wait();
                let (ok, degraded, checksum) = terminal_fields(&result);
                proto::job_status(
                    job_id,
                    status_label(status),
                    Some(ok),
                    Some(degraded),
                    checksum.map(checksum::to_hex).as_deref(),
                    result.error.as_deref(),
                    false,
                )
            }
        },
    }
}

/// The `done` event: a compact job summary plus the delivery checksum
/// (clean completions only). `status` is the job's terminal status,
/// surfaced as the typed `state` field so clients can tell a cancel or
/// deadline reap apart from a genuine failure.
pub(crate) fn done_event(status: JobStatus, result: &JobResult) -> Json {
    let report = result.report.as_ref();
    let (ok, degraded, checksum) = terminal_fields(result);
    Json::obj([
        ("ev", Json::str("done")),
        ("job_id", Json::u64(result.job_id)),
        ("ok", Json::Bool(ok)),
        ("state", Json::str(status_label(status))),
        ("degraded", Json::Bool(degraded)),
        ("verified", Json::Bool(report.is_some_and(|r| r.verified))),
        ("cache_hit", Json::Bool(result.cache_hit)),
        ("wire_bytes", Json::u64(report.map_or(0, |r| r.wire_bytes))),
        (
            "checksum",
            checksum.map_or(Json::Null, |c| Json::str(checksum::to_hex(c))),
        ),
        (
            "error",
            match &result.error {
                Some(e) => Json::str(e.clone()),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(error: Option<&str>) -> Terminal {
        Terminal {
            ok: error.is_none(),
            degraded: false,
            checksum: None,
            error: error.map(Box::from),
            status: if error.is_none() {
                JobStatus::Completed
            } else {
                JobStatus::Failed
            },
            recovered: false,
        }
    }

    const OWNER: Option<&str> = Some("acme");

    /// The terminal index is bounded: past the cap the oldest outcome
    /// overall is evicted (its `status` becomes `"unknown"`), so a
    /// long-lived daemon's registry cannot grow without bound.
    #[test]
    fn terminal_index_evicts_oldest_past_the_cap() {
        let registry = Registry::new();
        const OVERFLOW: usize = 8;
        let ids: Vec<u64> = (1..=(TERMINAL_CAP + OVERFLOW) as u64).collect();
        for &id in &ids {
            registry.finish(id, OWNER, term(None));
        }
        let (live, terminal) = registry.counts();
        assert_eq!(live, 0);
        assert_eq!(terminal, TERMINAL_CAP, "cap must hold");
        for &id in &ids[..OVERFLOW] {
            assert!(
                matches!(registry.lookup(id), Lookup::Unknown),
                "oldest entries must have been evicted"
            );
        }
        for &id in &ids[OVERFLOW..] {
            assert!(
                matches!(registry.lookup(id), Lookup::Terminal(_)),
                "newest entries must survive"
            );
        }
    }

    /// `cancel` must be tenant-scoped: another tenant's terminal job
    /// answers `forbidden`, an evicted/unknown id answers `unknown`.
    #[test]
    fn cancel_lookup_is_tenant_scoped() {
        let registry = Registry::new();
        registry.finish(1, OWNER, term(None));
        assert!(matches!(
            registry.cancel_lookup(1, "acme"),
            CancelLookup::Terminal(state) if state == "completed"
        ));
        assert!(matches!(
            registry.cancel_lookup(1, "zeta"),
            CancelLookup::Forbidden
        ));
        assert!(matches!(
            registry.cancel_lookup(99, "acme"),
            CancelLookup::Unknown
        ));
    }

    /// Re-finishing an id (journal replay rediscovering a done record)
    /// must not double-count it in the eviction order.
    #[test]
    fn refinishing_a_job_does_not_duplicate_eviction_order() {
        let registry = Registry::new();
        registry.finish(3, OWNER, term(None));
        registry.finish(3, OWNER, term(Some("second verdict")));
        let (_, terminal) = registry.counts();
        assert_eq!(terminal, 1);
        match registry.lookup(3) {
            Lookup::Terminal(term) => {
                assert!(!term.ok, "latest verdict wins");
                assert_eq!(term.error.as_deref(), Some("second verdict"));
            }
            _ => panic!("job 3 must be terminal"),
        }
    }

    /// The finish path copies no tenant string: the terminal index takes
    /// over the handle the live entry already held.
    #[test]
    fn finish_reuses_the_live_entrys_tenant_handle() {
        let engine = Engine::new(EngineConfig::default());
        let handle = engine
            .submit_as(
                "acme",
                torus_topology::TorusShape::new(&[2, 2]).unwrap(),
                torus_service::PayloadSpec::Pattern,
                torus_runtime::RuntimeConfig::default(),
            )
            .unwrap();
        let id = handle.id();
        let registry = Registry::new();
        registry.register_live(handle, "acme");
        let live = Arc::clone(&lk(&registry.tables).live[&id].tenant);
        registry.finish(id, Some("acme"), term(None));
        let tables = lk(&registry.tables);
        let (_, owner) = &tables.terminal[&id];
        assert!(Arc::ptr_eq(owner.as_ref().unwrap(), &live));
        assert!(tables.live.is_empty());
    }

    /// One entry per finished job up to `TERMINAL_CAP`: keep it within a
    /// cache line.
    #[test]
    fn terminal_entries_stay_small() {
        assert!(std::mem::size_of::<(u64, (Terminal, Option<Arc<str>>))>() <= 64);
    }
}
