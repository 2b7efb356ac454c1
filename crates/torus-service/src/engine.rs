//! The engine: tenant-aware admission, driver threads, and the shared
//! pool.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alltoall_core::PreparedExchange;
use torus_runtime::{
    CancelToken, CollectivePlan, CollectiveRuntime, FailureReason, JobOp, PayloadSpec, Runtime,
    RuntimeConfig, RuntimeError, WorkerPool,
};
use torus_topology::TorusShape;

use crate::cache::{CachedPlan, Lookup, PlanCache, PlanKey, PlanVariant};
use crate::job::{EventHook, JobEvent, JobHandle, JobResult, JobState, JobStatus, SubmitError};
use crate::stats::{ServiceStats, StatCells};
use crate::tenant::{TenantCells, TenantQuota, TenantStats, TokenBucket, DEFAULT_TENANT};

fn lk<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sizing knobs for an [`Engine`].
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads in the shared pool (every job's gang is carved
    /// from these). Default: [`torus_sim::default_threads`].
    pub pool_size: usize,
    /// Maximum queued (admitted but not yet running) jobs across all
    /// tenants; submissions beyond this are rejected. Default 64.
    pub queue_depth: usize,
    /// Driver threads, i.e. how many jobs execute concurrently
    /// (time-sharing the pool). Default 4.
    pub drivers: usize,
    /// Plans retained by the LRU cache. Default 8.
    pub cache_capacity: usize,
    /// Quota applied to tenants that have no explicit override.
    /// Default: unlimited (the global `queue_depth` still bounds them).
    pub default_quota: TenantQuota,
    /// Optional job-lifecycle observer, invoked by drivers on
    /// [`JobEvent::Started`]/[`JobEvent::Finished`]. Default: none.
    pub event_hook: Option<EventHook>,
    /// Deadline applied to jobs that request none. Default: none.
    pub default_deadline: Option<Duration>,
    /// Server-side cap on any job's wall-clock deadline. When set, every
    /// job runs under an effective deadline of at most this — including
    /// jobs that asked for none. Default: none (deadlines are opt-in).
    pub max_deadline: Option<Duration>,
    /// How often the watchdog scans running jobs for expired deadlines.
    /// Default 100 ms.
    pub watchdog_interval: Duration,
    /// Extra no-progress slack past a job's deadline before the
    /// watchdog reaps it. Default: zero (reap at the deadline).
    pub watchdog_grace: Duration,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("pool_size", &self.pool_size)
            .field("queue_depth", &self.queue_depth)
            .field("drivers", &self.drivers)
            .field("cache_capacity", &self.cache_capacity)
            .field("default_quota", &self.default_quota)
            .field("event_hook", &self.event_hook.as_ref().map(|_| "set"))
            .field("default_deadline", &self.default_deadline)
            .field("max_deadline", &self.max_deadline)
            .field("watchdog_interval", &self.watchdog_interval)
            .field("watchdog_grace", &self.watchdog_grace)
            .finish()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            pool_size: torus_sim::default_threads(),
            queue_depth: 64,
            drivers: 4,
            cache_capacity: 8,
            default_quota: TenantQuota::default(),
            event_hook: None,
            default_deadline: None,
            max_deadline: None,
            watchdog_interval: Duration::from_millis(100),
            watchdog_grace: Duration::ZERO,
        }
    }
}

impl EngineConfig {
    /// Sets the shared pool's thread count.
    pub fn with_pool_size(mut self, size: usize) -> Self {
        self.pool_size = size.max(1);
        self
    }

    /// Sets the admission-queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the number of concurrently executing jobs.
    pub fn with_drivers(mut self, drivers: usize) -> Self {
        self.drivers = drivers.max(1);
        self
    }

    /// Sets the plan-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Sets the quota for tenants without an explicit override.
    pub fn with_default_quota(mut self, quota: TenantQuota) -> Self {
        self.default_quota = quota;
        self
    }

    /// Installs a job-lifecycle observer. Drivers invoke it
    /// synchronously on start and finish; it must be fast and must not
    /// call back into the engine.
    pub fn with_event_hook(mut self, hook: EventHook) -> Self {
        self.event_hook = Some(hook);
        self
    }

    /// Sets the deadline applied to jobs that request none.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the server-side deadline cap. Every job's effective deadline
    /// is clamped to at most this, including jobs that asked for none.
    pub fn with_max_deadline(mut self, max: Duration) -> Self {
        self.max_deadline = Some(max);
        self
    }

    /// Tunes the watchdog: scan `interval` and no-progress `grace` past
    /// a job's deadline before it is reaped.
    pub fn with_watchdog(mut self, interval: Duration, grace: Duration) -> Self {
        self.watchdog_interval = interval;
        self.watchdog_grace = grace;
        self
    }
}

/// What [`Engine::cancel`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: it has been removed and finished as
    /// [`JobStatus::Cancelled`] before this call returned.
    Cancelled,
    /// The job is running: its cancel token was triggered and the run
    /// will abort cooperatively at the next step boundary, reaching
    /// [`JobStatus::Cancelled`] shortly.
    Cancelling,
    /// No live job has this id — it already finished, or never existed.
    Unknown,
}

/// A job sitting in the admission queue.
struct QueuedJob {
    id: u64,
    shape: TorusShape,
    op: JobOp,
    payload: PayloadSpec,
    config: RuntimeConfig,
    state: Arc<JobState>,
    tenant: Arc<str>,
    tenant_cells: Arc<TenantCells>,
    submitted_at: Instant,
    /// Effective wall-clock deadline (already clamped to the server
    /// max), measured from dispatch. `None` runs unbounded.
    deadline: Option<Duration>,
    /// The job's cancel trigger, created at admission so `cancel` can
    /// reach the job in every pre-terminal state without racing the
    /// queue→running handoff.
    token: CancelToken,
}

/// One live (admitted, not yet terminal) job's cancellation state, kept
/// in [`Shared::lifecycle`] so `cancel` and the watchdog can reach it
/// without touching the queue shards.
struct LifecycleEntry {
    token: CancelToken,
    /// When the watchdog may reap the job (dispatch time + deadline).
    /// `None` while queued or when the job has no deadline.
    reap_at: Option<Instant>,
}

/// One tenant's slice of the queue.
struct TenantEntry {
    jobs: VecDeque<QueuedJob>,
    in_flight: usize,
    quota: TenantQuota,
    cells: Arc<TenantCells>,
    /// Token-bucket state, created full on the first submission after
    /// the quota gains a rate limit.
    bucket: Option<TokenBucket>,
}

/// How many ways the tenant queue map is sharded. Submission, status,
/// and in-flight accounting for different tenants contend only within a
/// shard; the global bound and the drain condition live in atomics.
pub const QUEUE_SHARDS: usize = 16;

/// FNV-1a over the tenant name, reduced to a shard index. Stable across
/// runs so a tenant's shard never migrates within a process lifetime.
fn shard_of(tenant: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % QUEUE_SHARDS as u64) as usize
}

/// One shard of the tenant queue map: a slice of the tenants with their
/// FIFOs and in-flight counts. The global queue bound (`total_queued`),
/// the accepting flag, and the fair-dispatch cursor live in [`Shared`],
/// so admission and status for different tenants never serialize on a
/// single mutex; only the dispatch rotation (drivers-only, a handful of
/// threads) consults the global first-seen order.
struct QueueShard {
    tenants: HashMap<Arc<str>, TenantEntry>,
}

struct Shared {
    pool: WorkerPool,
    /// The sharded tenant queue map, indexed by [`shard_of`].
    shards: Vec<Mutex<QueueShard>>,
    /// Every tenant in first-submission order, for stats snapshots.
    tenant_order: Mutex<Vec<Arc<str>>>,
    /// Jobs admitted but not yet claimed, across all shards. Submission
    /// reserves a slot optimistically (fetch_add, undone on rejection)
    /// so the configured depth stays a hard bound without a global lock.
    total_queued: AtomicUsize,
    /// Cleared by shutdown; checked lock-free on every submission.
    accepting: AtomicBool,
    /// Index into `tenant_order` where the next driver claim starts its
    /// scan. Advanced past each claimed tenant so bursts interleave —
    /// a tenant that just dispatched goes to the back of the rotation.
    /// Racy across drivers by design; fairness is approximate under
    /// concurrency, exact with a single driver.
    claim_cursor: AtomicUsize,
    /// Wakeup generation for `work`: bumped (under this mutex) by every
    /// queue mutation a sleeping driver could care about — enqueue,
    /// in-flight release, quota change, shutdown. Drivers re-scan when
    /// the generation moves, so a wakeup between their failed claim and
    /// their wait is never lost.
    signal: Mutex<u64>,
    work: Condvar,
    cache: Mutex<PlanCache>,
    /// Signalled (under the `cache` mutex) whenever a single-flight
    /// plan build completes or is abandoned, so drivers waiting on a
    /// key someone else is building re-run their lookup.
    plan_ready: Condvar,
    cells: StatCells,
    queue_depth: usize,
    default_quota: TenantQuota,
    hook: Option<EventHook>,
    /// Every live job's cancel token and reap deadline, keyed by job id.
    /// Entries are inserted at admission and removed on every terminal
    /// path. Lock ordering: a queue shard may be held while taking this
    /// lock, never the reverse.
    lifecycle: Mutex<HashMap<u64, LifecycleEntry>>,
    default_deadline: Option<Duration>,
    max_deadline: Option<Duration>,
    watchdog_grace: Duration,
    /// Watchdog stop flag; flipped under the mutex and signalled so the
    /// watchdog's timed wait exits promptly on shutdown.
    watchdog_stop: Mutex<bool>,
    watchdog_cv: Condvar,
}

impl Shared {
    fn shard(&self, tenant: &str) -> &Mutex<QueueShard> {
        &self.shards[shard_of(tenant)]
    }

    /// The tenant's entry in `shard`, created with the default quota
    /// (and registered in the global first-seen order) on first sight.
    fn entry_mut<'a>(&self, shard: &'a mut QueueShard, tenant: &str) -> &'a mut TenantEntry {
        if !shard.tenants.contains_key(tenant) {
            let name: Arc<str> = Arc::from(tenant);
            lk(&self.tenant_order).push(Arc::clone(&name));
            shard.tenants.insert(
                name,
                TenantEntry {
                    jobs: VecDeque::new(),
                    in_flight: 0,
                    quota: self.default_quota,
                    cells: Arc::new(TenantCells::default()),
                    bucket: None,
                },
            );
        }
        shard.tenants.get_mut(tenant).expect("entry just ensured")
    }

    /// Returns a reserved-but-unused queue slot after a rejection.
    /// During shutdown a drain-waiting driver may be blocked on exactly
    /// this reservation reaching zero, so wake everyone then; the
    /// common accepting-path rejection stays signal-free.
    fn unreserve(&self) {
        self.total_queued.fetch_sub(1, Ordering::SeqCst);
        if !self.accepting.load(Ordering::SeqCst) {
            self.signal_work(true);
        }
    }

    /// Bumps the wakeup generation and wakes `all` (or one) drivers.
    fn signal_work(&self, all: bool) {
        *lk(&self.signal) += 1;
        if all {
            self.work.notify_all();
        } else {
            self.work.notify_one();
        }
    }

    /// Claims one job round-robin across tenants in first-seen order:
    /// the first tenant at or after the claim cursor with queued work
    /// and spare in-flight budget. The order is snapshotted outside any
    /// shard lock (the registration path locks shard-then-order, so
    /// holding order across shard locks here would invert and deadlock);
    /// each candidate's shard is then locked individually, so a claim
    /// scan never stalls admission to unrelated shards.
    fn claim_any(&self) -> Option<QueuedJob> {
        if self.total_queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let order: Vec<Arc<str>> = lk(&self.tenant_order).clone();
        let n = order.len();
        if n == 0 {
            return None;
        }
        let start = self.claim_cursor.load(Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            let name = &order[i];
            let mut shard = lk(self.shard(name));
            let entry = shard.tenants.get_mut(name).expect("ordered tenant exists");
            if !entry.jobs.is_empty() && entry.in_flight < entry.quota.max_in_flight {
                let job = entry.jobs.pop_front().expect("checked non-empty");
                entry.in_flight += 1;
                self.claim_cursor.store((i + 1) % n, Ordering::Relaxed);
                self.total_queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
    /// Backoff hint for overload rejections: half the median run time
    /// (one of the in-flight jobs is likely to free a slot by then),
    /// clamped to 1..=5000 ms, defaulting to 50 ms with no history.
    fn retry_hint_ms(&self) -> u64 {
        let p50_us = self.cells.run_time.stats().p50;
        if p50_us == 0 {
            50
        } else {
            (p50_us / 2000).clamp(1, 5000)
        }
    }

    fn fire(&self, event: JobEvent<'_>) {
        if let Some(hook) = &self.hook {
            hook(event);
        }
    }

    /// The deadline actually enforced for a job that requested
    /// `requested`: the request (or the engine default), clamped to the
    /// server-side max. When a max is configured even jobs that asked
    /// for no deadline get it.
    fn effective_deadline(&self, requested: Option<Duration>) -> Option<Duration> {
        let wanted = requested.or(self.default_deadline);
        match (wanted, self.max_deadline) {
            (Some(d), Some(max)) => Some(d.min(max)),
            (None, Some(max)) => Some(max),
            (d, None) => d,
        }
    }

    /// Finishes a job plucked out of the queue by [`Engine::cancel`]:
    /// terminal [`JobStatus::Cancelled`], cancelled counters (books stay
    /// accepted == completed + failed + cancelled + deadline_exceeded),
    /// and a `Finished` event so the daemon journals the terminal record.
    fn finish_cancelled_queued(&self, job: QueuedJob) {
        lk(&self.lifecycle).remove(&job.id);
        self.cells.cancelled.fetch_add(1, Ordering::Relaxed);
        job.tenant_cells.cancelled.fetch_add(1, Ordering::Relaxed);
        self.total_queued.fetch_sub(1, Ordering::SeqCst);
        let result = job.state.finish(
            JobStatus::Cancelled,
            JobResult {
                job_id: job.id,
                report: None,
                deliveries: None,
                digest: None,
                error: Some("cancelled before dispatch".to_string()),
                cache_hit: false,
            },
        );
        self.fire(JobEvent::Finished {
            job_id: job.id,
            tenant: &job.tenant,
            status: JobStatus::Cancelled,
            result: &result,
        });
        // The freed slot matters to shutdown's drain condition.
        self.signal_work(true);
    }
}

/// Watchdog loop: every `interval`, expire the token of any running job
/// past its deadline plus the engine's grace. The driver that owns the
/// job observes the trigger, aborts the run cooperatively, and accounts
/// the [`JobStatus::DeadlineExceeded`] terminal state — the watchdog
/// itself only pulls triggers, so it can never race a finishing job.
fn watchdog_loop(shared: &Shared, interval: Duration) {
    let mut stop = lk(&shared.watchdog_stop);
    loop {
        if *stop {
            return;
        }
        let (guard, _) = shared
            .watchdog_cv
            .wait_timeout(stop, interval)
            .unwrap_or_else(PoisonError::into_inner);
        stop = guard;
        if *stop {
            return;
        }
        let now = Instant::now();
        let lifecycle = lk(&shared.lifecycle);
        for entry in lifecycle.values() {
            if let Some(reap_at) = entry.reap_at {
                if now >= reap_at + shared.watchdog_grace && entry.token.expire() {
                    shared.cells.watchdog_reaps.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A persistent multi-job exchange engine.
///
/// See the [crate docs](crate) for the execution model. Construction
/// spawns the worker pool and the driver threads; they idle until jobs
/// arrive and survive across jobs until [`shutdown`](Engine::shutdown).
pub struct Engine {
    shared: Arc<Shared>,
    drivers: Mutex<Vec<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
    /// The final stats snapshot, taken exactly once after every driver
    /// has joined. Serializes concurrent `shutdown` callers: the first
    /// does the teardown under this lock, later callers (and re-calls)
    /// get the same frozen snapshot instead of racing the join.
    final_stats: Mutex<Option<ServiceStats>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("pool_size", &self.shared.pool.size())
            .field("queue_depth", &self.shared.queue_depth)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts an engine: spawns the shared pool and the driver threads.
    pub fn new(config: EngineConfig) -> Self {
        let shared = Arc::new(Shared {
            pool: WorkerPool::new(config.pool_size.max(1)),
            shards: (0..QUEUE_SHARDS)
                .map(|_| {
                    Mutex::new(QueueShard {
                        tenants: HashMap::new(),
                    })
                })
                .collect(),
            tenant_order: Mutex::new(Vec::new()),
            total_queued: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            claim_cursor: AtomicUsize::new(0),
            signal: Mutex::new(0),
            work: Condvar::new(),
            cache: Mutex::new(PlanCache::new(config.cache_capacity)),
            plan_ready: Condvar::new(),
            cells: StatCells::default(),
            queue_depth: config.queue_depth.max(1),
            default_quota: config.default_quota,
            hook: config.event_hook,
            lifecycle: Mutex::new(HashMap::new()),
            default_deadline: config.default_deadline,
            max_deadline: config.max_deadline,
            watchdog_grace: config.watchdog_grace,
            watchdog_stop: Mutex::new(false),
            watchdog_cv: Condvar::new(),
        });
        let drivers = (0..config.drivers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("torus-driver-{i}"))
                    .spawn(move || drive(&shared))
                    .expect("spawn driver thread")
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            let interval = config.watchdog_interval.max(Duration::from_millis(1));
            std::thread::Builder::new()
                .name("torus-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared, interval))
                .expect("spawn watchdog thread")
        };
        Self {
            shared,
            drivers: Mutex::new(drivers),
            watchdog: Mutex::new(Some(watchdog)),
            next_id: AtomicU64::new(0),
            final_stats: Mutex::new(None),
        }
    }

    /// Submits a job under the [`DEFAULT_TENANT`]. See
    /// [`submit_as`](Engine::submit_as).
    pub fn submit(
        &self,
        shape: TorusShape,
        payload: PayloadSpec,
        config: RuntimeConfig,
    ) -> Result<JobHandle, SubmitError> {
        self.submit_as(DEFAULT_TENANT, shape, payload, config)
    }

    /// Submits a job on behalf of `tenant`: an exchange over `shape`
    /// carrying `payload` bytes, executed under `config` (worker count,
    /// block size, fault plan, failure policy — all per-job). Returns
    /// immediately with a handle; rejects (typed) instead of queueing
    /// unboundedly — globally at `queue_depth`, per tenant at the
    /// tenant's `max_queued`.
    pub fn submit_as(
        &self,
        tenant: &str,
        shape: TorusShape,
        payload: PayloadSpec,
        config: RuntimeConfig,
    ) -> Result<JobHandle, SubmitError> {
        self.submit_with_deadline(tenant, shape, payload, config, None)
    }

    /// [`submit_as`](Engine::submit_as) with an explicit wall-clock
    /// deadline, measured from dispatch. The effective deadline is the
    /// request (or the engine's `default_deadline`), clamped to
    /// `max_deadline`; the watchdog reaps a run still going past it
    /// (plus the configured grace), finishing the job as
    /// [`JobStatus::DeadlineExceeded`] with a partial report.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        shape: TorusShape,
        payload: PayloadSpec,
        config: RuntimeConfig,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, SubmitError> {
        self.submit_op_with_deadline(tenant, shape, JobOp::Alltoall, payload, config, deadline)
    }

    /// [`submit_with_deadline`](Engine::submit_with_deadline) for any
    /// [`JobOp`]: all-to-all jobs behave exactly as before, collective
    /// jobs lower their [`CollectiveOp`](torus_runtime::CollectiveOp)
    /// into a cached [`CollectivePlan`] and run on the same pool, with
    /// the same deadline, cancellation, and fault machinery.
    pub fn submit_op_with_deadline(
        &self,
        tenant: &str,
        shape: TorusShape,
        op: JobOp,
        payload: PayloadSpec,
        config: RuntimeConfig,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, SubmitError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::SeqCst) {
            shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        let retry_after_ms = shared.retry_hint_ms();
        // Reserve a global slot optimistically; undone on any rejection
        // below so the configured depth stays a hard bound.
        let reserved = shared.total_queued.fetch_add(1, Ordering::SeqCst);
        if reserved >= shared.queue_depth {
            shared.unreserve();
            let mut shard = lk(shared.shard(tenant));
            let entry = shared.entry_mut(&mut shard, tenant);
            entry.cells.rejected.fetch_add(1, Ordering::Relaxed);
            shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                depth: shared.queue_depth,
                retry_after_ms,
            });
        }
        let mut shard = lk(shared.shard(tenant));
        let entry = shared.entry_mut(&mut shard, tenant);
        if entry.jobs.len() >= entry.quota.max_queued {
            let max_queued = entry.quota.max_queued;
            entry.cells.rejected.fetch_add(1, Ordering::Relaxed);
            shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            drop(shard);
            shared.unreserve();
            return Err(SubmitError::TenantQueueFull {
                tenant: tenant.to_string(),
                max_queued,
                retry_after_ms,
            });
        }
        if let Some(rate) = entry.quota.rate {
            let bucket = entry.bucket.get_or_insert_with(|| TokenBucket::full(&rate));
            if let Err(wait_ms) = bucket.try_take(&rate) {
                entry.cells.rejected.fetch_add(1, Ordering::Relaxed);
                shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
                drop(shard);
                shared.unreserve();
                return Err(SubmitError::RateLimited {
                    tenant: tenant.to_string(),
                    retry_after_ms: wait_ms,
                });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.enqueue_shard_locked(&mut shard, tenant, id, shape, op, payload, config, deadline)
    }

    /// Re-enqueues a journal-recovered job under its original id,
    /// bypassing the queue-depth, quota, and rate-limit checks — the job
    /// was already admitted once, before the crash. Fails only while
    /// shutting down. Future fresh ids are bumped past `job_id` so the
    /// monotonic-id invariant survives the restart.
    pub fn resubmit_as(
        &self,
        tenant: &str,
        job_id: u64,
        shape: TorusShape,
        payload: PayloadSpec,
        config: RuntimeConfig,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, SubmitError> {
        self.resubmit_op_as(
            tenant,
            job_id,
            shape,
            JobOp::Alltoall,
            payload,
            config,
            deadline,
        )
    }

    /// [`resubmit_as`](Engine::resubmit_as) for any [`JobOp`] — the
    /// crash-recovery path for collective jobs replayed from the
    /// daemon's journal.
    #[allow(clippy::too_many_arguments)]
    pub fn resubmit_op_as(
        &self,
        tenant: &str,
        job_id: u64,
        shape: TorusShape,
        op: JobOp,
        payload: PayloadSpec,
        config: RuntimeConfig,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, SubmitError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::SeqCst) {
            shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        self.next_id.fetch_max(job_id, Ordering::Relaxed);
        shared.total_queued.fetch_add(1, Ordering::SeqCst);
        let mut shard = lk(shared.shard(tenant));
        self.enqueue_shard_locked(
            &mut shard, tenant, job_id, shape, op, payload, config, deadline,
        )
    }

    /// Admission tail shared by fresh and replayed submissions: records
    /// acceptance, queues the job, wakes one driver, and closes the
    /// shutdown race. The caller has already reserved the job's
    /// `total_queued` slot.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_shard_locked(
        &self,
        shard: &mut QueueShard,
        tenant: &str,
        id: u64,
        shape: TorusShape,
        op: JobOp,
        payload: PayloadSpec,
        config: RuntimeConfig,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, SubmitError> {
        let shared = &self.shared;
        let entry = shared.entry_mut(shard, tenant);
        let state = Arc::new(JobState::new());
        let tenant_name: Arc<str> = Arc::from(tenant);
        entry.cells.accepted.fetch_add(1, Ordering::Relaxed);
        shared.cells.ops_accepted[op.index()].fetch_add(1, Ordering::Relaxed);
        let tenant_cells = Arc::clone(&entry.cells);
        let token = CancelToken::new();
        lk(&shared.lifecycle).insert(
            id,
            LifecycleEntry {
                token: token.clone(),
                reap_at: None,
            },
        );
        entry.jobs.push_back(QueuedJob {
            id,
            shape,
            op,
            payload,
            config,
            state: Arc::clone(&state),
            tenant: tenant_name,
            tenant_cells,
            submitted_at: Instant::now(),
            deadline: shared.effective_deadline(deadline),
            token,
        });
        shared.cells.accepted.fetch_add(1, Ordering::Relaxed);
        shared
            .cells
            .observe_depth(shared.total_queued.load(Ordering::SeqCst));
        // With admission sharded, the accepting flag can flip between
        // the entry check and the push — and by then the drivers may
        // already have drained-and-exited without seeing this job. Undo
        // the enqueue if it is still sitting in the queue; if a driver
        // claimed it in the window, it was accepted in time and runs.
        if !shared.accepting.load(Ordering::SeqCst) {
            let entry = shared.entry_mut(shard, tenant);
            if let Some(pos) = entry.jobs.iter().position(|job| job.id == id) {
                entry.jobs.remove(pos);
                lk(&shared.lifecycle).remove(&id);
                entry.cells.accepted.fetch_sub(1, Ordering::Relaxed);
                shared.cells.accepted.fetch_sub(1, Ordering::Relaxed);
                shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
                entry.cells.rejected.fetch_add(1, Ordering::Relaxed);
                shared.total_queued.fetch_sub(1, Ordering::SeqCst);
                shared.signal_work(true);
                return Err(SubmitError::ShuttingDown);
            }
        }
        shared.signal_work(false);
        Ok(JobHandle { id, state })
    }

    /// Removes a still-queued job, failing it with a canceled error —
    /// the daemon's escape hatch when the admission journal cannot make
    /// an already-enqueued job durable (the client is then rejected, so
    /// the job must not run). Returns `false` when the job is unknown or
    /// a driver already claimed it; a claimed job runs to completion
    /// normally. The canceled job counts as failed, so per-tenant books
    /// (accepted == completed + failed) still balance.
    pub fn cancel_queued(&self, job_id: u64) -> bool {
        let shared = &self.shared;
        for shard in &shared.shards {
            let mut shard = lk(shard);
            let names: Vec<Arc<str>> = shard.tenants.keys().cloned().collect();
            for name in names {
                let entry = shard.tenants.get_mut(&name).expect("key just listed");
                if let Some(pos) = entry.jobs.iter().position(|job| job.id == job_id) {
                    let job = entry.jobs.remove(pos).expect("position just found");
                    shared.cells.failed.fetch_add(1, Ordering::Relaxed);
                    job.tenant_cells.failed.fetch_add(1, Ordering::Relaxed);
                    drop(shard);
                    lk(&shared.lifecycle).remove(&job_id);
                    shared.total_queued.fetch_sub(1, Ordering::SeqCst);
                    job.state.finish(
                        JobStatus::Failed,
                        JobResult {
                            job_id,
                            report: None,
                            deliveries: None,
                            digest: None,
                            error: Some("canceled: admission journal unavailable".to_string()),
                            cache_hit: false,
                        },
                    );
                    shared.signal_work(true);
                    return true;
                }
            }
        }
        false
    }

    /// Cancels a job in any pre-terminal state.
    ///
    /// A still-queued job is removed and finished as
    /// [`JobStatus::Cancelled`] before this returns (its `Finished`
    /// event fires, so a daemon journal hook records the terminal). A
    /// running job has its [`CancelToken`] triggered and aborts
    /// cooperatively at the next step boundary — wait on its handle to
    /// observe the terminal state. Cancelling a finished or unknown job
    /// is a safe no-op ([`CancelOutcome::Unknown`]).
    ///
    /// Tenant scoping is the caller's job: the engine cancels by id
    /// alone, and the daemon checks ownership in its registry first.
    pub fn cancel(&self, job_id: u64) -> CancelOutcome {
        let shared = &self.shared;
        // Queued first: such a job can be finished right here. Scanning
        // the shards is O(queued jobs) but cancel is rare.
        for shard_mutex in &shared.shards {
            let mut shard = lk(shard_mutex);
            let names: Vec<Arc<str>> = shard.tenants.keys().cloned().collect();
            for name in names {
                let entry = shard.tenants.get_mut(&name).expect("key just listed");
                if let Some(pos) = entry.jobs.iter().position(|job| job.id == job_id) {
                    let job = entry.jobs.remove(pos).expect("position just found");
                    drop(shard);
                    shared.finish_cancelled_queued(job);
                    return CancelOutcome::Cancelled;
                }
            }
        }
        // Not queued but still live: a driver owns it (running, or in
        // the claim→dispatch window). Pull the trigger; the driver
        // accounts the terminal state when the run aborts.
        match lk(&shared.lifecycle).get(&job_id) {
            Some(entry) => {
                entry.token.cancel();
                CancelOutcome::Cancelling
            }
            None => CancelOutcome::Unknown,
        }
    }

    /// Guarantees every future fresh id exceeds `id`. Used after crash
    /// recovery so ids of compacted (terminal, no longer replayed) jobs
    /// are never reissued.
    pub fn reserve_ids_through(&self, id: u64) {
        self.next_id.fetch_max(id, Ordering::Relaxed);
    }

    /// Overrides `tenant`'s quota (creating the tenant if new). Takes
    /// effect for subsequent admission and dispatch decisions; already
    /// queued jobs stay queued even if the new cap is lower.
    pub fn set_tenant_quota(&self, tenant: &str, quota: TenantQuota) {
        let mut shard = lk(self.shared.shard(tenant));
        self.shared.entry_mut(&mut shard, tenant).quota = quota;
        drop(shard);
        // A raised in-flight cap can make blocked work dispatchable.
        self.shared.signal_work(true);
    }

    /// A point-in-time snapshot of the aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let cache = lk(&self.shared.cache);
        self.shared.cells.snapshot(cache.hits(), cache.misses())
    }

    /// Per-tenant snapshots, in first-submission order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let order: Vec<Arc<str>> = lk(&self.shared.tenant_order).clone();
        order
            .iter()
            .map(|name| {
                let shard = lk(self.shared.shard(name));
                shard.tenants[name].cells.snapshot(name)
            })
            .collect()
    }

    /// The shared pool's thread count.
    pub fn pool_size(&self) -> usize {
        self.shared.pool.size()
    }

    /// Jobs currently admitted but not yet claimed by a driver.
    pub fn queue_len(&self) -> usize {
        self.shared.total_queued.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stops admission, lets the drivers drain every
    /// queued job, joins them, tears down the pool, and returns the
    /// final stats. Idempotent, and safe to race: concurrent callers all
    /// receive the same post-drain snapshot — the teardown and the final
    /// stats read are serialized through one lock, so no caller can
    /// observe counters from before the last job finished.
    pub fn shutdown(&self) -> ServiceStats {
        let mut done = lk(&self.final_stats);
        if let Some(stats) = done.as_ref() {
            return stats.clone();
        }
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.signal_work(true);
        let handles: Vec<_> = lk(&self.drivers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Stop the watchdog only after the drivers drained, so reaps
        // keep working for jobs finishing during shutdown.
        *lk(&self.shared.watchdog_stop) = true;
        self.shared.watchdog_cv.notify_all();
        if let Some(watchdog) = lk(&self.watchdog).take() {
            let _ = watchdog.join();
        }
        self.shared.pool.shutdown();
        let stats = self.stats();
        *done = Some(stats.clone());
        stats
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Driver loop: claim jobs round-robin across tenants until the queue
/// is drained *and* admission has stopped.
fn drive(shared: &Shared) {
    loop {
        let job = loop {
            // Read the wakeup generation *before* scanning, so a signal
            // that fires between a failed scan and the wait below moves
            // the generation and the wait returns immediately — no lost
            // wakeup, even though claims don't hold the signal lock.
            let gen_before = *lk(&shared.signal);
            if let Some(job) = shared.claim_any() {
                break Some(job);
            }
            // `claim_any` returning None with jobs still queued means
            // every tenant with work is at its in-flight cap; wait for
            // a finishing job's signal even mid-shutdown.
            if !shared.accepting.load(Ordering::SeqCst)
                && shared.total_queued.load(Ordering::SeqCst) == 0
            {
                break None;
            }
            let mut gen = lk(&shared.signal);
            while *gen == gen_before {
                gen = shared
                    .work
                    .wait(gen)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => {
                let wait_us = job.submitted_at.elapsed().as_micros() as u64;
                shared.cells.queue_wait.record(wait_us);
                job.tenant_cells.queue_wait.record(wait_us);
                let tenant = Arc::clone(&job.tenant);
                run_job(shared, job);
                let mut shard = lk(shared.shard(&tenant));
                if let Some(entry) = shard.tenants.get_mut(&tenant) {
                    entry.in_flight -= 1;
                }
                drop(shard);
                // The finished slot may unblock a capped tenant, and
                // shutdown waiters must recheck the drain condition.
                shared.signal_work(true);
            }
            None => return,
        }
    }
}

/// Executes one job on the shared pool. Every failure path lands in the
/// job's result — nothing a job does (bad shape, fault abort, worker
/// panic) escapes to the driver or the engine.
fn run_job(shared: &Shared, job: QueuedJob) {
    job.state.set_running();
    shared.fire(JobEvent::Started {
        job_id: job.id,
        tenant: &job.tenant,
    });
    let started = Instant::now();
    // Publish the reap deadline before any work happens, so a stall in
    // the very first step is still covered by the watchdog.
    if let Some(deadline) = job.deadline {
        if let Some(entry) = lk(&shared.lifecycle).get_mut(&job.id) {
            entry.reap_at = Some(started + deadline);
        }
    }
    let finish_run = |status: JobStatus| {
        lk(&shared.lifecycle).remove(&job.id);
        let run_us = started.elapsed().as_micros() as u64;
        shared.cells.run_time.record(run_us);
        job.tenant_cells.run_time.record(run_us);
        let (cell, tenant_cell) = match status {
            JobStatus::Completed => (&shared.cells.completed, &job.tenant_cells.completed),
            JobStatus::Cancelled => (&shared.cells.cancelled, &job.tenant_cells.cancelled),
            JobStatus::DeadlineExceeded => (
                &shared.cells.deadline_exceeded,
                &job.tenant_cells.deadline_exceeded,
            ),
            _ => (&shared.cells.failed, &job.tenant_cells.failed),
        };
        cell.fetch_add(1, Ordering::Relaxed);
        tenant_cell.fetch_add(1, Ordering::Relaxed);
    };
    let nn = job.shape.num_nodes() as usize;
    let workers = job
        .config
        .workers
        .unwrap_or_else(torus_sim::default_threads)
        .clamp(1, nn.max(1))
        .min(shared.pool.size());
    let key = PlanKey {
        shape: job.shape.clone(),
        block_bytes: job.config.block_bytes,
        workers,
        op: job.op,
    };

    // Single-flight plan construction: exactly one driver builds a
    // cold key while the rest wait on `plan_ready`, so a burst of
    // same-shape jobs claimed by concurrent drivers pays for one
    // `O(N²)` prepare — and the hit/miss counters are deterministic
    // (one miss per cold key) instead of racing on who misses first.
    let (entry, cache_hit) = loop {
        let mut cache = lk(&shared.cache);
        match cache.begin_lookup(&key) {
            Lookup::Hit(entry) => break (entry, true),
            Lookup::Build => {
                // Build outside the cache lock so a cold build never
                // stalls other drivers' hits on warm keys.
                drop(cache);
                let built: Result<PlanVariant, String> = match job.op {
                    JobOp::Alltoall => PreparedExchange::new(&job.shape)
                        .map(|p| {
                            let prepared = Arc::new(p);
                            let plan = prepared.step_plan_arc();
                            PlanVariant::Alltoall { prepared, plan }
                        })
                        .map_err(|e| format!("exchange setup failed: {e}")),
                    JobOp::Collective(op) => CollectivePlan::new(&job.shape, op)
                        .map(|p| PlanVariant::Collective { plan: Arc::new(p) })
                        .map_err(|e| format!("collective plan rejected: {e}")),
                };
                let variant = match built {
                    Ok(v) => v,
                    Err(error) => {
                        // Release the build claim before reporting, or
                        // every driver waiting on this key hangs.
                        lk(&shared.cache).abandon_build(&key);
                        shared.plan_ready.notify_all();
                        finish_run(JobStatus::Failed);
                        let result = job.state.finish(
                            JobStatus::Failed,
                            JobResult {
                                job_id: job.id,
                                report: None,
                                deliveries: None,
                                digest: None,
                                error: Some(error),
                                cache_hit: false,
                            },
                        );
                        shared.fire(JobEvent::Finished {
                            job_id: job.id,
                            tenant: &job.tenant,
                            status: JobStatus::Failed,
                            result: &result,
                        });
                        return;
                    }
                };
                let entry = Arc::new(CachedPlan {
                    variant,
                    bank: Arc::new(torus_runtime::PoolBank::new()),
                });
                lk(&shared.cache).complete_build(key.clone(), Arc::clone(&entry));
                shared.plan_ready.notify_all();
                break (entry, false);
            }
            Lookup::Wait => {
                // The builder publishes (or abandons) under this same
                // mutex, so the wakeup cannot be lost between our
                // lookup and the wait.
                drop(
                    shared
                        .plan_ready
                        .wait(cache)
                        .unwrap_or_else(PoisonError::into_inner),
                );
            }
        }
    };

    let run_config = job.config.clone().with_cancel_token(job.token.clone());
    let outcome = match &entry.variant {
        PlanVariant::Alltoall { prepared, plan } => {
            let runtime = Runtime::from_shared(Arc::clone(prepared), Arc::clone(plan), run_config);
            runtime.run_pooled(&shared.pool, Some(&entry.bank), job.payload)
        }
        PlanVariant::Collective { plan } => {
            CollectiveRuntime::from_plan(Arc::clone(plan), run_config).and_then(|runtime| {
                runtime.run_pooled(&shared.pool, Some(&entry.bank), job.payload)
            })
        }
    };
    match outcome {
        Ok((report, deliveries)) => {
            finish_run(JobStatus::Completed);
            shared.cells.ops_completed[job.op.index()].fetch_add(1, Ordering::Relaxed);
            if report.degraded.is_some() {
                shared.cells.degraded.fetch_add(1, Ordering::Relaxed);
            }
            shared
                .cells
                .wire_bytes
                .fetch_add(report.wire_bytes, Ordering::Relaxed);
            shared
                .cells
                .bytes_copied
                .fetch_add(report.bytes_copied, Ordering::Relaxed);
            // Digest before `finish`: a waiter can read the result the
            // moment it is published, before any event hook runs.
            let digest = report
                .degraded
                .is_none()
                .then(|| torus_runtime::delivery_digest(&deliveries));
            let result = job.state.finish(
                JobStatus::Completed,
                JobResult {
                    job_id: job.id,
                    report: Some(report),
                    deliveries: Some(deliveries),
                    digest,
                    error: None,
                    cache_hit,
                },
            );
            shared.fire(JobEvent::Finished {
                job_id: job.id,
                tenant: &job.tenant,
                status: JobStatus::Completed,
                result: &result,
            });
        }
        Err(e) => {
            // A fault abort still carries partial measurements worth
            // surfacing; count its wire traffic too. Cancelled and
            // deadline-reaped runs get their own terminal statuses so
            // the books distinguish "we stopped it" from "it broke".
            let (status, error, report) = match e {
                RuntimeError::Aborted { failure, report } => {
                    shared
                        .cells
                        .wire_bytes
                        .fetch_add(report.wire_bytes, Ordering::Relaxed);
                    shared
                        .cells
                        .bytes_copied
                        .fetch_add(report.bytes_copied, Ordering::Relaxed);
                    let status = match failure.reason {
                        FailureReason::Cancelled => JobStatus::Cancelled,
                        FailureReason::DeadlineExceeded => JobStatus::DeadlineExceeded,
                        _ => JobStatus::Failed,
                    };
                    (status, format!("run aborted: {failure}"), Some(*report))
                }
                other => (JobStatus::Failed, other.to_string(), None),
            };
            finish_run(status);
            let result = job.state.finish(
                status,
                JobResult {
                    job_id: job.id,
                    report,
                    deliveries: None,
                    digest: None,
                    error: Some(error),
                    cache_hit,
                },
            );
            shared.fire(JobEvent::Finished {
                job_id: job.id,
                tenant: &job.tenant,
                status,
                result: &result,
            });
        }
    }
}
