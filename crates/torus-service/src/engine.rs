//! The engine: tenant-aware admission, driver threads, and the shared
//! pool.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alltoall_core::PreparedExchange;
use torus_runtime::{
    CollectivePlan, CollectiveRuntime, FailureReason, JobOp, PayloadSpec, Runtime, RuntimeConfig,
    RuntimeError, WorkerPool,
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
    /// The job had already finished.
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
}

/// One tenant's slice of the queue.
struct TenantEntry {
    name: Arc<str>,
    jobs: VecDeque<QueuedJob>,
    in_flight: usize,
    quota: TenantQuota,
    cells: Arc<TenantCells>,
    /// Token-bucket state, created full on the first submission after
    /// the quota gains a rate limit.
    bucket: Option<TokenBucket>,
}

/// The admission queue. Every mutation — admit, claim, in-flight
/// release, quota change, cancel, shutdown — happens under the one
/// mutex that holds it, so the global depth bound, the drain condition
/// and round-robin fairness are plain reads.
struct Queue {
    /// Every tenant in first-submission order: the dispatch rotation
    /// and the stats order.
    tenants: Vec<TenantEntry>,
    /// Tenant name → index into `tenants` (tenants are never removed).
    index: HashMap<Arc<str>, usize>,
    /// Index into `tenants` where the next claim starts its scan.
    /// Advanced past each claimed tenant so bursts interleave: a tenant
    /// that just dispatched goes to the back of the rotation.
    cursor: usize,
    /// Jobs admitted but not yet claimed, across all tenants.
    queued: usize,
    /// Cleared by shutdown.
    accepting: bool,
}

impl Queue {
    /// The tenant's entry, created with `quota` on first sight.
    fn tenant(&mut self, name: &str, quota: TenantQuota) -> &mut TenantEntry {
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let name: Arc<str> = Arc::from(name);
                self.index.insert(Arc::clone(&name), self.tenants.len());
                self.tenants.push(TenantEntry {
                    name,
                    jobs: VecDeque::new(),
                    in_flight: 0,
                    quota,
                    cells: Arc::new(TenantCells::default()),
                    bucket: None,
                });
                self.tenants.len() - 1
            }
        };
        &mut self.tenants[i]
    }

    /// Claims one job round-robin across tenants in first-seen order:
    /// the first tenant at or after the cursor with queued work and
    /// spare in-flight budget.
    fn claim(&mut self) -> Option<QueuedJob> {
        if self.queued == 0 {
            return None;
        }
        let n = self.tenants.len();
        for k in 0..n {
            let i = (self.cursor + k) % n;
            let entry = &mut self.tenants[i];
            if entry.in_flight < entry.quota.max_in_flight {
                if let Some(job) = entry.jobs.pop_front() {
                    entry.in_flight += 1;
                    self.cursor = (i + 1) % n;
                    self.queued -= 1;
                    return Some(job);
                }
            }
        }
        None
    }

    /// Removes a still-queued job by id. `O(queued jobs)`, but cancel
    /// is rare.
    fn remove(&mut self, job_id: u64) -> Option<QueuedJob> {
        for entry in &mut self.tenants {
            if let Some(pos) = entry.jobs.iter().position(|job| job.id == job_id) {
                self.queued -= 1;
                return entry.jobs.remove(pos);
            }
        }
        None
    }
}

struct Shared {
    pool: WorkerPool,
    queue: Mutex<Queue>,
    /// Signalled after every queue mutation a waiting driver could care
    /// about. Drivers test their wake condition under the queue lock and
    /// wait on it atomically, so no wakeup is lost.
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
    default_deadline: Option<Duration>,
    max_deadline: Option<Duration>,
}

impl Shared {
    /// Counts one terminal `status` engine-wide and for the job's tenant.
    fn count_terminal(&self, tenant: &TenantCells, status: JobStatus) {
        let (cell, tenant_cell) = match status {
            JobStatus::Completed => (&self.cells.completed, &tenant.completed),
            JobStatus::Cancelled => (&self.cells.cancelled, &tenant.cancelled),
            JobStatus::DeadlineExceeded => {
                (&self.cells.deadline_exceeded, &tenant.deadline_exceeded)
            }
            _ => (&self.cells.failed, &tenant.failed),
        };
        cell.fetch_add(1, Ordering::Relaxed);
        tenant_cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a still-queued job out of the queue and counts it as
    /// `status`. The count lands before the queue lock drops, so once
    /// the queue drains, shutdown's final snapshot already sees it. The
    /// freed slot matters to the drain condition, so drivers are woken.
    fn take_queued(&self, job_id: u64, status: JobStatus) -> Option<QueuedJob> {
        let mut queue = lk(&self.queue);
        let job = queue.remove(job_id)?;
        self.count_terminal(&job.tenant_cells, status);
        drop(queue);
        self.work.notify_all();
        Some(job)
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

    /// The one way a job becomes terminal with an event: `Finished`
    /// fires first and the result is published second, so everything a
    /// hook records (the daemon's journaled terminal record) exists
    /// before a waiter or a status poll can see the job finish.
    fn finish(&self, job: &QueuedJob, status: JobStatus, result: JobResult) {
        self.fire(JobEvent::Finished {
            job_id: job.id,
            tenant: &job.tenant,
            status,
            result: &result,
        });
        job.state.finish(status, result);
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
    /// terminal [`JobStatus::Cancelled`] and a `Finished` event so the
    /// daemon journals the terminal record.
    fn finish_cancelled_queued(&self, job: QueuedJob) {
        self.finish(
            &job,
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
            queue: Mutex::new(Queue {
                tenants: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                queued: 0,
                accepting: true,
            }),
            work: Condvar::new(),
            cache: Mutex::new(PlanCache::new(config.cache_capacity)),
            plan_ready: Condvar::new(),
            cells: StatCells::default(),
            queue_depth: config.queue_depth.max(1),
            default_quota: config.default_quota,
            hook: config.event_hook,
            default_deadline: config.default_deadline,
            max_deadline: config.max_deadline,
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
        Self {
            shared,
            drivers: Mutex::new(drivers),
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
    /// `max_deadline`. It is set on the job's [`CancelToken`](torus_runtime::CancelToken) at
    /// dispatch, and a run still going past it aborts at its next
    /// checkpoint, finishing the job as [`JobStatus::DeadlineExceeded`]
    /// with a partial report.
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
        let retry_after_ms = shared.retry_hint_ms();
        let mut queue = lk(&shared.queue);
        if !queue.accepting {
            shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        let queued = queue.queued;
        let entry = queue.tenant(tenant, shared.default_quota);
        let rejection = if queued >= shared.queue_depth {
            Some(SubmitError::QueueFull {
                depth: shared.queue_depth,
                retry_after_ms,
            })
        } else if entry.jobs.len() >= entry.quota.max_queued {
            Some(SubmitError::TenantQueueFull {
                tenant: tenant.to_string(),
                max_queued: entry.quota.max_queued,
                retry_after_ms,
            })
        } else if let Some(rate) = entry.quota.rate {
            let bucket = entry.bucket.get_or_insert_with(|| TokenBucket::full(&rate));
            bucket
                .try_take(&rate)
                .err()
                .map(|wait_ms| SubmitError::RateLimited {
                    tenant: tenant.to_string(),
                    retry_after_ms: wait_ms,
                })
        } else {
            None
        };
        if let Some(err) = rejection {
            entry.cells.rejected.fetch_add(1, Ordering::Relaxed);
            shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(err);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(self.enqueue(queue, tenant, id, shape, op, payload, config, deadline))
    }

    /// Re-enqueues a journal-recovered job of any [`JobOp`] under its
    /// original id, bypassing the queue-depth, quota, and rate-limit
    /// checks — the job was already admitted once, before the crash.
    /// Fails only while shutting down. Future fresh ids are bumped past
    /// `job_id` so the monotonic-id invariant survives the restart.
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
        let queue = lk(&self.shared.queue);
        if !queue.accepting {
            self.shared.cells.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        self.next_id.fetch_max(job_id, Ordering::Relaxed);
        Ok(self.enqueue(queue, tenant, job_id, shape, op, payload, config, deadline))
    }

    /// Admission tail shared by fresh and replayed submissions: records
    /// acceptance, queues the job under the caller's queue lock, and
    /// wakes one driver once the lock is released.
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &self,
        mut queue: MutexGuard<'_, Queue>,
        tenant: &str,
        id: u64,
        shape: TorusShape,
        op: JobOp,
        payload: PayloadSpec,
        config: RuntimeConfig,
        deadline: Option<Duration>,
    ) -> JobHandle {
        let shared = &self.shared;
        let entry = queue.tenant(tenant, shared.default_quota);
        let state = Arc::new(JobState::new());
        entry.cells.accepted.fetch_add(1, Ordering::Relaxed);
        shared.cells.ops_accepted[op.index()].fetch_add(1, Ordering::Relaxed);
        let job = QueuedJob {
            id,
            shape,
            op,
            payload,
            config,
            state: Arc::clone(&state),
            tenant: Arc::clone(&entry.name),
            tenant_cells: Arc::clone(&entry.cells),
            submitted_at: Instant::now(),
            deadline: shared.effective_deadline(deadline),
        };
        entry.jobs.push_back(job);
        queue.queued += 1;
        shared.cells.accepted.fetch_add(1, Ordering::Relaxed);
        shared.cells.observe_depth(queue.queued);
        drop(queue);
        shared.work.notify_one();
        JobHandle { id, state }
    }

    /// Removes a still-queued job, failing it with a canceled error —
    /// the daemon's escape hatch when the admission journal cannot make
    /// an already-enqueued job durable (the client is then rejected, so
    /// the job must not run). Returns `false` when the job is unknown or
    /// a driver already claimed it; a claimed job runs to completion
    /// normally. The canceled job counts as failed, so per-tenant books
    /// (accepted == completed + failed) still balance.
    pub fn cancel_queued(&self, job_id: u64) -> bool {
        let Some(job) = self.shared.take_queued(job_id, JobStatus::Failed) else {
            return false;
        };
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
        true
    }

    /// Cancels a job in any pre-terminal state.
    ///
    /// A still-queued job is removed and finished as
    /// [`JobStatus::Cancelled`] before this returns (its `Finished`
    /// event fires, so a daemon journal hook records the terminal). A
    /// running job has its [`CancelToken`](torus_runtime::CancelToken) triggered and aborts
    /// cooperatively at the next step boundary — wait on its handle to
    /// observe the terminal state. Cancelling a finished job is a safe
    /// no-op ([`CancelOutcome::Unknown`]).
    ///
    /// Tenant scoping is the caller's job: the daemon checks ownership
    /// in its registry, which holds every live job's handle.
    pub fn cancel(&self, job: &JobHandle) -> CancelOutcome {
        let shared = &self.shared;
        // Queued first: such a job can be finished right here.
        if let Some(queued) = shared.take_queued(job.id, JobStatus::Cancelled) {
            shared.finish_cancelled_queued(queued);
            return CancelOutcome::Cancelled;
        }
        if job.try_status().is_terminal() {
            return CancelOutcome::Unknown;
        }
        // Not queued but still live: a driver owns it (running, or in
        // the claim→dispatch window). Pull the trigger; the driver
        // accounts the terminal state when the run aborts.
        job.state.token.cancel();
        CancelOutcome::Cancelling
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
        lk(&self.shared.queue).tenant(tenant, quota).quota = quota;
        // A raised in-flight cap can make blocked work dispatchable.
        self.shared.work.notify_all();
    }

    /// A point-in-time snapshot of the aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let cache = lk(&self.shared.cache);
        self.shared.cells.snapshot(cache.hits(), cache.misses())
    }

    /// Per-tenant snapshots, in first-submission order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let tenants: Vec<(Arc<str>, Arc<TenantCells>)> = lk(&self.shared.queue)
            .tenants
            .iter()
            .map(|entry| (Arc::clone(&entry.name), Arc::clone(&entry.cells)))
            .collect();
        tenants
            .iter()
            .map(|(name, cells)| cells.snapshot(name))
            .collect()
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
        lk(&self.shared.queue).accepting = false;
        self.shared.work.notify_all();
        let handles: Vec<_> = lk(&self.drivers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
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
    let mut queue = lk(&shared.queue);
    loop {
        if let Some(job) = queue.claim() {
            drop(queue);
            let wait_us = job.submitted_at.elapsed().as_micros() as u64;
            shared.cells.queue_wait.record(wait_us);
            job.tenant_cells.queue_wait.record(wait_us);
            let tenant = Arc::clone(&job.tenant);
            run_job(shared, job);
            queue = lk(&shared.queue);
            queue.tenant(&tenant, shared.default_quota).in_flight -= 1;
            // The finished slot may unblock a capped tenant, and
            // shutdown waiters must recheck the drain condition. With
            // nothing queued and admission open, no waiter cares.
            if queue.queued > 0 || !queue.accepting {
                shared.work.notify_all();
            }
            continue;
        }
        // No claim with jobs still queued means every tenant with work
        // is at its in-flight cap; wait for a finishing job even
        // mid-shutdown.
        if !queue.accepting && queue.queued == 0 {
            return;
        }
        queue = shared
            .work
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
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
    // The deadline counts from dispatch, not submission: time spent
    // queued is never charged to the run.
    if let Some(deadline) = job.deadline {
        job.state.token.expire_at(started + deadline);
    }
    let finish_run = |status: JobStatus| {
        let run_us = started.elapsed().as_micros() as u64;
        shared.cells.run_time.record(run_us);
        job.tenant_cells.run_time.record(run_us);
        shared.count_terminal(&job.tenant_cells, status);
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
                        shared.finish(
                            &job,
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

    let run_config = job
        .config
        .clone()
        .with_cancel_token(job.state.token.clone());
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
            // Digest before `finish`: the journal hook records it, and a
            // waiter reads it the moment the result is published.
            let digest = report
                .degraded
                .is_none()
                .then(|| torus_runtime::delivery_digest(&deliveries));
            shared.finish(
                &job,
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
            shared.finish(
                &job,
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
        }
    }
}
