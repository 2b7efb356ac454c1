//! Job handles: the client's view of a submitted exchange.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use bytes::Bytes;
use torus_runtime::{CancelToken, RuntimeReport};
use torus_topology::NodeId;

/// Why [`Engine::submit`](crate::Engine::submit) refused a job.
///
/// Overload rejections carry a `retry_after_ms` hint: the engine's best
/// estimate of when a resubmission is likely to be admitted. Clients
/// that honor it (see the daemon client's `submit_with_retry`) turn
/// saturation into slower admission instead of hard errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is at its configured depth; resubmit
    /// after in-flight jobs drain.
    QueueFull {
        /// The queue depth at rejection time (== the configured bound).
        depth: usize,
        /// Suggested wait before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// The submitting tenant alone is at its queued-jobs quota, even
    /// though the global queue may have room. Resubmit after this
    /// tenant's jobs drain.
    TenantQueueFull {
        /// The tenant that hit its quota.
        tenant: String,
        /// The tenant's configured cap at rejection time.
        max_queued: usize,
        /// Suggested wait before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's token-bucket rate limit is spent; resubmit after
    /// the bucket refills.
    RateLimited {
        /// The tenant that exceeded its rate.
        tenant: String,
        /// Milliseconds until one whole token will have accumulated.
        retry_after_ms: u64,
    },
    /// [`Engine::shutdown`](crate::Engine::shutdown) has begun; no new
    /// jobs are accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                depth,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "job rejected: queue full at depth {depth} (retry after {retry_after_ms} ms)"
                )
            }
            SubmitError::TenantQueueFull {
                tenant,
                max_queued,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "job rejected: tenant {tenant:?} is at its queued-jobs quota ({max_queued}, \
                     retry after {retry_after_ms} ms)"
                )
            }
            SubmitError::RateLimited {
                tenant,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "job rejected: tenant {tenant:?} is over its admission rate \
                     (retry after {retry_after_ms} ms)"
                )
            }
            SubmitError::ShuttingDown => write!(f, "job rejected: engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job-lifecycle notification delivered to the engine's optional
/// event hook (see `EngineConfig::with_event_hook`).
///
/// Fired synchronously by the driver that owns the transition. A
/// `Finished` event fires *before* the job's terminal result is
/// published: until every hook has returned, the job's handle still
/// reads `Running` (or `Queued`), so whatever a hook records — the
/// daemon's journaled terminal record — exists before any waiter or
/// status poll can see the job finish. Hooks must be fast and must not
/// call back into the engine.
#[derive(Debug)]
pub enum JobEvent<'a> {
    /// A driver claimed the job and is about to execute it.
    Started {
        /// Engine-assigned job id.
        job_id: u64,
        /// The owning tenant.
        tenant: &'a str,
    },
    /// The job reached a terminal state.
    Finished {
        /// Engine-assigned job id.
        job_id: u64,
        /// The owning tenant.
        tenant: &'a str,
        /// A terminal status: [`JobStatus::Completed`],
        /// [`JobStatus::Failed`], [`JobStatus::Cancelled`], or
        /// [`JobStatus::DeadlineExceeded`].
        status: JobStatus,
        /// The job's full result (report, deliveries, error).
        result: &'a JobResult,
    },
}

/// The engine's job-lifecycle observer: a shared closure invoked by
/// driver threads. Used by the daemon to journal `done` records without
/// a per-job watcher thread.
pub type EventHook = Arc<dyn Fn(JobEvent<'_>) + Send + Sync>;

/// Lifecycle of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a driver.
    Queued,
    /// A driver is executing it on the shared pool.
    Running,
    /// Finished with a verified report.
    Completed,
    /// Finished with an error (setup failure, abort, or panic). The
    /// engine itself is unaffected.
    Failed,
    /// Stopped by an explicit [`Engine::cancel`](crate::Engine::cancel)
    /// — removed from the queue, or aborted cooperatively mid-run with
    /// a partial report.
    Cancelled,
    /// Aborted at the run's first checkpoint past its wall-clock
    /// deadline (or by an external token's deadline), with a partial
    /// report.
    DeadlineExceeded,
}

impl JobStatus {
    /// Whether this status is terminal (the job will never transition
    /// again and its result is available).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// The outcome of one job.
#[derive(Debug)]
pub struct JobResult {
    /// Engine-assigned submission id (FIFO order).
    pub job_id: u64,
    /// The runtime report. Present on completion; also present on a
    /// fault abort (partial measurements, `verified = false`).
    pub report: Option<RuntimeReport>,
    /// Per original node, the delivered `(source, payload)` pairs —
    /// present only on completion.
    pub deliveries: Option<Vec<Vec<(NodeId, Bytes)>>>,
    /// The delivery digest of `deliveries`
    /// ([`torus_runtime::delivery_digest`]), computed once by the driver
    /// that ran the job — present only on a clean (undegraded)
    /// completion, since a degraded run drops dead-node blocks and its
    /// digest could never match the spec's.
    pub digest: Option<u64>,
    /// The failure description when [`JobStatus::Failed`].
    pub error: Option<String>,
    /// Whether the job's plan came from the cache.
    pub cache_hit: bool,
}

/// Shared state between a [`JobHandle`] and the engine's drivers.
pub(crate) struct JobState {
    slot: Mutex<Slot>,
    done: Condvar,
    /// The job's cancel trigger, created at admission so
    /// [`Engine::cancel`](crate::Engine::cancel) reaches the job in every
    /// pre-terminal state without racing the queue→running handoff.
    pub(crate) token: CancelToken,
}

/// What [`JobState`]'s lock guards.
struct Slot {
    status: JobStatus,
    result: Option<Arc<JobResult>>,
    /// Set by [`JobHandle::on_finish`]; taken and run by `finish`.
    on_finish: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slot = self.lock();
        f.debug_struct("JobState")
            .field("status", &slot.status)
            .field("result", &slot.result)
            .finish_non_exhaustive()
    }
}

impl JobState {
    pub(crate) fn new() -> Self {
        Self {
            slot: Mutex::new(Slot {
                status: JobStatus::Queued,
                result: None,
                on_finish: None,
            }),
            done: Condvar::new(),
            token: CancelToken::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn set_running(&self) {
        self.lock().status = JobStatus::Running;
    }

    /// Publishes the terminal status and result, wakes every waiter,
    /// then runs the [`on_finish`](JobHandle::on_finish) notifier, if
    /// any, outside the lock.
    pub(crate) fn finish(&self, status: JobStatus, result: JobResult) {
        let notify = {
            let mut slot = self.lock();
            slot.status = status;
            slot.result = Some(Arc::new(result));
            self.done.notify_all();
            slot.on_finish.take()
        };
        if let Some(notify) = notify {
            notify();
        }
    }
}

/// A client's handle to a submitted job. Cheap to clone; dropping it
/// does not cancel the job.
#[derive(Clone, Debug)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) state: Arc<JobState>,
}

impl JobHandle {
    /// The engine-assigned submission id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's current status without blocking.
    pub fn try_status(&self) -> JobStatus {
        self.state.lock().status
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(&self) -> Arc<JobResult> {
        let mut slot = self.state.lock();
        loop {
            if let Some(result) = &slot.result {
                return Arc::clone(result);
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Runs `notify` once, as soon as the job is terminal and its result
    /// is published (so [`try_status`](Self::try_status) reads terminal
    /// and [`wait`](Self::wait) does not block): at once on this thread
    /// if it already is, otherwise on the driver thread that finishes
    /// it. One notifier per job; a second call replaces the first. Like
    /// an event hook it must be fast and must not call back into the
    /// engine.
    pub fn on_finish(&self, notify: impl FnOnce() + Send + 'static) {
        let mut slot = self.state.lock();
        if slot.result.is_none() {
            slot.on_finish = Some(Box::new(notify));
            return;
        }
        drop(slot);
        notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_wait_returns_after_finish() {
        let state = Arc::new(JobState::new());
        let handle = JobHandle {
            id: 3,
            state: Arc::clone(&state),
        };
        assert_eq!(handle.try_status(), JobStatus::Queued);
        state.set_running();
        assert_eq!(handle.try_status(), JobStatus::Running);
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait())
        };
        state.finish(
            JobStatus::Failed,
            JobResult {
                job_id: 3,
                report: None,
                deliveries: None,
                digest: None,
                error: Some("boom".to_string()),
                cache_hit: false,
            },
        );
        let result = waiter.join().unwrap();
        assert_eq!(result.job_id, 3);
        assert_eq!(result.error.as_deref(), Some("boom"));
        assert_eq!(handle.try_status(), JobStatus::Failed);
    }

    /// The notifier runs once, after the result is published: one set
    /// while the job runs sees it terminal from inside the call, and one
    /// set after the finish runs at once.
    #[test]
    fn on_finish_runs_once_after_the_result_is_published() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let state = Arc::new(JobState::new());
        let handle = JobHandle {
            id: 5,
            state: Arc::clone(&state),
        };
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let (handle, calls) = (handle.clone(), Arc::clone(&calls));
            handle.clone().on_finish(move || {
                assert_eq!(handle.try_status(), JobStatus::Completed);
                assert_eq!(handle.wait().job_id, 5);
                calls.fetch_add(1, Ordering::SeqCst);
            });
        }
        state.set_running();
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        state.finish(
            JobStatus::Completed,
            JobResult {
                job_id: 5,
                report: None,
                deliveries: None,
                digest: None,
                error: None,
                cache_hit: false,
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let late = Arc::clone(&calls);
        handle.on_finish(move || {
            late.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn submit_error_messages_name_the_cause() {
        let queue_full = SubmitError::QueueFull {
            depth: 4,
            retry_after_ms: 25,
        };
        assert!(queue_full.to_string().contains("4"));
        assert!(queue_full.to_string().contains("25 ms"));
        let tenant_full = SubmitError::TenantQueueFull {
            tenant: "acme".to_string(),
            max_queued: 2,
            retry_after_ms: 10,
        };
        assert!(tenant_full.to_string().contains("acme"));
        assert!(tenant_full.to_string().contains("2"));
        let limited = SubmitError::RateLimited {
            tenant: "acme".to_string(),
            retry_after_ms: 7,
        };
        assert!(limited.to_string().contains("rate"));
        assert!(limited.to_string().contains("7 ms"));
        assert!(SubmitError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }
}
