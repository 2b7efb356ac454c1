//! Multi-tenant admission: quotas and per-tenant accounting.
//!
//! Every submission names a tenant (the engine's bare
//! [`submit`](crate::Engine::submit) uses [`DEFAULT_TENANT`]). Tenants
//! share the engine's bounded queue and worker pool but are isolated at
//! admission and dispatch:
//!
//! * a per-tenant **queued cap** rejects a tenant's submissions once it
//!   alone holds `max_queued` slots, before the global bound is reached
//!   — one chatty tenant cannot fill the queue for everyone;
//! * a per-tenant **in-flight cap** holds a tenant's queued jobs back
//!   while `max_in_flight` of its jobs are executing, so dispatch
//!   bandwidth is shared even when only one tenant has work queued;
//! * dequeue is **round-robin across tenants**, not global FIFO, so two
//!   tenants submitting in bursts interleave fairly;
//! * an optional per-tenant **token-bucket rate limit** converts
//!   sustained overload into typed
//!   [`RateLimited`](crate::SubmitError::RateLimited) rejections that
//!   carry a `retry_after_ms` hint, so a well-behaved client backs off
//!   instead of hammering the queue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::{Histogram, LatencyStats};

/// The tenant used by [`Engine::submit`](crate::Engine::submit) when no
/// tenant is named.
pub const DEFAULT_TENANT: &str = "default";

/// A token-bucket admission rate: sustained submissions above
/// `tokens_per_sec` are rejected once the `burst` allowance is spent.
///
/// The bucket refills continuously; a rejection's `retry_after_ms`
/// reports how long until one whole token will have accumulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained admissions per second this tenant may make.
    pub tokens_per_sec: u32,
    /// Extra submissions allowed in a burst before the sustained rate
    /// gates admission (the bucket's capacity).
    pub burst: u32,
}

impl RateLimit {
    /// A limit of `tokens_per_sec` sustained with a burst of the same
    /// size (both clamped to at least 1).
    pub fn per_sec(tokens_per_sec: u32) -> Self {
        Self {
            tokens_per_sec: tokens_per_sec.max(1),
            burst: tokens_per_sec.max(1),
        }
    }

    /// Sets the burst allowance (clamped to at least 1).
    pub fn with_burst(mut self, burst: u32) -> Self {
        self.burst = burst.max(1);
        self
    }
}

/// Per-tenant admission limits. The defaults are unlimited — the
/// engine's global queue depth is then the only bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most jobs this tenant may hold in the queue at once; further
    /// submissions get [`SubmitError::TenantQueueFull`](crate::SubmitError::TenantQueueFull).
    pub max_queued: usize,
    /// Most of this tenant's jobs that may execute concurrently; queued
    /// jobs beyond it wait (they are not rejected).
    pub max_in_flight: usize,
    /// Optional token-bucket rate limit; `None` leaves the tenant's
    /// submission rate ungated.
    pub rate: Option<RateLimit>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_queued: usize::MAX,
            max_in_flight: usize::MAX,
            rate: None,
        }
    }
}

impl TenantQuota {
    /// Sets the queued-jobs cap (clamped to at least 1).
    pub fn with_max_queued(mut self, max: usize) -> Self {
        self.max_queued = max.max(1);
        self
    }

    /// Sets the concurrent-execution cap (clamped to at least 1).
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max.max(1);
        self
    }

    /// Sets the token-bucket rate limit.
    pub fn with_rate_limit(mut self, rate: RateLimit) -> Self {
        self.rate = Some(rate);
        self
    }
}

/// One tenant's token-bucket state, advanced lazily at each submission.
///
/// Lives inside the engine's queue mutex, so plain `f64` arithmetic is
/// race-free. Tokens refill continuously at the quota's rate and cap at
/// its burst; each admission spends one token.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A full bucket (the burst allowance is immediately available).
    pub(crate) fn full(rate: &RateLimit) -> Self {
        Self {
            tokens: rate.burst as f64,
            last_refill: Instant::now(),
        }
    }

    /// Refills for elapsed time, then either spends one token (`Ok`) or
    /// reports how many milliseconds until a whole token accumulates.
    pub(crate) fn try_take(&mut self, rate: &RateLimit) -> Result<(), u64> {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * rate.tokens_per_sec as f64).min(rate.burst as f64);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            let wait_ms = (deficit / rate.tokens_per_sec as f64 * 1000.0).ceil() as u64;
            Err(wait_ms.max(1))
        }
    }
}

/// A point-in-time snapshot of one tenant's counters and latencies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's id.
    pub tenant: String,
    /// Jobs admitted to the queue.
    pub jobs_accepted: u64,
    /// Jobs refused (tenant quota or global bound).
    pub jobs_rejected: u64,
    /// Jobs finished with a verified report.
    pub jobs_completed: u64,
    /// Jobs finished with an error.
    pub jobs_failed: u64,
    /// Jobs stopped by an explicit cancel.
    pub jobs_cancelled: u64,
    /// Jobs reaped past their wall-clock deadline.
    pub jobs_deadline_exceeded: u64,
    /// Submit-to-dispatch wait, in microseconds.
    pub queue_wait: LatencyStats,
    /// Dispatch-to-finish run time, in microseconds.
    pub run_time: LatencyStats,
}

/// Lock-free per-tenant cells, bumped by submitters and drivers.
#[derive(Debug, Default)]
pub(crate) struct TenantCells {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub cancelled: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub queue_wait: Histogram,
    pub run_time: Histogram,
}

impl TenantCells {
    pub(crate) fn snapshot(&self, tenant: &str) -> TenantStats {
        TenantStats {
            tenant: tenant.to_string(),
            jobs_accepted: self.accepted.load(Ordering::Relaxed),
            jobs_rejected: self.rejected.load(Ordering::Relaxed),
            jobs_completed: self.completed.load(Ordering::Relaxed),
            jobs_failed: self.failed.load(Ordering::Relaxed),
            jobs_cancelled: self.cancelled.load(Ordering::Relaxed),
            jobs_deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.stats(),
            run_time: self.run_time.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_builders_clamp_to_one() {
        let q = TenantQuota::default()
            .with_max_queued(0)
            .with_max_in_flight(0);
        assert_eq!(q.max_queued, 1);
        assert_eq!(q.max_in_flight, 1);
        assert_eq!(TenantQuota::default().max_queued, usize::MAX);
        assert_eq!(TenantQuota::default().rate, None);
        assert_eq!(RateLimit::per_sec(0).tokens_per_sec, 1);
        assert_eq!(RateLimit::per_sec(10).with_burst(0).burst, 1);
    }

    #[test]
    fn token_bucket_spends_burst_then_reports_wait() {
        let rate = RateLimit::per_sec(5).with_burst(3);
        let mut bucket = TokenBucket::full(&rate);
        for _ in 0..3 {
            assert_eq!(bucket.try_take(&rate), Ok(()));
        }
        // Bucket drained; the next take must wait for a refill. At
        // 5 tokens/s a whole token is at most 200 ms away.
        let wait = bucket.try_take(&rate).unwrap_err();
        assert!((1..=200).contains(&wait), "wait {wait} ms");
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let rate = RateLimit::per_sec(1000).with_burst(1);
        let mut bucket = TokenBucket::full(&rate);
        assert_eq!(bucket.try_take(&rate), Ok(()));
        // At 1000 tokens/s a token is back within a few ms.
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if bucket.try_take(&rate).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "bucket never refilled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn cells_snapshot_carries_latencies() {
        let cells = TenantCells::default();
        cells.accepted.fetch_add(2, Ordering::Relaxed);
        cells.queue_wait.record(100);
        cells.run_time.record(1000);
        let snap = cells.snapshot("acme");
        assert_eq!(snap.tenant, "acme");
        assert_eq!(snap.jobs_accepted, 2);
        assert_eq!(snap.queue_wait.count, 1);
        assert!(snap.run_time.p50 >= 1000);
    }
}
