//! Aggregate service counters and latency histograms.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use torus_runtime::JobOp;

/// Buckets in a [`Histogram`]: one per power of two of microseconds,
/// which covers 1 µs .. ~146 hours with ≤2x relative error.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket concurrent latency histogram.
///
/// Values (microseconds by convention) land in power-of-two buckets:
/// bucket `i` holds values in `[2^(i-1), 2^i)` (bucket 0 holds zero).
/// Recording is a pair of relaxed atomic adds — drivers bump it on the
/// hot path without a lock — and quantiles are computed from a snapshot
/// by cumulative count, which makes `p50 ≤ p95 ≤ p99` structural rather
/// than incidental.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    total: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket holding `value`.
    fn bucket(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper bound (inclusive) of bucket `idx` — the value a quantile
    /// landing in this bucket reports.
    fn bucket_ceiling(idx: usize) -> u64 {
        if idx >= 63 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.counts[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Summarizes the histogram into count/max plus p50/p95/p99.
    ///
    /// Each percentile reports its bucket's ceiling (capped at the true
    /// observed max), so the estimate errs high by at most 2x and the
    /// three are monotone by construction.
    pub fn stats(&self) -> LatencyStats {
        let buckets = self.buckets();
        let count: u64 = buckets.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        if count == 0 {
            return LatencyStats::default();
        }
        let quantile = |pct: u64| -> u64 {
            // Rank of the pct-th percentile observation, 1-based,
            // rounded up (p50 of 1 observation is observation 1).
            let rank = (count * pct).div_ceil(100).max(1);
            let mut seen = 0u64;
            for (idx, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return Self::bucket_ceiling(idx).min(max);
                }
            }
            max
        };
        LatencyStats {
            count,
            p50: quantile(50),
            p95: quantile(95),
            p99: quantile(99),
            max,
        }
    }
}

/// Percentile summary of a [`Histogram`] (microseconds by convention).
///
/// All fields are integers so the containing stats types keep `Eq`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Observations recorded.
    pub count: u64,
    /// 50th-percentile estimate (bucket ceiling, ≤ 2x high).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact maximum observed.
    pub max: u64,
}

/// Aggregate statistics over an engine's lifetime.
///
/// Serializable with the same machinery as
/// [`RuntimeReport`](torus_runtime::RuntimeReport) — the CLI's `--json`
/// mode emits it verbatim.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted to the queue.
    pub jobs_accepted: u64,
    /// Jobs refused by admission control (queue full, tenant quota, or
    /// shutting down).
    pub jobs_rejected: u64,
    /// Jobs that finished with a verified report.
    pub jobs_completed: u64,
    /// Jobs that finished with an error; the engine survived each one.
    pub jobs_failed: u64,
    /// Jobs stopped by an explicit cancel (queued or mid-run).
    pub jobs_cancelled: u64,
    /// Jobs reaped past their wall-clock deadline.
    pub jobs_deadline_exceeded: u64,
    /// Deadline expirations triggered by the watchdog thread itself (a
    /// subset of `jobs_deadline_exceeded` — deadlines can also be
    /// enforced by external token holders).
    pub watchdog_reaps: u64,
    /// Completed jobs that ran in degraded mode (quarantined dead nodes).
    pub jobs_degraded: u64,
    /// Highest queue occupancy observed.
    pub queue_high_water: usize,
    /// Plan-cache lookups served from the cache.
    pub cache_hits: u64,
    /// Plan-cache lookups that had to build a plan.
    pub cache_misses: u64,
    /// Wire bytes moved across all finished jobs.
    pub wire_bytes: u64,
    /// Bytes memcpy'd across all finished jobs (assembly + rearrange).
    pub bytes_copied: u64,
    /// Submit-to-dispatch wait across all jobs, in microseconds.
    pub queue_wait: LatencyStats,
    /// Dispatch-to-finish run time across all jobs, in microseconds.
    pub run_time: LatencyStats,
    /// Jobs accepted per operation, indexed by [`JobOp::index`] (slot
    /// order is [`JobOp::NAMES`]: alltoall, broadcast, scatter, gather,
    /// allgather, reduce, allreduce).
    pub ops_accepted: [u64; JobOp::COUNT],
    /// Jobs completed per operation, same slot order.
    pub ops_completed: [u64; JobOp::COUNT],
}

impl ServiceStats {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "jobs {}/{} ok ({} failed, {} cancelled, {} deadline, {} degraded, {} rejected) | \
             queue hwm {} | cache {}/{} hit | {} wire B | {} copied B | \
             wait p50/p95/p99 {}/{}/{} µs | run p50/p95/p99 {}/{}/{} µs",
            self.jobs_completed,
            self.jobs_accepted,
            self.jobs_failed,
            self.jobs_cancelled,
            self.jobs_deadline_exceeded,
            self.jobs_degraded,
            self.jobs_rejected,
            self.queue_high_water,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.wire_bytes,
            self.bytes_copied,
            self.queue_wait.p50,
            self.queue_wait.p95,
            self.queue_wait.p99,
            self.run_time.p50,
            self.run_time.p95,
            self.run_time.p99,
        )
    }

    /// Cache hit rate in `[0, 1]`; `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// `(accepted, completed)` counters for one op by name, or `None`
    /// for an unknown name. Names are [`JobOp::NAMES`].
    pub fn op_counts(&self, name: &str) -> Option<(u64, u64)> {
        let idx = JobOp::NAMES.iter().position(|n| *n == name)?;
        Some((self.ops_accepted[idx], self.ops_completed[idx]))
    }
}

/// Lock-free counter cells the drivers bump; snapshotted into
/// [`ServiceStats`] on demand.
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub cancelled: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub watchdog_reaps: AtomicU64,
    pub degraded: AtomicU64,
    pub queue_hwm: AtomicUsize,
    pub wire_bytes: AtomicU64,
    pub bytes_copied: AtomicU64,
    pub queue_wait: Histogram,
    pub run_time: Histogram,
    pub ops_accepted: [AtomicU64; JobOp::COUNT],
    pub ops_completed: [AtomicU64; JobOp::COUNT],
}

impl StatCells {
    /// Raises the queue high-water mark to at least `depth`.
    pub fn observe_depth(&self, depth: usize) {
        self.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Snapshot; `cache` counters are supplied by the caller, which
    /// owns the plan cache's lock.
    pub fn snapshot(&self, cache_hits: u64, cache_misses: u64) -> ServiceStats {
        ServiceStats {
            jobs_accepted: self.accepted.load(Ordering::Relaxed),
            jobs_rejected: self.rejected.load(Ordering::Relaxed),
            jobs_completed: self.completed.load(Ordering::Relaxed),
            jobs_failed: self.failed.load(Ordering::Relaxed),
            jobs_cancelled: self.cancelled.load(Ordering::Relaxed),
            jobs_deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            watchdog_reaps: self.watchdog_reaps.load(Ordering::Relaxed),
            jobs_degraded: self.degraded.load(Ordering::Relaxed),
            queue_high_water: self.queue_hwm.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.stats(),
            run_time: self.run_time.stats(),
            ops_accepted: std::array::from_fn(|i| self.ops_accepted[i].load(Ordering::Relaxed)),
            ops_completed: std::array::from_fn(|i| self.ops_completed[i].load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_hit_rate() {
        let stats = ServiceStats {
            jobs_accepted: 10,
            jobs_completed: 9,
            jobs_failed: 1,
            cache_hits: 9,
            cache_misses: 1,
            ..Default::default()
        };
        assert!(stats.summary().contains("9/10 ok"));
        assert_eq!(stats.cache_hit_rate(), Some(0.9));
        assert_eq!(ServiceStats::default().cache_hit_rate(), None);
    }

    #[test]
    fn cells_snapshot_round_trips() {
        let cells = StatCells::default();
        cells.accepted.fetch_add(3, Ordering::Relaxed);
        cells.observe_depth(2);
        cells.observe_depth(1);
        let snap = cells.snapshot(5, 2);
        assert_eq!(snap.jobs_accepted, 3);
        assert_eq!(snap.queue_high_water, 2);
        assert_eq!(snap.cache_hits, 5);
        assert_eq!(snap.cache_misses, 2);
    }

    #[test]
    fn histogram_empty_stats_are_zero() {
        assert_eq!(Histogram::default().stats(), LatencyStats::default());
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_bound_the_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.stats();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // p50 of 1..=1000 is 500; the bucket ceiling estimate may be up
        // to 2x high but never below the true value.
        assert!((500..=1000).contains(&s.p50), "p50 = {}", s.p50);
        assert!(s.p99 >= 990);
    }

    #[test]
    fn histogram_handles_zero_and_huge_values() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let s = h.stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, 0, "first of two sorted observations is 0");
    }

    #[test]
    fn histogram_single_observation_is_every_percentile() {
        let h = Histogram::default();
        h.record(300);
        let s = h.stats();
        // 300 lands in bucket [256, 512); ceiling 511 capped to max 300.
        assert_eq!(s.p50, 300);
        assert_eq!(s.p95, 300);
        assert_eq!(s.p99, 300);
    }
}
