//! Retry/backoff policy, recovery accounting, and failure description.
//!
//! The runtime's failure model has three tiers:
//!
//! 1. **detected** — CRC mismatches, truncated frames, stale sequence
//!    numbers, duplicates: caught by the wire layer, never delivered;
//! 2. **recovered** — anything detected (plus outright drops and
//!    over-deadline delays, caught by the per-step receive deadline) is
//!    healed by bounded retry: the receiver NACKs by pulling the pristine
//!    frame the sender retained for the step and re-validating, with
//!    exponential backoff between attempts;
//! 3. **aborted** — a killed worker or an exhausted retry budget cannot
//!    be healed; the run sets a shared abort flag, every worker falls
//!    through its remaining barriers doing no work (so nothing deadlocks
//!    and no thread leaks), and the caller gets a typed
//!    [`RuntimeError`](crate::RuntimeError) naming the faulty node,
//!    phase, and step plus the partial report.
//!
//! Everything here is bookkeeping; the mechanics (deadlines, NACK
//! pulls, backoff, the abort flag) live in the crate's private executor
//! module, `exec.rs`, shared by every front-end.

use std::time::Duration;

use torus_topology::NodeId;

use crate::fault::FaultEvent;

/// Bounded retry/backoff parameters for the per-step receive loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// How long a scheduled receive waits on the inbox before declaring
    /// the transmission lost and starting recovery.
    pub deadline: Duration,
    /// Recovery attempts after the first failed wait; exceeding this is
    /// unrecoverable and aborts the run.
    pub max_retries: u32,
    /// Base backoff between attempts; attempt `k` waits
    /// `backoff * 2^(k-1)` (capped at [`deadline`](Self::deadline)).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            // Generous: a fault-free run should never trip a deadline
            // even on an oversubscribed CI machine.
            deadline: Duration::from_millis(500),
            max_retries: 4,
            backoff: Duration::from_micros(500),
        }
    }
}

impl RetryPolicy {
    /// Sets the receive deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the base backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// The wait before attempt `attempt` (1-based for retries):
    /// exponential in the base backoff, never beyond the deadline.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let wait = self.backoff.saturating_mul(1u32 << shift);
        wait.min(self.deadline)
    }
}

/// Fault, integrity, and recovery counters for one run (or one worker;
/// they merge additively). All zero on a clean run — asserted by the
/// zero-fault regression tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Injected frame drops.
    pub injected_drops: u64,
    /// Injected single-byte corruptions.
    pub injected_corruptions: u64,
    /// Injected truncations.
    pub injected_truncations: u64,
    /// Injected duplicate deliveries.
    pub injected_duplicates: u64,
    /// Injected delivery delays.
    pub injected_delays: u64,
    /// Injected worker stalls.
    pub injected_stalls: u64,
    /// Injected worker kills.
    pub injected_kills: u64,
    /// Frames rejected by the CRC32 integrity check.
    pub crc_failures: u64,
    /// Frames rejected by framing checks (truncation/trailing bytes).
    pub decode_failures: u64,
    /// Receive deadlines that expired.
    pub timeouts: u64,
    /// Recovery attempts entered (NACK cycles).
    pub retries: u64,
    /// Resends served from the sender's retained send buffer.
    pub resends: u64,
    /// Stale or duplicated frames discarded by sequence check.
    pub stale_discarded: u64,
    /// Scheduled receives that needed recovery and got their frame.
    pub recovered: u64,
}

impl RecoveryStats {
    /// Adds `other` into `self` (workers merge into the run total).
    pub(crate) fn merge(&mut self, other: &RecoveryStats) {
        self.injected_drops += other.injected_drops;
        self.injected_corruptions += other.injected_corruptions;
        self.injected_truncations += other.injected_truncations;
        self.injected_duplicates += other.injected_duplicates;
        self.injected_delays += other.injected_delays;
        self.injected_stalls += other.injected_stalls;
        self.injected_kills += other.injected_kills;
        self.crc_failures += other.crc_failures;
        self.decode_failures += other.decode_failures;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.resends += other.resends;
        self.stale_discarded += other.stale_discarded;
        self.recovered += other.recovered;
    }

    /// Total faults injected on the wire or into workers.
    pub fn total_injected(&self) -> u64 {
        self.injected_drops
            + self.injected_corruptions
            + self.injected_truncations
            + self.injected_duplicates
            + self.injected_delays
            + self.injected_stalls
            + self.injected_kills
    }

    /// True if nothing fired: no injections, no detections, no recovery.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Why a node could not continue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// The retry budget was exhausted waiting for a frame from `src`.
    RetryExhausted {
        /// The peer whose frame never validated.
        src: NodeId,
    },
    /// A frame from `src` failed its integrity checks in a context where
    /// no retry was possible (the fault-free fast path has no retained
    /// resend copy to recover from). Names the exact wire error so the
    /// abort distinguishes "never arrived" from "arrived damaged".
    Integrity {
        /// The peer whose frame failed to validate.
        src: NodeId,
        /// The framing or checksum error the decoder reported.
        error: crate::message::WireError,
    },
    /// The worker hosting `node` was killed by the fault plan.
    WorkerKilled {
        /// The canonical node whose worker was killed.
        node: NodeId,
    },
    /// A node was quarantined by degraded-mode execution: the repaired
    /// schedule routes around it and the run completes for survivors.
    NodeDead {
        /// The quarantined canonical node.
        node: NodeId,
    },
    /// A channel endpoint disappeared mid-run.
    ChannelClosed,
    /// The run was cancelled from outside via a
    /// [`CancelToken`](crate::CancelToken); workers stopped cooperatively
    /// at the next step boundary.
    Cancelled,
    /// The run exceeded its externally imposed wall-clock deadline and
    /// was stopped via a [`CancelToken`](crate::CancelToken).
    DeadlineExceeded,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::RetryExhausted { src } => {
                write!(f, "retry budget exhausted waiting on node {src}")
            }
            FailureReason::Integrity { src, error } => {
                write!(f, "frame from node {src} failed integrity check: {error}")
            }
            FailureReason::WorkerKilled { node } => write!(f, "worker for node {node} killed"),
            FailureReason::NodeDead { node } => write!(f, "node {node} quarantined"),
            FailureReason::ChannelClosed => write!(f, "channel closed"),
            FailureReason::Cancelled => write!(f, "run cancelled"),
            FailureReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// The first unrecoverable failure of a run: which node, where in the
/// schedule, and why. Carried by the partial report and by
/// [`RuntimeError::Aborted`](crate::RuntimeError::Aborted).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeFailure {
    /// The canonical node that failed (for kills: the faulted node).
    pub node: NodeId,
    /// Phase label (e.g. `"phase 2"`) the failure occurred in.
    pub phase: String,
    /// 1-based step within the phase.
    pub step: usize,
    /// Global step index across all phases.
    pub global_step: usize,
    /// Why the node failed.
    pub reason: FailureReason,
}

impl std::fmt::Display for NodeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} failed in {} step {} (global step {}): {}",
            self.node, self.phase, self.step, self.global_step, self.reason
        )
    }
}

/// Merges per-worker fault-event logs into one deterministic order
/// (by step, then sender, then receiver, then attempt) so two runs with
/// the same seed produce byte-identical event lists regardless of thread
/// interleaving.
pub(crate) fn merge_events(per_worker: Vec<Vec<FaultEvent>>) -> Vec<FaultEvent> {
    let mut all: Vec<FaultEvent> = per_worker.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.step, e.src, e.dst, e.attempt));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEventKind, FaultKind};

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_millis(1))
            .with_deadline(Duration::from_millis(6));
        assert_eq!(p.backoff_for(1), Duration::from_millis(1));
        assert_eq!(p.backoff_for(2), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4));
        assert_eq!(p.backoff_for(4), Duration::from_millis(6)); // capped
        assert_eq!(p.backoff_for(40), Duration::from_millis(6)); // shift clamped
    }

    #[test]
    fn stats_merge_additively() {
        let mut a = RecoveryStats {
            injected_drops: 1,
            retries: 2,
            ..Default::default()
        };
        let b = RecoveryStats {
            injected_drops: 3,
            crc_failures: 5,
            recovered: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.injected_drops, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.crc_failures, 5);
        assert_eq!(a.total_injected(), 4);
        assert!(!a.is_clean());
        assert!(RecoveryStats::default().is_clean());
    }

    #[test]
    fn failure_displays_context() {
        let f = NodeFailure {
            node: 12,
            phase: "phase 3".into(),
            step: 2,
            global_step: 7,
            reason: FailureReason::RetryExhausted { src: 4 },
        };
        let s = f.to_string();
        assert!(s.contains("node 12"));
        assert!(s.contains("phase 3"));
        assert!(s.contains("step 2"));
        assert!(s.contains("global step 7"));
        assert!(s.contains("node 4"));
    }

    #[test]
    fn integrity_failure_names_peer_and_wire_error() {
        let reason = FailureReason::Integrity {
            src: 7,
            error: crate::message::WireError::Crc {
                stored: 0xDEAD_BEEF,
                computed: 0x0BAD_F00D,
            },
        };
        let s = reason.to_string();
        assert!(s.contains("node 7"));
        assert!(s.contains("integrity"));
        assert!(s.contains("crc mismatch"));
        assert_ne!(
            reason,
            FailureReason::RetryExhausted { src: 7 },
            "integrity failures are not retry exhaustion"
        );
    }

    #[test]
    fn kill_and_quarantine_reasons_name_the_node() {
        assert_eq!(
            FailureReason::WorkerKilled { node: 9 }.to_string(),
            "worker for node 9 killed"
        );
        assert_eq!(
            FailureReason::NodeDead { node: 3 }.to_string(),
            "node 3 quarantined"
        );
        assert_ne!(
            FailureReason::WorkerKilled { node: 3 },
            FailureReason::NodeDead { node: 3 }
        );
    }

    #[test]
    fn events_merge_deterministically() {
        let ev = |step, src, dst| FaultEvent {
            step,
            src,
            dst,
            attempt: 0,
            kind: FaultEventKind::Message(FaultKind::Drop),
        };
        let merged = merge_events(vec![
            vec![ev(3, 0, 1), ev(1, 2, 3)],
            vec![ev(1, 0, 2), ev(0, 5, 5)],
        ]);
        let keys: Vec<(usize, u32, u32)> = merged.iter().map(|e| (e.step, e.src, e.dst)).collect();
        assert_eq!(keys, vec![(0, 5, 5), (1, 0, 2), (1, 2, 3), (3, 0, 1)]);
    }
}
