//! Degraded-mode execution policy and reporting.
//!
//! With [`OnFailure::Abort`] (the default, and the only behavior before
//! degraded mode existed) an unrecoverable fault ends the run with
//! [`RuntimeError::Aborted`](crate::RuntimeError::Aborted). With
//! [`OnFailure::Degrade`] the runtime instead quarantines the failed node
//! and executes a *repaired* schedule
//! ([`alltoall_core::repair::RepairedSchedule`]): scatter rings contract
//! around dead members, blocks with a dead endpoint are dropped and
//! accounted, submesh exchanges with a dead partner fall back to direct
//! pairwise sends, and the run completes bit-exactly for every
//! survivor→survivor block. The [`DegradedReport`] summarizing the
//! degradation is attached to the
//! [`RuntimeReport`](crate::RuntimeReport) and contains no timing or
//! thread-dependent data, so identical seeds yield byte-identical
//! degraded reports regardless of worker count.

use alltoall_core::DroppedBlock;
use torus_topology::NodeId;

use crate::recovery::FailureReason;

/// What the runtime does when a node suffers an unrecoverable fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnFailure {
    /// Abort the whole run with a typed error and a partial report.
    #[default]
    Abort,
    /// Quarantine the failed node, repair the remaining schedule, and
    /// complete the exchange for all survivors.
    Degrade,
}

impl OnFailure {
    /// Parses a CLI policy value (`"abort"` or `"degrade"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "abort" => Ok(Self::Abort),
            "degrade" => Ok(Self::Degrade),
            other => Err(format!(
                "unknown failure policy '{other}' (expected 'abort' or 'degrade')"
            )),
        }
    }
}

impl std::fmt::Display for OnFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Abort => write!(f, "abort"),
            Self::Degrade => write!(f, "degrade"),
        }
    }
}

/// One quarantined node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadNode {
    /// Canonical node id (the id the schedule executes with).
    pub node: NodeId,
    /// The real node id it maps from, `None` if the canonical node is a
    /// padding-only virtual node.
    pub original: Option<NodeId>,
    /// Global step index from which the node is dead (clamped to the end
    /// of the base plan).
    pub quarantine_step: usize,
    /// Why the node was quarantined.
    pub reason: FailureReason,
}

/// How a degraded run deviated from the fault-free plan. Everything here
/// is a pure function of (schedule, fault plan, payload sizes): no
/// timing, no thread counts — byte-identical across reruns.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedReport {
    /// Quarantined nodes, sorted by canonical id.
    pub dead_nodes: Vec<DeadNode>,
    /// Number of blocks removed because an endpoint died.
    pub dropped_blocks: u64,
    /// Every dropped block, sorted by `(src, dst)`.
    pub dropped: Vec<DroppedBlock>,
    /// Distinct scatter rings contracted around dead members.
    pub contracted_rings: u64,
    /// Scatter sends that spanned more than one 4-stride link.
    pub contracted_sends: u64,
    /// Steps in the appended direct-exchange fallback phase.
    pub fallback_steps: u64,
    /// Blocks delivered by fallback sends.
    pub fallback_blocks: u64,
    /// Wire bytes the fault-free plan would have moved for this payload
    /// set (headers included).
    pub baseline_wire_bytes: u64,
    /// Measured wire bytes minus the fault-free baseline. Negative when
    /// the dead nodes' absent traffic outweighs repair overhead.
    pub extra_wire_bytes: i64,
    /// Times the run restarted to quarantine a dynamically-failed node
    /// (0 when every dead node was known from pinned kills).
    pub restarts: u32,
    /// True when every survivor received every survivor block bit-exactly.
    pub verified_degraded: bool,
}

impl DegradedReport {
    /// One-line text summary for [`RuntimeReport::summary`](crate::RuntimeReport::summary).
    pub fn summary_line(&self) -> String {
        let nodes: Vec<String> = self
            .dead_nodes
            .iter()
            .map(|d| format!("{}@{}", d.node, d.quarantine_step))
            .collect();
        format!(
            "DEGRADED: dead [{}], {} blocks dropped, {} rings contracted \
             ({} sends), {} fallback steps ({} blocks), {:+} wire bytes vs \
             fault-free, {} restarts, survivors {}",
            nodes.join(", "),
            self.dropped_blocks,
            self.contracted_rings,
            self.contracted_sends,
            self.fallback_steps,
            self.fallback_blocks,
            self.extra_wire_bytes,
            self.restarts,
            if self.verified_degraded {
                "verified"
            } else {
                "NOT verified"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_displays() {
        assert_eq!(OnFailure::parse("abort").unwrap(), OnFailure::Abort);
        assert_eq!(OnFailure::parse("degrade").unwrap(), OnFailure::Degrade);
        assert!(OnFailure::parse("panic").is_err());
        assert_eq!(OnFailure::Abort.to_string(), "abort");
        assert_eq!(OnFailure::Degrade.to_string(), "degrade");
        assert_eq!(OnFailure::default(), OnFailure::Abort);
    }

    #[test]
    fn summary_line_names_the_dead() {
        let rep = DegradedReport {
            dead_nodes: vec![DeadNode {
                node: 7,
                original: Some(7),
                quarantine_step: 3,
                reason: FailureReason::WorkerKilled { node: 7 },
            }],
            dropped_blocks: 126,
            dropped: Vec::new(),
            contracted_rings: 2,
            contracted_sends: 4,
            fallback_steps: 3,
            fallback_blocks: 11,
            baseline_wire_bytes: 100_000,
            extra_wire_bytes: -1_234,
            restarts: 0,
            verified_degraded: true,
        };
        let line = rep.summary_line();
        assert!(line.contains("7@3"));
        assert!(line.contains("126 blocks dropped"));
        assert!(line.contains("-1234 wire bytes"));
        assert!(line.contains("survivors verified"));
    }
}
