//! Measured execution reports.
//!
//! A [`RuntimeReport`] is the byte-moving counterpart of
//! [`ExchangeReport`](alltoall_core::ExchangeReport): instead of modeled
//! time it carries *measured* wall time, broken down the way the paper's
//! cost analysis is — per phase, and within each phase into message
//! assembly (its send and receive halves: building and checksumming
//! frames, verifying and taking them apart), transport (channel
//! traffic), and the inter-phase data rearrangement. The analytic
//! [`CompletionTime`](cost_model::CompletionTime) for the same shape and
//! parameters rides along so model and measurement can be compared in one
//! artifact, and the [`Trace`](torus_sim::Trace) slot feeds the existing
//! figure harness unchanged.

use std::time::Duration;

use cost_model::CompletionTime;
use serde::Serialize;
use torus_sim::Trace;

use crate::degrade::DegradedReport;
use crate::fault::FaultEvent;
use crate::recovery::{NodeFailure, RecoveryStats};

/// Measured totals for one of the `n + 2` phases.
#[derive(Clone, Debug, Default, Serialize)]
pub struct PhaseReport {
    /// Phase label (`"phase 1"`…), matching the trace and the paper.
    pub name: String,
    /// Communication steps executed.
    pub steps: usize,
    /// Wall time of the whole phase, including its trailing rearrangement.
    pub wall: Duration,
    /// Send half of assembly: worker time spent building combined
    /// messages (block selection, framing, CRC stamp), summed over
    /// workers.
    pub assembly_send: Duration,
    /// Receive half of assembly: worker time spent taking combined
    /// messages apart (decode, CRC verify, absorbing the blocks), summed
    /// over workers.
    pub assembly_recv: Duration,
    /// Worker time spent on channel sends and receives, summed over
    /// workers.
    pub transport: Duration,
    /// Worker time spent in the inter-phase rearrangement pass, summed
    /// over workers (zero for the final phase).
    pub rearrange: Duration,
    /// Bytes put on the wire (framing + payloads).
    pub wire_bytes: u64,
    /// Payload bytes the rearrangement pass re-ordered — by handle on
    /// gathered frames, by copy on contiguous ones (fault plans). The
    /// input to the cost model's `ρ` term either way.
    pub rearranged_bytes: u64,
    /// Bytes the send path actually copied while assembling frames.
    /// Fault-free this is framing only (headers); under a fault plan
    /// frames are materialized contiguously and it equals `wire_bytes`.
    pub bytes_copied: u64,
    /// Send-path buffer acquisitions that missed the worker's frame pool,
    /// plus, under a fault plan, the always-allocating contiguous encodes
    /// and rearrangement arenas. Stops growing once the pools are warm.
    pub allocations: u64,
    /// Combined messages sent.
    pub messages: u64,
}

/// Full measured report of one runtime execution.
#[derive(Clone, Debug, Serialize)]
pub struct RuntimeReport {
    /// Original (user-facing) torus extents.
    pub dims: Vec<u32>,
    /// Canonical extents actually executed (padding/permutation applied).
    pub executed_dims: Vec<u32>,
    /// Whether virtual-node padding was in effect.
    pub padded: bool,
    /// Number of real nodes.
    pub nodes: u32,
    /// Payload bytes per block (the paper's `m`) used for seeding and the
    /// analytic prediction.
    pub block_bytes: usize,
    /// Worker threads the nodes were multiplexed onto.
    pub workers: usize,
    /// Per-phase measurements, execution order.
    pub phases: Vec<PhaseReport>,
    /// End-to-end wall time (seeding and verification excluded).
    pub wall: Duration,
    /// Total bytes put on the wire.
    pub wire_bytes: u64,
    /// Total payload bytes the rearrangement passes re-ordered (by handle
    /// on gathered frames, by copy on contiguous ones).
    pub rearranged_bytes: u64,
    /// Total bytes the send path copied assembling frames. Fault-free
    /// the scatter-gather encoder copies only headers
    /// (`messages * MESSAGE_HEADER_BYTES + blocks * BLOCK_HEADER_BYTES`),
    /// never payloads — the visible form of the zero-copy send path.
    pub bytes_copied: u64,
    /// Total buffer acquisitions that hit the allocator (frame pool
    /// misses; under a fault plan also contiguous encodes and
    /// rearrangement arenas).
    pub allocations: u64,
    /// Peak bytes resident in any single node's buffer at a step boundary.
    pub peak_node_bytes: u64,
    /// Total combined messages sent.
    pub messages: u64,
    /// Whether delivery verified (correct block set at every node *and*
    /// bit-exact payloads). [`Runtime::run`](crate::Runtime::run) returns
    /// an error instead of a report with `verified = false`; partial
    /// reports carried by
    /// [`RuntimeError::Aborted`](crate::RuntimeError::Aborted) have
    /// `verified = false`.
    pub verified: bool,
    /// Fault, integrity, and recovery counters. All-zero
    /// ([`RecoveryStats::is_clean`]) on a fault-free run.
    pub faults: RecoveryStats,
    /// Every injected fault, in deterministic `(step, src, dst, attempt)`
    /// order — two runs with the same seed and config produce identical
    /// lists.
    pub fault_events: Vec<FaultEvent>,
    /// The first unrecoverable failure, if the run aborted (always
    /// `None` on a successful run).
    pub failure: Option<NodeFailure>,
    /// Degraded-mode accounting: present exactly when the run quarantined
    /// at least one node under [`OnFailure::Degrade`](crate::OnFailure)
    /// and completed for the survivors. `None` on fault-free runs, on
    /// aborted runs, and on degrade-policy runs that never lost a node.
    pub degraded: Option<DegradedReport>,
    /// The Table 1 closed-form prediction for the executed shape under the
    /// configured [`CommParams`](cost_model::CommParams).
    pub analytic: CompletionTime,
    /// Per-step trace in the same format the simulator emits (step walls
    /// in `time_us`), consumable by the figure harness.
    pub trace: Trace,
}

impl RuntimeReport {
    /// Total worker time spent assembling/disassembling messages: both
    /// halves, send and receive.
    pub fn assembly(&self) -> Duration {
        self.phases
            .iter()
            .map(|p| p.assembly_send + p.assembly_recv)
            .sum()
    }

    /// Total worker time spent on channel transport.
    pub fn transport(&self) -> Duration {
        self.phases.iter().map(|p| p.transport).sum()
    }

    /// Total worker time spent rearranging.
    pub fn rearrange(&self) -> Duration {
        self.phases.iter().map(|p| p.rearrange).sum()
    }

    /// Total communication steps executed.
    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(|p| p.steps).sum()
    }

    /// One-line-per-phase human summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let dims = |d: &[u32]| {
            d.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("x")
        };
        let _ = writeln!(
            s,
            "runtime exchange on {} ({} nodes{}, {} workers, {} B blocks): \
             {:.3} ms wall, {} steps, {} messages, {} wire bytes, {} copied, \
             {} allocations, verified={}",
            dims(&self.dims),
            self.nodes,
            if self.padded {
                format!(", executed as {}", dims(&self.executed_dims))
            } else {
                String::new()
            },
            self.workers,
            self.block_bytes,
            self.wall.as_secs_f64() * 1e3,
            self.total_steps(),
            self.messages,
            self.wire_bytes,
            self.bytes_copied,
            self.allocations,
            self.verified,
        );
        for p in &self.phases {
            let _ = writeln!(
                s,
                "  {:<9} {:>2} steps  wall {:>9.3} ms  assembly send {:>9.3} ms  \
                 recv {:>9.3} ms  transport {:>9.3} ms  rearrange {:>9.3} ms  {:>12} wire B  \
                 {:>12} rearr B  {:>10} copied B",
                p.name,
                p.steps,
                p.wall.as_secs_f64() * 1e3,
                p.assembly_send.as_secs_f64() * 1e3,
                p.assembly_recv.as_secs_f64() * 1e3,
                p.transport.as_secs_f64() * 1e3,
                p.rearrange.as_secs_f64() * 1e3,
                p.wire_bytes,
                p.rearranged_bytes,
                p.bytes_copied,
            );
        }
        if !self.faults.is_clean() {
            let _ = writeln!(
                s,
                "  faults: {} injected ({} drop, {} corrupt, {} truncate, {} dup, {} delay, \
                 {} stall, {} kill); detected: {} crc, {} framing; recovery: {} timeouts, \
                 {} retries, {} resends, {} stale discarded, {} recovered",
                self.faults.total_injected(),
                self.faults.injected_drops,
                self.faults.injected_corruptions,
                self.faults.injected_truncations,
                self.faults.injected_duplicates,
                self.faults.injected_delays,
                self.faults.injected_stalls,
                self.faults.injected_kills,
                self.faults.crc_failures,
                self.faults.decode_failures,
                self.faults.timeouts,
                self.faults.retries,
                self.faults.resends,
                self.faults.stale_discarded,
                self.faults.recovered,
            );
        }
        if let Some(failure) = &self.failure {
            let _ = writeln!(s, "  ABORTED: {failure}");
        }
        if let Some(degraded) = &self.degraded {
            let _ = writeln!(s, "  {}", degraded.summary_line());
        }
        let _ = write!(
            s,
            "  peak node residency {} B; analytic model: {:.1} us total ({} dominant)",
            self.peak_node_bytes,
            self.analytic.total(),
            self.analytic.dominant(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuntimeReport {
        RuntimeReport {
            dims: vec![8, 8],
            executed_dims: vec![8, 8],
            padded: false,
            nodes: 64,
            block_bytes: 64,
            workers: 4,
            phases: vec![
                PhaseReport {
                    name: "phase 1".into(),
                    steps: 1,
                    wall: Duration::from_micros(500),
                    assembly_send: Duration::from_micros(120),
                    assembly_recv: Duration::from_micros(80),
                    transport: Duration::from_micros(100),
                    rearrange: Duration::from_micros(50),
                    wire_bytes: 4096,
                    rearranged_bytes: 2048,
                    bytes_copied: 1024,
                    allocations: 80,
                    messages: 64,
                },
                PhaseReport {
                    name: "phase 2".into(),
                    steps: 1,
                    wall: Duration::from_micros(400),
                    assembly_send: Duration::from_micros(90),
                    assembly_recv: Duration::from_micros(60),
                    transport: Duration::from_micros(80),
                    rearrange: Duration::default(),
                    wire_bytes: 2048,
                    rearranged_bytes: 0,
                    bytes_copied: 512,
                    allocations: 0,
                    messages: 64,
                },
            ],
            wall: Duration::from_micros(900),
            wire_bytes: 6144,
            rearranged_bytes: 2048,
            bytes_copied: 1536,
            allocations: 80,
            peak_node_bytes: 8192,
            messages: 128,
            verified: true,
            faults: RecoveryStats::default(),
            fault_events: Vec::new(),
            failure: None,
            degraded: None,
            analytic: CompletionTime::default(),
            trace: Trace::default(),
        }
    }

    #[test]
    fn totals_sum_phases() {
        let r = sample();
        assert_eq!(r.assembly(), Duration::from_micros(350));
        assert_eq!(r.transport(), Duration::from_micros(180));
        assert_eq!(r.rearrange(), Duration::from_micros(50));
        assert_eq!(r.total_steps(), 2);
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let s = sample().summary();
        assert!(s.contains("8x8"));
        assert!(s.contains("verified=true"));
        assert!(s.contains("phase 1"));
        assert!(s.contains("peak node residency 8192 B"));
        assert!(s.contains("1536 copied"));
        assert!(s.contains("80 allocations"));
        assert!(s.contains("assembly send     0.120 ms  recv     0.080 ms"));
    }

    #[test]
    fn padded_summary_names_executed_shape() {
        let mut r = sample();
        r.dims = vec![6, 6];
        r.padded = true;
        assert!(r.summary().contains("executed as 8x8"));
    }

    #[test]
    fn summary_reports_faults_only_when_present() {
        let mut r = sample();
        assert!(!r.summary().contains("faults:"));
        r.faults.injected_drops = 2;
        r.faults.retries = 3;
        r.faults.recovered = 2;
        let s = r.summary();
        assert!(s.contains("faults: 2 injected"));
        assert!(s.contains("3 retries"));
        assert!(!s.contains("ABORTED"));
    }

    #[test]
    fn summary_names_abort_context() {
        let mut r = sample();
        r.verified = false;
        r.failure = Some(crate::recovery::NodeFailure {
            node: 5,
            phase: "phase 2".into(),
            step: 1,
            global_step: 3,
            reason: crate::recovery::FailureReason::WorkerKilled { node: 5 },
        });
        let s = r.summary();
        assert!(s.contains("ABORTED"));
        assert!(s.contains("node 5"));
        assert!(s.contains("phase 2"));
    }

    #[test]
    fn summary_includes_degraded_line_when_present() {
        let mut r = sample();
        r.degraded = Some(crate::degrade::DegradedReport {
            dead_nodes: vec![crate::degrade::DeadNode {
                node: 7,
                original: Some(7),
                quarantine_step: 3,
                reason: crate::recovery::FailureReason::WorkerKilled { node: 7 },
            }],
            dropped_blocks: 126,
            dropped: Vec::new(),
            contracted_rings: 2,
            contracted_sends: 4,
            fallback_steps: 3,
            fallback_blocks: 11,
            baseline_wire_bytes: 100_000,
            extra_wire_bytes: -512,
            restarts: 0,
            verified_degraded: true,
        });
        let s = r.summary();
        assert!(s.contains("DEGRADED: dead [7@3]"));
        assert!(s.contains("126 blocks dropped"));
    }
}
