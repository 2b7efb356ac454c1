#![warn(missing_docs)]

//! In-process message-passing runtime for torus complete exchange.
//!
//! Every other crate in this workspace *models* Suh & Shin's `n + 2`-phase
//! exchange: the simulator moves opaque block counts and the cost model
//! prices them analytically. This crate **executes** the same schedules
//! with real memory traffic, which is what the repository's "fast as the
//! hardware allows" goal ultimately needs to measure:
//!
//! * every torus node's buffer is real [`bytes::Bytes`] data, seeded
//!   from deterministic per-pair streams ([`payload`]) with all of a
//!   node's blocks written into one buffer;
//! * nodes are multiplexed onto worker threads (one per available core
//!   by default, configurable via [`RuntimeConfig::workers`] or the
//!   `TORUS_THREADS` environment variable, read by
//!   [`torus_sim::default_threads`]; the simulator itself is serial);
//! * each step performs the paper's **message combining** for real: all
//!   blocks a node forwards go out as one wire frame — a gathered frame
//!   ([`message::encode_gathered`]) whose framing is copied and whose
//!   payloads travel as shared handles, with or without a fault plan — over
//!   per-node channels (a mutex-guarded queue with a condition
//!   variable), and are sliced apart zero-copy on receipt;
//! * the paper's `n + 1` inter-phase **data rearrangements** put each
//!   node's buffer into delivery order by moving block handles; no
//!   payload byte is copied;
//! * delivery is verified with the same invariant checker the analytic
//!   executors use ([`alltoall_core::verify_delivery`]) *plus* bit-exact
//!   payload comparison against the seeded contents.
//!
//! The paper's schedules assume every link and node survives all
//! `n(a1/4 + 1)` steps; a deployment cannot. The runtime therefore adds a
//! **fault-tolerance layer**: wire frames carry sequence numbers and a
//! CRC32 ([`message`]), a deterministic seedable [`FaultPlan`] can drop,
//! delay, duplicate, corrupt, or truncate transmissions and kill or stall
//! workers ([`fault`]), and the step loop heals recoverable faults by
//! deadline + bounded retry from the sender's retained send buffer
//! ([`recovery`]). Unrecoverable faults abort cleanly with a typed
//! [`RuntimeError`] and a partial [`RuntimeReport`] instead of a panic or
//! a hang.
//!
//! All of that is one executor. A schedule only says *what moves* — the
//! paper's plan, a repaired degraded-mode plan, or a lowered collective
//! plan ([`CollectiveRuntime`]) each feed the same worker loop as a small
//! step source — and the loop owns *how it moves*: framing, channels,
//! barriers, fault injection, recovery, cancellation, and measurement
//! exist exactly once.
//!
//! The result of a run is a [`RuntimeReport`]: wall time per phase split
//! into assembly / transport / rearrangement, bytes moved on the wire and
//! in rearrangements, peak buffer residency, fault/retry/integrity
//! counters, a per-step [`Trace`](torus_sim::Trace) compatible with the
//! figure harness, and the analytic
//! [`CompletionTime`](cost_model::CompletionTime) prediction alongside
//! for comparison.
//!
//! ```
//! use torus_runtime::{Runtime, RuntimeConfig};
//! use torus_topology::TorusShape;
//!
//! let shape = TorusShape::new_2d(8, 8).unwrap();
//! let runtime = Runtime::new(&shape, RuntimeConfig::default().with_workers(4)).unwrap();
//! let report = runtime.run().unwrap();
//! assert!(report.verified);
//! assert!(report.faults.is_clean());
//! println!("{}", report.summary());
//! ```

pub mod cancel;
pub mod collective;
pub mod degrade;
pub mod digest;
mod exec;
pub mod fault;
pub mod message;
pub mod payload;
pub mod pool;
pub mod recovery;
pub mod report;
pub mod runtime;
pub mod workers;

pub use cancel::{CancelKind, CancelToken};
pub use collective::CollectiveRuntime;
// Collective plan vocabulary, re-exported so runtime users (and the
// service/daemon layers above) need no direct `collective-plan` edge.
pub use collective_plan::{
    combine, CollectiveOp, CollectivePlan, CollectiveStep, Dtype, JobOp, PlanError, ReduceOp,
    SendInstr,
};
pub use degrade::{DeadNode, DegradedReport, OnFailure};
pub use digest::{delivery_digest, DeliveryDigest};
pub use fault::{FaultEvent, FaultEventKind, FaultKind, FaultPlan, WorkerFaultKind};
pub use message::{
    crc32, decode_gathered, decode_message, encode_gathered, encode_message, WireError, WireFrame,
    BLOCK_HEADER_BYTES, MESSAGE_HEADER_BYTES,
};
pub use payload::{pattern_payload, pattern_seed, seeded_payload, PayloadSpec};
pub use pool::{FramePool, PoolBank};
pub use recovery::{FailureReason, NodeFailure, RecoveryStats, RetryPolicy};
pub use report::{PhaseReport, RuntimeReport};
pub use runtime::{Runtime, RuntimeConfig};
pub use workers::{Gang, WorkerPool};

use alltoall_core::ExchangeError;

/// Errors from the byte-moving runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Schedule preparation or shape handling failed.
    Exchange(ExchangeError),
    /// A wire frame failed to decode (framing or CRC corruption) in a
    /// context where recovery was impossible.
    Wire(WireError),
    /// Post-run verification failed: wrong delivery set or corrupted
    /// payload bytes.
    Verification(String),
    /// A channel endpoint disconnected mid-run; names the node whose
    /// send/receive failed and where in the schedule it happened.
    ChannelClosed {
        /// Canonical node whose channel operation failed.
        node: torus_topology::NodeId,
        /// Phase label the failure occurred in.
        phase: String,
        /// 1-based step within the phase.
        step: usize,
    },
    /// An unrecoverable fault (killed worker, exhausted retry budget)
    /// aborted the run. Carries the failure context and the partial
    /// report measured up to the abort (`verified = false`, counters
    /// populated).
    Aborted {
        /// The first unrecoverable failure.
        failure: NodeFailure,
        /// Partial measurements up to the abort.
        report: Box<RuntimeReport>,
    },
    /// A worker thread panicked (a bug, not an injected fault); the
    /// panic payload is stringified.
    WorkerPanicked(String),
    /// A block referenced a canonical node with no real mapping — e.g. a
    /// corrupt header that decoded to an out-of-range node id. Carries
    /// the offending id and where in the schedule it surfaced
    /// (`phase = "seeding"` when it predates the first step).
    UnmappedNode {
        /// The canonical node id that has no real counterpart.
        node: torus_topology::NodeId,
        /// Phase label (or `"seeding"` / `"delivery"` for the edges).
        phase: String,
        /// 1-based step within the phase (0 outside the step loop).
        step: usize,
    },
    /// Degraded-mode schedule repair failed (e.g. the dead set
    /// disconnects the survivors).
    Repair(alltoall_core::RepairError),
    /// A collective plan could not be lowered or is incompatible with
    /// the configuration (bad root, lane mismatch, unsupported policy).
    Plan(collective_plan::PlanError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Exchange(e) => write!(f, "exchange setup failed: {e}"),
            RuntimeError::Wire(e) => write!(f, "wire decode failed: {e}"),
            RuntimeError::Verification(s) => write!(f, "runtime verification failed: {s}"),
            RuntimeError::ChannelClosed { node, phase, step } => {
                write!(f, "channel closed at node {node} in {phase} step {step}")
            }
            RuntimeError::Aborted { failure, .. } => write!(f, "run aborted: {failure}"),
            RuntimeError::WorkerPanicked(s) => write!(f, "worker thread panicked: {s}"),
            RuntimeError::UnmappedNode { node, phase, step } => write!(
                f,
                "node id {node} has no real mapping (in {phase} step {step})"
            ),
            RuntimeError::Repair(e) => write!(f, "degraded-mode schedule repair failed: {e}"),
            RuntimeError::Plan(e) => write!(f, "collective plan rejected: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Exchange(e) => Some(e),
            RuntimeError::Wire(e) => Some(e),
            RuntimeError::Repair(e) => Some(e),
            RuntimeError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExchangeError> for RuntimeError {
    fn from(e: ExchangeError) -> Self {
        RuntimeError::Exchange(e)
    }
}

impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        RuntimeError::Wire(e)
    }
}

impl From<alltoall_core::RepairError> for RuntimeError {
    fn from(e: alltoall_core::RepairError) -> Self {
        RuntimeError::Repair(e)
    }
}

impl From<collective_plan::PlanError> for RuntimeError {
    fn from(e: collective_plan::PlanError) -> Self {
        RuntimeError::Plan(e)
    }
}
