//! Op-generic collective plans.
//!
//! This crate lowers the dimension-ordered schedules (broadcast,
//! scatter, gather, allgather, reduce, allreduce) into explicit per-step
//! send manifests — who sends which blocks to whom, with move/copy
//! semantics and an optional combining (elementwise-reduction) receive.
//! The manifest is the single statement of each schedule: the
//! byte-moving runtime in `torus-runtime` executes it as real data (and
//! the service/daemon stack ships it as jobs next to all-to-all), while
//! `collectives::simulate` replays it against the wormhole simulator's
//! unidirectional-channel checker and cost model.
//!
//! The contract mirrors `alltoall_core::StepPlan`: every step is
//! contention-free in the one-port model (each node sends at most one
//! frame and receives at most one frame), and steps within a phase move
//! along a single dimension. [`CollectivePlan::new`] replays the
//! lowering against a holdings simulation and rejects any schedule that
//! violates the contract or fails its op's final-holdings invariant, so
//! an executor can trust the manifest blindly.

#![warn(missing_docs)]

mod lower;
mod reference;

use std::fmt;

use torus_topology::TorusShape;

/// Elementwise reduction operator for `reduce`/`allreduce`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum (wrapping for integer lanes).
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// All operator names accepted by [`ReduceOp::parse`].
    pub const NAMES: [&'static str; 3] = ["sum", "min", "max"];

    /// Wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }

    /// Parses a wire/CLI name.
    pub fn parse(s: &str) -> Option<ReduceOp> {
        match s {
            "sum" => Some(ReduceOp::Sum),
            "min" => Some(ReduceOp::Min),
            "max" => Some(ReduceOp::Max),
            _ => None,
        }
    }
}

/// Lane type the payload bytes are reinterpreted as during a combining
/// receive. Lanes are little-endian, matching the wire byte order used
/// everywhere else in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// Unsigned 64-bit lanes; `Sum` wraps.
    U64,
    /// IEEE-754 32-bit float lanes.
    F32,
}

impl Dtype {
    /// All dtype names accepted by [`Dtype::parse`].
    pub const NAMES: [&'static str; 2] = ["u64", "f32"];

    /// Bytes per lane (8 for u64, 4 for f32). Payload blocks of a
    /// combining collective must be a whole number of lanes.
    pub fn lane_bytes(&self) -> usize {
        match self {
            Dtype::U64 => 8,
            Dtype::F32 => 4,
        }
    }

    /// Wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Dtype::U64 => "u64",
            Dtype::F32 => "f32",
        }
    }

    /// Parses a wire/CLI name.
    pub fn parse(s: &str) -> Option<Dtype> {
        match s {
            "u64" => Some(Dtype::U64),
            "f32" => Some(Dtype::F32),
            _ => None,
        }
    }
}

/// A collective operation, fully parameterized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// One-to-all: `root`'s single block reaches every node.
    Broadcast {
        /// Originating node.
        root: u32,
    },
    /// One-to-all personalized: `root` starts with one distinct block per
    /// node; node `u` ends with exactly block `u`.
    Scatter {
        /// Originating node.
        root: u32,
    },
    /// All-to-one: every node contributes one block; `root` ends with all.
    Gather {
        /// Collecting node.
        root: u32,
    },
    /// All-to-all broadcast: every node ends with every contribution.
    Allgather,
    /// All-to-one combining: `root` ends with the elementwise reduction
    /// of every node's contribution.
    Reduce {
        /// Collecting node.
        root: u32,
        /// Reduction operator.
        op: ReduceOp,
        /// Lane type.
        dtype: Dtype,
    },
    /// Reduce to node 0, then broadcast: every node ends with the
    /// reduction.
    Allreduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Lane type.
        dtype: Dtype,
    },
}

impl CollectiveOp {
    /// All op kind names, in stats-slot order.
    pub const KINDS: [&'static str; 6] = [
        "broadcast",
        "scatter",
        "gather",
        "allgather",
        "reduce",
        "allreduce",
    ];

    /// The op's kind name (`"broadcast"`, `"allreduce"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            CollectiveOp::Broadcast { .. } => "broadcast",
            CollectiveOp::Scatter { .. } => "scatter",
            CollectiveOp::Gather { .. } => "gather",
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Reduce { .. } => "reduce",
            CollectiveOp::Allreduce { .. } => "allreduce",
        }
    }

    /// The rooted ops' root node, if the op has one.
    pub fn root(&self) -> Option<u32> {
        match self {
            CollectiveOp::Broadcast { root }
            | CollectiveOp::Scatter { root }
            | CollectiveOp::Gather { root }
            | CollectiveOp::Reduce { root, .. } => Some(*root),
            CollectiveOp::Allgather | CollectiveOp::Allreduce { .. } => None,
        }
    }

    /// The combining ops' operator and lane type, if the op reduces.
    pub fn reduce(&self) -> Option<(ReduceOp, Dtype)> {
        match self {
            CollectiveOp::Reduce { op, dtype, .. } | CollectiveOp::Allreduce { op, dtype } => {
                Some((*op, *dtype))
            }
            _ => None,
        }
    }

    /// Builds an op from its wire parts. `root`, `reduce`, and `dtype`
    /// are ignored where the kind does not use them. Returns `None` for
    /// an unknown kind.
    pub fn from_parts(
        kind: &str,
        root: u32,
        reduce: ReduceOp,
        dtype: Dtype,
    ) -> Option<CollectiveOp> {
        match kind {
            "broadcast" => Some(CollectiveOp::Broadcast { root }),
            "scatter" => Some(CollectiveOp::Scatter { root }),
            "gather" => Some(CollectiveOp::Gather { root }),
            "allgather" => Some(CollectiveOp::Allgather),
            "reduce" => Some(CollectiveOp::Reduce {
                root,
                op: reduce,
                dtype,
            }),
            "allreduce" => Some(CollectiveOp::Allreduce { op: reduce, dtype }),
            _ => None,
        }
    }
}

/// What a service job executes: the original all-to-all exchange or one
/// of the collectives. Carried through job specs, plan-cache keys, and
/// per-op stats counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JobOp {
    /// Complete (personalized all-to-all) exchange — the default.
    #[default]
    Alltoall,
    /// A collective from this crate.
    Collective(CollectiveOp),
}

impl JobOp {
    /// Number of per-op stats slots (all-to-all plus the six collectives).
    pub const COUNT: usize = 7;

    /// Slot names, indexed by [`JobOp::index`].
    pub const NAMES: [&'static str; JobOp::COUNT] = [
        "alltoall",
        "broadcast",
        "scatter",
        "gather",
        "allgather",
        "reduce",
        "allreduce",
    ];

    /// The op's stats-slot name.
    pub fn name(&self) -> &'static str {
        JobOp::NAMES[self.index()]
    }

    /// The op's stats-slot index.
    pub fn index(&self) -> usize {
        match self {
            JobOp::Alltoall => 0,
            JobOp::Collective(c) => match c {
                CollectiveOp::Broadcast { .. } => 1,
                CollectiveOp::Scatter { .. } => 2,
                CollectiveOp::Gather { .. } => 3,
                CollectiveOp::Allgather => 4,
                CollectiveOp::Reduce { .. } => 5,
                CollectiveOp::Allreduce { .. } => 6,
            },
        }
    }
}

/// One node's send in one step: `src` ships the blocks identified by
/// `keys` to `dst` (the step's `hops` along its dimension; the executor
/// does not care about the route, only the pairing). With `retain` the
/// sender keeps its copies (broadcast/allgather); without, the blocks
/// move (scatter/gather/reduce).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendInstr {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Block keys shipped, ascending. For rooted/gather-style ops a key
    /// is the node id the block belongs to; for combining ops the single
    /// running partial is key `0`.
    pub keys: Vec<u32>,
    /// Copy semantics (`true`) vs move semantics (`false`).
    pub retain: bool,
}

/// One contention-free step: disjoint senders, disjoint receivers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveStep {
    /// Dimension the step moves along (phase bookkeeping only).
    pub dim: usize,
    /// Ring hops every send travels: the tree level for the rooted ops
    /// (the short way round the ring), 1 for allgather.
    pub hops: u32,
    /// The step's sends. Each node appears at most once as `src` and at
    /// most once as `dst`.
    pub sends: Vec<SendInstr>,
}

/// Final holdings per node: `finals[node]` is that node's `(key,
/// payload)` pairs, keys ascending, in payload handle `P`. Returned by
/// [`CollectivePlan::reference_finals`] and reproduced bit-exactly by
/// every executor.
pub type NodeFinals<P = Vec<u8>> = Vec<Vec<(u32, P)>>;

/// Errors from plan construction or reference replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The op names a root outside the shape.
    BadRoot {
        /// Offending root.
        root: u32,
        /// Nodes in the shape.
        nodes: u32,
    },
    /// A combining op's block size is not a whole number of lanes.
    LaneMismatch {
        /// Offending block size.
        block_bytes: usize,
        /// Lane width required by the op's dtype.
        lane: usize,
    },
    /// The requested combination is not executable (e.g. degraded-mode
    /// quarantine, which has no repair story for collectives yet).
    Unsupported(String),
    /// The lowering emitted a schedule that violates its own contract —
    /// a bug, surfaced loudly rather than executed.
    Internal(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadRoot { root, nodes } => {
                write!(f, "root {root} out of range (shape has {nodes} nodes)")
            }
            PlanError::LaneMismatch { block_bytes, lane } => write!(
                f,
                "block_bytes {block_bytes} is not a multiple of the {lane}-byte reduction lane"
            ),
            PlanError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            PlanError::Internal(msg) => write!(f, "internal plan error: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// An executable collective schedule: explicit per-step send manifests
/// plus the bookkeeping an executor and a verifier need (who expects a
/// frame when, what every node starts and must end with).
#[derive(Clone, Debug)]
pub struct CollectivePlan {
    shape: TorusShape,
    op: CollectiveOp,
    steps: Vec<CollectiveStep>,
    /// `(label, step_count)` per phase, in execution order.
    phases: Vec<(String, usize)>,
    /// `expect_from[step][node]` = the node a frame arrives from, if any.
    expect_from: Vec<Vec<Option<u32>>>,
    /// Keys held per node before step 0, ascending.
    initial: Vec<Vec<u32>>,
    /// Keys held per node after the last step, ascending.
    finals: Vec<Vec<u32>>,
}

impl CollectivePlan {
    /// The shape the plan was lowered for.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// The op the plan executes.
    pub fn op(&self) -> CollectiveOp {
        self.op
    }

    /// The per-step send manifests.
    pub fn steps(&self) -> &[CollectiveStep] {
        &self.steps
    }

    /// Total step count.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// `(label, step_count)` per phase, e.g. `("broadcast dim 0", 3)`.
    /// Phase step counts sum to [`CollectivePlan::num_steps`].
    pub fn phases(&self) -> &[(String, usize)] {
        &self.phases
    }

    /// For `step`, the sender each node expects a frame from (or `None`).
    pub fn expect_from(&self, step: usize) -> &[Option<u32>] {
        &self.expect_from[step]
    }

    /// Keys node `u` holds before step 0, ascending.
    pub fn initial_keys(&self, u: u32) -> &[u32] {
        &self.initial[u as usize]
    }

    /// Keys node `u` must hold after the last step, ascending.
    pub fn final_keys(&self, u: u32) -> &[u32] {
        &self.finals[u as usize]
    }

    /// Whether receives fold payloads elementwise (reduce/allreduce).
    pub fn is_combining(&self) -> bool {
        self.op.reduce().is_some()
    }

    /// The data identity seeded at `(node, key)`: for combining ops the
    /// partial at node `u` starts as `u`'s contribution, so the identity
    /// is the node; otherwise the key itself names the block (its
    /// destination for scatter, its contributor for gather/allgather,
    /// the root's message for broadcast).
    pub fn seed_id(&self, node: u32, key: u32) -> u32 {
        if self.is_combining() {
            node
        } else {
            key
        }
    }

    /// Validates `block_bytes` against the op (combining ops need whole
    /// lanes).
    pub fn check_block_bytes(&self, block_bytes: usize) -> Result<(), PlanError> {
        if let Some((_, dtype)) = self.op.reduce() {
            let lane = dtype.lane_bytes();
            if block_bytes == 0 || !block_bytes.is_multiple_of(lane) {
                return Err(PlanError::LaneMismatch { block_bytes, lane });
            }
        }
        Ok(())
    }
}

/// Folds `incoming` into `acc` elementwise: `acc[i] = acc[i] OP incoming[i]`
/// over little-endian lanes of `dtype`. This single definition is used by
/// the runtime's combining receive *and* the scalar reference replay, so
/// the two are bit-identical by construction (including f32 rounding).
///
/// Both slices must be the same whole-lane length.
pub fn combine(dtype: Dtype, op: ReduceOp, acc: &mut [u8], incoming: &[u8]) {
    assert_eq!(acc.len(), incoming.len(), "combine length mismatch");
    let lane = dtype.lane_bytes();
    assert_eq!(acc.len() % lane, 0, "combine partial lane");
    match dtype {
        Dtype::U64 => {
            for (a, b) in acc.chunks_exact_mut(8).zip(incoming.chunks_exact(8)) {
                let x = u64::from_le_bytes(a.try_into().unwrap());
                let y = u64::from_le_bytes(b.try_into().unwrap());
                let r = match op {
                    ReduceOp::Sum => x.wrapping_add(y),
                    ReduceOp::Min => x.min(y),
                    ReduceOp::Max => x.max(y),
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
        }
        Dtype::F32 => {
            for (a, b) in acc.chunks_exact_mut(4).zip(incoming.chunks_exact(4)) {
                let x = f32::from_le_bytes(a.try_into().unwrap());
                let y = f32::from_le_bytes(b.try_into().unwrap());
                let r = match op {
                    ReduceOp::Sum => x + y,
                    ReduceOp::Min => x.min(y),
                    ReduceOp::Max => x.max(y),
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_parts_round_trip() {
        for kind in CollectiveOp::KINDS {
            let op = CollectiveOp::from_parts(kind, 3, ReduceOp::Min, Dtype::F32).unwrap();
            assert_eq!(op.kind(), kind);
        }
        assert!(CollectiveOp::from_parts("alltoall", 0, ReduceOp::Sum, Dtype::U64).is_none());
        assert_eq!(
            CollectiveOp::from_parts("reduce", 2, ReduceOp::Max, Dtype::U64)
                .unwrap()
                .reduce(),
            Some((ReduceOp::Max, Dtype::U64))
        );
        assert_eq!(
            CollectiveOp::from_parts("allgather", 9, ReduceOp::Sum, Dtype::U64)
                .unwrap()
                .root(),
            None
        );
    }

    #[test]
    fn job_op_slots_are_distinct_and_named() {
        let ops = [
            JobOp::Alltoall,
            JobOp::Collective(CollectiveOp::Broadcast { root: 0 }),
            JobOp::Collective(CollectiveOp::Scatter { root: 0 }),
            JobOp::Collective(CollectiveOp::Gather { root: 0 }),
            JobOp::Collective(CollectiveOp::Allgather),
            JobOp::Collective(CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            }),
            JobOp::Collective(CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::F32,
            }),
        ];
        let mut seen = [false; JobOp::COUNT];
        for op in ops {
            let i = op.index();
            assert!(!seen[i]);
            seen[i] = true;
            assert_eq!(op.name(), JobOp::NAMES[i]);
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn combine_u64_ops() {
        let mut acc = 5u64.to_le_bytes().to_vec();
        combine(Dtype::U64, ReduceOp::Sum, &mut acc, &7u64.to_le_bytes());
        assert_eq!(acc, 12u64.to_le_bytes());
        combine(Dtype::U64, ReduceOp::Min, &mut acc, &3u64.to_le_bytes());
        assert_eq!(acc, 3u64.to_le_bytes());
        combine(Dtype::U64, ReduceOp::Max, &mut acc, &9u64.to_le_bytes());
        assert_eq!(acc, 9u64.to_le_bytes());
        let mut acc = u64::MAX.to_le_bytes().to_vec();
        combine(Dtype::U64, ReduceOp::Sum, &mut acc, &2u64.to_le_bytes());
        assert_eq!(acc, 1u64.to_le_bytes());
    }

    #[test]
    fn combine_f32_ops() {
        let mut acc = [1.5f32.to_le_bytes(), 2.0f32.to_le_bytes()].concat();
        let inc = [0.25f32.to_le_bytes(), 8.0f32.to_le_bytes()].concat();
        combine(Dtype::F32, ReduceOp::Sum, &mut acc, &inc);
        assert_eq!(acc[..4], 1.75f32.to_le_bytes());
        assert_eq!(acc[4..], 10.0f32.to_le_bytes());
        combine(Dtype::F32, ReduceOp::Min, &mut acc, &inc);
        assert_eq!(acc[..4], 0.25f32.to_le_bytes());
        assert_eq!(acc[4..], 8.0f32.to_le_bytes());
        combine(Dtype::F32, ReduceOp::Max, &mut acc, &inc);
        assert_eq!(acc[..4], 0.25f32.to_le_bytes());
        assert_eq!(acc[4..], 8.0f32.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn combine_rejects_mismatched_lengths() {
        let mut acc = vec![0u8; 8];
        combine(Dtype::U64, ReduceOp::Sum, &mut acc, &[0u8; 16]);
    }
}
