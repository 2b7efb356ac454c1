#![warn(missing_docs)]

//! Collective communication for torus networks, audited on the wormhole
//! simulator.
//!
//! The paper situates complete exchange among the collective operations of
//! wormhole-routed machines (\[4\], \[6\]); a library a downstream user
//! would adopt must cover the rest of the family. The six schedules are
//! written once, as [`CollectivePlan`] send manifests lowered in the
//! `collective-plan` crate — the same manifests `torus-runtime` executes
//! over real bytes. This crate is their *simulator interpreter*:
//! [`simulate`] replays any plan through [`torus_sim::Engine`], so every
//! step of every collective the byte runtime can be handed is checked
//! against the one-port wormhole model (no two messages on one
//! unidirectional channel) and charged the Section 2 cost counts.
//!
//! | operation | schedule (dimension-ordered rings) | steps |
//! |---|---|---|
//! | [`broadcast`] | per-dimension bidirectional ring pipeline | `Σ ⌈a_d/2⌉` |
//! | [`scatter`] | per-dimension recursive halving (power-of-two rings), pipeline otherwise | `Σ log₂ a_d` |
//! | [`gather`] | per-dimension combining pipeline toward the root | `Σ (a_d − 1)` |
//! | [`allgather`] | per-dimension unidirectional ring pipeline | `Σ (a_d − 1)` |
//! | [`reduce()`](fn@reduce) | per-dimension combining wave toward the root | `Σ (a_d − 1)` |
//! | [`allreduce`] | reduce + broadcast, one plan | sum of both |
//!
//! The per-op functions are conveniences: build the [`CollectiveOp`],
//! lower it, [`simulate`]. All return a [`CollectiveReport`] with the same
//! critical-path cost counts the all-to-all evaluation uses, so
//! collectives can be compared under the Section 2 parameters.

use collective_plan::{CollectiveOp, CollectivePlan, CollectiveStep, Dtype, PlanError, ReduceOp};
use cost_model::{CommParams, CompletionTime, CostCounts};
use torus_sim::{Engine, Transmission};
use torus_topology::{ring_sub, Direction, NodeId, TorusShape};

/// Outcome of one collective operation.
#[derive(Clone, Debug)]
pub struct CollectiveReport {
    /// Operation name.
    pub name: &'static str,
    /// Shape executed on.
    pub shape: TorusShape,
    /// Measured critical-path counts.
    pub counts: CostCounts,
    /// Completion time under the run's parameters.
    pub elapsed: CompletionTime,
    /// Whether the semantic postcondition held.
    pub verified: bool,
}

impl CollectiveReport {
    /// Total modeled time (µs).
    pub fn total_time(&self) -> f64 {
        self.elapsed.total()
    }
}

/// Shared error type.
#[derive(Clone, Debug, PartialEq)]
pub enum CollectiveError {
    /// The simulator rejected a step (a scheduling bug).
    Sim(String),
    /// Postcondition violated.
    Verification(String),
    /// Unsupported argument.
    BadArgument(String),
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Sim(s) => write!(f, "simulation rejected a step: {s}"),
            CollectiveError::Verification(s) => write!(f, "verification failed: {s}"),
            CollectiveError::BadArgument(s) => write!(f, "bad argument: {s}"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// A lowering or replay that broke its own contract is a verification
/// failure; everything else a plan can refuse is the caller's argument.
impl From<PlanError> for CollectiveError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::Internal(_) => CollectiveError::Verification(e.to_string()),
            _ => CollectiveError::BadArgument(e.to_string()),
        }
    }
}

/// One step's sends as simulator messages: `keys.len() · per_key` blocks
/// travelling the step's `hops` along its `dim` — in `+` when that is how
/// far `dst` lies ahead of `src` (so `+` on a half-ring tie), else `−`.
fn step_messages(shape: &TorusShape, step: &CollectiveStep, per_key: u64) -> Vec<Transmission> {
    let (d, k) = (step.dim, shape.extent(step.dim));
    let (plus, minus) = (Direction::plus(d), Direction::minus(d));
    step.sends
        .iter()
        .map(|s| {
            let from = shape.coord_of(s.src);
            let ahead = ring_sub(shape.coord_of(s.dst)[d], from[d], k);
            let dir = if ahead == step.hops { plus } else { minus };
            let blocks = s.keys.len() as u64 * per_key;
            let mut tx = Transmission::along_ring(shape, &from, dir, step.hops, blocks);
            // Keep the manifest's `dst`: the engine refuses a path that
            // does not end there, so a send that is not `hops` away is
            // rejected rather than silently audited as another pairing.
            tx.dst = s.dst;
            tx
        })
        .collect()
}

/// Replays `plan` on the wormhole simulator with every block key carrying
/// `blocks_per_key` blocks.
///
/// Each [`SendInstr`](collective_plan::SendInstr) becomes one
/// [`Transmission`] and each step goes through [`Engine::execute_step`]:
/// a manifest that puts two messages on one unidirectional channel, or
/// two frames on one port, comes back as [`CollectiveError::Sim`].
/// `verified` is `true` on success — the op's final-holdings contract is
/// what [`CollectivePlan::new`] already refuses to return a plan without.
///
/// ```
/// use collective_plan::{CollectiveOp, CollectivePlan};
/// use cost_model::CommParams;
/// use torus_topology::TorusShape;
///
/// let shape = TorusShape::new_2d(4, 4).unwrap();
/// let plan = CollectivePlan::new(&shape, CollectiveOp::Allgather).unwrap();
/// let report = collectives::simulate(&plan, &CommParams::unit(), 1).unwrap();
/// assert_eq!(report.counts.startup_steps, plan.num_steps() as u64);
/// assert_eq!(report.counts.trans_blocks, 15); // (N − 1) blocks received
/// ```
pub fn simulate(
    plan: &CollectivePlan,
    params: &CommParams,
    blocks_per_key: u64,
) -> Result<CollectiveReport, CollectiveError> {
    let mut engine = Engine::new(plan.shape(), *params);
    for step in plan.steps() {
        engine
            .execute_step(&step_messages(plan.shape(), step, blocks_per_key))
            .map_err(|e| CollectiveError::Sim(e.to_string()))?;
    }
    Ok(CollectiveReport {
        name: plan.op().kind(),
        shape: plan.shape().clone(),
        counts: engine.counts(),
        elapsed: engine.elapsed(),
        verified: true,
    })
}

/// One-to-all broadcast of a `blocks`-block message from `root`.
///
/// Dimension-ordered bidirectional ring pipelines: in phase `d`, every
/// already-informed node feeds its dim-`d` ring from both ends (the
/// one-port constraint allows one send per step, so the anchor primes the
/// `+` direction first, and the two frontiers then advance in parallel).
///
/// ```
/// use collectives::broadcast;
/// use cost_model::CommParams;
/// use torus_topology::TorusShape;
///
/// let shape = TorusShape::new_2d(4, 4).unwrap();
/// let report = broadcast(&shape, &CommParams::unit(), 0, 8).unwrap();
/// assert!(report.verified); // all 16 nodes informed
/// ```
pub fn broadcast(
    shape: &TorusShape,
    params: &CommParams,
    root: NodeId,
    blocks: u64,
) -> Result<CollectiveReport, CollectiveError> {
    let plan = CollectivePlan::new(shape, CollectiveOp::Broadcast { root })?;
    simulate(&plan, params, blocks)
}

/// One-to-all personalized scatter: `root` starts with one distinct block
/// per node; every node ends with exactly its own.
///
/// Dimension-ordered: in phase `d`, each ring's single holder distributes
/// blocks by destination dim-`d` coordinate — **recursive halving**
/// (`log₂ a_d` steps) when the extent is a power of two, a combining
/// pipeline (`a_d − 1` steps) otherwise.
pub fn scatter(
    shape: &TorusShape,
    params: &CommParams,
    root: NodeId,
) -> Result<CollectiveReport, CollectiveError> {
    let plan = CollectivePlan::new(shape, CollectiveOp::Scatter { root })?;
    simulate(&plan, params, 1)
}

/// All-to-one gather: every node contributes one block; `root` ends with
/// all of them.
///
/// Dimension-ordered combining pipelines toward the root, last dimension
/// first (the mirror of scatter): `Σ (a_d − 1)` steps.
pub fn gather(
    shape: &TorusShape,
    params: &CommParams,
    root: NodeId,
) -> Result<CollectiveReport, CollectiveError> {
    let plan = CollectivePlan::new(shape, CollectiveOp::Gather { root })?;
    simulate(&plan, params, 1)
}

/// All-to-all broadcast (allgather): every node ends with every node's
/// `blocks_per_node`-block contribution.
///
/// Dimension-ordered unidirectional ring pipelines with combining: in
/// phase `d` every node forwards, each step, the super-block it received
/// in the previous step; after `a_d − 1` steps the ring is fully shared.
pub fn allgather(
    shape: &TorusShape,
    params: &CommParams,
    blocks_per_node: u64,
) -> Result<CollectiveReport, CollectiveError> {
    let plan = CollectivePlan::new(shape, CollectiveOp::Allgather)?;
    simulate(&plan, params, blocks_per_node)
}

/// The wrapping-`u64`-sum reduction to `root` (reduce) or to every node
/// (allreduce, `None`), carrying **real data**: every node's
/// `contribution(node)` is its little-endian seed block, the returned
/// vector is what the plan's scalar replay leaves at the holder, and
/// `verified` says every block left anywhere equals the order-independent
/// direct reduction. `vec_len == 0` is refused by the replay's lane
/// check; a contribution of another length trips its seed-length
/// assertion.
fn simulate_reduction(
    shape: &TorusShape,
    params: &CommParams,
    root: Option<NodeId>,
    vec_len: usize,
    mut contribution: impl FnMut(NodeId) -> Vec<u64>,
) -> Result<(CollectiveReport, Vec<u64>), CollectiveError> {
    let (op, dtype) = (ReduceOp::Sum, Dtype::U64);
    let op = match root {
        Some(root) => CollectiveOp::Reduce { root, op, dtype },
        None => CollectiveOp::Allreduce { op, dtype },
    };
    let plan = CollectivePlan::new(shape, op)?;
    let le_bytes = |v: Vec<u64>| v.into_iter().flat_map(u64::to_le_bytes).collect();
    let seeds: Vec<Vec<u8>> = (0..shape.num_nodes())
        .map(|u| le_bytes(contribution(u)))
        .collect();
    let seed = |u: u32| seeds[u as usize].clone();
    let finals = plan.reference_finals(8 * vec_len, seed)?;
    let direct = plan
        .direct_reduction(8 * vec_len, seed)
        .expect("combining op");
    let mut report = simulate(&plan, params, vec_len as u64)?;
    report.verified = finals.iter().flatten().all(|(_, b)| *b == direct);
    let value = finals[root.unwrap_or(0) as usize][0]
        .1
        .chunks_exact(8)
        .map(|lane| u64::from_le_bytes(lane.try_into().expect("8-byte lane")))
        .collect();
    Ok((report, value))
}

/// All-to-one reduction: every node contributes a `vec_len`-element
/// vector produced by `contribution(node)`; `root` ends with the
/// elementwise (wrapping) sum. Returns the report and the reduced vector.
///
/// Dimension-ordered combining waves: in each ring, partial sums flow one
/// hop per step toward the root's coordinate, added into whatever the
/// intermediate node holds — `Σ (a_d − 1)` contention-free steps.
///
/// ```
/// use collectives::reduce;
/// use cost_model::CommParams;
/// use torus_topology::TorusShape;
///
/// let shape = TorusShape::new_2d(4, 4).unwrap();
/// let (report, sum) = reduce(&shape, &CommParams::unit(), 0, 1, |node| vec![node as u64]).unwrap();
/// assert!(report.verified);
/// assert_eq!(sum, vec![(0..16).sum::<u64>()]);
/// ```
pub fn reduce(
    shape: &TorusShape,
    params: &CommParams,
    root: NodeId,
    vec_len: usize,
    contribution: impl FnMut(NodeId) -> Vec<u64>,
) -> Result<(CollectiveReport, Vec<u64>), CollectiveError> {
    simulate_reduction(shape, params, Some(root), vec_len, contribution)
}

/// Allreduce: reduce to node 0, then broadcast the result, as one plan.
/// Returns the report and the reduced vector every node ends with.
pub fn allreduce(
    shape: &TorusShape,
    params: &CommParams,
    vec_len: usize,
    contribution: impl FnMut(NodeId) -> Vec<u64>,
) -> Result<(CollectiveReport, Vec<u64>), CollectiveError> {
    simulate_reduction(shape, params, None, vec_len, contribution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cost_model::CommParams;

    #[test]
    fn broadcast_informs_everyone() {
        for dims in [&[4u32, 4][..], &[8, 8], &[5, 7], &[4, 4, 4], &[6, 4, 2]] {
            let shape = TorusShape::new(dims).unwrap();
            let r = broadcast(&shape, &CommParams::unit(), 0, 8)
                .unwrap_or_else(|e| panic!("{dims:?}: {e}"));
            assert!(r.verified, "{dims:?}");
        }
    }

    #[test]
    fn broadcast_from_any_root() {
        let shape = TorusShape::new_2d(4, 6).unwrap();
        for root in [0u32, 5, 13, 23] {
            let r = broadcast(&shape, &CommParams::unit(), root, 1).unwrap();
            assert!(r.verified, "root {root}");
        }
    }

    #[test]
    fn broadcast_rejects_bad_root() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        assert!(matches!(
            broadcast(&shape, &CommParams::unit(), 99, 1),
            Err(CollectiveError::BadArgument(_))
        ));
    }

    #[test]
    fn broadcast_step_count_is_near_optimal() {
        // Bidirectional pipeline: ~k/2 steps per dimension.
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let r = broadcast(&shape, &CommParams::unit(), 0, 1).unwrap();
        // per dim: prime+, prime−, then parallel: 8-ring needs 5 steps
        // (1+1, then +2 per step for the remaining 5 nodes => 3 steps).
        assert!(
            r.counts.startup_steps <= 2 * 5,
            "steps={}",
            r.counts.startup_steps
        );
        assert!(r.counts.startup_steps >= 2 * 4);
    }

    #[test]
    fn allgather_everyone_has_everything() {
        for dims in [&[4u32, 4][..], &[4, 8], &[3, 5], &[4, 4, 4]] {
            let shape = TorusShape::new(dims).unwrap();
            let r = allgather(&shape, &CommParams::unit(), 2)
                .unwrap_or_else(|e| panic!("{dims:?}: {e}"));
            assert!(r.verified, "{dims:?}");
            let want: u64 = dims.iter().map(|&k| (k - 1) as u64).sum();
            assert_eq!(r.counts.startup_steps, want, "{dims:?}");
        }
    }

    #[test]
    fn allgather_volume_grows_per_dimension() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let r = allgather(&shape, &CommParams::unit(), 1).unwrap();
        // dim 0: 3 steps of 1 super-block (1 contribution);
        // dim 1: 3 steps of 4 contributions => critical blocks 3 + 12.
        assert_eq!(r.counts.trans_blocks, 3 + 12);
    }

    #[test]
    fn degenerate_single_node() {
        let shape = TorusShape::new(&[1, 1]).unwrap();
        let r = broadcast(&shape, &CommParams::unit(), 0, 1).unwrap();
        assert!(r.verified);
        assert_eq!(r.counts.startup_steps, 0);
        let r = allgather(&shape, &CommParams::unit(), 1).unwrap();
        assert!(r.verified);
    }

    #[test]
    fn scatter_delivers_own_block_to_everyone() {
        for dims in [
            &[4u32, 4][..],
            &[8, 8],
            &[4, 8],
            &[3, 5],
            &[4, 4, 4],
            &[6, 6],
        ] {
            let shape = TorusShape::new(dims).unwrap();
            let r =
                scatter(&shape, &CommParams::unit(), 0).unwrap_or_else(|e| panic!("{dims:?}: {e}"));
            assert!(r.verified, "{dims:?}");
        }
    }

    #[test]
    fn scatter_from_nonzero_root() {
        let shape = TorusShape::new_2d(8, 4).unwrap();
        for root in [1u32, 13, 31] {
            let r = scatter(&shape, &CommParams::unit(), root).unwrap();
            assert!(r.verified, "root {root}");
        }
    }

    #[test]
    fn scatter_pow2_uses_log_steps() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let r = scatter(&shape, &CommParams::unit(), 0).unwrap();
        // log2(8) per dim = 3 + 3 = 6 steps.
        assert_eq!(r.counts.startup_steps, 6);
    }

    #[test]
    fn scatter_non_pow2_uses_pipeline() {
        let shape = TorusShape::new_2d(3, 5).unwrap();
        let r = scatter(&shape, &CommParams::unit(), 0).unwrap();
        assert_eq!(r.counts.startup_steps, 2 + 4);
    }

    #[test]
    fn gather_collects_everything_at_root() {
        for dims in [&[4u32, 4][..], &[4, 8], &[3, 5], &[4, 4, 4]] {
            let shape = TorusShape::new(dims).unwrap();
            for root in [0u32, shape.num_nodes() - 1] {
                let r = gather(&shape, &CommParams::unit(), root)
                    .unwrap_or_else(|e| panic!("{dims:?} root {root}: {e}"));
                assert!(r.verified, "{dims:?} root {root}");
            }
        }
    }

    #[test]
    fn gather_step_count() {
        let shape = TorusShape::new_2d(4, 8).unwrap();
        let r = gather(&shape, &CommParams::unit(), 0).unwrap();
        assert_eq!(r.counts.startup_steps, (4 - 1) + (8 - 1));
    }

    #[test]
    fn scatter_and_gather_are_inverse_cost_shapes() {
        // Same volume moved in opposite directions; scatter (halving) uses
        // fewer startups on power-of-two rings.
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let s = scatter(&shape, &CommParams::unit(), 0).unwrap();
        let g = gather(&shape, &CommParams::unit(), 0).unwrap();
        assert!(s.counts.startup_steps < g.counts.startup_steps);
    }

    #[test]
    fn bad_roots_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        assert!(scatter(&shape, &CommParams::unit(), 16).is_err());
        assert!(gather(&shape, &CommParams::unit(), 99).is_err());
    }

    fn contrib(u: NodeId) -> Vec<u64> {
        vec![u as u64 + 1, (u as u64) * 3, 7]
    }

    #[test]
    fn reduce_computes_exact_sum() {
        for dims in [&[4u32, 4][..], &[4, 8], &[3, 5], &[4, 4, 4]] {
            let shape = TorusShape::new(dims).unwrap();
            let (r, v) = reduce(&shape, &CommParams::unit(), 0, 3, contrib)
                .unwrap_or_else(|e| panic!("{dims:?}: {e}"));
            assert!(r.verified, "{dims:?}");
            let n = shape.num_nodes() as u64;
            assert_eq!(v[0], n * (n + 1) / 2);
            assert_eq!(v[1], 3 * n * (n - 1) / 2);
            assert_eq!(v[2], 7 * n);
        }
    }

    #[test]
    fn reduce_to_any_root() {
        let shape = TorusShape::new_2d(4, 6).unwrap();
        for root in [0u32, 7, 23] {
            let (r, v) = reduce(&shape, &CommParams::unit(), root, 1, |u| vec![u as u64]).unwrap();
            assert!(r.verified, "root {root}");
            let n = shape.num_nodes() as u64;
            assert_eq!(v[0], n * (n - 1) / 2);
        }
    }

    #[test]
    fn reduce_step_count() {
        let shape = TorusShape::new_2d(4, 8).unwrap();
        let (r, _) = reduce(&shape, &CommParams::unit(), 0, 1, |_| vec![1]).unwrap();
        assert_eq!(r.counts.startup_steps, 3 + 7);
    }

    #[test]
    fn reduce_wrapping_overflow_is_defined() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let (r, v) = reduce(&shape, &CommParams::unit(), 0, 1, |_| vec![u64::MAX]).unwrap();
        assert!(r.verified);
        // 16 * MAX (wrapping) = MAX.wrapping_mul(16)
        assert_eq!(v[0], u64::MAX.wrapping_mul(16));
    }

    #[test]
    fn allreduce_combines_reduce_and_broadcast() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let (r, v) = allreduce(&shape, &CommParams::unit(), 2, |u| vec![u as u64, 1]).unwrap();
        assert!(r.verified);
        assert_eq!(v, vec![120, 16]);
        // steps = reduce steps + broadcast steps
        let (r1, _) = reduce(&shape, &CommParams::unit(), 0, 2, |u| vec![u as u64, 1]).unwrap();
        let r2 = broadcast(&shape, &CommParams::unit(), 0, 2).unwrap();
        assert_eq!(
            r.counts.startup_steps,
            r1.counts.startup_steps + r2.counts.startup_steps
        );
    }

    #[test]
    fn zero_length_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        assert!(reduce(&shape, &CommParams::unit(), 0, 0, |_| vec![]).is_err());
    }

    /// The 8-ring scatter's second halving level: holders 0 and 4 each
    /// ship two hops forward over disjoint channels.
    fn scatter_level_two() -> (TorusShape, CollectiveStep) {
        let shape = TorusShape::new(&[8]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 0 }).unwrap();
        let step = plan.steps()[1].clone();
        assert_eq!((step.hops, step.sends.len()), (2, 2));
        assert_eq!((step.sends[1].src, step.sends[1].dst), (4, 6));
        (shape, step)
    }

    fn audit(shape: &TorusShape, step: &CollectiveStep) -> Result<(), torus_sim::SimError> {
        let mut engine = Engine::new(shape, CommParams::unit());
        engine
            .execute_step(&step_messages(shape, step, 1))
            .map(|_| ())
    }

    #[test]
    fn send_redirected_onto_a_used_channel_is_rejected() {
        let (shape, mut step) = scatter_level_two();
        audit(&shape, &step).unwrap();
        // 1 -> 3 keeps both ports free (0 and 1 send, 2 and 3 receive)
        // but rides channel 1 -> 2, which 0 -> 2 already holds: only the
        // channel checker can see it.
        step.sends[1].src = 1;
        step.sends[1].dst = 3;
        let err = audit(&shape, &step).unwrap_err();
        assert!(
            matches!(err, torus_sim::SimError::ChannelContention { .. }),
            "{err}"
        );
    }

    #[test]
    fn send_that_is_not_the_steps_hops_away_is_rejected() {
        let (shape, mut step) = scatter_level_two();
        step.sends[1].dst = 7;
        let err = audit(&shape, &step).unwrap_err();
        assert!(
            matches!(err, torus_sim::SimError::MalformedPath { .. }),
            "{err}"
        );
    }
}
