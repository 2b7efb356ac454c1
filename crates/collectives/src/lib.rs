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
//! | op | schedule (dimension-ordered) | steps |
//! |---|---|---|
//! | broadcast | recursive doubling from the root | `Σ ⌈log₂ a_d⌉` |
//! | scatter | the same tree, moving each window's blocks | `Σ ⌈log₂ a_d⌉` |
//! | gather | scatter reversed | `Σ ⌈log₂ a_d⌉` |
//! | allgather | unidirectional ring pipelines | `Σ (a_d − 1)` |
//! | reduce | broadcast reversed, combining at every receive | `Σ ⌈log₂ a_d⌉` |
//! | allreduce | reduce to node 0, then broadcast | `2 Σ ⌈log₂ a_d⌉` |
//!
//! Every rooted op meets the one-port bound `⌈log₂ N⌉` on power-of-two
//! shapes. Lower a [`CollectiveOp`](collective_plan::CollectiveOp) with
//! [`CollectivePlan::new`] and hand the plan to [`simulate`]: the
//! [`CollectiveReport`] carries the same critical-path cost counts the
//! all-to-all evaluation uses, so collectives can be compared under the
//! Section 2 parameters.

use collective_plan::{CollectivePlan, CollectiveStep};
use cost_model::{CommParams, CompletionTime, CostCounts};
use torus_sim::{Engine, Transmission};
use torus_topology::{ring_sub, Direction, TorusShape};

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
}

impl CollectiveReport {
    /// Total modeled time (µs).
    pub fn total_time(&self) -> f64 {
        self.elapsed.total()
    }
}

/// Why [`simulate`] refused a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum CollectiveError {
    /// The simulator rejected a step (a scheduling bug).
    Sim(String),
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Sim(s) => write!(f, "simulation rejected a step: {s}"),
        }
    }
}

impl std::error::Error for CollectiveError {}

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
/// two frames on one port, comes back as [`CollectiveError::Sim`]. `Ok`
/// is the whole verification: the op's final-holdings contract is what
/// [`CollectivePlan::new`] already refuses to return a plan without.
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
///
/// // Reductions carry real data through the plan's reference replay.
/// use collective_plan::{Dtype, ReduceOp};
/// let (op, dtype) = (ReduceOp::Sum, Dtype::U64);
/// let plan = CollectivePlan::new(&shape, CollectiveOp::Reduce { root: 0, op, dtype }).unwrap();
/// let finals = plan.reference_finals(8, |u| u64::from(u).to_le_bytes().to_vec()).unwrap();
/// assert_eq!(finals[0][0].1, (0..16u64).sum::<u64>().to_le_bytes());
/// assert_eq!(collectives::simulate(&plan, &CommParams::unit(), 1).unwrap().counts.startup_steps, 4);
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use collective_plan::{CollectiveOp, Dtype, PlanError, ReduceOp};
    use cost_model::CommParams;
    use torus_topology::NodeId;

    /// Lowers `op` on `dims` and replays it with `blocks` blocks per key,
    /// panicking if the lowering or the simulator refuses it.
    fn run(dims: &[u32], op: CollectiveOp, blocks: u64) -> CollectiveReport {
        let shape = TorusShape::new(dims).unwrap();
        let plan =
            CollectivePlan::new(&shape, op).unwrap_or_else(|e| panic!("{op:?} on {dims:?}: {e}"));
        simulate(&plan, &CommParams::unit(), blocks)
            .unwrap_or_else(|e| panic!("{op:?} on {dims:?}: {e}"))
    }

    fn reduce_op(root: NodeId) -> CollectiveOp {
        CollectiveOp::Reduce {
            root,
            op: ReduceOp::Sum,
            dtype: Dtype::U64,
        }
    }

    const ALLREDUCE: CollectiveOp = CollectiveOp::Allreduce {
        op: ReduceOp::Sum,
        dtype: Dtype::U64,
    };

    /// The wrapping-`u64`-sum `plan` computes over `contribution(node)`:
    /// the reference replay's value at the op's holder (the root, or
    /// node 0 for allreduce), after checking that every block left
    /// anywhere equals the order-independent direct fold.
    fn reduced(
        plan: &CollectivePlan,
        vec_len: usize,
        contribution: impl Fn(NodeId) -> Vec<u64>,
    ) -> Result<Vec<u64>, PlanError> {
        let seed = |u: u32| -> Vec<u8> {
            contribution(u)
                .into_iter()
                .flat_map(u64::to_le_bytes)
                .collect()
        };
        let finals = plan.reference_finals(8 * vec_len, seed)?;
        let direct = plan.direct_reduction(8 * vec_len, seed).unwrap();
        assert!(finals.iter().flatten().all(|(_, b)| *b == direct));
        let holder = plan.op().root().unwrap_or(0) as usize;
        Ok(finals[holder][0]
            .1
            .chunks_exact(8)
            .map(|lane| u64::from_le_bytes(lane.try_into().unwrap()))
            .collect())
    }

    #[test]
    fn broadcast_informs_everyone() {
        for dims in [&[4u32, 4][..], &[8, 8], &[5, 7], &[4, 4, 4], &[6, 4, 2]] {
            run(dims, CollectiveOp::Broadcast { root: 0 }, 8);
        }
    }

    #[test]
    fn broadcast_from_any_root() {
        for root in [0u32, 5, 13, 23] {
            run(&[4, 6], CollectiveOp::Broadcast { root }, 1);
        }
    }

    #[test]
    fn broadcast_rejects_bad_root() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        assert!(matches!(
            CollectivePlan::new(&shape, CollectiveOp::Broadcast { root: 99 }),
            Err(PlanError::BadRoot { .. })
        ));
    }

    #[test]
    fn broadcast_step_count_is_near_optimal() {
        // Recursive doubling: log₂ 8 = 3 steps per dimension, the
        // ⌈log₂ 64⌉ = 6 one-port bound exactly.
        let r = run(&[8, 8], CollectiveOp::Broadcast { root: 0 }, 1);
        assert_eq!(r.counts.startup_steps, 3 + 3);
    }

    #[test]
    fn allgather_everyone_has_everything() {
        for dims in [&[4u32, 4][..], &[4, 8], &[3, 5], &[4, 4, 4]] {
            let r = run(dims, CollectiveOp::Allgather, 2);
            let want: u64 = dims.iter().map(|&k| (k - 1) as u64).sum();
            assert_eq!(r.counts.startup_steps, want, "{dims:?}");
        }
    }

    #[test]
    fn allgather_volume_grows_per_dimension() {
        let r = run(&[4, 4], CollectiveOp::Allgather, 1);
        // dim 0: 3 steps of 1 super-block (1 contribution);
        // dim 1: 3 steps of 4 contributions => critical blocks 3 + 12.
        assert_eq!(r.counts.trans_blocks, 3 + 12);
    }

    #[test]
    fn degenerate_single_node() {
        let r = run(&[1, 1], CollectiveOp::Broadcast { root: 0 }, 1);
        assert_eq!(r.counts.startup_steps, 0);
        run(&[1, 1], CollectiveOp::Allgather, 1);
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
            run(dims, CollectiveOp::Scatter { root: 0 }, 1);
        }
    }

    #[test]
    fn scatter_from_nonzero_root() {
        for root in [1u32, 13, 31] {
            run(&[8, 4], CollectiveOp::Scatter { root }, 1);
        }
    }

    #[test]
    fn scatter_pow2_uses_log_steps() {
        // log2(8) per dim = 3 + 3 = 6 steps.
        let r = run(&[8, 8], CollectiveOp::Scatter { root: 0 }, 1);
        assert_eq!(r.counts.startup_steps, 6);
    }

    #[test]
    fn scatter_non_pow2_uses_ceil_log_steps() {
        // ⌈log₂ 3⌉ + ⌈log₂ 5⌉ = 2 + 3 steps.
        let r = run(&[3, 5], CollectiveOp::Scatter { root: 0 }, 1);
        assert_eq!(r.counts.startup_steps, 2 + 3);
    }

    #[test]
    fn gather_collects_everything_at_root() {
        for dims in [&[4u32, 4][..], &[4, 8], &[3, 5], &[4, 4, 4]] {
            let nn: u32 = dims.iter().product();
            for root in [0u32, nn - 1] {
                run(dims, CollectiveOp::Gather { root }, 1);
            }
        }
    }

    #[test]
    fn gather_step_count() {
        let r = run(&[4, 8], CollectiveOp::Gather { root: 0 }, 1);
        assert_eq!(r.counts.startup_steps, 2 + 3);
    }

    #[test]
    fn scatter_and_gather_are_inverse_cost_shapes() {
        // Gather is scatter run backwards: the same steps, blocks and
        // hops, moving in the opposite direction.
        for dims in [&[8u32, 8][..], &[3, 5], &[4, 4, 4]] {
            let s = run(dims, CollectiveOp::Scatter { root: 0 }, 1);
            let g = run(dims, CollectiveOp::Gather { root: 0 }, 1);
            assert_eq!(s.counts, g.counts, "{dims:?}");
        }
    }

    #[test]
    fn bad_roots_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        assert!(CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 16 }).is_err());
        assert!(CollectivePlan::new(&shape, CollectiveOp::Gather { root: 99 }).is_err());
    }

    fn contrib(u: NodeId) -> Vec<u64> {
        vec![u as u64 + 1, (u as u64) * 3, 7]
    }

    #[test]
    fn reduce_computes_exact_sum() {
        for dims in [&[4u32, 4][..], &[4, 8], &[3, 5], &[4, 4, 4]] {
            let shape = TorusShape::new(dims).unwrap();
            let plan = CollectivePlan::new(&shape, reduce_op(0)).unwrap();
            simulate(&plan, &CommParams::unit(), 3).unwrap();
            let v = reduced(&plan, 3, contrib).unwrap();
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
            let plan = CollectivePlan::new(&shape, reduce_op(root)).unwrap();
            simulate(&plan, &CommParams::unit(), 1).unwrap();
            let v = reduced(&plan, 1, |u| vec![u as u64]).unwrap();
            let n = shape.num_nodes() as u64;
            assert_eq!(v[0], n * (n - 1) / 2);
        }
    }

    #[test]
    fn reduce_step_count() {
        let r = run(&[4, 8], reduce_op(0), 1);
        assert_eq!(r.counts.startup_steps, 2 + 3);
    }

    #[test]
    fn reduce_wrapping_overflow_is_defined() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let plan = CollectivePlan::new(&shape, reduce_op(0)).unwrap();
        let v = reduced(&plan, 1, |_| vec![u64::MAX]).unwrap();
        // 16 * MAX (wrapping) = MAX.wrapping_mul(16)
        assert_eq!(v[0], u64::MAX.wrapping_mul(16));
    }

    #[test]
    fn allreduce_combines_reduce_and_broadcast() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let plan = CollectivePlan::new(&shape, ALLREDUCE).unwrap();
        let r = simulate(&plan, &CommParams::unit(), 2).unwrap();
        assert_eq!(
            reduced(&plan, 2, |u| vec![u as u64, 1]).unwrap(),
            vec![120, 16]
        );
        // steps = reduce steps + broadcast steps
        let r1 = run(&[4, 4], reduce_op(0), 2);
        let r2 = run(&[4, 4], CollectiveOp::Broadcast { root: 0 }, 2);
        assert_eq!(
            r.counts.startup_steps,
            r1.counts.startup_steps + r2.counts.startup_steps
        );
    }

    #[test]
    fn zero_length_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let plan = CollectivePlan::new(&shape, reduce_op(0)).unwrap();
        assert!(matches!(
            reduced(&plan, 0, |_| vec![]),
            Err(PlanError::LaneMismatch { .. })
        ));
    }

    /// The 8-ring scatter's second tree level: holders 0 and 4 each
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
