//! Lowering of the six collectives to explicit send manifests.
//!
//! This is the only place the dimension-ordered ring schedules are
//! written, and it writes two of them. Every rooted collective is one
//! tree, `lower_tree`'s recursive doubling from the root, run forwards
//! or backwards:
//!
//! | op | lowering | steps |
//! |---|---|---|
//! | broadcast | tree, replicating the root's block | `Σ ⌈log₂ a_d⌉` |
//! | scatter | tree, moving each window's keys | `Σ ⌈log₂ a_d⌉` |
//! | gather | scatter reversed | `Σ ⌈log₂ a_d⌉` |
//! | reduce | broadcast of key 0 reversed: each receive combines | `Σ ⌈log₂ a_d⌉` |
//! | allreduce | reduce to node 0, then broadcast from it | `2 Σ ⌈log₂ a_d⌉` |
//! | allgather | forward-what-arrived ring pipelines | `Σ (a_d − 1)` |
//!
//! Two interpreters read what it emits: `torus-runtime` moves the
//! blocks as real bytes, and `collectives::simulate` replays every send
//! as a `torus_sim::Transmission` through the wormhole channel checker
//! and the Section 2 cost model. A holdings simulation runs alongside
//! the lowering: every emitted step is validated (one frame out and one
//! frame in per node, senders hold what they ship) and applied, and the
//! final holdings are checked against the op's contract before a plan
//! is handed to either interpreter.

use std::collections::BTreeSet;

use torus_topology::{Coord, TorusShape};

use crate::{CollectiveOp, CollectivePlan, CollectiveStep, PlanError, SendInstr};

/// Ring-relative offset of `node` from `origin` along `dim`, positive
/// direction (`0 ≤ offset < a_d`).
fn ring_offset(shape: &TorusShape, origin: &Coord, node: &Coord, dim: usize) -> u32 {
    torus_topology::ring_sub(node[dim], origin[dim], shape.extent(dim))
}

/// Whether `node` matches `root` on all dimensions `≥ dim`: the nodes
/// that hold data at the start of phase `dim` of a rooted collective
/// processing dimensions `0, 1, …` in order.
fn covered_before_phase(root: &Coord, node: &Coord, dim: usize, ndims: usize) -> bool {
    (dim..ndims).all(|e| node[e] == root[e])
}

/// Holdings simulation that validates and applies steps as the
/// lowerings emit them.
struct Builder<'a> {
    shape: &'a TorusShape,
    combining: bool,
    held: Vec<BTreeSet<u32>>,
    steps: Vec<CollectiveStep>,
    phases: Vec<(String, usize)>,
    expect_from: Vec<Vec<Option<u32>>>,
}

impl<'a> Builder<'a> {
    fn new(shape: &'a TorusShape, combining: bool, initial: &[Vec<u32>]) -> Self {
        Builder {
            shape,
            combining,
            held: initial
                .iter()
                .map(|ks| ks.iter().copied().collect())
                .collect(),
            steps: Vec::new(),
            phases: Vec::new(),
            expect_from: Vec::new(),
        }
    }

    fn begin_phase(&mut self, label: String) {
        self.phases.push((label, 0));
    }

    fn keys_at(&self, u: u32) -> &BTreeSet<u32> {
        &self.held[u as usize]
    }

    /// Validates and applies one step. Empty steps are dropped (a phase
    /// over an extent-1 dimension contributes nothing).
    fn push_step(&mut self, dim: usize, sends: Vec<SendInstr>) -> Result<(), PlanError> {
        if sends.is_empty() {
            return Ok(());
        }
        let nn = self.shape.num_nodes();
        let mut expect: Vec<Option<u32>> = vec![None; nn as usize];
        let mut sent_from = vec![false; nn as usize];
        for s in &sends {
            if s.src >= nn || s.dst >= nn || s.src == s.dst {
                return Err(PlanError::Internal(format!(
                    "step {}: bad endpoints {} -> {}",
                    self.steps.len(),
                    s.src,
                    s.dst
                )));
            }
            if s.keys.is_empty() {
                return Err(PlanError::Internal(format!(
                    "step {}: empty send {} -> {}",
                    self.steps.len(),
                    s.src,
                    s.dst
                )));
            }
            if std::mem::replace(&mut sent_from[s.src as usize], true) {
                return Err(PlanError::Internal(format!(
                    "step {}: node {} sends twice (one-port violation)",
                    self.steps.len(),
                    s.src
                )));
            }
            if expect[s.dst as usize].replace(s.src).is_some() {
                return Err(PlanError::Internal(format!(
                    "step {}: node {} receives twice (one-port violation)",
                    self.steps.len(),
                    s.dst
                )));
            }
            for &k in &s.keys {
                if !self.held[s.src as usize].contains(&k) {
                    return Err(PlanError::Internal(format!(
                        "step {}: node {} ships key {k} it does not hold",
                        self.steps.len(),
                        s.src
                    )));
                }
            }
        }
        // Removals first (senders ship their pre-step holdings), then
        // inserts — the order the executor's send-then-receive loop and
        // the reference replay both use.
        for s in &sends {
            if !s.retain {
                for &k in &s.keys {
                    self.held[s.src as usize].remove(&k);
                }
            }
        }
        for s in &sends {
            for &k in &s.keys {
                if !self.held[s.dst as usize].insert(k) && !self.combining {
                    return Err(PlanError::Internal(format!(
                        "step {}: node {} re-receives key {k} without combining",
                        self.steps.len(),
                        s.dst
                    )));
                }
            }
        }
        // All of a step's sends travel the same ring distance (the
        // lowerings move whole frontiers in lockstep); record it for the
        // cost accounting.
        let hops = {
            let s = &sends[0];
            let k = self.shape.extent(dim);
            let a = self.shape.coord_of(s.src);
            let b = self.shape.coord_of(s.dst);
            let off = torus_topology::ring_sub(b[dim], a[dim], k);
            off.min(k - off)
        };
        self.expect_from.push(expect);
        self.steps.push(CollectiveStep { dim, hops, sends });
        match self.phases.last_mut() {
            Some((_, n)) => *n += 1,
            None => {
                return Err(PlanError::Internal("step emitted before any phase".into()));
            }
        }
        Ok(())
    }

    fn finish(
        self,
        shape: TorusShape,
        op: CollectiveOp,
        initial: Vec<Vec<u32>>,
        contract: Vec<Vec<u32>>,
    ) -> Result<CollectivePlan, PlanError> {
        let finals: Vec<Vec<u32>> = self
            .held
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        if finals != contract {
            return Err(PlanError::Internal(format!(
                "{} final holdings violate the op contract",
                op.kind()
            )));
        }
        // Drop phases that contributed no steps (extent-1 dimensions).
        let phases = self
            .phases
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .collect::<Vec<_>>();
        Ok(CollectivePlan {
            shape,
            op,
            steps: self.steps,
            phases,
            expect_from: self.expect_from,
            initial,
            finals,
        })
    }
}

/// Recursive doubling from the node at `rootc`, one dimension at a
/// time in order. At level `h` (`a_d.next_power_of_two() / 2` halving
/// down to 1), every covered node at root-relative ring offset
/// `o ≡ 0 (mod 2h)` with `o + h < a_d` sends `h` hops forward. The
/// windows are aligned to `2h` and cut off at `a_d`, so every send of a
/// step travels the same distance over its own arc of the ring, on any
/// extent, in `⌈log₂ a_d⌉` steps per dimension.
///
/// `Some(key)` replicates that one block (broadcast); `None` moves the
/// keys whose dim-`d` offset from the root lies in `[o + h, o + 2h)`
/// (scatter: keys are destination node ids).
fn lower_tree(
    b: &mut Builder<'_>,
    rootc: &Coord,
    label: &str,
    key: Option<u32>,
) -> Result<(), PlanError> {
    let shape = b.shape;
    let n = shape.ndims();
    for d in 0..n {
        let a = shape.extent(d);
        if a == 1 {
            continue;
        }
        b.begin_phase(format!("{label} dim {d}"));
        let mut h = a.next_power_of_two() / 2;
        while h >= 1 {
            let mut sends = Vec::new();
            for c in shape.iter_coords() {
                let o = ring_offset(shape, rootc, &c, d);
                if !covered_before_phase(rootc, &c, d + 1, n)
                    || !o.is_multiple_of(2 * h)
                    || o + h >= a
                {
                    continue;
                }
                let src = shape.index_of(&c);
                let keys = match key {
                    Some(k) => vec![k],
                    None => b
                        .keys_at(src)
                        .iter()
                        .copied()
                        .filter(|&t| {
                            let off = ring_offset(shape, rootc, &shape.coord_of(t), d);
                            (o + h..o + 2 * h).contains(&off)
                        })
                        .collect(),
                };
                sends.push(SendInstr {
                    src,
                    dst: shape.index_of(&c.with(d, (c[d] + h) % a)),
                    keys,
                    retain: key.is_some(),
                });
            }
            b.push_step(d, sends)?;
            h /= 2;
        }
    }
    Ok(())
}

/// Time-reversal of a forward lowering: `forward` runs on a scratch
/// builder from `forward_initial`, then its steps replay last to first
/// into `b` with every send's endpoints swapped and move semantics. A
/// replicating tree becomes a combining one (reduce), a moving tree
/// its inverse (gather). Reversal maps each directed channel to its
/// opposite, so contention-freedom carries over, and `b` re-validates
/// every step like any other lowering: the result is checked, not
/// trusted.
fn lower_reversed(
    b: &mut Builder<'_>,
    forward_initial: &[Vec<u32>],
    forward: impl FnOnce(&mut Builder<'_>) -> Result<(), PlanError>,
) -> Result<(), PlanError> {
    let mut f = Builder::new(b.shape, false, forward_initial);
    forward(&mut f)?;
    let mut steps = f.steps.into_iter().rev();
    for (label, nsteps) in f.phases.into_iter().rev() {
        b.begin_phase(label);
        for step in steps.by_ref().take(nsteps) {
            let sends = step
                .sends
                .into_iter()
                .map(|s| SendInstr {
                    src: s.dst,
                    dst: s.src,
                    keys: s.keys,
                    retain: false,
                })
                .collect();
            b.push_step(step.dim, sends)?;
        }
    }
    Ok(())
}

/// Unidirectional forward-what-arrived-last-step ring pipelines: after
/// `a_d − 1` steps every dim-`d` ring is fully shared.
fn lower_allgather(b: &mut Builder<'_>) -> Result<(), PlanError> {
    let shape = b.shape;
    let n = shape.ndims();
    let nn = shape.num_nodes() as usize;
    for d in 0..n {
        let k = shape.extent(d);
        if k == 1 {
            continue;
        }
        b.begin_phase(format!("allgather dim {d}"));
        // recent[u] = the super-block to forward next.
        let mut recent: Vec<Vec<u32>> = (0..nn as u32)
            .map(|u| b.keys_at(u).iter().copied().collect())
            .collect();
        for _step in 0..k - 1 {
            let mut sends = Vec::with_capacity(nn);
            let mut next: Vec<(u32, Vec<u32>)> = Vec::with_capacity(nn);
            for c in shape.iter_coords() {
                let u = shape.index_of(&c);
                let payload = std::mem::take(&mut recent[u as usize]);
                if payload.is_empty() {
                    continue;
                }
                let to = c.with(d, (c[d] + 1) % k);
                let dst = shape.index_of(&to);
                next.push((dst, payload.clone()));
                sends.push(SendInstr {
                    src: u,
                    dst,
                    keys: payload,
                    retain: true,
                });
            }
            b.push_step(d, sends)?;
            for (dst, payload) in next {
                recent[dst as usize] = payload;
            }
        }
    }
    Ok(())
}

impl CollectivePlan {
    /// Lowers `op` for `shape`, validating the emitted schedule against
    /// the one-port contract and the op's final-holdings invariant.
    pub fn new(shape: &TorusShape, op: CollectiveOp) -> Result<CollectivePlan, PlanError> {
        let nn = shape.num_nodes();
        if let Some(root) = op.root() {
            if root >= nn {
                return Err(PlanError::BadRoot { root, nodes: nn });
            }
        }
        // `keys` at `root`, nothing anywhere else.
        let only_at = |root: u32, keys: Vec<u32>| -> Vec<Vec<u32>> {
            (0..nn)
                .map(|u| if u == root { keys.clone() } else { Vec::new() })
                .collect()
        };
        let all: Vec<u32> = (0..nn).collect();
        let own: Vec<Vec<u32>> = (0..nn).map(|u| vec![u]).collect();
        let everywhere = |keys: Vec<u32>| vec![keys; nn as usize];
        let (initial, contract) = match op {
            CollectiveOp::Broadcast { root } => (only_at(root, vec![root]), everywhere(vec![root])),
            CollectiveOp::Scatter { root } => (only_at(root, all), own),
            CollectiveOp::Gather { root } => (own, only_at(root, all)),
            CollectiveOp::Allgather => (own, everywhere(all)),
            CollectiveOp::Reduce { root, .. } => (everywhere(vec![0]), only_at(root, vec![0])),
            CollectiveOp::Allreduce { .. } => (everywhere(vec![0]), everywhere(vec![0])),
        };
        let rootc = shape.coord_of(op.root().unwrap_or(0));
        let mut b = Builder::new(shape, op.reduce().is_some(), &initial);
        // A reversed op's forward tree starts from the holdings the op
        // must end with.
        match op {
            CollectiveOp::Broadcast { root } => lower_tree(&mut b, &rootc, "broadcast", Some(root)),
            CollectiveOp::Scatter { .. } => lower_tree(&mut b, &rootc, "scatter", None),
            CollectiveOp::Gather { .. } => {
                lower_reversed(&mut b, &contract, |f| lower_tree(f, &rootc, "gather", None))
            }
            CollectiveOp::Allgather => lower_allgather(&mut b),
            CollectiveOp::Reduce { .. } => lower_reversed(&mut b, &contract, |f| {
                lower_tree(f, &rootc, "reduce", Some(0))
            }),
            // Reduce toward node 0, then broadcast the result from it.
            CollectiveOp::Allreduce { .. } => lower_reversed(&mut b, &only_at(0, vec![0]), |f| {
                lower_tree(f, &rootc, "reduce", Some(0))
            })
            .and_then(|()| lower_tree(&mut b, &rootc, "broadcast", Some(0))),
        }?;
        b.finish(shape.clone(), op, initial, contract)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dtype, ReduceOp};

    fn shapes() -> Vec<TorusShape> {
        [
            &[2u32][..],
            &[4],
            &[5],
            &[4, 4],
            &[8, 8],
            &[5, 7],
            &[4, 8],
            &[3, 5],
            &[4, 4, 4],
            &[6, 4, 2],
            &[1, 1],
            &[1, 6],
        ]
        .iter()
        .map(|d| TorusShape::new(d).unwrap())
        .collect()
    }

    fn all_ops(root: u32) -> Vec<CollectiveOp> {
        vec![
            CollectiveOp::Broadcast { root },
            CollectiveOp::Scatter { root },
            CollectiveOp::Gather { root },
            CollectiveOp::Allgather,
            CollectiveOp::Reduce {
                root,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::F32,
            },
        ]
    }

    #[test]
    fn every_op_lowers_on_every_shape() {
        for shape in shapes() {
            for root in [0, shape.num_nodes() - 1, shape.num_nodes() / 2] {
                for op in all_ops(root) {
                    let plan = CollectivePlan::new(&shape, op)
                        .unwrap_or_else(|e| panic!("{op:?} on {shape}: {e}"));
                    let total: usize = plan.phases().iter().map(|(_, n)| n).sum();
                    assert_eq!(total, plan.num_steps(), "{op:?} on {shape}");
                    assert_eq!(plan.expect_from.len(), plan.num_steps());
                }
            }
        }
    }

    #[test]
    fn bad_root_rejected() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        for op in [
            CollectiveOp::Broadcast { root: 16 },
            CollectiveOp::Scatter { root: 99 },
            CollectiveOp::Gather { root: 16 },
            CollectiveOp::Reduce {
                root: 16,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        ] {
            assert!(matches!(
                CollectivePlan::new(&shape, op),
                Err(PlanError::BadRoot { .. })
            ));
        }
    }

    #[test]
    fn broadcast_step_count_is_near_optimal() {
        // Recursive doubling: an 8-ring takes log₂ 8 = 3 steps per
        // dimension, the ⌈log₂ N⌉ = 6 one-port bound on 8×8.
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Broadcast { root: 0 }).unwrap();
        assert_eq!(plan.num_steps(), 3 + 3);
    }

    #[test]
    fn scatter_pow2_uses_log_steps() {
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 0 }).unwrap();
        assert_eq!(plan.num_steps(), 3 + 3);
        // Non-power-of-two extents take ⌈log₂ a_d⌉ steps too.
        let shape = TorusShape::new(&[3, 5]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 0 }).unwrap();
        assert_eq!(plan.num_steps(), 2 + 3);
    }

    #[test]
    fn gather_and_reduce_step_counts() {
        let shape = TorusShape::new(&[4, 8]).unwrap();
        for op in [
            CollectiveOp::Gather { root: 0 },
            CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        ] {
            let plan = CollectivePlan::new(&shape, op).unwrap();
            assert_eq!(plan.num_steps(), 2 + 3, "{op:?}");
        }
    }

    /// The plan's sends per step; `reversed` lists the steps last to
    /// first with endpoints swapped, moving.
    fn manifest(plan: &CollectivePlan, reversed: bool) -> Vec<Vec<SendInstr>> {
        let mut steps: Vec<Vec<SendInstr>> = plan
            .steps()
            .iter()
            .map(|st| {
                st.sends
                    .iter()
                    .map(|s| match reversed {
                        false => s.clone(),
                        true => SendInstr {
                            src: s.dst,
                            dst: s.src,
                            keys: s.keys.clone(),
                            retain: false,
                        },
                    })
                    .collect()
            })
            .collect();
        if reversed {
            steps.reverse();
        }
        steps
    }

    #[test]
    fn gather_and_reduce_are_scatter_and_broadcast_reversed() {
        for shape in shapes() {
            let plan = |op| CollectivePlan::new(&shape, op).unwrap();
            let root = shape.num_nodes() / 2;
            assert_eq!(
                manifest(&plan(CollectiveOp::Gather { root }), false),
                manifest(&plan(CollectiveOp::Scatter { root }), true),
                "{shape}"
            );
            // A broadcast from node 0 ships key 0, the reduce's partial.
            let (op, dtype) = (ReduceOp::Max, Dtype::F32);
            assert_eq!(
                manifest(&plan(CollectiveOp::Reduce { root: 0, op, dtype }), false),
                manifest(&plan(CollectiveOp::Broadcast { root: 0 }), true),
                "{shape}"
            );
        }
    }

    #[test]
    fn allgather_step_count() {
        let shape = TorusShape::new(&[4, 4, 4]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Allgather).unwrap();
        assert_eq!(plan.num_steps(), 3 * 3);
    }

    #[test]
    fn allreduce_concatenates_reduce_and_broadcast() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let ar = CollectivePlan::new(
            &shape,
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        )
        .unwrap();
        let r = CollectivePlan::new(
            &shape,
            CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        )
        .unwrap();
        let b = CollectivePlan::new(&shape, CollectiveOp::Broadcast { root: 0 }).unwrap();
        assert_eq!(ar.num_steps(), r.num_steps() + b.num_steps());
        assert!(ar.phases().iter().any(|(l, _)| l.starts_with("reduce")));
        assert!(ar.phases().iter().any(|(l, _)| l.starts_with("broadcast")));
    }

    #[test]
    fn single_node_plans_are_empty() {
        let shape = TorusShape::new(&[1, 1]).unwrap();
        for op in all_ops(0) {
            let plan = CollectivePlan::new(&shape, op).unwrap();
            assert_eq!(plan.num_steps(), 0, "{op:?}");
            assert!(plan.phases().is_empty());
        }
    }

    #[test]
    fn every_send_of_a_step_travels_its_hops_along_its_dim() {
        // One `dim`/`hops` per step is exact on every extent: all sends
        // stay within the sender's ring and cover the same distance.
        for shape in shapes() {
            for op in all_ops(shape.num_nodes() / 3) {
                let plan = CollectivePlan::new(&shape, op).unwrap();
                for step in plan.steps() {
                    let k = shape.extent(step.dim);
                    for s in &step.sends {
                        let a = shape.coord_of(s.src);
                        let b = shape.coord_of(s.dst);
                        for e in 0..shape.ndims() {
                            if e != step.dim {
                                assert_eq!(a[e], b[e], "{op:?} on {shape} leaves ring");
                            }
                        }
                        let off = torus_topology::ring_sub(b[step.dim], a[step.dim], k);
                        assert_eq!(off.min(k - off), step.hops, "{op:?} on {shape}");
                    }
                }
            }
        }
    }
}
