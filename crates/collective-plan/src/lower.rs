//! Lowering of the six collectives to explicit send manifests.
//!
//! This is the only place the dimension-ordered ring schedules are
//! written. Two interpreters read what it emits: `torus-runtime` moves
//! the blocks as real bytes, and `collectives::simulate` replays every
//! send as a `torus_sim::Transmission` through the wormhole channel
//! checker and the Section 2 cost model. A holdings simulation runs
//! alongside the lowering: every emitted step is validated (one frame
//! out and one frame in per node, senders hold what they ship) and
//! applied, and the final holdings are checked against the op's
//! contract before a plan is handed to either interpreter.

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

/// Bidirectional ring pipelines from every informed node, distributing
/// block `key` from the node at `rootc`. Used by `Broadcast` (key = root
/// id) and by the second half of `Allreduce` (key = 0, rootc = node 0).
fn lower_broadcast(
    b: &mut Builder<'_>,
    rootc: &Coord,
    key: u32,
    label: &str,
) -> Result<(), PlanError> {
    let shape = b.shape;
    let n = shape.ndims();
    for d in 0..n {
        let k = shape.extent(d);
        if k == 1 {
            continue;
        }
        b.begin_phase(format!("{label} dim {d}"));
        // Frontier offsets within every ring; anchors are the informed
        // nodes, the informed arc is [−neg, +pos] around each anchor.
        let mut pos: u32 = 0;
        let mut neg: u32 = 0;
        while pos + neg + 1 < k {
            let remaining = k - (pos + neg + 1);
            // Ring-local moves this step: (sender offset, hop delta).
            let mut moves: Vec<(u32, i64)> = Vec::new();
            if pos == 0 && neg == 0 {
                // The anchor is both frontiers but has one injection
                // port: prime the + direction first.
                moves.push((0, 1));
                pos = 1;
            } else if remaining == 1 {
                // One uninformed node left; both frontiers target it —
                // send from + only.
                moves.push((pos, 1));
                pos += 1;
            } else {
                moves.push((pos, 1));
                moves.push(((k - neg) % k, -1));
                pos += 1;
                neg += 1;
            }
            let mut sends = Vec::new();
            for c in shape.iter_coords() {
                if !covered_before_phase(rootc, &c, d + 1, n) || c[d] != rootc[d] {
                    continue; // not a ring anchor for this phase
                }
                for &(from_off, delta) in &moves {
                    let from = c.with(d, (c[d] + from_off) % k);
                    let to = from.with(d, ((from[d] as i64 + delta).rem_euclid(k as i64)) as u32);
                    sends.push(SendInstr {
                        src: shape.index_of(&from),
                        dst: shape.index_of(&to),
                        keys: vec![key],
                        retain: true,
                    });
                }
            }
            b.push_step(d, sends)?;
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

/// Recursive halving (power-of-two extents) / forwarding pipeline
/// (otherwise). Move semantics; keys are destination node ids.
fn lower_scatter(b: &mut Builder<'_>, rootc: &Coord) -> Result<(), PlanError> {
    let _ = rootc; // the holdings identify the root; kept for symmetry
    let shape = b.shape;
    let n = shape.ndims();
    let nn = shape.num_nodes();
    for d in 0..n {
        let k = shape.extent(d);
        if k == 1 {
            continue;
        }
        b.begin_phase(format!("scatter dim {d}"));
        if k.is_power_of_two() {
            // At level `half`, each holder owns a window of 2*half ring
            // offsets and ships the far half `half` hops forward.
            let mut half = k / 2;
            while half >= 1 {
                let mut sends = Vec::new();
                for c in shape.iter_coords() {
                    let u = shape.index_of(&c);
                    if b.keys_at(u).is_empty() {
                        continue;
                    }
                    let send: Vec<u32> = b
                        .keys_at(u)
                        .iter()
                        .copied()
                        .filter(|&t| {
                            let tc = shape.coord_of(t);
                            let off = ring_offset(shape, &c, &tc, d);
                            off >= half && off < 2 * half
                        })
                        .collect();
                    if send.is_empty() {
                        continue;
                    }
                    let to = c.with(d, (c[d] + half) % k);
                    sends.push(SendInstr {
                        src: u,
                        dst: shape.index_of(&to),
                        keys: send,
                        retain: false,
                    });
                }
                b.push_step(d, sends)?;
                half /= 2;
            }
        } else {
            // Forwarding pipeline: every holder ships, one hop at a
            // time, the blocks whose destination lies further along.
            for _step in 0..k - 1 {
                let mut sends = Vec::new();
                for c in shape.iter_coords() {
                    let u = shape.index_of(&c);
                    if b.keys_at(u).is_empty() {
                        continue;
                    }
                    let send: Vec<u32> = b
                        .keys_at(u)
                        .iter()
                        .copied()
                        .filter(|&t| {
                            let tc = shape.coord_of(t);
                            ring_offset(shape, &c, &tc, d) > 0
                        })
                        .collect();
                    if send.is_empty() {
                        continue;
                    }
                    let to = c.with(d, (c[d] + 1) % k);
                    sends.push(SendInstr {
                        src: u,
                        dst: shape.index_of(&to),
                        keys: send,
                        retain: false,
                    });
                }
                b.push_step(d, sends)?;
            }
        }
    }
    let _ = nn;
    Ok(())
}

/// Combining pipelines toward the root, last dimension first: gather
/// (`combining = false`, each node's key travels whole) and reduce
/// (`combining = true`, the single partial key 0 folds at every hop).
fn lower_toward_root(b: &mut Builder<'_>, rootc: &Coord, label: &str) -> Result<(), PlanError> {
    let shape = b.shape;
    let n = shape.ndims();
    for d in (0..n).rev() {
        let k = shape.extent(d);
        if k == 1 {
            continue;
        }
        b.begin_phase(format!("{label} dim {d}"));
        for _step in 0..k - 1 {
            let mut sends = Vec::new();
            for c in shape.iter_coords() {
                let u = shape.index_of(&c);
                // Only the still-active region participates: higher
                // dimensions already collapsed onto the root.
                if !covered_before_phase(rootc, &c, d + 1, n)
                    || ring_offset(shape, rootc, &c, d) == 0
                    || b.keys_at(u).is_empty()
                {
                    continue;
                }
                let to = c.with(d, (c[d] + k - 1) % k);
                sends.push(SendInstr {
                    src: u,
                    dst: shape.index_of(&to),
                    keys: b.keys_at(u).iter().copied().collect(),
                    retain: false,
                });
            }
            b.push_step(d, sends)?;
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
        let all: Vec<u32> = (0..nn).collect();
        let empty: Vec<u32> = Vec::new();
        let (initial, contract): (Vec<Vec<u32>>, Vec<Vec<u32>>) = match op {
            CollectiveOp::Broadcast { root } => (
                (0..nn)
                    .map(|u| if u == root { vec![root] } else { empty.clone() })
                    .collect(),
                (0..nn).map(|_| vec![root]).collect(),
            ),
            CollectiveOp::Scatter { root } => (
                (0..nn)
                    .map(|u| {
                        if u == root {
                            all.clone()
                        } else {
                            empty.clone()
                        }
                    })
                    .collect(),
                (0..nn).map(|u| vec![u]).collect(),
            ),
            CollectiveOp::Gather { root } => (
                (0..nn).map(|u| vec![u]).collect(),
                (0..nn)
                    .map(|u| {
                        if u == root {
                            all.clone()
                        } else {
                            empty.clone()
                        }
                    })
                    .collect(),
            ),
            CollectiveOp::Allgather => (
                (0..nn).map(|u| vec![u]).collect(),
                (0..nn).map(|_| all.clone()).collect(),
            ),
            CollectiveOp::Reduce { root, .. } => (
                (0..nn).map(|_| vec![0]).collect(),
                (0..nn)
                    .map(|u| if u == root { vec![0] } else { empty.clone() })
                    .collect(),
            ),
            CollectiveOp::Allreduce { .. } => (
                (0..nn).map(|_| vec![0]).collect(),
                (0..nn).map(|_| vec![0]).collect(),
            ),
        };
        let combining = op.reduce().is_some();
        let mut b = Builder::new(shape, combining, &initial);
        match op {
            CollectiveOp::Broadcast { root } => {
                lower_broadcast(&mut b, &shape.coord_of(root), root, "broadcast")?;
            }
            CollectiveOp::Scatter { root } => {
                lower_scatter(&mut b, &shape.coord_of(root))?;
            }
            CollectiveOp::Gather { root } => {
                lower_toward_root(&mut b, &shape.coord_of(root), "gather")?;
            }
            CollectiveOp::Allgather => {
                lower_allgather(&mut b)?;
            }
            CollectiveOp::Reduce { root, .. } => {
                lower_toward_root(&mut b, &shape.coord_of(root), "reduce")?;
            }
            CollectiveOp::Allreduce { .. } => {
                let zero = shape.coord_of(0);
                lower_toward_root(&mut b, &zero, "reduce")?;
                lower_broadcast(&mut b, &zero, 0, "broadcast")?;
            }
        }
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
        // Bidirectional pipeline: an 8-ring needs 4 steps per dimension
        // (prime +, then three parallel steps informing 2 nodes each).
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Broadcast { root: 0 }).unwrap();
        assert_eq!(plan.num_steps(), 2 * 4);
    }

    #[test]
    fn scatter_pow2_uses_log_steps() {
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 0 }).unwrap();
        assert_eq!(plan.num_steps(), 3 + 3);
        let shape = TorusShape::new(&[3, 5]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 0 }).unwrap();
        assert_eq!(plan.num_steps(), 2 + 4);
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
            assert_eq!(plan.num_steps(), 3 + 7, "{op:?}");
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
    fn moves_are_single_hop_along_step_dim() {
        // Except scatter's halving levels, every send is one hop along
        // the step dimension; all sends stay within the sender's ring.
        let shape = TorusShape::new(&[4, 6]).unwrap();
        for op in all_ops(5) {
            let plan = CollectivePlan::new(&shape, op).unwrap();
            for step in plan.steps() {
                for s in &step.sends {
                    let a = shape.coord_of(s.src);
                    let b = shape.coord_of(s.dst);
                    for e in 0..shape.ndims() {
                        if e != step.dim {
                            assert_eq!(a[e], b[e], "{op:?} leaves ring");
                        }
                    }
                }
            }
        }
    }
}
