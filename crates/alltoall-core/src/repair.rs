//! Degraded-mode schedule repair: survivor replanning around dead nodes.
//!
//! The `n + 2`-phase schedule assumes a fault-free torus. When nodes are
//! quarantined mid-run (a kill fault, or a link whose retry budget is
//! exhausted), the remaining schedule must be *repaired* rather than
//! abandoned: survivors still owe each other their blocks, and the paper's
//! structure — ring scatters, submesh exchanges — mostly survives with
//! local surgery:
//!
//! * **Scatter phases** contract their within-group rings around dead
//!   members ([`torus_topology::ring::next_alive`]): the nearest live
//!   successor becomes the new ring neighbor, and forwarded blocks consume
//!   as many 4-stride shifts as the contracted link spans. Blocks that
//!   needed a *dead* ring position as their scatter target park for the
//!   fallback phase instead.
//! * **Distance-2 / distance-1 phases** have fixed pairwise partners; a
//!   send whose partner is dead parks its selected blocks for fallback.
//! * **Blocks with a dead endpoint** (source or final destination) are
//!   dropped everywhere — a survivor must end holding blocks from exactly
//!   the live sources — and accounted in [`DroppedBlock`] records.
//! * A **fallback phase** of direct pairwise exchanges is appended for
//!   every parked block: greedy rounds in which each holder sends at most
//!   one message and each destination receives at most one, preserving the
//!   runtime's one-sender-per-destination invariant. (Channel contention
//!   freedom is *not* preserved for these steps — see DESIGN.md §3a.3.)
//!
//! Because kills are pinned to `(step, node)` — never rate-sampled — the
//! set of dead nodes per step is a pure function of the fault plan, so the
//! whole repair is computed *before* execution by serially simulating the
//! base plan under the repair rules. The output is an explicit per-step
//! manifest ([`RepairedSchedule`]): for every step, who sends to whom and
//! exactly which `(src, dst)` blocks they fold in. A threaded runtime then
//! needs no shift bookkeeping or selection rules — and its behavior is
//! bitwise independent of the worker count.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use torus_topology::{detour_hops, next_alive, NodeId, Sign};

use crate::block::{Block, Buffers};
use crate::observer::PhaseKind;
use crate::steps::{PlannedStep, StepKind, StepPlan};

/// A block removed from the exchange because its source or destination
/// was quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DroppedBlock {
    /// Originating node (canonical id).
    pub src: NodeId,
    /// Final destination node (canonical id).
    pub dst: NodeId,
    /// Node whose buffer held the block when it was dropped.
    pub holder: NodeId,
    /// Global step index at which the drop takes effect.
    pub step: usize,
}

/// One node's send in one repaired step: destination plus the exact
/// blocks to fold in. `pairs` is sorted, so executors match blocks with a
/// binary search on `(src, dst)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairedSend {
    /// Receiving node.
    pub dst: NodeId,
    /// Dimension travelled (`0` for fallback steps, which are not
    /// constrained to a single dimension).
    pub dim: u8,
    /// Ring direction (`0` for fallback steps).
    pub sign: i8,
    /// Physical hop count of the message. Contracted scatter links span
    /// `4 × strides` hops; fallback sends use the shortest live detour.
    pub hops: u32,
    /// 4-stride ring shifts this link consumes (scatter steps only;
    /// `> 1` means the link was contracted past dead members, `0` for
    /// distance and fallback steps).
    pub strides: u32,
    /// Sorted `(src, dst)` identities of the blocks sent.
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// One repaired step: per-node drop lists (quarantine taking effect at
/// this step's entry) followed by the step's sends.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RepairedStep {
    /// Nominal hop count of the base step (4 / 2 / 1; 0 for fallback).
    pub hops: u32,
    /// Indexed by node id: the node's send this step, `None` if it idles.
    pub sends: Vec<Option<RepairedSend>>,
    /// Blocks each holder must discard at step entry, sorted by holder;
    /// each pair list sorted. Non-empty only at quarantine steps.
    pub drops: Vec<(NodeId, Vec<(NodeId, NodeId)>)>,
}

/// One repaired phase: the base phases with surgically altered steps,
/// plus (when needed) a trailing [`PhaseKind::Fallback`] phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairedPhase {
    /// Phase label (base phases keep their names; `"fallback"` for the
    /// appended phase).
    pub name: String,
    /// Phase kind, [`PhaseKind::Fallback`] for the appended phase.
    pub kind: PhaseKind,
    /// Steps in execution order.
    pub steps: Vec<RepairedStep>,
    /// Whether the inter-phase rearrangement follows (carried over from
    /// the base plan; `false` for the fallback phase).
    pub rearrange_after: bool,
}

/// Why schedule repair failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// A quarantined node id is outside the plan's shape.
    UnknownNode {
        /// The offending node id.
        node: NodeId,
    },
    /// The dead set disconnects a fallback pair: no live path exists.
    Disconnected {
        /// Holder of the stranded blocks.
        from: NodeId,
        /// Their destination.
        to: NodeId,
    },
    /// Repair produced two senders for one destination in one step.
    /// This indicates a planner bug, not a property of the input.
    Contention {
        /// Global step index.
        step: usize,
        /// The doubly-targeted destination.
        dst: NodeId,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode { node } => write!(f, "quarantined node {node} is not in the shape"),
            Self::Disconnected { from, to } => {
                write!(f, "dead set disconnects fallback pair {from} -> {to}")
            }
            Self::Contention { step, dst } => {
                write!(
                    f,
                    "repair bug: two senders target node {dst} in step {step}"
                )
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// The repaired schedule: explicit per-step manifests plus the
/// bookkeeping a degraded-mode report needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairedSchedule {
    /// Base phases (repaired) plus an optional trailing fallback phase.
    pub phases: Vec<RepairedPhase>,
    /// `(node, quarantine step)` sorted by node; steps are clamped to
    /// `base_steps` (a node quarantined there is dead for fallback only).
    pub dead: Vec<(NodeId, usize)>,
    /// Every dropped block, sorted by `(src, dst)` (each ordered pair
    /// exists at most once in an exchange).
    pub dropped: Vec<DroppedBlock>,
    /// Distinct scatter rings that contracted around dead members.
    pub contracted_rings: u64,
    /// Scatter sends spanning more than one 4-stride link.
    pub contracted_sends: u64,
    /// Steps in the appended fallback phase.
    pub fallback_steps: u64,
    /// Blocks delivered by fallback sends (in-place recoveries excluded).
    pub fallback_blocks: u64,
    /// Messages the *fault-free* base plan would send (one per scheduled
    /// send, empty or not) — the baseline for overhead accounting.
    pub base_messages: u64,
    /// Per-block transmission counts of the fault-free base plan, sorted
    /// by `(src, dst)`: how many times each block crosses the wire.
    pub base_tx: Vec<((NodeId, NodeId), u64)>,
    /// Number of steps in the base plan (fallback steps start here).
    pub base_steps: usize,
}

impl RepairedSchedule {
    /// Repairs `plan` around `quarantine`: node → global step index at
    /// which the node is dead (0 = dead from the start; values past the
    /// end of the base plan are clamped, meaning dead for the fallback
    /// phase only).
    ///
    /// `seeded` is the authoritative initial buffer state (canonical
    /// ids, correct shift vectors) — e.g.
    /// [`PreparedExchange::seeded_blocks`](crate::prepared::PreparedExchange::seeded_blocks).
    /// An empty quarantine yields a schedule equivalent to the base plan.
    pub fn plan(
        plan: &StepPlan,
        seeded: &[Vec<Block<()>>],
        quarantine: &BTreeMap<NodeId, usize>,
    ) -> Result<Self, RepairError> {
        let shape = plan.shape();
        let nn = shape.num_nodes() as usize;
        let base_steps: usize = plan.total_steps();

        let mut qstep: Vec<Option<usize>> = vec![None; nn];
        for (&node, &q) in quarantine {
            if (node as usize) >= nn {
                return Err(RepairError::UnknownNode { node });
            }
            qstep[node as usize] = Some(q.min(base_steps));
        }
        let mut by_step: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for (v, q) in qstep.iter().enumerate() {
            if let Some(q) = q {
                by_step.entry(*q).or_default().push(v as NodeId);
            }
        }
        let alive_at = |v: NodeId, g: usize| match qstep[v as usize] {
            Some(q) => g < q,
            None => true,
        };

        // --- Fault-free baseline (messages + per-block transmissions). ---
        let mut base_tx: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        let mut base_messages = 0u64;
        {
            let mut bufs = Buffers::from_vecs(seeded.to_vec());
            for phase in plan.phases() {
                for step in &phase.steps {
                    let mut deliveries: Vec<(NodeId, Vec<Block<()>>)> = Vec::new();
                    for v in 0..nn as NodeId {
                        let Some(send) = step.sends[v as usize] else {
                            continue;
                        };
                        base_messages += 1;
                        let mut sent = bufs.drain_matching(v, |b| plan.selects(step, v, b));
                        for b in &sent {
                            *base_tx.entry((b.src, b.dst)).or_insert(0) += 1;
                        }
                        if let Some(p) = StepPlan::shift_decrement(step) {
                            for b in &mut sent {
                                b.shifts[p] -= 1;
                            }
                        }
                        deliveries.push((send.dst, sent));
                    }
                    for (dst, blocks) in deliveries {
                        bufs.deliver(dst, blocks);
                    }
                }
            }
        }

        // --- Degraded simulation producing the manifests. ---
        let coords: Vec<torus_topology::Coord> = shape.iter_coords().collect();
        let mut bufs = Buffers::from_vecs(seeded.to_vec());
        let mut parked: Vec<(NodeId, Block<()>)> = Vec::new();
        let mut dropped: Vec<DroppedBlock> = Vec::new();
        let mut contracted_sends = 0u64;
        let mut contracted_ring_ids: BTreeSet<(usize, NodeId)> = BTreeSet::new();
        let mut out_phases: Vec<RepairedPhase> = Vec::new();
        let mut g = 0usize;

        for (pi, phase) in plan.phases().iter().enumerate() {
            let mut out_steps = Vec::with_capacity(phase.steps.len());
            for st in &phase.steps {
                let drops = apply_quarantine(
                    g,
                    by_step.get(&g).map(|v| v.as_slice()).unwrap_or(&[]),
                    nn,
                    &mut bufs,
                    &mut parked,
                    &mut dropped,
                );

                let mut sends: Vec<Option<RepairedSend>> = vec![None; nn];
                let mut deliveries: Vec<(NodeId, Vec<Block<()>>)> = Vec::new();
                let mut expect: Vec<Option<NodeId>> = vec![None; nn];
                for v in 0..nn as NodeId {
                    if !alive_at(v, g) {
                        continue;
                    }
                    let Some(base) = st.sends[v as usize] else {
                        continue;
                    };
                    let repaired = match st.kind {
                        StepKind::Scatter { phase: p } => {
                            let dim = base.dim as usize;
                            let k = shape.extent(dim);
                            let cv = coords[v as usize];
                            let sign = if base.sign > 0 {
                                Sign::Plus
                            } else {
                                Sign::Minus
                            };
                            let node_at = |pos: u32| shape.index_of(&cv.with(dim, pos)) as NodeId;
                            match next_alive(cv[dim], 4, k, sign, |pos| alive_at(node_at(pos), g)) {
                                // Sole survivor of its ring: nothing to
                                // scatter to; leftovers park at phase end.
                                None => None,
                                Some((wpos, s)) => {
                                    let s8 = s as u8;
                                    let mut sent = bufs.drain_matching(v, |b| b.shifts[p] >= s8);
                                    for b in &mut sent {
                                        b.shifts[p] -= s8;
                                    }
                                    if s > 1 {
                                        contracted_sends += 1;
                                        // Smallest ring position identifies
                                        // the ring (node ids are monotone in
                                        // a single coordinate).
                                        contracted_ring_ids.insert((pi, node_at(cv[dim] % 4)));
                                    }
                                    Some((node_at(wpos), 4 * s, s, sent))
                                }
                            }
                        }
                        StepKind::Distance2 { .. } | StepKind::Distance1 { .. } => {
                            let selected = bufs.drain_matching(v, |b| plan.selects(st, v, b));
                            if alive_at(base.dst, g) {
                                Some((base.dst, base.hops as u32, 0, selected))
                            } else {
                                // Dead submesh partner: the affected blocks
                                // go to the direct pairwise fallback.
                                parked.extend(selected.into_iter().map(|b| (v, b)));
                                None
                            }
                        }
                    };
                    if let Some((dst, hops, strides, sent)) = repaired {
                        if let Some(prev) = expect[dst as usize].replace(v) {
                            debug_assert_ne!(prev, v);
                            return Err(RepairError::Contention { step: g, dst });
                        }
                        let mut pairs: Vec<(NodeId, NodeId)> =
                            sent.iter().map(|b| (b.src, b.dst)).collect();
                        pairs.sort_unstable();
                        sends[v as usize] = Some(RepairedSend {
                            dst,
                            dim: base.dim,
                            sign: base.sign,
                            hops,
                            strides,
                            pairs,
                        });
                        deliveries.push((dst, sent));
                    }
                }
                for (dst, blocks) in deliveries {
                    bufs.deliver(dst, blocks);
                }
                out_steps.push(RepairedStep {
                    hops: plan_step_hops(st),
                    sends,
                    drops,
                });
                g += 1;
            }

            // Safety sweep: a scatter phase must leave no block still
            // owing shifts along its dimension — anything stranded by
            // contraction gaps parks for fallback. (Dead nodes' buffers
            // are already empty.)
            if let PhaseKind::Scatter { index: p } = phase.kind {
                for v in 0..nn as NodeId {
                    let stranded = bufs.drain_matching(v, |b| b.shifts[p] > 0);
                    parked.extend(stranded.into_iter().map(|b| (v, b)));
                }
            }
            out_phases.push(RepairedPhase {
                name: phase.name.clone(),
                kind: phase.kind,
                steps: out_steps,
                rearrange_after: phase.rearrange_after,
            });
        }

        // Quarantine events clamped to the end of the base plan (dead for
        // the fallback phase only).
        let end_drops = apply_quarantine(
            base_steps,
            by_step
                .get(&base_steps)
                .map(|v| v.as_slice())
                .unwrap_or(&[]),
            nn,
            &mut bufs,
            &mut parked,
            &mut dropped,
        );

        // Final sweep: any block not at its destination parks.
        for v in 0..nn as NodeId {
            let misplaced = bufs.drain_matching(v, |b| b.dst != v);
            parked.extend(misplaced.into_iter().map(|b| (v, b)));
        }

        // --- Fallback phase: direct pairwise delivery of parked blocks. ---
        let dead_set: Vec<NodeId> = qstep
            .iter()
            .enumerate()
            .filter_map(|(v, q)| q.map(|_| v as NodeId))
            .collect();
        let mut groups: BTreeMap<(NodeId, NodeId), Vec<Block<()>>> = BTreeMap::new();
        for (holder, b) in parked {
            if b.dst == holder {
                // Already at its destination — delivered in place.
                bufs.deliver(holder, vec![b]);
            } else {
                groups.entry((holder, b.dst)).or_default().push(b);
            }
        }
        let fallback_blocks: u64 = groups.values().map(|v| v.len() as u64).sum();
        type ParkedGroup = ((NodeId, NodeId), Vec<Block<()>>);
        let mut remaining: Vec<ParkedGroup> = groups.into_iter().collect();
        let mut fb_steps: Vec<RepairedStep> = Vec::new();
        let mut carried_drops = Some(end_drops);
        while !remaining.is_empty() {
            let mut used_src: BTreeSet<NodeId> = BTreeSet::new();
            let mut used_dst: BTreeSet<NodeId> = BTreeSet::new();
            let mut sends: Vec<Option<RepairedSend>> = vec![None; nn];
            let mut next = Vec::new();
            for ((holder, dst), blocks) in remaining {
                if used_src.contains(&holder) || used_dst.contains(&dst) {
                    next.push(((holder, dst), blocks));
                    continue;
                }
                used_src.insert(holder);
                used_dst.insert(dst);
                // A dead holder still routes its salvaged blocks out (the
                // salvage assumption, DESIGN.md §3a.3), so it is excluded
                // from its own detour's obstacle set.
                let obstacles: Vec<NodeId> =
                    dead_set.iter().copied().filter(|&d| d != holder).collect();
                let hops = detour_hops(shape, holder, dst, &obstacles).ok_or(
                    RepairError::Disconnected {
                        from: holder,
                        to: dst,
                    },
                )?;
                let mut pairs: Vec<(NodeId, NodeId)> =
                    blocks.iter().map(|b| (b.src, b.dst)).collect();
                pairs.sort_unstable();
                bufs.deliver(dst, blocks);
                sends[holder as usize] = Some(RepairedSend {
                    dst,
                    dim: 0,
                    sign: 0,
                    hops,
                    strides: 0,
                    pairs,
                });
            }
            fb_steps.push(RepairedStep {
                hops: 0,
                sends,
                drops: carried_drops.take().unwrap_or_default(),
            });
            remaining = next;
        }
        // Quarantine at the very end with nothing to deliver still needs a
        // carrier step for its drops.
        if let Some(drops) = carried_drops.take() {
            if !drops.is_empty() {
                fb_steps.push(RepairedStep {
                    hops: 0,
                    sends: vec![None; nn],
                    drops,
                });
            }
        }
        let fallback_steps = fb_steps.len() as u64;
        if !fb_steps.is_empty() {
            out_phases.push(RepairedPhase {
                name: "fallback".to_string(),
                kind: PhaseKind::Fallback,
                steps: fb_steps,
                rearrange_after: false,
            });
        }

        // Wait until drops/parks settle before moving blocks back: every
        // dead node must end empty, every survivor clean.
        debug_assert!(dead_set.iter().all(|&d| bufs.node(d).is_empty()));

        dropped.sort_unstable_by_key(|d| (d.src, d.dst));
        let dead: Vec<(NodeId, usize)> = qstep
            .iter()
            .enumerate()
            .filter_map(|(v, q)| q.map(|q| (v as NodeId, q)))
            .collect();
        Ok(Self {
            phases: out_phases,
            dead,
            dropped,
            contracted_rings: contracted_ring_ids.len() as u64,
            contracted_sends,
            fallback_steps,
            fallback_blocks,
            base_messages,
            base_tx: base_tx.into_iter().collect(),
            base_steps,
        })
    }

    /// The quarantined node ids, sorted.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.dead.iter().map(|&(v, _)| v).collect()
    }
}

/// Nominal hop count of a base step (matches [`PlannedStep::hops`]).
fn plan_step_hops(st: &PlannedStep) -> u32 {
    st.hops
}

/// Processes the quarantine events firing at step `g`: drops every block
/// whose source or destination just died (wherever it is held, parked
/// included), then evacuates the dead nodes' surviving-transit blocks to
/// the parked set. Returns the per-holder drop lists for the manifest.
fn apply_quarantine(
    g: usize,
    dying: &[NodeId],
    nn: usize,
    bufs: &mut Buffers<()>,
    parked: &mut Vec<(NodeId, Block<()>)>,
    dropped: &mut Vec<DroppedBlock>,
) -> Vec<(NodeId, Vec<(NodeId, NodeId)>)> {
    if dying.is_empty() {
        return Vec::new();
    }
    let hit = |b: &Block<()>| dying.contains(&b.src) || dying.contains(&b.dst);
    let mut drop_map: BTreeMap<NodeId, Vec<(NodeId, NodeId)>> = BTreeMap::new();
    for v in 0..nn as NodeId {
        for b in bufs.drain_matching(v, hit) {
            drop_map.entry(v).or_default().push((b.src, b.dst));
            dropped.push(DroppedBlock {
                src: b.src,
                dst: b.dst,
                holder: v,
                step: g,
            });
        }
    }
    let mut kept = Vec::with_capacity(parked.len());
    for (holder, b) in parked.drain(..) {
        if hit(&b) {
            drop_map.entry(holder).or_default().push((b.src, b.dst));
            dropped.push(DroppedBlock {
                src: b.src,
                dst: b.dst,
                holder,
                step: g,
            });
        } else {
            kept.push((holder, b));
        }
    }
    *parked = kept;
    for &u in dying {
        let evacuated = std::mem::take(bufs.node_mut(u));
        parked.extend(evacuated.into_iter().map(|b| (u, b)));
    }
    let mut drops: Vec<(NodeId, Vec<(NodeId, NodeId)>)> = drop_map.into_iter().collect();
    for (_, pairs) in &mut drops {
        pairs.sort_unstable();
    }
    drops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_delivery_degraded, verify_full_exchange};
    use torus_topology::TorusShape;

    fn full_expectation(nn: u32) -> Vec<Vec<NodeId>> {
        (0..nn)
            .map(|d| (0..nn).filter(|&s| s != d).collect())
            .collect()
    }

    fn seeded(plan: &StepPlan) -> Vec<Vec<Block<()>>> {
        plan.seed_counting().as_slices().to_vec()
    }

    /// Replays the repaired schedule on `bufs` (drop → send-by-manifest →
    /// deliver), step by step.
    fn replay<P: Clone>(rep: &RepairedSchedule, bufs: &mut Buffers<P>) {
        for phase in &rep.phases {
            for step in &phase.steps {
                for (holder, pairs) in &step.drops {
                    bufs.drain_matching(*holder, |b| pairs.binary_search(&(b.src, b.dst)).is_ok());
                }
                let mut deliveries: Vec<(NodeId, Vec<Block<P>>)> = Vec::new();
                for v in 0..bufs.num_nodes() as NodeId {
                    let Some(send) = &step.sends[v as usize] else {
                        continue;
                    };
                    let sent = bufs
                        .drain_matching(v, |b| send.pairs.binary_search(&(b.src, b.dst)).is_ok());
                    assert_eq!(sent.len(), send.pairs.len());
                    deliveries.push((send.dst, sent));
                }
                for (dst, blocks) in deliveries {
                    bufs.deliver(dst, blocks);
                }
            }
        }
    }

    #[test]
    fn empty_quarantine_matches_base_plan() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let rep = RepairedSchedule::plan(&plan, &seed, &BTreeMap::new()).unwrap();
        assert_eq!(rep.phases.len(), plan.phases().len()); // no fallback
        let rep_steps: usize = rep.phases.iter().map(|p| p.steps.len()).sum();
        assert_eq!(rep_steps, plan.total_steps());
        assert!(rep.dropped.is_empty());
        assert_eq!(rep.contracted_sends, 0);
        assert_eq!(rep.fallback_blocks, 0);
        let mut bufs = Buffers::from_vecs(seed);
        replay(&rep, &mut bufs);
        verify_full_exchange(&shape, &bufs).unwrap();
    }

    #[test]
    fn single_kill_at_every_step_completes_for_survivors() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let nn = shape.num_nodes();
        let expected = full_expectation(nn);
        let victim: NodeId = 13;
        for q in 0..=plan.total_steps() {
            let quarantine = BTreeMap::from([(victim, q)]);
            let rep = RepairedSchedule::plan(&plan, &seed, &quarantine).unwrap();
            let mut bufs = Buffers::from_vecs(seed.clone());
            replay(&rep, &mut bufs);
            verify_delivery_degraded(&bufs, &expected, &[victim])
                .unwrap_or_else(|e| panic!("kill at step {q}: {e}"));
            // Exactly the blocks with a dead endpoint are dropped.
            let want: BTreeSet<(NodeId, NodeId)> = (0..nn)
                .flat_map(|a| [(victim, a), (a, victim)])
                .filter(|(s, d)| s != d)
                .collect();
            let got: BTreeSet<(NodeId, NodeId)> =
                rep.dropped.iter().map(|d| (d.src, d.dst)).collect();
            assert_eq!(got, want, "kill at step {q}");
        }
    }

    #[test]
    fn early_kill_contracts_rings_on_a_long_dimension() {
        // 16 × 4: dimension-0 stride rings have four members, so a dead
        // member leaves three survivors and forces contracted links.
        let shape = TorusShape::new(&[16, 4]).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let nn = shape.num_nodes();
        let victim: NodeId = 5;
        let quarantine = BTreeMap::from([(victim, 0)]);
        let rep = RepairedSchedule::plan(&plan, &seed, &quarantine).unwrap();
        assert!(rep.contracted_sends > 0);
        assert!(rep.contracted_rings > 0);
        let mut bufs = Buffers::from_vecs(seed);
        replay(&rep, &mut bufs);
        verify_delivery_degraded(&bufs, &full_expectation(nn), &[victim]).unwrap();
    }

    #[test]
    fn staggered_double_kill_completes_for_survivors() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let nn = shape.num_nodes();
        let quarantine = BTreeMap::from([(3 as NodeId, 1), (42 as NodeId, 4)]);
        let rep = RepairedSchedule::plan(&plan, &seed, &quarantine).unwrap();
        let mut bufs = Buffers::from_vecs(seed);
        replay(&rep, &mut bufs);
        verify_delivery_degraded(&bufs, &full_expectation(nn), &[3, 42]).unwrap();
        assert_eq!(rep.dead, vec![(3, 1), (42, 4)]);
        // Both directions of both victims' traffic (minus the overlap
        // pair counted twice) are dropped.
        assert_eq!(rep.dropped.len(), 2 * (2 * (nn as usize - 1)) - 2);
    }

    #[test]
    fn planning_is_deterministic() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let quarantine = BTreeMap::from([(9 as NodeId, 3)]);
        let a = RepairedSchedule::plan(&plan, &seed, &quarantine).unwrap();
        let b = RepairedSchedule::plan(&plan, &seed, &quarantine).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quarantine_past_the_end_is_dead_for_fallback_only() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let nn = shape.num_nodes();
        let victim: NodeId = 20;
        let quarantine = BTreeMap::from([(victim, plan.total_steps() + 100)]);
        let rep = RepairedSchedule::plan(&plan, &seed, &quarantine).unwrap();
        assert_eq!(rep.dead, vec![(victim, plan.total_steps())]);
        let mut bufs = Buffers::from_vecs(seed);
        replay(&rep, &mut bufs);
        verify_delivery_degraded(&bufs, &full_expectation(nn), &[victim]).unwrap();
    }

    #[test]
    fn unknown_node_is_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let quarantine = BTreeMap::from([(999 as NodeId, 0)]);
        assert_eq!(
            RepairedSchedule::plan(&plan, &seed, &quarantine),
            Err(RepairError::UnknownNode { node: 999 })
        );
    }

    #[test]
    fn padded_shape_repairs_on_the_canonical_plan() {
        // 6×6 pads to canonical 8×8: the repair consumes the prepared
        // (real-pairs-only) seed and must still complete survivors.
        let shape = TorusShape::new_2d(6, 6).unwrap();
        let prepared = crate::prepared::PreparedExchange::new(&shape).unwrap();
        let plan = prepared.step_plan();
        let victim = prepared.exchange().to_canonical(7);
        let quarantine = BTreeMap::from([(victim, 2usize)]);
        let rep = RepairedSchedule::plan(&plan, prepared.seeded_blocks(), &quarantine).unwrap();
        let mut bufs = Buffers::from_vecs(prepared.seeded_blocks().to_vec());
        replay(&rep, &mut bufs);
        verify_delivery_degraded(&bufs, prepared.expected_delivery(), &[victim]).unwrap();
        // Exactly the victim's incident pairs (real peers only) drop.
        let real_n = shape.num_nodes() as usize;
        assert_eq!(rep.dropped.len(), 2 * (real_n - 1));
    }

    #[test]
    fn base_accounting_counts_every_scheduled_send() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let plan = StepPlan::new(&shape);
        let seed = seeded(&plan);
        let rep = RepairedSchedule::plan(&plan, &seed, &BTreeMap::new()).unwrap();
        let scheduled: u64 = plan
            .phases()
            .iter()
            .flat_map(|p| &p.steps)
            .map(|s| s.sends.iter().flatten().count() as u64)
            .sum();
        assert_eq!(rep.base_messages, scheduled);
        // Every block crosses the wire at least once.
        let nn = shape.num_nodes() as u64;
        assert_eq!(rep.base_tx.len() as u64, nn * (nn - 1));
        assert!(rep.base_tx.iter().all(|&(_, tx)| tx >= 1));
    }
}
