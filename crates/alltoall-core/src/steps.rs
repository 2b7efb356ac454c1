//! The simulator's plan of the paper's exchange, and the one walk over it.
//!
//! [`StepPlan`] wraps the contention-validated [`StaticSchedule`]
//! (destinations per node per step) and adds the paper's per-step
//! **block-selection rules** ([`selects`](StepPlan::selects)). It is the
//! exchange written once:
//!
//! * [`execute`](StepPlan::execute) is the one walk. Every node with a
//!   send drains the blocks its rule selects, the step's messages are
//!   charged to the contention-checking [`Engine`], and the blocks are
//!   delivered. [`Exchange`](crate::Exchange),
//!   [`PreparedExchange`](crate::PreparedExchange) and
//!   [`run_alltoallv`](crate::Exchange::run_alltoallv) all run through
//!   it, and it is the reference `torus-runtime`'s suites compare the
//!   byte-moving executions against (via
//!   [`Exchange::run_with_payloads`](crate::Exchange::run_with_payloads)).
//! * An external runtime iterates the same plan as plain data — who sends
//!   to whom each step, and which blocks a node folds into its combined
//!   message — without re-deriving any of the direction machinery.

use torus_sim::{Engine, SimError, Transmission};
use torus_topology::{Coord, NodeId, TorusShape};

use crate::block::{Block, Buffers};
use crate::observer::{Observer, PhaseKind};
use crate::schedule::{StaticSchedule, StaticSend};

/// What kind of step this is — determines the block-selection rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Step of within-group scatter phase `phase + 1` (0-based index).
    Scatter {
        /// 0-based scatter-phase index (also the shift-counter slot).
        phase: usize,
    },
    /// Step `step + 1` of the distance-2 submesh phase (`n + 1`).
    Distance2 {
        /// 0-based step index within the phase.
        step: usize,
    },
    /// Distance-1 exchange along canonical dimension `dim` (phase `n + 2`).
    Distance1 {
        /// Canonical dimension exchanged along.
        dim: usize,
    },
}

/// One step of the plan: per-node destinations plus the selection rule.
#[derive(Clone, Debug)]
pub struct PlannedStep {
    /// The step's kind (selection rule + shift bookkeeping).
    pub kind: StepKind,
    /// Hop count of every message in this step (4, 2, or 1).
    pub hops: u32,
    /// Indexed by node id: the node's send this step, `None` if it idles.
    pub sends: Vec<Option<StaticSend>>,
}

/// One phase of the plan.
#[derive(Clone, Debug)]
pub struct PlannedPhase {
    /// Phase label, e.g. `"phase 1"` (the engine trace's phase name).
    pub name: String,
    /// The phase kind reported to [`Observer`]s.
    pub kind: PhaseKind,
    /// Steps in execution order.
    pub steps: Vec<PlannedStep>,
    /// Whether the paper's inter-phase data rearrangement follows this
    /// phase (true for every phase except the last).
    pub rearrange_after: bool,
}

/// The full `n + 2`-phase plan for one canonical torus shape, with the
/// per-step block-selection rules needed to execute it on real buffers.
///
/// ```
/// use alltoall_core::{NullObserver, StepPlan};
/// use cost_model::CommParams;
/// use torus_sim::Engine;
/// use torus_topology::TorusShape;
///
/// let shape = TorusShape::new_2d(8, 8).unwrap();
/// let plan = StepPlan::new(&shape);
/// assert_eq!(plan.phases().len(), 4); // n + 2
///
/// // The walk performs a full exchange, every step contention-checked.
/// let mut bufs = plan.seed_counting();
/// let mut engine = Engine::new(&shape, CommParams::unit());
/// plan.execute(&mut bufs, &mut engine, &mut NullObserver).unwrap();
/// alltoall_core::verify_full_exchange(&shape, &bufs).unwrap();
/// assert_eq!(engine.counts().startup_steps, 6);
/// ```
#[derive(Clone, Debug)]
pub struct StepPlan {
    shape: TorusShape,
    phases: Vec<PlannedPhase>,
    coords: Vec<Coord>,
}

impl StepPlan {
    /// Builds the plan for a **canonical** shape (extents non-increasing,
    /// all multiples of four, `n >= 2` — see
    /// [`DirectionSchedule::new`](crate::dirsched::DirectionSchedule::new),
    /// which panics otherwise).
    pub fn new(shape: &TorusShape) -> Self {
        let sched = StaticSchedule::generate(shape);
        let n = shape.ndims();
        let nn = shape.num_nodes() as usize;
        let coords: Vec<Coord> = shape.iter_coords().collect();

        let mut phases = Vec::with_capacity(n + 2);
        for (pi, phase) in sched.phases.iter().enumerate() {
            let kind = if pi < n {
                PhaseKind::Scatter { index: pi }
            } else if pi == n {
                PhaseKind::Distance2
            } else {
                PhaseKind::Distance1
            };
            let steps = phase
                .steps
                .iter()
                .enumerate()
                .map(|(si, st)| {
                    let (kind, hops) = if pi < n {
                        (StepKind::Scatter { phase: pi }, 4)
                    } else if pi == n {
                        (StepKind::Distance2 { step: si }, 2)
                    } else {
                        (StepKind::Distance1 { dim: si }, 1)
                    };
                    let mut sends: Vec<Option<StaticSend>> = vec![None; nn];
                    for s in &st.sends {
                        sends[s.src as usize] = Some(*s);
                    }
                    PlannedStep { kind, hops, sends }
                })
                .collect();
            phases.push(PlannedPhase {
                name: phase.name.clone(),
                kind,
                steps,
                // The paper performs n + 1 rearrangements for n + 2
                // phases: one after every phase but the last.
                rearrange_after: pi <= n,
            });
        }
        Self {
            shape: shape.clone(),
            phases,
            coords,
        }
    }

    /// The canonical shape the plan executes on.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[PlannedPhase] {
        &self.phases
    }

    /// Total number of communication steps across all phases.
    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(|p| p.steps.len()).sum()
    }

    /// The paper's block-selection rule: must `node` fold `block` into its
    /// combined message for `step`?
    ///
    /// * scatter phase `p`: blocks still owing 4-stride shifts along the
    ///   phase's dimension (`shifts[p] > 0`);
    /// * distance-2: blocks whose destination lies in the other half of
    ///   the `4 × … × 4` submesh along the node's step dimension;
    /// * distance-1: blocks whose destination has the other parity along
    ///   the step's dimension.
    pub fn selects<P>(&self, step: &PlannedStep, node: NodeId, block: &Block<P>) -> bool {
        match step.kind {
            StepKind::Scatter { phase } => block.shifts[phase] > 0,
            StepKind::Distance2 { .. } => match &step.sends[node as usize] {
                Some(send) => {
                    let delta = send.dim as usize;
                    let u = self.coords[node as usize][delta] % 4;
                    let d = self.coords[block.dst as usize][delta] % 4;
                    u / 2 != d / 2
                }
                None => false,
            },
            StepKind::Distance1 { dim } => {
                self.coords[node as usize][dim] % 2 != self.coords[block.dst as usize][dim] % 2
            }
        }
    }

    /// The shift-counter slot a sender must decrement on each forwarded
    /// block (`Some(p)` in scatter phase `p`; the block is about to travel
    /// one 4-hop stride).
    pub fn shift_decrement(step: &PlannedStep) -> Option<usize> {
        match step.kind {
            StepKind::Scatter { phase } => Some(phase),
            _ => None,
        }
    }

    /// Seeds counting-mode buffers for a full exchange on the plan's shape
    /// (every ordered pair, correct shift vectors) — convenience for tests
    /// and doc examples.
    pub fn seed_counting(&self) -> Buffers<()> {
        let n = self.shape.num_nodes();
        Buffers::seeded(
            &self.shape,
            (0..n).flat_map(|s| (0..n).map(move |d| (s, d, ()))),
        )
    }

    /// The walk: runs the whole plan on `bufs`, charging every step to
    /// `engine`, which rejects any step that is not contention-free.
    ///
    /// Per step, every node with a send drains the blocks
    /// [`selects`](Self::selects) picks (decrementing the phase's shift
    /// counter in scatter phases); each non-empty message travels the
    /// send's ring direction. After each phase with
    /// [`rearrange_after`](PlannedPhase::rearrange_after) the engine is
    /// charged one rearrangement pass over every node's `N`-entry data
    /// array — the resident self-block `B[i, i]` included (Section 3.3).
    /// Does **not** verify delivery — see [`verify`](crate::verify).
    pub fn execute<P: Clone, O: Observer<P>>(
        &self,
        bufs: &mut Buffers<P>,
        engine: &mut Engine,
        observer: &mut O,
    ) -> Result<(), SimError> {
        let blocks_per_node = self.shape.num_nodes() as u64;
        observer.on_start(bufs);
        for phase in &self.phases {
            engine.begin_phase(&phase.name);
            for (si, step) in phase.steps.iter().enumerate() {
                let mut txs = Vec::new();
                let mut deliveries: Vec<(NodeId, Vec<Block<P>>)> = Vec::new();
                for (node, send) in step.sends.iter().enumerate() {
                    let Some(send) = send else {
                        continue;
                    };
                    let node = node as NodeId;
                    let mut sent = bufs.drain_matching(node, |b| self.selects(step, node, b));
                    if sent.is_empty() {
                        continue;
                    }
                    if let Some(p) = Self::shift_decrement(step) {
                        for b in &mut sent {
                            debug_assert!(b.shifts[p] > 0);
                            b.shifts[p] -= 1;
                        }
                    }
                    txs.push(Transmission::along_ring(
                        &self.shape,
                        &self.coords[node as usize],
                        send.direction(),
                        send.hops as u32,
                        sent.len() as u64,
                    ));
                    deliveries.push((send.dst, sent));
                }
                engine.execute_step(&txs)?;
                for (dst, blocks) in deliveries {
                    bufs.deliver(dst, blocks);
                }
                observer.on_step(phase.kind, si + 1, bufs);
            }
            if phase.rearrange_after {
                engine.rearrange(blocks_per_node);
                observer.on_rearrange(phase.kind, bufs);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::schedule::shapes_4_8;
    use crate::verify::verify_full_exchange;
    use cost_model::CommParams;

    /// Seeds a full counting exchange on `dims` and walks it.
    fn run_counting(dims: &[u32]) -> (TorusShape, Buffers<()>, Engine) {
        let shape = TorusShape::new(dims).unwrap();
        let plan = StepPlan::new(&shape);
        let mut bufs = plan.seed_counting();
        let mut engine = Engine::new(&shape, CommParams::unit());
        plan.execute(&mut bufs, &mut engine, &mut NullObserver)
            .expect("schedule must be contention-free");
        (shape, bufs, engine)
    }

    #[test]
    fn plan_structure_matches_paper() {
        let shape = TorusShape::new_2d(12, 12).unwrap();
        let plan = StepPlan::new(&shape);
        assert_eq!(plan.phases().len(), 4);
        assert_eq!(plan.total_steps(), 2 * (12 / 4 + 1) as usize);
        assert_eq!(plan.phases()[0].steps.len(), 2); // a1/4 - 1
        assert_eq!(plan.phases()[2].steps.len(), 2); // distance-2: n steps
        assert_eq!(plan.phases()[3].steps.len(), 2); // distance-1: n steps
        assert!(plan.phases()[0].rearrange_after);
        assert!(plan.phases()[2].rearrange_after);
        assert!(!plan.phases()[3].rearrange_after);
        assert_eq!(plan.phases()[0].kind, PhaseKind::Scatter { index: 0 });
        assert_eq!(plan.phases()[2].kind, PhaseKind::Distance2);
        assert_eq!(plan.phases()[3].kind, PhaseKind::Distance1);
    }

    #[test]
    fn walk_completes_full_exchange() {
        for dims in [&[8u32, 8][..], &[12, 8], &[8, 8, 8], &[4, 4, 4, 4]] {
            let (shape, bufs, _) = run_counting(dims);
            verify_full_exchange(&shape, &bufs).unwrap_or_else(|e| panic!("{dims:?}: {e}"));
        }
    }

    #[test]
    fn exchange_12x12_counts_match_table1() {
        let (shape, bufs, engine) = run_counting(&[12, 12]);
        verify_full_exchange(&shape, &bufs).unwrap();
        let counts = engine.counts();
        let formula = cost_model::proposed_2d(12, 12);
        assert_eq!(counts.startup_steps, formula.startup_steps);
        assert_eq!(counts.rearr_steps, formula.rearr_steps);
        assert_eq!(counts.prop_hops, formula.prop_hops);
        // The self-block (never transmitted) sits in the never-sent region
        // of every phase, so the measured critical volume equals the
        // closed form exactly.
        assert_eq!(counts.trans_blocks, formula.trans_blocks);
    }

    #[test]
    fn exchange_rectangular_8x12() {
        // R != C: phases keyed to the larger dim, shorter-dim nodes idle.
        let (shape, bufs, engine) = run_counting(&[12, 8]);
        verify_full_exchange(&shape, &bufs).unwrap();
        assert_eq!(engine.counts().startup_steps, (12 / 2 + 2) as u64);
    }

    #[test]
    fn exchange_3d_8cubed() {
        let (shape, bufs, engine) = run_counting(&[8, 8, 8]);
        verify_full_exchange(&shape, &bufs).unwrap();
        let counts = engine.counts();
        let formula = cost_model::proposed_nd(&[8, 8, 8]);
        assert_eq!(counts.startup_steps, formula.startup_steps);
        assert_eq!(counts.prop_hops, formula.prop_hops);
        assert_eq!(counts.rearr_steps, formula.rearr_steps);
    }

    #[test]
    fn exchange_4d_4x4x4x4() {
        // a1 = 4: scatter phases have zero steps; the submesh phases do
        // all the work (the formula still holds: n(a1/4+1) = 2n steps).
        let (shape, bufs, engine) = run_counting(&[4, 4, 4, 4]);
        verify_full_exchange(&shape, &bufs).unwrap();
        assert_eq!(engine.counts().startup_steps, 8);
    }

    #[test]
    fn payload_blocks_arrive_intact() {
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let n = shape.num_nodes();
        let pairs = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d, vec![(s % 251) as u8, (d % 251) as u8])));
        let mut bufs = Buffers::seeded(&shape, pairs);
        let mut engine = Engine::new(&shape, CommParams::unit());
        StepPlan::new(&shape)
            .execute(&mut bufs, &mut engine, &mut NullObserver)
            .unwrap();
        for node in 0..shape.num_nodes() {
            for b in bufs.node(node) {
                assert_eq!(b.dst, node);
                assert_eq!(b.payload, vec![(b.src % 251) as u8, (node % 251) as u8]);
            }
        }
    }

    #[test]
    fn block_conservation_every_step() {
        fn total_blocks(bufs: &Buffers<()>) -> usize {
            bufs.as_slices().iter().map(Vec::len).sum()
        }
        struct Conserve {
            expect: usize,
        }
        impl Observer<()> for Conserve {
            fn on_step(&mut self, _: PhaseKind, _: usize, bufs: &Buffers<()>) {
                assert_eq!(total_blocks(bufs), self.expect);
            }
        }
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let plan = StepPlan::new(&shape);
        let mut bufs = plan.seed_counting();
        let total = total_blocks(&bufs);
        let mut engine = Engine::new(&shape, CommParams::unit());
        plan.execute(&mut bufs, &mut engine, &mut Conserve { expect: total })
            .unwrap();
    }

    #[test]
    fn idle_senders_hold_no_selected_blocks() {
        // Whenever the static plan marks a node idle, the selection rule
        // must agree that it has nothing to forward — otherwise the walk
        // would leave those blocks stranded.
        for shape in shapes_4_8()
            .into_iter()
            .filter(|s| s.num_nodes() <= 512)
            .chain([TorusShape::new(&[12, 8]).unwrap()])
        {
            let plan = StepPlan::new(&shape);
            let mut bufs = plan.seed_counting();
            for phase in plan.phases() {
                for step in &phase.steps {
                    let mut deliveries: Vec<(NodeId, Vec<Block<()>>)> = Vec::new();
                    for node in 0..shape.num_nodes() {
                        let selected = bufs.drain_matching(node, |b| plan.selects(step, node, b));
                        match step.sends[node as usize] {
                            Some(send) => {
                                let mut sent = selected;
                                if let Some(p) = StepPlan::shift_decrement(step) {
                                    for b in &mut sent {
                                        b.shifts[p] -= 1;
                                    }
                                }
                                deliveries.push((send.dst, sent));
                            }
                            None => assert!(
                                selected.is_empty(),
                                "{shape}: idle node {node} had {} selected blocks in {:?}",
                                selected.len(),
                                step.kind
                            ),
                        }
                    }
                    for (dst, blocks) in deliveries {
                        bufs.deliver(dst, blocks);
                    }
                }
            }
            verify_full_exchange(&shape, &bufs).unwrap_or_else(|e| panic!("{shape}: {e}"));
        }
    }
}
