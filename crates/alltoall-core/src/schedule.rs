//! Static schedules: the communication pattern as a first-class artifact.
//!
//! The paper highlights that *"destinations remain fixed over a larger
//! number of steps"* — the send pattern of each phase is a static
//! permutation, independent of buffer contents. [`StaticSchedule`]
//! materializes that pattern (per phase, per step, per node: destination
//! and channel direction), which makes it:
//!
//! * **checkable** — `destinations_fixed_within_phases` proves the claim
//!   mechanically, and `validate` replays every step through the
//!   contention-checking engine with dummy payloads;
//! * **portable** — every field is plain data (node ids, dimension,
//!   sign, hops), and `torus-xchg schedule --json` exports it, so a
//!   runtime system (e.g. an MPI progress engine) can precompile it
//!   offline and execute it without this crate.

use torus_sim::{Engine, SimError, Transmission};
use torus_topology::{Direction, NodeId, Sign, TorusShape};

use crate::dirsched::DirectionSchedule;

/// One node's send in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticSend {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Dimension travelled.
    pub dim: u8,
    /// `+1` for the positive ring direction, `-1` for negative.
    pub sign: i8,
    /// Hop count (4 in scatter phases, 2 in phase n+1, 1 in phase n+2).
    pub hops: u8,
}

impl StaticSend {
    /// The channel direction the send travels.
    pub(crate) fn direction(&self) -> Direction {
        let sign = if self.sign > 0 {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Direction::new(self.dim as usize, sign)
    }
}

/// One step: the set of concurrent sends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticStep {
    /// Concurrent sends (at most one per source node).
    pub sends: Vec<StaticSend>,
}

/// One phase: a name and its steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticPhase {
    /// `"phase 3"` etc., 1-based like the paper.
    pub name: String,
    /// Steps in order.
    pub steps: Vec<StaticStep>,
}

/// The full `n + 2`-phase static schedule for one canonical shape.
///
/// ```
/// use alltoall_core::StaticSchedule;
/// use torus_topology::TorusShape;
///
/// let shape = TorusShape::new_2d(8, 8).unwrap();
/// let sched = StaticSchedule::generate(&shape);
/// sched.validate(&shape).unwrap();           // contention-free
/// assert_eq!(sched.total_steps(), 6);        // 2(8/4 + 1)
/// assert!(sched.destinations_fixed_within_phases());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticSchedule {
    /// Canonical dimension extents.
    pub dims: Vec<u32>,
    /// Phases in execution order.
    pub phases: Vec<StaticPhase>,
}

impl StaticSchedule {
    /// Generates the schedule for a canonical shape (see
    /// [`DirectionSchedule::new`] for the shape requirements).
    ///
    /// Scatter steps list every node whose phase ring still runs that
    /// step; a node on a shorter ring idles and is omitted. The walk's
    /// block selection ([`StepPlan::execute`](crate::StepPlan::execute))
    /// decides actual volumes, and a listed node with nothing left to
    /// forward sends nothing.
    pub fn generate(shape: &TorusShape) -> Self {
        let sched = DirectionSchedule::new(shape);
        let n = shape.ndims();
        let scatter_steps = sched.steps_per_scatter_phase();
        let mut phases = Vec::with_capacity(n + 2);

        // Phases 1..n: fixed destination per node per phase. A node whose
        // phase dimension has extent a_δ participates only in the first
        // a_δ/4 − 1 steps and idles afterwards ("idle or send empty
        // messages" — Section 3.2); a node whose subtorus ring is a single
        // node (a_δ = 4) never scatters in that phase at all.
        for p in 0..n {
            let mut steps = Vec::with_capacity(scatter_steps as usize);
            for s in 1..=scatter_steps {
                let sends: Vec<StaticSend> = shape
                    .iter_coords()
                    .filter_map(|c| {
                        let dir = sched.scatter_dirs(&c)[p];
                        let active_steps = shape.extent(dir.dim()) / 4 - 1;
                        if s > active_steps {
                            return None; // shorter dimension: node idles
                        }
                        let dst = shape.shift(&c, dir, 4);
                        Some(StaticSend {
                            src: shape.index_of(&c),
                            dst: shape.index_of(&dst),
                            dim: dir.dim,
                            sign: if dir.sign == Sign::Plus { 1 } else { -1 },
                            hops: 4,
                        })
                    })
                    .collect();
                steps.push(StaticStep { sends });
            }
            phases.push(StaticPhase {
                name: format!("phase {}", p + 1),
                steps,
            });
        }

        // Phase n+1: distance-2 exchanges, per-node dimension order.
        let mut steps = Vec::with_capacity(n);
        for j in 0..n {
            let sends: Vec<StaticSend> = shape
                .iter_coords()
                .map(|c| {
                    let dim = sched.submesh_dim_order(&c)[j];
                    let sign = DirectionSchedule::distance2_sign(&c, dim);
                    let dst = shape.shift(&c, Direction::new(dim, sign), 2);
                    StaticSend {
                        src: shape.index_of(&c),
                        dst: shape.index_of(&dst),
                        dim: dim as u8,
                        sign: if sign == Sign::Plus { 1 } else { -1 },
                        hops: 2,
                    }
                })
                .collect();
            steps.push(StaticStep { sends });
        }
        phases.push(StaticPhase {
            name: format!("phase {}", n + 1),
            steps,
        });

        // Phase n+2: distance-1 exchanges, fixed dimension order.
        let mut steps = Vec::with_capacity(n);
        for j in 0..n {
            let sends: Vec<StaticSend> = shape
                .iter_coords()
                .map(|c| {
                    let sign = DirectionSchedule::distance1_sign(&c, j);
                    let dst = shape.shift(&c, Direction::new(j, sign), 1);
                    StaticSend {
                        src: shape.index_of(&c),
                        dst: shape.index_of(&dst),
                        dim: j as u8,
                        sign: if sign == Sign::Plus { 1 } else { -1 },
                        hops: 1,
                    }
                })
                .collect();
            steps.push(StaticStep { sends });
        }
        phases.push(StaticPhase {
            name: format!("phase {}", n + 2),
            steps,
        });

        Self {
            dims: shape.dims().to_vec(),
            phases,
        }
    }

    /// Replays every step through the contention-checking engine (unit
    /// blocks). Returns the first violation, if any.
    pub fn validate(&self, shape: &TorusShape) -> Result<(), SimError> {
        assert_eq!(shape.dims(), &self.dims[..], "schedule/shape mismatch");
        let mut engine = Engine::new(shape, cost_model::CommParams::unit());
        for phase in &self.phases {
            for step in &phase.steps {
                let txs: Vec<Transmission> = step
                    .sends
                    .iter()
                    .map(|s| {
                        let from = shape.coord_of(s.src);
                        Transmission::along_ring(shape, &from, s.direction(), s.hops as u32, 1)
                    })
                    .collect();
                engine.execute_step(&txs)?;
            }
        }
        Ok(())
    }

    /// The paper's "destinations remain fixed over a larger number of
    /// steps" property: within each *scatter* phase (the first `n`, which
    /// run `a1/4 − 1` steps each), every node's destination is identical
    /// across all steps. The submesh phases move along a different
    /// dimension every step by design.
    pub fn destinations_fixed_within_phases(&self) -> bool {
        let n = self.dims.len();
        self.phases.iter().take(n).all(|phase| {
            // Every node that sends in a phase always sends to the same
            // destination; shorter-dimension nodes may stop early (idle),
            // but never switch targets.
            let mut dest: std::collections::HashMap<NodeId, NodeId> =
                std::collections::HashMap::new();
            phase.steps.iter().all(|step| {
                step.sends
                    .iter()
                    .all(|s| *dest.entry(s.src).or_insert(s.dst) == s.dst)
            })
        })
    }

    /// Total number of steps (equals `n(a1/4 + 1)` for canonical shapes).
    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(|p| p.steps.len()).sum()
    }
}

/// Every canonical shape with extents in `{4, 8}` and `2 <= n <= 4`
/// (twelve shapes, 16 to 4096 nodes).
#[cfg(test)]
pub(crate) fn shapes_4_8() -> Vec<TorusShape> {
    (2..=4usize)
        .flat_map(|n| {
            (0..=n).rev().map(move |eights| {
                let dims: Vec<u32> = (0..n).map(|i| if i < eights { 8 } else { 4 }).collect();
                TorusShape::new(&dims).unwrap()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched_for(dims: &[u32]) -> (TorusShape, StaticSchedule) {
        let shape = TorusShape::new(dims).unwrap();
        let s = StaticSchedule::generate(&shape);
        (shape, s)
    }

    #[test]
    fn step_count_matches_formula() {
        for dims in [&[8u32, 8][..], &[12, 12], &[16, 8], &[8, 8, 8], &[12, 8, 4]] {
            let (_, s) = sched_for(dims);
            let n = dims.len();
            let a1 = *dims.iter().max().unwrap();
            assert_eq!(
                s.total_steps() as u32,
                n as u32 * (a1 / 4 + 1),
                "dims {dims:?}"
            );
            assert_eq!(s.phases.len(), n + 2);
        }
    }

    #[test]
    fn destinations_fixed_claim_holds() {
        for dims in [&[12u32, 12][..], &[16, 8], &[8, 8, 8]] {
            let (_, s) = sched_for(dims);
            assert!(s.destinations_fixed_within_phases(), "dims {dims:?}");
        }
    }

    #[test]
    fn schedule_validates_contention_free() {
        for dims in [&[8u32, 8][..], &[12, 8], &[8, 8, 8], &[4, 4, 4, 4]] {
            let (shape, s) = sched_for(dims);
            s.validate(&shape)
                .unwrap_or_else(|e| panic!("{dims:?}: {e}"));
        }
    }

    #[test]
    fn scatter_sends_are_permutations() {
        // In every step each node sends exactly once and receives exactly
        // once (the one-port property at schedule level).
        let (shape, s) = sched_for(&[12, 12]);
        for phase in &s.phases {
            for step in &phase.steps {
                let mut srcs: Vec<NodeId> = step.sends.iter().map(|x| x.src).collect();
                let mut dsts: Vec<NodeId> = step.sends.iter().map(|x| x.dst).collect();
                srcs.sort_unstable();
                dsts.sort_unstable();
                let all: Vec<NodeId> = (0..shape.num_nodes()).collect();
                assert_eq!(srcs, all);
                assert_eq!(dsts, all);
            }
        }
    }

    #[test]
    fn every_4_8_shape_validates_with_one_port_fixed_destinations() {
        let shapes = shapes_4_8();
        assert_eq!(shapes.len(), 12);
        for shape in shapes {
            let s = StaticSchedule::generate(&shape);
            s.validate(&shape)
                .unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert!(s.destinations_fixed_within_phases(), "{shape}");
            // One port: every step is a permutation of its active nodes —
            // no node sends twice or receives twice, and every receiver
            // is itself a sender that step.
            for phase in &s.phases {
                for step in &phase.steps {
                    let mut srcs: Vec<NodeId> = step.sends.iter().map(|x| x.src).collect();
                    let mut dsts: Vec<NodeId> = step.sends.iter().map(|x| x.dst).collect();
                    srcs.sort_unstable();
                    dsts.sort_unstable();
                    assert!(srcs.windows(2).all(|w| w[0] < w[1]), "{shape}: double send");
                    assert_eq!(srcs, dsts, "{shape} {}: not a permutation", phase.name);
                }
            }
        }
    }

    #[test]
    fn rectangular_idle_nodes_are_omitted() {
        // On an 8x4 torus, nodes scattering along the extent-4 dimension
        // have a single-node subtorus ring: they never send in that phase.
        let (shape, s) = sched_for(&[8, 4]);
        s.validate(&shape).unwrap();
        // phase 1 has 8/4-1 = 1 step; only the dim-0 scatterers send.
        let step = &s.phases[0].steps[0];
        assert!(step.sends.len() < shape.num_nodes() as usize);
        assert!(step.sends.iter().all(|x| x.dim == 0));
        assert!(s.destinations_fixed_within_phases());
    }

    #[test]
    fn exchange_pairs_in_submesh_phases() {
        // Phases n+1 and n+2 are pairwise exchanges: if u sends to v,
        // v sends to u in the same step.
        let (shape, s) = sched_for(&[8, 8, 8]);
        let n = shape.ndims();
        for phase in &s.phases[n..] {
            for step in &phase.steps {
                let map: std::collections::HashMap<NodeId, NodeId> =
                    step.sends.iter().map(|x| (x.src, x.dst)).collect();
                for (u, v) in &map {
                    assert_eq!(map.get(v), Some(u), "step must pair {u} <-> {v}");
                }
            }
        }
    }
}
