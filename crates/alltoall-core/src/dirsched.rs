//! Direction schedules — the paper's communication patterns.
//!
//! Every node selects, for each of the `n` within-group phases, one of the
//! `2n` directions; the selection depends only on the node's coordinates
//! mod 4, so all nodes of a scatter pipeline (same group, spaced 4 apart)
//! share a schedule and their 4-hop messages tile each ring without channel
//! overlap.
//!
//! The concrete patterns (Sections 3.2 and 4.1):
//!
//! **2D** (`γ = (r + c) mod 4`, `c` the larger dimension):
//!
//! | γ | phase 1 | phase 2 |
//! |---|---------|---------|
//! | 0 | `+c`    | `+r`    |
//! | 1 | `+r`    | `+c`    |
//! | 2 | `−c`    | `−r`    |
//! | 3 | `−r`    | `−c`    |
//!
//! **3D**: nodes in even-numbered X-Y planes (`Z mod 4 ∈ {0, 2}`) run
//! pattern A, B, then ±Z; nodes in odd planes run ±Z, then B, then A.
//!
//! **nD** (Section 4.2): nodes in even-numbered units along dimension `n`
//! follow the `(n−1)`-dimensional patterns in the first `n−1` phases and
//! scatter along dimension `n` in phase `n`; the others scatter along
//! dimension `n` in phase 1 and follow the `(n−1)`-dimensional patterns —
//! in reverse phase order, matching the explicit 3D rules — afterwards.
//!
//! The same recursive structure, keyed on position parity instead of
//! residue mod 4, orders the per-node dimension sequence of the
//! distance-2 submesh phase (`n+1`); the distance-1 phase (`n+2`) visits
//! dimensions in fixed descending-extent order for all nodes, as in the
//! paper's 2D phase 4 / 3D phase 5.
//!
//! All of this assumes the **canonical orientation**: dimensions sorted by
//! non-increasing extent (`a_1 ≥ … ≥ a_n`). [`crate::exchange`] permutes
//! arbitrary shapes into this orientation and back.

use torus_topology::{ring_hops, Coord, Direction, Sign, TorusShape, MAX_DIMS};

/// Precomputed direction scheduling for one canonical torus shape.
#[derive(Clone, Debug)]
pub struct DirectionSchedule {
    shape: TorusShape,
}

impl DirectionSchedule {
    /// Builds the schedule helper.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not canonical (non-increasing extents, all
    /// multiples of four) or has fewer than 2 dimensions — the paper's
    /// patterns are defined from 2D up.
    pub fn new(shape: &TorusShape) -> Self {
        assert!(
            shape.ndims() >= 2,
            "direction schedules need >= 2 dimensions (got {shape})"
        );
        assert!(
            shape.is_sorted_desc(),
            "shape {shape} must be canonical (non-increasing extents)"
        );
        assert!(
            shape.all_multiple_of(4),
            "shape {shape} must have all extents multiples of 4"
        );
        assert!(
            shape.extent(0) <= 1024,
            "extents above 1024 would overflow the u8 shift counters (got {shape})"
        );
        Self {
            shape: shape.clone(),
        }
    }

    /// Number of steps in each within-group phase: `a_1/4 − 1`.
    pub(crate) fn steps_per_scatter_phase(&self) -> u32 {
        self.shape.extent(0) / 4 - 1
    }

    /// The directions a node scatters along in phases `1..=n`
    /// (`result[p]` is the direction of phase `p+1`).
    ///
    /// Depends only on the node's coordinates mod 4, so it is constant
    /// along every scatter pipeline.
    pub fn scatter_dirs(&self, node: &Coord) -> Vec<Direction> {
        scatter_dirs_rec(node, self.shape.ndims())
    }

    /// Dimension visit order for the distance-2 submesh phase (`n+1`):
    /// `result[j]` is the dimension the node exchanges along in step `j+1`.
    pub fn submesh_dim_order(&self, node: &Coord) -> Vec<usize> {
        submesh_order_rec(node, self.shape.ndims())
    }

    /// Sign of the distance-2 exchange along `dim` for a node: positions
    /// 0, 1 within the `4×…×4` submesh pair up with 2, 3 (`+2` / `−2`).
    pub(crate) fn distance2_sign(node: &Coord, dim: usize) -> Sign {
        if node[dim] % 4 < 2 {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }

    /// Sign of the distance-1 exchange along `dim` for a node.
    pub fn distance1_sign(node: &Coord, dim: usize) -> Sign {
        if node[dim].is_multiple_of(2) {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }

    /// The shift vector of a block from `s` whose group representative
    /// is `t`: `result[p]` is the number of 4-stride hops the block needs
    /// in phase `p+1` to progress from `s` to `t` along the phase's
    /// dimension and direction, given `s`'s precomputed
    /// [`scatter_dirs`](Self::scatter_dirs) — what seeding calls once per
    /// block.
    pub(crate) fn shifts_along(&self, dirs: &[Direction], s: &Coord, t: &Coord) -> [u8; MAX_DIMS] {
        let mut shifts = [0u8; MAX_DIMS];
        for (p, dir) in dirs.iter().enumerate() {
            let dim = dir.dim();
            let hops = ring_hops(s[dim], t[dim], self.shape.extent(dim), dir.sign);
            debug_assert_eq!(hops % 4, 0, "representative differs by multiples of 4");
            let k = hops / 4;
            debug_assert!(k <= u8::MAX as u32);
            shifts[p] = k as u8;
        }
        shifts
    }
}

/// Phase directions over the first `m` canonical dimensions (recursive
/// structure of Section 4.2, grounded at the 2D patterns of Section 3.2).
fn scatter_dirs_rec(node: &Coord, m: usize) -> Vec<Direction> {
    debug_assert!(m >= 2);
    if m == 2 {
        let gamma = (node[0] + node[1]) % 4;
        // Pattern A (phase 1) then pattern B (phase 2); dim 0 is larger.
        let a = match gamma {
            0 => Direction::plus(0),
            1 => Direction::plus(1),
            2 => Direction::minus(0),
            _ => Direction::minus(1),
        };
        let b = match gamma {
            0 => Direction::plus(1),
            1 => Direction::plus(0),
            2 => Direction::minus(1),
            _ => Direction::minus(0),
        };
        return vec![a, b];
    }
    let last = m - 1;
    let u = node[last] % 4;
    let along_last = |sign| Direction::new(last, sign);
    match u {
        0 | 2 => {
            // Even unit: inner patterns first, then dimension m.
            let mut dirs = scatter_dirs_rec(node, m - 1);
            dirs.push(along_last(if u == 0 { Sign::Plus } else { Sign::Minus }));
            dirs
        }
        _ => {
            // Odd unit: dimension m first, then inner patterns in reverse
            // phase order (3D: [C, B, A], matching Section 4.1).
            let mut inner = scatter_dirs_rec(node, m - 1);
            inner.reverse();
            let mut dirs = vec![along_last(if u == 1 { Sign::Plus } else { Sign::Minus })];
            dirs.extend(inner);
            dirs
        }
    }
}

/// Dimension order for the distance-2 submesh phase over the first `m`
/// dimensions — same recursion as the phase schedule, keyed on parity.
fn submesh_order_rec(node: &Coord, m: usize) -> Vec<usize> {
    debug_assert!(m >= 2);
    if m == 2 {
        return if (node[0] + node[1]).is_multiple_of(2) {
            vec![0, 1]
        } else {
            vec![1, 0]
        };
    }
    let last = m - 1;
    if node[last].is_multiple_of(2) {
        let mut order = submesh_order_rec(node, m - 1);
        order.push(last);
        order
    } else {
        let mut inner = submesh_order_rec(node, m - 1);
        inner.reverse();
        let mut order = vec![last];
        order.extend(inner);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use torus_topology::GroupInfo;

    /// The shift vector of block `(s → d)`: hops toward the group
    /// representative `t(s, d)`, as seeding computes it.
    fn shift_vector(
        sched: &DirectionSchedule,
        gi: &GroupInfo,
        s: &Coord,
        d: &Coord,
    ) -> [u8; MAX_DIMS] {
        sched.shifts_along(&sched.scatter_dirs(s), s, &gi.representative(s, d))
    }

    fn sched_2d() -> DirectionSchedule {
        DirectionSchedule::new(&TorusShape::new_2d(12, 12).unwrap())
    }

    fn sched_3d() -> DirectionSchedule {
        DirectionSchedule::new(&TorusShape::new_3d(12, 12, 12).unwrap())
    }

    #[test]
    fn two_d_matches_section_3_2() {
        // In canonical order dim0 = c (larger), dim1 = r. The paper's table
        // (γ = (r+c) mod 4): phase 1 = [+c, +r, −c, −r], phase 2 = [+r, +c, −r, −c].
        let s = sched_2d();
        let cases = [
            // (coord with sum γ, phase1, phase2)
            (Coord::new(&[0, 0]), Direction::plus(0), Direction::plus(1)),
            (Coord::new(&[1, 0]), Direction::plus(1), Direction::plus(0)),
            (
                Coord::new(&[1, 1]),
                Direction::minus(0),
                Direction::minus(1),
            ),
            (
                Coord::new(&[2, 1]),
                Direction::minus(1),
                Direction::minus(0),
            ),
        ];
        for (c, p1, p2) in cases {
            let dirs = s.scatter_dirs(&c);
            assert_eq!(dirs.len(), 2);
            assert_eq!(dirs[0], p1, "phase 1 of {c}");
            assert_eq!(dirs[1], p2, "phase 2 of {c}");
        }
    }

    #[test]
    fn three_d_matches_section_4_1() {
        // Even Z-unit (Z mod 4 ∈ {0,2}): [A, B, ±Z]; odd: [±Z, B, A].
        let s = sched_3d();
        // γ = (X+Y) mod 4 = 0, Z mod 4 = 0 -> phase1 +X, phase2 +Y, phase3 +Z
        let dirs = s.scatter_dirs(&Coord::new(&[0, 0, 0]));
        assert_eq!(
            dirs,
            vec![Direction::plus(0), Direction::plus(1), Direction::plus(2)]
        );
        // γ = 1, Z mod 4 = 2 -> phase1 +Y, phase2 +X, phase3 −Z
        let dirs = s.scatter_dirs(&Coord::new(&[0, 1, 2]));
        assert_eq!(
            dirs,
            vec![Direction::plus(1), Direction::plus(0), Direction::minus(2)]
        );
        // Z mod 4 = 1 -> phase1 +Z, then B, then A. γ = (X+Y) mod 4 = 2:
        // B(2) = −Y, A(2) = −X.
        let dirs = s.scatter_dirs(&Coord::new(&[1, 1, 1]));
        assert_eq!(
            dirs,
            vec![Direction::plus(2), Direction::minus(1), Direction::minus(0)]
        );
        // Z mod 4 = 3 -> phase1 −Z. γ = 3: B(3) = −X, A(3) = −Y.
        let dirs = s.scatter_dirs(&Coord::new(&[1, 2, 3]));
        assert_eq!(
            dirs,
            vec![
                Direction::minus(2),
                Direction::minus(0),
                Direction::minus(1)
            ]
        );
    }

    #[test]
    fn every_node_covers_every_dimension_once() {
        for shape in [
            TorusShape::new(&[12, 8]).unwrap(),
            TorusShape::new(&[12, 12, 8]).unwrap(),
            TorusShape::new(&[8, 8, 4, 4]).unwrap(),
        ] {
            let s = DirectionSchedule::new(&shape);
            for c in shape.iter_coords() {
                let dirs = s.scatter_dirs(&c);
                assert_eq!(dirs.len(), shape.ndims());
                let mut dims: Vec<usize> = dirs.iter().map(|d| d.dim()).collect();
                dims.sort_unstable();
                assert_eq!(dims, (0..shape.ndims()).collect::<Vec<_>>(), "node {c}");
            }
        }
    }

    #[test]
    fn schedule_constant_along_pipelines() {
        // All members of a group share the schedule (required for the
        // pipeline argument).
        let shape = TorusShape::new(&[12, 8, 8]).unwrap();
        let s = DirectionSchedule::new(&shape);
        let gi = GroupInfo::new(&shape);
        for g_raw in TorusShape::new(&[4, 4, 4]).unwrap().iter_coords() {
            let g = torus_topology::GroupId(g_raw);
            let mut members = gi.group_members(g);
            let first = s.scatter_dirs(&members.next().unwrap());
            for m in members {
                assert_eq!(s.scatter_dirs(&m), first, "member {m} of group {g_raw}");
            }
        }
    }

    #[test]
    fn per_phase_line_tiling_invariant() {
        // In each phase, along any line of a dimension, the nodes sending
        // in the + direction of that dimension form exactly one mod-4
        // residue class (ditto −): this is what makes 4-hop paths tile.
        for shape in [
            TorusShape::new(&[12, 12]).unwrap(),
            TorusShape::new(&[8, 8, 8]).unwrap(),
            TorusShape::new(&[8, 8, 8, 8]).unwrap(),
        ] {
            let s = DirectionSchedule::new(&shape);
            let n = shape.ndims();
            for phase in 0..n {
                // key: (line identifier = coord with dim δ zeroed, δ, sign)
                let mut residues: HashMap<(Vec<u32>, usize, Sign), Vec<u32>> = HashMap::new();
                for c in shape.iter_coords() {
                    let dir = s.scatter_dirs(&c)[phase];
                    let delta = dir.dim();
                    let mut key: Vec<u32> = c.as_slice().to_vec();
                    key[delta] = 0;
                    residues
                        .entry((key, delta, dir.sign))
                        .or_default()
                        .push(c[delta] % 4);
                }
                for ((line, delta, sign), rs) in residues {
                    let mut uniq = rs.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    assert_eq!(
                        uniq.len(),
                        1,
                        "phase {phase}: line {line:?} dim {delta} sign {sign:?} \
                         has senders from residues {uniq:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn submesh_order_matches_3d_phase_4() {
        let s = sched_3d();
        // Z even, (X+Y) even: [X, Y, Z]
        assert_eq!(s.submesh_dim_order(&Coord::new(&[0, 0, 0])), vec![0, 1, 2]);
        // Z even, (X+Y) odd: [Y, X, Z]
        assert_eq!(s.submesh_dim_order(&Coord::new(&[0, 1, 0])), vec![1, 0, 2]);
        // Z odd, (X+Y) even: [Z, Y, X]
        assert_eq!(s.submesh_dim_order(&Coord::new(&[0, 0, 1])), vec![2, 1, 0]);
        // Z odd, (X+Y) odd: [Z, X, Y]
        assert_eq!(s.submesh_dim_order(&Coord::new(&[1, 0, 3])), vec![2, 0, 1]);
    }

    #[test]
    fn submesh_order_is_permutation() {
        let shape = TorusShape::new(&[8, 8, 4, 4]).unwrap();
        let s = DirectionSchedule::new(&shape);
        for c in shape.iter_coords() {
            let mut order = s.submesh_dim_order(&c);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn exchange_signs_pair_up() {
        // distance-2: 0 <-> 2 and 1 <-> 3 within the submesh.
        let c0 = Coord::new(&[0, 0]);
        let c2 = Coord::new(&[2, 0]);
        assert_eq!(DirectionSchedule::distance2_sign(&c0, 0), Sign::Plus);
        assert_eq!(DirectionSchedule::distance2_sign(&c2, 0), Sign::Minus);
        // distance-1: 0 <-> 1.
        assert_eq!(DirectionSchedule::distance1_sign(&c0, 0), Sign::Plus);
        assert_eq!(
            DirectionSchedule::distance1_sign(&Coord::new(&[1, 0]), 0),
            Sign::Minus
        );
    }

    #[test]
    fn shift_vector_basic() {
        let shape = TorusShape::new_2d(12, 12).unwrap();
        let s = DirectionSchedule::new(&shape);
        let gi = GroupInfo::new(&shape);
        // Node (0,0): γ=0, phase1 +dim0, phase2 +dim1.
        // Destination (8, 4): representative t = (8, 4). Phase 1 moves dim0
        // by 8 hops = 2 shifts; phase 2 moves dim1 by 4 hops = 1 shift.
        let k = shift_vector(&s, &gi, &Coord::new(&[0, 0]), &Coord::new(&[8, 4]));
        assert_eq!(k[0], 2);
        assert_eq!(k[1], 1);
        // Destination in own submesh: zero shifts.
        let k = shift_vector(&s, &gi, &Coord::new(&[0, 0]), &Coord::new(&[3, 3]));
        assert_eq!(&k[..2], &[0, 0]);
    }

    #[test]
    fn shift_vector_respects_negative_directions() {
        let shape = TorusShape::new_2d(12, 12).unwrap();
        let s = DirectionSchedule::new(&shape);
        let gi = GroupInfo::new(&shape);
        // Node (1,1): γ=2 -> phase1 −dim0, phase2 −dim1.
        // Destination (5, 9): t = (5, 9). dim0: from 1 to 5 going minus:
        // 1 -> 9 -> 5 is 8 hops = 2 shifts. dim1: 1 -> 9 minus = 4 hops = 1.
        let k = shift_vector(&s, &gi, &Coord::new(&[1, 1]), &Coord::new(&[5, 9]));
        assert_eq!(k[0], 2);
        assert_eq!(k[1], 1);
    }

    #[test]
    fn steps_per_phase() {
        assert_eq!(sched_2d().steps_per_scatter_phase(), 2);
        let s = DirectionSchedule::new(&TorusShape::new(&[16, 8]).unwrap());
        assert_eq!(s.steps_per_scatter_phase(), 3);
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn rejects_unsorted() {
        DirectionSchedule::new(&TorusShape::new(&[8, 12]).unwrap());
    }

    #[test]
    #[should_panic(expected = ">= 2 dimensions")]
    fn rejects_1d() {
        DirectionSchedule::new(&TorusShape::new(&[8]).unwrap());
    }

    #[test]
    #[should_panic(expected = "overflow the u8 shift counters")]
    fn rejects_oversized_extents() {
        DirectionSchedule::new(&TorusShape::new(&[1028, 4]).unwrap());
    }

    #[test]
    fn max_supported_extent_is_accepted() {
        // 1024/4 - 1 = 255 shifts fits u8 exactly.
        let s = DirectionSchedule::new(&TorusShape::new(&[1024, 4]).unwrap());
        assert_eq!(s.steps_per_scatter_phase(), 255);
    }
}
