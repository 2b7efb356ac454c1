//! Node groups and submesh decomposition (paper Sections 3 and 4.1).
//!
//! For a torus whose dimensions are all multiples of four:
//!
//! * Node `P(x_1, …, x_n)` belongs to **group** `(x_1 mod 4, …, x_n mod 4)`.
//!   There are `4^n` groups, each forming an `a_1/4 × … × a_n/4` subtorus
//!   whose "hops" are strides of four in the full torus.
//! * Dividing the torus into contiguous `4 × … × 4` **submeshes (SMs)**,
//!   each submesh contains exactly one node of every group. Node
//!   `P(x_1,…,x_n)` lies in submesh `(⌊x_1/4⌋, …, ⌊x_n/4⌋)`.
//!
//! The key routing fact used by the exchange algorithms: a block travelling
//! from source `s` to destination `d` is first delivered (within `s`'s
//! group, phases `1..n`) to the **group representative** — the unique node
//! of `s`'s group inside `d`'s submesh — and then moved to `d` inside the
//! submesh (phases `n+1`, `n+2`).

use crate::coord::Coord;
use crate::shape::TorusShape;

/// A node group identifier: the component-wise `mod 4` of member
/// coordinates. In the paper's 2D notation, group `ij` has `GroupId`
/// coordinate `(i, j)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GroupId(pub Coord);

/// A `4 × … × 4` contiguous submesh identifier: the component-wise
/// `div 4` of member coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SubmeshId(pub Coord);

/// Group/submesh decomposition helpers for a concrete torus shape.
///
/// Requires every dimension to be a multiple of four (use virtual-node
/// padding otherwise, see `alltoall-core`).
#[derive(Clone, Debug)]
pub struct GroupInfo {
    shape: TorusShape,
    subtorus: TorusShape,
}

impl GroupInfo {
    /// Builds the decomposition.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `shape` is not a multiple of four — the
    /// decomposition is undefined there.
    pub fn new(shape: &TorusShape) -> Self {
        assert!(
            shape.all_multiple_of(4),
            "group decomposition requires all dimensions to be multiples of 4, got {shape}"
        );
        let sub_dims: Vec<u32> = shape.dims().iter().map(|&k| k / 4).collect();
        let subtorus = TorusShape::new(&sub_dims).expect("quarter of valid shape is valid");
        Self {
            shape: shape.clone(),
            subtorus,
        }
    }

    /// The group of a node.
    #[inline]
    pub fn group_of(&self, c: &Coord) -> GroupId {
        GroupId(c.mod_each(4))
    }

    /// The submesh containing a node.
    #[inline]
    pub fn submesh_of(&self, c: &Coord) -> SubmeshId {
        SubmeshId(c.div_each(4))
    }

    /// The node of group `g` inside submesh `sm`:
    /// component-wise `4·sm + g`.
    #[inline]
    pub fn member(&self, g: GroupId, sm: SubmeshId) -> Coord {
        let mut out = Coord::zero(self.shape.ndims());
        for d in 0..self.shape.ndims() {
            out[d] = 4 * sm.0[d] + g.0[d];
        }
        debug_assert!(self.shape.contains(&out));
        out
    }

    /// The **group representative** `t(s, d)`: the node of `s`'s group in
    /// `d`'s submesh. Blocks `s → d` are routed `s → t(s,d) → d` by the
    /// exchange algorithms.
    #[inline]
    pub fn representative(&self, s: &Coord, d: &Coord) -> Coord {
        self.member(self.group_of(s), self.submesh_of(d))
    }

    /// Iterates over all member coordinates of group `g`, in subtorus
    /// id order.
    pub fn group_members(&self, g: GroupId) -> impl Iterator<Item = Coord> + '_ {
        self.subtorus
            .iter_coords()
            .map(move |sm| self.member(g, SubmeshId(sm)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info_12x12() -> GroupInfo {
        GroupInfo::new(&TorusShape::new_2d(12, 12).unwrap())
    }

    /// The 4^n member coordinates of submesh `sm`, one per group.
    fn submesh_members(gi: &GroupInfo, sm: SubmeshId) -> impl Iterator<Item = Coord> + '_ {
        let gshape = TorusShape::new(&vec![4u32; gi.shape.ndims()]).expect("4^n shape valid");
        (0..gshape.num_nodes()).map(move |id| gi.member(GroupId(gshape.coord_of(id)), sm))
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn rejects_non_multiple_of_four() {
        GroupInfo::new(&TorusShape::new_2d(12, 10).unwrap());
    }

    #[test]
    fn group_00_members_match_paper_figure_1a() {
        // Figure 1(a): group 00 of a 12x12 torus is the 3x3 subtorus
        // {P(0,0), P(0,4), P(0,8), P(4,0), P(4,4), P(4,8), P(8,0), P(8,4), P(8,8)}.
        let gi = info_12x12();
        let g = GroupId(Coord::new(&[0, 0]));
        let members: Vec<Coord> = gi.group_members(g).collect();
        let expected: Vec<Coord> = [
            [0, 0],
            [0, 4],
            [0, 8],
            [4, 0],
            [4, 4],
            [4, 8],
            [8, 0],
            [8, 4],
            [8, 8],
        ]
        .iter()
        .map(|p| Coord::new(p))
        .collect();
        assert_eq!(members, expected);
    }

    #[test]
    fn every_submesh_has_one_node_per_group() {
        let gi = info_12x12();
        for sm in gi.subtorus.iter_coords() {
            let members: Vec<Coord> = submesh_members(&gi, SubmeshId(sm)).collect();
            assert_eq!(members.len(), 16);
            let mut groups: Vec<GroupId> = members.iter().map(|m| gi.group_of(m)).collect();
            groups.sort();
            groups.dedup();
            assert_eq!(groups.len(), 16, "each group exactly once per submesh");
            for m in &members {
                assert_eq!(gi.submesh_of(m), SubmeshId(sm));
            }
        }
    }

    #[test]
    fn groups_partition_the_torus() {
        let gi = GroupInfo::new(&TorusShape::new(&[8, 12]).unwrap());
        let mut seen = std::collections::HashSet::new();
        let gshape = TorusShape::new(&[4, 4]).unwrap();
        for g in gshape.iter_coords() {
            for m in gi.group_members(GroupId(g)) {
                assert!(seen.insert(m), "node {m} in two groups");
                assert_eq!(gi.group_of(&m), GroupId(g));
            }
        }
        assert_eq!(seen.len(), 96);
    }

    #[test]
    fn representative_is_in_right_group_and_submesh() {
        let gi = info_12x12();
        let s = Coord::new(&[5, 2]);
        let d = Coord::new(&[10, 11]);
        let t = gi.representative(&s, &d);
        assert_eq!(gi.group_of(&t), gi.group_of(&s));
        assert_eq!(gi.submesh_of(&t), gi.submesh_of(&d));
        assert_eq!(t, Coord::new(&[9, 10]));
    }

    #[test]
    fn representative_of_same_submesh_is_self() {
        let gi = info_12x12();
        let s = Coord::new(&[5, 2]);
        // destination in the same submesh as s
        let d = Coord::new(&[7, 3]);
        assert_eq!(gi.representative(&s, &d), s);
    }

    #[test]
    fn member_inverts_group_submesh_split() {
        let gi = GroupInfo::new(&TorusShape::new(&[8, 8, 8]).unwrap());
        for c in gi.shape.iter_coords().take(512) {
            let g = gi.group_of(&c);
            let sm = gi.submesh_of(&c);
            assert_eq!(gi.member(g, sm), c);
        }
    }

    #[test]
    fn works_in_3d() {
        let gi = GroupInfo::new(&TorusShape::new_3d(12, 12, 12).unwrap());
        let g = GroupId(Coord::new(&[1, 2, 3]));
        let members: Vec<Coord> = gi.group_members(g).collect();
        assert_eq!(members.len(), 27);
        assert!(members
            .iter()
            .all(|m| m.mod_each(4) == Coord::new(&[1, 2, 3])));
    }
}
