//! Channels and route generation.
//!
//! A wormhole-routed message occupies every unidirectional [`Channel`] on
//! its path for the duration of a communication step (paper Section 2), so
//! contention checking needs the exact channel list of every transmission.

use crate::coord::Coord;
use crate::direction::Direction;
use crate::ring::ring_sub;
use crate::shape::{NodeId, TorusShape};

/// A unidirectional physical link between two *adjacent* torus nodes.
///
/// Full-duplex links are modelled as two `Channel`s with swapped endpoints.
/// Equality/hash on the endpoint pair identifies the physical resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Channel {
    /// Upstream node id.
    pub from: NodeId,
    /// Downstream node id (a torus neighbor of `from`).
    pub to: NodeId,
}

impl Channel {
    /// Constructs a channel; the caller asserts adjacency.
    #[inline]
    pub fn new(from: NodeId, to: NodeId) -> Self {
        Self { from, to }
    }
}

/// The channel path of a message travelling `hops` hops from `from` along a
/// single direction `dir`, with wraparound.
///
/// Returns `hops` channels; the message's header traverses them in order.
pub fn ring_path(shape: &TorusShape, from: &Coord, dir: Direction, hops: u32) -> Vec<Channel> {
    debug_assert!(
        hops < shape.extent(dir.dim()),
        "a {hops}-hop ring path would lap a ring of size {}",
        shape.extent(dir.dim())
    );
    let mut path = Vec::with_capacity(hops as usize);
    let mut cur = *from;
    for _ in 0..hops {
        let next = shape.neighbor(&cur, dir);
        path.push(Channel::new(shape.index_of(&cur), shape.index_of(&next)));
        cur = next;
    }
    path
}

/// Minimal direction and hop count from `a` to `b` along dimension `dim`:
/// picks whichever ring direction is shorter, preferring `Plus` on ties.
/// Returns `None` if the coordinates already agree in that dimension.
pub(crate) fn minimal_dir(
    shape: &TorusShape,
    a: &Coord,
    b: &Coord,
    dim: usize,
) -> Option<(Direction, u32)> {
    let k = shape.extent(dim);
    let fwd = ring_sub(b[dim], a[dim], k);
    if fwd == 0 {
        return None;
    }
    let bwd = k - fwd;
    if fwd <= bwd {
        Some((Direction::plus(dim), fwd))
    } else {
        Some((Direction::minus(dim), bwd))
    }
}

/// Dimension-ordered (e-cube) route from `src` to `dst`: corrects dimension
/// 0 first, then 1, …, taking the minimal ring direction in each.
///
/// This is the deterministic routing used by wormhole torus routers such as
/// the Cray T3D, and the routing the simulator assumes for messages that
/// are not single-dimension shifts.
pub fn dor_path(shape: &TorusShape, src: &Coord, dst: &Coord) -> Vec<Channel> {
    let mut path = Vec::new();
    let mut cur = *src;
    for dim in 0..shape.ndims() {
        if let Some((dir, hops)) = minimal_dir(shape, &cur, dst, dim) {
            path.extend(ring_path(shape, &cur, dir, hops));
            cur = cur.with(dim, dst[dim]);
        }
    }
    debug_assert_eq!(cur, *dst);
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TorusShape {
        TorusShape::new_2d(8, 8).unwrap()
    }

    #[test]
    fn ring_path_simple() {
        let s = shape();
        let p = ring_path(&s, &Coord::new(&[0, 0]), Direction::plus(1), 3);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], Channel::new(0, 1));
        assert_eq!(p[1], Channel::new(1, 2));
        assert_eq!(p[2], Channel::new(2, 3));
    }

    #[test]
    fn ring_path_wraps() {
        let s = shape();
        let p = ring_path(&s, &Coord::new(&[0, 6]), Direction::plus(1), 3);
        let ids: Vec<(u32, u32)> = p.iter().map(|c| (c.from, c.to)).collect();
        assert_eq!(ids, vec![(6, 7), (7, 0), (0, 1)]);
    }

    #[test]
    fn ring_path_negative_direction() {
        let s = shape();
        let p = ring_path(&s, &Coord::new(&[1, 0]), Direction::minus(0), 2);
        // rows: node (1,0)=8 -> (0,0)=0 -> (7,0)=56
        let ids: Vec<(u32, u32)> = p.iter().map(|c| (c.from, c.to)).collect();
        assert_eq!(ids, vec![(8, 0), (0, 56)]);
    }

    #[test]
    fn minimal_dir_picks_shorter_side() {
        let s = shape();
        let a = Coord::new(&[0, 1]);
        let b = Coord::new(&[0, 7]);
        // +6 hops vs -2 hops: minus wins.
        let (dir, hops) = minimal_dir(&s, &a, &b, 1).unwrap();
        assert_eq!(dir, Direction::minus(1));
        assert_eq!(hops, 2);
    }

    #[test]
    fn minimal_dir_prefers_plus_on_tie() {
        let s = shape();
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[0, 4]);
        let (dir, hops) = minimal_dir(&s, &a, &b, 1).unwrap();
        assert_eq!(dir, Direction::plus(1));
        assert_eq!(hops, 4);
    }

    #[test]
    fn minimal_dir_none_when_aligned() {
        let s = shape();
        assert!(minimal_dir(&s, &Coord::new(&[3, 5]), &Coord::new(&[3, 2]), 0).is_none());
    }

    #[test]
    fn dor_path_corrects_dims_in_order() {
        let s = shape();
        let p = dor_path(&s, &Coord::new(&[0, 0]), &Coord::new(&[2, 3]));
        assert_eq!(p.len(), 5);
        // First two channels move along dim 0 (rows), next three along dim 1.
        assert_eq!(p[0], Channel::new(0, 8));
        assert_eq!(p[1], Channel::new(8, 16));
        assert_eq!(p[2], Channel::new(16, 17));
        assert_eq!(p[4].to, s.index_of(&Coord::new(&[2, 3])));
    }

    #[test]
    fn dor_path_empty_for_self() {
        let s = shape();
        let c = Coord::new(&[5, 5]);
        assert!(dor_path(&s, &c, &c).is_empty());
    }

    #[test]
    fn dor_path_hop_count_is_sum_of_ring_distances() {
        let s = TorusShape::new(&[6, 10, 4]).unwrap();
        for (a, b) in [
            ([0u32, 0, 0], [3, 9, 2]),
            ([5, 5, 3], [0, 0, 0]),
            ([2, 7, 1], [2, 7, 1]),
        ] {
            let ca = Coord::new(&a);
            let cb = Coord::new(&b);
            let p = dor_path(&s, &ca, &cb);
            let want: u32 = (0..3)
                .map(|d| crate::ring::ring_distance(ca[d], cb[d], s.extent(d)))
                .sum();
            assert_eq!(p.len() as u32, want);
        }
    }

    #[test]
    fn path_is_contiguous() {
        let s = TorusShape::new(&[6, 10, 4]).unwrap();
        let p = dor_path(&s, &Coord::new(&[1, 2, 3]), &Coord::new(&[4, 9, 0]));
        for w in p.windows(2) {
            assert_eq!(w[0].to, w[1].from, "path must be link-contiguous");
        }
    }
}
