//! One message of one simulation step.

use torus_topology::{ring_path, Channel, Coord, Direction, NodeId, TorusShape};

/// A single message: `blocks` data blocks moving from `src` to `dst` over
/// an explicit channel path within one step.
///
/// The path is explicit (rather than recomputed from endpoints) because the
/// exchange algorithms use *single-dimension ring* routes of specific
/// direction (e.g. "4 hops along −c"), which dimension-ordered minimal
/// routing would not reproduce in general (for instance when the ring
/// distance is exactly half the extent, or when a negative-direction
/// schedule deliberately takes the long way).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transmission {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Number of data blocks carried (may be zero: an "empty message",
    /// which still occupies the channels and ports and pays the startup).
    pub blocks: u64,
    /// The unidirectional channels occupied, in traversal order.
    pub path: Vec<Channel>,
}

impl Transmission {
    /// Builds a transmission that travels `hops` hops from `from` along a
    /// single direction `dir` — the only message shape the paper's
    /// schedules use (4 hops in phases `1..n`, 2 hops in phase `n+1`,
    /// 1 hop in phase `n+2`).
    pub fn along_ring(
        shape: &TorusShape,
        from: &Coord,
        dir: Direction,
        hops: u32,
        blocks: u64,
    ) -> Self {
        assert!(hops > 0, "a transmission must move at least one hop");
        let path = ring_path(shape, from, dir, hops);
        let dst = path.last().expect("hops > 0").to;
        Self {
            src: shape.index_of(from),
            dst,
            blocks,
            path,
        }
    }

    /// Builds a transmission over an explicit path (used by baselines with
    /// dimension-ordered routes).
    pub fn over_path(src: NodeId, dst: NodeId, blocks: u64, path: Vec<Channel>) -> Self {
        Self {
            src,
            dst,
            blocks,
            path,
        }
    }

    /// Number of hops (channels) traversed.
    pub(crate) fn hops(&self) -> u32 {
        self.path.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn along_ring_endpoints() {
        let s = TorusShape::new_2d(12, 12).unwrap();
        let t = Transmission::along_ring(&s, &Coord::new(&[0, 0]), Direction::plus(1), 4, 99);
        assert_eq!(t.src, 0);
        assert_eq!(t.dst, s.index_of(&Coord::new(&[0, 4])));
        assert_eq!(t.hops(), 4);
        assert_eq!(t.blocks, 99);
    }

    #[test]
    fn along_ring_negative_wraps() {
        let s = TorusShape::new_2d(12, 12).unwrap();
        let t = Transmission::along_ring(&s, &Coord::new(&[1, 0]), Direction::minus(0), 4, 1);
        assert_eq!(t.dst, s.index_of(&Coord::new(&[9, 0])));
        assert_eq!(t.path.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_hop_rejected() {
        let s = TorusShape::new_2d(8, 8).unwrap();
        Transmission::along_ring(&s, &Coord::new(&[0, 0]), Direction::plus(0), 0, 1);
    }
}
