//! Message blocks and per-node buffers.
//!
//! A block `B[s, d]` is the unit of the personalized exchange: source `s`
//! has one for every destination `d`. During the within-group phases a
//! block carries its precomputed *shift vector*: how many 4-stride hops it
//! still needs along the dimension of each phase to reach its group
//! representative (see [`dirsched`](crate::dirsched)).
//!
//! Blocks are generic in their payload `P`:
//! * `P = ()` — counting mode, 16 bytes per block, used for cost
//!   measurement at scale;
//! * `P = bytes::Bytes` — data-carrying mode, used by the examples to move
//!   real application data and check byte-level correctness.

use torus_topology::{Coord, GroupInfo, NodeId, TorusShape, MAX_DIMS};

use crate::dirsched::DirectionSchedule;

/// One message block in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block<P = ()> {
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Remaining 4-stride shifts per within-group phase (`shifts[p]` for
    /// phase `p+1`); all zero once the block reaches its group
    /// representative.
    pub shifts: [u8; MAX_DIMS],
    /// Application payload.
    pub payload: P,
}

impl<P> Block<P> {
    /// Creates a block with a payload.
    pub fn with_payload(src: NodeId, dst: NodeId, payload: P) -> Self {
        Self {
            src,
            dst,
            shifts: [0; MAX_DIMS],
            payload,
        }
    }
}

impl Block<()> {
    /// Creates a counting-mode block.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Self::with_payload(src, dst, ())
    }
}

/// Per-node buffers: `buffers[node]` is the multiset of blocks currently
/// held by `node`. The total across all nodes is invariant (`N²`) during a
/// run — transmissions move blocks, never create or drop them.
#[derive(Clone, Debug)]
pub struct Buffers<P = ()> {
    bufs: Vec<Vec<Block<P>>>,
}

impl<P: Clone> Buffers<P> {
    /// Creates empty buffers for `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            bufs: vec![Vec::new(); n],
        }
    }

    /// Seeds buffers on the **canonical** `shape` from `(src, dst,
    /// payload)` triples: each block starts at its source carrying the
    /// shift vector the within-group phases consume. Self pairs are
    /// skipped — the paper never transmits `B[i, i]`.
    pub(crate) fn seeded<I>(shape: &TorusShape, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId, P)>,
    {
        let sched = DirectionSchedule::new(shape);
        let gi = GroupInfo::new(shape);
        let coords: Vec<Coord> = shape.iter_coords().collect();
        let dirs: Vec<_> = coords.iter().map(|c| sched.scatter_dirs(c)).collect();
        let mut bufs = Self::empty(coords.len());
        for (s, d, payload) in pairs {
            if s == d {
                continue;
            }
            let (sc, dc) = (&coords[s as usize], &coords[d as usize]);
            let mut b = Block::with_payload(s, d, payload);
            b.shifts = sched.shifts_along(&dirs[s as usize], sc, &gi.representative(sc, dc));
            bufs.bufs[s as usize].push(b);
        }
        bufs
    }

    /// Wraps pre-filled buffers.
    pub fn from_vecs(bufs: Vec<Vec<Block<P>>>) -> Self {
        Self { bufs }
    }

    /// Number of nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.bufs.len()
    }

    /// Blocks currently held by `node`.
    pub fn node(&self, node: NodeId) -> &[Block<P>] {
        &self.bufs[node as usize]
    }

    /// Mutable access to one node's buffer.
    pub fn node_mut(&mut self, node: NodeId) -> &mut Vec<Block<P>> {
        &mut self.bufs[node as usize]
    }

    /// Splits one node's buffer by a predicate: matching blocks are removed
    /// and returned, the rest stay (order-preserving).
    pub(crate) fn drain_matching<F>(&mut self, node: NodeId, pred: F) -> Vec<Block<P>>
    where
        F: Fn(&Block<P>) -> bool,
    {
        let buf = &mut self.bufs[node as usize];
        let mut sent = Vec::new();
        let mut kept = Vec::with_capacity(buf.len());
        for b in buf.drain(..) {
            if pred(&b) {
                sent.push(b);
            } else {
                kept.push(b);
            }
        }
        *buf = kept;
        sent
    }

    /// Appends received blocks to a node's buffer.
    pub(crate) fn deliver(&mut self, node: NodeId, blocks: Vec<Block<P>>) {
        self.bufs[node as usize].extend(blocks);
    }

    /// Raw shared access.
    pub(crate) fn as_slices(&self) -> &[Vec<Block<P>>] {
        &self.bufs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_blocks<P: Clone>(bufs: &Buffers<P>) -> usize {
        bufs.as_slices().iter().map(Vec::len).sum()
    }

    #[test]
    fn block_construction() {
        let b = Block::new(3, 7);
        assert_eq!(b.src, 3);
        assert_eq!(b.dst, 7);
        assert_eq!(b.shifts, [0; MAX_DIMS], "a new block owes no shifts");
    }

    #[test]
    fn payload_block() {
        let b = Block::with_payload(1, 2, vec![9u8, 9]);
        assert_eq!(b.payload, vec![9, 9]);
    }

    #[test]
    fn buffers_drain_and_deliver() {
        let mut bufs: Buffers = Buffers::empty(4);
        bufs.deliver(
            0,
            vec![Block::new(0, 1), Block::new(0, 2), Block::new(0, 3)],
        );
        assert_eq!(total_blocks(&bufs), 3);
        let sent = bufs.drain_matching(0, |b| b.dst >= 2);
        assert_eq!(sent.len(), 2);
        assert_eq!(bufs.node(0).len(), 1);
        assert_eq!(bufs.node(0)[0].dst, 1);
        bufs.deliver(2, sent);
        assert_eq!(bufs.node(2).len(), 2);
        assert_eq!(total_blocks(&bufs), 3);
    }

    #[test]
    fn drain_preserves_order() {
        let mut bufs: Buffers = Buffers::empty(1);
        bufs.deliver(0, (0..10).map(|d| Block::new(0, d)).collect());
        let sent = bufs.drain_matching(0, |b| b.dst % 2 == 0);
        let sent_dsts: Vec<u32> = sent.iter().map(|b| b.dst).collect();
        assert_eq!(sent_dsts, vec![0, 2, 4, 6, 8]);
        let kept_dsts: Vec<u32> = bufs.node(0).iter().map(|b| b.dst).collect();
        assert_eq!(kept_dsts, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn seeded_blocks_start_at_their_source_with_shift_vectors() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let far = shape.index_of(&Coord::new(&[4, 4]));
        let bufs = Buffers::seeded(&shape, [(0, 0, 'a'), (0, far, 'b'), (far, 0, 'c')]);
        assert_eq!(total_blocks(&bufs), 2, "the self pair is skipped");
        let b = &bufs.node(0)[0];
        assert_eq!((b.src, b.dst, b.payload), (0, far, 'b'));
        assert_ne!(
            b.shifts, [0; MAX_DIMS],
            "a block for another group owes shifts"
        );
        assert_eq!(bufs.node(far)[0].payload, 'c');
    }
}
