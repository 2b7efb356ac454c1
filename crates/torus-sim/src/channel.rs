//! Dense indexing of unidirectional channels.
//!
//! A torus of `N` nodes and `n` dimensions has `2·n·N` unidirectional
//! channels (each node owns one outgoing channel per direction). The
//! contention checker wants a dense `usize` id per channel so occupancy can
//! be tracked in flat arrays instead of hash sets — this is the hot path of
//! every simulated step.

use torus_topology::{Channel, TorusShape};

use crate::error::SimError;

/// Maps [`Channel`]s (adjacent node pairs) to dense ids `0 .. 2·n·N`.
///
/// Id layout: `from * 2n + 2*dim + sign_bit`, where `sign_bit` is 0 for the
/// positive and 1 for the negative direction.
///
/// **Degenerate rings.** For a dimension of extent 2, the `+` and `-`
/// neighbors coincide, so the `(from, to)` pair cannot distinguish the two
/// physical wrap channels; the indexer canonicalizes both to the positive
/// channel, which is *conservative* (it may report contention where a
/// machine with doubled links would have none). Extent-1 dimensions have no
/// channels at all; a self-channel is rejected.
#[derive(Clone, Debug)]
pub struct ChannelIndexer {
    shape: TorusShape,
}

impl ChannelIndexer {
    /// Builds an indexer for a shape.
    pub(crate) fn new(shape: &TorusShape) -> Self {
        Self {
            shape: shape.clone(),
        }
    }

    /// Total number of channel slots (`2·n·N`). Slots for degenerate
    /// dimensions exist but are never returned by [`id`](Self::id).
    pub(crate) fn num_channels(&self) -> usize {
        2 * self.shape.ndims() * self.shape.num_nodes() as usize
    }

    /// Dense id of a channel.
    ///
    /// Returns [`SimError::NotAdjacent`] if the endpoints are not neighbors
    /// in exactly one dimension.
    pub(crate) fn id(&self, ch: Channel) -> Result<usize, SimError> {
        if ch.from == ch.to {
            return Err(SimError::NotAdjacent { channel: ch });
        }
        let a = self.shape.coord_of(ch.from);
        let b = self.shape.coord_of(ch.to);
        let n = self.shape.ndims();
        let mut found: Option<(usize, u8)> = None;
        for d in 0..n {
            if a[d] == b[d] {
                continue;
            }
            if found.is_some() {
                // differ in more than one dimension
                return Err(SimError::NotAdjacent { channel: ch });
            }
            let k = self.shape.extent(d);
            let fwd = (b[d] + k - a[d]) % k; // hops in + direction
            let sign_bit = if fwd == 1 {
                0u8
            } else if fwd == k - 1 {
                1u8
            } else {
                return Err(SimError::NotAdjacent { channel: ch });
            };
            // k == 2: fwd == 1 == k-1; the first branch wins -> canonical +.
            found = Some((d, sign_bit));
        }
        match found {
            Some((d, s)) => Ok(ch.from as usize * 2 * n + 2 * d + s as usize),
            None => Err(SimError::NotAdjacent { channel: ch }),
        }
    }

    /// The shape this indexer was built for.
    pub(crate) fn shape(&self) -> &TorusShape {
        &self.shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_topology::{Coord, Direction};

    fn idx_8x8() -> ChannelIndexer {
        ChannelIndexer::new(&TorusShape::new_2d(8, 8).unwrap())
    }

    #[test]
    fn ids_are_unique_and_in_range() {
        let ix = idx_8x8();
        let shape = ix.shape().clone();
        let mut seen = std::collections::HashSet::new();
        for c in shape.iter_coords() {
            for dim in 0..2 {
                for dir in [Direction::plus(dim), Direction::minus(dim)] {
                    let to = shape.neighbor(&c, dir);
                    let ch = Channel::new(shape.index_of(&c), shape.index_of(&to));
                    let id = ix.id(ch).unwrap();
                    assert!(id < ix.num_channels());
                    assert!(seen.insert(id), "duplicate id {id} for {ch:?}");
                }
            }
        }
        // 8x8 torus: 2*2*64 = 256 channels
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn opposite_directions_get_distinct_ids() {
        let ix = idx_8x8();
        let s = ix.shape().clone();
        let a = s.index_of(&Coord::new(&[3, 3]));
        let b = s.index_of(&Coord::new(&[3, 4]));
        let ab = ix.id(Channel::new(a, b)).unwrap();
        let ba = ix.id(Channel::new(b, a)).unwrap();
        assert_ne!(ab, ba, "full-duplex link must be two channels");
    }

    #[test]
    fn rejects_non_adjacent() {
        let ix = idx_8x8();
        // distance 2 in one dim
        assert!(matches!(
            ix.id(Channel::new(0, 2)),
            Err(SimError::NotAdjacent { .. })
        ));
        // diagonal
        assert!(matches!(
            ix.id(Channel::new(0, 9)),
            Err(SimError::NotAdjacent { .. })
        ));
        // self
        assert!(matches!(
            ix.id(Channel::new(5, 5)),
            Err(SimError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn wrap_channels_work() {
        let ix = idx_8x8();
        let s = ix.shape().clone();
        let a = s.index_of(&Coord::new(&[0, 7]));
        let b = s.index_of(&Coord::new(&[0, 0]));
        // 7 -> 0 is the positive wrap channel
        let id = ix.id(Channel::new(a, b)).unwrap();
        assert_eq!(id % 4, 2, "dim 1, positive => 2*1+0");
    }

    #[test]
    fn extent_two_canonicalizes_to_plus() {
        let ix = ChannelIndexer::new(&TorusShape::new_2d(2, 4).unwrap());
        let s = ix.shape().clone();
        let a = s.index_of(&Coord::new(&[0, 0]));
        let b = s.index_of(&Coord::new(&[1, 0]));
        let id = ix.id(Channel::new(a, b)).unwrap();
        assert_eq!(id % 4, 0, "canonical positive for k=2");
    }

    #[test]
    fn three_d_channel_count() {
        let ix = ChannelIndexer::new(&TorusShape::new_3d(4, 4, 4).unwrap());
        assert_eq!(ix.num_channels(), 2 * 3 * 64);
    }
}
