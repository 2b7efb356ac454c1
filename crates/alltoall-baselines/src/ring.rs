//! Ring (Hamiltonian-cycle) complete exchange with message combining.
//!
//! A boustrophedon ("snake") Hamiltonian cycle is embedded in the torus:
//! rows are traversed alternately left-to-right and right-to-left, and the
//! final node returns to the start over a wrap link. In every step each
//! node forwards to its ring successor all blocks that have not yet
//! reached their destination — `N − 1` steps total, like direct exchange,
//! but each step is a single-hop, perfectly contention-free neighbor
//! exchange. The price is volume: the critical transmitted-block count is
//! `Σ_{j<N} (N−j) = O(N²)` per node, vs. `O(N·√N)` for the proposed 2D
//! algorithm.

use cost_model::CommParams;
use torus_sim::{Engine, Transmission};
use torus_topology::{Channel, NodeId, TorusShape};

use crate::{BaselineReport, ExchangeAlgorithm};

/// The ring-exchange baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct RingExchange;

/// Builds a boustrophedon Hamiltonian cycle over the torus: returns the
/// node ids in ring order. Consecutive entries (and last→first) are
/// torus-adjacent.
///
/// The snake fixes all leading coordinates and sweeps the last dimension
/// back and forth; for the cycle to close over torus links, every extent
/// must be even (true for all multiple-of-four shapes).
pub(crate) fn snake_ring(shape: &TorusShape) -> Vec<NodeId> {
    for (d, &k) in shape.dims().iter().enumerate() {
        assert!(
            k % 2 == 0 || shape.num_nodes() == k,
            "snake ring needs even extents (dim {d} has {k})"
        );
    }
    let n = shape.ndims();
    let mut order = Vec::with_capacity(shape.num_nodes() as usize);
    // Recursive boustrophedon: gray-code style sweep.
    fn rec(
        shape: &TorusShape,
        dim: usize,
        prefix: &mut Vec<u32>,
        rev: bool,
        out: &mut Vec<NodeId>,
    ) {
        let k = shape.extent(dim);
        let last = dim + 1 == shape.ndims();
        let range: Box<dyn Iterator<Item = u32>> = if rev {
            Box::new((0..k).rev())
        } else {
            Box::new(0..k)
        };
        for x in range {
            prefix.push(x);
            if last {
                out.push(shape.index_of(&torus_topology::Coord::new(prefix)));
            } else {
                // Alternate sweep direction so consecutive slices abut.
                // The child direction is keyed on the coordinate *value*
                // (not the visit index), so a reversed parent sweep
                // traverses the inner space in exact reverse order.
                rec(shape, dim + 1, prefix, (x % 2 == 1) ^ rev, out);
            }
            prefix.pop();
        }
    }
    rec(shape, 0, &mut Vec::with_capacity(n), false, &mut order);
    order
}

impl ExchangeAlgorithm for RingExchange {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn run(&self, shape: &TorusShape, params: &CommParams) -> Result<BaselineReport, String> {
        let n = shape.num_nodes() as usize;
        let ring = snake_ring(shape);
        // position of each node on the ring
        let mut pos = vec![0usize; n];
        for (i, &id) in ring.iter().enumerate() {
            pos[id as usize] = i;
        }
        // Per-node buffers of remaining-hop counts: rem[node] holds, for
        // each carried block, the number of further ring hops needed.
        let mut rem: Vec<Vec<u32>> = vec![Vec::new(); n];
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let hops = (pos[d] + n - pos[s]) % n;
                rem[s].push(hops as u32);
            }
        }
        let mut delivered = vec![0u32; n];
        let mut engine = Engine::new(shape, *params);
        engine.begin_phase("ring steps");
        for _step in 1..n {
            let mut txs = Vec::with_capacity(n);
            let mut moved: Vec<Vec<u32>> = vec![Vec::new(); n];
            for u in 0..n {
                let send: Vec<u32> = rem[u].iter().filter(|&&k| k > 0).map(|&k| k - 1).collect();
                rem[u].retain(|&k| k == 0);
                if send.is_empty() {
                    continue;
                }
                let succ = ring[(pos[u] + 1) % n] as usize;
                let ch = Channel::new(u as NodeId, succ as NodeId);
                txs.push(Transmission::over_path(
                    u as NodeId,
                    succ as NodeId,
                    send.len() as u64,
                    vec![ch],
                ));
                moved[succ] = send;
            }
            engine
                .execute_step(&txs)
                .map_err(|e| format!("ring step: {e}"))?;
            for (u, mut blocks) in moved.into_iter().enumerate() {
                delivered[u] += blocks.iter().filter(|&&k| k == 0).count() as u32;
                rem[u].append(&mut blocks);
            }
        }
        // Settled blocks that never moved (none: s != d implies hops >= 1)
        let verified = delivered.iter().all(|&c| c as usize == n - 1)
            && rem.iter().all(|r| r.iter().all(|&k| k == 0));
        Ok(BaselineReport {
            name: self.name(),
            shape: shape.clone(),
            counts: engine.counts(),
            elapsed: engine.elapsed(),
            verified,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_is_a_hamiltonian_cycle() {
        for dims in [&[4u32, 4][..], &[4, 8], &[4, 4, 4], &[2, 4]] {
            let shape = TorusShape::new(dims).unwrap();
            let ring = snake_ring(&shape);
            assert_eq!(ring.len(), shape.num_nodes() as usize);
            let mut seen: Vec<NodeId> = ring.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), ring.len(), "each node once");
            // adjacency including wrap
            for i in 0..ring.len() {
                let a = shape.coord_of(ring[i]);
                let b = shape.coord_of(ring[(i + 1) % ring.len()]);
                let diff: u32 = (0..shape.ndims())
                    .map(|d| torus_topology::ring_distance(a[d], b[d], shape.extent(d)))
                    .sum();
                assert_eq!(diff, 1, "ring neighbors {a} -> {b} must be torus-adjacent");
            }
        }
    }

    #[test]
    fn ring_exchange_delivers_4x4() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let r = RingExchange.run(&shape, &CommParams::unit()).unwrap();
        assert!(r.verified);
        assert_eq!(r.counts.startup_steps, 15);
        // hop per step is 1
        assert_eq!(r.counts.prop_hops, 15);
    }

    #[test]
    fn ring_volume_is_quadratic() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let r = RingExchange.run(&shape, &CommParams::unit()).unwrap();
        // Critical volume: sum_{j=1}^{15} (16 - j) = 120
        assert_eq!(r.counts.trans_blocks, 120);
        // Much larger than the combining algorithm's 16*16*(4+4)/4... for
        // the same torus the proposed algorithm moves 8*16+... = RC(C+4)/4 = 32.
        assert!(r.counts.trans_blocks > cost_model::proposed_2d(4, 4).trans_blocks);
    }

    #[test]
    fn ring_works_in_3d() {
        let shape = TorusShape::new_3d(4, 4, 4).unwrap();
        let r = RingExchange.run(&shape, &CommParams::unit()).unwrap();
        assert!(r.verified);
        assert_eq!(r.counts.startup_steps, 63);
    }
}
