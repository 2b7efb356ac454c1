//! Variable-count personalized exchange (`MPI_Alltoallv` analog).
//!
//! The paper's algorithm moves exactly one block per (source, destination)
//! pair. Real applications are rarely that uniform: graph redistribution,
//! particle migration and sparse transposes send *zero or many* blocks per
//! pair. Because the executor's block bookkeeping is per-block (not
//! per-pair), the same `n + 2`-phase schedule handles arbitrary
//! multiplicities unchanged — blocks for the same pair simply ride the
//! same pipeline together, and the message-combining property keeps the
//! startup count at `n(a₁/4 + 1)` *regardless of the count matrix*.
//! That constant-startup behaviour under irregularity is exactly what
//! direct algorithms lose (their round count depends on the sparsity
//! pattern).

use cost_model::{CommParams, CostCounts};
use torus_sim::Engine;

use crate::block::Buffers;
use crate::exchange::Exchange;
use crate::exec::ExchangeError;
use crate::observer::NullObserver;
use crate::steps::StepPlan;

/// Result of a variable-count exchange.
#[derive(Clone, Debug)]
pub struct AlltoallvReport {
    /// Measured critical-path counts.
    pub counts: CostCounts,
    /// Completion time under the run's parameters.
    pub elapsed: cost_model::CompletionTime,
    /// `received[d][s]` = number of blocks node `d` received from `s`.
    pub received: Vec<Vec<u64>>,
    /// Whether every count was delivered exactly.
    pub verified: bool,
}

impl Exchange {
    /// Runs a personalized exchange where node `s` sends
    /// `send_counts[s][d]` blocks to node `d` (original node ids; the
    /// diagonal is ignored — self data never enters the network).
    ///
    /// The returned report's `received` matrix must equal the transpose of
    /// `send_counts` for `verified` to hold.
    ///
    /// ```
    /// use alltoall_core::Exchange;
    /// use cost_model::CommParams;
    /// use torus_topology::TorusShape;
    ///
    /// let shape = TorusShape::new_2d(4, 4).unwrap();
    /// // Node 0 sends 5 blocks to node 7; nothing else moves.
    /// let mut counts = vec![vec![0u64; 16]; 16];
    /// counts[0][7] = 5;
    /// let r = Exchange::new(&shape)
    ///     .unwrap()
    ///     .run_alltoallv(&CommParams::unit(), &counts)
    ///     .unwrap();
    /// assert!(r.verified);
    /// assert_eq!(r.received[7][0], 5);
    /// ```
    pub fn run_alltoallv(
        &self,
        params: &CommParams,
        send_counts: &[Vec<u64>],
    ) -> Result<AlltoallvReport, ExchangeError> {
        let n = self.shape_ref().num_nodes();
        if send_counts.len() != n as usize || send_counts.iter().any(|row| row.len() != n as usize)
        {
            return Err(ExchangeError::BadShape(format!(
                "send_counts must be {n}x{n}"
            )));
        }
        let canon = self.executed_shape();
        let canon_ids = self.canonical_ids();
        let pairs = (0..n as usize)
            .flat_map(|s| (0..n as usize).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .flat_map(|(s, d)| {
                std::iter::repeat_n((canon_ids[s], canon_ids[d], ()), send_counts[s][d] as usize)
            });
        let mut bufs = Buffers::seeded(canon, pairs);
        let mut engine = Engine::new(canon, *params);
        StepPlan::new(canon).execute(&mut bufs, &mut engine, &mut NullObserver)?;

        // Tally deliveries back in original ids.
        let mut received = vec![vec![0u64; n as usize]; n as usize];
        let mut misdelivered = false;
        for d in 0..n {
            let cd = canon_ids[d as usize];
            for b in bufs.node(cd) {
                if b.dst != cd {
                    misdelivered = true;
                    continue;
                }
                let s = self
                    .from_canonical(b.src)
                    .expect("blocks originate from real nodes");
                received[d as usize][s as usize] += 1;
            }
        }
        // Virtual/foreign nodes must hold nothing.
        for c in 0..canon.num_nodes() {
            if !canon_ids.contains(&c) && !bufs.node(c).is_empty() {
                misdelivered = true;
            }
        }
        let verified = !misdelivered
            && (0..n as usize)
                .all(|d| (0..n as usize).all(|s| s == d || received[d][s] == send_counts[s][d]));
        Ok(AlltoallvReport {
            counts: engine.counts(),
            elapsed: engine.elapsed(),
            received,
            verified,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_topology::TorusShape;

    fn uniform(n: usize, c: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|s| (0..n).map(|d| if s == d { 0 } else { c }).collect())
            .collect()
    }

    #[test]
    fn uniform_counts_match_plain_exchange() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let e = Exchange::new(&shape).unwrap();
        let r = e
            .run_alltoallv(&CommParams::unit(), &uniform(64, 1))
            .unwrap();
        assert!(r.verified);
        let plain = e.run_counting(&CommParams::unit()).unwrap();
        assert_eq!(r.counts, plain.counts);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // s/d index both axes of the matrix
    fn sparse_counts_deliver_exactly() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let n = 16usize;
        // Pseudo-random sparse matrix: many zero pairs, some multi-block.
        let counts: Vec<Vec<u64>> = (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| {
                        if s == d {
                            0
                        } else {
                            ((s * 7 + d * 13) % 5) as u64 // 0..=4 blocks
                        }
                    })
                    .collect()
            })
            .collect();
        let e = Exchange::new(&shape).unwrap();
        let r = e.run_alltoallv(&CommParams::unit(), &counts).unwrap();
        assert!(r.verified);
        for d in 0..n {
            for s in 0..n {
                if s != d {
                    assert_eq!(r.received[d][s], counts[s][d], "pair {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn startup_count_is_sparsity_independent() {
        // The headline property: combining keeps the step count fixed no
        // matter how irregular the counts.
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let e = Exchange::new(&shape).unwrap();
        let dense = e
            .run_alltoallv(&CommParams::unit(), &uniform(64, 3))
            .unwrap();
        let mut sparse = uniform(64, 0);
        sparse[0][63] = 10;
        sparse[17][2] = 1;
        let sparse_r = e.run_alltoallv(&CommParams::unit(), &sparse).unwrap();
        assert!(dense.verified && sparse_r.verified);
        assert_eq!(dense.counts.startup_steps, sparse_r.counts.startup_steps);
        assert!(sparse_r.counts.trans_blocks < dense.counts.trans_blocks);
    }

    #[test]
    fn empty_exchange_still_verifies() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let e = Exchange::new(&shape).unwrap();
        let r = e
            .run_alltoallv(&CommParams::unit(), &uniform(16, 0))
            .unwrap();
        assert!(r.verified);
        assert_eq!(r.counts.trans_blocks, 0);
    }

    #[test]
    fn works_with_padding() {
        let shape = TorusShape::new_2d(6, 6).unwrap();
        let n = 36usize;
        let counts: Vec<Vec<u64>> = (0..n)
            .map(|s| (0..n).map(|d| ((s + d) % 3) as u64).collect())
            .collect();
        let e = Exchange::new(&shape).unwrap();
        assert!(e.is_padded());
        let r = e.run_alltoallv(&CommParams::unit(), &counts).unwrap();
        assert!(r.verified);
    }

    #[test]
    fn wrong_matrix_size_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let e = Exchange::new(&shape).unwrap();
        assert!(matches!(
            e.run_alltoallv(&CommParams::unit(), &uniform(9, 1)),
            Err(ExchangeError::BadShape(_))
        ));
    }
}
