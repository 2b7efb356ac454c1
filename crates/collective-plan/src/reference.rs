//! Scalar reference replay: the ground truth the byte-moving executor is
//! verified against.

use std::collections::BTreeMap;

use crate::{combine, CollectivePlan, NodeFinals, PlanError};

/// One step's captured outgoing frames: `(dst, frames)` where each
/// frame is a `(key, payload)` pair.
type StepDeliveries<P> = Vec<(u32, Vec<(u32, P)>)>;

impl CollectivePlan {
    /// Replays the plan serially over real bytes and returns every
    /// node's final `(key, payload)` holdings, keys ascending.
    ///
    /// `payload(id)` supplies the seed block for data identity `id`
    /// (see [`CollectivePlan::seed_id`]) and must return exactly
    /// `block_bytes` bytes. `P` is the caller's payload handle: a moved
    /// or retained send clones the handle, and only a combining receive
    /// builds new bytes — so with a shared handle (`Bytes`) every
    /// non-combined final *is* its seed. Combining receives fold with
    /// [`combine`] in the same receive order the executor uses — one
    /// frame per node per step, steps in plan order — so a threaded run
    /// must match this replay bit-for-bit, f32 rounding included.
    pub fn reference_finals<P, F>(
        &self,
        block_bytes: usize,
        mut payload: F,
    ) -> Result<NodeFinals<P>, PlanError>
    where
        P: Clone + AsRef<[u8]> + From<Vec<u8>>,
        F: FnMut(u32) -> P,
    {
        self.check_block_bytes(block_bytes)?;
        let nn = self.shape().num_nodes();
        let combining = self.is_combining();
        let mut store: Vec<BTreeMap<u32, P>> = (0..nn)
            .map(|u| {
                self.initial_keys(u)
                    .iter()
                    .map(|&k| {
                        let p = payload(self.seed_id(u, k));
                        assert_eq!(
                            p.as_ref().len(),
                            block_bytes,
                            "seed payload length mismatch"
                        );
                        (k, p)
                    })
                    .collect()
            })
            .collect();
        let (op, dtype) = match self.op().reduce() {
            Some((op, dtype)) => (Some(op), Some(dtype)),
            None => (None, None),
        };
        for step in self.steps() {
            // Capture outgoing payloads against pre-step holdings first
            // (move semantics take effect before any delivery lands).
            let mut deliveries: StepDeliveries<P> = Vec::with_capacity(step.sends.len());
            for s in &step.sends {
                let src = &mut store[s.src as usize];
                let mut out = Vec::with_capacity(s.keys.len());
                for &k in &s.keys {
                    let bytes = if s.retain {
                        src.get(&k).cloned()
                    } else {
                        src.remove(&k)
                    };
                    match bytes {
                        Some(b) => out.push((k, b)),
                        None => {
                            return Err(PlanError::Internal(format!(
                                "replay: node {} missing key {k}",
                                s.src
                            )))
                        }
                    }
                }
                deliveries.push((s.dst, out));
            }
            for (dst, blocks) in deliveries {
                let slot = &mut store[dst as usize];
                for (k, bytes) in blocks {
                    match slot.get_mut(&k) {
                        Some(acc) if combining => {
                            let mut folded = acc.as_ref().to_vec();
                            combine(dtype.unwrap(), op.unwrap(), &mut folded, bytes.as_ref());
                            *acc = P::from(folded);
                        }
                        Some(_) => {
                            return Err(PlanError::Internal(format!(
                                "replay: node {dst} re-receives key {k} without combining"
                            )))
                        }
                        None => {
                            slot.insert(k, bytes);
                        }
                    }
                }
            }
        }
        Ok(store.into_iter().map(|m| m.into_iter().collect()).collect())
    }

    /// For combining ops, folds every node's contribution directly in
    /// node order — an order-*independent* cross-check for `u64` lanes
    /// (wrapping sum, min, max all commute and associate exactly).
    /// Returns `None` for non-combining ops. For `f32` sum the ring
    /// fold order matters, so compare against [`reference_finals`]
    /// (bit-exact schedule replay) instead.
    ///
    /// [`reference_finals`]: CollectivePlan::reference_finals
    pub fn direct_reduction<P, F>(&self, block_bytes: usize, mut payload: F) -> Option<Vec<u8>>
    where
        P: AsRef<[u8]>,
        F: FnMut(u32) -> P,
    {
        let (op, dtype) = self.op().reduce()?;
        let nn = self.shape().num_nodes();
        let mut acc = payload(0).as_ref().to_vec();
        assert_eq!(acc.len(), block_bytes, "seed payload length mismatch");
        for u in 1..nn {
            let p = payload(u);
            assert_eq!(
                p.as_ref().len(),
                block_bytes,
                "seed payload length mismatch"
            );
            combine(dtype, op, &mut acc, p.as_ref());
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use torus_topology::TorusShape;

    use crate::{CollectiveOp, CollectivePlan, Dtype, PlanError, ReduceOp};

    fn seed(id: u32, block_bytes: usize) -> Vec<u8> {
        // Distinct, lane-aligned, deterministic content per identity.
        let mut v = Vec::with_capacity(block_bytes);
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(id).wrapping_mul(0x2545_f491_4f6c_dd1d);
        while v.len() < block_bytes {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.extend_from_slice(&x.to_le_bytes());
        }
        v.truncate(block_bytes);
        v
    }

    #[test]
    fn broadcast_replay_delivers_root_block_everywhere() {
        let shape = TorusShape::new(&[4, 6]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Broadcast { root: 13 }).unwrap();
        let finals = plan.reference_finals(64, |id| seed(id, 64)).unwrap();
        let want = seed(13, 64);
        for (u, holdings) in finals.iter().enumerate() {
            assert_eq!(holdings.len(), 1, "node {u}");
            assert_eq!(holdings[0].0, 13);
            assert_eq!(holdings[0].1, want);
        }
    }

    #[test]
    fn scatter_replay_delivers_own_block() {
        let shape = TorusShape::new(&[3, 5]).unwrap();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Scatter { root: 7 }).unwrap();
        let finals = plan.reference_finals(32, |id| seed(id, 32)).unwrap();
        for (u, holdings) in finals.iter().enumerate() {
            assert_eq!(holdings.len(), 1, "node {u}");
            assert_eq!(holdings[0].0, u as u32);
            assert_eq!(holdings[0].1, seed(u as u32, 32));
        }
    }

    #[test]
    fn gather_and_allgather_replay_collect_contributions() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let nn = shape.num_nodes();
        let plan = CollectivePlan::new(&shape, CollectiveOp::Gather { root: 5 }).unwrap();
        let finals = plan.reference_finals(16, |id| seed(id, 16)).unwrap();
        for (u, holdings) in finals.iter().enumerate() {
            if u == 5 {
                assert_eq!(holdings.len(), nn as usize);
                for (k, bytes) in holdings {
                    assert_eq!(bytes, &seed(*k, 16));
                }
            } else {
                assert!(holdings.is_empty());
            }
        }
        let plan = CollectivePlan::new(&shape, CollectiveOp::Allgather).unwrap();
        let finals = plan.reference_finals(16, |id| seed(id, 16)).unwrap();
        for (u, holdings) in finals.iter().enumerate() {
            assert_eq!(holdings.len(), nn as usize, "node {u}");
            for (k, bytes) in holdings {
                assert_eq!(bytes, &seed(*k, 16));
            }
        }
    }

    #[test]
    fn reduce_replay_matches_direct_reduction_u64() {
        for dims in [&[4u32, 4][..], &[3, 5], &[4, 4, 4], &[2]] {
            let shape = TorusShape::new(dims).unwrap();
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let plan = CollectivePlan::new(
                    &shape,
                    CollectiveOp::Reduce {
                        root: shape.num_nodes() - 1,
                        op,
                        dtype: Dtype::U64,
                    },
                )
                .unwrap();
                let finals = plan.reference_finals(64, |id| seed(id, 64)).unwrap();
                let direct = plan.direct_reduction(64, |id| seed(id, 64)).unwrap();
                let root = (shape.num_nodes() - 1) as usize;
                assert_eq!(finals[root], vec![(0, direct)], "{dims:?} {op:?}");
            }
        }
    }

    #[test]
    fn allreduce_replay_is_uniform_and_matches_direct_u64() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let plan = CollectivePlan::new(
            &shape,
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        )
        .unwrap();
        let finals = plan.reference_finals(24, |id| seed(id, 24)).unwrap();
        let direct = plan.direct_reduction(24, |id| seed(id, 24)).unwrap();
        for (u, holdings) in finals.iter().enumerate() {
            assert_eq!(holdings, &vec![(0, direct.clone())], "node {u}");
        }
    }

    #[test]
    fn allreduce_f32_replay_is_uniform_and_close_to_f64() {
        let shape = TorusShape::new(&[4, 4, 4]).unwrap();
        let nn = shape.num_nodes();
        let plan = CollectivePlan::new(
            &shape,
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::F32,
            },
        )
        .unwrap();
        let contrib = |id: u32| -> Vec<u8> {
            (0..4u32)
                .flat_map(|lane| ((id as f32 + 1.0) * 0.125 + lane as f32).to_le_bytes())
                .collect()
        };
        let finals = plan.reference_finals(16, contrib).unwrap();
        // Uniform across nodes (the broadcast half copies node 0's fold).
        for holdings in &finals[1..] {
            assert_eq!(holdings, &finals[0]);
        }
        // And close to the f64 accumulation.
        let bytes = &finals[0][0].1;
        for lane in 0..4usize {
            let got = f32::from_le_bytes(bytes[lane * 4..lane * 4 + 4].try_into().unwrap());
            let want: f64 = (0..nn)
                .map(|u| (u as f64 + 1.0) * 0.125 + lane as f64)
                .sum();
            assert!(
                ((got as f64) - want).abs() <= want.abs() * 1e-5,
                "lane {lane}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn lane_mismatch_rejected() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let plan = CollectivePlan::new(
            &shape,
            CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        )
        .unwrap();
        assert!(matches!(
            plan.reference_finals(12, |id| seed(id, 12)),
            Err(PlanError::LaneMismatch {
                block_bytes: 12,
                lane: 8
            })
        ));
        assert!(plan.check_block_bytes(16).is_ok());
        let plan = CollectivePlan::new(
            &shape,
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::F32,
            },
        )
        .unwrap();
        assert!(plan.check_block_bytes(12).is_ok());
        assert!(plan.check_block_bytes(10).is_err());
        // Non-combining ops take any block size.
        let plan = CollectivePlan::new(&shape, CollectiveOp::Allgather).unwrap();
        assert!(plan.check_block_bytes(13).is_ok());
    }
}
