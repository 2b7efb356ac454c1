//! End-to-end payload checksums.
//!
//! Shipping every delivered block back over the socket would drown the
//! protocol in payload bytes, so bit-exactness is proven with a
//! checksum instead: the engine folds every delivered `(dst, src,
//! payload)` triple into the runtime's four-lane delivery digest
//! ([`torus_runtime::digest`]) once per clean job, and the client —
//! which knows the spec's deterministic payload streams — computes the
//! same digest independently. Equal digests mean every block arrived at
//! the right node with the right bytes; the two sides never share
//! payload data, only the 16-hex-digit answer.

use bytes::Bytes;
use torus_runtime::{CollectivePlan, DeliveryDigest, JobOp};

use crate::spec::JobSpec;

/// Digest of an actual delivery set, in the engine's order (ascending
/// destination, each destination's deliveries as the runtime returns
/// them: ascending key — the source node for an all-to-all, the
/// collective key for broadcast/allgather/reduce/etc.). The daemon
/// itself reads the engine's [`JobResult::digest`]; this is for callers
/// holding a delivery set of their own.
///
/// [`JobResult::digest`]: torus_service::JobResult::digest
pub fn delivery_checksum(deliveries: &[Vec<(u32, Bytes)>]) -> u64 {
    torus_runtime::delivery_digest(deliveries)
}

/// The digest a clean (non-degraded) run of `spec` must produce,
/// computed purely from the spec's deterministic payload streams.
///
/// All-to-all seeds each destination's `N − 1` incoming streams into one
/// reused buffer with the runtime's seeding kernel
/// ([`PayloadSpec::fill`](torus_service::PayloadSpec::fill)) and digests
/// slices of it; a collective replays the plan's serial reference fold
/// ([`CollectivePlan::reference_finals`]) over the same diagonal seed
/// payloads the engine uses, so the digest covers the *reduced* bytes,
/// not just the seeds. The replay holds each seed's `Bytes` handle
/// rather than a copy; only a combining receive builds new bytes. Spec
/// validation guarantees the plan and lane
/// checks cannot fail here.
pub fn expected_checksum(spec: &JobSpec) -> u64 {
    let mut digest = DeliveryDigest::new();
    let len = spec.block_bytes;
    match spec.op {
        JobOp::Alltoall => {
            let nn = spec.torus_shape().num_nodes();
            let (mut pairs, mut streams) = (Vec::new(), Vec::new());
            for dst in 0..nn {
                pairs.clear();
                pairs.extend((0..nn).filter(|&s| s != dst).map(|src| (src, dst)));
                spec.payload.fill(&pairs, len, &mut streams);
                for (i, &(src, _)) in pairs.iter().enumerate() {
                    digest.push(dst, src, &streams[i * len..(i + 1) * len]);
                }
            }
        }
        JobOp::Collective(op) => {
            let plan = CollectivePlan::new(&spec.torus_shape(), op)
                .expect("spec validation admits only plannable collective ops");
            let finals = plan
                .reference_finals(len, |id| spec.payload.key_payload(id, len))
                .expect("spec validation enforces the lane check");
            for (dst, got) in finals.iter().enumerate() {
                for (key, payload) in got {
                    digest.push(dst as u32, *key, payload);
                }
            }
        }
    }
    digest.finish()
}

/// Formats a digest the way the wire protocol carries it.
pub fn to_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_runtime::{CollectiveOp, CollectiveRuntime, Dtype, ReduceOp, Runtime, RuntimeConfig};
    use torus_service::PayloadSpec;

    #[test]
    fn expected_matches_a_synthetic_delivery_set() {
        let spec = JobSpec {
            shape: vec![2, 2],
            block_bytes: 16,
            payload: PayloadSpec::Seeded { seed: 5 },
            ..JobSpec::default()
        };
        // Build the delivery set the engine would produce for a clean
        // 2x2 run: per dst, ascending src, self-pair absent.
        let deliveries: Vec<Vec<(u32, Bytes)>> = (0..4)
            .map(|dst| {
                (0..4)
                    .filter(|&src| src != dst)
                    .map(|src| (src, torus_runtime::seeded_payload(5, src, dst, 16)))
                    .collect()
            })
            .collect();
        assert_eq!(delivery_checksum(&deliveries), expected_checksum(&spec));
    }

    /// The spec-side digest of the runtime's golden delivery sets: the
    /// wire value is a protocol contract, so a client computing it from
    /// the spec alone must land on the same pins.
    #[test]
    fn expected_checksum_matches_the_golden_pins() {
        let pattern = JobSpec {
            shape: vec![2, 2],
            block_bytes: 16,
            payload: PayloadSpec::Pattern,
            ..JobSpec::default()
        };
        assert_eq!(to_hex(expected_checksum(&pattern)), "6cb58b4c3c007bd1");
        let seeded = JobSpec {
            shape: vec![4, 4],
            block_bytes: 33,
            payload: PayloadSpec::Seeded { seed: 0xfeed },
            ..JobSpec::default()
        };
        assert_eq!(to_hex(expected_checksum(&seeded)), "6d25853c2b57ca39");
        let allgather = JobSpec {
            shape: vec![4, 4],
            block_bytes: 8,
            payload: PayloadSpec::Seeded { seed: 9 },
            op: JobOp::Collective(CollectiveOp::Allgather),
            ..JobSpec::default()
        };
        assert_eq!(to_hex(expected_checksum(&allgather)), "e53216132d60248a");
    }

    /// `expected_checksum` equals the digest of a real runtime run for
    /// every op, on the degenerate 2×2 ring (whose + and − neighbours
    /// coincide), a square, a padded and a 3-D shape, at every block
    /// length the op's lane check admits.
    #[test]
    fn expected_matches_real_runs_for_every_op_shape_and_length() {
        let ops = [
            JobOp::Alltoall,
            JobOp::Collective(CollectiveOp::Broadcast { root: 2 }),
            JobOp::Collective(CollectiveOp::Scatter { root: 1 }),
            JobOp::Collective(CollectiveOp::Gather { root: 3 }),
            JobOp::Collective(CollectiveOp::Allgather),
            JobOp::Collective(CollectiveOp::Reduce {
                root: 1,
                op: ReduceOp::Max,
                dtype: Dtype::F32,
            }),
            JobOp::Collective(CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            }),
        ];
        for shape in [vec![2, 2], vec![4, 4], vec![6, 6], vec![4, 4, 4]] {
            for op in ops {
                for block_bytes in [8, 16, 33, 64, 1024] {
                    let lane = match op {
                        JobOp::Collective(
                            CollectiveOp::Reduce { dtype, .. }
                            | CollectiveOp::Allreduce { dtype, .. },
                        ) => dtype.lane_bytes(),
                        _ => 1,
                    };
                    if block_bytes % lane != 0 {
                        continue;
                    }
                    let spec = JobSpec {
                        shape: shape.clone(),
                        block_bytes,
                        payload: PayloadSpec::Seeded { seed: 9 },
                        op,
                        ..JobSpec::default()
                    };
                    let cfg = RuntimeConfig::default()
                        .with_workers(2)
                        .with_block_bytes(block_bytes);
                    let payload = spec.payload;
                    let deliveries = match op {
                        JobOp::Alltoall => {
                            Runtime::new(&spec.torus_shape(), cfg)
                                .unwrap()
                                .run_with_payloads(|s, d| payload.payload(s, d, block_bytes))
                                .unwrap()
                                .1
                        }
                        JobOp::Collective(op) => {
                            CollectiveRuntime::new(&spec.torus_shape(), op, cfg)
                                .unwrap()
                                .run_with_payloads(|id| payload.key_payload(id, block_bytes))
                                .unwrap()
                                .1
                        }
                    };
                    assert_eq!(
                        delivery_checksum(&deliveries),
                        expected_checksum(&spec),
                        "digest mismatch for {op:?} on {shape:?} x {block_bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    fn digest_is_sensitive_to_bytes_source_and_placement() {
        let base: Vec<Vec<(u32, Bytes)>> = (0..4)
            .map(|dst| {
                (0..4u32)
                    .filter(|&src| src != dst)
                    .map(|src| (src, torus_runtime::pattern_payload(src, dst, 8)))
                    .collect()
            })
            .collect();
        let good = delivery_checksum(&base);

        let mut wrong_bytes = base.clone();
        let flipped: Vec<u8> = wrong_bytes[1][0].1.iter().map(|b| b ^ 1).collect();
        wrong_bytes[1][0].1 = Bytes::from(flipped);
        assert_ne!(delivery_checksum(&wrong_bytes), good);

        let mut wrong_src = base.clone();
        wrong_src[1][0].0 = 3;
        assert_ne!(delivery_checksum(&wrong_src), good);

        let mut swapped = base;
        swapped.swap(0, 2);
        assert_ne!(delivery_checksum(&swapped), good);
    }

    #[test]
    fn hex_form_is_fixed_width() {
        assert_eq!(to_hex(0x1a), "000000000000001a");
        assert_eq!(to_hex(u64::MAX), "ffffffffffffffff");
    }
}
