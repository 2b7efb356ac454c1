//! End-to-end payload checksums.
//!
//! Shipping every delivered block back over the socket would drown the
//! protocol in payload bytes, so bit-exactness is proven with a
//! checksum instead: the daemon folds every delivered `(dst, src,
//! payload)` triple into an FNV-1a 64 digest, and the client — which
//! knows the spec's deterministic payload streams — computes the same
//! digest independently. Equal digests mean every block arrived at the
//! right node with the right bytes; the two sides never share payload
//! data, only the 16-hex-digit answer.

use bytes::Bytes;
use torus_runtime::{CollectivePlan, JobOp};

use crate::spec::JobSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Digest of an actual delivery set, in the engine's order (ascending
/// destination, each destination's deliveries as the runtime returns
/// them: ascending key — the source node for an all-to-all, the
/// collective key for broadcast/allgather/reduce/etc.).
pub fn delivery_checksum(deliveries: &[Vec<(u32, Bytes)>]) -> u64 {
    let mut hash = FNV_OFFSET;
    for (dst, got) in deliveries.iter().enumerate() {
        for (src, payload) in got {
            fold(&mut hash, &(dst as u32).to_le_bytes());
            fold(&mut hash, &src.to_le_bytes());
            fold(&mut hash, payload);
        }
    }
    hash
}

/// The digest a clean (non-degraded) run of `spec` must produce,
/// computed purely from the spec's deterministic payload streams.
///
/// All-to-all enumerates the `(src != dst)` pair stream directly; a
/// collective replays the plan's serial reference fold
/// ([`CollectivePlan::reference_finals`]) over the same diagonal seed
/// payloads the engine uses, so the digest covers the *reduced* bytes,
/// not just the seeds. Spec validation guarantees the plan and lane
/// checks cannot fail here.
pub fn expected_checksum(spec: &JobSpec) -> u64 {
    let mut hash = FNV_OFFSET;
    match spec.op {
        JobOp::Alltoall => {
            let nn = spec.torus_shape().num_nodes();
            for dst in 0..nn {
                for src in (0..nn).filter(|&s| s != dst) {
                    let payload = spec.payload.payload(src, dst, spec.block_bytes);
                    fold(&mut hash, &dst.to_le_bytes());
                    fold(&mut hash, &src.to_le_bytes());
                    fold(&mut hash, &payload);
                }
            }
        }
        JobOp::Collective(op) => {
            let plan = CollectivePlan::new(&spec.torus_shape(), op)
                .expect("spec validation admits only plannable collective ops");
            let finals = plan
                .reference_finals(spec.block_bytes, |id| {
                    spec.payload.key_payload(id, spec.block_bytes).to_vec()
                })
                .expect("spec validation enforces the lane check");
            for (dst, got) in finals.iter().enumerate() {
                for (key, payload) in got {
                    fold(&mut hash, &(dst as u32).to_le_bytes());
                    fold(&mut hash, &key.to_le_bytes());
                    fold(&mut hash, payload);
                }
            }
        }
    }
    hash
}

/// Formats a digest the way the wire protocol carries it.
pub fn to_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn collective_expected_matches_a_real_runtime_run() {
        use torus_runtime::{CollectiveOp, CollectiveRuntime, Dtype, ReduceOp, RuntimeConfig};
        let ops = [
            CollectiveOp::Broadcast { root: 2 },
            CollectiveOp::Allgather,
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
            CollectiveOp::Reduce {
                root: 1,
                op: ReduceOp::Max,
                dtype: Dtype::F32,
            },
        ];
        for op in ops {
            let spec = JobSpec {
                shape: vec![2, 2],
                block_bytes: 16,
                payload: PayloadSpec::Seeded { seed: 9 },
                op: torus_runtime::JobOp::Collective(op),
                ..JobSpec::default()
            };
            let runtime = CollectiveRuntime::new(
                &spec.torus_shape(),
                op,
                RuntimeConfig::default()
                    .with_workers(2)
                    .with_block_bytes(spec.block_bytes),
            )
            .unwrap();
            let (_, deliveries) = runtime
                .run_with_payloads(|id| spec.payload.key_payload(id, spec.block_bytes))
                .unwrap();
            assert_eq!(
                delivery_checksum(&deliveries),
                expected_checksum(&spec),
                "digest mismatch for {op:?}"
            );
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
