//! The delivery digest: one 64-bit fingerprint of a whole delivery set.
//!
//! A service that runs exchanges for remote clients proves bit-exactness
//! without shipping payloads back: it digests every delivered
//! `(dst, src, payload)` block, and a client that knows the job's
//! deterministic payload streams ([`PayloadSpec`](crate::PayloadSpec))
//! computes the same digest on its own. The digest runs over every byte
//! the exchange delivered, so it has to run at memory speed to stay out
//! of the paper's cost model; a byte-serial hash costs several times the
//! exchange it checks.
//!
//! **Definition.** Each block gets four 64-bit lanes, seeded from `dst`,
//! `src`, the payload length and a constant. The payload's little-endian
//! 8-byte words go round-robin over the lanes (word `k` to lane `k % 4`,
//! so a 32-byte stride feeds each lane once), each absorbed as
//! `lane = ((lane ^ w) * K).rotate_left(29)` with `K` the golden-ratio
//! constant. A short final word is zero-padded; the length is in the
//! seed, so the padding is unambiguous. The block word is
//! `mix(l0) ^ mix(l1 <<< 16) ^ mix(l2 <<< 32) ^ mix(l3 <<< 48)`, with
//! `mix` splitmix64's finalizer. Block words are chained with the same
//! absorb, starting from the FNV-1a offset basis, in delivery order:
//! ascending `dst`, then the runtime's key order within a destination.
//!
//! **Why it detects what it must.** `absorb` is a bijection in each
//! argument (xor, multiply by an odd constant, rotate) and `mix` is a
//! bijection, so a change confined to one 8-byte word changes its lane's
//! final value, hence the block word, hence the chain — always, not with
//! high probability. The rotate matters: without it, flipping bit 63 of
//! two consecutive words of one lane cancels, because multiplying by an
//! odd constant maps a top-bit flip to a top-bit flip. The four lanes
//! are independent chains, which is what lets the multiplier run at full
//! rate where a single chain would wait on itself.

use bytes::Bytes;
use torus_topology::NodeId;

use crate::payload::mix64;

/// Lane multiplier: the golden-ratio constant (odd, so multiplication is
/// a bijection).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Chain start: the FNV-1a offset basis.
const CHAIN_START: u64 = 0xcbf2_9ce4_8422_2325;
/// Per-lane seed constants (hex digits of pi), xored with `dst`, `src`
/// and the length in lanes 0–2.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One absorb step: a bijection in `lane` for fixed `w`, and in `w` for
/// fixed `lane`.
#[inline(always)]
fn absorb(lane: u64, w: u64) -> u64 {
    ((lane ^ w).wrapping_mul(K)).rotate_left(29)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The digest word of one delivered block.
fn block_word(dst: NodeId, src: u32, payload: &[u8]) -> u64 {
    let mut lanes = [
        LANE_SEEDS[0] ^ dst as u64,
        LANE_SEEDS[1] ^ src as u64,
        LANE_SEEDS[2] ^ payload.len() as u64,
        LANE_SEEDS[3],
    ];
    let mut strides = payload.chunks_exact(32);
    for stride in &mut strides {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = absorb(*lane, word(&stride[8 * i..8 * i + 8]));
        }
    }
    for (lane, tail) in lanes.iter_mut().zip(strides.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        *lane = absorb(*lane, u64::from_le_bytes(padded));
    }
    mix64(lanes[0])
        ^ mix64(lanes[1].rotate_left(16))
        ^ mix64(lanes[2].rotate_left(32))
        ^ mix64(lanes[3].rotate_left(48))
}

/// A delivery digest built block by block, for callers that produce the
/// blocks one at a time rather than as a delivery set (a client deriving
/// the expected digest from a spec). Push blocks in delivery order.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryDigest(u64);

impl Default for DeliveryDigest {
    fn default() -> Self {
        Self(CHAIN_START)
    }
}

impl DeliveryDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs block `(dst, src, payload)`; `src` is the source node of
    /// an all-to-all block or the key of a collective one.
    pub fn push(&mut self, dst: NodeId, src: u32, payload: &[u8]) {
        self.0 = absorb(self.0, block_word(dst, src, payload));
    }

    /// The digest of every block pushed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of a delivery set as the runtime returns it: per
/// destination, its `(src or key, payload)` blocks.
pub fn delivery_digest(deliveries: &[Vec<(NodeId, Bytes)>]) -> u64 {
    let mut digest = DeliveryDigest::new();
    for (dst, got) in deliveries.iter().enumerate() {
        for (src, payload) in got {
            digest.push(dst as NodeId, *src, payload);
        }
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PayloadSpec;

    /// A clean all-to-all delivery set on `nn` nodes: per dst, ascending
    /// src, self-pair absent.
    fn alltoall(nn: u32, len: usize, spec: PayloadSpec) -> Vec<Vec<(NodeId, Bytes)>> {
        (0..nn)
            .map(|dst| {
                (0..nn)
                    .filter(|&src| src != dst)
                    .map(|src| (src, spec.payload(src, dst, len)))
                    .collect()
            })
            .collect()
    }

    fn with_block(
        base: &[Vec<(NodeId, Bytes)>],
        dst: usize,
        i: usize,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<Vec<(NodeId, Bytes)>> {
        let mut out = base.to_vec();
        let mut bytes = out[dst][i].1.to_vec();
        edit(&mut bytes);
        out[dst][i].1 = Bytes::from(bytes);
        out
    }

    /// The definition written out plainly, one word at a time — the
    /// oracle `block_word`'s stride loop is held to.
    fn oracle(deliveries: &[Vec<(NodeId, Bytes)>]) -> u64 {
        let mut chain = CHAIN_START;
        for (dst, got) in deliveries.iter().enumerate() {
            for (src, payload) in got {
                let mut lanes = [
                    LANE_SEEDS[0] ^ dst as u64,
                    LANE_SEEDS[1] ^ *src as u64,
                    LANE_SEEDS[2] ^ payload.len() as u64,
                    LANE_SEEDS[3],
                ];
                for (k, chunk) in payload.chunks(8).enumerate() {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    lanes[k % 4] = absorb(lanes[k % 4], u64::from_le_bytes(w));
                }
                let block =
                    (0..4).fold(0, |acc, i| acc ^ mix64(lanes[i].rotate_left(16 * i as u32)));
                chain = absorb(chain, block);
            }
        }
        chain
    }

    #[test]
    fn stride_loop_matches_the_word_at_a_time_oracle() {
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 1024] {
            let set = alltoall(4, len, PayloadSpec::Seeded { seed: 3 });
            assert_eq!(delivery_digest(&set), oracle(&set), "len {len}");
        }
    }

    /// The wire carries this value and clients compute it independently,
    /// so it is a protocol contract: these pins stop it drifting.
    #[test]
    fn golden_digests() {
        let pattern = alltoall(4, 16, PayloadSpec::Pattern);
        assert_eq!(delivery_digest(&pattern), GOLDEN_PATTERN_2X2_16);
        let seeded = alltoall(16, 33, PayloadSpec::Seeded { seed: 0xfeed });
        assert_eq!(delivery_digest(&seeded), GOLDEN_SEEDED_4X4_33);
        // Allgather on 4x4: every node holds every node's diagonal seed
        // block, keyed by its source.
        let spec = PayloadSpec::Seeded { seed: 9 };
        let allgather: Vec<Vec<(NodeId, Bytes)>> = (0..16)
            .map(|_| (0..16).map(|id| (id, spec.key_payload(id, 8))).collect())
            .collect();
        assert_eq!(delivery_digest(&allgather), GOLDEN_ALLGATHER_4X4_8);
    }

    /// 2x2 all-to-all, 16 B pattern blocks.
    const GOLDEN_PATTERN_2X2_16: u64 = 0x6cb5_8b4c_3c00_7bd1;
    /// 4x4 all-to-all, 33 B blocks seeded with `0xfeed`.
    const GOLDEN_SEEDED_4X4_33: u64 = 0x6d25_853c_2b57_ca39;
    /// 4x4 allgather, 8 B blocks seeded with 9.
    const GOLDEN_ALLGATHER_4X4_8: u64 = 0xe532_1613_2d60_248a;

    /// Every single-bit flip anywhere in a 4x4 x 33 B delivery set
    /// changes the digest.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let base = alltoall(16, 33, PayloadSpec::Seeded { seed: 11 });
        let good = delivery_digest(&base);
        for dst in 0..base.len() {
            for i in 0..base[dst].len() {
                for bit in 0..33 * 8 {
                    let flipped = with_block(&base, dst, i, |b| b[bit / 8] ^= 1 << (bit % 8));
                    assert_ne!(
                        delivery_digest(&flipped),
                        good,
                        "dst {dst} block {i} bit {bit}"
                    );
                }
            }
        }
    }

    /// Any change confined to one 8-byte word is detected: absorb and mix
    /// are bijections, so this holds for every xor pattern, not just the
    /// sampled ones.
    #[test]
    fn changes_confined_to_one_word_are_detected() {
        let base = alltoall(4, 64, PayloadSpec::Pattern);
        let good = delivery_digest(&base);
        let patterns = [
            1u64,
            u64::MAX,
            0x8000_0000_0000_0001,
            K,
            0xff00_ff00_ff00_ff00,
        ];
        for w in 0..8 {
            for pattern in patterns {
                let changed = with_block(&base, 2, 1, |b| {
                    let old = word(&b[8 * w..8 * w + 8]);
                    b[8 * w..8 * w + 8].copy_from_slice(&(old ^ pattern).to_le_bytes());
                });
                assert_ne!(delivery_digest(&changed), good, "word {w} ^ {pattern:#x}");
            }
        }
    }

    /// Flipping bit 63 of words `k` and `k + 4` (consecutive words of one
    /// lane) cancels in a plain xor-multiply chain; the rotate catches it.
    #[test]
    fn paired_top_bit_flips_in_one_lane_are_detected() {
        let base = alltoall(4, 64, PayloadSpec::Seeded { seed: 2 });
        let good = delivery_digest(&base);
        for k in 0..4 {
            let changed = with_block(&base, 0, 0, |b| {
                b[8 * k + 7] ^= 0x80;
                b[8 * (k + 4) + 7] ^= 0x80;
            });
            assert_ne!(delivery_digest(&changed), good, "lane {k}");
        }
        // The same pair under a rotate-free absorb would collide.
        let plain = |lanes: &mut [u64; 2], words: [u64; 2]| {
            for (lane, w) in lanes.iter_mut().zip(words) {
                *lane = (*lane ^ w).wrapping_mul(K);
            }
        };
        let (mut a, mut b) = ([1u64, 1], [1u64, 1]);
        plain(&mut a, [5, 9]);
        plain(&mut a, [7, 3]);
        plain(&mut b, [5 ^ 1 << 63, 9]);
        plain(&mut b, [7 ^ 1 << 63, 3]);
        assert_eq!(a, b, "rotate-free chains cancel paired top-bit flips");
    }

    #[test]
    fn placement_labels_order_and_length_are_detected() {
        let base = alltoall(16, 33, PayloadSpec::Seeded { seed: 4 });
        let good = delivery_digest(&base);

        let mut moved = base.clone();
        let block = moved[3].remove(0);
        moved[5].insert(0, block);
        assert_ne!(delivery_digest(&moved), good, "block moved to another dst");

        let mut relabelled = base.clone();
        relabelled[3][0].0 = 9;
        assert_ne!(delivery_digest(&relabelled), good, "src relabelled");

        let mut swapped = base.clone();
        swapped[3].swap(0, 1);
        assert_ne!(delivery_digest(&swapped), good, "two blocks swapped");

        let truncated = with_block(&base, 3, 0, |b| {
            b.pop();
        });
        assert_ne!(delivery_digest(&truncated), good, "payload truncated");

        let extended = with_block(&base, 3, 0, |b| b.push(0));
        assert_ne!(delivery_digest(&extended), good, "zero byte appended");

        // A zero byte appended to a word-aligned payload only adds
        // padding zeros; the length in the seed still tells them apart.
        let aligned = alltoall(4, 32, PayloadSpec::Pattern);
        let padded = with_block(&aligned, 1, 2, |b| b.push(0));
        assert_ne!(delivery_digest(&padded), delivery_digest(&aligned));
    }

    #[test]
    fn streaming_digest_equals_the_set_digest() {
        let set = alltoall(9, 24, PayloadSpec::Pattern);
        let mut digest = DeliveryDigest::new();
        for (dst, got) in set.iter().enumerate() {
            for (src, payload) in got {
                digest.push(dst as NodeId, *src, payload);
            }
        }
        assert_eq!(digest.finish(), delivery_digest(&set));
        assert_eq!(DeliveryDigest::new().finish(), delivery_digest(&[]));
    }
}
