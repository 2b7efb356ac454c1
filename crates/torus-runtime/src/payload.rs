//! Deterministic per-pair payload streams, and the kernel that seeds a
//! node's blocks from one buffer.
//!
//! Verification needs payloads that make corruption *detectable*: every
//! `(src, dst)` pair gets a distinct pseudo-random byte stream derived
//! from a [splitmix64](https://prng.di.unimi.it/splitmix64.c) keyed by the
//! pair, so a block that is truncated, cross-wired, or stale-cached
//! mismatches with overwhelming probability. A [`PayloadSpec`] names
//! which family of streams a job carries: the shared pattern, or the
//! pattern re-keyed by a job seed.
//!
//! A stream is a serial chain — each 8-byte word is the mix of the one
//! before it — so a single stream leaves the multiplier idle while it
//! waits on its own previous word. Seeding an exchange writes every block
//! a node starts with, and those streams are independent of each other,
//! so the private kernel (`fill_streams`) advances four chains
//! interleaved and writes a node's `k` streams back to back into one
//! buffer. Each block is then an O(1) [`Bytes::slice`] of it: a node
//! costs one allocation and one copy, where seeding block by block cost
//! two allocations and a copy per block. [`pattern_payload`] and
//! [`seeded_payload`] are the kernel's one-stream case and produce the
//! same bytes.

use bytes::Bytes;
use torus_topology::NodeId;

/// Streams the seeding kernel advances side by side.
const LANES: usize = 4;

/// One splitmix64 mixing round. Shared with the fault layer, whose
/// deterministic sampling and corruption-offset choices are derived from
/// the same mixer so a `FaultPlan` seed fully determines every decision.
pub(crate) fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// splitmix64's finalizer: a bijection on `u64` with full avalanche.
/// Also the lane finalizer of the delivery digest ([`crate::digest`]).
#[inline(always)]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64-bit seed for pair `(src, dst)`.
pub(crate) fn pattern_seed(src: NodeId, dst: NodeId) -> u64 {
    splitmix64(((src as u64) << 32) | dst as u64)
}

/// Writes `L` equally long streams, advancing their chains in lockstep.
/// Word `w` of a stream is its state after `w + 1` mixing rounds,
/// little-endian; a short tail takes the low bytes of one more word.
#[inline(always)]
fn fill_lanes<const L: usize>(mut state: [u64; L], mut outs: [&mut [u8]; L]) {
    let len = outs[0].len();
    let words = len / 8;
    for w in 0..words {
        for s in &mut state {
            *s = splitmix64(*s);
        }
        for (out, s) in outs.iter_mut().zip(state) {
            out[8 * w..8 * w + 8].copy_from_slice(&s.to_le_bytes());
        }
    }
    let tail = len - 8 * words;
    if tail != 0 {
        for (out, s) in outs.iter_mut().zip(state) {
            out[8 * words..].copy_from_slice(&splitmix64(s).to_le_bytes()[..tail]);
        }
    }
}

/// The seeding kernel: stream `i`, starting from state `seeds[i]`, fills
/// `out[i * len..(i + 1) * len]`. Four streams at a time, the remainder
/// one at a time.
fn fill_streams(seeds: &[u64], len: usize, out: &mut [u8]) {
    debug_assert_eq!(out.len(), seeds.len() * len);
    if len == 0 {
        return;
    }
    let mut outs = out.chunks_exact_mut(len);
    let mut groups = seeds.chunks_exact(LANES);
    for group in &mut groups {
        let lanes = std::array::from_fn(|_| outs.next().expect("one chunk per seed"));
        fill_lanes::<LANES>(group.try_into().expect("LANES seeds"), lanes);
    }
    for (&seed, out) in groups.remainder().iter().zip(outs) {
        fill_lanes([seed], [out]);
    }
}

/// `len` pattern bytes for pair `(src, dst)`: the splitmix64 stream seeded
/// by `splitmix64((src << 32) | dst)`.
///
/// Returned as [`Bytes`] so the buffer seeded here is the *same*
/// refcounted storage every fault-free hop shares — the zero-copy send
/// path ([`encode_gathered`](crate::message::encode_gathered)) clones
/// handles to it rather than copying it.
pub fn pattern_payload(src: NodeId, dst: NodeId, len: usize) -> Bytes {
    PayloadSpec::Pattern.payload(src, dst, len)
}

/// [`pattern_payload`] re-keyed by a caller-chosen `seed`: the stream for
/// pair `(src, dst)` under job seed `seed`. Two jobs with different seeds
/// exchange fully distinct byte streams for every pair, which is how a
/// multi-job service proves that concurrent runs (and cached-plan reuse)
/// never alias each other's buffers.
pub fn seeded_payload(seed: u64, src: NodeId, dst: NodeId, len: usize) -> Bytes {
    PayloadSpec::Seeded { seed }.payload(src, dst, len)
}

/// What bytes a job's blocks carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadSpec {
    /// The standard per-pair pattern ([`pattern_payload`]): every
    /// `(src, dst)` pair is a distinct deterministic stream, shared by all
    /// jobs.
    Pattern,
    /// [`seeded_payload`] re-keyed by `seed`: jobs with different seeds
    /// exchange fully distinct byte streams, which makes cross-job buffer
    /// aliasing detectable bit-exactly.
    Seeded {
        /// The job's payload seed.
        seed: u64,
    },
}

impl PayloadSpec {
    /// The initial chain state of pair `(src, dst)`'s stream.
    fn stream_seed(&self, src: NodeId, dst: NodeId) -> u64 {
        match self {
            PayloadSpec::Pattern => pattern_seed(src, dst),
            PayloadSpec::Seeded { seed } => splitmix64(seed ^ pattern_seed(src, dst)),
        }
    }

    /// The payload bytes for pair `(src, dst)` under this spec: the
    /// kernel's one-stream case.
    pub fn payload(&self, src: NodeId, dst: NodeId, len: usize) -> Bytes {
        let mut out = vec![0u8; len];
        fill_lanes([self.stream_seed(src, dst)], [&mut out[..]]);
        Bytes::from(out)
    }

    /// The payload bytes for a collective's data identity `id` (a
    /// contributing node or a block key — see
    /// [`CollectivePlan::seed_id`](crate::CollectivePlan::seed_id)): the
    /// diagonal `(id, id)` stream of [`payload`](Self::payload), so
    /// collective and all-to-all jobs draw from the same deterministic
    /// generators.
    pub fn key_payload(&self, id: u32, len: usize) -> Bytes {
        self.payload(id, id, len)
    }

    /// Writes the `len`-byte stream of each `(src, dst)` in `pairs` back
    /// to back into `out`, resized to `pairs.len() * len`: stream `i` is
    /// `out[i * len..(i + 1) * len]` and equals
    /// [`payload`](Self::payload)`(src, dst, len)`. This is the seeding
    /// kernel, four streams at a time; reusing `out` across calls means
    /// a warm buffer is never re-zeroed or reallocated.
    pub fn fill(&self, pairs: &[(NodeId, NodeId)], len: usize, out: &mut Vec<u8>) {
        let seeds: Vec<u64> = pairs.iter().map(|&(s, d)| self.stream_seed(s, d)).collect();
        out.resize(pairs.len() * len, 0);
        fill_streams(&seeds, len, out);
    }

    /// `len` payload bytes for each of `pairs`, all slices of one buffer:
    /// [`fill`](Self::fill) writes every stream into `scratch`, then one
    /// copy freezes it.
    pub(crate) fn payloads(
        &self,
        pairs: &[(NodeId, NodeId)],
        len: usize,
        scratch: &mut Vec<u8>,
    ) -> Vec<Bytes> {
        self.fill(pairs, len, scratch);
        let buf = Bytes::copy_from_slice(scratch);
        (0..pairs.len())
            .map(|i| buf.slice(i * len..(i + 1) * len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream definition written out plainly, one byte source at a
    /// time — the oracle the kernel is held to.
    fn oracle(mut state: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            state = splitmix64(state);
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&state.to_le_bytes()[..take]);
        }
        out
    }

    /// FNV-1a over the bytes: a compact pin for a whole stream.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    const GOLDEN_LENS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 1024];

    /// Journals and clients' `expected_checksum` hash these bytes, so the
    /// streams are pinned to digests recorded before the seeding kernel
    /// replaced the byte-at-a-time loop.
    #[test]
    fn payload_bytes_match_golden_digests() {
        let pattern: Vec<u64> = GOLDEN_LENS
            .iter()
            .map(|&len| fnv1a(&pattern_payload(3, 7, len)))
            .collect();
        let seeded: Vec<u64> = GOLDEN_LENS
            .iter()
            .map(|&len| fnv1a(&seeded_payload(0xfeed, 5, 2, len)))
            .collect();
        assert_eq!(pattern, GOLDEN_PATTERN);
        assert_eq!(seeded, GOLDEN_SEEDED);
    }

    /// `fnv1a(pattern_payload(3, 7, len))` for each of `GOLDEN_LENS`.
    const GOLDEN_PATTERN: [u64; 9] = [
        0xcbf29ce484222325,
        0xaf63a14c8601884b,
        0x3e1cfa82dc8fd0e0,
        0x1b0e425cc85f6ee2,
        0x58a8d4a87a2806e3,
        0x3263443c3e44cf0d,
        0xe37bfb5dceebcc4b,
        0x7778fe669aad1d3a,
        0x5d5041fdcec09d6a,
    ];
    /// `fnv1a(seeded_payload(0xfeed, 5, 2, len))` for each of
    /// `GOLDEN_LENS`.
    const GOLDEN_SEEDED: [u64; 9] = [
        0xcbf29ce484222325,
        0xaf648e4c86031b02,
        0x1aa1994eecb5c697,
        0xf65e101c38e064fd,
        0x8239b0f4a54a75a3,
        0x001ae4eec1ba0433,
        0xe7b705b32f14d2cc,
        0xd0d1757900622672,
        0xb596960ba3f5a51b,
    ];

    #[test]
    fn kernel_matches_the_one_stream_oracle() {
        // k = 1..=9 covers zero, one and two full groups of four plus
        // every remainder lane count.
        for k in 1..=9u32 {
            for len in [0, 1, 7, 8, 9, 24, 65] {
                for spec in [PayloadSpec::Pattern, PayloadSpec::Seeded { seed: 77 }] {
                    let pairs: Vec<(NodeId, NodeId)> = (0..k).map(|i| (k, i)).collect();
                    let mut scratch = Vec::new();
                    let got = spec.payloads(&pairs, len, &mut scratch);
                    assert_eq!(got.len(), pairs.len());
                    for (&(s, d), bytes) in pairs.iter().zip(&got) {
                        let want = oracle(spec.stream_seed(s, d), len);
                        assert_eq!(bytes[..], want[..], "k={k} len={len} pair=({s},{d})");
                        assert_eq!(*bytes, spec.payload(s, d, len));
                    }
                }
            }
        }
    }

    #[test]
    fn warm_scratch_of_another_size_is_fully_overwritten() {
        let mut scratch = vec![0xAA; 4096];
        let pairs = [(1, 2), (1, 3), (1, 4)];
        let got = PayloadSpec::Pattern.payloads(&pairs, 9, &mut scratch);
        for (&(s, d), bytes) in pairs.iter().zip(&got) {
            assert_eq!(*bytes, pattern_payload(s, d, 9));
        }
    }

    #[test]
    fn deterministic_and_pair_distinct() {
        assert_eq!(pattern_payload(3, 7, 64), pattern_payload(3, 7, 64));
        assert_ne!(pattern_payload(3, 7, 64), pattern_payload(7, 3, 64));
        assert_ne!(pattern_payload(0, 1, 64), pattern_payload(0, 2, 64));
        assert_ne!(pattern_seed(1, 0), pattern_seed(0, 1));
    }

    #[test]
    fn lengths_are_exact() {
        for len in [0, 1, 7, 8, 9, 64, 1000] {
            assert_eq!(pattern_payload(5, 6, len).len(), len);
        }
    }

    #[test]
    fn seeded_payloads_are_distinct_per_seed() {
        assert_eq!(seeded_payload(1, 3, 7, 64), seeded_payload(1, 3, 7, 64));
        assert_ne!(seeded_payload(1, 3, 7, 64), seeded_payload(2, 3, 7, 64));
        assert_ne!(seeded_payload(9, 0, 1, 64), seeded_payload(9, 0, 2, 64));
        assert_eq!(seeded_payload(5, 2, 9, 33).len(), 33);
    }

    #[test]
    fn payload_specs_differ_and_are_deterministic() {
        let a = PayloadSpec::Pattern.payload(1, 2, 32);
        let b = PayloadSpec::Seeded { seed: 7 }.payload(1, 2, 32);
        let c = PayloadSpec::Seeded { seed: 8 }.payload(1, 2, 32);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(b, PayloadSpec::Seeded { seed: 7 }.payload(1, 2, 32));
        assert_eq!(a, pattern_payload(1, 2, 32));
        assert_eq!(b, seeded_payload(7, 1, 2, 32));
        assert_eq!(
            PayloadSpec::Pattern.key_payload(4, 16),
            pattern_payload(4, 4, 16)
        );
    }

    #[test]
    fn prefix_stability() {
        // Shorter patterns are prefixes of longer ones (stream-derived).
        let long = pattern_payload(2, 9, 100);
        let short = pattern_payload(2, 9, 10);
        assert_eq!(&long[..10], &short[..]);
    }
}
