//! Wire format for combined messages: framing, sequencing, integrity.
//!
//! The paper's message combining means that everything a node forwards in
//! one step travels as **one** message. A frame has one canonical byte
//! layout (below), but two in-memory representations, both carried by
//! [`WireFrame`]:
//!
//! * **contiguous** — the canonical layout materialized into a single
//!   [`Bytes`] buffer ([`encode_message`]). Fault injection (corrupt /
//!   truncate) and the recovery layer's retained resend copies operate on
//!   this form, because mutating "the frame's bytes" only makes sense
//!   when the frame *is* bytes;
//! * **gathered** — scatter-gather: all framing (message header plus the
//!   block headers, back to back) in one small reused [`BytesMut`], and
//!   the blocks' payloads as shared [`Bytes`] segments
//!   ([`encode_gathered`]). Combining then costs a header write per
//!   block, never a payload copy — the payload bytes seeded at the start
//!   of a run travel every hop by reference count.
//!
//! The two forms are interchangeable: a gathered frame's CRC is computed
//! over the canonical layout (streamed across the segments without
//! concatenating), so [`WireFrame::to_bytes`] materializes a frame that
//! [`decode_message`] round-trips exactly. Decoding is zero-copy in both
//! directions: contiguous frames are split into [`Bytes::slice`] views,
//! gathered frames hand their payload segments straight to the receiver
//! ([`decode_gathered`]).
//!
//! Since the fault-tolerance layer (see [`crate::fault`]) the frame header
//! also carries a **sequence number** (the global step the frame belongs
//! to, so receivers can discard stale or duplicated frames) and a
//! **CRC32** over the rest of the frame (so corruption in flight is
//! *detected* rather than silently delivered — detection is what turns a
//! corrupted wire into a recoverable retry).
//!
//! Every frame is checksummed on encode and fully re-verified on decode,
//! so the checksum walks every wire byte twice per hop and has to run at
//! memory speed to stay out of the paper's cost model. The checksum unit
//! is the layout's own record: a gathered frame hands each block record
//! (its header from the framing buffer, its payload segment) to one
//! two-part entry, and everything else — the frame header's fields, a
//! contiguous frame, any [`crc32`] caller — is a unit with an empty
//! head. One rule per unit, by length: under 128 bytes (the frame
//! header's fields, the 84 B record of a 64 B block) the byte-at-a-time
//! table loop; from there up one wide pass over the whole unit with one
//! final reduction. The wide kernel is picked at run time by CPU
//! feature: on x86-64 with `avx512f` + `vpclmulqdq`, 4x512-bit
//! carry-less-multiply folding; with `pclmulqdq` + `sse4.1`, 4x128-bit
//! folding; otherwise slicing-by-16. The polynomial, init, final xor and
//! streaming across units are the same on every path, so the wire format
//! (and anything else stamped with [`crc32`]) does not depend on which
//! one ran.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! frame   := seq:u32 , crc:u32 , count:u32 , block*count
//! block   := src:u32 , dst:u32 , shifts:[u8; MAX_DIMS] , len:u32 , payload:[u8; len]
//! crc     := CRC32/IEEE over seq , count , block*count   (everything but the crc field)
//! ```
//!
//! Empty frames (`count = 0`) are legal — the paper explicitly allows
//! idle nodes to "send empty messages" in short-dimension scatter steps.

use alltoall_core::Block;
use bytes::{BufMut, Bytes, BytesMut};
use torus_topology::MAX_DIMS;

/// Fixed bytes of framing per message (`seq + crc + count`).
pub const MESSAGE_HEADER_BYTES: usize = 4 + 4 + 4;

/// Fixed bytes of framing per block (`src + dst + shifts + len`).
pub const BLOCK_HEADER_BYTES: usize = 4 + 4 + MAX_DIMS + 4;

/// Byte offset of the `crc` field inside a frame.
const CRC_OFFSET: usize = 4;

/// A wire-integrity failure, precise enough to drive recovery decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum WireError {
    /// The frame ends before its framing says it should.
    Truncated {
        /// Actual frame length in bytes.
        len: usize,
        /// Bytes the framing requires.
        need: usize,
    },
    /// The stored CRC32 does not match the frame contents.
    Crc {
        /// Checksum carried in the frame header.
        stored: u32,
        /// Checksum recomputed over the received bytes.
        computed: u32,
    },
    /// Bytes remain after the last framed block.
    Trailing {
        /// Number of unclaimed trailing bytes.
        extra: usize,
        /// Block count the header declared.
        count: usize,
    },
    /// A gathered frame's payload segment count does not match the block
    /// count its framing declares.
    Segments {
        /// Payload segments actually present.
        got: usize,
        /// Block count the framing declared.
        want: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { len, need } => {
                write!(f, "frame truncated: {len} bytes, need {need}")
            }
            WireError::Crc { stored, computed } => write!(
                f,
                "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Trailing { extra, count } => {
                write!(f, "frame has {extra} trailing bytes after {count} blocks")
            }
            WireError::Segments { got, want } => {
                write!(
                    f,
                    "gathered frame has {got} payload segments, framing declares {want}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC32 (IEEE 802.3, reflected) slicing tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets sixteen input bytes be folded with sixteen independent
/// lookups. A `static`, not a `const`: an unoptimized build re-copies a
/// `const` array (16 KiB here) at every indexing site.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Checksum units (a gathered frame's block records, any other segment)
/// at least this long take a wide kernel; shorter ones — every frame
/// header, and the 84 B record of a 64 B block — keep the byte loop.
/// Below ~128 B the wide kernels' set-up and final reduction eat their
/// gain: a 4x128-bit fold needs 64 B to load its lanes and 64 B more for
/// its first round.
const WIDE_MIN_BYTES: usize = 128;

/// Bytes every wide kernel takes as its own argument, ahead of the body:
/// the 4x128-bit fold's first four lanes, or one 512-bit lane. Passing
/// them separately is what lets a block record's header and the start
/// of its payload be joined on the stack and folded in one pass.
const FIRST_BYTES: usize = 64;

// A block header always fits in the first lanes with payload to spare.
const _: () = assert!(BLOCK_HEADER_BYTES < FIRST_BYTES);

/// The byte-at-a-time table loop: the routine for short units, and the
/// oracle the wide kernels are tested against.
fn crc32_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The `< 16` byte tail a wide kernel leaves. From four bytes up it is
/// one slicing step cut to the tail's length: only the first word meets
/// the state, and the other bytes' lookups do not depend on it, so the
/// unit's latency grows by one step, not one per byte.
fn crc32_tail(crc: u32, tail: &[u8]) -> u32 {
    let n = tail.len();
    if n < 4 {
        return crc32_bytewise(crc, tail);
    }
    let (word, rest) = tail.split_at(4);
    let x = crc ^ u32::from_le_bytes(word.try_into().expect("4-byte word"));
    let t = &CRC_TABLES[n - 4..n];
    let mut acc = t[3][(x & 0xFF) as usize]
        ^ t[2][((x >> 8) & 0xFF) as usize]
        ^ t[1][((x >> 16) & 0xFF) as usize]
        ^ t[0][(x >> 24) as usize];
    for (table, &b) in CRC_TABLES[..n - 4].iter().rev().zip(rest) {
        acc ^= table[b as usize];
    }
    acc
}

/// Portable wide kernel: slicing-by-16. Folds `first`, then every whole
/// 16-byte chunk of `body`, and returns the state with the `< 16` byte
/// tail of `body` left over.
fn crc32_slice16<'a>(crc: u32, first: &[u8; FIRST_BYTES], body: &'a [u8]) -> (u32, &'a [u8]) {
    fn fold(mut crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let mut chunks = data.chunks_exact(16);
        for c in &mut chunks {
            let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = CRC_TABLES[15][(head & 0xFF) as usize]
                ^ CRC_TABLES[14][((head >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[13][((head >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[12][(head >> 24) as usize]
                ^ CRC_TABLES[11][c[4] as usize]
                ^ CRC_TABLES[10][c[5] as usize]
                ^ CRC_TABLES[9][c[6] as usize]
                ^ CRC_TABLES[8][c[7] as usize]
                ^ CRC_TABLES[7][c[8] as usize]
                ^ CRC_TABLES[6][c[9] as usize]
                ^ CRC_TABLES[5][c[10] as usize]
                ^ CRC_TABLES[4][c[11] as usize]
                ^ CRC_TABLES[3][c[12] as usize]
                ^ CRC_TABLES[2][c[13] as usize]
                ^ CRC_TABLES[1][c[14] as usize]
                ^ CRC_TABLES[0][c[15] as usize];
        }
        (crc, chunks.remainder())
    }
    let (crc, _) = fold(crc, first);
    fold(crc, body)
}

/// x86-64 wide kernels: carry-less-multiply folding (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009 —
/// the construction zlib and `crc32fast` use), at 128 and 512 bits.
///
/// The bodies are safe code: lanes are built from `u64::from_le_bytes`,
/// so there are no pointer loads, and the intrinsics used take and return
/// values only. Only calling them needs the features they are compiled
/// with, which [`Kernel::fold`] checks.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::FIRST_BYTES;
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_maskz_mov_epi64, _mm512_set_epi64,
        _mm512_ternarylogic_epi64, _mm512_xor_si512, _mm512_zextsi128_si512, _mm_and_si128,
        _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_srli_si128, _mm_xor_si128,
    };

    // x^(k) mod P(x), bit-reflected, for the fold distances in use:
    // `FOLDn` moves a 128-bit lane forward by n x 128 bits.
    const FOLD16_LO: i64 = 0x1_1542_778a; // 16*128 + 32
    const FOLD16_HI: i64 = 0x1_322d_1430; // 16*128 - 32
    const FOLD12_LO: i64 = 0x1_821d_8bc0; // 12*128 + 32
    const FOLD12_HI: i64 = 0x1_2e95_8ac4; // 12*128 - 32
    const FOLD8_LO: i64 = 0x1_e88e_f372; // 8*128 + 32
    const FOLD8_HI: i64 = 0x1_4a7f_e880; // 8*128 - 32
    const FOLD4_LO: i64 = 0x1_5444_2bd4; // 4*128 + 32
    const FOLD4_HI: i64 = 0x1_c6e4_1596; // 4*128 - 32
    const FOLD3_LO: i64 = 0x0_3db1_ecdc; // 3*128 + 32
    const FOLD3_HI: i64 = 0x1_7435_9406; // 3*128 - 32
    const FOLD2_LO: i64 = 0x0_f1da_05aa; // 2*128 + 32
    const FOLD2_HI: i64 = 0x1_5a54_6366; // 2*128 - 32
    const FOLD1_LO: i64 = 0x1_7519_97d0; // 128 + 32
    const FOLD1_HI: i64 = 0x0_ccaa_009e; // 128 - 32
    const FOLD_64: i64 = 0x1_63cd_6124; // 64
    const POLY: i64 = 0x1_DB71_0641; // P(x)
    const MU: i64 = 0x1_F701_1641; // floor(x^64 / P(x))

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(chunk: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(chunk[..8].try_into().expect("16-byte chunk"));
        let hi = u64::from_le_bytes(chunk[8..16].try_into().expect("16-byte chunk"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Folds `acc` forward over the distance `keys` encodes and adds the
    /// next lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// 4x128-bit folding. Folds `first`, then every whole 16-byte chunk
    /// of `body`, and returns the state with the `< 16` byte tail of
    /// `body` left over.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_clmul<'a>(
        crc: u32,
        first: &[u8; FIRST_BYTES],
        body: &'a [u8],
    ) -> (u32, &'a [u8]) {
        // The running state enters as the low 32 bits of the first lane.
        let mut x3 = _mm_xor_si128(lane(&first[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = lane(&first[16..32]);
        let mut x1 = lane(&first[32..48]);
        let mut x0 = lane(&first[48..]);
        let fold4 = _mm_set_epi64x(FOLD4_HI, FOLD4_LO);
        let mut blocks = body.chunks_exact(64);
        for b in &mut blocks {
            x3 = fold(x3, lane(&b[..16]), fold4);
            x2 = fold(x2, lane(&b[16..32]), fold4);
            x1 = fold(x1, lane(&b[32..48]), fold4);
            x0 = fold(x0, lane(&b[48..]), fold4);
        }
        // Four lanes into one.
        let fold1 = _mm_set_epi64x(FOLD1_HI, FOLD1_LO);
        let mut x = fold(x3, x2, fold1);
        x = fold(x, x1, fold1);
        x = fold(x, x0, fold1);
        reduce(x, blocks.remainder())
    }

    /// The tail both CLMUL kernels share: folds the whole 16-byte chunks
    /// of `rest` into the one remaining lane `x`, reduces it to the
    /// 32-bit state, and returns that with the `< 16` byte tail.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(mut x: __m128i, rest: &[u8]) -> (u32, &[u8]) {
        let fold1 = _mm_set_epi64x(FOLD1_HI, FOLD1_LO);
        let mut chunks = rest.chunks_exact(16);
        for c in &mut chunks {
            x = fold(x, lane(c), fold1);
        }
        // 128 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, fold1),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64)),
            _mm_srli_si128::<4>(x),
        );
        // 64 -> 32 bits: Barrett reduction.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (crc, chunks.remainder())
    }

    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn zlane(chunk: &[u8]) -> __m512i {
        let q = |i: usize| {
            let bytes = chunk[8 * i..8 * i + 8].try_into().expect("64-byte chunk");
            u64::from_le_bytes(bytes) as i64
        };
        _mm512_set_epi64(q(7), q(6), q(5), q(4), q(3), q(2), q(1), q(0))
    }

    /// The same fold distance for all four 128-bit lanes of a 512-bit
    /// register.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn zkeys(hi: i64, lo: i64) -> __m512i {
        _mm512_broadcast_i32x4(_mm_set_epi64x(hi, lo))
    }

    /// [`fold`] on four 128-bit lanes at once, each over its own distance
    /// in `keys`.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn zfold(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, keys);
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, keys);
        // 0x96: the three-way xor.
        _mm512_ternarylogic_epi64::<0x96>(next, lo, hi)
    }

    /// 4x512-bit folding, 256 bytes a round. Same contract as
    /// [`crc32_clmul`]; inputs too short to fill four 512-bit lanes go to
    /// it directly. Each unit's state is a serial dependency of the
    /// next, so the collapses at the end fold every lane over its own
    /// distance in parallel instead of lane after lane.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    pub(super) fn crc32_vpclmul<'a>(
        crc: u32,
        first: &[u8; FIRST_BYTES],
        body: &'a [u8],
    ) -> (u32, &'a [u8]) {
        if body.len() < 3 * FIRST_BYTES {
            return crc32_clmul(crc, first, body);
        }
        let (lead, body) = body.split_at(3 * FIRST_BYTES);
        let mut x0 = _mm512_xor_si512(
            zlane(first),
            _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32)),
        );
        let mut x1 = zlane(&lead[..64]);
        let mut x2 = zlane(&lead[64..128]);
        let mut x3 = zlane(&lead[128..]);
        let fold16 = zkeys(FOLD16_HI, FOLD16_LO);
        let mut rounds = body.chunks_exact(4 * FIRST_BYTES);
        for r in &mut rounds {
            x0 = zfold(x0, zlane(&r[..64]), fold16);
            x1 = zfold(x1, zlane(&r[64..128]), fold16);
            x2 = zfold(x2, zlane(&r[128..192]), fold16);
            x3 = zfold(x3, zlane(&r[192..]), fold16);
        }
        // Four 512-bit lanes into the last one, then any whole 64-byte
        // blocks left.
        let fold4 = zkeys(FOLD4_HI, FOLD4_LO);
        let x2 = zfold(x2, x3, fold4);
        let x1 = zfold(x1, x2, zkeys(FOLD8_HI, FOLD8_LO));
        let mut x = zfold(x0, x1, zkeys(FOLD12_HI, FOLD12_LO));
        let mut blocks = rounds.remainder().chunks_exact(64);
        for b in &mut blocks {
            x = zfold(x, zlane(b), fold4);
        }
        // Its four 128-bit lanes into the last one: 3, 2, 1 and 0 lanes
        // away (the last lane's keys are zero, and it is added as is).
        let keys = _mm512_set_epi64(
            0, 0, FOLD1_HI, FOLD1_LO, FOLD2_HI, FOLD2_LO, FOLD3_HI, FOLD3_LO,
        );
        let t = zfold(x, _mm512_maskz_mov_epi64(0xC0, x), keys);
        let y = _mm_xor_si128(
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<0>(t),
                _mm512_extracti32x4_epi32::<1>(t),
            ),
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<2>(t),
                _mm512_extracti32x4_epi32::<3>(t),
            ),
        );
        reduce(y, blocks.remainder())
    }
}

/// The wide CRC kernels, slowest first. Each folds a unit given as its
/// first 64 bytes and the rest (`body`): every whole 16-byte chunk,
/// returning the state and the `< 16` byte tail of `body`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Kernel {
    /// Slicing-by-16: safe, portable Rust; the kernel on every CPU
    /// without the two below.
    Slice16,
    /// 4x128-bit carry-less folding: x86-64 with `pclmulqdq` + `sse4.1`.
    Clmul,
    /// 4x512-bit carry-less folding: additionally `avx512f` +
    /// `vpclmulqdq`.
    Vpclmul,
}

impl Kernel {
    /// The fastest kernel the running CPU supports, detected at run time
    /// (the detection is cached by `std`).
    fn best() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("vpclmulqdq")
            {
                Kernel::Vpclmul
            } else {
                Kernel::Clmul
            };
        }
        Kernel::Slice16
    }

    /// Runs this kernel (see the enum docs). A kernel above
    /// [`Kernel::best`] is never executed: it falls back to
    /// slicing-by-16.
    fn fold<'a>(self, crc: u32, first: &[u8; FIRST_BYTES], body: &'a [u8]) -> (u32, &'a [u8]) {
        #[cfg(target_arch = "x86_64")]
        if self != Kernel::Slice16 && self <= Kernel::best() {
            // SAFETY: `best()` just detected on the running CPU every
            // target feature of the kernels up to and including itself,
            // and `self` is one of those kernels. (Length requirements
            // are checked by slice splits — panics, not UB.)
            return unsafe {
                if self == Kernel::Vpclmul {
                    clmul::crc32_vpclmul(crc, first, body)
                } else {
                    clmul::crc32_clmul(crc, first, body)
                }
            };
        }
        crc32_slice16(crc, first, body)
    }
}

/// Folds a unit given in two parts — `head` (at most 64 bytes) directly
/// followed by `body` — into a running CRC32 state (start from `!0`,
/// finish by inverting). A gathered frame's block record is such a unit:
/// its header in the framing buffer, its payload in a shared segment.
///
/// One rule for the whole unit: under [`WIDE_MIN_BYTES`] both parts take
/// the byte loop, inlined into the caller so a constant-length header
/// unrolls; from there up [`crc32_wide`]. Every path computes the same
/// function of the same bytes.
#[inline]
fn crc32_record(crc: u32, head: &[u8], body: &[u8]) -> u32 {
    if head.len() + body.len() < WIDE_MIN_BYTES {
        return crc32_bytewise(crc32_bytewise(crc, head), body);
    }
    crc32_wide(crc, head, body)
}

/// [`crc32_record`] from [`WIDE_MIN_BYTES`] up: `head` and the start of
/// `body` are joined into the first 64-byte lane on the stack, and the
/// fastest kernel folds the unit in one pass, with one final reduction
/// and a `< 16` byte tail.
fn crc32_wide(crc: u32, head: &[u8], body: &[u8]) -> u32 {
    let (lead, body) = body.split_at(FIRST_BYTES - head.len());
    let mut first = [0u8; FIRST_BYTES];
    first[..head.len()].copy_from_slice(head);
    first[head.len()..].copy_from_slice(lead);
    let (crc, tail) = Kernel::best().fold(crc, &first, body);
    crc32_tail(crc, tail)
}

/// Folds `data` into a running CRC32 state: [`crc32_record`] with an
/// empty head, so multi-slice frames can be checksummed without
/// concatenating.
#[inline]
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    crc32_record(crc, &[], data)
}

/// CRC32/IEEE of `data` (the classic zlib `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// CRC a frame carries: over the `seq` field and everything after the
/// `crc` field.
fn frame_crc(seq: u32, tail: &[u8]) -> u32 {
    let crc = crc32_update(!0, &seq.to_le_bytes());
    !crc32_update(crc, tail)
}

/// Assembles one combined wire frame, materialized into the canonical
/// contiguous layout. `seq` is the global step number; block order is
/// preserved.
///
/// The frame is written once with a CRC placeholder, checksummed in a
/// single sequential pass over the assembled buffer, and patched — each
/// payload byte is touched exactly once per concern (one copy, one CRC
/// read of the contiguous buffer) instead of the old scattered
/// pre-assembly CRC walk followed by the copy pass.
pub fn encode_message(seq: u32, blocks: &[Block<Bytes>]) -> Bytes {
    let payload_total: usize = blocks.iter().map(|b| b.payload.len()).sum();
    let mut buf = BytesMut::with_capacity(
        MESSAGE_HEADER_BYTES + blocks.len() * BLOCK_HEADER_BYTES + payload_total,
    );
    buf.put_u32_le(seq);
    buf.put_u32_le(0); // CRC placeholder, patched below.
    buf.put_u32_le(blocks.len() as u32);
    for b in blocks {
        buf.put_u32_le(b.src);
        buf.put_u32_le(b.dst);
        buf.put_slice(&b.shifts);
        buf.put_u32_le(b.payload.len() as u32);
        buf.put_slice(&b.payload);
    }
    let crc = frame_crc(seq, &buf[MESSAGE_HEADER_BYTES - 4..]);
    buf[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    buf.freeze()
}

/// A frame as handed to the transport: one canonical byte layout, two
/// in-memory shapes (see the module docs for when each is used).
#[derive(Clone, Debug)]
pub enum WireFrame {
    /// The canonical layout in a single buffer.
    Contiguous(Bytes),
    /// Scatter-gather: all framing packed into one small buffer, payloads
    /// shared.
    Gathered {
        /// `seq, crc, count` plus `count` block headers, back to back.
        framing: BytesMut,
        /// One shared payload segment per block, in header order.
        payloads: Vec<Bytes>,
    },
}

impl WireFrame {
    /// Bytes this frame occupies on the wire (identical for both shapes
    /// of the same logical frame).
    pub fn wire_len(&self) -> usize {
        match self {
            WireFrame::Contiguous(b) => b.len(),
            WireFrame::Gathered { framing, payloads } => {
                framing.len() + payloads.iter().map(Bytes::len).sum::<usize>()
            }
        }
    }

    /// Materializes the canonical contiguous layout. For gathered frames
    /// this is the one place payload bytes are copied — the fault layer
    /// and recovery path call it to get mutable, well-defined frame
    /// bytes; the fault-free hot path never does.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            WireFrame::Contiguous(b) => b.clone(),
            WireFrame::Gathered { framing, payloads } => {
                let mut buf = BytesMut::with_capacity(self.wire_len());
                buf.put_slice(&framing[..MESSAGE_HEADER_BYTES]);
                let mut off = MESSAGE_HEADER_BYTES;
                for p in payloads {
                    buf.put_slice(&framing[off..off + BLOCK_HEADER_BYTES]);
                    buf.put_slice(p);
                    off += BLOCK_HEADER_BYTES;
                }
                buf.freeze()
            }
        }
    }

    /// Decodes either shape into `(seq, blocks)`.
    #[allow(clippy::missing_errors_doc)]
    pub fn decode(&self) -> Result<(u32, Vec<Block<Bytes>>), WireError> {
        match self {
            WireFrame::Contiguous(b) => decode_message(b),
            WireFrame::Gathered { framing, payloads } => {
                let mut segments = payloads.clone();
                let mut blocks = Vec::new();
                let seq = decode_gathered(framing, &mut segments, &mut blocks)?;
                Ok((seq, blocks))
            }
        }
    }
}

/// CRC of the canonical layout, streamed across the framing buffer and
/// the payload segments without materializing the frame. The checksum
/// unit is the layout's own block record: each header in `framing` and
/// its payload segment go through [`crc32_record`] together, so a bulk
/// record is one wide pass with one reduction and a small one stays on
/// the byte loop. `framing` must hold exactly `payloads.len()` block
/// headers.
fn gathered_crc(framing: &[u8], payloads: &[Bytes]) -> u32 {
    let mut crc = crc32_update(!0, &framing[..CRC_OFFSET]);
    crc = crc32_update(crc, &framing[CRC_OFFSET + 4..MESSAGE_HEADER_BYTES]);
    let mut off = MESSAGE_HEADER_BYTES;
    for p in payloads {
        crc = crc32_record(crc, &framing[off..off + BLOCK_HEADER_BYTES], p);
        off += BLOCK_HEADER_BYTES;
    }
    !crc
}

/// Assembles one combined wire frame in scatter-gather form: headers are
/// written into `framing` (recycled: cleared and reused), payloads are
/// shared by cloning each block's [`Bytes`] handle into `payloads`. No
/// payload byte is copied; the CRC (identical to the one
/// [`encode_message`] would stamp) is streamed across the segments.
pub fn encode_gathered(
    seq: u32,
    blocks: &[Block<Bytes>],
    mut framing: BytesMut,
    mut payloads: Vec<Bytes>,
) -> WireFrame {
    framing.clear();
    payloads.clear();
    framing.reserve(MESSAGE_HEADER_BYTES + blocks.len() * BLOCK_HEADER_BYTES);
    payloads.reserve(blocks.len());
    framing.put_u32_le(seq);
    framing.put_u32_le(0); // CRC placeholder, patched below.
    framing.put_u32_le(blocks.len() as u32);
    for b in blocks {
        framing.put_u32_le(b.src);
        framing.put_u32_le(b.dst);
        framing.put_slice(&b.shifts);
        framing.put_u32_le(b.payload.len() as u32);
        payloads.push(b.payload.clone());
    }
    let crc = gathered_crc(&framing, &payloads);
    framing[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    WireFrame::Gathered { framing, payloads }
}

/// Reads a `u32` from a slice already known to be long enough.
fn read_u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("length checked"))
}

/// Validates and splits a gathered frame: framing structure first, then
/// segment count and per-segment lengths, then the CRC over the
/// canonical layout — only a fully validated frame appends anything.
/// On success the segments are drained into `out` as blocks (zero-copy)
/// and the (now empty) `payloads` vec is left for recycling; returns the
/// frame's sequence number.
///
/// Errors mirror [`decode_message`]: `len`/`need` in [`WireError::Truncated`]
/// are total wire lengths, so a truncated gathered frame reports the same
/// coordinates its contiguous materialization would.
#[allow(clippy::missing_errors_doc)]
pub fn decode_gathered(
    framing: &[u8],
    payloads: &mut Vec<Bytes>,
    out: &mut Vec<Block<Bytes>>,
) -> Result<u32, WireError> {
    let segment_total: usize = payloads.iter().map(Bytes::len).sum();
    let wire_len = framing.len() + segment_total;
    if framing.len() < MESSAGE_HEADER_BYTES {
        return Err(WireError::Truncated {
            len: wire_len,
            need: MESSAGE_HEADER_BYTES,
        });
    }
    let seq = read_u32_at(framing, 0);
    let stored = read_u32_at(framing, CRC_OFFSET);
    let count = read_u32_at(framing, CRC_OFFSET + 4) as usize;
    let Some(framing_need) = count
        .checked_mul(BLOCK_HEADER_BYTES)
        .and_then(|n| n.checked_add(MESSAGE_HEADER_BYTES))
    else {
        return Err(WireError::Truncated {
            len: wire_len,
            need: usize::MAX,
        });
    };
    if framing.len() < framing_need {
        return Err(WireError::Truncated {
            len: wire_len,
            need: framing_need + segment_total,
        });
    }
    if framing.len() > framing_need {
        return Err(WireError::Trailing {
            extra: framing.len() - framing_need,
            count,
        });
    }
    if payloads.len() != count {
        return Err(WireError::Segments {
            got: payloads.len(),
            want: count,
        });
    }
    let mut declared_total = 0usize;
    let mut mismatch = false;
    for (i, p) in payloads.iter().enumerate() {
        let declared = read_u32_at(
            framing,
            MESSAGE_HEADER_BYTES + i * BLOCK_HEADER_BYTES + 8 + MAX_DIMS,
        ) as usize;
        declared_total += declared;
        mismatch |= declared != p.len();
    }
    if mismatch {
        return Err(WireError::Truncated {
            len: wire_len,
            need: framing.len() + declared_total,
        });
    }
    let computed = gathered_crc(framing, payloads);
    if stored != computed {
        return Err(WireError::Crc { stored, computed });
    }
    out.reserve(payloads.len());
    let mut off = MESSAGE_HEADER_BYTES;
    for p in payloads.drain(..) {
        let src = read_u32_at(framing, off);
        let dst = read_u32_at(framing, off + 4);
        let shifts: [u8; MAX_DIMS] = framing[off + 8..off + 8 + MAX_DIMS]
            .try_into()
            .expect("length checked");
        let mut b = Block::with_payload(src, dst, p);
        b.shifts = shifts;
        out.push(b);
        off += BLOCK_HEADER_BYTES;
    }
    Ok(seq)
}

fn read_u32(msg: &Bytes, off: usize) -> Result<u32, WireError> {
    let end = off + 4;
    let raw: [u8; 4] =
        msg.get(off..end)
            .and_then(|s| s.try_into().ok())
            .ok_or(WireError::Truncated {
                len: msg.len(),
                need: end,
            })?;
    Ok(u32::from_le_bytes(raw))
}

/// Splits a combined wire frame back into `(seq, blocks)`. Payloads are
/// zero-copy slices of `msg`. Rejects truncated frames, CRC mismatches,
/// and over-long framing — every corruption mode the fault layer can
/// inject is *detected* here, never silently delivered.
pub fn decode_message(msg: &Bytes) -> Result<(u32, Vec<Block<Bytes>>), WireError> {
    let seq = read_u32(msg, 0)?;
    let stored = read_u32(msg, CRC_OFFSET)?;
    let count = read_u32(msg, CRC_OFFSET + 4)? as usize;
    let computed = frame_crc(seq, &msg[CRC_OFFSET + 4..]);
    if stored != computed {
        return Err(WireError::Crc { stored, computed });
    }
    let mut off = MESSAGE_HEADER_BYTES;
    let mut blocks = Vec::with_capacity(count);
    for _ in 0..count {
        let src = read_u32(msg, off)?;
        let dst = read_u32(msg, off + 4)?;
        let shifts_end = off + 8 + MAX_DIMS;
        let shifts: [u8; MAX_DIMS] = msg
            .get(off + 8..shifts_end)
            .and_then(|s| s.try_into().ok())
            .ok_or(WireError::Truncated {
                len: msg.len(),
                need: shifts_end,
            })?;
        let len = read_u32(msg, shifts_end)? as usize;
        let start = shifts_end + 4;
        let end = start + len;
        if end > msg.len() {
            return Err(WireError::Truncated {
                len: msg.len(),
                need: end,
            });
        }
        let mut b = Block::with_payload(src, dst, msg.slice(start..end));
        b.shifts = shifts;
        blocks.push(b);
        off = end;
    }
    if off != msg.len() {
        return Err(WireError::Trailing {
            extra: msg.len() - off,
            count,
        });
    }
    Ok((seq, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::pattern_payload;

    fn sample_blocks() -> Vec<Block<Bytes>> {
        let mut blocks = Vec::new();
        for (s, d, len) in [(0u32, 5u32, 16usize), (0, 9, 0), (0, 2, 33)] {
            let mut b = Block::with_payload(s, d, pattern_payload(s, d, len));
            b.shifts[0] = (d % 3) as u8;
            b.shifts[1] = 1;
            blocks.push(b);
        }
        blocks
    }

    #[test]
    fn roundtrip_preserves_blocks_and_seq() {
        let blocks = sample_blocks();
        let msg = encode_message(7, &blocks);
        let expected_len = MESSAGE_HEADER_BYTES
            + blocks.len() * BLOCK_HEADER_BYTES
            + blocks.iter().map(|b| b.payload.len()).sum::<usize>();
        assert_eq!(msg.len(), expected_len);
        let (seq, back) = decode_message(&msg).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, blocks);
    }

    #[test]
    fn empty_message_roundtrips() {
        let msg = encode_message(0, &[]);
        assert_eq!(msg.len(), MESSAGE_HEADER_BYTES);
        let (seq, blocks) = decode_message(&msg).unwrap();
        assert_eq!(seq, 0);
        assert!(blocks.is_empty());
    }

    #[test]
    fn decoded_payloads_are_zero_copy() {
        let blocks = sample_blocks();
        let msg = encode_message(3, &blocks);
        let (_, back) = decode_message(&msg).unwrap();
        // A Bytes slice of `msg` shares its allocation: the slice's
        // pointer lies inside the message buffer.
        let msg_range = msg.as_ptr() as usize..msg.as_ptr() as usize + msg.len();
        for b in &back {
            if !b.payload.is_empty() {
                assert!(msg_range.contains(&(b.payload.as_ptr() as usize)));
            }
        }
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let msg = encode_message(1, &sample_blocks());
        for cut in [0, 2, MESSAGE_HEADER_BYTES + 3, msg.len() - 1] {
            let short = msg.slice(..cut);
            assert!(
                matches!(
                    decode_message(&short),
                    Err(WireError::Truncated { .. } | WireError::Crc { .. })
                ),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let msg = encode_message(5, &sample_blocks());
        for i in 0..msg.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = msg.to_vec();
                bad[i] ^= flip;
                let bad = Bytes::from(bad);
                assert!(
                    decode_message(&bad).is_err(),
                    "corrupting byte {i} with {flip:#x} must be detected"
                );
            }
        }
    }

    #[test]
    fn crc_mismatch_names_both_checksums() {
        let msg = encode_message(2, &sample_blocks());
        let mut bad = msg.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        match decode_message(&Bytes::from(bad)) {
            Err(WireError::Crc { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected Crc error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Extend the frame and re-stamp a valid CRC so the trailing check
        // itself (not the CRC) is what fires.
        let msg = encode_message(4, &sample_blocks());
        let mut long = msg.to_vec();
        long.push(0xAB);
        let crc = {
            let tail = &long[CRC_OFFSET + 4..];
            frame_crc(4, tail)
        };
        long[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        let err = decode_message(&Bytes::from(long)).unwrap_err();
        assert!(matches!(err, WireError::Trailing { extra: 1, .. }), "{err}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic zlib check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Seeded filler for the kernel parity tests (xorshift64*).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// Every kernel this CPU can run, slowest first.
    fn host_kernels() -> Vec<Kernel> {
        [Kernel::Slice16, Kernel::Clmul, Kernel::Vpclmul]
            .into_iter()
            .filter(|&k| k <= Kernel::best())
            .collect()
    }

    #[test]
    fn wide_kernels_match_the_bytewise_oracle() {
        // Every length through several 256-byte rounds of the widest
        // kernel, so 15/16/63/64/127/128/129/255/256/257 and every residue
        // mod 16, 64 and 256 are hit, from three initial states. Each
        // kernel the host supports is called directly, not only the one
        // `crc32_update` dispatches to.
        let buf = noise(0x70_7275, 4200);
        let kernels = host_kernels();
        for init in [!0u32, 0, 0xdead_beef] {
            let mut want = init;
            for len in 0..=buf.len() {
                let data = &buf[..len];
                if len >= FIRST_BYTES {
                    let (first, body) = data.split_at(FIRST_BYTES);
                    let first = first.try_into().unwrap();
                    for &k in &kernels {
                        let (crc, tail) = k.fold(init, first, body);
                        assert!(tail.len() < 16);
                        assert_eq!(crc32_bytewise(crc, tail), want, "{k:?}, {len} bytes");
                    }
                }
                assert_eq!(crc32_update(init, data), want, "update, {len} bytes");
                // The oracle, extended one byte at a time.
                want = crc32_bytewise(want, &buf[len..buf.len().min(len + 1)]);
            }
        }
    }

    #[test]
    fn two_part_records_match_the_bytewise_oracle() {
        // `gathered_crc` hands each (header, payload) pair over as one
        // unit; a head of any length up to the first lane must give the
        // state the byte loop reaches over the concatenation, on both
        // sides of `WIDE_MIN_BYTES`.
        let head_buf = noise(0x68_6561, FIRST_BYTES);
        let body = noise(0x62_6f64, 1300);
        for init in [!0u32, 0, 0xdead_beef] {
            for head_len in [0, 4, 20, 24, 44, 63, 64] {
                let head = &head_buf[..head_len];
                let mut want = crc32_bytewise(init, head);
                for len in 0..=body.len() {
                    assert_eq!(
                        crc32_record(init, head, &body[..len]),
                        want,
                        "head {head_len} + body {len} bytes"
                    );
                    want = crc32_bytewise(want, &body[len..body.len().min(len + 1)]);
                }
            }
        }
    }

    #[test]
    fn streaming_across_a_split_equals_one_pass() {
        // `gathered_crc` relies on this: the state carries across
        // units whichever kernel each unit takes.
        let buf = noise(0x73_706c, 300);
        for init in [!0u32, 0, 0xdead_beef] {
            let whole = crc32_update(init, &buf);
            assert_eq!(whole, crc32_bytewise(init, &buf));
            for cut in 0..=buf.len() {
                let (a, b) = buf.split_at(cut);
                assert_eq!(
                    crc32_update(crc32_update(init, a), b),
                    whole,
                    "split at {cut}"
                );
            }
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn golden_frame_still_decodes_and_reencodes_identically() {
        // Encoded by the byte-at-a-time CRC before the wide kernels
        // existed: seq 7, three blocks from node 3 with payloads of 5, 0
        // and 150 bytes. The wire format must not move by one bit.
        const GOLDEN: &str = "07000000d5609fa40300000003000000050000000201000000000000\
            05000000f7d6f6c3da030000000900000000010000000000000000000003000000020000\
            00020100000000000096000000317980cc8f35ceec71f620a4ce9ec45d2e855f1b107fda\
            d7a8729d45d39a27fe33dba6f6cd74fe99c3ba3882bba723d0de250e73a7fbbe8c446039\
            3b4dc5e85cd16cb0d764e9457d7f7624c01ed2db41de2eeb1d0e96383d6672b73f85a3bc\
            d26c18d8a79896444677847e4900bcf45f92d9ecba72d02811726487df2cc5e3fe1d722b\
            475b0e30093d36791bfb8ce316d2e0c1f46218";
        let golden = Bytes::from(unhex(GOLDEN));
        let (seq, blocks) = decode_message(&golden).expect("golden frame must verify");
        assert_eq!(seq, 7);
        let lens: Vec<usize> = blocks.iter().map(|b| b.payload.len()).collect();
        assert_eq!(lens, [5, 0, 150]);
        for b in &blocks {
            assert_eq!(b.src, 3);
            assert_eq!(b.payload, pattern_payload(b.src, b.dst, b.payload.len()));
        }
        assert_eq!(encode_message(seq, &blocks), golden);
        // The gathered form checksums per record, and the 150 B block's
        // record takes the wide path: same stamp, and it verifies.
        let gathered = gather(seq, &blocks);
        assert_eq!(gathered.to_bytes(), golden);
        assert_eq!(
            gathered.decode().expect("gathered golden verifies").1,
            blocks
        );
    }

    fn gather(seq: u32, blocks: &[Block<Bytes>]) -> WireFrame {
        encode_gathered(seq, blocks, BytesMut::new(), Vec::new())
    }

    #[test]
    fn gathered_materializes_to_identical_canonical_bytes() {
        let blocks = sample_blocks();
        let contiguous = encode_message(9, &blocks);
        let gathered = gather(9, &blocks);
        assert_eq!(gathered.wire_len(), contiguous.len());
        assert_eq!(gathered.to_bytes(), contiguous);
        // And the materialization decodes through the contiguous path.
        let (seq, back) = decode_message(&gathered.to_bytes()).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(back, blocks);
    }

    #[test]
    fn gathered_shares_payloads_without_copying() {
        let blocks = sample_blocks();
        let WireFrame::Gathered { framing, payloads } = gather(1, &blocks) else {
            panic!("encode_gathered must produce a gathered frame");
        };
        assert_eq!(
            framing.len(),
            MESSAGE_HEADER_BYTES + blocks.len() * BLOCK_HEADER_BYTES
        );
        for (p, b) in payloads.iter().zip(&blocks) {
            // Same allocation, not a copy.
            assert_eq!(p.as_ptr(), b.payload.as_ptr());
            assert_eq!(p.len(), b.payload.len());
        }
    }

    #[test]
    fn decode_gathered_round_trips_and_recycles_the_vec() {
        let blocks = sample_blocks();
        let WireFrame::Gathered {
            framing,
            mut payloads,
        } = gather(6, &blocks)
        else {
            panic!("expected gathered");
        };
        let mut out = Vec::new();
        let seq = decode_gathered(&framing, &mut payloads, &mut out).unwrap();
        assert_eq!(seq, 6);
        assert_eq!(out, blocks);
        assert!(payloads.is_empty(), "segments are drained for recycling");
    }

    #[test]
    fn gathered_buffers_are_recycled_across_encodes() {
        let blocks = sample_blocks();
        let WireFrame::Gathered { framing, payloads } = gather(1, &blocks) else {
            panic!("expected gathered");
        };
        let cap_before = framing.capacity();
        // Re-encoding into the recycled buffers must not grow them.
        let WireFrame::Gathered { framing, .. } = encode_gathered(2, &blocks, framing, payloads)
        else {
            panic!("expected gathered");
        };
        assert_eq!(framing.capacity(), cap_before);
    }

    #[test]
    fn gathered_structural_damage_is_rejected_not_panicking() {
        let blocks = sample_blocks();
        let frame = gather(3, &blocks);
        let WireFrame::Gathered { framing, payloads } = frame else {
            panic!("expected gathered");
        };

        // Truncated framing at every cut point.
        for cut in 0..framing.len() {
            let mut segs = payloads.clone();
            let mut out = Vec::new();
            let r = decode_gathered(&framing[..cut], &mut segs, &mut out);
            assert!(r.is_err(), "framing cut at {cut} must fail");
            assert!(out.is_empty(), "nothing may be delivered on error");
        }

        // A dropped payload segment.
        let mut segs = payloads.clone();
        segs.pop();
        let mut out = Vec::new();
        assert_eq!(
            decode_gathered(&framing, &mut segs, &mut out),
            Err(WireError::Segments {
                got: payloads.len() - 1,
                want: payloads.len(),
            })
        );

        // A shrunken segment (declared length no longer matches).
        let mut segs = payloads.clone();
        let full = segs[0].clone();
        segs[0] = full.slice(..full.len() - 1);
        let mut out = Vec::new();
        assert!(matches!(
            decode_gathered(&framing, &mut segs, &mut out),
            Err(WireError::Truncated { .. })
        ));

        // A corrupted payload byte trips the CRC.
        let mut segs = payloads.clone();
        let mut bad = segs[0].to_vec();
        bad[0] ^= 0x01;
        segs[0] = Bytes::from(bad);
        let mut out = Vec::new();
        assert!(matches!(
            decode_gathered(&framing, &mut segs, &mut out),
            Err(WireError::Crc { .. })
        ));
    }

    #[test]
    fn wireframe_decode_handles_both_shapes() {
        let blocks = sample_blocks();
        let g = gather(4, &blocks);
        let c = WireFrame::Contiguous(encode_message(4, &blocks));
        let (gs, gb) = g.decode().unwrap();
        let (cs, cb) = c.decode().unwrap();
        assert_eq!(gs, cs);
        assert_eq!(gb, cb);
        assert_eq!(g.wire_len(), c.wire_len());
    }

    #[test]
    fn stale_seq_is_distinguishable() {
        let a = encode_message(1, &[]);
        let b = encode_message(2, &[]);
        assert_ne!(a, b);
        assert_eq!(decode_message(&a).unwrap().0, 1);
        assert_eq!(decode_message(&b).unwrap().0, 2);
    }
}
