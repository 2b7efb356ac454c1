//! Property-based coverage of the wire codecs: the contiguous and the
//! scatter-gather encoders must round-trip arbitrary block sets (zero
//! blocks and zero-length payloads included), agree byte-for-byte on the
//! canonical layout, and reject — without panicking — every truncation,
//! dropped or shrunken payload segment, and single-byte corruption.

use alltoall_core::Block;
use bytes::Bytes;
use proptest::prelude::*;
use torus_runtime::{
    decode_gathered, decode_message, encode_gathered, encode_message, WireError, WireFrame,
};
use torus_topology::MAX_DIMS;

/// Arbitrary block sets: random endpoints, shift vectors, and payloads of
/// length 0..40 (zero-length payloads are legal frames and must survive).
fn arb_blocks() -> impl Strategy<Value = Vec<Block<Bytes>>> {
    arb_blocks_with(0..40)
}

/// Block sets whose records straddle the CRC routine's 128-byte cutoff
/// (a 20 B header plus 80..1100 B of payload), so a gathered frame mixes
/// byte-loop records with wide-kernel ones, of every length mod 16 and
/// on both sides of the 256 B a 512-bit round needs, while its
/// contiguous twin is one long wide-kernel segment.
fn arb_bulk_blocks() -> impl Strategy<Value = Vec<Block<Bytes>>> {
    arb_blocks_with(80..1100)
}

/// Frames mixing the two block sizes the benchmarks run, 64 B (an 84 B
/// record: byte loop) and 1 KiB (wide kernel), in any order.
fn arb_mixed_blocks() -> impl Strategy<Value = Vec<Block<Bytes>>> {
    prop::collection::vec(
        (any::<u32>(), any::<u32>(), any::<bool>(), any::<u8>()),
        0..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(src, dst, bulk, fill)| {
                let len = if bulk { 1024 } else { 64 };
                let payload: Vec<u8> = (0..len).map(|i| fill ^ (i as u8)).collect();
                Block::with_payload(src, dst, Bytes::from(payload))
            })
            .collect()
    })
}

fn arb_blocks_with(
    payload_len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Block<Bytes>>> {
    prop::collection::vec(
        (
            any::<u32>(),
            any::<u32>(),
            any::<[u8; MAX_DIMS]>(),
            prop::collection::vec(any::<u8>(), payload_len),
        ),
        0..8,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(src, dst, shifts, payload)| {
                let mut b = Block::with_payload(src, dst, Bytes::from(payload));
                b.shifts = shifts;
                b
            })
            .collect()
    })
}

/// The streamed (per-record) and the one-pass checksum take different
/// kernels over the same canonical bytes; the stamped CRC field, and so
/// the whole frame, must still be identical, both must verify, and the
/// wide kernels must still see every byte.
fn assert_same_crc_both_shapes(
    seq: u32,
    blocks: Vec<Block<Bytes>>,
    pos: prop::sample::Index,
) -> Result<(), TestCaseError> {
    let contiguous = encode_message(seq, &blocks);
    let gathered = encode_gathered(seq, &blocks, Default::default(), Vec::new());
    prop_assert_eq!(gathered.to_bytes(), contiguous.clone());
    prop_assert_eq!(
        gathered.decode().expect("gathered frame verifies"),
        (seq, blocks.clone())
    );
    prop_assert_eq!(
        decode_message(&contiguous).expect("contiguous frame verifies"),
        (seq, blocks)
    );
    let mut damaged = contiguous.to_vec();
    let pos = pos.index(damaged.len());
    damaged[pos] ^= 0x10;
    prop_assert!(decode_message(&Bytes::from(damaged)).is_err());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contiguous_round_trips(seq in any::<u32>(), blocks in arb_blocks()) {
        let wire = encode_message(seq, &blocks);
        let (got_seq, got_blocks) = decode_message(&wire).expect("self-encoded frame decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_blocks, blocks);
    }

    #[test]
    fn gathered_round_trips_and_recycles(seq in any::<u32>(), blocks in arb_blocks()) {
        let frame = encode_gathered(seq, &blocks, Default::default(), Vec::new());
        let WireFrame::Gathered { framing, mut payloads } = frame else {
            panic!("encode_gathered returns the gathered shape");
        };
        let mut out = Vec::new();
        let got_seq =
            decode_gathered(&framing, &mut payloads, &mut out).expect("self-encoded frame decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(out, blocks);
        prop_assert!(payloads.is_empty(), "segments are drained for vec recycling");
    }

    #[test]
    fn both_shapes_agree_on_the_canonical_layout(seq in any::<u32>(), blocks in arb_blocks()) {
        let contiguous = encode_message(seq, &blocks);
        let gathered = encode_gathered(seq, &blocks, Default::default(), Vec::new());
        prop_assert_eq!(gathered.wire_len(), contiguous.len());
        prop_assert_eq!(gathered.to_bytes(), contiguous.clone());
        let (got_seq, got_blocks) = gathered.decode().expect("gathered frame decodes in place");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_blocks, blocks);
        // And a materialized gathered frame decodes through the contiguous
        // decoder: the shapes are interchangeable on the wire.
        prop_assert_eq!(decode_message(&gathered.to_bytes()), decode_message(&contiguous));
    }

    #[test]
    fn both_shapes_stamp_the_same_crc_on_bulk_payloads(
        seq in any::<u32>(),
        blocks in arb_bulk_blocks(),
        pos in any::<prop::sample::Index>(),
    ) {
        assert_same_crc_both_shapes(seq, blocks, pos)?;
    }

    #[test]
    fn both_shapes_stamp_the_same_crc_on_mixed_block_sizes(
        seq in any::<u32>(),
        blocks in arb_mixed_blocks(),
        pos in any::<prop::sample::Index>(),
    ) {
        assert_same_crc_both_shapes(seq, blocks, pos)?;
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic(seq in any::<u32>(), blocks in arb_blocks()) {
        let wire = encode_message(seq, &blocks);
        for cut in 0..wire.len() {
            let prefix = wire.slice(0..cut);
            prop_assert!(
                decode_message(&prefix).is_err(),
                "a {cut}-byte prefix of a {}-byte frame must not decode",
                wire.len()
            );
        }
    }

    #[test]
    fn any_corrupt_byte_is_rejected(
        seq in any::<u32>(),
        blocks in arb_blocks(),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..,
    ) {
        let wire = encode_message(seq, &blocks);
        let mut damaged = wire.to_vec();
        let pos = pos.index(damaged.len());
        damaged[pos] ^= flip;
        prop_assert!(
            decode_message(&Bytes::from(damaged)).is_err(),
            "flipping byte {pos} must fail integrity checks"
        );
    }

    #[test]
    fn gathered_structural_damage_is_rejected(
        seq in any::<u32>(),
        blocks in arb_blocks(),
        pick in any::<prop::sample::Index>(),
    ) {
        let WireFrame::Gathered { framing, payloads } =
            encode_gathered(seq, &blocks, Default::default(), Vec::new())
        else {
            panic!("encode_gathered returns the gathered shape");
        };

        // Framing cut anywhere: structural error, nothing appended.
        for cut in 0..framing.len() {
            let mut segs = payloads.clone();
            let mut out = Vec::new();
            prop_assert!(decode_gathered(&framing[..cut], &mut segs, &mut out).is_err());
            prop_assert!(out.is_empty(), "failed decode must not deliver blocks");
        }

        if !blocks.is_empty() {
            // A dropped payload segment is a segment-count mismatch.
            let mut segs = payloads.clone();
            let dropped = pick.index(segs.len());
            segs.remove(dropped);
            let mut out = Vec::new();
            prop_assert_eq!(
                decode_gathered(&framing, &mut segs, &mut out),
                Err(WireError::Segments { got: blocks.len() - 1, want: blocks.len() })
            );

            // A shrunken segment contradicts its declared length.
            let victim = pick.index(blocks.len());
            if !payloads[victim].is_empty() {
                let mut segs = payloads.clone();
                segs[victim] = segs[victim].slice(0..segs[victim].len() - 1);
                let mut out = Vec::new();
                let got = decode_gathered(&framing, &mut segs, &mut out);
                prop_assert!(
                    matches!(got, Err(WireError::Truncated { .. })),
                    "shrunken segment must report truncation, got {got:?}"
                );
            }
        }
    }
}
