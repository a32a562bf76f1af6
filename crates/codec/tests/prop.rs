//! Property tests for the codec crate in isolation: `decode ∘ encode`
//! is the identity for every codec over random flat entry blocks (and,
//! for the byte codecs, over arbitrary byte strings), and `encode_with`
//! stores every choice under the id it records.

use proptest::prelude::*;

use masm_codec::{codec_for, encode_with, Codec, CodecChoice, Delta, Identity, Lz};

/// Build a flat entry block (the layout in the crate docs) from raw
/// `(key, ts, value)` triples, key-sorted.
fn flat_block(mut raw: Vec<(u64, u64, Vec<u8>)>) -> Vec<u8> {
    raw.sort_by_key(|e| (e.0, e.1));
    let mut out = Vec::new();
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    for (key, ts, value) in raw {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&ts.to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(&value);
    }
    out
}

fn entry_batches() -> impl Strategy<Value = Vec<(u64, u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..48),
        ),
        0..120,
    )
}

proptest! {
    /// Every codec round-trips every flat block built from random entry
    /// batches, within its stated worst-case bound.
    #[test]
    fn every_codec_roundtrips_flat_blocks(raw in entry_batches()) {
        let flat = flat_block(raw);
        for codec in [&Identity as &dyn Codec, &Delta, &Lz] {
            let enc = codec.encode(&flat).unwrap();
            prop_assert!(enc.len() <= codec.max_compressed_len(flat.len()));
            prop_assert_eq!(
                codec.decode(&enc, flat.len()).unwrap(),
                flat.clone(),
                "{} round-trip",
                codec.name()
            );
        }
    }

    /// The byte codecs (identity, lz) accept *arbitrary* bytes, not
    /// just flat blocks, and still round-trip.
    #[test]
    fn byte_codecs_roundtrip_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for codec in [&Identity as &dyn Codec, &Lz] {
            let enc = codec.encode(&raw).unwrap();
            prop_assert!(enc.len() <= codec.max_compressed_len(raw.len()));
            prop_assert_eq!(codec.decode(&enc, raw.len()).unwrap(), raw.clone());
        }
    }

    /// Every choice encodes a flat block with its own codec, and the
    /// block decodes under the id `encode_with` records.
    #[test]
    fn every_choice_roundtrips_under_its_recorded_id(raw in entry_batches()) {
        let flat = flat_block(raw);
        for choice in CodecChoice::ALL {
            let (id, enc) = encode_with(choice, &flat);
            prop_assert_eq!(id, choice.as_id());
            let codec = codec_for(id).unwrap();
            prop_assert_eq!(codec.decode(&enc, flat.len()).unwrap(), flat.clone());
        }
    }

    /// LZ decode never panics on arbitrary (mostly malformed) streams —
    /// it errors or round-trips, and on success honors `raw_len`.
    #[test]
    fn lz_decode_is_total_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        raw_len in 0usize..1024,
    ) {
        if let Ok(out) = Lz.decode(&garbage, raw_len) {
            prop_assert_eq!(out.len(), raw_len);
        }
    }

    /// Delta decode never panics on arbitrary streams either.
    #[test]
    fn delta_decode_is_total_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        raw_len in 0usize..1024,
    ) {
        if let Ok(out) = Delta.decode(&garbage, raw_len) {
            prop_assert_eq!(out.len(), raw_len);
        }
    }
}
