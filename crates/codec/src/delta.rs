//! The delta+varint codec — the block format's original entry encoding,
//! extracted into a byte codec.
//!
//! Keys in a block are sorted, so consecutive key deltas are small and a
//! varint encodes each in 1–2 bytes where the flat layout spends 8; a
//! delete entry shrinks from 21 bytes flat to typically 3–5. The codec
//! transforms between the flat layout (see the crate docs) and:
//!
//! ```text
//! ┌────────────┬──────────────────────────────────────────────┐
//! │ count: u32 │ entry × count                                │
//! ├────────────┴──────────────────────────────────────────────┤
//! │ entry := varint(key − prev_key) varint(ts)                │
//! │          varint(len(value)) value…                        │
//! └───────────────────────────────────────────────────────────┘
//! ```
//!
//! This is byte-for-byte the pre-codec on-disk block format, so the
//! compression measured against it is an honest before/after.

use crate::bytes::{put_varint, Reader};
use crate::{Codec, CodecError, CodecResult, DELTA};

/// One flat entry: key, timestamp and the value, borrowed.
fn flat_entry<'a>(r: &mut Reader<'a>) -> Option<(u64, u64, &'a [u8])> {
    let (key, ts, len) = (r.u64()?, r.u64()?, r.u32()?);
    Some((key, ts, r.take(len as usize)?))
}

/// One delta entry: key delta, timestamp and the value, borrowed.
fn delta_entry<'a>(r: &mut Reader<'a>) -> Option<(u64, u64, &'a [u8])> {
    let (delta, ts, len) = (r.varint()?, r.varint()?, r.varint()?);
    if len > u32::MAX as u64 {
        return None;
    }
    Some((delta, ts, r.take(len as usize)?))
}

/// The delta+varint codec; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta;

impl Codec for Delta {
    fn id(&self) -> u8 {
        DELTA
    }

    fn name(&self) -> &'static str {
        "delta"
    }

    /// Flat block → delta block. Fails when `raw` is not a well-formed
    /// flat block with non-decreasing keys.
    fn encode(&self, raw: &[u8]) -> CodecResult<Vec<u8>> {
        const MALFORMED: CodecError = CodecError::Malformed("flat block");
        let mut r = Reader::new(raw);
        let count = r.u32().ok_or(MALFORMED)?;
        let mut out = Vec::with_capacity(4 + raw.len() / 2);
        out.extend_from_slice(&count.to_le_bytes());
        let mut prev_key = 0u64;
        for _ in 0..count {
            let (key, ts, value) = flat_entry(&mut r).ok_or(MALFORMED)?;
            if key < prev_key {
                return Err(CodecError::Malformed("flat block keys not sorted"));
            }
            put_varint(&mut out, key - prev_key);
            put_varint(&mut out, ts);
            put_varint(&mut out, value.len() as u64);
            out.extend_from_slice(value);
            prev_key = key;
        }
        r.finish().ok_or(MALFORMED)?;
        Ok(out)
    }

    /// Delta block → flat block, validated against `raw_len`.
    fn decode(&self, encoded: &[u8], raw_len: usize) -> CodecResult<Vec<u8>> {
        const MALFORMED: CodecError = CodecError::Malformed("delta block");
        let mut r = Reader::new(encoded);
        let count = r.u32().ok_or(MALFORMED)?;
        let mut out = Vec::with_capacity(raw_len);
        out.extend_from_slice(&count.to_le_bytes());
        let mut prev_key = 0u64;
        for _ in 0..count {
            let (delta, ts, value) = delta_entry(&mut r).ok_or(MALFORMED)?;
            let key = prev_key.checked_add(delta).ok_or(MALFORMED)?;
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&ts.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
            prev_key = key;
            if out.len() > raw_len {
                return Err(CodecError::LengthMismatch {
                    expected: raw_len,
                    got: out.len(),
                });
            }
        }
        r.finish().ok_or(MALFORMED)?;
        if out.len() != raw_len {
            return Err(CodecError::LengthMismatch {
                expected: raw_len,
                got: out.len(),
            });
        }
        Ok(out)
    }

    /// Worst case: a varint key delta (≤10 B), timestamp (≤10 B), and
    /// length (≤5 B) replace the 20 flat header bytes — at most 5 extra
    /// bytes per entry, and every flat entry is at least 20 bytes.
    fn max_compressed_len(&self, raw_len: usize) -> usize {
        raw_len + raw_len / 4 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a flat block inline (mirrors the layout in the crate docs).
    fn flat(entries: &[(u64, u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (key, ts, value) in entries {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&ts.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        out
    }

    #[test]
    fn roundtrip_and_shrinks_sorted_small_deltas() {
        let entries: Vec<(u64, u64, Vec<u8>)> =
            (0..500).map(|i| (i * 2, i + 1, vec![i as u8; 4])).collect();
        let raw = flat(
            &entries
                .iter()
                .map(|(k, t, v)| (*k, *t, v.as_slice()))
                .collect::<Vec<_>>(),
        );
        let enc = Delta.encode(&raw).unwrap();
        assert!(
            enc.len() * 2 < raw.len(),
            "delta should at least halve dense runs: {} vs {}",
            enc.len(),
            raw.len()
        );
        assert!(enc.len() <= Delta.max_compressed_len(raw.len()));
        assert_eq!(Delta.decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn empty_block_roundtrip() {
        let raw = flat(&[]);
        let enc = Delta.encode(&raw).unwrap();
        assert_eq!(Delta.decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn matches_legacy_block_format_byte_for_byte() {
        // The pre-codec format for (key=3,ts=7,value=[9,9]) after key 1:
        // varint(2) varint(7) varint(2) 9 9.
        let raw = flat(&[(1, 5, &[]), (3, 7, &[9, 9])]);
        let enc = Delta.encode(&raw).unwrap();
        assert_eq!(enc, vec![2, 0, 0, 0, 1, 5, 0, 2, 7, 2, 9, 9]);
    }

    #[test]
    fn rejects_unsorted_and_truncated_input() {
        let raw = flat(&[(10, 1, &[]), (5, 2, &[])]);
        assert!(matches!(
            Delta.encode(&raw),
            Err(CodecError::Malformed("flat block keys not sorted"))
        ));
        let good = flat(&[(1, 1, &[7; 8])]);
        for cut in [0, 3, 10, good.len() - 1] {
            assert!(Delta.encode(&good[..cut]).is_err(), "cut={cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Delta.encode(&trailing).is_err());
    }

    #[test]
    fn decode_rejects_corruption_and_wrong_raw_len() {
        let raw = flat(&[(1, 1, &[1, 2, 3]), (4, 2, &[4])]);
        let enc = Delta.encode(&raw).unwrap();
        assert!(Delta.decode(&enc, raw.len() + 1).is_err());
        assert!(Delta.decode(&enc[..enc.len() - 1], raw.len()).is_err());
        let mut bad = enc.clone();
        bad[0] = 0xFF; // count explodes past the payload
        assert!(Delta.decode(&bad, raw.len()).is_err());
    }
}
