//! An LZ-style byte codec: greedy hash-chain match finder, LZ4-like
//! token stream. Dependency-free, deterministic, and offline-safe (no
//! allocation beyond the output and two bounded index tables).
//!
//! ## Encoded stream
//!
//! A sequence of *(literals, match)* pairs, LZ4-style:
//!
//! ```text
//! token: u8 ─ high nibble = literal count  (15 ⇒ +255-continued bytes)
//!             low  nibble = match len − 4  (15 ⇒ +255-continued bytes)
//! literal bytes…
//! offset: u16 LE (1‥65535, distance back into the output)
//! match-length continuation bytes…
//! ```
//!
//! The final pair carries literals only: the stream simply ends after
//! them (no offset follows). Matches may overlap their own output
//! (offset < length), which is how run-length-style repetition
//! compresses; the decoder copies byte-by-byte to honor that.
//!
//! ## Match finder
//!
//! Greedy with a hash-chain history: 4-byte prefixes hash into a table
//! of most-recent positions; chains link earlier occurrences. The chain
//! walk is depth-limited, so encoding is O(n · depth) worst case. Blocks
//! are ≤ 64 KB in practice, comfortably inside the u16 offset window.

use crate::bytes::Reader;
use crate::{Codec, CodecError, CodecResult, LZ};

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = u16::MAX as usize;
/// Chain positions examined per match attempt.
const CHAIN_DEPTH: usize = 32;
/// Sentinel for "no position" in the hash/chain tables.
const NIL: u32 = u32::MAX;

fn hash4(bytes: &[u8]) -> u32 {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    v.wrapping_mul(2_654_435_761)
}

/// 255-continued length extension (LZ4's scheme).
fn put_len_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// What every malformed LZ stream is.
const MALFORMED: CodecError = CodecError::Malformed("lz stream");

fn get_len_ext(r: &mut Reader<'_>) -> CodecResult<usize> {
    let mut total = 0usize;
    loop {
        let b = r.u8().ok_or(MALFORMED)?;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!((1..=MAX_OFFSET).contains(&offset));
    let ml = match_len - MIN_MATCH;
    let token = ((literals.len().min(15) as u8) << 4) | ml.min(15) as u8;
    out.push(token);
    if literals.len() >= 15 {
        put_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml >= 15 {
        put_len_ext(out, ml - 15);
    }
}

fn emit_final_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    out.push((literals.len().min(15) as u8) << 4);
    if literals.len() >= 15 {
        put_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// The LZ codec; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lz;

impl Codec for Lz {
    fn id(&self) -> u8 {
        LZ
    }

    fn name(&self) -> &'static str {
        "lz"
    }

    /// Total: every byte string encodes (worst case, all literals).
    fn encode(&self, raw: &[u8]) -> CodecResult<Vec<u8>> {
        let n = raw.len();
        let mut out = Vec::with_capacity(n / 2 + 16);
        if n < MIN_MATCH {
            emit_final_literals(&mut out, raw);
            return Ok(out);
        }
        // Size the hash table to the input: small blocks get small
        // tables (encode is called once per ≤64 KB block, so per-call
        // table setup must stay proportional).
        let hash_bits = (usize::BITS - n.next_power_of_two().leading_zeros() - 1).clamp(8, 15);
        let hash_shift = 32 - hash_bits;
        let mut head = vec![NIL; 1usize << hash_bits];
        let mut chain = vec![NIL; n];

        let insert = |head: &mut Vec<u32>, chain: &mut Vec<u32>, pos: usize| {
            let h = (hash4(&raw[pos..]) >> hash_shift) as usize;
            chain[pos] = head[h];
            head[h] = pos as u32;
        };

        let mut anchor = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= n {
            // Walk the chain for the longest match ending before `i`.
            let h = (hash4(&raw[i..]) >> hash_shift) as usize;
            let mut cand = head[h];
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            let mut depth = 0usize;
            while cand != NIL && depth < CHAIN_DEPTH {
                let c = cand as usize;
                if i - c > MAX_OFFSET {
                    break; // older positions are even farther away
                }
                let mut l = 0usize;
                while i + l < n && raw[c + l] == raw[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - c;
                }
                cand = chain[c];
                depth += 1;
            }

            if best_len >= MIN_MATCH {
                emit_sequence(&mut out, &raw[anchor..i], best_off, best_len);
                let end = i + best_len;
                // Index the covered positions so later matches can
                // reference them.
                while i < end && i + MIN_MATCH <= n {
                    insert(&mut head, &mut chain, i);
                    i += 1;
                }
                i = end;
                anchor = end;
            } else {
                insert(&mut head, &mut chain, i);
                i += 1;
            }
        }
        emit_final_literals(&mut out, &raw[anchor..]);
        Ok(out)
    }

    fn decode(&self, encoded: &[u8], raw_len: usize) -> CodecResult<Vec<u8>> {
        let mut out = Vec::with_capacity(raw_len);
        let mut r = Reader::new(encoded);
        while let Some(token) = r.u8() {
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len += get_len_ext(&mut r)?;
            }
            out.extend_from_slice(r.take(lit_len).ok_or(MALFORMED)?);
            if r.remaining() == 0 {
                break; // final sequence: literals only
            }
            let offset = r.u16().ok_or(MALFORMED)? as usize;
            if offset == 0 || offset > out.len() {
                return Err(MALFORMED); // no history that far back
            }
            let mut match_len = (token & 0x0F) as usize;
            if match_len == 15 {
                match_len += get_len_ext(&mut r)?;
            }
            match_len += MIN_MATCH;
            if out.len() + match_len > raw_len {
                // Bound output memory on malformed input before copying.
                return Err(CodecError::LengthMismatch {
                    expected: raw_len,
                    got: out.len() + match_len,
                });
            }
            // Byte-by-byte: matches may overlap their own output.
            let start = out.len() - offset;
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() != raw_len {
            return Err(CodecError::LengthMismatch {
                expected: raw_len,
                got: out.len(),
            });
        }
        Ok(out)
    }

    /// Worst case, all literals: one token per 15+255·k literals plus
    /// the bytes themselves.
    fn max_compressed_len(&self, raw_len: usize) -> usize {
        raw_len + raw_len / 255 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Vec<u8> {
        let enc = Lz.encode(raw).unwrap();
        assert!(
            enc.len() <= Lz.max_compressed_len(raw.len()),
            "{} > bound {}",
            enc.len(),
            Lz.max_compressed_len(raw.len())
        );
        assert_eq!(Lz.decode(&enc, raw.len()).unwrap(), raw, "roundtrip");
        enc
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(roundtrip(&[]).is_empty());
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0; 4]);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let raw = b"abcdefgh".repeat(512);
        let enc = roundtrip(&raw);
        assert!(
            enc.len() * 10 < raw.len(),
            "{} vs {}: periodic data should crush",
            enc.len(),
            raw.len()
        );
    }

    #[test]
    fn overlapping_match_rle() {
        // A run of one byte forces offset-1 overlapping matches.
        let raw = vec![7u8; 10_000];
        let enc = roundtrip(&raw);
        assert!(enc.len() < 64, "{} bytes for a pure run", enc.len());
    }

    #[test]
    fn incompressible_input_grows_bounded() {
        let mut x = 88172645463325252u64;
        let raw: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let enc = roundtrip(&raw);
        assert!(enc.len() <= Lz.max_compressed_len(raw.len()));
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // >15 literals then a >15+4 match exercise both extension paths.
        let mut raw: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let tail: Vec<u8> = raw[..64].to_vec();
        raw.extend_from_slice(&tail);
        roundtrip(&raw);
    }

    #[test]
    fn structured_block_like_input() {
        // Something shaped like a flat entry block: small keys, mostly
        // zero payloads — the codec's production diet.
        let mut raw = Vec::new();
        raw.extend_from_slice(&(64u32).to_le_bytes());
        for i in 0u64..64 {
            raw.extend_from_slice(&(i * 2).to_le_bytes());
            raw.extend_from_slice(&(i + 1).to_le_bytes());
            raw.extend_from_slice(&(92u32).to_le_bytes());
            let mut payload = vec![0u8; 92];
            payload[0] = i as u8;
            raw.extend_from_slice(&payload);
        }
        let enc = roundtrip(&raw);
        assert!(
            enc.len() * 3 < raw.len(),
            "{} vs {}: zero-heavy blocks must shrink >3x",
            enc.len(),
            raw.len()
        );
    }

    #[test]
    fn decode_rejects_malformed_streams() {
        let raw = b"the quick brown fox jumps over the quick brown dog".to_vec();
        let enc = Lz.encode(&raw).unwrap();
        // Truncations at every prefix must error, never panic.
        for cut in 0..enc.len() {
            assert!(Lz.decode(&enc[..cut], raw.len()).is_err(), "cut={cut}");
        }
        // Wrong raw_len.
        assert!(Lz.decode(&enc, raw.len() + 1).is_err());
        assert!(Lz.decode(&enc, raw.len().saturating_sub(1)).is_err());
        // Zero / out-of-range offset.
        let bad = vec![0x04u8, 0, 0]; // match of 8 at offset 0 with no history
        assert!(Lz.decode(&bad, 8).is_err());
    }
}
