//! Data-block encoding: the *flat* entry layout compression codecs
//! operate on.
//!
//! A block holds a key-ordered slice of a run's entries. Since the
//! `masm-codec` stage landed, this module encodes the **raw** (flat)
//! representation only; compression — including the delta+varint entry
//! encoding that used to live here — is a separate byte-level codec
//! applied by the run builder, recorded per block in its zone-map entry
//! (see [`crate::format::ZoneMap::codec_id`]).
//!
//! Layout (also documented in `masm_codec`'s crate docs, since the
//! [`masm_codec::Delta`] codec parses it):
//!
//! ```text
//! ┌────────────┬───────────────────────────────────────────────┐
//! │ count: u32 │ entry × count                                 │
//! ├────────────┴───────────────────────────────────────────────┤
//! │ entry := key: u64 LE │ ts: u64 LE │ len: u32 LE │ value…   │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! The on-disk block's CRC lives in its zone-map entry and covers the
//! *stored* (post-codec) bytes, so integrity is checked before any
//! codec or entry decoding starts.

// Varints moved to `masm-codec` with the delta encoding; re-exported
// because the bloom filter header still uses them.
pub use masm_codec::varint::{get_varint, put_varint};

/// One run entry: an opaque value filed under `(key, ts)`.
///
/// The value bytes are whatever the layer above stores — `masm-core`
/// puts its encoded update operation (tag + content) there — so this
/// crate stays independent of record semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Primary key the entry applies to.
    pub key: u64,
    /// Commit timestamp.
    pub ts: u64,
    /// Opaque payload.
    pub value: Vec<u8>,
}

impl Entry {
    /// Construct an entry.
    pub fn new(key: u64, ts: u64, value: Vec<u8>) -> Self {
        Entry { key, ts, value }
    }

    /// In-memory footprint estimate (for cache weighting).
    pub fn weight(&self) -> usize {
        std::mem::size_of::<Entry>() + self.value.len()
    }
}

/// Bytes of a flat block's `count: u32` header.
pub(crate) const COUNT_HEADER: usize = 4;
/// Bytes of a flat entry's `key: u64 | ts: u64 | len: u32` header.
pub(crate) const ENTRY_HEADER: usize = 8 + 8 + 4;

/// Flat-encoded size of one entry: the 20-byte header plus its value.
pub fn flat_entry_len(entry: &Entry) -> usize {
    ENTRY_HEADER + entry.value.len()
}

/// Encode `entries` (key-ordered) into one flat data block.
pub fn encode_block(entries: &[Entry]) -> Vec<u8> {
    debug_assert!(entries.windows(2).all(|w| w[0].key <= w[1].key));
    let mut out =
        Vec::with_capacity(COUNT_HEADER + entries.iter().map(flat_entry_len).sum::<usize>());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        debug_assert!(e.value.len() <= u32::MAX as usize);
        out.extend_from_slice(&e.key.to_le_bytes());
        out.extend_from_slice(&e.ts.to_le_bytes());
        out.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&e.value);
    }
    out
}

/// Decode a flat data block produced by [`encode_block`]. Returns
/// `None` on any structural inconsistency — truncation, trailing bytes,
/// or out-of-order keys. (Callers verify the CRC and run the codec
/// first, so a `None` here means a logic error or deliberate
/// corruption.)
pub fn decode_block(buf: &[u8]) -> Option<Vec<Entry>> {
    if buf.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(buf[0..4].try_into().ok()?) as usize;
    let mut pos = 4usize;
    let mut out = Vec::with_capacity(count);
    let mut prev_key = 0u64;
    for _ in 0..count {
        if buf.len() < pos + 20 {
            return None;
        }
        let key = u64::from_le_bytes(buf[pos..pos + 8].try_into().ok()?);
        let ts = u64::from_le_bytes(buf[pos + 8..pos + 16].try_into().ok()?);
        let len = u32::from_le_bytes(buf[pos + 16..pos + 20].try_into().ok()?) as usize;
        pos += 20;
        if buf.len() < pos + len {
            return None;
        }
        if key < prev_key {
            return None; // blocks are key-ordered by construction
        }
        out.push(Entry {
            key,
            ts,
            value: buf[pos..pos + len].to_vec(),
        });
        pos += len;
        prev_key = key;
    }
    (pos == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(i * 3, i + 1, vec![i as u8; (i % 5) as usize]))
            .collect()
    }

    #[test]
    fn block_roundtrip() {
        let entries = sample(200);
        let block = encode_block(&entries);
        assert_eq!(decode_block(&block).unwrap(), entries);
    }

    #[test]
    fn empty_block_roundtrip() {
        let block = encode_block(&[]);
        assert_eq!(decode_block(&block).unwrap(), Vec::<Entry>::new());
    }

    #[test]
    fn truncated_block_rejected() {
        let block = encode_block(&sample(20));
        for cut in [0, 3, block.len() / 2, block.len() - 1] {
            assert!(decode_block(&block[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut block = encode_block(&sample(5));
        block.push(0);
        assert!(decode_block(&block).is_none());
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let mut block = encode_block(&sample(2));
        // Swap the two keys in place (offsets 4 and 4+20+value).
        let second = 4 + 20; // first entry has an empty value
        let k0: [u8; 8] = block[4..12].try_into().unwrap();
        let k1: [u8; 8] = block[second..second + 8].try_into().unwrap();
        block[4..12].copy_from_slice(&k1);
        block[second..second + 8].copy_from_slice(&k0);
        assert!(decode_block(&block).is_none());
    }

    #[test]
    fn entry_len_matches_encoding() {
        let entries = sample(50);
        let total: usize = 4 + entries.iter().map(flat_entry_len).sum::<usize>();
        assert_eq!(total, encode_block(&entries).len());
    }

    #[test]
    fn delta_codec_still_beats_flat_encoding() {
        // The compression the old in-block delta format provided now
        // comes from the codec stage: same win, now optional and
        // per-block.
        let entries: Vec<Entry> = (0..1000)
            .map(|i| Entry::new(i * 2, i + 1, vec![]))
            .collect();
        let flat = encode_block(&entries);
        let delta = masm_codec::Delta;
        use masm_codec::Codec as _;
        let enc = delta.encode(&flat).unwrap();
        assert!(
            enc.len() * 4 < flat.len(),
            "{} bytes vs {} flat",
            enc.len(),
            flat.len()
        );
        assert_eq!(delta.decode(&enc, flat.len()).unwrap(), flat);
    }
}
