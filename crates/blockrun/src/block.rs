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
//!
//! ## The decoded form: one buffer
//!
//! A block that has been read is kept as exactly those flat bytes — the
//! buffer the codec stage returned, moved in, not copied — plus the
//! offset of every entry header ([`FlatBlock`]):
//!
//! ```text
//! bytes    count │ key ts len value… │ key ts len value… │ …
//! offsets        ▲ 4                 ▲                   ▲ … ▲ bytes.len()
//! ```
//!
//! Readers borrow [`EntryRef`]s out of it by index and binary-search
//! its keys in place; nothing is allocated per entry. The owned
//! [`Entry`] is the vocabulary of the *write* side ([`encode_block`],
//! [`crate::format::build_run`]) and of tests; [`decode_block`] is the
//! reference decoder the differential tests hold [`FlatBlock::parse`]
//! against.

use masm_codec::bytes::Reader;

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
pub(crate) fn flat_entry_len(entry: &Entry) -> usize {
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

/// The entry count a flat block declares, if the block is long enough
/// to hold that many 20-byte entry headers. Checked before anything is
/// reserved for the entries: the count is four bytes off a device.
fn declared_count(r: &mut Reader<'_>) -> Option<usize> {
    let count = r.u32()? as usize;
    (count <= r.remaining() / ENTRY_HEADER).then_some(count)
}

/// One flat entry's key, timestamp and value, borrowed.
fn read_entry<'a>(r: &mut Reader<'a>) -> Option<EntryRef<'a>> {
    let (key, ts, len) = (r.u64()?, r.u64()?, r.u32()?);
    let value = r.take(len as usize)?;
    Some(EntryRef { key, ts, value })
}

/// Decode a flat data block produced by [`encode_block`] into owned
/// entries — the **reference decoder**: the read path keeps blocks as
/// [`FlatBlock`]s, and the differential tests hold the two to the same
/// verdict on every input. Returns `None` on any structural
/// inconsistency — truncation, a count the bytes cannot hold, trailing
/// bytes, or out-of-order keys. (Callers verify the CRC and run the
/// codec first, so a `None` here means a logic error or deliberate
/// corruption.)
pub fn decode_block(buf: &[u8]) -> Option<Vec<Entry>> {
    let mut r = Reader::new(buf);
    let count = declared_count(&mut r)?;
    let mut out: Vec<Entry> = Vec::with_capacity(count);
    for _ in 0..count {
        let e = read_entry(&mut r)?;
        if out.last().is_some_and(|prev| e.key < prev.key) {
            return None; // blocks are key-ordered by construction
        }
        out.push(e.to_entry());
    }
    r.finish()?;
    Some(out)
}

/// One entry of a [`FlatBlock`], borrowed from the block's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// Primary key the entry applies to.
    pub key: u64,
    /// Commit timestamp.
    pub ts: u64,
    /// Opaque payload, in place.
    pub value: &'a [u8],
}

impl EntryRef<'_> {
    /// An owned copy (one allocation, for the value).
    pub fn to_entry(&self) -> Entry {
        Entry::new(self.key, self.ts, self.value.to_vec())
    }
}

/// A decoded data block: the flat bytes of [`encode_block`]'s layout,
/// validated once, plus the offset of every entry header. Entries are
/// lent out of the buffer ([`FlatBlock::iter`]); three allocations per
/// block (buffer, offsets, the cache's `Arc`) whatever it holds.
#[derive(Debug, PartialEq, Eq)]
pub struct FlatBlock {
    bytes: Vec<u8>,
    /// Offset of each entry's header in `bytes`, then `bytes.len()`:
    /// entry `i` spans `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    /// `Σ Entry::weight` of the entries, fixed at parse time.
    weight: usize,
}

impl FlatBlock {
    /// Take ownership of a flat block and index it, making every check
    /// [`decode_block`] makes — truncation, a count the bytes cannot
    /// hold, a value running past the end, trailing bytes, keys out of
    /// order — in one pass. `None` where `decode_block` says `None`
    /// (and for a buffer past 4 GiB, which no `u32` offset reaches).
    pub fn parse(bytes: Vec<u8>) -> Option<FlatBlock> {
        let end = u32::try_from(bytes.len()).ok()?;
        let mut r = Reader::new(&bytes);
        let count = declared_count(&mut r)?;
        let mut offsets = Vec::with_capacity(count + 1);
        let mut prev_key = 0u64;
        for _ in 0..count {
            offsets.push(r.pos() as u32);
            let key = read_entry(&mut r)?.key;
            if key < prev_key {
                return None;
            }
            prev_key = key;
        }
        r.finish()?;
        offsets.push(end);
        let values = bytes.len() - COUNT_HEADER - count * ENTRY_HEADER;
        Some(FlatBlock {
            weight: count * std::mem::size_of::<Entry>() + values,
            bytes,
            offsets,
        })
    }

    /// The block of owned, key-ordered `entries`: encode, then parse.
    /// For callers that hold [`Entry`]s — tests and benchmarks; the
    /// read path parses the codec's output and never builds entries.
    ///
    /// # Panics
    /// If the entries are not ordered by key.
    pub(crate) fn from_entries(entries: &[Entry]) -> FlatBlock {
        FlatBlock::parse(encode_block(entries)).expect("entries are ordered by key")
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the block holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Σ Entry::weight` over the entries — what the same block cost
    /// the cache as a `Vec<Entry>`, and still what it is charged.
    pub fn weight(&self) -> usize {
        self.weight
    }

    #[inline]
    fn key_at(&self, at: u32) -> u64 {
        let at = at as usize;
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Key of entry `i`, without touching its value.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        self.key_at(self.offsets[..self.len()][i])
    }

    /// Entry `i`, borrowed.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> EntryRef<'_> {
        let entry = &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        let (header, value) = entry
            .split_first_chunk::<ENTRY_HEADER>()
            .expect("parse saw every header");
        EntryRef {
            key: u64::from_le_bytes(header[..8].try_into().expect("8 bytes")),
            ts: u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")),
            value,
        }
    }

    /// Every entry in order, borrowed.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = EntryRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Index of the first entry whose key fails `pred` (`pred` must be
    /// true for a prefix of the key-ordered entries): a binary search
    /// that reads keys only.
    pub fn partition_point(&self, pred: impl Fn(u64) -> bool) -> usize {
        self.offsets[..self.len()].partition_point(|&at| pred(self.key_at(at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(i * 3, i + 1, vec![i as u8; (i % 5) as usize]))
            .collect()
    }

    fn owned(block: &FlatBlock) -> Vec<Entry> {
        block.iter().map(|e| e.to_entry()).collect()
    }

    /// Both decoders, which must agree: `Some(entries)` or `None`.
    fn decode_both(buf: &[u8]) -> Option<Vec<Entry>> {
        let reference = decode_block(buf);
        let flat = FlatBlock::parse(buf.to_vec()).map(|b| owned(&b));
        assert_eq!(
            flat, reference,
            "the flat block and the reference decoder disagree"
        );
        reference
    }

    #[test]
    fn block_roundtrip() {
        let entries = sample(200);
        let block = encode_block(&entries);
        assert_eq!(decode_both(&block).unwrap(), entries);
    }

    #[test]
    fn empty_block_roundtrip() {
        let block = encode_block(&[]);
        assert_eq!(decode_both(&block).unwrap(), Vec::<Entry>::new());
    }

    #[test]
    fn truncated_block_rejected() {
        let block = encode_block(&sample(20));
        for cut in [0, 3, block.len() / 2, block.len() - 1] {
            assert!(decode_both(&block[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut block = encode_block(&sample(5));
        block.push(0);
        assert!(decode_both(&block).is_none());
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let mut block = encode_block(&sample(2));
        // Swap the two keys in place (offsets 4 and 4+20+value; the
        // first entry has an empty value).
        let (first, second) = block.split_at_mut(4 + 20);
        first[4..12].swap_with_slice(&mut second[..8]);
        assert!(decode_both(&block).is_none());
    }

    #[test]
    fn hostile_entry_count_is_rejected_before_anything_is_reserved() {
        // Four bytes that claim 4 G entries: at the parent this reserved
        // 171 GB and aborted the process.
        assert_eq!(decode_both(&[0xFF; 4]), None);
        // 2^27 entries in a block that has room for one header.
        let mut block = (1u32 << 27).to_le_bytes().to_vec();
        block.extend_from_slice(&[0u8; ENTRY_HEADER]);
        assert_eq!(decode_both(&block), None);
        // One more than the entries present.
        let mut block = encode_block(&sample(3));
        block[..4].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(decode_both(&block), None);
        // And one fewer leaves trailing bytes.
        block[..4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_both(&block), None);
    }

    #[test]
    fn flat_block_lends_what_was_encoded() {
        let entries = sample(200);
        let block = FlatBlock::parse(encode_block(&entries)).unwrap();
        assert_eq!(block.len(), entries.len());
        assert_eq!(owned(&block), entries);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(block.key(i), e.key);
            assert_eq!(block.get(i).to_entry(), *e);
        }
        assert_eq!(
            block.weight(),
            entries.iter().map(Entry::weight).sum::<usize>(),
            "the cache charge of the owned form"
        );
        assert_eq!(block.partition_point(|k| k < 30), 10);
        assert_eq!(block.partition_point(|k| k <= 30), 11);
        assert_eq!(block.partition_point(|_| true), 200);
        let empty = FlatBlock::from_entries(&[]);
        assert!(empty.is_empty());
        assert_eq!((empty.weight(), empty.partition_point(|_| true)), (0, 0));
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
