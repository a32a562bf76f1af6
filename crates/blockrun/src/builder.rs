//! Streaming construction of a block run: decoded entries in, raw
//! verbatim blocks in, one encoded run out.
//!
//! [`crate::format::build_run`] covers the common case of materializing
//! a run from a flat slice of entries. Compaction needs more: the merge
//! planner ([`crate::plan`]) classifies whole input blocks as *moves*
//! (no other input overlaps their key range), and those blocks should
//! flow into the output **without being delta-decoded** — their encoded
//! bytes and zone entries are already exactly what the output needs.
//!
//! [`RunBuilder`] therefore accepts an arbitrary key-ordered interleave
//! of
//!
//! * [`RunBuilder::append`] — an entry written straight into the open
//!   data block, which the builder keeps **as its flat encoding**
//!   ([`crate::block`]'s layout): the caller hands over key, timestamp
//!   and value length, and writes the value bytes into the block buffer
//!   itself, so an entry is copied once on its way into a run and never
//!   exists as an owned [`Entry`]. [`RunBuilder::append_entry`] is the
//!   same call for a caller that already holds one; and
//! * [`RunBuilder::append_raw_block`] — a verbatim encoded block plus
//!   its original [`ZoneMap`]; the bytes are CRC-verified against the
//!   zone's checksum (a corrupted move fails loudly) and stitched in
//!   with only the zone's offset rewritten — codec id, raw length, and
//!   CRC travel verbatim, so zero-decode compaction composes with
//!   per-block compression for free.
//!
//! [`RunBuilder::finish`] rebuilds the index block, bloom region, and
//! footer from the accumulated zone entries. The bloom filter comes
//! from the appended keys when every block was built here; when raw
//! blocks were moved their keys were never seen, so the caller provides
//! a fallback — typically the [`BloomFilter::union`] of the input runs'
//! filters, which is a valid over-approximation because the output's
//! keys are a subset of the inputs' keys.

use masm_codec::bytes::{crc32, seal};

use crate::block::{Entry, COUNT_HEADER, ENTRY_HEADER};
use crate::bloom::BloomFilter;
use crate::format::{
    BlockRunConfig, BlockRunMeta, BlockRunResult, ZoneMap, FOOTER_LEN, MAGIC, VERSION, ZONE_MAP_LEN,
};

/// What the zone map needs to know about the open block, tracked as
/// entries are written into it.
#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    count: u32,
    first_key: u64,
    last_key: u64,
    min_ts: u64,
    max_ts: u64,
}

/// Streaming builder of one block run; see the module docs.
#[derive(Debug)]
pub struct RunBuilder {
    cfg: BlockRunConfig,
    bytes: Vec<u8>,
    zones: Vec<ZoneMap>,
    /// The open block as its flat encoding: a count header (patched at
    /// flush) followed by the entries appended so far. Empty between
    /// blocks.
    block: Vec<u8>,
    /// `Some` exactly while `block` holds at least one entry.
    open: Option<OpenBlock>,
    /// Keys of every appended (decoded) entry, for the bloom filter.
    keys: Vec<u64>,
    raw_blocks: u64,
    raw_entries: u64,
}

impl RunBuilder {
    /// An empty builder.
    pub fn new(cfg: BlockRunConfig) -> Self {
        assert!(cfg.block_bytes >= 64, "block_bytes too small");
        RunBuilder {
            cfg,
            bytes: Vec::new(),
            zones: Vec::new(),
            block: Vec::new(),
            open: None,
            keys: Vec::new(),
            raw_blocks: 0,
            raw_entries: 0,
        }
    }

    /// Largest key appended so far (across entries and raw blocks).
    fn last_key(&self) -> Option<u64> {
        let blk = self.open.map(|b| b.last_key);
        blk.or(self.zones.last().map(|z| z.max_key))
    }

    fn flush_block(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        // The flat (raw) block is already in hand; patch its count and
        // run the configured codec. The zone entry records both sizes
        // and the id of the codec that actually produced the stored
        // bytes.
        self.block[..COUNT_HEADER].copy_from_slice(&open.count.to_le_bytes());
        let (codec_id, stored) = masm_codec::encode_with(self.cfg.codec, &self.block);
        self.zones.push(ZoneMap {
            offset: self.bytes.len() as u64,
            len: stored.len() as u32,
            count: open.count,
            min_key: open.first_key,
            max_key: open.last_key,
            min_ts: open.min_ts,
            max_ts: open.max_ts,
            crc: crc32(&stored),
            raw_len: self.block.len() as u32,
            codec_id,
        });
        self.bytes.extend_from_slice(&stored);
        self.block.clear();
    }

    /// Append one entry whose value the caller writes in place: exactly
    /// `value_len` bytes appended to the buffer `write_value` is handed
    /// (the open block itself — nothing else may be done to it).
    /// Entries must arrive in `(key, ts)` order relative to everything
    /// appended before.
    ///
    /// The block budget applies to the **raw** (flat) encoding, so the
    /// zone count of a run — and with it the pinned metadata footprint
    /// — is identical whatever codec compresses the stored bytes.
    pub fn append(
        &mut self,
        key: u64,
        ts: u64,
        value_len: usize,
        write_value: impl FnOnce(&mut Vec<u8>),
    ) {
        debug_assert!(
            self.last_key().is_none_or(|k| k <= key),
            "entries must be appended in key order"
        );
        let len = u32::try_from(value_len).expect("entry value under 4 GiB");
        if self.open.is_some() && self.block.len() + ENTRY_HEADER + value_len > self.cfg.block_bytes
        {
            self.flush_block();
        }
        let open = self.open.get_or_insert_with(|| {
            self.block.extend_from_slice(&[0; COUNT_HEADER]);
            OpenBlock {
                count: 0,
                first_key: key,
                last_key: key,
                min_ts: ts,
                max_ts: ts,
            }
        });
        open.count += 1;
        open.last_key = key;
        open.min_ts = open.min_ts.min(ts);
        open.max_ts = open.max_ts.max(ts);
        self.block.extend_from_slice(&key.to_le_bytes());
        self.block.extend_from_slice(&ts.to_le_bytes());
        self.block.extend_from_slice(&len.to_le_bytes());
        let value_at = self.block.len();
        write_value(&mut self.block);
        assert_eq!(
            self.block.len(),
            value_at + value_len,
            "write_value must append exactly the length it declared"
        );
        self.keys.push(key);
    }

    /// [`RunBuilder::append`] for an entry that already exists.
    pub(crate) fn append_borrowed(&mut self, e: &Entry) {
        self.append(e.key, e.ts, e.value.len(), |out| {
            out.extend_from_slice(&e.value)
        });
    }

    /// [`RunBuilder::append`] for an entry the caller owns.
    pub fn append_entry(&mut self, e: Entry) {
        self.append_borrowed(&e);
    }

    /// Append a verbatim encoded data block with its original zone
    /// entry. `raw` is verified against `zone.crc` — and **never**
    /// decoded. Any buffered entries are flushed into their own block
    /// first; the moved block's keys must sort at or after everything
    /// appended so far.
    pub fn append_raw_block(&mut self, raw: &[u8], zone: &ZoneMap) -> BlockRunResult<()> {
        zone.check(raw, self.zones.len())?;
        debug_assert!(
            self.last_key().is_none_or(|k| k <= zone.min_key),
            "raw blocks must be appended in key order"
        );
        self.flush_block();
        self.zones.push(ZoneMap {
            offset: self.bytes.len() as u64,
            ..*zone
        });
        self.bytes.extend_from_slice(raw);
        self.raw_blocks += 1;
        self.raw_entries += zone.count as u64;
        Ok(())
    }

    /// Raw blocks appended so far.
    pub fn raw_blocks(&self) -> u64 {
        self.raw_blocks
    }

    /// Entries in the currently open (not yet compressed) block. The
    /// builder's only entry-granular in-memory state: streaming callers
    /// use this to assert their peak working set stays block-bounded.
    pub fn open_block_entries(&self) -> usize {
        self.open.map_or(0, |b| b.count as usize)
    }

    /// Entries appended so far (decoded entries + raw block counts).
    pub fn entry_count(&self) -> u64 {
        self.keys.len() as u64 + self.raw_entries
    }

    /// Finalize with the default bloom policy: build the filter from
    /// the appended keys when no raw block was moved (their keys were
    /// never observed), otherwise omit it. Compaction callers that can
    /// union the input filters use [`RunBuilder::finish_with_bloom`].
    pub fn finish(self) -> (BlockRunMeta, Vec<u8>) {
        let bloom = (self.raw_blocks == 0
            && self.cfg.bloom_bits_per_key > 0
            && !self.keys.is_empty())
        .then(|| BloomFilter::build(self.keys.iter().copied(), self.cfg.bloom_bits_per_key));
        self.finish_with_bloom(bloom)
    }

    /// Finalize with an explicit bloom filter (or none). The filter
    /// must accept every key in the run; a superset (e.g. the union of
    /// the input runs' filters) is fine — bloom filters only promise
    /// "definitely absent".
    pub fn finish_with_bloom(mut self, bloom: Option<BloomFilter>) -> (BlockRunMeta, Vec<u8>) {
        self.flush_block();
        let data_bytes = self.bytes.len() as u64;
        let entry_count: u64 = self.zones.iter().map(|z| z.count as u64).sum();

        // Index block: count, zone maps, CRC of the preceding bytes.
        let index_off = data_bytes;
        let mut index = Vec::with_capacity(4 + self.zones.len() * ZONE_MAP_LEN + 4);
        index.extend_from_slice(&(self.zones.len() as u32).to_le_bytes());
        for z in &self.zones {
            z.encode_into(&mut index);
        }
        seal(&mut index, 0);
        let index_len = index.len() as u64;
        self.bytes.extend_from_slice(&index);

        // Bloom block: encoded filter + CRC.
        let (bloom_off, bloom_len) = match &bloom {
            Some(b) => {
                let off = self.bytes.len() as u64;
                let mut enc = b.encode();
                seal(&mut enc, 0);
                self.bytes.extend_from_slice(&enc);
                (off, enc.len() as u64)
            }
            None => (0, 0),
        };

        let min_key = self.zones.first().map_or(u64::MAX, |z| z.min_key);
        let max_key = self.zones.last().map_or(0, |z| z.max_key);
        let min_ts = self
            .zones
            .iter()
            .map(|z| z.min_ts)
            .min()
            .unwrap_or(u64::MAX);
        let max_ts = self.zones.iter().map(|z| z.max_ts).max().unwrap_or(0);

        // Footer (fixed FOOTER_LEN bytes).
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        footer.extend_from_slice(&VERSION.to_le_bytes());
        footer.extend_from_slice(&(self.zones.len() as u32).to_le_bytes());
        footer.extend_from_slice(&entry_count.to_le_bytes());
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&index_len.to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&bloom_len.to_le_bytes());
        footer.extend_from_slice(&min_key.to_le_bytes());
        footer.extend_from_slice(&max_key.to_le_bytes());
        footer.extend_from_slice(&min_ts.to_le_bytes());
        footer.extend_from_slice(&max_ts.to_le_bytes());
        footer.extend_from_slice(&(self.cfg.codec.as_id() as u32).to_le_bytes());
        seal(&mut footer, 0);
        debug_assert_eq!(footer.len() as u64, FOOTER_LEN);
        self.bytes.extend_from_slice(&footer);

        let meta = BlockRunMeta {
            base: 0,
            total_bytes: self.bytes.len() as u64,
            data_bytes,
            entry_count,
            min_key,
            max_key,
            min_ts,
            max_ts,
            zones: self.zones,
            bloom,
            default_codec: self.cfg.codec,
        };
        (meta, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_block, flat_entry_len};
    use crate::format::{build_run, read_meta, write_built, BlockRunError, BlockRunScan};
    use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
    use std::sync::Arc;

    fn cfg() -> BlockRunConfig {
        BlockRunConfig {
            block_bytes: 128,
            bloom_bits_per_key: 10,
            codec: masm_codec::CodecChoice::Delta,
        }
    }

    fn cfg_with(codec: masm_codec::CodecChoice) -> BlockRunConfig {
        BlockRunConfig { codec, ..cfg() }
    }

    fn entries(keys: std::ops::Range<u64>) -> Vec<Entry> {
        keys.map(|k| Entry::new(k, k + 1, vec![k as u8; 8]))
            .collect()
    }

    /// Build `es` through [`build_run`] and check every data block on
    /// the "device" against an oracle that shares no code with the
    /// builder: the stored bytes, decoded through the zone's codec, are
    /// [`encode_block`] of exactly the entries the zone claims, and the
    /// zone's bounds are what that slice says.
    fn assert_blocks_match_encode_block(cfg: &BlockRunConfig, es: &[Entry]) -> BlockRunMeta {
        let (meta, bytes) = build_run(cfg, es);
        let mut at = 0usize;
        for (i, z) in meta.zones.iter().enumerate() {
            let what = format!("{:?}, budget {}, zone {i}", cfg.codec, cfg.block_bytes);
            let slice = &es[at..at + z.count as usize];
            let stored = &bytes[z.offset as usize..(z.offset + z.len as u64) as usize];
            assert_eq!(crc32(stored), z.crc, "{what}");
            let flat = match z.codec_id {
                masm_codec::IDENTITY => stored.to_vec(),
                id => masm_codec::codec_for(id)
                    .expect("known codec")
                    .decode(stored, z.raw_len as usize)
                    .expect("stored bytes decode"),
            };
            assert_eq!(flat, encode_block(slice), "{what}");
            assert_eq!(z.raw_len as usize, flat.len(), "{what}");
            let (first, last) = (&slice[0], &slice[slice.len() - 1]);
            assert_eq!((z.min_key, z.max_key), (first.key, last.key), "{what}");
            assert_eq!(
                z.min_ts,
                slice.iter().map(|e| e.ts).min().unwrap(),
                "{what}"
            );
            assert_eq!(
                z.max_ts,
                slice.iter().map(|e| e.ts).max().unwrap(),
                "{what}"
            );
            // Greedy fill: within budget unless one entry alone exceeds
            // it, and the next entry would not have fitted.
            assert!(flat.len() <= cfg.block_bytes || z.count == 1, "{what}");
            at += slice.len();
            if let Some(next) = es.get(at) {
                assert!(
                    flat.len() + flat_entry_len(next) > cfg.block_bytes,
                    "{what}"
                );
            }
        }
        assert_eq!(at, es.len());
        assert_eq!(meta.entry_count, es.len() as u64);
        meta
    }

    #[test]
    fn builder_matches_build_run_byte_for_byte() {
        use masm_codec::CodecChoice;
        for codec in CodecChoice::ALL {
            for block_bytes in [128usize, 4 << 10, 64 << 10] {
                let cfg = BlockRunConfig {
                    block_bytes,
                    codec,
                    ..cfg()
                };
                // Timestamps out of step with the keys, so a block's
                // min/max timestamp is not simply its first/last entry's.
                let entry =
                    |k: u64, len: usize| Entry::new(k, k * 7919 % 1009 + 1, vec![k as u8; len]);

                // Mixed sizes over many blocks, empty values included.
                let mixed: Vec<Entry> = (0..3000).map(|k| entry(k, (k % 37) as usize)).collect();
                let meta = assert_blocks_match_encode_block(&cfg, &mixed);
                assert!(meta.zones.len() > 1);

                // One entry; an entry larger than the whole budget.
                assert_blocks_match_encode_block(&cfg, &[entry(5, 3)]);
                assert_blocks_match_encode_block(
                    &cfg,
                    &[entry(1, 0), entry(2, block_bytes), entry(3, 0)],
                );

                // Only empty values.
                let empty: Vec<Entry> = (0..500).map(|k| entry(k, 0)).collect();
                assert_blocks_match_encode_block(&cfg, &empty);

                // Blocks filled to the last byte of the budget: the
                // entry that would cross it opens the next block.
                let len = (0..block_bytes)
                    .find(|v| (block_bytes - COUNT_HEADER).is_multiple_of(ENTRY_HEADER + v))
                    .expect("some value length divides the budget");
                let per_block = (block_bytes - COUNT_HEADER) / (ENTRY_HEADER + len);
                let full: Vec<Entry> = (0..3 * per_block as u64).map(|k| entry(k, len)).collect();
                let meta = assert_blocks_match_encode_block(&cfg, &full);
                assert_eq!(meta.zones.len(), 3);
                assert!(meta.zones.iter().all(|z| z.raw_len as usize == block_bytes));
            }
        }

        // The owned-entry wrapper is the same append.
        let es = entries(0..500);
        let mut b = RunBuilder::new(cfg());
        for e in es.iter().cloned() {
            b.append_entry(e);
        }
        assert_eq!(b.finish().1, build_run(&cfg(), &es).1);
    }

    #[test]
    fn raw_blocks_stitch_with_preserved_crcs() {
        // Build a source run, then move all of its blocks into a new
        // run through the raw path; CRCs and bytes must be identical.
        let es = entries(0..300);
        let (src_meta, src_bytes) = build_run(&cfg(), &es);
        assert!(src_meta.zones.len() > 2);

        let mut b = RunBuilder::new(cfg());
        for z in &src_meta.zones {
            let raw = &src_bytes[z.offset as usize..(z.offset + z.len as u64) as usize];
            b.append_raw_block(raw, z).unwrap();
        }
        assert_eq!(b.raw_blocks(), src_meta.zones.len() as u64);
        let (meta, bytes) = b.finish();
        assert_eq!(meta.entry_count, src_meta.entry_count);
        assert!(meta.bloom.is_none(), "moved keys were never observed");
        for (out, src) in meta.zones.iter().zip(&src_meta.zones) {
            assert_eq!(out.crc, src.crc, "CRC preserved verbatim");
            assert_eq!(out.len, src.len);
            assert_eq!(
                crc32(&bytes[out.offset as usize..(out.offset + out.len as u64) as usize]),
                out.crc
            );
        }
    }

    #[test]
    fn interleaved_entries_and_raw_blocks_scan_in_order() {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let s = SessionHandle::fresh(clock);

        // Raw source covering keys 1000..1300.
        let (src_meta, src_bytes) = build_run(&cfg(), &entries(1000..1300));

        let mut b = RunBuilder::new(cfg());
        for e in entries(0..100) {
            b.append_entry(e);
        }
        for z in &src_meta.zones {
            let raw = &src_bytes[z.offset as usize..(z.offset + z.len as u64) as usize];
            b.append_raw_block(raw, z).unwrap();
        }
        for e in entries(2000..2100) {
            b.append_entry(e);
        }
        let (mut meta, bytes) = b.finish();
        meta.base = 0;
        write_built(&s, &dev, &meta, &bytes).unwrap();

        let back = read_meta(&s, &dev, 0, meta.total_bytes).unwrap();
        assert_eq!(back.zones, meta.zones);
        let got: Vec<u64> = BlockRunScan::new(dev, s, Arc::new(back), None, 1, 0, u64::MAX)
            .map(|e| e.key)
            .collect();
        let want: Vec<u64> = (0..100).chain(1000..1300).chain(2000..2100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn mixed_codec_raw_blocks_relink_verbatim() {
        use masm_codec::CodecChoice;
        // Three source runs, one per codec, in disjoint key bands; every
        // block moves through the raw path into one output run.
        let sources: Vec<(BlockRunMeta, Vec<u8>)> = [
            (CodecChoice::Identity, 0u64),
            (CodecChoice::Delta, 1000),
            (CodecChoice::Lz, 2000),
        ]
        .into_iter()
        .map(|(codec, base)| build_run(&cfg_with(codec), &entries(base..base + 200)))
        .collect();

        let mut b = RunBuilder::new(cfg());
        for (meta, bytes) in &sources {
            for z in &meta.zones {
                let raw = &bytes[z.offset as usize..(z.offset + z.len as u64) as usize];
                b.append_raw_block(raw, z).unwrap();
            }
        }
        let (out, out_bytes) = b.finish();
        let src_zones: Vec<&ZoneMap> = sources.iter().flat_map(|(m, _)| m.zones.iter()).collect();
        assert_eq!(out.zones.len(), src_zones.len());
        for (z, src) in out.zones.iter().zip(src_zones) {
            assert_eq!(
                (z.codec_id, z.crc, z.len, z.raw_len),
                (src.codec_id, src.crc, src.len, src.raw_len),
                "codec id and sizes preserved verbatim"
            );
        }
        // The stitched run still decodes every band in key order.
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let s = SessionHandle::fresh(clock);
        let mut meta = out;
        meta.base = 0;
        write_built(&s, &dev, &meta, &out_bytes).unwrap();
        let got: Vec<u64> = BlockRunScan::new(dev, s, Arc::new(meta), None, 1, 0, u64::MAX)
            .map(|e| e.key)
            .collect();
        let want: Vec<u64> = (0..200).chain(1000..1200).chain(2000..2200).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn corrupted_raw_block_is_rejected() {
        let (src_meta, src_bytes) = build_run(&cfg(), &entries(0..100));
        let z = &src_meta.zones[0];
        let mut raw = src_bytes[z.offset as usize..(z.offset + z.len as u64) as usize].to_vec();
        raw[5] ^= 0xFF;
        let mut b = RunBuilder::new(cfg());
        assert!(matches!(
            b.append_raw_block(&raw, z),
            Err(BlockRunError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            b.append_raw_block(&raw[..raw.len() - 1], z),
            Err(BlockRunError::Corrupt(_))
        ));
    }

    #[test]
    fn finish_with_union_bloom_covers_all_keys() {
        let a = BloomFilter::build(0..100, 10);
        let b = BloomFilter::build(100..200, 10);
        let union = a.union(&b).expect("same geometry");
        let (src_meta, src_bytes) = build_run(&cfg(), &entries(0..200));
        let mut builder = RunBuilder::new(cfg());
        for z in &src_meta.zones {
            let raw = &src_bytes[z.offset as usize..(z.offset + z.len as u64) as usize];
            builder.append_raw_block(raw, z).unwrap();
        }
        let (meta, _) = builder.finish_with_bloom(Some(union));
        for k in 0..200u64 {
            let hashes = crate::bloom::BloomFilter::hashes_of(k);
            assert!(meta.might_contain(k, hashes), "no false negatives for {k}");
        }
    }

    #[test]
    fn empty_builder_finishes_to_empty_run() {
        let (meta, bytes) = RunBuilder::new(cfg()).finish();
        assert_eq!(meta.entry_count, 0);
        assert!(meta.zones.is_empty());
        let (want_meta, want_bytes) = build_run(&cfg(), &[]);
        assert_eq!(bytes, want_bytes);
        assert_eq!(meta.zones, want_meta.zones);
    }
}
