//! The on-SSD block-run format: writer, metadata reader, range scan,
//! and point lookup.
//!
//! A block run is laid out as one strictly sequential byte stream:
//!
//! ```text
//! base                                                    base+total_bytes
//! │                                                                     │
//! ▼                                                                     ▼
//! ┌─────────┬─────────┬───┬─────────┬─────────────┬─────────────┬────────┐
//! │ block 0 │ block 1 │ … │ block n │ index block │ bloom block │ footer │
//! └─────────┴─────────┴───┴─────────┴─────────────┴─────────────┴────────┘
//!   data blocks (≤ block_bytes     zone maps +     optional,     fixed
//!   of raw entries each, then      CRC             k + bits +    96 B
//!   codec-compressed; CRC in                       CRC
//!   the zone map)
//! ```
//!
//! * **Data blocks** — [`crate::block::encode_block`] output compressed
//!   through the run's codec ([`masm_codec`]), the I/O unit of every
//!   read (64 KB of *raw* entry bytes by default, the paper's §4.1 SSD
//!   page; the stored block is whatever the codec left of it).
//! * **Index block** — one [`ZoneMap`] per data block: byte offset,
//!   stored length, entry count, min/max key, min/max timestamp, the
//!   CRC-32 of the stored block bytes, the raw (uncompressed) length,
//!   and the id of the codec that produced the stored bytes. The
//!   `(min_key → offset)` mapping doubles as the first-key index; the
//!   min/max columns prune blocks from scans.
//! * **Bloom block** — optional per-run filter over all keys for point
//!   lookups ([`crate::bloom::BloomFilter`]).
//! * **Footer** — magic, version, region geometry, run-wide key/ts
//!   bounds, the writer's default codec choice, and its own CRC; always
//!   the trailing `FOOTER_LEN` bytes, so a reader needs only
//!   `(base, total_bytes)` to bootstrap.
//!
//! Everything is written front to back in one pass — the writer never
//! seeks backwards, preserving MaSM's `random_writes == 0` invariant on
//! the simulated SSD.

use std::fmt;
use std::sync::Arc;

use masm_codec::bytes::{open, verify, Reader};
use masm_codec::CodecChoice;
use masm_storage::{CompressionReport, IoTicket, SessionHandle, SimDevice, StorageError};

use crate::block::{Entry, EntryRef, FlatBlock};
use crate::bloom::{BloomFilter, KeyHashes};
use crate::cache::{BlockCache, CachedBlock, StoredBlock};

/// `b"MASMBRUN"` as a little-endian u64.
pub(crate) const MAGIC: u64 = u64::from_le_bytes(*b"MASMBRUN");
/// Format version written into footers. Version 2 added the codec stage
/// (per-zone codec id + raw length, footer default-codec field).
pub(crate) const VERSION: u32 = 2;
/// Fixed footer size in bytes.
pub(crate) const FOOTER_LEN: u64 = 96;
/// Encoded size of one [`ZoneMap`] in the index block.
pub(crate) const ZONE_MAP_LEN: usize = 57;

/// Errors from reading or writing block runs.
#[derive(Debug)]
pub enum BlockRunError {
    /// Underlying device failure.
    Storage(StorageError),
    /// Structurally invalid bytes (bad magic, truncation, bad counts).
    Corrupt(&'static str),
    /// A region's CRC-32 did not match its bytes.
    ChecksumMismatch {
        /// Which region failed ("block", "index", "bloom", "footer").
        region: &'static str,
        /// Block index for data blocks, 0 otherwise.
        index: u32,
    },
    /// A footer or zone-map entry names a codec this build does not
    /// know — a run written by a newer build (or corruption that kept
    /// its CRCs intact). The run fails open with this typed error; it
    /// is never decoded on a guess.
    UnknownCodec {
        /// The unrecognized codec id.
        id: u32,
    },
}

impl fmt::Display for BlockRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockRunError::Storage(e) => write!(f, "storage: {e}"),
            BlockRunError::Corrupt(what) => write!(f, "corrupt block run: {what}"),
            BlockRunError::ChecksumMismatch { region, index } => {
                write!(f, "checksum mismatch in {region} {index}")
            }
            BlockRunError::UnknownCodec { id } => {
                write!(f, "unknown codec id {id}")
            }
        }
    }
}

impl std::error::Error for BlockRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockRunError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for BlockRunError {
    fn from(e: StorageError) -> Self {
        BlockRunError::Storage(e)
    }
}

/// Convenience alias.
pub type BlockRunResult<T> = Result<T, BlockRunError>;

/// Writer/reader knobs.
#[derive(Debug, Clone)]
pub struct BlockRunConfig {
    /// Target **raw** (flat, pre-codec) size of one data block — the
    /// decode unit of every read (64 KB by default, matching the
    /// paper's §4.1 SSD page). Budgeting the raw size keeps the zone
    /// count — and thus the pinned metadata footprint — identical
    /// across codecs; the stored block is whatever the codec leaves.
    pub block_bytes: usize,
    /// Bloom-filter budget in bits per key; 0 disables the filter.
    pub bloom_bits_per_key: u32,
    /// The codec every data block is encoded with; each block's
    /// zone-map entry records the id actually stored (identity where the
    /// codec fails on the block, see [`masm_codec::encode_with`]).
    pub codec: CodecChoice,
}

impl Default for BlockRunConfig {
    fn default() -> Self {
        BlockRunConfig {
            block_bytes: 64 * 1024,
            bloom_bits_per_key: 10,
            codec: CodecChoice::Delta,
        }
    }
}

/// Per-block metadata: location, entry statistics, and integrity.
///
/// The vector of zone maps *is* the index block: entries are ordered by
/// `min_key`, so a binary search finds the blocks overlapping any key
/// range, and min/max timestamps allow time-based pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Byte offset of the block, relative to the run base.
    pub offset: u64,
    /// Stored (on-disk, post-codec) length in bytes — the read I/O size.
    pub len: u32,
    /// Number of entries.
    pub count: u32,
    /// Smallest key in the block.
    pub min_key: u64,
    /// Largest key in the block.
    pub max_key: u64,
    /// Smallest timestamp in the block.
    pub min_ts: u64,
    /// Largest timestamp in the block.
    pub max_ts: u64,
    /// CRC-32 of the stored block bytes (checked before the codec runs).
    pub crc: u32,
    /// Raw (flat, pre-codec) length in bytes — what the codec's decode
    /// must produce; also feeds the [`BlockRunMeta::compression`]
    /// accounting. (The cache charges decoded *entry* weight for
    /// capacity and tracks `len` as `disk_bytes` — see
    /// [`crate::cache::BlockCache::insert`].)
    pub raw_len: u32,
    /// Id of the codec that produced the stored bytes
    /// ([`masm_codec::codec_for`]). Moved blocks carry this verbatim
    /// through compaction.
    pub codec_id: u8,
}

impl ZoneMap {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.min_key.to_le_bytes());
        out.extend_from_slice(&self.max_key.to_le_bytes());
        out.extend_from_slice(&self.min_ts.to_le_bytes());
        out.extend_from_slice(&self.max_ts.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.push(self.codec_id);
    }

    fn read(r: &mut Reader<'_>) -> Option<ZoneMap> {
        Some(ZoneMap {
            offset: r.u64()?,
            len: r.u32()?,
            count: r.u32()?,
            min_key: r.u64()?,
            max_key: r.u64()?,
            min_ts: r.u64()?,
            max_ts: r.u64()?,
            crc: r.u32()?,
            raw_len: r.u32()?,
            codec_id: r.u8()?,
        })
    }

    /// `stored`, if it is the block this zone describes: its stored
    /// length, and the CRC over it — checked before any codec runs, so
    /// truncation or bit rot never reaches a decoder. `index` names the
    /// block in the error.
    pub(crate) fn check<'a>(&self, stored: &'a [u8], index: usize) -> BlockRunResult<&'a [u8]> {
        if stored.len() != self.len as usize {
            return Err(BlockRunError::Corrupt("block length != zone length"));
        }
        verify(stored, self.crc).ok_or(BlockRunError::ChecksumMismatch {
            region: "block",
            index: index as u32,
        })
    }
}

/// Whether `zones` tile the data region `[0, data_bytes)` back to back
/// and in key order, as compaction's move path (which slices blocks out
/// of one read) and [`BlockRunMeta::blocks_overlapping`] assume.
fn zones_tile(zones: &[ZoneMap], data_bytes: u64) -> bool {
    let mut end = 0u64;
    let mut prev_max = 0u64;
    for z in zones {
        if z.offset != end || z.min_key > z.max_key || z.min_key < prev_max {
            return false;
        }
        let Some(next) = end.checked_add(z.len as u64) else {
            return false;
        };
        end = next;
        prev_max = z.max_key;
    }
    end == data_bytes
}

/// In-memory metadata of one block run: everything a reader needs to
/// plan I/O without touching the data blocks.
#[derive(Debug, Clone)]
pub struct BlockRunMeta {
    /// Byte offset of the run on the device.
    pub base: u64,
    /// Total encoded bytes (data + index + bloom + footer).
    pub total_bytes: u64,
    /// Bytes of the data-block region alone.
    pub data_bytes: u64,
    /// Total entries across all blocks.
    pub entry_count: u64,
    /// Smallest key in the run (`u64::MAX` when empty).
    pub min_key: u64,
    /// Largest key in the run (0 when empty).
    pub max_key: u64,
    /// Smallest timestamp in the run (`u64::MAX` when empty).
    pub min_ts: u64,
    /// Largest timestamp in the run (0 when empty).
    pub max_ts: u64,
    /// One zone map per data block, ordered by `min_key`.
    pub zones: Vec<ZoneMap>,
    /// Optional per-run bloom filter over all keys.
    pub bloom: Option<BloomFilter>,
    /// The codec the run was written with. Informational — each block
    /// records the codec actually used in its zone entry (a compacted
    /// run that moved blocks verbatim mixes ids block by block).
    pub default_codec: CodecChoice,
}

impl BlockRunMeta {
    /// Indices of the data blocks that may contain keys in
    /// `[begin, end]` (a contiguous range, since blocks are key-ordered
    /// and disjoint up to shared boundary keys).
    pub fn blocks_overlapping(&self, begin: u64, end: u64) -> std::ops::Range<usize> {
        if end < begin {
            return 0..0;
        }
        let first = self.zones.partition_point(|z| z.max_key < begin);
        let last = self.zones.partition_point(|z| z.min_key <= end);
        first..last.max(first)
    }

    /// Whether `key` may be present: the run's key bounds first, then
    /// the bloom filter when one exists. `false` means definitely
    /// absent. `hashes` is [`BloomFilter::hashes_of`]`(key)` — the
    /// caller's, so that probing many runs hashes the key once.
    #[inline]
    pub fn might_contain(&self, key: u64, hashes: KeyHashes) -> bool {
        if key < self.min_key || key > self.max_key {
            return false;
        }
        self.bloom
            .as_ref()
            .is_none_or(|b| b.contains_hashed(hashes))
    }

    /// In-memory footprint of the zone maps + bloom filter (the run's
    /// metadata cost, the analogue of the old sparse index's
    /// `memory_bytes`).
    pub fn memory_bytes(&self) -> usize {
        self.zones.len() * std::mem::size_of::<ZoneMap>()
            + self.bloom.as_ref().map_or(0, |b| b.bit_bytes())
    }

    /// Per-run compression accounting from the zone maps alone: raw
    /// (decoded) versus stored (on-disk) data-block bytes, and how many
    /// blocks each codec stored.
    pub fn compression(&self) -> CompressionReport {
        let mut report = CompressionReport {
            runs: 1,
            ..CompressionReport::default()
        };
        for z in &self.zones {
            report.blocks += 1;
            report.raw_bytes += z.raw_len as u64;
            report.stored_bytes += z.len as u64;
            match z.codec_id {
                masm_codec::IDENTITY => report.blocks_identity += 1,
                masm_codec::DELTA => report.blocks_delta += 1,
                masm_codec::LZ => report.blocks_lz += 1,
                _ => {}
            }
        }
        report
    }

    /// A metadata-only stand-in for unit tests that never touch the
    /// device (no zones, no bloom).
    pub fn synthetic(min_key: u64, max_key: u64, min_ts: u64, max_ts: u64, count: u64) -> Self {
        BlockRunMeta {
            base: 0,
            total_bytes: 0,
            data_bytes: 0,
            entry_count: count,
            min_key,
            max_key,
            min_ts,
            max_ts,
            zones: Vec::new(),
            bloom: None,
            default_codec: CodecChoice::Identity,
        }
    }
}

/// Build the full encoded byte stream and metadata of a run from
/// key-ordered entries, without touching any device. `meta.base` is 0;
/// the caller rebases when it decides where the run lives. (A thin
/// wrapper over [`crate::builder::RunBuilder`], which additionally
/// supports stitching in raw verbatim blocks during compaction.)
pub fn build_run(cfg: &BlockRunConfig, entries: &[Entry]) -> (BlockRunMeta, Vec<u8>) {
    debug_assert!(
        entries
            .windows(2)
            .all(|w| (w[0].key, w[0].ts) <= (w[1].key, w[1].ts)),
        "entries must be sorted by (key, ts)"
    );
    let mut builder = crate::builder::RunBuilder::new(cfg.clone());
    for e in entries {
        builder.append_borrowed(e);
    }
    builder.finish()
}

/// Write an already-built run's bytes at `meta.base`, strictly
/// sequentially: one I/O per data block (the block is the I/O unit),
/// one for the index + bloom region, one for the footer.
pub fn write_built(
    session: &SessionHandle,
    dev: &SimDevice,
    meta: &BlockRunMeta,
    bytes: &[u8],
) -> BlockRunResult<()> {
    debug_assert_eq!(bytes.len() as u64, meta.total_bytes);
    let mut boundaries: Vec<u64> = meta.zones.iter().map(|z| z.offset).collect();
    boundaries.push(meta.data_bytes);
    boundaries.push(meta.total_bytes - FOOTER_LEN);
    boundaries.push(meta.total_bytes);
    boundaries.dedup();
    let mut prev = 0u64;
    for b in boundaries {
        if b > prev {
            session.write(dev, meta.base + prev, &bytes[prev as usize..b as usize])?;
            prev = b;
        }
    }
    Ok(())
}

/// Materialize a run at `base`: build the byte stream and write it
/// strictly sequentially via [`write_built`].
pub fn write_run(
    session: &SessionHandle,
    dev: &SimDevice,
    base: u64,
    cfg: &BlockRunConfig,
    entries: &[Entry],
) -> BlockRunResult<BlockRunMeta> {
    let (mut meta, bytes) = build_run(cfg, entries);
    meta.base = base;
    write_built(session, dev, &meta, &bytes)?;
    Ok(meta)
}

/// The body of a sealed metadata region (footer, index, bloom), or the
/// checksum error naming it.
fn open_region<'a>(data: &'a [u8], region: &'static str) -> BlockRunResult<&'a [u8]> {
    open(data).ok_or(BlockRunError::ChecksumMismatch { region, index: 0 })
}

/// Load and verify a run's metadata from its footer, index block, and
/// bloom block. Only `(base, total_bytes)` need to be known (they come
/// from the engine's WAL), and they are trusted no more than the bytes:
/// every offset sum is checked, and a region or zone outside the run is
/// [`BlockRunError::Corrupt`].
pub fn read_meta(
    session: &SessionHandle,
    dev: &SimDevice,
    base: u64,
    total_bytes: u64,
) -> BlockRunResult<BlockRunMeta> {
    const OUT_OF_BOUNDS: BlockRunError = BlockRunError::Corrupt("region out of bounds");
    if total_bytes < FOOTER_LEN {
        return Err(BlockRunError::Corrupt("run shorter than footer"));
    }
    let end = base.checked_add(total_bytes).ok_or(OUT_OF_BOUNDS)?;
    let footer = session.read(dev, end - FOOTER_LEN, FOOTER_LEN)?;
    let mut r = Reader::new(open_region(&footer, "footer")?);
    if r.u64() != Some(MAGIC) {
        return Err(BlockRunError::Corrupt("bad magic"));
    }
    if r.u32() != Some(VERSION) {
        return Err(BlockRunError::Corrupt("unsupported version"));
    }
    // The rest: block count, nine `u64` fields, the codec choice.
    let (block_count, words, codec_raw) = (r.u32(), r.words(9), r.u32());
    let (
        Some(block_count),
        Some(
            &[entry_count, index_off, index_len, bloom_off, bloom_len, min_key, max_key, min_ts, max_ts],
        ),
        Some(codec_raw),
        Some(()),
    ) = (block_count, words.as_deref(), codec_raw, r.finish())
    else {
        return Err(BlockRunError::Corrupt("footer"));
    };
    let default_codec = u8::try_from(codec_raw)
        .ok()
        .and_then(CodecChoice::from_id)
        .ok_or(BlockRunError::UnknownCodec { id: codec_raw })?;

    let within = |off: u64, len: u64| off.checked_add(len).is_some_and(|e| e <= total_bytes);
    if !within(index_off, index_len) || !within(bloom_off, bloom_len) {
        return Err(OUT_OF_BOUNDS);
    }
    // Both regions end inside the run, so `base + off` cannot overflow.
    let index = session.read(dev, base + index_off, index_len)?;
    let mut r = Reader::new(open_region(&index, "index")?);
    const INDEX: BlockRunError = BlockRunError::Corrupt("index block");
    let n = r.u32().ok_or(INDEX)? as usize;
    if n != block_count as usize || r.remaining() != n * ZONE_MAP_LEN {
        return Err(INDEX);
    }
    let mut zones = Vec::with_capacity(n);
    for _ in 0..n {
        let zone = ZoneMap::read(&mut r).ok_or(INDEX)?;
        // Validate codec ids up front: a run naming a codec this build
        // lacks fails open here, typed, before any block is fetched.
        if masm_codec::codec_for(zone.codec_id).is_none() {
            return Err(BlockRunError::UnknownCodec {
                id: zone.codec_id as u32,
            });
        }
        zones.push(zone);
    }
    if !zones_tile(&zones, index_off) {
        return Err(BlockRunError::Corrupt("zone layout"));
    }

    let bloom = if bloom_len > 0 {
        let raw = session.read(dev, base + bloom_off, bloom_len)?;
        let body = open_region(&raw, "bloom")?;
        Some(BloomFilter::decode(body).ok_or(BlockRunError::Corrupt("bloom filter"))?)
    } else {
        None
    };

    Ok(BlockRunMeta {
        base,
        total_bytes,
        data_bytes: index_off,
        entry_count,
        min_key,
        max_key,
        min_ts,
        max_ts,
        zones,
        bloom,
        default_codec,
    })
}

/// Run (already verified) stored block bytes back through their codec
/// and index the flat bytes it returns, which become the block — shared
/// by the device read path ([`decode_device_block`]) and the cache's
/// tier-2 promotion ([`crate::cache::StoredBlock`]), so the two can
/// never diverge. Every codec, the identity included, answers for
/// `raw_len`: a zone that lies about it is a corrupt payload.
pub(crate) fn decode_stored_bytes(
    stored: &[u8],
    codec_id: u8,
    raw_len: usize,
) -> BlockRunResult<FlatBlock> {
    let codec = masm_codec::codec_for(codec_id).ok_or(BlockRunError::UnknownCodec {
        id: codec_id as u32,
    })?;
    let flat = codec
        .decode(stored, raw_len)
        .map_err(|_| BlockRunError::Corrupt("block codec payload"))?;
    FlatBlock::parse(flat).ok_or(BlockRunError::Corrupt("block entries"))
}

/// Block `idx` as read from the device: its stored bytes CRC-verified
/// (before any codec decode work, or its allocations, happens), run
/// back through the zone's codec, indexed, and — with a cache —
/// inserted with the stored bytes, so a later tier-1 eviction can
/// demote the compressed form to the victim tier.
fn decode_device_block(
    raw: Vec<u8>,
    zone: &ZoneMap,
    idx: usize,
    cache: Option<(&BlockCache, u64)>,
) -> BlockRunResult<CachedBlock> {
    let flat = decode_stored_bytes(zone.check(&raw, idx)?, zone.codec_id, zone.raw_len as usize)?;
    let block = Arc::new(flat);
    if let Some((cache, run_key)) = cache {
        let stored = StoredBlock {
            bytes: Arc::new(raw),
            codec_id: zone.codec_id,
            raw_len: zone.raw_len,
        };
        cache.insert((run_key, idx as u32), Arc::clone(&block), stored);
    }
    Ok(block)
}

/// Read data block `idx`, serving from `cache` when possible; a device
/// read is CRC-verified, decoded, and inserted into the cache.
/// `run_key` identifies the run in the cache keyspace (engine run ids —
/// never reused).
pub fn read_block(
    session: &SessionHandle,
    dev: &SimDevice,
    meta: &BlockRunMeta,
    idx: usize,
    cache: Option<(&BlockCache, u64)>,
) -> BlockRunResult<CachedBlock> {
    let zone = meta
        .zones
        .get(idx)
        .ok_or(BlockRunError::Corrupt("block index"))?;
    if let Some((cache, run_key)) = cache {
        if let Some(hit) = cache.get((run_key, idx as u32)) {
            return Ok(hit);
        }
    }
    let raw = session.read(dev, meta.base + zone.offset, zone.len as u64)?;
    decode_device_block(raw, zone, idx, cache)
}

/// Show `visit` every entry for `key` in this run, in timestamp order,
/// borrowed from its (cached) block: key bounds → bloom filter → the
/// one or two blocks whose zone covers the key. Nothing is materialised
/// — a miss costs no allocation, and zero I/O when the bounds or the
/// filter exclude the key; a hit costs zero *device* I/O when its block
/// is cached. `hashes` is [`BloomFilter::hashes_of`]`(key)`, computed by
/// the caller so a lookup over many runs hashes once.
pub fn point_lookup(
    session: &SessionHandle,
    dev: &SimDevice,
    meta: &BlockRunMeta,
    key: u64,
    hashes: KeyHashes,
    cache: Option<(&BlockCache, u64)>,
    mut visit: impl FnMut(EntryRef<'_>),
) -> BlockRunResult<()> {
    if !meta.might_contain(key, hashes) {
        return Ok(());
    }
    for idx in meta.blocks_overlapping(key, key) {
        let block = read_block(session, dev, meta, idx, cache)?;
        let start = block.partition_point(|k| k < key);
        (start..block.len())
            .map(|i| block.get(i))
            .take_while(|e| e.key == key)
            .for_each(&mut visit);
    }
    Ok(())
}

/// Streaming scan of one run restricted to `[begin, end]`.
///
/// Zone maps select the contiguous block range to visit; each needed
/// block comes from the cache when resident, otherwise from an
/// asynchronous device read issued while earlier blocks decode (the
/// paper's §3.7 libaio overlap). Up to `prefetch_depth` reads of this
/// scan are kept in flight (1 by default; the engine's merges give each
/// of their k scans a depth of min(k, 16) via
/// [`BlockRunScan::with_prefetch_depth`], so a k-way merge keeps up to
/// k·min(k, 16) reads queued). The iterator stops early on a checksum
/// or device error, which [`BlockRunScan::stop`] then hands over.
pub struct BlockRunScan {
    dev: SimDevice,
    session: SessionHandle,
    meta: Arc<BlockRunMeta>,
    cache: Option<Arc<BlockCache>>,
    run_key: u64,
    begin: u64,
    end: u64,
    /// Next block index to consume.
    next_idx: usize,
    /// Next block index eligible for prefetch (≥ `next_idx`).
    prefetch_idx: usize,
    /// One past the last block index to consume.
    end_idx: usize,
    /// Maximum reads kept in flight.
    prefetch_depth: usize,
    /// In-flight reads, in ascending block order.
    pending: std::collections::VecDeque<(usize, IoTicket)>,
    /// The block being consumed (shared with the cache, never copied)
    /// and the index range of its entries still to yield: the part of
    /// `[begin, end]` in it, cut by two binary searches of its keys.
    block: Option<CachedBlock>,
    unread: std::ops::Range<usize>,
    bytes_read: u64,
    error: Option<BlockRunError>,
    /// Optional latency sink: one sample per block acquired, measuring
    /// the session-time stall (virtual-ns) to obtain it — ≈0 for cache
    /// hits, the device wait for misses.
    fetch_hist: Option<Arc<masm_telemetry::Histogram>>,
    /// Optional flight recorder: one `block.fetch` span per block
    /// acquired and one `block.prefetch` instant per async read issued.
    tracer: Option<Arc<masm_telemetry::Tracer>>,
}

impl BlockRunScan {
    /// Open a scan of `[begin, end]` with a prefetch depth of 1.
    pub fn new(
        dev: SimDevice,
        session: SessionHandle,
        meta: Arc<BlockRunMeta>,
        cache: Option<Arc<BlockCache>>,
        run_key: u64,
        begin: u64,
        end: u64,
    ) -> Self {
        let range = meta.blocks_overlapping(begin, end);
        let mut scan = BlockRunScan {
            dev,
            session,
            meta,
            cache,
            run_key,
            begin,
            end,
            next_idx: range.start,
            prefetch_idx: range.start,
            end_idx: range.end,
            prefetch_depth: 1,
            pending: std::collections::VecDeque::new(),
            block: None,
            unread: 0..0,
            bytes_read: 0,
            error: None,
            fetch_hist: None,
            tracer: None,
        };
        // Issue the first read immediately: a query opens all its run
        // scans at once, so their first SSD reads queue together and
        // overlap across runs.
        scan.fill_prefetch();
        scan
    }

    /// Keep up to `depth` reads in flight (clamped to ≥ 1). Merge and
    /// migration paths set this to the merge fan-in.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth.max(1);
        self.fill_prefetch();
        self
    }

    /// Record per-block fetch stalls (virtual-ns of session time spent
    /// obtaining each block) into `hist`. Cache hits record ≈0, misses
    /// record the device wait — the histogram separates the two
    /// populations by itself, no extra counters needed.
    pub fn with_fetch_histogram(mut self, hist: Arc<masm_telemetry::Histogram>) -> Self {
        self.fetch_hist = Some(hist);
        self
    }

    /// Emit `block.fetch` spans (one per block acquired, cache hits
    /// included at ≈0 duration) and `block.prefetch` instants (one per
    /// async read issued) to `tracer`, on process track 0. An emit
    /// takes the recorder's one short lock and drops on overflow, so
    /// the scan never waits on a consumer.
    pub fn with_trace(mut self, tracer: Arc<masm_telemetry::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    fn trace_track(&self) -> masm_telemetry::TrackId {
        masm_telemetry::TrackId {
            tid: masm_telemetry::current_tid(),
        }
    }

    /// Bytes actually read from the device (cache hits cost nothing).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// End the scan here — it yields nothing more — and hand over the
    /// error that had stopped it, if one had.
    pub fn stop(&mut self) -> Option<BlockRunError> {
        self.next_idx = self.end_idx;
        self.unread = 0..0;
        self.error.take()
    }

    /// Issue async reads until `prefetch_depth` are in flight, skipping
    /// cache-resident blocks.
    fn fill_prefetch(&mut self) {
        if self.error.is_some() {
            return;
        }
        self.prefetch_idx = self.prefetch_idx.max(self.next_idx);
        while self.pending.len() < self.prefetch_depth && self.prefetch_idx < self.end_idx {
            let idx = self.prefetch_idx;
            self.prefetch_idx += 1;
            if let Some(cache) = &self.cache {
                if cache.contains((self.run_key, idx as u32)) {
                    continue;
                }
            }
            let zone = self.meta.zones[idx];
            match self
                .session
                .read_async(&self.dev, self.meta.base + zone.offset, zone.len as u64)
            {
                Ok(ticket) => {
                    self.bytes_read += zone.len as u64;
                    if let Some(t) = &self.tracer {
                        t.instant(
                            "block.prefetch",
                            self.trace_track(),
                            self.session.now(),
                            "bytes",
                            zone.len as u64,
                        );
                    }
                    self.pending.push_back((idx, ticket));
                }
                Err(e) => {
                    self.error = Some(e.into());
                    return;
                }
            }
        }
    }

    /// Block `idx`: from its prefetched read, from the cache, or — if
    /// it was evicted since prefetch skipped it — from a synchronous
    /// read; a block off the device is verified, decoded and cached.
    fn fetch(&mut self, idx: usize) -> BlockRunResult<CachedBlock> {
        let raw = if self.pending.front().is_some_and(|(p, _)| *p == idx) {
            // The block came from the device via prefetch, not from
            // `cache.get` — still a miss for the hit-rate accounting.
            let (_, ticket) = self.pending.pop_front().expect("front checked");
            if let Some(cache) = &self.cache {
                cache.record_bypass_miss();
            }
            self.session.wait(ticket)
        } else if let Some(hit) = self
            .cache
            .as_ref()
            .and_then(|c| c.get((self.run_key, idx as u32)))
        {
            self.fill_prefetch();
            return Ok(hit);
        } else {
            let zone = self.meta.zones[idx];
            let raw =
                self.session
                    .read(&self.dev, self.meta.base + zone.offset, zone.len as u64)?;
            self.bytes_read += zone.len as u64;
            raw
        };
        // Overlap: issue further reads before decoding this one.
        self.fill_prefetch();
        let cache = self.cache.as_deref().map(|c| (c, self.run_key));
        decode_device_block(raw, &self.meta.zones[idx], idx, cache)
    }

    /// Make the next block the current one; false when exhausted.
    fn refill(&mut self) -> bool {
        if self.error.is_some() || self.next_idx >= self.end_idx {
            return false;
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        let fetch_start =
            (self.fetch_hist.is_some() || self.tracer.is_some()).then(|| self.session.now());

        let block = match self.fetch(idx) {
            Ok(block) => block,
            Err(e) => {
                self.error = Some(e);
                return false;
            }
        };

        if let Some(start) = fetch_start {
            let stall = self.session.now().saturating_sub(start);
            if let Some(hist) = &self.fetch_hist {
                hist.record(stall);
            }
            if let Some(t) = &self.tracer {
                t.span_event(
                    "block.fetch",
                    self.trace_track(),
                    start,
                    stall,
                    "bytes",
                    self.meta.zones[idx].len as u64,
                );
            }
        }

        self.unread = block.partition_point(|key| key < self.begin)
            ..block.partition_point(|key| key <= self.end);
        self.block = Some(block);
        true
    }

    /// The current entry in `[begin, end]`, borrowed from its decoded
    /// block and not consumed: the scan stays on it until
    /// [`BlockRunScan::advance`]. The block it needs is fetched here.
    /// `None` at the end of the range or after an error
    /// ([`BlockRunScan::stop`]).
    pub fn peek_entry(&mut self) -> Option<EntryRef<'_>> {
        let i = self.current()?;
        Some(self.block.as_ref()?.get(i))
    }

    /// Index of the current entry in the current block, fetching the
    /// next block once this one is used up.
    fn current(&mut self) -> Option<usize> {
        while self.unread.is_empty() {
            if !self.refill() {
                return None;
            }
        }
        Some(self.unread.start)
    }

    /// Step past the current entry; the next block, if that empties
    /// this one, is fetched by the next [`BlockRunScan::peek_entry`].
    pub fn advance(&mut self) {
        self.unread.next();
    }

    /// The next entry in `[begin, end]`, borrowed from its decoded
    /// block: [`BlockRunScan::peek_entry`], then
    /// [`BlockRunScan::advance`].
    pub fn next_entry(&mut self) -> Option<EntryRef<'_>> {
        let i = self.current()?;
        self.advance();
        Some(self.block.as_ref()?.get(i))
    }
}

/// The scan as owned entries, one allocation each — for callers that
/// keep what they are handed; the engine reads through
/// [`BlockRunScan::next_entry`].
impl Iterator for BlockRunScan {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        self.next_entry().map(|e| e.to_entry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_codec::bytes::seal;
    use masm_storage::{DeviceProfile, SimClock};

    fn setup() -> (SimDevice, SessionHandle) {
        let clock = SimClock::new();
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        (dev, SessionHandle::fresh(clock))
    }

    fn entries(keys: &[u64]) -> Vec<Entry> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Entry::new(k, i as u64 + 1, vec![k as u8; 8]))
            .collect()
    }

    fn small_cfg() -> BlockRunConfig {
        BlockRunConfig {
            block_bytes: 128,
            bloom_bits_per_key: 10,
            codec: CodecChoice::Delta,
        }
    }

    #[test]
    fn write_read_meta_roundtrip() {
        let (dev, s) = setup();
        let es = entries(&(0..500).map(|i| i * 2).collect::<Vec<_>>());
        let meta = write_run(&s, &dev, 0, &small_cfg(), &es).unwrap();
        assert!(meta.zones.len() > 4, "{} blocks", meta.zones.len());
        assert_eq!(meta.entry_count, 500);
        assert_eq!(meta.min_key, 0);
        assert_eq!(meta.max_key, 998);

        let back = read_meta(&s, &dev, 0, meta.total_bytes).unwrap();
        assert_eq!(back.zones, meta.zones);
        assert_eq!(back.bloom, meta.bloom);
        assert_eq!(back.entry_count, meta.entry_count);
        assert_eq!((back.min_key, back.max_key), (meta.min_key, meta.max_key));
        assert_eq!((back.min_ts, back.max_ts), (meta.min_ts, meta.max_ts));
    }

    #[test]
    fn writes_are_strictly_sequential() {
        let (dev, s) = setup();
        dev.prime_head_position(0);
        let es = entries(&(0..2000).collect::<Vec<_>>());
        write_run(&s, &dev, 0, &small_cfg(), &es).unwrap();
        let stats = dev.stats();
        assert_eq!(stats.random_writes, 0, "{stats:?}");
        assert!(stats.write_ops > 10);
    }

    #[test]
    fn scan_returns_exact_range() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..300).map(|i| i * 3).collect();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap());
        let got: Vec<u64> = BlockRunScan::new(dev, s, meta, None, 1, 100, 200)
            .map(|e| e.key)
            .collect();
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| (100..=200).contains(k))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zone_maps_narrow_reads() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..2000).map(|i| i * 2).collect();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap());
        let mut scan = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            None,
            1,
            1000,
            1100,
        );
        let got: Vec<u64> = scan.by_ref().map(|e| e.key).collect();
        assert_eq!(
            got,
            (1000..=1100).filter(|k| k % 2 == 0).collect::<Vec<_>>()
        );
        assert!(
            scan.bytes_read() < meta.data_bytes / 8,
            "read {} of {}",
            scan.bytes_read(),
            meta.data_bytes
        );
    }

    #[test]
    fn deep_prefetch_scans_identically_and_keeps_reads_in_flight() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..2000).collect();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap());
        let shallow: Vec<u64> = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            None,
            1,
            0,
            u64::MAX,
        )
        .map(|e| e.key)
        .collect();
        let mut deep = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            None,
            1,
            0,
            u64::MAX,
        )
        .with_prefetch_depth(6);
        assert!(deep.pending.len() > 1, "multiple reads issued up front");
        let deep_keys: Vec<u64> = deep.by_ref().map(|e| e.key).collect();
        assert_eq!(deep_keys, shallow);
        assert_eq!(deep.bytes_read(), meta.data_bytes, "every block read once");
    }

    #[test]
    fn deep_prefetch_skips_cached_blocks() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..1000).collect();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap());
        let cache = Arc::new(BlockCache::new(1 << 22));
        let cold: Vec<u64> = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            Some(Arc::clone(&cache)),
            1,
            0,
            u64::MAX,
        )
        .with_prefetch_depth(4)
        .map(|e| e.key)
        .collect();
        assert_eq!(cold, keys);
        let mut warm = BlockRunScan::new(dev, s, Arc::clone(&meta), Some(cache), 1, 0, u64::MAX)
            .with_prefetch_depth(4);
        let warm_keys: Vec<u64> = warm.by_ref().map(|e| e.key).collect();
        assert_eq!(warm_keys, keys);
        assert_eq!(warm.bytes_read(), 0, "warm deep scan is pure cache");
    }

    #[test]
    fn fetch_histogram_records_one_sample_per_block() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..1000).collect();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap());
        let cache = Arc::new(BlockCache::new(1 << 22));
        let cold_hist = Arc::new(masm_telemetry::Histogram::new());
        let cold: Vec<u64> = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            Some(Arc::clone(&cache)),
            1,
            0,
            u64::MAX,
        )
        .with_fetch_histogram(Arc::clone(&cold_hist))
        .map(|e| e.key)
        .collect();
        assert_eq!(cold, keys);
        let blocks = meta.zones.len() as u64;
        let cold_snap = cold_hist.snapshot();
        assert_eq!(cold_snap.count, blocks, "one sample per block");
        assert!(cold_snap.sum > 0, "cold blocks stall on the device");
        // Warm scan: every block is a cache hit, so the stall is zero.
        let warm_hist = Arc::new(masm_telemetry::Histogram::new());
        let warm: Vec<u64> = BlockRunScan::new(dev, s, meta, Some(cache), 1, 0, u64::MAX)
            .with_fetch_histogram(Arc::clone(&warm_hist))
            .map(|e| e.key)
            .collect();
        assert_eq!(warm, keys);
        let warm_snap = warm_hist.snapshot();
        assert_eq!(warm_snap.count, blocks);
        assert_eq!(warm_snap.max, 0, "cache hits never touch the device");
    }

    #[test]
    fn scan_outside_range_reads_nothing() {
        let (dev, s) = setup();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&[5, 10, 15])).unwrap());
        let mut scan = BlockRunScan::new(dev, s, meta, None, 1, 100, 200);
        assert!(scan.next().is_none());
        assert_eq!(scan.bytes_read(), 0);
    }

    #[test]
    fn corrupted_block_fails_with_checksum_error() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..500).collect();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap();
        // Flip one byte in the middle of block 2's data.
        let zone = meta.zones[2];
        let (orig, _) = dev.read_at(0, zone.offset + 5, 1).unwrap();
        dev.write_at(0, zone.offset + 5, &[orig[0] ^ 0xFF]).unwrap();

        let err = read_block(&s, &dev, &meta, 2, None).unwrap_err();
        assert!(
            matches!(
                err,
                BlockRunError::ChecksumMismatch {
                    region: "block",
                    index: 2
                }
            ),
            "{err}"
        );
        // A scan across the corruption stops with the error rather than
        // yielding garbage.
        let mut scan =
            BlockRunScan::new(dev.clone(), s.clone(), Arc::new(meta), None, 1, 0, u64::MAX);
        let got: Vec<Entry> = scan.by_ref().collect();
        assert!(got.len() < keys.len());
        assert!(matches!(
            scan.stop(),
            Some(BlockRunError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_footer_and_index_detected() {
        let (dev, s) = setup();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&[1, 2, 3])).unwrap();
        // Corrupt the footer's magic.
        let footer_off = meta.total_bytes - FOOTER_LEN;
        dev.write_at(0, footer_off, &[0xAA]).unwrap();
        assert!(read_meta(&s, &dev, 0, meta.total_bytes).is_err());
    }

    /// What the visitor of [`point_lookup`] is shown, collected.
    fn lookup(
        s: &SessionHandle,
        dev: &SimDevice,
        meta: &BlockRunMeta,
        key: u64,
        cache: Option<(&BlockCache, u64)>,
    ) -> Vec<Entry> {
        let mut found = Vec::new();
        let hashes = BloomFilter::hashes_of(key);
        point_lookup(s, dev, meta, key, hashes, cache, |e| {
            found.push(e.to_entry())
        })
        .unwrap();
        found
    }

    #[test]
    fn point_lookup_uses_bloom_to_skip_io() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap();
        dev.reset_stats();
        // Absent key inside the key bounds: bloom usually rejects it with
        // zero reads; measure over many probes.
        let mut io_free = 0;
        for probe in 0..200u64 {
            let before = dev.stats().read_ops;
            assert!(lookup(&s, &dev, &meta, probe * 2 + 1, None).is_empty());
            if dev.stats().read_ops == before {
                io_free += 1;
            }
        }
        assert!(io_free > 180, "bloom skipped I/O for {io_free}/200 probes");
        // Present key: found with exactly one block read.
        let before = dev.stats().read_ops;
        let found = lookup(&s, &dev, &meta, 500, None);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, 500);
        assert_eq!(dev.stats().read_ops - before, 1);
    }

    #[test]
    fn warm_cache_lookups_issue_zero_reads() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..1000).collect();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap();
        let cache = BlockCache::new(1 << 20);
        for k in [10u64, 500, 990] {
            lookup(&s, &dev, &meta, k, Some((&cache, 1)));
        }
        let warm_start = dev.stats().read_ops;
        for k in [10u64, 500, 990] {
            assert_eq!(lookup(&s, &dev, &meta, k, Some((&cache, 1))).len(), 1);
        }
        assert_eq!(dev.stats().read_ops, warm_start, "zero device reads warm");
        assert!(cache.stats().hits >= 3);
    }

    #[test]
    fn scan_served_from_cache_reads_nothing() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..800).collect();
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap());
        let cache = Arc::new(BlockCache::new(1 << 22));
        let cold: Vec<u64> = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            Some(Arc::clone(&cache)),
            1,
            0,
            u64::MAX,
        )
        .map(|e| e.key)
        .collect();
        assert_eq!(cold, keys);
        let mut warm = BlockRunScan::new(
            dev.clone(),
            s.clone(),
            Arc::clone(&meta),
            Some(Arc::clone(&cache)),
            1,
            0,
            u64::MAX,
        );
        let warm_keys: Vec<u64> = warm.by_ref().map(|e| e.key).collect();
        assert_eq!(warm_keys, keys);
        assert_eq!(warm.bytes_read(), 0, "warm scan is pure cache");
    }

    #[test]
    fn empty_run_roundtrip() {
        let (dev, s) = setup();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &[]).unwrap();
        assert_eq!(meta.entry_count, 0);
        let back = read_meta(&s, &dev, 0, meta.total_bytes).unwrap();
        assert!(back.zones.is_empty());
        assert!(!back.might_contain(0, BloomFilter::hashes_of(0)));
        let got: Vec<Entry> =
            BlockRunScan::new(dev, s, Arc::new(back), None, 1, 0, u64::MAX).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn every_codec_roundtrips_through_device() {
        let keys: Vec<u64> = (0..600).map(|i| i * 2).collect();
        for choice in CodecChoice::ALL {
            let (dev, s) = setup();
            let cfg = BlockRunConfig {
                codec: choice,
                ..small_cfg()
            };
            let meta = write_run(&s, &dev, 0, &cfg, &entries(&keys)).unwrap();
            assert_eq!(meta.default_codec, choice);
            let back = read_meta(&s, &dev, 0, meta.total_bytes).unwrap();
            assert_eq!(back.zones, meta.zones);
            assert_eq!(back.default_codec, choice);
            let got: Vec<u64> = BlockRunScan::new(dev, s, Arc::new(back), None, 1, 0, u64::MAX)
                .map(|e| e.key)
                .collect();
            assert_eq!(got, keys, "{choice:?}");
            // Accounting: every block's raw size is known, and the
            // stored ids match the policy.
            let comp = meta.compression();
            assert_eq!(comp.blocks, meta.zones.len() as u64);
            assert!(comp.raw_bytes > 0);
            match choice {
                CodecChoice::Identity => {
                    assert_eq!(comp.blocks_identity, comp.blocks);
                    assert_eq!(comp.raw_bytes, comp.stored_bytes);
                }
                CodecChoice::Delta => assert_eq!(comp.blocks_delta, comp.blocks),
                CodecChoice::Lz => assert_eq!(comp.blocks_lz, comp.blocks),
            }
        }
    }

    #[test]
    fn compressed_codecs_shrink_stored_bytes() {
        let keys: Vec<u64> = (0..2000).collect();
        for choice in [CodecChoice::Delta, CodecChoice::Lz] {
            let (dev, s) = setup();
            let cfg = BlockRunConfig {
                codec: choice,
                ..small_cfg()
            };
            let meta = write_run(&s, &dev, 0, &cfg, &entries(&keys)).unwrap();
            let comp = meta.compression();
            assert!(
                comp.stored_bytes < comp.raw_bytes,
                "{choice:?}: stored {} !< raw {}",
                comp.stored_bytes,
                comp.raw_bytes
            );
            assert!(comp.ratio() < 1.0);
        }
    }

    /// Rewrite the index block (or else the footer) of the run `meta`:
    /// `patch` edits its body, and the CRC is sealed anew over the
    /// result, so the reader must judge the fields themselves.
    fn reseal(dev: &SimDevice, meta: &BlockRunMeta, index: bool, patch: impl FnOnce(&mut Vec<u8>)) {
        let (off, len) = match index {
            true => (
                meta.data_bytes,
                8 + (meta.zones.len() * ZONE_MAP_LEN) as u64,
            ),
            false => (meta.total_bytes - FOOTER_LEN, FOOTER_LEN),
        };
        let (mut region, _) = dev.read_at(0, off, len).unwrap();
        region.truncate(region.len() - 4);
        patch(&mut region);
        seal(&mut region, 0);
        dev.write_at(0, off, &region).unwrap();
    }

    #[test]
    fn unknown_codec_in_footer_fails_open_with_typed_error() {
        // A bogus default-codec id under a *valid* CRC: the reader must
        // reject the codec id itself, typed, not trip over a checksum.
        // 3 is the first id past the three codecs.
        for bogus in [3u32, 0xAA] {
            let (dev, s) = setup();
            let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&[1, 2, 3])).unwrap();
            reseal(&dev, &meta, false, |f| {
                f[88..92].copy_from_slice(&bogus.to_le_bytes())
            });
            let err = read_meta(&s, &dev, 0, meta.total_bytes).unwrap_err();
            assert!(
                matches!(err, BlockRunError::UnknownCodec { id } if id == bogus),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_codec_in_zone_map_fails_open_with_typed_error() {
        let (dev, s) = setup();
        let keys: Vec<u64> = (0..200).collect();
        let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap();
        // Zone 1's codec id, patched inside a resealed index block.
        reseal(&dev, &meta, true, |index| {
            index[4 + ZONE_MAP_LEN + 56] = 0x77
        });
        let err = read_meta(&s, &dev, 0, meta.total_bytes).unwrap_err();
        assert!(
            matches!(err, BlockRunError::UnknownCodec { id: 0x77 }),
            "{err}"
        );
    }

    /// Offsets from the log or a resealed footer whose sums overflow
    /// are corrupt, not an arithmetic panic.
    #[test]
    fn offsets_that_overflow_are_corrupt() {
        let (dev, s) = setup();
        let corrupt = |r: BlockRunResult<_>| matches!(r, Err(BlockRunError::Corrupt(_)));
        assert!(corrupt(read_meta(&s, &dev, u64::MAX - 10, 200)));
        // The footer's `index_off`, then its `bloom_off`.
        for at in [24, 40] {
            let (dev, s) = setup();
            let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&[1, 2, 3])).unwrap();
            let huge = (u64::MAX - 3).to_le_bytes();
            reseal(&dev, &meta, false, |f| f[at..at + 8].copy_from_slice(&huge));
            assert!(corrupt(read_meta(&s, &dev, 0, meta.total_bytes)), "{at}");
        }
    }

    /// Zone maps must tile the data region in key order: compaction
    /// slices moved blocks out of one read by their offsets.
    #[test]
    fn zones_that_do_not_tile_the_data_region_in_key_order_are_corrupt() {
        let keys: Vec<u64> = (0..200).collect();
        let (dev, s) = setup();
        let z = write_run(&s, &dev, 0, &small_cfg(), &entries(&keys))
            .unwrap()
            .zones;
        let last = z.len() - 1;
        // (zone, field offset in its map, byte width, new value).
        for (i, at, width, v) in [
            (1, 0, 8, u64::MAX - 2),              // zone 1 far outside the run
            (0, 0, 8, z[0].len as u64),           // zone 0 not at 0
            (1, 0, 8, z[1].offset - 1),           // zone 1 overlapping zone 0
            (last, 8, 4, z[last].len as u64 - 1), // the last one short of the index
            (1, 16, 8, z[1].max_key + 1),         // a min key above its max key
            (2, 16, 8, z[1].max_key - 1),         // keys out of order
        ] {
            let (dev, s) = setup();
            let meta = write_run(&s, &dev, 0, &small_cfg(), &entries(&keys)).unwrap();
            let at = 4 + i * ZONE_MAP_LEN + at;
            reseal(&dev, &meta, true, |ix| {
                ix[at..at + width].copy_from_slice(&v.to_le_bytes()[..width])
            });
            let err = read_meta(&s, &dev, 0, meta.total_bytes).unwrap_err();
            assert!(
                matches!(err, BlockRunError::Corrupt("zone layout")),
                "byte {at}: {err}"
            );
        }
    }

    #[test]
    fn truncated_compressed_block_fails_crc_before_decode() {
        let (dev, s) = setup();
        let cfg = BlockRunConfig {
            codec: CodecChoice::Lz,
            ..small_cfg()
        };
        let keys: Vec<u64> = (0..500).collect();
        let meta = write_run(&s, &dev, 0, &cfg, &entries(&keys)).unwrap();
        // Simulate a torn write: the tail of block 0's *compressed*
        // bytes is zeroed. The stored-byte CRC must reject it — the LZ
        // decoder never sees the bytes (ChecksumMismatch, not a codec
        // "Corrupt" error, proves the ordering).
        let zone = meta.zones[0];
        let tail = (zone.len / 3).max(1) as u64;
        let tail_off = zone.offset + zone.len as u64 - tail;
        let (bytes, _) = dev.read_at(0, tail_off, tail).unwrap();
        let flipped: Vec<u8> = bytes.iter().map(|b| !b).collect();
        dev.write_at(0, tail_off, &flipped).unwrap();
        let err = read_block(&s, &dev, &meta, 0, None).unwrap_err();
        assert!(
            matches!(
                err,
                BlockRunError::ChecksumMismatch {
                    region: "block",
                    index: 0
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn identity_block_with_a_wrong_raw_len_is_corrupt() {
        let (dev, s) = setup();
        let cfg = BlockRunConfig {
            codec: CodecChoice::Identity,
            ..small_cfg()
        };
        let mut meta = write_run(&s, &dev, 0, &cfg, &entries(&[1, 2, 3, 4, 5])).unwrap();
        assert!(read_block(&s, &dev, &meta, 0, None).is_ok());
        // The zone lies about the raw length; the stored bytes (and so
        // their CRC) are what was written. The other codecs' decoders
        // refuse this, and so must the one that copies.
        for lie in [meta.zones[0].raw_len - 1, meta.zones[0].raw_len + 1, 0] {
            meta.zones[0].raw_len = lie;
            let err = read_block(&s, &dev, &meta, 0, None).unwrap_err();
            assert!(
                matches!(err, BlockRunError::Corrupt("block codec payload")),
                "raw_len {lie}: {err}"
            );
        }
    }

    #[test]
    fn a_key_straddling_a_block_boundary_is_fully_visited() {
        let (dev, s) = setup();
        // 30 versions of key 50 between two other keys: 28 bytes each
        // in 128-byte blocks, so its versions span several blocks.
        let mut es = vec![Entry::new(10, 1, vec![1; 8])];
        es.extend((0..30).map(|v| Entry::new(50, 2 + v, vec![v as u8; 8])));
        es.push(Entry::new(90, 40, vec![9; 8]));
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &es).unwrap());
        let holding = meta.blocks_overlapping(50, 50);
        assert!(holding.len() >= 3, "key 50 lies in blocks {holding:?}");

        let versions = &es[1..31];
        assert_eq!(lookup(&s, &dev, &meta, 50, None), versions);
        let cache = Arc::new(BlockCache::new(1 << 20));
        for _ in 0..2 {
            assert_eq!(lookup(&s, &dev, &meta, 50, Some((&cache, 1))), versions);
            let scanned: Vec<Entry> = BlockRunScan::new(
                dev.clone(),
                s.clone(),
                Arc::clone(&meta),
                Some(Arc::clone(&cache)),
                1,
                50,
                50,
            )
            .collect();
            assert_eq!(scanned, versions);
        }
    }

    #[test]
    fn a_range_inside_one_block_yields_the_owned_filter() {
        let (dev, s) = setup();
        // Every key twice, so the cut also lands between equal keys.
        let keys: Vec<u64> = (0..400).map(|i| i / 2 * 3).collect();
        let es = entries(&keys);
        let meta = Arc::new(write_run(&s, &dev, 0, &small_cfg(), &es).unwrap());
        let zone = meta.zones[3];
        assert!(zone.count >= 4 && zone.min_key < zone.max_key);
        for (begin, end) in [
            (zone.min_key + 1, zone.max_key - 1),
            (zone.min_key + 3, zone.min_key + 3),
            (zone.min_key + 1, zone.min_key + 2),
            (zone.min_key, zone.max_key),
        ] {
            assert_eq!(meta.blocks_overlapping(begin, end).len(), 1);
            let got: Vec<Entry> = BlockRunScan::new(
                dev.clone(),
                s.clone(),
                Arc::clone(&meta),
                None,
                1,
                begin,
                end,
            )
            .collect();
            let want: Vec<Entry> = es
                .iter()
                .filter(|e| (begin..=end).contains(&e.key))
                .cloned()
                .collect();
            assert_eq!(got, want, "[{begin}, {end}]");
        }
    }

    #[test]
    fn blocks_overlapping_bounds() {
        let mut meta = BlockRunMeta::synthetic(0, 100, 1, 1, 4);
        for (i, (lo, hi)) in [(0u64, 24u64), (25, 49), (50, 74), (75, 100)]
            .iter()
            .enumerate()
        {
            meta.zones.push(ZoneMap {
                offset: i as u64 * 100,
                len: 100,
                count: 1,
                min_key: *lo,
                max_key: *hi,
                min_ts: 1,
                max_ts: 1,
                crc: 0,
                raw_len: 100,
                codec_id: masm_codec::IDENTITY,
            });
        }
        assert_eq!(meta.blocks_overlapping(0, 100), 0..4);
        assert_eq!(meta.blocks_overlapping(30, 60), 1..3);
        assert_eq!(meta.blocks_overlapping(25, 25), 1..2);
        assert_eq!(meta.blocks_overlapping(101, 200), 4..4);
        assert_eq!(meta.blocks_overlapping(60, 30), 0..0);
    }
}
