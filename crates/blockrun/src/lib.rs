//! # masm-blockrun — immutable block-based run storage
//!
//! The MaSM engine caches sorted runs of updates on the SSD and merges
//! them into every range scan, so the cost of reading a run back *is*
//! the cost of online updates. This crate gives those runs the storage
//! format modern SST-based engines use, while preserving the paper's
//! core invariant that runs are written strictly sequentially:
//!
//! * [`block`] — fixed-budget data blocks of flat-encoded entries; the
//!   block is the read I/O unit (64 KB of raw entry bytes by default,
//!   the paper's §4.1 SSD page). A block that has been read stays those
//!   flat bytes: [`FlatBlock`] is the buffer the codec returned plus an
//!   offset per entry, and readers borrow [`EntryRef`]s out of it —
//!   nothing is allocated per entry. The owned [`Entry`] is the write
//!   side's vocabulary.
//! * **codec stage** — every block is compressed through a pluggable
//!   [`masm_codec::Codec`] (identity, the delta+varint encoding, an
//!   LZ-style byte codec, one per run); the stored codec id and raw
//!   length live in the block's zone-map entry, so
//!   moved blocks carry their codec verbatim through compaction.
//! * **integrity** — CRC-32 on every block, the index, the bloom filter,
//!   and the footer ([`masm_codec::bytes`]), so a corrupted SSD read
//!   fails loudly ([`BlockRunError::ChecksumMismatch`]) instead of
//!   decoding garbage; block CRCs cover the *stored* (post-codec) bytes,
//!   so a truncated compressed block is rejected before any codec runs.
//! * [`format`](mod@format) — the run layout: data blocks, an index block of
//!   [`ZoneMap`]s (first-key → offset plus min/max key and timestamp per
//!   block, for pruning, plus `{codec_id, len, raw_len}` for the codec
//!   stage), an optional per-run bloom filter, and a self-describing
//!   footer carrying the writer's default codec. Includes the
//!   sequential writer, the verifying reader, a zone-map-pruned range
//!   scan with async prefetch, and a bloom-guarded point lookup.
//! * [`bloom`] — the per-run bloom filter (point lookups skip runs that
//!   definitely lack the key, with zero I/O).
//! * [`plan`] — merge planning over zone maps: partitions a k-way merge
//!   into *move* segments (whole blocks no other input overlaps,
//!   relinked verbatim) and *merge* segments (decoded and folded), so
//!   compaction cost is proportional to overlap, not input size.
//! * [`builder`] — streaming run construction that accepts both decoded
//!   entries and raw verbatim blocks ([`RunBuilder::append_raw_block`]),
//!   the execution half of the plan.
//! * [`cache`] — a sharded, scan-resistant, two-tier [`BlockCache`]
//!   shared by all scans of an engine: tier 1 holds decoded blocks
//!   ([`CachedBlock`] = `Arc<FlatBlock>`, charged an upper bound of
//!   what they occupy) under a segmented (probation/protected) SLRU
//!   policy, so one-shot sweeps cannot displace the hot set; tier 2
//!   optionally holds tier-1 victims' *stored* (post-codec) bytes,
//!   serving re-references with one codec decode instead of a device
//!   read. Counters are surfaced through
//!   [`masm_storage::stats::CacheStats`] so benchmarks can report cache
//!   effectiveness. Warm lookups issue zero device reads.
//!
//! `masm-core` materializes and scans all of its runs through this
//! crate; see `masm_core::run` for the engine-facing wrapper.

pub mod block;
pub mod bloom;
pub mod builder;
pub mod cache;
pub mod format;
pub mod plan;

pub use block::{Entry, EntryRef, FlatBlock};
pub use bloom::{BloomFilter, KeyHashes};
pub use builder::RunBuilder;
pub use cache::{
    BlockCache, BlockCacheConfig, BlockKey, CachePolicy, CachedBlock, IntoCachedBlock, StoredBlock,
};
pub use format::{
    build_run, point_lookup, read_block, read_meta, write_built, write_run, BlockRunConfig,
    BlockRunError, BlockRunMeta, BlockRunResult, BlockRunScan, ZoneMap,
};
pub use masm_codec::CodecChoice;
pub use plan::{MergePlan, MergePlanner, Segment};
