//! Materialized sorted runs on the block-run format (§3.1–§3.3).
//!
//! A sorted run is a key-ordered sequence of update records written
//! **sequentially** to the SSD — never a random SSD write. Since the
//! `masm-blockrun` migration, a run is no longer a flat byte stream with
//! an in-memory sparse index: it is an immutable block-structured file
//! (see [`masm_blockrun::format`]) with
//!
//! * fixed-budget data blocks of records compressed through the
//!   configured codec (`masm-codec`: identity / delta+varint / LZ; the
//!   raw block is the decode unit — 64 KB
//!   default, 4 KB with the fine-grain index),
//! * a per-block zone map (min/max key and timestamp) that replaces the
//!   old sparse index and prunes blocks from scans,
//! * a per-run bloom filter for point lookups,
//! * CRC-32 checksums on every region, so a corrupted SSD read fails
//!   loudly instead of decoding garbage, and
//! * a self-describing footer, which lets crash recovery re-open a run
//!   from `(base, bytes)` without decoding a single record.
//!
//! Scans go through the engine's shared [`BlockCache`]: a block read off
//! the SSD is verified, run back through its codec, and kept as that
//! one flat buffer plus an offset per entry
//! ([`masm_blockrun::FlatBlock`]); [`RunScan`] and [`lookup_in_run`]
//! decode each [`UpdateRecord`] straight from the bytes they borrow
//! from it. Warm scans and point lookups issue zero device reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use masm_blockrun::{BlockCache, BlockRunMeta, BlockRunScan, KeyHashes, RunBuilder};
use masm_pagestore::Key;
use masm_storage::{SessionHandle, SimDevice};

use crate::config::MasmConfig;
use crate::error::{MasmError, MasmResult};
use crate::merge::MergeSource;
use crate::ts::Timestamp;
use crate::update::{OpRef, UpdateRecord};

/// Metadata of one materialized sorted run.
#[derive(Debug, Clone)]
pub struct SortedRun {
    /// Engine-assigned id (creation order; also the run's block-cache
    /// keyspace — ids are never reused, so stale cache entries cannot
    /// alias a live run).
    pub id: u64,
    /// Byte offset of the run on the SSD device.
    pub base: u64,
    /// Total encoded bytes (data blocks + index + bloom + footer).
    pub bytes: u64,
    /// Number of update records.
    pub count: u64,
    /// Smallest key in the run.
    pub min_key: Key,
    /// Largest key in the run.
    pub max_key: Key,
    /// Smallest update timestamp in the run.
    pub min_ts: Timestamp,
    /// Largest update timestamp in the run.
    pub max_ts: Timestamp,
    /// 1 for runs flushed straight from memory, 2 for merged runs
    /// (§3.3's 1-pass / 2-pass distinction).
    pub passes: u8,
    /// Block-run metadata: zone maps, bloom filter, region geometry.
    pub meta: Arc<BlockRunMeta>,
}

impl SortedRun {
    /// Wrap block-run metadata in engine-level run metadata.
    pub fn from_meta(id: u64, passes: u8, meta: BlockRunMeta) -> SortedRun {
        SortedRun {
            id,
            base: meta.base,
            bytes: meta.total_bytes,
            count: meta.entry_count,
            min_key: meta.min_key,
            max_key: meta.max_key,
            min_ts: meta.min_ts,
            max_ts: meta.max_ts,
            passes,
            meta: Arc::new(meta),
        }
    }

    /// Move the run (not yet written) to its allocated device offset.
    pub(crate) fn rebase(&mut self, base: u64) {
        self.base = base;
        Arc::make_mut(&mut self.meta).base = base;
    }

    /// In-memory metadata footprint (zone maps + bloom filter) — the
    /// analogue of the old sparse index's memory cost.
    pub fn memory_bytes(&self) -> usize {
        self.meta.memory_bytes()
    }
}

/// Append `u` to a run under construction: its operation is encoded
/// straight into the builder's open block, the one copy an update's
/// bytes make between the update buffer (or a merge) and the run.
pub(crate) fn append_update(builder: &mut RunBuilder, u: &UpdateRecord) {
    builder.append(u.key, u.ts, u.value_len(), |out| u.encode_value_into(out));
}

/// Build the metadata and the full encoded byte stream of a run from its
/// sorted updates, without touching any device. The returned run has
/// base 0 — callers allocate space, rebase it, then write
/// with [`write_built`].
pub(crate) fn build_run(
    cfg: &MasmConfig,
    id: u64,
    base: u64,
    passes: u8,
    updates: &[UpdateRecord],
) -> (SortedRun, Vec<u8>) {
    assert!(!updates.is_empty(), "empty run");
    debug_assert!(updates
        .windows(2)
        .all(|w| (w[0].key, w[0].ts) <= (w[1].key, w[1].ts)));
    let mut builder = RunBuilder::new(cfg.blockrun_config());
    for u in updates {
        append_update(&mut builder, u);
    }
    let (meta, bytes) = builder.finish();
    let mut run = SortedRun::from_meta(id, passes, meta);
    run.rebase(base);
    (run, bytes)
}

/// Write an already-built run's bytes at its base, strictly
/// sequentially, one I/O per block/region.
pub fn write_built(
    session: &SessionHandle,
    ssd: &SimDevice,
    run: &SortedRun,
    bytes: &[u8],
) -> MasmResult<()> {
    masm_blockrun::format::write_built(session, ssd, &run.meta, bytes)?;
    Ok(())
}

/// Build and write a materialized sorted run at `base`.
///
/// `updates` must be sorted by `(key, ts)`. All writes are sequential —
/// the `random_writes` counter of the update-cache SSD stays zero.
pub fn write_run(
    session: &SessionHandle,
    ssd: &SimDevice,
    cfg: &MasmConfig,
    id: u64,
    base: u64,
    passes: u8,
    updates: &[UpdateRecord],
) -> MasmResult<SortedRun> {
    let (run, bytes) = build_run(cfg, id, base, passes, updates);
    write_built(session, ssd, &run, &bytes)?;
    Ok(run)
}

/// Re-open a run during crash recovery from its durable footer: the
/// zone maps, bloom filter, and key/timestamp bounds all come back from
/// the (checksummed) metadata regions — no record is decoded.
pub(crate) fn recover_run(
    session: &SessionHandle,
    ssd: &SimDevice,
    id: u64,
    base: u64,
    bytes: u64,
    passes: u8,
) -> MasmResult<SortedRun> {
    let meta = masm_blockrun::read_meta(session, ssd, base, bytes)?;
    Ok(SortedRun::from_meta(id, passes, meta))
}

/// Streaming scan of one run restricted to `[begin, end]` — the
/// `Run_scan` operator of Figure 6, on blocks.
///
/// Zone maps select the blocks to visit; blocks come from the shared
/// [`BlockCache`] when resident, otherwise from asynchronous SSD reads
/// prefetched while the previous block decodes (§3.7's libaio overlap).
///
/// A scan that cannot go on — a device error, a block that fails its
/// checksum, an entry that does not decode — **ends its stream** and
/// reports the failure to its error slot; it never panics. Each scan
/// opened by [`RunScan::with_cache`] has a slot of its own; the scans of
/// one job — a query, a migration, a compaction, an LSM level merge —
/// share one through [`RunScan::reporting_to`], and the job checks it
/// before it hands out or commits anything built from the streams
/// (`MergeScan::error` is where a query's ends up).
pub struct RunScan {
    inner: BlockRunScan,
    failures: ScanFailures,
}

/// The error slot shared by the run scans of one query, one migration
/// or one compaction. A failed scan ends its stream like an exhausted
/// one; the first failure is kept here, and the job must
/// [`ScanFailures::check`] after it has consumed the streams and before
/// it hands out or commits anything built from them.
#[derive(Debug, Clone, Default)]
pub struct ScanFailures(Arc<FailureSlot>);

#[derive(Debug, Default)]
struct FailureSlot {
    first: Mutex<Option<MasmError>>,
    /// Whether `first` holds a failure: what a merged scan reads after
    /// every update it pulls, without the lock.
    failed: AtomicBool,
}

impl ScanFailures {
    pub(crate) fn report(&self, failure: MasmError) {
        let mut first = self.0.first.lock();
        first.get_or_insert(failure);
        self.0.failed.store(true, Ordering::Release);
    }

    /// Whether a failure has been reported since the last check: one
    /// atomic load, for a job that asks after every record.
    #[inline]
    pub fn failed(&self) -> bool {
        self.0.failed.load(Ordering::Acquire)
    }

    /// `Err` with the first failure a scan reported since the last
    /// check: the streams consumed so far may have ended early.
    pub fn check(&self) -> MasmResult<()> {
        let mut first = self.0.first.lock();
        self.0.failed.store(false, Ordering::Release);
        first.take().map_or(Ok(()), Err)
    }
}

impl RunScan {
    /// Open a scan of `run` over `[begin, end]`, served through `cache`
    /// (uncached when `None`).
    pub fn with_cache(
        ssd: SimDevice,
        session: SessionHandle,
        run: Arc<SortedRun>,
        cache: Option<Arc<BlockCache>>,
        begin: Key,
        end: Key,
    ) -> Self {
        let inner = BlockRunScan::new(
            ssd,
            session,
            Arc::clone(&run.meta),
            cache,
            run.id,
            begin,
            end,
        );
        RunScan {
            inner,
            failures: ScanFailures::default(),
        }
    }

    /// Report a failure of this scan to `failures`, a slot the caller
    /// checks, instead of to a slot of its own.
    pub fn reporting_to(mut self, failures: ScanFailures) -> Self {
        self.failures = failures;
        self
    }

    /// Keep up to `depth` async reads of this scan in flight (default
    /// 1). Merges and migrations give each of their k scans the depth
    /// `MasmConfig::merge_prefetch_depth(k)`, so a k-way merge keeps
    /// up to k·min(k, 16) reads queued on the device (§3.7 overlap at
    /// scale).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.inner = self.inner.with_prefetch_depth(depth);
        self
    }

    /// Record per-block fetch stalls (virtual-ns) into `hist` — the
    /// engine wires its `op.block_fetch` histogram through here.
    pub(crate) fn with_fetch_histogram(mut self, hist: Arc<masm_telemetry::Histogram>) -> Self {
        self.inner = self.inner.with_fetch_histogram(hist);
        self
    }

    /// Emit `block.fetch` spans and `block.prefetch` instants for this
    /// scan to `tracer` — the engine wires its installed
    /// [`masm_telemetry::Tracer`] through here.
    pub(crate) fn with_trace(mut self, tracer: Arc<masm_telemetry::Tracer>) -> Self {
        self.inner = self.inner.with_trace(tracer);
        self
    }

    /// Bytes this scan has read off the SSD (cache hits cost nothing).
    pub fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// Lending access, for the loser-tree merges
/// ([`crate::merge::RunMerge`]): the current entry stays in its block
/// until the merge takes its value.
impl MergeSource for RunScan {
    /// Key and timestamp of the current entry, fetching its block if
    /// need be; `None` at the end of the range, or after a failure,
    /// which goes to the scan's slot.
    #[inline]
    fn head(&mut self) -> Option<(Key, Timestamp)> {
        match self.inner.peek_entry() {
            Some(e) => Some((e.key, e.ts)),
            None => {
                if let Some(failure) = self.inner.stop() {
                    self.failures.report(failure.into());
                }
                None
            }
        }
    }

    /// Copy the current entry's value into `value` and step past it. A
    /// value that does not hold one operation ([`OpRef::parse`], what
    /// [`UpdateRecord::decode_value`] rejects) ends the scan as
    /// [`MasmError::Corrupt`] and answers `false`.
    #[inline]
    fn take_value_into(&mut self, value: &mut Vec<u8>) -> bool {
        value.clear();
        if let Some(e) = self.inner.peek_entry() {
            value.extend_from_slice(e.value);
        }
        self.inner.advance();
        if OpRef::parse(value).is_some() {
            return true;
        }
        self.inner.stop();
        self.failures.report(MasmError::Corrupt("run entry"));
        false
    }
}

impl Iterator for RunScan {
    type Item = UpdateRecord;

    fn next(&mut self) -> Option<UpdateRecord> {
        let failure = match self.inner.next_entry() {
            Some(e) => match UpdateRecord::decode_value(e.key, e.ts, e.value) {
                Some(update) => return Some(update),
                None => {
                    self.inner.stop();
                    MasmError::Corrupt("run entry")
                }
            },
            None => MasmError::from(self.inner.stop()?),
        };
        self.failures.report(failure);
        None
    }
}

/// Hand `visit` every update for `key` in `run`, oldest first — the
/// per-run step of a point lookup: key fence → bloom filter → one block
/// ([`masm_blockrun::point_lookup`]). A run that lacks the key costs no
/// I/O (mostly) and no allocation; a hit is decoded once, from the
/// bytes of the cached block straight into the caller's hands. `hashes`
/// is [`masm_blockrun::BloomFilter::hashes_of`]`(key)`, computed once
/// for all runs.
///
/// An entry that does not decode is [`MasmError::Corrupt`]: these are
/// bytes off a device, and a point lookup answers with a typed error.
pub fn lookup_in_run(
    session: &SessionHandle,
    ssd: &SimDevice,
    run: &SortedRun,
    cache: Option<&BlockCache>,
    key: Key,
    hashes: KeyHashes,
    mut visit: impl FnMut(UpdateRecord),
) -> MasmResult<()> {
    let mut undecodable = false;
    let cache = cache.map(|c| (c, run.id));
    masm_blockrun::point_lookup(session, ssd, &run.meta, key, hashes, cache, |e| {
        match UpdateRecord::decode_value(e.key, e.ts, e.value) {
            Some(update) => visit(update),
            None => undecodable = true,
        }
    })?;
    if undecodable {
        return Err(MasmError::Corrupt("run entry"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::RunSet;
    use crate::update::{FieldPatch, UpdateOp};
    use masm_blockrun::BloomFilter;
    use masm_storage::{DeviceProfile, SimClock};

    fn setup() -> (SimDevice, SessionHandle, MasmConfig) {
        let clock = SimClock::new();
        let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
        let session = SessionHandle::fresh(clock);
        let mut cfg = MasmConfig::small_for_tests();
        cfg.index_granularity = crate::config::IndexGranularity::Bytes(64);
        (ssd, session, cfg)
    }

    fn updates(keys: &[Key]) -> Vec<UpdateRecord> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| UpdateRecord::new(i as u64 + 1, k, UpdateOp::Delete))
            .collect()
    }

    #[test]
    fn write_and_scan_full() {
        let (ssd, s, cfg) = setup();
        let us = updates(&[1, 3, 5, 7, 9]);
        let run = write_run(&s, &ssd, &cfg, 1, 0, 1, &us).unwrap();
        assert_eq!(run.count, 5);
        assert_eq!(run.min_key, 1);
        assert_eq!(run.max_key, 9);
        assert_eq!(run.min_ts, 1);
        assert_eq!(run.max_ts, 5);
        let got: Vec<Key> = RunScan::with_cache(ssd, s, Arc::new(run), None, 0, u64::MAX)
            .map(|u| u.key)
            .collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn all_op_kinds_roundtrip_through_blocks() {
        let (ssd, s, cfg) = setup();
        let us = vec![
            UpdateRecord::new(1, 2, UpdateOp::Insert(vec![7u8; 20])),
            UpdateRecord::new(2, 4, UpdateOp::Delete),
            UpdateRecord::new(
                3,
                6,
                UpdateOp::Modify(vec![FieldPatch {
                    field: 1,
                    value: vec![1, 2, 3, 4],
                }]),
            ),
            UpdateRecord::new(4, 8, UpdateOp::Replace(vec![9u8; 12])),
        ];
        let run = write_run(&s, &ssd, &cfg, 1, 0, 1, &us).unwrap();
        let got: Vec<UpdateRecord> =
            RunScan::with_cache(ssd, s, Arc::new(run), None, 0, u64::MAX).collect();
        assert_eq!(got, us);
    }

    #[test]
    fn scan_range_narrows_reads() {
        let (ssd, s, cfg) = setup();
        // Enough updates that the run spans many 64-byte blocks.
        let keys: Vec<Key> = (0..200).map(|i| i * 2).collect();
        let us = updates(&keys);
        let run = Arc::new(write_run(&s, &ssd, &cfg, 1, 0, 1, &us).unwrap());
        assert!(run.meta.zones.len() > 10, "{} blocks", run.meta.zones.len());
        let mut scan = RunScan::with_cache(ssd.clone(), s.clone(), run.clone(), None, 100, 110);
        let got: Vec<Key> = scan.by_ref().map(|u| u.key).collect();
        assert_eq!(got, vec![100, 102, 104, 106, 108, 110]);
        assert!(
            scan.bytes_read() < run.bytes / 4,
            "read {} of {} bytes",
            scan.bytes_read(),
            run.bytes
        );
    }

    #[test]
    fn scan_outside_key_range_reads_nothing() {
        let (ssd, s, cfg) = setup();
        let us = updates(&[100, 200, 300]);
        let run = Arc::new(write_run(&s, &ssd, &cfg, 1, 0, 1, &us).unwrap());
        let mut scan = RunScan::with_cache(ssd, s, run, None, 400, 500);
        assert!(scan.next().is_none());
        assert_eq!(scan.bytes_read(), 0);
    }

    #[test]
    fn run_writes_are_never_random() {
        let (ssd, s, cfg) = setup();
        ssd.prime_head_position(0);
        ssd.reset_stats();
        let keys: Vec<Key> = (0..5000).collect();
        let us = updates(&keys);
        write_run(&s, &ssd, &cfg, 1, 0, 1, &us).unwrap();
        let stats = ssd.stats();
        assert_eq!(stats.random_writes, 0, "{stats:?}");
        assert!(stats.write_ops > 10);
    }

    #[test]
    fn cached_rescan_reads_zero_bytes() {
        let (ssd, s, cfg) = setup();
        let keys: Vec<Key> = (0..500).collect();
        let run = Arc::new(write_run(&s, &ssd, &cfg, 1, 0, 1, &updates(&keys)).unwrap());
        let cache = Arc::new(BlockCache::new(1 << 20));
        let cold: Vec<Key> = RunScan::with_cache(
            ssd.clone(),
            s.clone(),
            Arc::clone(&run),
            Some(Arc::clone(&cache)),
            0,
            u64::MAX,
        )
        .map(|u| u.key)
        .collect();
        assert_eq!(cold, keys);
        let mut warm = RunScan::with_cache(ssd, s, run, Some(Arc::clone(&cache)), 0, u64::MAX);
        let warm_keys: Vec<Key> = warm.by_ref().map(|u| u.key).collect();
        assert_eq!(warm_keys, keys);
        assert_eq!(warm.bytes_read(), 0, "warm scan is pure cache");
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn point_lookup_finds_and_excludes() {
        let (ssd, s, cfg) = setup();
        let keys: Vec<Key> = (0..400).map(|i| i * 2).collect();
        let run = write_run(&s, &ssd, &cfg, 1, 0, 1, &updates(&keys)).unwrap();
        let lookup = |key: Key| {
            let mut found = Vec::new();
            let hashes = BloomFilter::hashes_of(key);
            lookup_in_run(&s, &ssd, &run, None, key, hashes, |u| found.push(u)).unwrap();
            found
        };
        let hit = lookup(200);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].key, 200);
        // Absent keys mostly cost zero reads thanks to the bloom filter.
        ssd.reset_stats();
        let mut io_free = 0;
        for probe in 0..100u64 {
            let before = ssd.stats().read_ops;
            assert!(lookup(probe * 2 + 1).is_empty());
            if ssd.stats().read_ops == before {
                io_free += 1;
            }
        }
        assert!(io_free > 90, "bloom skipped I/O for {io_free}/100");
    }

    #[test]
    fn recovery_reopens_run_from_footer() {
        let (ssd, s, cfg) = setup();
        let keys: Vec<Key> = (0..300).map(|i| i * 3).collect();
        let run = write_run(&s, &ssd, &cfg, 7, 0, 2, &updates(&keys)).unwrap();
        let back = recover_run(&s, &ssd, 7, 0, run.bytes, 2).unwrap();
        assert_eq!(back.count, run.count);
        assert_eq!(back.min_key, run.min_key);
        assert_eq!(back.max_key, run.max_key);
        assert_eq!(back.min_ts, run.min_ts);
        assert_eq!(back.max_ts, run.max_ts);
        assert_eq!(back.meta.zones, run.meta.zones);
        let got: Vec<Key> = RunScan::with_cache(ssd, s, Arc::new(back), None, 0, u64::MAX)
            .map(|u| u.key)
            .collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn ssd_space_rewinds_when_empty() {
        let (ssd, s, cfg) = setup();
        let us = updates(&[1, 3, 5]);
        let mut rs = RunSet::new();
        let a = write_run(&s, &ssd, &cfg, 1, 0, 1, &us).unwrap();
        assert_eq!(rs.alloc_space(a.bytes), 0);
        let b = write_run(&s, &ssd, &cfg, 2, a.bytes, 1, &us).unwrap();
        assert_eq!(rs.alloc_space(b.bytes), a.bytes);
        let high = a.bytes + b.bytes;
        rs.add(Arc::new(a));
        rs.add(Arc::new(b));
        rs.remove_ids(&[1]);
        assert_eq!(rs.rewind_space(), high, "a live run keeps the mark");
        rs.remove_ids(&[2]);
        assert_eq!(rs.live_bytes(), 0);
        assert_eq!(rs.rewind_space(), 0, "pointer rewound");
        assert_eq!(rs.alloc_space(10), 0);
    }
}
