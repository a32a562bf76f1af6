//! Opening a table: fold each shard's redo log into the state its
//! engine is built from. A fresh engine is the recovery of the empty
//! log and a standalone engine is the one-shard case, so [`open`] is
//! the one construction site and the one recovery path.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use masm_blockrun::BlockCache;
use masm_pagestore::page::max_record_len;
use masm_pagestore::record::RECORD_HEADER;
use masm_pagestore::{ChunkCommit, Key, Schema, TableHeap};
use masm_storage::{CompressionReport, MergeReport, SessionHandle, SimDevice, TrackedMutex};
use masm_telemetry::Tracer;

use super::state::EngineState;
use super::{EngineMetrics, MasmEngine, RecoveryReport};
use crate::algo::RunSet;
use crate::config::MasmConfig;
use crate::error::{MasmError, MasmResult};
use crate::manifest::ShardManifest;
use crate::membuf::UpdateBuffer;
use crate::run::recover_run;
use crate::shard::ShardRouter;
use crate::ts::{Timestamp, TimestampOracle};
use crate::update::UpdateRecord;
use crate::wal::{Wal, WalRecord};
use crate::worker::{WorkerHandle, WorkerPool};

/// One heap-metadata event parsed from a redo log. [`open`] merges the
/// events of every shard's log into one globally ordered sequence (by
/// `seq`, with cross-log duplicates removed) before touching the
/// shared heap.
#[derive(Debug, Clone)]
enum HeapEvent {
    /// A bulk load ([`WalRecord::HeapLoaded`]).
    Load {
        /// Global heap-event sequence number.
        seq: u64,
        /// Physical base offset of the load.
        base: u64,
        /// Page size used.
        page_size: u32,
        /// Minimum key per page.
        min_keys: Vec<Key>,
        /// Total records loaded.
        record_count: u64,
    },
    /// A migration chunk splice ([`WalRecord::MapSplice`]).
    Splice {
        /// Global heap-event sequence number.
        seq: u64,
        /// The logged splice.
        commit: ChunkCommit,
    },
}

impl HeapEvent {
    fn seq(&self) -> u64 {
        match self {
            HeapEvent::Load { seq, .. } | HeapEvent::Splice { seq, .. } => *seq,
        }
    }
}

/// Replay the heap-metadata events of one or more redo logs against a
/// (fresh) table heap, in global `seq` order. Duplicates — the same
/// bulk load broadcast to several shard WALs — collapse by `seq`.
fn apply_heap_events(heap: &TableHeap, mut events: Vec<HeapEvent>) {
    events.sort_by_key(HeapEvent::seq);
    events.dedup_by_key(|e| e.seq());
    for ev in events {
        match ev {
            HeapEvent::Load {
                base,
                page_size,
                min_keys,
                record_count,
                ..
            } => {
                let page_map: Vec<u64> = (0..min_keys.len() as u64)
                    .map(|i| base + i * page_size as u64)
                    .collect();
                let alloc_next = base + min_keys.len() as u64 * page_size as u64;
                heap.restore(page_map, min_keys, record_count, alloc_next);
            }
            HeapEvent::Splice { commit, .. } => heap.apply_splice(&commit),
        }
    }
}

/// One materialized run named by the redo log as live at the crash.
#[derive(Debug, Clone, Copy)]
struct RecoveredRun {
    base: u64,
    bytes: u64,
    passes: u8,
}

/// Everything crash recovery needs from one shard's redo log: the
/// record-level fold of the longest valid log prefix. The default is
/// the empty log a fresh engine starts from.
#[derive(Default)]
pub(crate) struct ParsedWal {
    /// The shard manifest, when the log belongs to a sharded
    /// deployment (absent on standalone engines).
    pub(crate) manifest: Option<ShardManifest>,
    /// Runs created and not yet deleted, by run id.
    live_runs: BTreeMap<u64, RecoveredRun>,
    /// Logged updates not yet absorbed by any 1-pass run — the
    /// in-memory buffer contents at the crash.
    pending: Vec<UpdateRecord>,
    /// Highest durable timestamp (updates, migration marks, and
    /// heap-event seqs all draw from the one oracle).
    max_ts: Timestamp,
    /// A `MigrationBegin` without its `MigrationEnd`.
    unfinished_migration: bool,
    /// Heap loads and splices, in log order.
    heap_events: Vec<HeapEvent>,
    /// Records in the valid prefix.
    records_replayed: u64,
    /// Byte offset where the valid prefix ends (the recovered append
    /// point).
    end_offset: u64,
    /// Bytes dropped beyond `end_offset` (torn tail; 0 = clean end).
    torn_bytes: u64,
}

/// One shard's share of [`open`]: its devices, its slice of the
/// configuration and its parsed redo log.
pub(crate) struct ShardLog {
    pub(crate) ssd: SimDevice,
    pub(crate) wal: SimDevice,
    pub(crate) cfg: MasmConfig,
    pub(crate) log: ParsedWal,
}

/// Open a table: one engine per shard of `router` over the shared
/// `heap`, each built from its redo log — the one construction and
/// recovery path behind [`MasmEngine::new`], [`MasmEngine::recover`],
/// [`crate::ShardedEngine::new`] and [`crate::ShardedEngine::recover`].
/// A fresh table is the recovery of empty logs; a standalone engine is
/// the one-shard case.
///
/// In order: the schema's records must fit a heap page; every log that
/// carries a [`ShardManifest`] is checked against the topology it is
/// being opened under, before anything is trusted or touched; the heap
/// events of all logs are merged and
/// applied; each engine is built from its log with a clone of one
/// [`TimestampOracle`] (a single commit order across shards); one
/// worker pool is wired over all of them; interrupted migrations are
/// re-driven one after another.
pub(crate) fn open(
    heap: Arc<TableHeap>,
    schema: Schema,
    router: &ShardRouter,
    tracer: Option<&Arc<Tracer>>,
    mut shards: Vec<ShardLog>,
) -> MasmResult<(Vec<Arc<MasmEngine>>, Vec<RecoveryReport>)> {
    let n = router.shards();
    if shards.len() != n {
        return Err(MasmError::Config(format!(
            "{n} shards were given {} redo logs",
            shards.len()
        )));
    }
    // A record that fits no heap page could be inserted and logged but
    // never migrated: refuse the table, not the migration.
    let (page_size, record_len) = (
        heap.config().page_size,
        RECORD_HEADER + schema.payload_width(),
    );
    if record_len > max_record_len(page_size) {
        return Err(MasmError::Config(format!(
            "the schema's records take {record_len} encoded bytes; a {page_size}-byte heap page \
             holds at most {}",
            max_record_len(page_size)
        )));
    }
    for (shard_id, shard) in shards.iter().enumerate() {
        shard.cfg.validate()?;
        // A log is opened only under the topology it was written for:
        // its runs hold one key range's updates and its heap events
        // are a share of the deployment's.
        let Some(m) = &shard.log.manifest else {
            continue;
        };
        if (m.shards as usize, m.shard_id as usize) != (n, shard_id)
            || m.split_keys != router.split_points()
        {
            return Err(MasmError::Config(format!(
                "the redo log's manifest names shard {} of {} (split keys {:?}); \
                 it cannot be opened as shard {shard_id} of {n} (split keys {:?})",
                m.shard_id,
                m.shards,
                m.split_keys,
                router.split_points()
            )));
        }
    }

    // One globally ordered heap replay across every log: loads and
    // migration splices interleave by their shared sequence numbers,
    // duplicates (broadcast loads) collapse.
    let events = shards
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.log.heap_events))
        .collect();
    apply_heap_events(&heap, events);

    let oracle = TimestampOracle::new();
    let (mut engines, mut reports) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (shard_id, shard) in shards.into_iter().enumerate() {
        let (engine, report) = MasmEngine::from_log(
            Arc::clone(&heap),
            schema.clone(),
            oracle.clone(),
            tracer,
            shard_id,
            router.shard_range(shard_id),
            shard,
        )?;
        engines.push(engine);
        reports.push(report);
    }

    // One pool serves every shard (the whole backlog budget, one set
    // of job counters per shard); none in inline mode.
    let threads = engines[0].cfg.background_workers;
    if threads > 0 {
        let backlog = engines
            .iter()
            .map(|e| e.cfg.effective_backlog_bytes())
            .sum();
        let pool = WorkerPool::new(threads, backlog, engines.len());
        let handle = WorkerHandle::spawn(&engines, pool);
        for e in &engines {
            let _ = e.workers.set(handle.clone());
        }
    }

    // Re-drive interrupted migrations to completion (idempotent thanks
    // to page timestamps), one after another: the shared heap admits
    // one rewriter at a time.
    for (engine, report) in engines.iter().zip(&reports) {
        if report.redid_migration {
            let session = SessionHandle::fresh(engine.ssd.clock().clone());
            engine.migrate(&session)?;
            let (now, shard) = (engine.ssd.clock().now(), engine.shard_id as u64);
            engine.trace_instant("recovery.migration_redo", now, "shard", shard);
        }
    }
    Ok((engines, reports))
}

impl MasmEngine {
    /// Create an engine over an existing (possibly empty) heap: the
    /// recovery of an empty redo log.
    pub fn new(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal_dev: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
    ) -> MasmResult<Arc<Self>> {
        Self::open_one(heap, ssd, wal_dev, schema, cfg, ParsedWal::default(), None)
            .map(|(engine, _)| engine)
    }

    /// Rebuild an engine after a crash: heap metadata, run set, and the
    /// in-memory update buffer come back from the redo log and the
    /// (durable) SSD; an interrupted migration is re-driven to
    /// completion (idempotent thanks to page timestamps). A torn WAL
    /// tail — a record cut off mid-append by the crash — is truncated
    /// and reported in [`RecoveryReport::wal_torn_bytes`]; corruption
    /// anywhere *before* the tail stays a hard error, and so does a log
    /// that belongs to one shard of a sharded deployment (that is
    /// [`crate::ShardedEngine::recover`]'s to open).
    pub fn recover(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal_dev: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
    ) -> MasmResult<(Arc<Self>, RecoveryReport)> {
        Self::recover_traced(heap, ssd, wal_dev, schema, cfg, None)
    }

    /// [`MasmEngine::recover`] with an optional flight recorder: the
    /// tracer is installed before replay side effects begin, so the
    /// recovery itself shows up as a `recovery` span (plus
    /// `recovery.torn_tail` / `recovery.migration_redo` instants).
    pub fn recover_traced(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal_dev: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
        tracer: Option<Arc<Tracer>>,
    ) -> MasmResult<(Arc<Self>, RecoveryReport)> {
        let log = Self::parse_wal(&SessionHandle::fresh(ssd.clock().clone()), &wal_dev)?;
        Self::open_one(heap, ssd, wal_dev, schema, cfg, log, tracer.as_ref())
    }

    /// [`open`] for a table that stands alone: one log, the whole
    /// keyspace, `cfg` as given.
    fn open_one(
        heap: Arc<TableHeap>,
        ssd: SimDevice,
        wal: SimDevice,
        schema: Schema,
        cfg: MasmConfig,
        log: ParsedWal,
        tracer: Option<&Arc<Tracer>>,
    ) -> MasmResult<(Arc<Self>, RecoveryReport)> {
        let shard = ShardLog { ssd, wal, cfg, log };
        let (mut engines, mut reports) =
            open(heap, schema, &ShardRouter::default(), tracer, vec![shard])?;
        Ok(engines
            .pop()
            .zip(reports.pop())
            .expect("one log, one engine"))
    }

    /// Fold one redo log into its recovery-relevant state (the longest
    /// valid prefix; torn tails are truncated here, per [`Wal::replay`]).
    pub(crate) fn parse_wal(session: &SessionHandle, wal_dev: &SimDevice) -> MasmResult<ParsedWal> {
        let replay = Wal::replay(session, wal_dev)?;
        // A crash-snapshot device carries no write-head position: prime
        // it at the recovered append point so the first post-recovery
        // append continues the sequential pattern instead of being
        // charged as a seek.
        wal_dev.prime_head_position_if_unset(replay.end_offset);
        let mut parsed = ParsedWal {
            records_replayed: replay.records.len() as u64,
            end_offset: replay.end_offset,
            torn_bytes: replay.torn_bytes,
            ..ParsedWal::default()
        };
        for rec in replay.records {
            match rec {
                WalRecord::Update(u) => {
                    parsed.max_ts = parsed.max_ts.max(u.ts);
                    parsed.pending.push(u);
                }
                WalRecord::RunCreated {
                    id,
                    base,
                    bytes,
                    passes,
                    max_ts: flushed_through,
                    ..
                } => {
                    parsed.live_runs.insert(
                        id,
                        RecoveredRun {
                            base,
                            bytes,
                            passes,
                        },
                    );
                    if passes == 1 {
                        // Updates at or below `flushed_through` are
                        // durable in logged runs; the rest were still
                        // buffer-resident at the crash. A timestamp
                        // filter (not log position) because concurrent
                        // appenders interleave Update and RunCreated
                        // records; re-applied duplicates are idempotent.
                        parsed.pending.retain(|u| u.ts > flushed_through);
                    }
                }
                WalRecord::RunsDeleted(ids) => {
                    for id in ids {
                        parsed.live_runs.remove(&id);
                    }
                }
                WalRecord::MigrationBegin { ts, .. } => {
                    parsed.max_ts = parsed.max_ts.max(ts);
                    parsed.unfinished_migration = true;
                }
                WalRecord::MigrationEnd { .. } => {
                    parsed.unfinished_migration = false;
                }
                WalRecord::HeapLoaded {
                    seq,
                    base,
                    page_size,
                    min_keys,
                    record_count,
                } => {
                    parsed.max_ts = parsed.max_ts.max(seq);
                    parsed.heap_events.push(HeapEvent::Load {
                        seq,
                        base,
                        page_size,
                        min_keys,
                        record_count,
                    });
                }
                WalRecord::MapSplice { seq, commit } => {
                    parsed.max_ts = parsed.max_ts.max(seq);
                    parsed.heap_events.push(HeapEvent::Splice { seq, commit });
                }
                WalRecord::Manifest(m) => {
                    if parsed.manifest.as_ref().is_some_and(|prev| *prev != m) {
                        return Err(MasmError::Corrupt("conflicting manifests in one WAL"));
                    }
                    parsed.manifest = Some(m);
                }
            }
        }
        Ok(parsed)
    }

    /// Build one engine from its parsed redo log — the one engine
    /// literal. The heap already holds its recovered metadata and the
    /// shared `oracle` is advanced past this log's durable maximum
    /// (order-independent, so shards fold in any order). An interrupted
    /// migration is reported (`redid_migration`), not yet re-driven:
    /// [`open`] does that once every shard stands.
    fn from_log(
        heap: Arc<TableHeap>,
        schema: Schema,
        oracle: TimestampOracle,
        tracer: Option<&Arc<Tracer>>,
        shard_id: usize,
        key_range: (Key, Key),
        shard: ShardLog,
    ) -> MasmResult<(Arc<Self>, RecoveryReport)> {
        let ShardLog { ssd, wal, cfg, log } = shard;
        let t0 = ssd.clock().now();
        let session = SessionHandle::fresh(ssd.clock().clone());
        let mut max_ts = log.max_ts;

        // Re-open run metadata from the durable, checksummed block-run
        // footers: zone maps, bloom filters, and key/timestamp bounds
        // come back without decoding a single update record.
        let mut runs = RunSet::new();
        for (id, info) in &log.live_runs {
            let run = recover_run(&session, &ssd, *id, info.base, info.bytes, info.passes)?;
            max_ts = max_ts.max(run.max_ts);
            runs.add(Arc::new(run));
        }
        let high_water = runs.rewind_space();
        if let Some(last) = log.live_runs.keys().next_back() {
            runs.resume_ids_after(*last);
        }
        let runs_recovered = runs.len();

        // The engine only ever appends runs from its high-water mark
        // (offset 0 when fresh); prime the head there so the
        // first run write on a device without a head position — fresh,
        // or a crash snapshot — is classified sequential (design goal
        // 2: random_writes == 0, also across a crash). On a shared
        // device that already has a head position this is a no-op —
        // another engine's accounting must not be rewritten. (The WAL
        // head is primed where the log was read, in `parse_wal`.)
        ssd.prime_head_position_if_unset(high_water);

        oracle.advance_past(max_ts);

        // Erase a torn tail before the log takes another append (see
        // `WalReplay::torn_bytes`).
        if log.torn_bytes > 0 {
            session.write(&wal, log.end_offset, &vec![0; log.torn_bytes as usize])?;
        }

        let mut buffer = UpdateBuffer::new(cfg.update_buffer_bytes() as usize);
        let updates_recovered = log.pending.len() as u64;
        for u in log.pending {
            buffer.push(u);
        }

        // Re-pin the recovered runs' metadata footprint in the cache
        // accounting (zone maps + blooms live as long as the runs do),
        // and rebuild the codec accounting from their zone maps.
        let cache = Arc::new(BlockCache::with_config(cfg.cache_config()));
        let mut compression = CompressionReport::default();
        for r in runs.runs() {
            cache.retain_meta_bytes(r.memory_bytes());
            compression = compression.merge(&r.meta.compression());
        }

        let engine = Arc::new(MasmEngine {
            heap,
            ssd,
            cache,
            cfg,
            schema,
            oracle,
            state: TrackedMutex::new(EngineState::new(buffer, runs)),
            quiesce: Condvar::new(),
            wal: Wal::new(wal, log.end_offset),
            workers: OnceLock::new(),
            shard_id,
            key_range,
            commit_index: Mutex::new(std::collections::HashMap::new()),
            merge_totals: Mutex::new(MergeReport::default()),
            compression_totals: Mutex::new(compression),
            metrics: EngineMetrics::default(),
            tracer: OnceLock::new(),
            compact_flow: AtomicU64::new(0),
            migrate_flow: AtomicU64::new(0),
        });
        if let Some(t) = tracer {
            engine.install_tracer(Arc::clone(t));
        }

        let t1 = engine.ssd.clock().now();
        if let Some(t) = engine.trace() {
            let dur = (t1 - t0).max(1);
            t.span_event(
                "recovery",
                engine.track(),
                t0,
                dur,
                "records",
                log.records_replayed,
            );
        }
        if log.torn_bytes > 0 {
            engine.trace_instant("recovery.torn_tail", t1, "bytes", log.torn_bytes);
        }

        let report = RecoveryReport {
            updates_recovered,
            runs_recovered,
            redid_migration: log.unfinished_migration,
            wal_records_replayed: log.records_replayed,
            wal_torn_bytes: log.torn_bytes,
        };
        Ok((engine, report))
    }
}
