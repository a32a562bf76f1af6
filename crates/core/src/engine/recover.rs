//! Opening a table: fold its redo log into the state the engine is
//! built from. A fresh engine is the recovery of the empty log, so
//! [`open`] is the one construction site and the one recovery path.

use std::collections::BTreeMap;
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
use crate::membuf::UpdateBuffer;
use crate::run::recover_run;
use crate::ts::{Timestamp, TimestampOracle};
use crate::update::UpdateRecord;
use crate::wal::{Wal, WalRecord};

/// One heap-metadata event parsed from the redo log, replayed in log
/// order against the (fresh) table heap before the engine is built.
enum HeapEvent {
    /// A bulk load ([`WalRecord::HeapLoaded`]).
    Load {
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
    Splice(ChunkCommit),
}

/// Replay the heap-metadata events of the redo log against a (fresh)
/// table heap. A splice that does not fit the heap rebuilt so far is
/// corruption, not a crash artefact: the log is refused.
fn apply_heap_events(heap: &TableHeap, events: Vec<HeapEvent>) -> MasmResult<()> {
    for ev in events {
        match ev {
            HeapEvent::Load {
                base,
                page_size,
                min_keys,
                record_count,
            } => {
                let page_map: Vec<u64> = (0..min_keys.len() as u64)
                    .map(|i| base + i * page_size as u64)
                    .collect();
                let alloc_next = base + min_keys.len() as u64 * page_size as u64;
                heap.restore(page_map, min_keys, record_count, alloc_next);
            }
            HeapEvent::Splice(commit) => heap.apply_splice(&commit).map_err(MasmError::Corrupt)?,
        }
    }
    Ok(())
}

/// One materialized run named by the redo log as live at the crash.
#[derive(Debug, Clone, Copy)]
struct RecoveredRun {
    base: u64,
    bytes: u64,
    passes: u8,
}

/// Everything crash recovery needs from the redo log: the
/// record-level fold of the longest valid log prefix. The default is
/// the empty log a fresh engine starts from.
#[derive(Default)]
struct ParsedWal {
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
        open(heap, ssd, wal_dev, schema, cfg, ParsedWal::default(), None).map(|(engine, _)| engine)
    }

    /// Rebuild an engine after a crash: heap metadata, run set, and the
    /// in-memory update buffer come back from the redo log and the
    /// (durable) SSD; an interrupted migration is re-driven to
    /// completion (idempotent thanks to page timestamps). A torn WAL
    /// tail — a record cut off mid-append by the crash — is truncated
    /// and reported in [`RecoveryReport::wal_torn_bytes`]; corruption
    /// anywhere *before* the tail stays a hard error, and so does a
    /// record no replay step can apply (an unknown tag, a heap splice
    /// outside the heap).
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
        open(heap, ssd, wal_dev, schema, cfg, log, tracer.as_ref())
    }

    /// Fold one redo log into its recovery-relevant state (the longest
    /// valid prefix; torn tails are truncated here, per [`Wal::replay`]).
    fn parse_wal(session: &SessionHandle, wal_dev: &SimDevice) -> MasmResult<ParsedWal> {
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
                        base,
                        page_size,
                        min_keys,
                        record_count,
                    });
                }
                WalRecord::MapSplice { seq, commit } => {
                    parsed.max_ts = parsed.max_ts.max(seq);
                    parsed.heap_events.push(HeapEvent::Splice(commit));
                }
            }
        }
        Ok(parsed)
    }
}

/// Open a table from its parsed redo log — the one construction and
/// recovery path behind [`MasmEngine::new`] and [`MasmEngine::recover`],
/// and the one engine literal. A fresh table is the recovery of the
/// empty log.
///
/// In order: the configuration must be valid and the schema's records
/// must fit a heap page; the log's heap events are replayed; the run
/// set, the oracle and the update buffer come back from the log and the
/// runs' footers; an interrupted migration is re-driven.
fn open(
    heap: Arc<TableHeap>,
    ssd: SimDevice,
    wal: SimDevice,
    schema: Schema,
    cfg: MasmConfig,
    mut log: ParsedWal,
    tracer: Option<&Arc<Tracer>>,
) -> MasmResult<(Arc<MasmEngine>, RecoveryReport)> {
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
    cfg.validate()?;
    apply_heap_events(&heap, std::mem::take(&mut log.heap_events))?;

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

    let oracle = TimestampOracle::new();
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
        commit_index: Mutex::new(std::collections::HashMap::new()),
        merge_totals: Mutex::new(MergeReport::default()),
        compression_totals: Mutex::new(compression),
        metrics: EngineMetrics::default(),
        tracer: OnceLock::new(),
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

    // Re-drive an interrupted migration to completion (idempotent
    // thanks to page timestamps).
    if log.unfinished_migration {
        let session = SessionHandle::fresh(engine.ssd.clock().clone());
        let redone = engine.migrate(&session)?;
        let now = engine.ssd.clock().now();
        engine.trace_instant("recovery.migration_redo", now, "ts", redone.ts);
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
